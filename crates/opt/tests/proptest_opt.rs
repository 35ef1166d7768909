//! Property-based tests of the optimizer contracts.

use proptest::prelude::*;
use rand::SeedableRng;

use photon_exec::ExecPool;
use photon_linalg::{RMatrix, RVector};
use photon_opt::{
    draw_perturbation, estimate_gradient, lcng_direction, Adam, CmaEs, LcngSettings, MetricSource,
    Optimizer, Perturbation, Sgd, ZoSettings,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// SGD with a zero gradient never moves the parameters.
    #[test]
    fn sgd_zero_gradient_is_identity(theta0 in proptest::collection::vec(-5.0..5.0f64, 4)) {
        let mut opt = Sgd::new(0.5);
        let mut theta = RVector::from_slice(&theta0);
        opt.step(&mut theta, &RVector::zeros(4));
        prop_assert_eq!(theta.as_slice(), theta0.as_slice());
    }

    /// One SGD step is exactly θ − η·g for any gradient.
    #[test]
    fn sgd_step_formula(
        theta0 in proptest::collection::vec(-5.0..5.0f64, 3),
        grad in proptest::collection::vec(-5.0..5.0f64, 3),
        lr in 0.001..1.0f64,
    ) {
        let mut opt = Sgd::new(lr);
        let mut theta = RVector::from_slice(&theta0);
        opt.step(&mut theta, &RVector::from_slice(&grad));
        for i in 0..3 {
            prop_assert!((theta[i] - (theta0[i] - lr * grad[i])).abs() < 1e-12);
        }
    }

    /// Adam's per-coordinate step magnitude is bounded by roughly the
    /// learning rate (the bounded-update property).
    #[test]
    fn adam_update_is_bounded(
        grads in proptest::collection::vec(
            proptest::collection::vec(-100.0..100.0f64, 3), 1..10),
        lr in 0.001..0.5f64,
    ) {
        let mut opt = Adam::new(lr);
        let mut theta = RVector::zeros(3);
        for g in &grads {
            let before = theta.clone();
            opt.step(&mut theta, &RVector::from_slice(g));
            for i in 0..3 {
                prop_assert!(
                    (theta[i] - before[i]).abs() <= 3.0 * lr + 1e-9,
                    "step {} exceeded bound", (theta[i] - before[i]).abs()
                );
            }
        }
    }

    /// The ZO estimate on a *linear* loss is (in expectation) the gradient;
    /// per-draw, it always lies in the span of the probes, and the
    /// directional derivative along the estimate is non-negative.
    #[test]
    fn zo_estimate_positively_correlates_on_linear_loss(
        g in proptest::collection::vec(-2.0..2.0f64, 4),
        seed in 0u64..500,
    ) {
        let gvec = RVector::from_slice(&g);
        prop_assume!(gvec.norm() > 0.1);
        let gv = gvec.clone();
        let loss = move |t: &RVector| t.dot(&gv).unwrap();
        let theta = RVector::zeros(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let settings = ZoSettings { q: 64, mu: 1e-6, lambda: 1.0 };
        let (est, _) = estimate_gradient(&loss, &theta, 0.0, &settings,
                                         &Perturbation::Gaussian, None,
                                         &ExecPool::serial(), &mut rng);
        // ⟨ĝ, g⟩ > 0 with overwhelming probability at Q=64.
        prop_assert!(est.gradient.dot(&gvec).unwrap() > 0.0);
    }

    /// Every perturbation family produces vectors of the right length, and
    /// coordinate probes are exactly one-hot.
    #[test]
    fn perturbation_shapes(seed in 0u64..500, n in 1usize..20, idx in 0usize..50) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for pert in [Perturbation::Gaussian, Perturbation::Bernoulli] {
            let d = draw_perturbation(&pert, n, idx, &mut rng);
            prop_assert_eq!(d.len(), n);
        }
        let c = draw_perturbation(&Perturbation::Coordinate { offset: 3 }, n, idx, &mut rng);
        prop_assert_eq!(c.iter().filter(|&&x| x != 0.0).count(), 1);
        prop_assert!((c.norm() - 1.0).abs() < 1e-15);
    }

    /// On a convex quadratic, a damped step along the LCNG direction never
    /// increases the loss (for small enough step).
    #[test]
    fn lcng_direction_is_descent_on_quadratics(
        diag in proptest::collection::vec(0.5..8.0f64, 4),
        lin in proptest::collection::vec(-2.0..2.0f64, 4),
        seed in 0u64..300,
    ) {
        let d = diag.clone();
        let l = lin.clone();
        let f = move |t: &RVector| -> f64 {
            (0..4).map(|i| 0.5 * d[i] * t[i] * t[i] - l[i] * t[i]).sum()
        };
        let gnorm: f64 = lin.iter().map(|x| x * x).sum::<f64>();
        prop_assume!(gnorm > 0.01);
        let theta = RVector::zeros(4);
        let base = f(&theta);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut settings = LcngSettings::for_dimension(4, 12);
        settings.zo.mu = 1e-6;
        let (step, _) = lcng_direction(&f, &theta, base, &settings,
                                       &Perturbation::Gaussian, &MetricSource::Identity,
                                       None, &ExecPool::serial(), &mut rng).unwrap();
        prop_assume!(step.direction.norm() > 1e-9);
        let mut trial = theta.clone();
        trial.axpy(0.05 / step.direction.norm(), &step.direction);
        prop_assert!(f(&trial) <= base + 1e-9, "{} > {base}", f(&trial));
    }

    /// CMA-ES never loses its best-so-far (monotone elitism of the record).
    #[test]
    fn cma_best_is_monotone(seed in 0u64..200, gens in 2usize..10) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut es = CmaEs::with_population(&RVector::ones(3), 0.5, 8);
        let mut prev = f64::INFINITY;
        for _ in 0..gens {
            let xs = es.ask(&mut rng);
            let losses: Vec<f64> = xs.iter().map(|x| x.norm_sqr()).collect();
            es.tell(&xs, &losses).unwrap();
            let best = es.best().unwrap().1;
            prop_assert!(best <= prev + 1e-12);
            prev = best;
        }
    }

    /// Shaped perturbations with an identity covariance factor reduce to
    /// plain Gaussian statistics (variance ≈ 1 per coordinate).
    #[test]
    fn shaped_identity_matches_gaussian(seed in 0u64..100) {
        use photon_linalg::RCholesky;
        let chol = RCholesky::new(&RMatrix::identity(3)).unwrap();
        let segments = [(0usize, chol)];
        let pert = Perturbation::Shaped { segments: &segments };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut acc = 0.0;
        let trials = 600;
        for _ in 0..trials {
            let d = draw_perturbation(&pert, 3, 0, &mut rng);
            acc += d.norm_sqr();
        }
        let mean_sq = acc / trials as f64;
        prop_assert!((mean_sq - 3.0).abs() < 0.6, "E‖d‖² = {mean_sq}");
    }
}
