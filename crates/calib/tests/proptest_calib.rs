//! Property-based tests of the calibration stack.

use proptest::prelude::*;
use rand::SeedableRng;

use photon_calib::{
    calibrate, field_fidelity, levenberg_marquardt, measure_chip, power_fidelity,
    CalibrationSettings, LmSettings, ProbePlan,
};
use photon_exec::ExecPool;
use photon_linalg::{CVector, RVector, C64};
use photon_photonics::{Architecture, ErrorModel, ErrorVector, FabricatedChip};

fn arb_cvec(n: usize) -> impl Strategy<Value = CVector> {
    proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), n)
        .prop_map(|v| CVector::from_vec(v.into_iter().map(|(re, im)| C64::new(re, im)).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fidelities are symmetric-ish bounded scores in [0, 1], equal to 1 on
    /// identical fields and invariant to global phase.
    #[test]
    fn fidelity_bounds_and_phase_invariance(
        y in arb_cvec(4),
        phase in 0.0..std::f64::consts::TAU,
    ) {
        prop_assume!(y.norm() > 0.1);
        let rotated = y.scale(C64::cis(phase));
        prop_assert!((field_fidelity(&y, &rotated) - 1.0).abs() < 1e-9);
        prop_assert!((power_fidelity(&y, &rotated) - 1.0).abs() < 1e-9);
        let other = CVector::basis(4, 0);
        let f = field_fidelity(&y, &other);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
        let p = power_fidelity(&y, &other);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    /// LM never increases the cost relative to the starting point.
    #[test]
    fn lm_cost_never_increases(
        target in proptest::collection::vec(-2.0..2.0f64, 3),
        start in proptest::collection::vec(-2.0..2.0f64, 3),
    ) {
        let t = target.clone();
        let mut residual = move |p: &RVector| {
            RVector::from_fn(3, |i| (p[i] - t[i]) * (1.0 + 0.3 * p[i] * p[i]))
        };
        let fit = levenberg_marquardt(
            &mut residual,
            &RVector::from_slice(&start),
            &LmSettings { max_iters: 10, ..LmSettings::default() },
        ).unwrap();
        prop_assert!(fit.cost <= fit.initial_cost + 1e-12);
        prop_assert!(fit.params.iter().all(|v| v.is_finite()));
    }

    /// Probe plans cost exactly inputs × settings queries, for any shape.
    #[test]
    fn plan_query_cost(
        seed in 0u64..300,
        random_inputs in 1usize..6,
        num_settings in 1usize..4,
        include_basis in any::<bool>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let arch = Architecture::single_mesh(3, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let plan = ProbePlan::for_chip(&chip, include_basis, random_inputs, num_settings, &mut rng);
        let expected_inputs = random_inputs + if include_basis { 3 } else { 0 };
        prop_assert_eq!(plan.query_cost(), expected_inputs * num_settings);
        chip.reset_query_count();
        let _ = measure_chip(&chip, &plan, &ExecPool::serial());
        prop_assert_eq!(chip.query_count() as usize, plan.query_cost());
    }

    /// Calibrating a chip whose errors are *zero* always returns near-zero
    /// fit cost (the model family contains the truth).
    #[test]
    fn zero_error_chip_fits_exactly(seed in 0u64..200) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let arch = Architecture::single_mesh(3, 2).unwrap();
        let (n_bs, n_ps) = arch.error_slots();
        let chip = FabricatedChip::with_errors(&arch, &ErrorVector::zeros(n_bs, n_ps)).unwrap();
        let settings = CalibrationSettings {
            random_inputs: 3,
            num_settings: 2,
            lm: LmSettings { max_iters: 4, ..LmSettings::default() },
            ..CalibrationSettings::default()
        };
        let out = calibrate(&chip, &settings, &mut rng).unwrap();
        prop_assert!(out.fit_cost < 1e-12, "cost {}", out.fit_cost);
    }

    /// Calibration's fit cost never exceeds the ideal-model residual (LM
    /// starts from zero errors and only improves).
    #[test]
    fn calibration_cost_monotone(seed in 0u64..100, beta in 0.5..3.0f64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let arch = Architecture::single_mesh(3, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(beta), &mut rng);
        let settings = CalibrationSettings {
            random_inputs: 4,
            num_settings: 2,
            lm: LmSettings { max_iters: 5, ..LmSettings::default() },
            ..CalibrationSettings::default()
        };
        let out = calibrate(&chip, &settings, &mut rng).unwrap();
        prop_assert!(out.fit_cost <= out.initial_cost + 1e-12);
    }
}
