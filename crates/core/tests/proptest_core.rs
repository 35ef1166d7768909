//! Property-based tests of the training core.

use proptest::prelude::*;

use photon_core::{
    build_task, mann_whitney_u, normal_sf, softmax, ClassificationHead, RunSummary, TaskSpec,
};
use photon_linalg::{CVector, RVector, C64};

fn arb_output(n: usize) -> impl Strategy<Value = CVector> {
    proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), n)
        .prop_map(|v| CVector::from_vec(v.into_iter().map(|(re, im)| C64::new(re, im)).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Softmax is a probability distribution, shift-invariant in the
    /// logits, and order-preserving.
    #[test]
    fn softmax_axioms(
        logits in proptest::collection::vec(-20.0..20.0f64, 2..8),
        shift in -50.0..50.0f64,
    ) {
        let l = RVector::from_slice(&logits);
        let p = softmax(&l);
        prop_assert!((p.sum() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| x >= 0.0));
        let shifted = softmax(&RVector::from_fn(l.len(), |i| l[i] + shift));
        prop_assert!((&p - &shifted).max_abs() < 1e-9);
        prop_assert_eq!(p.argmax(), l.argmax());
    }

    /// Cross-entropy is minimized at the true label: concentrating more
    /// power on the labelled port never increases the loss.
    #[test]
    fn head_loss_decreases_with_signal(
        y in arb_output(8),
        label in 0usize..4,
        boost in 0.1..3.0f64,
    ) {
        let head = ClassificationHead::new(8, 4, 10.0).unwrap();
        let base = head.loss(&y, label);
        let mut boosted = y.clone();
        // The four classes sit on the central ports 2..6.
        let port = 2 + label;
        boosted[port] += C64::from_real(boost);
        // Adding in-phase amplitude to the correct port adds power there.
        prop_assume!(boosted[port].norm_sqr() > y[port].norm_sqr());
        prop_assert!(head.loss(&boosted, label) <= base + 1e-9);
    }

    /// The analytic head gradient matches finite differences for arbitrary
    /// outputs and labels.
    #[test]
    fn head_gradient_fd(y in arb_output(6), label in 0usize..3) {
        let head = ClassificationHead::new(6, 3, 5.0).unwrap();
        let (_, g) = head.loss_and_grad(&y, label);
        let eps = 1e-6;
        for m in 0..6 {
            let mut yp = y.clone();
            yp[m] = yp[m] + eps;
            let mut ym = y.clone();
            ym[m] = ym[m] - eps;
            let fd = (head.loss(&yp, label) - head.loss(&ym, label)) / (2.0 * eps);
            prop_assert!((fd - g[m].re).abs() < 1e-5, "port {m}: {fd} vs {}", g[m].re);
        }
    }

    /// RunSummary mean is within [min, max] and std is scale-consistent.
    #[test]
    fn run_summary_invariants(
        values in proptest::collection::vec(-10.0..10.0f64, 1..12),
        scale in 0.1..5.0f64,
    ) {
        let s = RunSummary::from_values(&values);
        prop_assert!(s.min <= s.mean + 1e-12 && s.mean <= s.max + 1e-12);
        let scaled: Vec<f64> = values.iter().map(|v| v * scale).collect();
        let s2 = RunSummary::from_values(&scaled);
        prop_assert!((s2.std - s.std * scale).abs() < 1e-9 * (1.0 + s.std));
        prop_assert!((s2.mean - s.mean * scale).abs() < 1e-9 * (1.0 + s.mean.abs()));
    }

    /// The U test is invariant under monotone transformations of the data
    /// (rank-based statistic).
    #[test]
    fn u_test_rank_invariance(
        a in proptest::collection::vec(0.01..10.0f64, 4..10),
        b in proptest::collection::vec(0.01..10.0f64, 4..10),
    ) {
        let t1 = mann_whitney_u(&a, &b);
        let la: Vec<f64> = a.iter().map(|x| x.ln()).collect();
        let lb: Vec<f64> = b.iter().map(|x| x.ln()).collect();
        let t2 = mann_whitney_u(&la, &lb);
        prop_assert!((t1.p_value - t2.p_value).abs() < 1e-9);
        prop_assert!((t1.u - t2.u).abs() < 1e-9);
    }

    /// normal_sf is a decreasing function onto (0, 1) with sf(z)+sf(−z)=1.
    #[test]
    fn normal_sf_properties(z in -4.0..4.0f64, dz in 0.01..1.0f64) {
        let s = normal_sf(z);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!(normal_sf(z + dz) <= s + 1e-9);
        prop_assert!((normal_sf(z) + normal_sf(-z) - 1.0).abs() < 1e-6);
    }

    /// Task construction is a pure function of (spec, seed).
    #[test]
    fn task_reproducibility(seed in 0u64..200) {
        let spec = TaskSpec::quick(4);
        let a = build_task(&spec, seed).unwrap();
        let b = build_task(&spec, seed).unwrap();
        prop_assert_eq!(a.chip.oracle_errors(), b.chip.oracle_errors());
        prop_assert_eq!(a.train.labels(), b.train.labels());
        for i in 0..a.train.len().min(5) {
            prop_assert!((a.train.inputs()[i].clone() - b.train.inputs()[i].clone()).max_abs() < 1e-15);
        }
    }
}
