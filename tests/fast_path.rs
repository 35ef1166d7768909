//! Property tests for the NNUE-style fast forward path: incremental
//! rank-1 serving from a pinned compile base must track the f64
//! interpreted walk within its documented tolerance, and the drift-bound
//! cadence must force a periodic full recompile.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use photon_zo::linalg::random::normal_cvector;
use photon_zo::linalg::CVector;
use photon_zo::photonics::{
    Architecture, CompiledNetwork, ErrorModel, ErrorVector, NetworkScratch, PinnedBase,
    FORCED_RECOMPILE_PERIOD, MAX_INCREMENTAL_PHASES,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random sparse perturbation sequences (1..=K phases per request)
    /// interleaved with full-theta changes: a plan serving from a pinned
    /// base must match a fresh per-theta compile on every request, and
    /// sparse requests must actually be served incrementally.
    #[test]
    fn incremental_serving_matches_fresh_compile(
        arch_kind in 0usize..2,
        dim in 2usize..6,
        beta in 0.0f64..2.5,
        steps in proptest::collection::vec(
            (0usize..MAX_INCREMENTAL_PHASES + 1, any::<u64>()), 1..8),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let arch = match arch_kind {
            0 => Architecture::single_mesh(dim, dim).unwrap(),
            _ => Architecture::two_mesh_classifier(dim, dim).unwrap(),
        };
        let (n_bs, n_ps) = arch.error_slots();
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(beta), &mut rng);
        let net = arch.build_with_errors(&ev).unwrap();
        let theta0 = net.init_params(&mut rng);
        let xs: Vec<CVector> = (0..3).map(|_| normal_cvector(dim, &mut rng)).collect();
        let refs: Vec<&CVector> = xs.iter().collect();

        let mut plan = CompiledNetwork::new();
        plan.set_pinned(Some(PinnedBase::compile(&net, &theta0)));
        let mut scratch = NetworkScratch::new();
        let mut sparse_requests = 0u64;
        for (n_phases, step_seed) in steps {
            let mut step_rng = StdRng::seed_from_u64(step_seed);
            // n_phases == 0 encodes a dense full-theta change (falls back
            // to a full compile); otherwise perturb 1..=K phases of the
            // pin. Single-phase updates are exact at any magnitude;
            // multi-phase ones only within the documented delta gate.
            let req = if n_phases == 0 {
                net.init_params(&mut step_rng)
            } else {
                let mut req = theta0.clone();
                for _ in 0..n_phases {
                    let k = (step_rng.next_u64() as usize) % req.len();
                    let mag = if n_phases == 1 { 0.5 } else { 1e-5 };
                    req[k] += mag * (step_rng.next_u64() as f64 / u64::MAX as f64 - 0.5);
                }
                sparse_requests += 1;
                req
            };
            let got = plan.forward_batch(&net, &req, &refs).clone();
            for (j, x) in xs.iter().enumerate() {
                let want = net.forward_into(x, &req, &mut scratch);
                for p in 0..want.len() {
                    prop_assert!(
                        (got.col(j)[p] - want[p]).abs() < 1e-6,
                        "step with {} phases: sample {} port {} diverges",
                        n_phases, j, p
                    );
                }
            }
        }
        let stats = plan.cache_stats();
        prop_assert_eq!(
            stats.incremental, sparse_requests,
            "every sparse request must be served incrementally"
        );
    }

}

/// The drift-bound cadence: a long-lived plan serving incrementally from
/// one pin must force a full recompile every `FORCED_RECOMPILE_PERIOD`
/// serves, observable in its cache stats.
#[test]
fn forced_recompile_cadence_fires() {
    let mut rng = StdRng::seed_from_u64(5);
    let net = Architecture::single_mesh(3, 3).unwrap().build_ideal();
    let theta0 = net.init_params(&mut rng);
    let xs: Vec<CVector> = (0..2).map(|_| normal_cvector(3, &mut rng)).collect();
    let refs: Vec<&CVector> = xs.iter().collect();
    let mut plan = CompiledNetwork::new();
    plan.set_pinned(Some(PinnedBase::compile(&net, &theta0)));
    let mut scratch = NetworkScratch::new();
    for i in 0..=FORCED_RECOMPILE_PERIOD as usize {
        let mut req = theta0.clone();
        let k = i % req.len();
        req[k] += 0.1 + (i % 7) as f64 * 0.01;
        let got = plan.forward_batch(&net, &req, &refs).clone();
        let want = net.forward_into(&xs[0], &req, &mut scratch);
        for p in 0..want.len() {
            assert!((got.col(0)[p] - want[p]).abs() < 1e-9, "serve {i} diverged");
        }
    }
    let stats = plan.cache_stats();
    assert_eq!(stats.forced_recompiles, 1, "cadence must fire exactly once");
    assert_eq!(
        stats.incremental, FORCED_RECOMPILE_PERIOD,
        "all other serves stay incremental"
    );
}
