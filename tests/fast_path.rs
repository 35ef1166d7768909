//! Property tests for the NNUE-style fast forward path: incremental
//! rank-1 serving from a pinned compile base must track the f64
//! interpreted walk within its documented tolerance, a batch the pin's
//! stage-input memo serves must give a fresh pin's bits, and the
//! drift-bound cadence must force a periodic full recompile.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use photon_zo::linalg::random::normal_cvector;
use photon_zo::linalg::{CPanel, CVector, RVector};
use photon_zo::photonics::{
    Architecture, CompiledNetwork, ErrorModel, ErrorVector, Network, NetworkScratch, PinnedBase,
    FORCED_RECOMPILE_PERIOD, MAX_INCREMENTAL_PHASES,
};

fn panel_bits(panel: &CPanel) -> Vec<u64> {
    panel
        .as_slice()
        .iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

/// The compiled stage of global theta index `k` in a two-mesh network:
/// 0 for the first mesh and its PSdiag, 1 for the activation, 2 for the
/// second mesh and its PSdiag.
fn stage_of(net: &Network, k: usize) -> usize {
    let act = net.module_param_range(2);
    if k < act.start {
        0
    } else if k < act.end {
        1
    } else {
        2
    }
}

/// A theta index drawn uniformly from compiled stage `stage`.
fn index_in_stage(net: &Network, stage: usize, draw: u64) -> usize {
    let act = net.module_param_range(2);
    let range = match stage {
        0 => 0..act.start,
        1 => act,
        _ => net.module_param_range(3).start..net.param_count(),
    };
    range.start + draw as usize % range.len()
}

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


    /// Requests against one pin of a two-mesh network: the pinned theta
    /// itself, a dense theta, a sparse diff confined to one random later
    /// stage (the activation, or the second mesh and its PSdiag) and a
    /// sparse diff over random phases of any stage, each on one of three
    /// input blocks. Each request is served twice, by a fresh plan and
    /// then by the same plan again, and both reads must equal bitwise what
    /// a fresh pin, whose memo is empty, serves. The memo must skip
    /// exactly the stages before the request's first changed stage: on
    /// the second read always, on the first when an earlier request on
    /// the same block reached that deep; never for exact or dense
    /// requests or for diffs that touch the first stage.
    #[test]
    fn memo_served_batches_match_a_fresh_pin(
        eo in any::<bool>(),
        dim in 2usize..6,
        beta in 0.0f64..2.5,
        requests in proptest::collection::vec(
            (0usize..4, 1usize..MAX_INCREMENTAL_PHASES + 1, 0usize..3, any::<u64>()), 1..10),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let arch = if eo {
            Architecture::two_mesh_eo_classifier(dim, dim, 0.1, 1.0).unwrap()
        } else {
            Architecture::two_mesh_classifier(dim, dim).unwrap()
        };
        let (n_bs, n_ps) = arch.error_slots();
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(beta), &mut rng);
        let net = arch.build_with_errors(&ev).unwrap();
        let mut theta0 = net.init_params(&mut rng);
        for k in net.module_param_range(2) {
            theta0[k] = 0.3 * (rng.next_u64() as f64 / u64::MAX as f64) - 0.1;
        }
        let blocks: Vec<Vec<CVector>> = (0..3)
            .map(|_| (0..4).map(|_| normal_cvector(dim, &mut rng)).collect())
            .collect();
        let pin = PinnedBase::compile(&net, &theta0);
        // The deepest stage input the memo holds per block.
        let mut depth = [0usize; 3];
        for (kind, n_phases, block, req_seed) in requests {
            let mut req_rng = StdRng::seed_from_u64(req_seed);
            let mut req: RVector = theta0.clone();
            // The stage a memo may start this request at: its first
            // changed stage, or 0 when nothing may be skipped.
            let mut reuse = 0;
            match kind {
                0 => {}
                1 => req = net.init_params(&mut req_rng),
                _ => {
                    let stage = 1 + req_rng.next_u64() as usize % 2;
                    let mag = if n_phases == 1 { 0.5 } else { 1e-5 };
                    let mut first = usize::MAX;
                    for _ in 0..n_phases {
                        let draw = req_rng.next_u64();
                        let k = if kind == 2 {
                            index_in_stage(&net, stage, draw)
                        } else {
                            draw as usize % req.len()
                        };
                        req[k] += mag * (0.5 + req_rng.next_u64() as f64 / u64::MAX as f64);
                        first = first.min(k);
                    }
                    reuse = stage_of(&net, first);
                }
            }
            let refs: Vec<&CVector> = blocks[block].iter().collect();
            let mut fresh = CompiledNetwork::new();
            fresh.set_pinned(Some(PinnedBase::compile(&net, &theta0)));
            let want = panel_bits(fresh.forward_batch(&net, &req, &refs));
            prop_assert_eq!(fresh.cache_stats().skipped_stages, 0);

            let mut plan = CompiledNetwork::new();
            plan.set_pinned(Some(pin.clone()));
            let first_read = panel_bits(plan.forward_batch(&net, &req, &refs));
            let after_first = plan.cache_stats().skipped_stages;
            let second_read = panel_bits(plan.forward_batch(&net, &req, &refs));
            let skipped = plan.cache_stats().skipped_stages;
            prop_assert!(first_read == want, "first read differs from a fresh pin");
            prop_assert!(second_read == want, "second read differs from a fresh pin");

            let expect_first = if reuse > 0 && depth[block] >= reuse { reuse } else { 0 };
            prop_assert_eq!(after_first, expect_first as u64, "kind {} first read", kind);
            prop_assert_eq!(skipped, (expect_first + reuse) as u64, "kind {} second read", kind);
            depth[block] = depth[block].max(reuse);
        }
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
