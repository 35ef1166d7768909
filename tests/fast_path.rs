//! Property tests for the NNUE-style fast forward path: incremental
//! rank-1 serving from a pinned compile base, the opt-in f32 SIMD
//! evaluation tier, and the quantized i16 serving artifact must all track
//! the f64 interpreted walk within their documented tolerances, and the
//! drift-bound cadence must force a periodic full recompile.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use photon_zo::linalg::random::normal_cvector;
use photon_zo::linalg::CVector;
use photon_zo::photonics::{
    Architecture, BatchScratch, CompiledNetwork, ErrorModel, ErrorVector, FabricatedChip,
    NetworkScratch, PinnedBase, QuantizedNetwork, FORCED_RECOMPILE_PERIOD,
    MAX_INCREMENTAL_PHASES,
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

    /// The opt-in f32 SIMD chip path stays within 1e-5 relative error of
    /// the f64 oracle chip on batched loss-bearing quantities.
    #[test]
    fn f32_fast_path_loss_error_is_bounded(
        dim in 2usize..7,
        batch in 1usize..6,
        beta in 0.0f64..2.5,
        pin in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let arch = Architecture::single_mesh(dim, dim).unwrap();
        let oracle = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(beta), &mut rng);
        let mut rng2 = StdRng::seed_from_u64(seed);
        let fast = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(beta), &mut rng2)
            .with_f32_fast_path();
        let theta = oracle.init_params(&mut rng);
        let mut probe = theta.clone();
        if pin {
            fast.pin_compile_base(&theta);
            oracle.pin_compile_base(&theta);
            let k = (seed as usize) % probe.len();
            probe[k] += 0.3;
        }
        let xs: Vec<CVector> = (0..batch).map(|_| normal_cvector(dim, &mut rng)).collect();
        let refs: Vec<&CVector> = xs.iter().collect();
        let mut s64 = BatchScratch::new();
        let mut s32 = BatchScratch::new();
        let want = oracle.forward_powers_batch_into(&refs, &probe, &mut s64).to_vec();
        let got = fast.forward_powers_batch_into(&refs, &probe, &mut s32).to_vec();
        for (j, (w, g)) in want.iter().zip(&got).enumerate() {
            let loss_w: f64 = w.iter().sum();
            let loss_g: f64 = g.iter().sum();
            let rel = (loss_w - loss_g).abs() / loss_w.abs().max(1e-12);
            prop_assert!(
                rel < 1e-5,
                "sample {}: relative loss error {:.3e} exceeds 1e-5", j, rel
            );
        }
    }

    /// Quantized serialization is byte-exact: parse ∘ serialize is the
    /// identity and serialize ∘ parse reproduces the input bytes.
    #[test]
    fn quantized_roundtrip_is_byte_exact(
        dim in 2usize..7,
        beta in 0.0f64..2.5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let arch = Architecture::single_mesh(dim, dim).unwrap();
        let (n_bs, n_ps) = arch.error_slots();
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(beta), &mut rng);
        let net = arch.build_with_errors(&ev).unwrap();
        let theta = net.init_params(&mut rng);
        let q = QuantizedNetwork::quantize(&net, &theta).expect("all-linear net");
        let bytes = q.to_bytes();
        let back = QuantizedNetwork::from_bytes(&bytes).expect("own bytes parse");
        prop_assert_eq!(&back, &q);
        prop_assert_eq!(back.to_bytes(), bytes);
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

/// The quantized tier's end metric: on a classification-style argmax
/// readout it must agree with the f64 network on at least 99.5 % of
/// samples.
#[test]
fn quantized_accuracy_delta_is_small() {
    let dim = 8;
    let mut rng = StdRng::seed_from_u64(17);
    let arch = Architecture::single_mesh(dim, dim).unwrap();
    let (n_bs, n_ps) = arch.error_slots();
    let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(1.0), &mut rng);
    let net = arch.build_with_errors(&ev).unwrap();
    let theta = net.init_params(&mut rng);
    let q = QuantizedNetwork::quantize(&net, &theta).expect("all-linear net");

    let samples = 400;
    let mut agree = 0usize;
    let mut scratch = NetworkScratch::new();
    for _ in 0..samples {
        let x = normal_cvector(dim, &mut rng);
        let exact = net.forward_into(&x, &theta, &mut scratch);
        let argmax_exact = (0..dim)
            .max_by(|&a, &b| {
                exact[a]
                    .norm_sqr()
                    .partial_cmp(&exact[b].norm_sqr())
                    .unwrap()
            })
            .unwrap();
        let served = q.forward_powers(&x);
        let argmax_q = (0..dim)
            .max_by(|&a, &b| served[a].partial_cmp(&served[b]).unwrap())
            .unwrap();
        if argmax_exact == argmax_q {
            agree += 1;
        }
    }
    let agreement = agree as f64 / samples as f64;
    assert!(
        agreement >= 0.995,
        "quantized argmax agreement {agreement:.4} below 99.5%"
    );
}
