//! Property tests for the compiled-unitary execution path: a compiled
//! dense matrix (and the batched GEMM evaluation built on it) must agree
//! with the interpreted op-by-op walk to ≤1e-12 across mesh topologies,
//! fabrication errors, and parameter settings, and the theta-keyed plan
//! cache must invalidate exactly when the parameters change.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::linalg::random::{normal_cvector, normal_rvector};
use photon_zo::linalg::{CMatrix, CVector};
use photon_zo::photonics::{
    Architecture, BatchScratch, ChipScratch, CompiledNetwork, ErrorCursor, ErrorModel, ErrorVector,
    FabricatedChip, MeshModule, ModuleSpec, NetworkScratch,
};

/// The mesh topologies the compiled path must reproduce.
fn mesh(kind: usize, dim: usize) -> MeshModule {
    match kind {
        0 => MeshModule::clements(dim, dim),
        1 => MeshModule::clements(dim, (dim / 2).max(1)),
        2 => MeshModule::reck(dim),
        _ => MeshModule::phase_diag(dim),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn compiled_module_matrix_matches_op_walk(
        kind in 0usize..4,
        dim in 2usize..7,
        beta in 0.0f64..4.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let module = mesh(kind, dim);
        let (n_bs, n_ps) = module.error_slots();
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(beta), &mut rng);
        let noisy = module.with_errors(&mut ErrorCursor::new(&ev)).unwrap();
        let theta = normal_rvector(noisy.param_count(), &mut rng);
        let compiled = noisy.compile_matrix(theta.as_slice());
        let mut reference = CMatrix::zeros(dim, dim);
        let mut y = CVector::zeros(0);
        for k in 0..dim {
            noisy.forward_into(&CVector::basis(dim, k), theta.as_slice(), &mut y);
            reference.set_col(k, &y);
        }
        prop_assert!(
            (&compiled - &reference).max_abs() < 1e-12,
            "{} compiled matrix diverges from op walk",
            noisy.name()
        );
    }

    #[test]
    fn compiled_network_batch_matches_interpreted(
        arch_kind in 0usize..3,
        dim in 2usize..6,
        batch in 1usize..6,
        beta in 0.0f64..2.5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let arch = match arch_kind {
            0 => Architecture::single_mesh(dim, dim).unwrap(),
            1 => Architecture::two_mesh_classifier(dim, dim).unwrap(),
            _ => Architecture::new(vec![
                ModuleSpec::Reck { dim },
                ModuleSpec::PhaseDiag { dim },
            ])
            .unwrap(),
        };
        let (n_bs, n_ps) = arch.error_slots();
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(beta), &mut rng);
        let net = arch.build_with_errors(&ev).unwrap();
        let theta = net.init_params(&mut rng);
        let xs: Vec<CVector> = (0..batch).map(|_| normal_cvector(dim, &mut rng)).collect();
        let refs: Vec<&CVector> = xs.iter().collect();
        let mut plan = CompiledNetwork::new();
        let panel = plan.forward_batch(&net, &theta, &refs);
        let mut scratch = NetworkScratch::new();
        for (j, x) in xs.iter().enumerate() {
            let want = net.forward_into(x, &theta, &mut scratch);
            for k in 0..want.len() {
                prop_assert!(
                    (panel.col(j)[k] - want[k]).abs() < 1e-12,
                    "sample {} port {} diverges",
                    j,
                    k
                );
            }
        }
    }

    #[test]
    fn chip_batched_forward_matches_per_sample(
        dim in 2usize..6,
        batch in 1usize..6,
        beta in 0.0f64..2.5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let arch = Architecture::single_mesh(dim, dim).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(beta), &mut rng);
        let theta = chip.init_params(&mut rng);
        let xs: Vec<CVector> = (0..batch).map(|_| normal_cvector(dim, &mut rng)).collect();
        let refs: Vec<&CVector> = xs.iter().collect();
        let mut scratch = BatchScratch::new();
        let ys: Vec<CVector> = chip
            .forward_batch_into(&refs, &theta, &mut scratch)
            .to_vec();
        let mut single = ChipScratch::new();
        for (j, x) in xs.iter().enumerate() {
            let want = chip.forward_into(x, &theta, &mut single);
            for k in 0..want.len() {
                prop_assert!(
                    (ys[j][k] - want[k]).abs() < 1e-12,
                    "sample {} port {} diverges",
                    j,
                    k
                );
            }
        }
    }

    #[test]
    fn generation_tracks_theta_changes(
        dim in 2usize..6,
        coord_seed in any::<u64>(),
        delta in -1e-3f64..1e-3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Architecture::single_mesh(dim, dim).unwrap().build_ideal();
        let theta = net.init_params(&mut rng);
        let xs: Vec<CVector> = (0..3).map(|_| normal_cvector(dim, &mut rng)).collect();
        let refs: Vec<&CVector> = xs.iter().collect();
        let mut plan = CompiledNetwork::new();
        plan.forward_batch(&net, &theta, &refs);
        prop_assert_eq!(plan.generation(), 1, "first use compiles once");
        plan.forward_batch(&net, &theta, &refs);
        prop_assert_eq!(plan.generation(), 1, "unchanged theta hits the cache");

        let mut theta2 = theta.clone();
        let k = (coord_seed as usize) % theta2.len();
        theta2[k] += delta;
        plan.forward_batch(&net, &theta2, &refs);
        let expected = if theta2.as_slice() == theta.as_slice() { 1 } else { 2 };
        prop_assert_eq!(
            plan.generation(),
            expected,
            "plan must recompile exactly when theta changes"
        );

        // The recompiled plan still matches the interpreted forward.
        let panel = plan.forward_batch(&net, &theta2, &refs);
        let mut scratch = NetworkScratch::new();
        for (j, x) in xs.iter().enumerate() {
            let want = net.forward_into(x, &theta2, &mut scratch);
            for p in 0..want.len() {
                prop_assert!((panel.col(j)[p] - want[p]).abs() < 1e-12);
            }
        }
    }
}
