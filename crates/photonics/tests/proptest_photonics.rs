//! Property-based tests of the physical invariants of the photonic
//! simulator.

use proptest::prelude::*;
use rand::SeedableRng;

use photon_exec::ExecPool;
use photon_linalg::random::{normal_cvector, normal_rvector};
use photon_linalg::{CVector, RVector};
use photon_photonics::{
    fisher_vector_products, module_jacobian, Architecture, ErrorCursor, ErrorModel, ErrorVector,
    MeshModule, ModuleSpec, OnnModule,
};

fn arb_theta(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..std::f64::consts::TAU, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// forward(x) must equal transfer_matrix(θ)·x for linear modules —
    /// the op-by-op path and the materialized matrix agree.
    #[test]
    fn forward_matches_transfer_matrix(
        seed in 0u64..300,
        phases in arb_theta(40),
        dim in 2usize..6,
    ) {
        let mesh = MeshModule::clements(dim, dim);
        prop_assume!(phases.len() >= mesh.param_count());
        let theta = &phases[..mesh.param_count()];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = normal_cvector(dim, &mut rng);
        let u = mesh.transfer_matrix(theta);
        let direct = mesh.forward(&x, theta);
        let via_matrix = u.mul_vec(&x).unwrap();
        prop_assert!((&direct - &via_matrix).max_abs() < 1e-10);
    }

    /// A Reck triangle is also always unitary.
    #[test]
    fn reck_is_unitary(phases in arb_theta(30), dim in 2usize..6) {
        let mesh = MeshModule::reck(dim);
        prop_assume!(phases.len() >= mesh.param_count());
        let u = mesh.transfer_matrix(&phases[..mesh.param_count()]);
        prop_assert!(u.is_unitary(1e-9));
    }

    /// Linearity of the whole linear stack: f(αx + βy) = αf(x) + βf(y),
    /// even with fabrication errors.
    #[test]
    fn mesh_is_linear_in_the_field(
        seed in 0u64..300,
        phases in arb_theta(24),
    ) {
        let mesh = MeshModule::clements(4, 4);
        prop_assume!(phases.len() >= mesh.param_count());
        let theta = &phases[..mesh.param_count()];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (n_bs, n_ps) = mesh.error_slots();
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(3.0), &mut rng);
        let noisy = mesh.with_errors(&mut ErrorCursor::new(&ev)).unwrap();
        let x = normal_cvector(4, &mut rng);
        let y = normal_cvector(4, &mut rng);
        let alpha = photon_linalg::C64::new(0.3, -0.7);
        let combo = x.scale(alpha) + y.clone();
        let lhs = noisy.forward(&combo, theta);
        let rhs = noisy.forward(&x, theta).scale(alpha) + noisy.forward(&y, theta);
        prop_assert!((&lhs - &rhs).max_abs() < 1e-9);
    }

    /// modReLU is *not* linear, but it always preserves phase and never
    /// increases modulus for non-positive biases.
    #[test]
    fn modrelu_phase_preserving(seed in 0u64..300, bias in -0.5..0.0f64) {
        use photon_photonics::ModRelu;
        let act = ModRelu::new(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = normal_cvector(3, &mut rng);
        let theta = vec![bias; 3];
        let y = act.forward(&x, &theta);
        for k in 0..3 {
            prop_assert!(y[k].abs() <= x[k].abs() + 1e-12);
            if y[k].abs() > 1e-9 {
                let dphi = (y[k].arg() - x[k].arg()).abs();
                let dphi = dphi.min(std::f64::consts::TAU - dphi);
                prop_assert!(dphi < 1e-9, "phase changed by {dphi}");
            }
        }
    }

    /// The module Jacobian is consistent with the JVP used to build it:
    /// J·dθ equals the jvp along dθ for arbitrary tangents.
    #[test]
    fn jacobian_consistent_with_jvp(seed in 0u64..300) {
        let mesh = MeshModule::clements(3, 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = mesh.param_count();
        let theta: Vec<f64> = normal_rvector(n, &mut rng).into_vec();
        let x = normal_cvector(3, &mut rng);
        let j = module_jacobian(&mesh, &x, &theta);
        let dtheta = normal_rvector(n, &mut rng);
        let (_, tape) = mesh.forward_tape(&x, &theta);
        let dy = mesh.jvp(&tape, &theta, &CVector::zeros(3), dtheta.as_slice());
        let jd = j.mul_vec(&CVector::from_real_slice(dtheta.as_slice())).unwrap();
        prop_assert!((&dy - &jd).max_abs() < 1e-9);
    }

    /// Fisher products are symmetric: ⟨u, F·v⟩ = ⟨F·u, v⟩, and PSD:
    /// ⟨v, F·v⟩ ≥ 0.
    #[test]
    fn fisher_product_symmetric_psd(seed in 0u64..200) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let arch = Architecture::new(vec![
            ModuleSpec::Clements { dim: 3, layers: 2 },
            ModuleSpec::PhaseDiag { dim: 3 },
            ModuleSpec::ModRelu { dim: 3 },
        ]).unwrap();
        let net = arch.build_ideal();
        let mut theta = net.init_params(&mut rng);
        for k in net.module_param_range(2) {
            theta[k] = 0.1;
        }
        let inputs: Vec<CVector> = (0..2).map(|_| normal_cvector(3, &mut rng)).collect();
        let u = normal_rvector(net.param_count(), &mut rng);
        let v = normal_rvector(net.param_count(), &mut rng);
        let products = fisher_vector_products(
            &net, &theta, &inputs, &[u.clone(), v.clone()], &ExecPool::serial());
        let (fu, fv) = (&products[0], &products[1]);
        let sym = (u.dot(fv).unwrap() - fu.dot(&v).unwrap()).abs();
        prop_assert!(sym < 1e-8, "asymmetry {sym}");
        prop_assert!(v.dot(fv).unwrap() >= -1e-9);
    }

    /// Error vectors survive the flat ↔ structured roundtrip through a
    /// network build for arbitrary shapes.
    #[test]
    fn error_vector_roundtrip_through_network(
        seed in 0u64..300,
        layers in 1usize..5,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let arch = Architecture::single_mesh(4, layers).unwrap();
        let (n_bs, n_ps) = arch.error_slots();
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(1.0), &mut rng);
        let flat = ev.to_flat();
        let back = ErrorVector::from_flat(n_bs, n_ps, &flat).unwrap();
        let net = arch.build_with_errors(&back).unwrap();
        let collected = net.collect_errors();
        let r = ev.rmse(&collected);
        prop_assert!(r.gamma < 1e-12 && r.attenuation < 1e-12 && r.phase < 1e-12);
    }

    /// The chip query counter charges exactly one query per forward, for
    /// any interleaving of field and power measurements.
    #[test]
    fn query_counting_is_exact(
        seed in 0u64..200,
        fields in 0usize..10,
        powers in 0usize..10,
    ) {
        use photon_photonics::FabricatedChip;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let arch = Architecture::single_mesh(3, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let theta = chip.init_params(&mut rng);
        let x = CVector::basis(3, 0);
        for _ in 0..fields {
            let _ = chip.forward(&x, &theta);
        }
        for _ in 0..powers {
            let _ = chip.forward_powers(&x, &theta);
        }
        prop_assert_eq!(chip.query_count(), (fields + powers) as u64);
    }
}

/// Non-proptest regression: padded phases in `arb_theta` never exceed the
/// mesh parameter count assumption for the dims used above.
#[test]
fn clements_param_count_bound() {
    for dim in 2..6 {
        let mesh = MeshModule::clements(dim, dim);
        assert!(mesh.param_count() <= 40, "dim {dim}");
        let _ = RVector::zeros(mesh.param_count());
    }
}
