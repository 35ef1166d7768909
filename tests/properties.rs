//! Property-based tests (proptest) on the cross-crate invariants the whole
//! reproduction rests on.

use proptest::prelude::*;

use photon_zo::data::{dft, idft};
use photon_zo::linalg::{CMatrix, CVector, RCholesky, RMatrix, RVector, C64};
use photon_zo::photonics::{
    Architecture, ErrorCursor, ErrorModel, ErrorVector, MeshModule, Module,
};

fn arb_phases(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..std::f64::consts::TAU, n)
}

fn arb_cvector(n: usize) -> impl Strategy<Value = CVector> {
    proptest::collection::vec(
        (-1.0..1.0f64).prop_flat_map(|re| (Just(re), -1.0..1.0f64)),
        n,
    )
    .prop_map(|pairs| {
        CVector::from_vec(pairs.into_iter().map(|(re, im)| C64::new(re, im)).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any ideal Clements mesh is unitary for any phase setting: the
    /// bedrock physical invariant of the simulator.
    #[test]
    fn ideal_clements_is_always_unitary(
        dim in 2usize..6,
        layer_frac in 1usize..4,
        seed_phases in proptest::collection::vec(0.0..std::f64::consts::TAU, 64),
    ) {
        let layers = (dim * layer_frac).div_euclid(2).max(1);
        let mesh = MeshModule::clements(dim, layers);
        let theta: Vec<f64> = seed_phases.into_iter().take(mesh.param_count()).collect();
        prop_assume!(theta.len() == mesh.param_count());
        let u = mesh.transfer_matrix(&theta);
        prop_assert!(u.is_unitary(1e-9), "Clements({dim},{layers}) not unitary");
    }

    /// Fabrication errors never *create* optical power: with |ζ| ≤ 1 the
    /// output power is bounded by the input power for every input, phase
    /// setting and error draw.
    #[test]
    fn errors_never_amplify_power(
        seed in 0u64..1000,
        beta in 0.0..6.0f64,
        phases in arb_phases(24),
        x in arb_cvector(4),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mesh = MeshModule::clements(4, 4);
        prop_assume!(x.norm_sqr() > 1e-12);
        let (n_bs, n_ps) = mesh.error_slots();
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(beta), &mut rng);
        let noisy = Module::Mesh(mesh.with_errors(&mut ErrorCursor::new(&ev)).unwrap());
        let theta: Vec<f64> = phases.into_iter().take(noisy.param_count()).collect();
        prop_assume!(theta.len() == noisy.param_count());
        let y = noisy.forward(&x, &theta);
        prop_assert!(y.norm_sqr() <= x.norm_sqr() * (1.0 + 1e-9));
    }

    /// The DFT/IDFT pair is an exact inverse for arbitrary lengths.
    #[test]
    fn dft_roundtrip(x in (3usize..40).prop_flat_map(arb_cvector)) {
        let back = idft(&dft(&x));
        prop_assert!((&back - &x).max_abs() < 1e-8);
    }

    /// Parseval: the DFT preserves energy up to the 1/N convention.
    #[test]
    fn dft_parseval(x in (2usize..40).prop_flat_map(arb_cvector)) {
        let spec = dft(&x);
        let n = x.len() as f64;
        prop_assert!((spec.norm_sqr() / n - x.norm_sqr()).abs() < 1e-8 * (1.0 + x.norm_sqr()));
    }

    /// LU solve actually solves: A·x = b round-trips for well-conditioned
    /// diagonally dominant matrices.
    #[test]
    fn lu_solves_dominant_systems(
        vals in proptest::collection::vec(-1.0..1.0f64, 9),
        b in proptest::collection::vec(-1.0..1.0f64, 3),
    ) {
        let a = RMatrix::from_fn(3, 3, |r, c| {
            vals[r * 3 + c] + if r == c { 4.0 } else { 0.0 }
        });
        let bv = RVector::from_slice(&b);
        let x = a.solve(&bv).unwrap();
        let back = a.mul_vec(&x).unwrap();
        prop_assert!((&back - &bv).max_abs() < 1e-8);
    }

    /// Cholesky sampling: L·Lᵀ reconstructs any Gram-plus-ridge matrix.
    #[test]
    fn cholesky_reconstructs_gram(
        vals in proptest::collection::vec(-1.0..1.0f64, 12),
    ) {
        let a = RMatrix::from_fn(4, 3, |r, c| vals[r * 3 + c]);
        let mut g = a.gram();
        g.add_diagonal(0.5);
        let chol = RCholesky::new(&g).unwrap();
        let l = chol.factor();
        let recon = l.mul_mat(&l.transpose()).unwrap();
        prop_assert!((&recon - &g).max_abs() < 1e-10);
    }

    /// The network VJP is the exact adjoint of the JVP for random
    /// architectures, errors, parameters and tangents — the contract the
    /// Fisher products (and hence LCNG) depend on.
    #[test]
    fn network_adjoint_contract(
        seed in 0u64..500,
        layers in 1usize..4,
    ) {
        use rand::SeedableRng;
        use photon_zo::linalg::random::{normal_cvector, normal_rvector};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let arch = Architecture::two_mesh_classifier(4, layers).unwrap();
        let (n_bs, n_ps) = arch.error_slots();
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(2.0), &mut rng);
        let net = arch.build_with_errors(&ev).unwrap();
        let mut theta = net.init_params(&mut rng);
        // Nonzero modReLU biases engage the nonlinear branch.
        for k in net.module_param_range(2) {
            theta[k] = 0.05;
        }
        let x = normal_cvector(4, &mut rng);
        let (_, tape) = net.forward_tape(&x, &theta);
        let dx = normal_cvector(4, &mut rng);
        let dtheta = normal_rvector(net.param_count(), &mut rng);
        let g = normal_cvector(4, &mut rng);

        let dy = net.jvp(&tape, &theta, &dx, &dtheta);
        let (gx, gtheta) = net.vjp(&tape, &theta, &g);
        let rdot = |a: &CVector, b: &CVector| -> f64 {
            a.iter().zip(b.iter()).map(|(u, v)| u.re * v.re + u.im * v.im).sum()
        };
        let lhs = rdot(&dy, &g);
        let rhs = rdot(&dx, &gx) + dtheta.dot(&gtheta).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    /// Haar random unitaries stay unitary and norm-preserving.
    #[test]
    fn haar_unitaries_preserve_norm(seed in 0u64..500, n in 1usize..8) {
        use rand::SeedableRng;
        use photon_zo::linalg::random::{haar_unitary, normal_cvector};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let u = haar_unitary(n, &mut rng).unwrap();
        prop_assert!(u.is_unitary(1e-9));
        let x = normal_cvector(n, &mut rng);
        let y = u.mul_vec(&x).unwrap();
        prop_assert!((y.norm_sqr() - x.norm_sqr()).abs() < 1e-9 * (1.0 + x.norm_sqr()));
    }

    /// Hermitian eigendecomposition reconstructs PSD Gram matrices with
    /// non-negative spectra.
    #[test]
    fn hermitian_eig_on_gram(
        vals in proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 12),
    ) {
        use photon_zo::linalg::hermitian_eig;
        let a = CMatrix::from_fn(4, 3, |r, c| {
            let (re, im) = vals[r * 3 + c];
            C64::new(re, im)
        });
        let g = a.gram();
        let eig = hermitian_eig(&g).unwrap();
        for i in 0..3 {
            prop_assert!(eig.values[i] > -1e-9);
        }
        prop_assert!(eig.vectors.is_unitary(1e-8));
    }
}
