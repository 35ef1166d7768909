//! Fisher-information machinery.
//!
//! The LCNG optimizer needs Fisher-metric products `F·v` where
//! `F = E_x[Jᵀ_r J_r]` is the (real-linearized) Gauss-Newton/Fisher metric
//! of the network output with respect to all parameters, averaged over a set
//! of input vectors. Because the module `vjp`s are exact real-adjoints of
//! the `jvp`s, the product is computed matrix-free as `vjp(jvp(v))` — per
//! input, one forward-tangent and one reverse panel walk that carry every
//! direction at once, never materializing the `N × N` matrix.
//!
//! For diagnostics (the Fisher-spectrum figure) the module-level dense
//! blocks and output covariances are also provided.

use photon_exec::{tree_reduce, ExecPool};

use photon_linalg::{hermitian_eig, CMatrix, CVector, RMatrix, RVector};

use crate::mesh::MeshModule;
use crate::module::{Module, ModuleTape};
use crate::network::{Network, NetworkScratch};
use crate::panel::StatePanel;

/// Matrix-free Fisher-metric products `F·v` for a batch of directions,
/// where `F = (1/|inputs|) Σᵢ J(xᵢ)ᵀ_r J(xᵢ)_r` at parameters `theta` (the
/// LCNG Gram assembly path). Returns one `F·v` per direction, in order.
///
/// The op gates at `theta` are evaluated once ([`Network::gate_plan`]) and
/// shared by every input. The inputs fan out across `pool`'s workers: each
/// worker keeps one tape, records each of its inputs on it once, and walks
/// every direction through it together, as one panel of `Q` columns
/// ([`Network::jvp_panel_into`], then [`Network::vjp_panel_into`]), so
/// each op is decoded once per input instead of once per direction. The
/// per-input contributions are then combined along a fixed-shape reduction
/// tree, so the result is bitwise identical for every pool size, and each
/// product's bits are those of one JVP and one VJP per direction.
///
/// # Panics
///
/// Panics when `inputs` is empty or shapes mismatch the network.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use photon_exec::ExecPool;
/// use photon_linalg::random::{normal_cvector, normal_rvector};
/// use photon_photonics::{fisher_vector_products, Architecture};
///
/// let net = Architecture::single_mesh(4, 4)?.build_ideal();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let theta = net.init_params(&mut rng);
/// let inputs: Vec<_> = (0..3).map(|_| normal_cvector(4, &mut rng)).collect();
/// let v = normal_rvector(net.param_count(), &mut rng);
/// let fv = fisher_vector_products(&net, &theta, &inputs, &[v], &ExecPool::serial());
/// assert_eq!(fv[0].len(), net.param_count());
/// # Ok::<(), photon_photonics::NetworkError>(())
/// ```
pub fn fisher_vector_products(
    net: &Network,
    theta: &RVector,
    inputs: &[CVector],
    directions: &[RVector],
    pool: &ExecPool,
) -> Vec<RVector> {
    assert!(
        !inputs.is_empty(),
        "fisher product needs at least one input"
    );
    let (n, q) = (net.param_count(), directions.len());
    let plan = net.gate_plan(theta);
    // The directions as one param-major tangent panel.
    let mut dtheta = vec![0.0; n * q];
    for (c, v) in directions.iter().enumerate() {
        assert_eq!(v.len(), n, "tangent count mismatch");
        for (k, &x) in v.iter().enumerate() {
            dtheta[k * q + c] = x;
        }
    }
    let per_input: Vec<Vec<f64>> = pool.map_with(
        inputs,
        || {
            (
                NetworkScratch::new(),
                net.new_tape(),
                CVector::zeros(0),
                StatePanel::default(),
            )
        },
        |(scratch, tape, y, panel), _, x| {
            net.forward_tape_into(x, theta, &plan, scratch, y, tape);
            panel.reset(net.input_dim(), q);
            net.jvp_panel_into(&plan, tape, theta, &dtheta, panel);
            let mut grad = vec![0.0; n * q];
            net.vjp_panel_into(&plan, tape, theta, panel, &mut grad);
            grad
        },
    );
    let summed = tree_reduce(per_input, &|mut a: Vec<f64>, b: Vec<f64>| {
        for (ga, gb) in a.iter_mut().zip(&b) {
            *ga += gb;
        }
        a
    })
    .expect("inputs is non-empty");
    let scale = 1.0 / inputs.len() as f64;
    (0..q)
        .map(|c| RVector::from_fn(n, |k| summed[k * q + c] * scale))
        .collect()
}

/// `mesh` as a module, with its tape at `(x, θ)`.
fn mesh_tape(mesh: &MeshModule, x: &CVector, theta: &[f64]) -> (Module, ModuleTape) {
    let module = Module::Mesh(mesh.clone());
    let (_, tape) = module.forward_tape(x, theta);
    (module, tape)
}

/// Dense complex Jacobian `∂y/∂θ ∈ ℂ^{N×P}` of a single mesh at `(x, θ)`,
/// built column-by-column from JVPs.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn module_jacobian(module: &MeshModule, x: &CVector, theta: &[f64]) -> CMatrix {
    let n = module.param_count();
    let m = module.dim();
    let (module, tape) = mesh_tape(module, x, theta);
    let mut j = CMatrix::zeros(m, n);
    let zero_in = CVector::zeros(module.dim());
    let mut dtheta = vec![0.0; n];
    for col in 0..n {
        dtheta[col] = 1.0;
        let dy = module.jvp(&tape, theta, &zero_in, &dtheta);
        j.set_col(col, &dy);
        dtheta[col] = 0.0;
    }
    j
}

/// Dense mesh Fisher block `F_u = Re(JᴴJ)` averaged over `inputs`.
///
/// This is the real Gauss-Newton metric restricted to one mesh's
/// parameters — the quantity whose spectrum demonstrates how interrelated
/// layered parameters are.
///
/// # Panics
///
/// Panics when `inputs` is empty.
pub fn module_fisher_block(module: &MeshModule, theta: &[f64], inputs: &[CVector]) -> RMatrix {
    assert!(!inputs.is_empty(), "fisher block needs at least one input");
    let n = module.param_count();
    let mut f = RMatrix::zeros(n, n);
    for x in inputs {
        let j = module_jacobian(module, x, theta);
        // Re(JᴴJ)[a, b] = Σ_m Re(conj(J_ma)·J_mb)
        for a in 0..n {
            for b in a..n {
                let mut acc = 0.0;
                for m in 0..j.rows() {
                    let ja = j[(m, a)];
                    let jb = j[(m, b)];
                    acc += ja.re * jb.re + ja.im * jb.im;
                }
                f[(a, b)] += acc;
                f[(b, a)] = f[(a, b)];
            }
        }
    }
    f.scale(1.0 / inputs.len() as f64)
}

/// Empirical output covariance `C_y = (1/Q) Σ_q δy_q δy_qᴴ` of a mesh under
/// parameter perturbations `δθ_q`.
///
/// `perturbations` are mapped through the mesh Jacobian at `(x, θ)`.
/// The eigenvalue spread of the result measures how *isotropic* the output
/// perturbations are — the diagnostic motivating natural-gradient
/// preconditioning.
///
/// # Panics
///
/// Panics when `perturbations` is empty.
pub fn output_covariance(
    module: &MeshModule,
    x: &CVector,
    theta: &[f64],
    perturbations: &[RVector],
) -> CMatrix {
    assert!(
        !perturbations.is_empty(),
        "output covariance needs at least one perturbation"
    );
    let m = module.dim();
    let (module, tape) = mesh_tape(module, x, theta);
    let zero_in = CVector::zeros(m);
    let mut c = CMatrix::zeros(m, m);
    for dtheta in perturbations {
        let dy = module.jvp(&tape, theta, &zero_in, dtheta.as_slice());
        for r in 0..m {
            for col in 0..m {
                let add = dy[r] * dy[col].conj();
                c[(r, col)] += add;
            }
        }
    }
    c.scale_real(1.0 / perturbations.len() as f64)
}

/// Eigenvalues (ascending) of an output covariance matrix — the isotropy
/// diagnostic series plotted in the Fisher-spectrum figure.
///
/// # Panics
///
/// Panics if the covariance is not square (never produced by
/// [`output_covariance`]).
pub fn covariance_eigenvalues(c: &CMatrix) -> RVector {
    hermitian_eig(c)
        .expect("covariance matrices are Hermitian and square")
        .values
}

/// Ratio of the largest to smallest eigenvalue of a PSD matrix, with
/// `floor` guarding the denominator. `1.0` means perfectly isotropic.
pub fn anisotropy_ratio(eigs: &RVector, floor: f64) -> f64 {
    if eigs.is_empty() {
        return 1.0;
    }
    let max = eigs.max();
    let min = eigs.min().max(floor);
    max / min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;
    use crate::network::Architecture;
    use photon_linalg::random::{normal_cvector, normal_rvector};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_theta<R: Rng>(n: usize, rng: &mut R) -> Vec<f64> {
        (0..n)
            .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
            .collect()
    }

    #[test]
    fn fvp_matches_dense_fisher_on_linear_module() {
        // For a single linear module, the network FVP must equal the dense
        // module Fisher block applied to the direction.
        let mut rng = StdRng::seed_from_u64(51);
        let arch = Architecture::new(vec![crate::network::ModuleSpec::Clements {
            dim: 4,
            layers: 2,
        }])
        .unwrap();
        let net = arch.build_ideal();
        let theta = net.init_params(&mut rng);
        let inputs: Vec<CVector> = (0..3).map(|_| normal_cvector(4, &mut rng)).collect();
        let v = normal_rvector(net.param_count(), &mut rng);

        let fv = fisher_vector_products(
            &net,
            &theta,
            &inputs,
            std::slice::from_ref(&v),
            &ExecPool::serial(),
        )
        .remove(0);

        let Module::Mesh(mesh) = &net.modules()[0] else {
            panic!("a single Clements mesh");
        };
        let f = module_fisher_block(mesh, theta.as_slice(), &inputs);
        let dense_fv = f.mul_vec(&v).unwrap();
        assert!((&fv - &dense_fv).max_abs() < 1e-10);
    }

    #[test]
    fn fisher_block_is_symmetric_psd() {
        let mut rng = StdRng::seed_from_u64(52);
        let mesh = MeshModule::clements(4, 4);
        let theta = random_theta(mesh.param_count(), &mut rng);
        let inputs: Vec<CVector> = (0..5).map(|_| normal_cvector(4, &mut rng)).collect();
        let f = module_fisher_block(&mesh, &theta, &inputs);
        assert!(f.is_symmetric(1e-12));
        // PSD: vᵀFv ≥ 0 for a few random v.
        for _ in 0..5 {
            let v = normal_rvector(f.rows(), &mut rng);
            let q = v.dot(&f.mul_vec(&v).unwrap()).unwrap();
            assert!(q >= -1e-10, "negative quadratic form {q}");
        }
    }

    #[test]
    fn layered_mesh_fisher_has_off_diagonal_mass() {
        // Interrelated layered parameters ⇒ non-negligible off-diagonals;
        // a diagonal phase layer ⇒ (near-)diagonal Fisher.
        let mut rng = StdRng::seed_from_u64(53);
        let mesh = MeshModule::clements(4, 4);
        let theta = random_theta(mesh.param_count(), &mut rng);
        let inputs: Vec<CVector> = (0..10).map(|_| normal_cvector(4, &mut rng)).collect();
        let f = module_fisher_block(&mesh, &theta, &inputs);
        let mut off = 0.0f64;
        for a in 0..f.rows() {
            for b in 0..f.cols() {
                if a != b {
                    off = off.max(f[(a, b)].abs());
                }
            }
        }
        assert!(off > 0.05, "expected interrelation, max off-diag {off}");

        let diag = MeshModule::phase_diag(4);
        let theta_d = random_theta(4, &mut rng);
        let fd = module_fisher_block(&diag, &theta_d, &inputs);
        let mut off_d = 0.0f64;
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    off_d = off_d.max(fd[(a, b)].abs());
                }
            }
        }
        assert!(off_d < 1e-10, "phase diag should be uncorrelated, {off_d}");
    }

    #[test]
    fn module_jacobian_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(54);
        let mesh = MeshModule::clements(3, 3);
        let theta = random_theta(mesh.param_count(), &mut rng);
        let x = normal_cvector(3, &mut rng);
        let j = module_jacobian(&mesh, &x, &theta);

        let eps = 1e-6;
        let module = Module::Mesh(mesh.clone());
        for col in 0..mesh.param_count() {
            let mut tp = theta.clone();
            tp[col] += eps;
            let mut tm = theta.clone();
            tm[col] -= eps;
            let fd = (&module.forward(&x, &tp) - &module.forward(&x, &tm)).scale_real(0.5 / eps);
            assert!((&j.col(col) - &fd).max_abs() < 1e-6, "column {col}");
        }
    }

    #[test]
    fn output_covariance_isotropy_improves_with_whitening() {
        // Perturbing with Σ = (F + ρI)⁻¹-shaped noise must reduce output
        // anisotropy versus identity perturbations — the core premise of
        // natural-gradient preconditioning.
        let mut rng = StdRng::seed_from_u64(55);
        let mesh = MeshModule::clements(4, 4);
        let n = mesh.param_count();
        let theta = random_theta(n, &mut rng);
        let inputs: Vec<CVector> = (0..20).map(|_| normal_cvector(4, &mut rng)).collect();

        let mut f = module_fisher_block(&mesh, &theta, &inputs);
        f.add_diagonal(0.1);
        let chol = photon_linalg::RCholesky::new(&f.inverse().unwrap().scale(1.1)).unwrap();

        let x = normal_cvector(4, &mut rng);
        let iso_pert: Vec<RVector> = (0..400).map(|_| normal_rvector(n, &mut rng)).collect();
        let nat_pert: Vec<RVector> = (0..400)
            .map(|_| photon_linalg::random::sample_gaussian(&chol, &mut rng).unwrap())
            .collect();

        let c_iso = output_covariance(&mesh, &x, &theta, &iso_pert);
        let c_nat = output_covariance(&mesh, &x, &theta, &nat_pert);
        let r_iso = anisotropy_ratio(&covariance_eigenvalues(&c_iso), 1e-12);
        let r_nat = anisotropy_ratio(&covariance_eigenvalues(&c_nat), 1e-12);
        assert!(
            r_nat < r_iso,
            "whitened perturbations should be more isotropic: {r_nat} vs {r_iso}"
        );
    }

    #[test]
    fn anisotropy_edge_cases() {
        assert_eq!(anisotropy_ratio(&RVector::zeros(0), 1e-12), 1.0);
        let flat = RVector::from_slice(&[2.0, 2.0, 2.0]);
        assert!((anisotropy_ratio(&flat, 1e-12) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fvp_is_thread_count_invariant() {
        let mut rng = StdRng::seed_from_u64(57);
        let net = Architecture::single_mesh(4, 2).unwrap().build_ideal();
        let theta = net.init_params(&mut rng);
        let inputs: Vec<CVector> = (0..5).map(|_| normal_cvector(4, &mut rng)).collect();
        let dirs: Vec<RVector> = (0..4)
            .map(|_| normal_rvector(net.param_count(), &mut rng))
            .collect();
        let serial = fisher_vector_products(&net, &theta, &inputs, &dirs, &ExecPool::serial());
        for threads in [2usize, 4, 8] {
            let pooled =
                fisher_vector_products(&net, &theta, &inputs, &dirs, &ExecPool::new(threads));
            for (a, b) in serial.iter().zip(&pooled) {
                for (va, vb) in a.iter().zip(b.iter()) {
                    assert_eq!(va.to_bits(), vb.to_bits());
                }
            }
        }
    }

    #[test]
    fn batched_fvp_matches_single() {
        let mut rng = StdRng::seed_from_u64(56);
        let net = Architecture::single_mesh(4, 2).unwrap().build_ideal();
        let theta = net.init_params(&mut rng);
        let inputs: Vec<CVector> = (0..2).map(|_| normal_cvector(4, &mut rng)).collect();
        let dirs: Vec<RVector> = (0..3)
            .map(|_| normal_rvector(net.param_count(), &mut rng))
            .collect();
        let pool = ExecPool::serial();
        let batched = fisher_vector_products(&net, &theta, &inputs, &dirs, &pool);
        for (k, d) in dirs.iter().enumerate() {
            let single =
                fisher_vector_products(&net, &theta, &inputs, std::slice::from_ref(d), &pool);
            assert!((&batched[k] - &single[0]).max_abs() < 1e-12);
        }
    }
}
