//! Gradient checking: the test oracle for the three [`Module`] kinds.
//!
//! Every module's derivatives uphold two contracts: the JVP matches finite
//! differences of the forward pass, and the VJP is the exact real-adjoint
//! of the JVP. These helpers verify both on random probes; the crate's
//! tests run them on meshes (ideal and with errors), modReLU and the
//! electro-optic activation.

use rand::Rng;

use photon_linalg::random::{normal_cvector, normal_rvector};
use photon_linalg::CVector;

use crate::module::Module;

/// The outcome of one gradient check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradCheck {
    /// Worst absolute deviation observed.
    pub max_error: f64,
    /// The tolerance the check was run with.
    pub tolerance: f64,
    /// Number of random probes exercised.
    pub probes: usize,
}

impl GradCheck {
    /// Whether the check passed.
    pub fn passed(&self) -> bool {
        self.max_error <= self.tolerance
    }
}

/// Real inner product on complex vectors: `Σ Re(uᵢ)Re(vᵢ) + Im(uᵢ)Im(vᵢ)`.
fn real_dot(a: &CVector, b: &CVector) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(u, v)| u.re * v.re + u.im * v.im)
        .sum()
}

/// Checks that the module's JVP matches central finite differences of
/// `forward` along random joint (input, parameter) tangents.
///
/// # Panics
///
/// Panics when `theta.len() != module.param_count()`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use photon_photonics::{gradcheck, MeshModule, Module};
///
/// let mesh = Module::Mesh(MeshModule::clements(4, 2));
/// let theta = vec![0.3; mesh.param_count()];
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let check = gradcheck::check_jvp(&mesh, &theta, 5, 1e-6, &mut rng);
/// assert!(check.passed(), "max error {}", check.max_error);
/// ```
pub fn check_jvp<R: Rng + ?Sized>(
    module: &Module,
    theta: &[f64],
    probes: usize,
    tolerance: f64,
    rng: &mut R,
) -> GradCheck {
    assert_eq!(
        theta.len(),
        module.param_count(),
        "parameter count mismatch"
    );
    let eps = 1e-6;
    let mut max_error = 0.0f64;
    for _ in 0..probes {
        let x = normal_cvector(module.dim(), rng);
        let dx = normal_cvector(module.dim(), rng);
        let dtheta = normal_rvector(module.param_count(), rng);

        let (_, tape) = module.forward_tape(&x, theta);
        let dy = module.jvp(&tape, theta, &dx, dtheta.as_slice());

        let shifted = |sign: f64| -> CVector {
            let th: Vec<f64> = theta
                .iter()
                .zip(dtheta.iter())
                .map(|(t, d)| t + sign * eps * d)
                .collect();
            let xx = &x + &dx.scale_real(sign * eps);
            module.forward(&xx, &th)
        };
        let fd = (&shifted(1.0) - &shifted(-1.0)).scale_real(0.5 / eps);
        max_error = max_error.max((&dy - &fd).max_abs());
    }
    GradCheck {
        max_error,
        tolerance,
        probes,
    }
}

/// Checks the adjoint contract `⟨jvp(dx, dθ), g⟩ = ⟨dx, vjp_state⟩ +
/// dθ·vjp_params` on random probes — the exactness property that makes
/// `vjp ∘ jvp` a true Fisher-metric product.
///
/// # Panics
///
/// Panics when `theta.len() != module.param_count()`.
pub fn check_adjoint<R: Rng + ?Sized>(
    module: &Module,
    theta: &[f64],
    probes: usize,
    tolerance: f64,
    rng: &mut R,
) -> GradCheck {
    assert_eq!(
        theta.len(),
        module.param_count(),
        "parameter count mismatch"
    );
    let mut max_error = 0.0f64;
    for _ in 0..probes {
        let x = normal_cvector(module.dim(), rng);
        let dx = normal_cvector(module.dim(), rng);
        let dtheta = normal_rvector(module.param_count(), rng);
        let g = normal_cvector(module.dim(), rng);

        let (_, tape) = module.forward_tape(&x, theta);
        let dy = module.jvp(&tape, theta, &dx, dtheta.as_slice());
        let mut gtheta = vec![0.0; module.param_count()];
        let gx = module.vjp(&tape, theta, &g, &mut gtheta);

        let lhs = real_dot(&dy, &g);
        let rhs = real_dot(&dx, &gx) + dtheta.iter().zip(&gtheta).map(|(a, b)| a * b).sum::<f64>();
        max_error = max_error.max((lhs - rhs).abs());
    }
    GradCheck {
        max_error,
        tolerance,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::electrooptic::ElectroOptic;
    use crate::error::{ErrorCursor, ErrorModel, ErrorVector};
    use crate::mesh::MeshModule;
    use crate::modrelu::ModRelu;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn all_builtin_modules_pass_jvp_check() {
        let mut rng = StdRng::seed_from_u64(61);
        let modules = [
            Module::Mesh(MeshModule::clements(4, 4)),
            Module::Mesh(MeshModule::clements(5, 2)),
            Module::Mesh(MeshModule::reck(4)),
            Module::Mesh(MeshModule::phase_diag(4)),
            Module::ModRelu(ModRelu::new(4)),
            Module::ElectroOptic(ElectroOptic::new(4, 0.1, 1.2)),
        ];
        for m in &modules {
            let theta: Vec<f64> = (0..m.param_count())
                .map(|_| rng.gen::<f64>() * 0.8 + 0.1)
                .collect();
            let check = check_jvp(m, &theta, 6, 1e-5, &mut rng);
            assert!(check.passed(), "{m:?}: jvp error {}", check.max_error);
        }
    }

    #[test]
    fn all_builtin_modules_pass_adjoint_check() {
        let mut rng = StdRng::seed_from_u64(62);
        let modules = [
            Module::Mesh(MeshModule::clements(4, 4)),
            Module::Mesh(MeshModule::reck(5)),
            Module::Mesh(MeshModule::phase_diag(3)),
            Module::ModRelu(ModRelu::new(6)),
            Module::ElectroOptic(ElectroOptic::new(6, 0.2, 0.8)),
        ];
        for m in &modules {
            let theta: Vec<f64> = (0..m.param_count())
                .map(|_| rng.gen::<f64>() - 0.3)
                .collect();
            let check = check_adjoint(m, &theta, 8, 1e-9, &mut rng);
            assert!(check.passed(), "{m:?}: adjoint error {}", check.max_error);
        }
    }

    #[test]
    fn noisy_mesh_passes_both_checks() {
        let mut rng = StdRng::seed_from_u64(63);
        let ideal = MeshModule::clements(4, 3);
        let (n_bs, n_ps) = ideal.error_slots();
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(3.0), &mut rng);
        let noisy = Module::Mesh(ideal.with_errors(&mut ErrorCursor::new(&ev)).unwrap());
        let theta: Vec<f64> = (0..noisy.param_count()).map(|_| rng.gen()).collect();
        assert!(check_jvp(&noisy, &theta, 4, 1e-5, &mut rng).passed());
        assert!(check_adjoint(&noisy, &theta, 4, 1e-9, &mut rng).passed());
    }

    #[test]
    fn gradcheck_reports_probe_count() {
        let mut rng = StdRng::seed_from_u64(64);
        let m = Module::Mesh(MeshModule::phase_diag(2));
        let check = check_jvp(&m, &[0.1, 0.2], 3, 1e-5, &mut rng);
        assert_eq!(check.probes, 3);
        assert_eq!(check.tolerance, 1e-5);
    }
}
