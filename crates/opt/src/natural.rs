//! Block-diagonal natural-gradient preconditioning and covariance-shaped
//! ("layered") perturbation sampling.
//!
//! Two consumers:
//!
//! - the **ZO-NG ablation** ("natural" without "linear combination"):
//!   precondition a vanilla ZO gradient estimate with the per-module Fisher
//!   blocks of a software model, `d_u = (F_u + ρ·I)⁻¹ ĝ_u`;
//! - the **layered-perturbation extension** (following the successor work of
//!   the same research line): sample probe directions from
//!   `N(0, Σ_u)` with `Σ_u = (1 + ρ)(F_u + ρ·I)⁻¹` on layered modules, so
//!   the induced output perturbations become near-isotropic.

use std::ops::Range;

use photon_linalg::CVector;
use photon_linalg::{LinalgError, RCholesky, RMatrix, RVector};
use photon_photonics::{module_fisher_block, Module, Network};

/// The Fisher blocks `F_u` of `model`'s layered meshes, with their parameter
/// ranges: the one walk behind both consumers. Each Fisher input is
/// propagated through the earlier modules, so every block sees its *own*
/// input distribution.
fn layered_fisher_blocks(
    model: &Network,
    theta: &RVector,
    inputs: &[CVector],
) -> Vec<(Range<usize>, RMatrix)> {
    assert!(!inputs.is_empty(), "need at least one Fisher input");
    let mut blocks = Vec::new();
    let mut states: Vec<CVector> = inputs.to_vec();
    for (i, module) in model.modules().iter().enumerate() {
        let range = model.module_param_range(i);
        let theta_u = &theta.as_slice()[range.clone()];
        if let Module::Mesh(mesh) = module {
            if mesh.is_layered() {
                blocks.push((range, module_fisher_block(mesh, theta_u, &states)));
            }
        }
        for s in &mut states {
            *s = module.forward(s, theta_u);
        }
    }
    blocks
}

/// Per-module Fisher blocks of a software model, with damping.
///
/// Built every `T_ud` iterations (it is the expensive part) and applied
/// cheaply to every subsequent gradient estimate.
#[derive(Debug)]
pub struct BlockNaturalPreconditioner {
    blocks: Vec<(Range<usize>, RCholesky)>,
    dim: usize,
}

impl BlockNaturalPreconditioner {
    /// Assembles damped Fisher blocks `F_u + ρ·I` for the layered meshes of
    /// `model` at parameters `theta`, averaged over `inputs`; every other
    /// module (phase diagonals and activations, whose Fisher blocks are
    /// already (near-)diagonal) passes its coordinates through.
    ///
    /// # Errors
    ///
    /// Returns a [`LinalgError`] when a damped block is not positive
    /// definite (cannot happen for `rho > 0`).
    ///
    /// # Panics
    ///
    /// Panics when `inputs` is empty or `rho < 0`.
    pub fn assemble(
        model: &Network,
        theta: &RVector,
        inputs: &[CVector],
        rho: f64,
    ) -> Result<Self, LinalgError> {
        assert!(rho >= 0.0, "damping must be non-negative");
        let blocks = layered_fisher_blocks(model, theta, inputs)
            .into_iter()
            .map(|(range, mut f)| {
                f.add_diagonal(rho);
                Ok((range, RCholesky::new(&f)?))
            })
            .collect::<Result<_, LinalgError>>()?;
        Ok(BlockNaturalPreconditioner {
            blocks,
            dim: theta.len(),
        })
    }

    /// Applies the block-wise inverse: `d_u = (F_u + ρI)⁻¹ g_u` on covered
    /// blocks, identity elsewhere.
    ///
    /// # Panics
    ///
    /// Panics when `grad.len()` differs from the assembly dimension.
    pub fn apply(&self, grad: &RVector) -> RVector {
        assert_eq!(grad.len(), self.dim, "gradient dimension mismatch");
        let mut out = grad.clone();
        for (range, chol) in &self.blocks {
            let g_u = grad.subvector(range.start, range.len());
            let d_u = chol.solve(&g_u).expect("block dimension fixed at assembly");
            out.set_subvector(range.start, &d_u);
        }
        out
    }
}

/// Covariance-shaped perturbation sampler for layered modules:
/// `Σ_u = (1 + ρ)·(F_u + ρ·I)⁻¹` per layered module, identity elsewhere.
///
/// Returns `(start index, Cholesky of Σ_u)` segments compatible with
/// [`crate::Perturbation::Shaped`].
///
/// # Errors
///
/// Returns a [`LinalgError`] when a shaped covariance cannot be factorized
/// (cannot happen for `rho > 0`).
///
/// # Panics
///
/// Panics when `inputs` is empty or `rho <= 0`.
pub fn layered_sigma_segments(
    model: &Network,
    theta: &RVector,
    inputs: &[CVector],
    rho: f64,
) -> Result<Vec<(usize, RCholesky)>, LinalgError> {
    assert!(rho > 0.0, "rho must be positive");
    layered_fisher_blocks(model, theta, inputs)
        .into_iter()
        .map(|(range, f)| Ok((range.start, RCholesky::new(&sigma_from_fisher(&f, rho)?)?)))
        .collect()
}

/// Dense damped-inverse covariance for a single Fisher block — the shape
/// plotted in the diagnostics figure.
///
/// # Errors
///
/// [`LinalgError`] when `f + rho·I` is singular (requires `rho ≤ 0`).
pub fn sigma_from_fisher(f: &RMatrix, rho: f64) -> Result<RMatrix, LinalgError> {
    let mut damped = f.clone();
    damped.add_diagonal(rho);
    let mut sigma = damped.inverse()?.scale(1.0 + rho);
    sigma.symmetrize();
    Ok(sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_linalg::random::{normal_cvector, normal_rvector};
    use photon_photonics::Architecture;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Network, RVector, Vec<CVector>, StdRng) {
        let mut rng = StdRng::seed_from_u64(41);
        let net = Architecture::two_mesh_classifier(4, 4)
            .unwrap()
            .build_ideal();
        let theta = net.init_params(&mut rng);
        let inputs: Vec<CVector> = (0..4).map(|_| normal_cvector(4, &mut rng)).collect();
        (net, theta, inputs, rng)
    }

    #[test]
    fn assemble_covers_layered_modules() {
        // Blocks for the two Clements meshes (modules 0 and 3), none for
        // the phase diagonals (1, 4) or modReLU (2).
        let (net, theta, inputs, mut rng) = setup();
        let pre = BlockNaturalPreconditioner::assemble(&net, &theta, &inputs, 0.1).unwrap();
        let g = normal_rvector(net.param_count(), &mut rng);
        let d = pre.apply(&g);
        for (i, layered) in [true, false, false, true, false].into_iter().enumerate() {
            let changed = net.module_param_range(i).any(|k| d[k] != g[k]);
            assert_eq!(changed, layered, "module {i}");
        }
    }

    #[test]
    fn apply_is_identity_outside_blocks() {
        let (net, theta, inputs, mut rng) = setup();
        let pre = BlockNaturalPreconditioner::assemble(&net, &theta, &inputs, 0.1).unwrap();
        let g = normal_rvector(net.param_count(), &mut rng);
        let d = pre.apply(&g);
        // Non-layered coordinates (PSdiag, modReLU) pass through unchanged.
        for i in net.module_param_range(1).chain(net.module_param_range(2)) {
            assert_eq!(d[i], g[i], "coordinate {i} should be untouched");
        }
        // Layered coordinates change.
        let mesh = net.module_param_range(0);
        let changed = mesh.clone().any(|i| (d[i] - g[i]).abs() > 1e-12);
        assert!(changed);
    }

    #[test]
    fn preconditioner_solves_block_system() {
        // apply(F_u·v + ρ·v) ≈ v on a layered block.
        let (net, theta, inputs, mut rng) = setup();
        let rho = 0.05;
        let pre = BlockNaturalPreconditioner::assemble(&net, &theta, &inputs, rho).unwrap();
        let range = net.module_param_range(0);
        let Module::Mesh(mesh) = &net.modules()[0] else {
            panic!("module 0 is a Clements mesh");
        };
        let mut f = module_fisher_block(mesh, &theta.as_slice()[range.clone()], &inputs);
        f.add_diagonal(rho);
        let v = normal_rvector(range.len(), &mut rng);
        let fv = f.mul_vec(&v).unwrap();
        let mut g = RVector::zeros(net.param_count());
        g.set_subvector(range.start, &fv);
        let d = pre.apply(&g);
        let d_u = d.subvector(range.start, range.len());
        assert!((&d_u - &v).max_abs() < 1e-8);
    }

    #[test]
    fn sigma_segments_cover_meshes() {
        let (net, theta, inputs, _) = setup();
        let segs = layered_sigma_segments(&net, &theta, &inputs, 0.1).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].0, net.module_param_range(0).start);
        assert_eq!(segs[1].0, net.module_param_range(3).start);
        // Factor dims match the mesh parameter counts.
        assert_eq!(segs[0].1.dim(), net.module_param_range(0).len());
    }

    #[test]
    fn sigma_from_fisher_inverts() {
        let f = RMatrix::from_rows(&[vec![2.0, 0.5], vec![0.5, 1.0]]);
        let rho = 0.1;
        let sigma = sigma_from_fisher(&f, rho).unwrap();
        // Σ·(F + ρI) = (1+ρ)·I.
        let mut damped = f.clone();
        damped.add_diagonal(rho);
        let prod = sigma.mul_mat(&damped).unwrap();
        let expected = RMatrix::identity(2).scale(1.0 + rho);
        assert!((&prod - &expected).max_abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "at least one Fisher input")]
    fn empty_inputs_panics() {
        let (net, theta, _, _) = setup();
        let _ = BlockNaturalPreconditioner::assemble(&net, &theta, &[], 0.1);
    }
}
