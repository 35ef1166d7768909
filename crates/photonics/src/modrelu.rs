//! The modReLU electro-optic nonlinearity.

use photon_linalg::{CVector, C64};

/// Element-wise modReLU activation with one trainable bias per waveguide:
///
/// ```text
/// modReLU(y) = y·(|y| + b)/|y|   if |y| + b ≥ 0
///              0                 otherwise
/// ```
///
/// The activation preserves the phase of `y` and shrinks (or gates) its
/// modulus — the standard complex-valued nonlinearity of MZI-based ONNs.
/// Its electro-optic implementation is assumed fabrication-error-free; the
/// optical fabric around it carries the error model.
///
/// # Examples
///
/// ```
/// use photon_linalg::{C64, CVector};
/// use photon_photonics::{ModRelu, Module};
///
/// let act = Module::ModRelu(ModRelu::new(2));
/// let x = CVector::from_vec(vec![C64::new(3.0, 4.0), C64::new(0.1, 0.0)]);
/// // Bias -1: |3+4j| = 5 → modulus 4; |0.1| - 1 < 0 → gated to zero.
/// let y = act.forward(&x, &[-1.0, -1.0]);
/// assert!((y[0].abs() - 4.0).abs() < 1e-12);
/// assert_eq!(y[1], C64::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct ModRelu {
    pub(crate) dim: usize,
}

impl ModRelu {
    /// Creates a modReLU layer on `dim` waveguides.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1, "modReLU needs at least 1 waveguide");
        ModRelu { dim }
    }

    // Debug-only checks: lengths are validated once at the `Network`/chip
    // boundary before the per-module hot loop runs.
    pub(crate) fn forward_into(&self, x: &CVector, theta: &[f64], out: &mut CVector) {
        debug_assert_eq!(x.len(), self.dim, "input dimension mismatch");
        debug_assert_eq!(theta.len(), self.dim, "parameter count mismatch");
        out.resize_zeroed(self.dim);
        for (k, o) in out.iter_mut().enumerate() {
            let z = x[k];
            let r = z.abs();
            *o = if r <= DARK || r + theta[k] < 0.0 {
                C64::ZERO
            } else {
                z.scale((r + theta[k]) / r)
            };
        }
    }

    /// Output tangent at input `x` (the taped module input).
    pub(crate) fn jvp(&self, x: &CVector, theta: &[f64], dx: &CVector, dtheta: &[f64]) -> CVector {
        CVector::from_fn(self.dim, |k| {
            let z = x[k];
            let r = z.abs();
            let b = theta[k];
            if r <= DARK || r + b < 0.0 {
                return C64::ZERO;
            }
            // y = z·(1 + b/r) ⇒
            // dy = (1 + b/r)·dz − (b/r³)·z·⟨z, dz⟩_R + db·z/r
            let s = 1.0 + b / r;
            let d = dx[k];
            let zr_dot = z.re * d.re + z.im * d.im;
            let coef = b / (r * r * r);
            d.scale(s) - z.scale(coef * zr_dot) + z.scale(dtheta[k] / r)
        })
    }

    /// Input cotangent at input `x`; the bias cotangent accumulates into
    /// `grad_theta`.
    pub(crate) fn vjp(
        &self,
        x: &CVector,
        theta: &[f64],
        gy: &CVector,
        grad_theta: &mut [f64],
    ) -> CVector {
        CVector::from_fn(self.dim, |k| {
            let z = x[k];
            let r = z.abs();
            let b = theta[k];
            if r <= DARK || r + b < 0.0 {
                return C64::ZERO;
            }
            let g = gy[k];
            // The per-element real 2×2 Jacobian A = s·I − (b/r³)·zzᵀ is
            // symmetric, so the state cotangent reuses the JVP formula.
            let s = 1.0 + b / r;
            let zg_dot = z.re * g.re + z.im * g.im;
            let coef = b / (r * r * r);
            // ∂ℓ/∂b = ⟨z/r, g⟩_R
            grad_theta[k] += zg_dot / r;
            g.scale(s) - z.scale(coef * zg_dot)
        })
    }
}

/// Numerical floor under which an amplitude is treated as dark (no phase).
const DARK: f64 = 1e-300;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorVector;
    use crate::module::Module;
    use photon_linalg::random::normal_cvector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn zero_bias_is_identity_on_modulus() {
        let act = Module::ModRelu(ModRelu::new(3));
        let x = CVector::from_vec(vec![
            C64::new(1.0, 2.0),
            C64::new(-0.5, 0.25),
            C64::new(0.0, -3.0),
        ]);
        let y = act.forward(&x, &[0.0; 3]);
        assert!((&y - &x).max_abs() < 1e-12);
    }

    #[test]
    fn positive_bias_amplifies_preserving_phase() {
        let act = Module::ModRelu(ModRelu::new(1));
        let x = CVector::from_vec(vec![C64::from_polar(2.0, 0.7)]);
        let y = act.forward(&x, &[1.0]);
        assert!((y[0].abs() - 3.0).abs() < 1e-12);
        assert!((y[0].arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn gating_below_threshold() {
        let act = Module::ModRelu(ModRelu::new(1));
        let x = CVector::from_vec(vec![C64::from_real(0.5)]);
        assert_eq!(act.forward(&x, &[-0.6])[0], C64::ZERO);
        // Dark input is gated regardless of bias.
        let dark = CVector::from_vec(vec![C64::ZERO]);
        assert_eq!(act.forward(&dark, &[1.0])[0], C64::ZERO);
    }

    #[test]
    fn jvp_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(31);
        let act = Module::ModRelu(ModRelu::new(4));
        let x = normal_cvector(4, &mut rng);
        let theta: Vec<f64> = (0..4).map(|_| rng.gen::<f64>() * 0.4 - 0.2).collect();
        let dtheta: Vec<f64> = (0..4).map(|_| rng.gen::<f64>() - 0.5).collect();
        let dx = normal_cvector(4, &mut rng);

        let (_, tape) = act.forward_tape(&x, &theta);
        let dy = act.jvp(&tape, &theta, &dx, &dtheta);

        let eps = 1e-6;
        let perturbed = |sign: f64| -> CVector {
            let th: Vec<f64> = theta
                .iter()
                .zip(&dtheta)
                .map(|(t, d)| t + sign * eps * d)
                .collect();
            let xx = &x + &dx.scale_real(sign * eps);
            act.forward(&xx, &th)
        };
        let fd = (&perturbed(1.0) - &perturbed(-1.0)).scale_real(0.5 / eps);
        assert!((&dy - &fd).max_abs() < 1e-6, "jvp {dy} fd {fd}");
    }

    #[test]
    fn vjp_is_adjoint_of_jvp() {
        let mut rng = StdRng::seed_from_u64(33);
        let act = Module::ModRelu(ModRelu::new(5));
        let x = normal_cvector(5, &mut rng);
        let theta: Vec<f64> = (0..5).map(|_| rng.gen::<f64>() * 0.5 - 0.25).collect();
        let (_, tape) = act.forward_tape(&x, &theta);

        let dx = normal_cvector(5, &mut rng);
        let dtheta: Vec<f64> = (0..5).map(|_| rng.gen::<f64>() - 0.5).collect();
        let g = normal_cvector(5, &mut rng);

        let dy = act.jvp(&tape, &theta, &dx, &dtheta);
        let mut gtheta = vec![0.0; 5];
        let gx = act.vjp(&tape, &theta, &g, &mut gtheta);

        let real_dot = |a: &CVector, b: &CVector| -> f64 {
            a.iter()
                .zip(b.iter())
                .map(|(u, v)| u.re * v.re + u.im * v.im)
                .sum()
        };
        let lhs = real_dot(&dy, &g);
        let rhs = real_dot(&dx, &gx) + dtheta.iter().zip(&gtheta).map(|(a, b)| a * b).sum::<f64>();
        assert!((lhs - rhs).abs() < 1e-10, "{lhs} vs {rhs}");
    }

    #[test]
    fn no_error_slots() {
        let act = Module::ModRelu(ModRelu::new(3));
        assert_eq!(act.error_slots(), (0, 0));
        assert!(!act.is_layered());
        let mut out = ErrorVector::default();
        act.collect_errors(&mut out);
        assert!(out.is_empty());
    }
}
