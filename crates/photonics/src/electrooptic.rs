//! The electro-optic activation of Williamson et al. (2020):
//! a physically realizable ONN nonlinearity in which a tapped fraction of
//! the optical power drives a phase shifter.
//!
//! Per channel, with power `u = |z|²`, phase `φ(u) = g·u/2 + φ_b/2`:
//!
//! ```text
//! f(z) = j·√(1−α) · e^{−j·φ(u)} · cos(φ(u)) · z
//! ```
//!
//! `α` is the tap ratio (fixed at fabrication), `g` the electro-optic gain
//! (fixed), and the per-channel bias `φ_b` is the trainable parameter.

use photon_linalg::{CVector, C64};

use crate::panel::StatePanel;

/// Electro-optic activation layer with one trainable bias `φ_b` per
/// waveguide.
///
/// # Examples
///
/// ```
/// use photon_linalg::{C64, CVector};
/// use photon_photonics::{ElectroOptic, Module};
///
/// let act = Module::ElectroOptic(ElectroOptic::new(2, 0.1, 1.0));
/// let x = CVector::from_vec(vec![C64::ONE, C64::I]);
/// let y = act.forward(&x, &[0.0, 0.0]);
/// // Passive tap: the activation can only lose power.
/// assert!(y.norm_sqr() <= x.norm_sqr() + 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct ElectroOptic {
    pub(crate) dim: usize,
    /// Tap ratio α ∈ [0, 1): fraction of power diverted to the detector.
    alpha: f64,
    /// Electro-optic gain `g` (radians per unit power).
    gain: f64,
}

impl ElectroOptic {
    /// Creates the activation on `dim` waveguides.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`, `alpha ∉ [0, 1)`, or `gain` is not finite.
    pub fn new(dim: usize, alpha: f64, gain: f64) -> Self {
        assert!(dim >= 1, "activation needs at least 1 waveguide");
        assert!((0.0..1.0).contains(&alpha), "tap ratio must be in [0, 1)");
        assert!(gain.is_finite(), "gain must be finite");
        ElectroOptic { dim, alpha, gain }
    }

    /// The tap ratio α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The electro-optic gain `g`.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// `h(u, φ_b) = j√(1−α)·e^{−jφ}·cos φ` with `φ = g·u/2 + φ_b/2`.
    #[inline]
    fn h(&self, u: f64, phi_b: f64) -> (C64, f64) {
        let phi = 0.5 * self.gain * u + 0.5 * phi_b;
        let root = (1.0 - self.alpha).sqrt();
        let h = C64::I * root * C64::cis(-phi) * phi.cos();
        (h, phi)
    }

    /// `∂h/∂φ = √(1−α)·e^{−2jφ}`: the derivative of `j·e^{−jφ}·cos φ` is
    /// `j·(−j·e^{−jφ}·cos φ − e^{−jφ}·sin φ) = e^{−jφ}·(cos φ − j·sin φ)`.
    #[inline]
    fn dh_dphi(&self, phi: f64) -> C64 {
        let root = (1.0 - self.alpha).sqrt();
        C64::cis(-2.0 * phi) * root
    }

    /// One channel's response at its input `z` and bias `b`: the values
    /// every tangent or cotangent of that channel shares.
    #[inline(always)]
    fn response(&self, z: C64, b: f64) -> Response {
        let (h, phi) = self.h(z.norm_sqr(), b);
        Response {
            z,
            h,
            zdh: z * self.dh_dphi(phi),
        }
    }

    /// The output tangent for input tangent `d` and bias tangent `db`:
    /// `dφ = (g/2)·du + dθ/2` with `du = 2·⟨z, dz⟩_R`.
    #[inline(always)]
    fn tangent(&self, e: Response, d: C64, db: f64) -> C64 {
        let zdz = e.z.re * d.re + e.z.im * d.im;
        let dphi = self.gain * zdz + 0.5 * db;
        e.h * d + e.zdh * dphi
    }

    /// `(∂ℓ/∂θ, input cotangent)` for output cotangent `g`.
    /// `w = ⟨z·dh, g⟩_R` is the real coefficient both adjoints share, and
    /// `dφ/dθ = 1/2`. The adjoint of `dz ↦ h·dz` is `conj(h)·g`; the power
    /// path `dz ↦ z·dh·gain·⟨z, dz⟩_R` pairs with `g` to
    /// `gain·w·⟨z, dz⟩_R`, so its adjoint is `gain·w·z`.
    #[inline(always)]
    fn cotangent(&self, e: Response, g: C64) -> (f64, C64) {
        let w = e.zdh.re * g.re + e.zdh.im * g.im;
        (0.5 * w, e.h.conj() * g + e.z.scale(self.gain * w))
    }

    // Debug-only checks: lengths are validated once at the `Network`/chip
    // boundary before the per-module hot loop runs.
    pub(crate) fn forward_slice(&self, x: &[C64], theta: &[f64], out: &mut [C64]) {
        debug_assert_eq!(x.len(), self.dim, "input dimension mismatch");
        debug_assert_eq!(theta.len(), self.dim, "parameter count mismatch");
        debug_assert_eq!(out.len(), self.dim, "output dimension mismatch");
        for ((o, &z), &b) in out.iter_mut().zip(x).zip(theta) {
            let (h, _) = self.h(z.norm_sqr(), b);
            *o = h * z;
        }
    }

    /// Maps the input tangent in `dstate` to the output tangent, in place,
    /// at input `x` (the taped module input).
    pub(crate) fn jvp_in_place(
        &self,
        x: &[C64],
        theta: &[f64],
        dstate: &mut CVector,
        dtheta: &[f64],
    ) {
        for (k, dk) in dstate.iter_mut().enumerate() {
            *dk = self.tangent(self.response(x[k], theta[k]), *dk, dtheta[k]);
        }
    }

    /// [`ElectroOptic::jvp_in_place`] on every column of `dstate` at one
    /// shared tape; `dtheta` is param-major (`dim × q`).
    #[inline(always)]
    pub(crate) fn jvp_panel(
        &self,
        x: &[C64],
        theta: &[f64],
        dstate: &mut StatePanel,
        dtheta: &[f64],
    ) {
        let q = dstate.width();
        for k in 0..self.dim {
            let e = self.response(x[k], theta[k]);
            let db = &dtheta[k * q..][..q];
            dstate.map_port(k, |c, d| self.tangent(e, d, db[c]));
        }
    }

    /// Maps the output cotangent in `gstate` to the input cotangent, in
    /// place, at input `x`; the bias cotangent accumulates into
    /// `grad_theta` when given.
    pub(crate) fn vjp_in_place(
        &self,
        x: &[C64],
        theta: &[f64],
        gstate: &mut CVector,
        mut grad_theta: Option<&mut [f64]>,
    ) {
        for (k, gk) in gstate.iter_mut().enumerate() {
            let (db, g) = self.cotangent(self.response(x[k], theta[k]), *gk);
            if let Some(grad) = grad_theta.as_deref_mut() {
                grad[k] += db;
            }
            *gk = g;
        }
    }

    /// [`ElectroOptic::vjp_in_place`] on every column of `gstate` at one
    /// shared tape; `grad_theta` is param-major (`dim × q`).
    #[inline(always)]
    pub(crate) fn vjp_panel(
        &self,
        x: &[C64],
        theta: &[f64],
        gstate: &mut StatePanel,
        mut grad_theta: Option<&mut [f64]>,
    ) {
        let q = gstate.width();
        for k in 0..self.dim {
            let e = self.response(x[k], theta[k]);
            match grad_theta.as_deref_mut() {
                Some(grad) => {
                    let grad = &mut grad[k * q..][..q];
                    gstate.map_port(k, |c, g| {
                        let (db, g) = self.cotangent(e, g);
                        grad[c] += db;
                        g
                    });
                }
                None => gstate.map_port(k, |_, g| self.cotangent(e, g).1),
            }
        }
    }
}

/// One channel's values at its taped input `z`: the input, the transmission
/// `h` and `z·∂h/∂φ`.
#[derive(Debug, Clone, Copy)]
struct Response {
    z: C64,
    h: C64,
    zdh: C64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_adjoint, check_jvp};
    use crate::module::Module;
    use photon_linalg::random::normal_cvector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn passive_activation_never_gains_power() {
        let act = Module::ElectroOptic(ElectroOptic::new(4, 0.1, 1.5));
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..20 {
            let x = normal_cvector(4, &mut rng);
            let theta: Vec<f64> = (0..4)
                .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
                .collect();
            let y = act.forward(&x, &theta);
            assert!(y.norm_sqr() <= x.norm_sqr() + 1e-12);
        }
    }

    #[test]
    fn bias_pi_blocks_light_at_zero_power() {
        // For vanishing input power, φ → φ_b/2; φ_b = π gives cos(π/2) = 0:
        // the channel is pinched off for weak signals.
        let act = Module::ElectroOptic(ElectroOptic::new(1, 0.0, 1.0));
        let x = CVector::from_vec(vec![C64::from_real(1e-6)]);
        let y = act.forward(&x, &[std::f64::consts::PI]);
        assert!(y[0].abs() < 1e-9);
        // φ_b = 0 passes weak signals (up to the tap loss).
        let y2 = act.forward(&x, &[0.0]);
        assert!((y2[0].abs() - 1e-6).abs() < 1e-9);
    }

    #[test]
    fn nonlinearity_is_power_dependent() {
        // The same bias must transmit differently at different powers —
        // that's what makes it an activation.
        let act = Module::ElectroOptic(ElectroOptic::new(1, 0.0, 2.0));
        let weak = act.forward(&CVector::from_vec(vec![C64::from_real(0.1)]), &[0.5]);
        let strong = act.forward(&CVector::from_vec(vec![C64::from_real(1.0)]), &[0.5]);
        let t_weak = weak[0].abs() / 0.1;
        let t_strong = strong[0].abs() / 1.0;
        assert!(
            (t_weak - t_strong).abs() > 0.05,
            "transmission must depend on power: {t_weak} vs {t_strong}"
        );
    }

    #[test]
    fn jvp_matches_finite_difference() {
        let act = Module::ElectroOptic(ElectroOptic::new(5, 0.1, 1.2));
        let mut rng = StdRng::seed_from_u64(72);
        let theta: Vec<f64> = (0..5).map(|_| rng.gen::<f64>() * 3.0).collect();
        let check = check_jvp(&act, &theta, 8, 1e-5, &mut rng);
        assert!(check.passed(), "jvp error {}", check.max_error);
    }

    #[test]
    fn vjp_is_exact_adjoint() {
        let act = Module::ElectroOptic(ElectroOptic::new(6, 0.2, 0.8));
        let mut rng = StdRng::seed_from_u64(73);
        let theta: Vec<f64> = (0..6).map(|_| rng.gen::<f64>() * 3.0 - 1.5).collect();
        let check = check_adjoint(&act, &theta, 10, 1e-9, &mut rng);
        assert!(check.passed(), "adjoint error {}", check.max_error);
    }

    #[test]
    fn no_error_slots_and_zero_init() {
        let act = ElectroOptic::new(3, 0.1, 1.0);
        assert_eq!(act.alpha(), 0.1);
        assert_eq!(act.gain(), 1.0);
        let module = Module::ElectroOptic(act);
        assert_eq!(module.error_slots(), (0, 0));
        assert!(!module.is_layered());
    }

    #[test]
    #[should_panic(expected = "tap ratio")]
    fn invalid_alpha_rejected() {
        let _ = ElectroOptic::new(2, 1.0, 1.0);
    }
}
