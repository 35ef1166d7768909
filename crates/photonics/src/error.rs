//! Fabrication-variation model for silicon-photonic circuits.
//!
//! Every beam splitter carries a *splitting-angle error* `γ ∈ ℝ` and every
//! phase shifter carries an *attenuation-phase error* `ζ ∈ ℂ, |ζ| ≤ 1`.
//! Following the published estimates for calibrated Clements meshes on
//! silicon photonics, errors are drawn as
//!
//! ```text
//! γ = σ_γ · r₀                         r₀ ~ N(0, 1)
//! ζ = (1 − σ_ζ,r · r₁) · e^{j·σ_ζ,a·(2r₂−1)}    r₁, r₂ ~ U[0, 1)
//! ```
//!
//! with `σ_γ = 10⁻²·β`, `σ_ζ,r = 10⁻³·β`, `σ_ζ,a = 10⁻¹·β`; the scalar `β`
//! controls the overall error magnitude (`β = 1` models a real calibrated
//! chip; `β = 0` is the ideal error-free circuit).

use std::fmt;

use rand::Rng;

use photon_linalg::random::standard_normal;
use photon_linalg::C64;

/// Errors raised when consuming or constructing an [`ErrorVector`].
///
/// # Examples
///
/// ```
/// use photon_photonics::{ErrorVector, ErrorVectorError};
///
/// match ErrorVector::from_flat(2, 2, &[0.0; 5]) {
///     Err(ErrorVectorError::FlatLengthMismatch { expected: 6, found: 5 }) => {}
///     other => panic!("expected length mismatch, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorVectorError {
    /// A flat error buffer had the wrong length for the circuit shape.
    FlatLengthMismatch {
        /// Expected length `n_bs + 2·n_ps`.
        expected: usize,
        /// Length actually supplied.
        found: usize,
    },
    /// A circuit builder asked for more beam-splitter errors than the
    /// vector holds.
    GammaExhausted {
        /// Number of beam-splitter slots available.
        available: usize,
    },
    /// A circuit builder asked for more phase-shifter errors than the
    /// vector holds.
    ZetaExhausted {
        /// Number of phase-shifter slots available.
        available: usize,
    },
}

impl fmt::Display for ErrorVectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorVectorError::FlatLengthMismatch { expected, found } => {
                write!(
                    f,
                    "flat error vector length mismatch: expected {expected}, found {found}"
                )
            }
            ErrorVectorError::GammaExhausted { available } => {
                write!(
                    f,
                    "error vector exhausted: circuit needs more than {available} beam-splitter errors"
                )
            }
            ErrorVectorError::ZetaExhausted { available } => {
                write!(
                    f,
                    "error vector exhausted: circuit needs more than {available} phase-shifter errors"
                )
            }
        }
    }
}

impl std::error::Error for ErrorVectorError {}

/// Hyperparameters of the fabrication-error distribution.
///
/// # Examples
///
/// ```
/// use photon_photonics::ErrorModel;
///
/// let nominal = ErrorModel::with_beta(1.0);
/// assert!((nominal.sigma_gamma - 1e-2).abs() < 1e-15);
/// let ideal = ErrorModel::ideal();
/// assert_eq!(ideal.sigma_gamma, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    /// Standard deviation of beam-splitter angle errors (radians).
    pub sigma_gamma: f64,
    /// Relative attenuation scale of phase-shifter errors.
    pub sigma_zeta_r: f64,
    /// Phase-offset scale of phase-shifter errors (radians).
    pub sigma_zeta_a: f64,
}

impl ErrorModel {
    /// The paper's error setting scaled by `β`:
    /// `σ_γ = 10⁻²β`, `σ_ζ,r = 10⁻³β`, `σ_ζ,a = 10⁻¹β`.
    pub fn with_beta(beta: f64) -> Self {
        ErrorModel {
            sigma_gamma: 1e-2 * beta,
            sigma_zeta_r: 1e-3 * beta,
            sigma_zeta_a: 1e-1 * beta,
        }
    }

    /// The error-free model (`β = 0`).
    pub fn ideal() -> Self {
        ErrorModel::with_beta(0.0)
    }

    /// Draws one beam-splitter angle error.
    pub fn sample_gamma<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sigma_gamma * standard_normal(rng)
    }

    /// Draws one phase-shifter error as an `(attenuation, phase)` pair such
    /// that `ζ = (1 − attenuation)·e^{j·phase}`.
    pub fn sample_zeta_parts<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        let r1: f64 = rng.gen();
        let r2: f64 = rng.gen();
        (self.sigma_zeta_r * r1, self.sigma_zeta_a * (2.0 * r2 - 1.0))
    }
}

impl Default for ErrorModel {
    /// Defaults to the calibrated-chip estimate `β = 1`.
    fn default() -> Self {
        ErrorModel::with_beta(1.0)
    }
}

/// Converts an `(attenuation, phase)` error pair to the complex factor
/// `ζ = (1 − attenuation)·e^{j·phase}`.
///
/// # Examples
///
/// ```
/// use photon_photonics::zeta_from_parts;
///
/// let z = zeta_from_parts(0.0, 0.0);
/// assert!((z.re - 1.0).abs() < 1e-15 && z.im.abs() < 1e-15);
/// ```
pub fn zeta_from_parts(attenuation: f64, phase: f64) -> C64 {
    C64::from_polar(1.0 - attenuation, phase)
}

/// The complete error assignment of a circuit, flattened in component order.
///
/// Beam splitters contribute one `gamma` each; phase shifters contribute one
/// `(attenuation, phase)` pair each, in the order the components appear in
/// the circuit netlist. This is the unknown vector the calibrator estimates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ErrorVector {
    /// Beam-splitter angle errors, in netlist order.
    pub gamma: Vec<f64>,
    /// Phase-shifter attenuations, in netlist order.
    pub attenuation: Vec<f64>,
    /// Phase-shifter phase offsets, in netlist order.
    pub phase: Vec<f64>,
}

impl ErrorVector {
    /// The zero (ideal) error vector for a circuit with `n_bs` beam
    /// splitters and `n_ps` phase shifters.
    pub fn zeros(n_bs: usize, n_ps: usize) -> Self {
        ErrorVector {
            gamma: vec![0.0; n_bs],
            attenuation: vec![0.0; n_ps],
            phase: vec![0.0; n_ps],
        }
    }

    /// Samples an error vector from `model`.
    pub fn sample<R: Rng + ?Sized>(
        n_bs: usize,
        n_ps: usize,
        model: &ErrorModel,
        rng: &mut R,
    ) -> Self {
        let gamma = (0..n_bs).map(|_| model.sample_gamma(rng)).collect();
        let mut attenuation = Vec::with_capacity(n_ps);
        let mut phase = Vec::with_capacity(n_ps);
        for _ in 0..n_ps {
            let (a, p) = model.sample_zeta_parts(rng);
            attenuation.push(a);
            phase.push(p);
        }
        ErrorVector {
            gamma,
            attenuation,
            phase,
        }
    }

    /// Number of beam splitters covered.
    pub fn n_beam_splitters(&self) -> usize {
        self.gamma.len()
    }

    /// Number of phase shifters covered.
    pub fn n_phase_shifters(&self) -> usize {
        self.attenuation.len()
    }

    /// Total number of scalar error parameters (`n_bs + 2·n_ps`).
    pub fn len(&self) -> usize {
        self.gamma.len() + self.attenuation.len() + self.phase.len()
    }

    /// Returns `true` when the circuit has no error slots at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flattens to `[γ…, attenuation…, phase…]` for the calibrator.
    pub fn to_flat(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(&self.gamma);
        out.extend_from_slice(&self.attenuation);
        out.extend_from_slice(&self.phase);
        out
    }

    /// Rebuilds from the flat layout produced by [`ErrorVector::to_flat`].
    ///
    /// # Errors
    ///
    /// Returns [`ErrorVectorError::FlatLengthMismatch`] when
    /// `flat.len() != n_bs + 2·n_ps`.
    pub fn from_flat(n_bs: usize, n_ps: usize, flat: &[f64]) -> Result<Self, ErrorVectorError> {
        let expected = n_bs + 2 * n_ps;
        if flat.len() != expected {
            return Err(ErrorVectorError::FlatLengthMismatch {
                expected,
                found: flat.len(),
            });
        }
        Ok(ErrorVector {
            gamma: flat[..n_bs].to_vec(),
            attenuation: flat[n_bs..n_bs + n_ps].to_vec(),
            phase: flat[n_bs + n_ps..].to_vec(),
        })
    }

    /// Root-mean-square distance to another error vector of the same shape,
    /// reported per error family. Used to score calibration quality.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn rmse(&self, other: &ErrorVector) -> ErrorRmse {
        assert_eq!(self.gamma.len(), other.gamma.len());
        assert_eq!(self.attenuation.len(), other.attenuation.len());
        fn rms(a: &[f64], b: &[f64]) -> f64 {
            if a.is_empty() {
                return 0.0;
            }
            let s: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
            (s / a.len() as f64).sqrt()
        }
        ErrorRmse {
            gamma: rms(&self.gamma, &other.gamma),
            attenuation: rms(&self.attenuation, &other.attenuation),
            phase: rms(&self.phase, &other.phase),
        }
    }
}

/// Per-family RMS distances between two error assignments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorRmse {
    /// RMS over beam-splitter angle errors.
    pub gamma: f64,
    /// RMS over phase-shifter attenuations.
    pub attenuation: f64,
    /// RMS over phase-shifter phase offsets.
    pub phase: f64,
}

/// Sequential reader over an [`ErrorVector`], consumed by circuit builders
/// while instantiating components in netlist order.
#[derive(Debug)]
pub struct ErrorCursor<'a> {
    errors: &'a ErrorVector,
    next_bs: usize,
    next_ps: usize,
}

impl<'a> ErrorCursor<'a> {
    /// Starts reading `errors` from the beginning.
    pub fn new(errors: &'a ErrorVector) -> Self {
        ErrorCursor {
            errors,
            next_bs: 0,
            next_ps: 0,
        }
    }

    /// Takes the next beam-splitter angle error.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorVectorError::GammaExhausted`] when the error vector
    /// has fewer beam-splitter slots than the circuit being built.
    pub fn next_gamma(&mut self) -> Result<f64, ErrorVectorError> {
        let g = *self
            .errors
            .gamma
            .get(self.next_bs)
            .ok_or(ErrorVectorError::GammaExhausted {
                available: self.errors.n_beam_splitters(),
            })?;
        self.next_bs += 1;
        Ok(g)
    }

    /// Takes the next phase-shifter error as a complex factor `ζ`.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorVectorError::ZetaExhausted`] when the error vector
    /// has fewer phase-shifter slots than the circuit being built.
    pub fn next_zeta(&mut self) -> Result<C64, ErrorVectorError> {
        if self.next_ps >= self.errors.n_phase_shifters() {
            return Err(ErrorVectorError::ZetaExhausted {
                available: self.errors.n_phase_shifters(),
            });
        }
        let z = zeta_from_parts(
            self.errors.attenuation[self.next_ps],
            self.errors.phase[self.next_ps],
        );
        self.next_ps += 1;
        Ok(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn beta_scaling() {
        let m = ErrorModel::with_beta(2.0);
        assert!((m.sigma_gamma - 2e-2).abs() < 1e-15);
        assert!((m.sigma_zeta_r - 2e-3).abs() < 1e-15);
        assert!((m.sigma_zeta_a - 2e-1).abs() < 1e-15);
        assert_eq!(ErrorModel::default(), ErrorModel::with_beta(1.0));
    }

    #[test]
    fn ideal_model_samples_zero() {
        let m = ErrorModel::ideal();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(m.sample_gamma(&mut rng), 0.0);
        let (a, p) = m.sample_zeta_parts(&mut rng);
        assert_eq!(a, 0.0);
        assert_eq!(p, 0.0);
        let z = zeta_from_parts(a, p);
        assert!((z - C64::ONE).abs() < 1e-15);
    }

    #[test]
    fn sampled_errors_respect_scales() {
        let m = ErrorModel::with_beta(1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let ev = ErrorVector::sample(500, 500, &m, &mut rng);
        let gamma_rms =
            (ev.gamma.iter().map(|g| g * g).sum::<f64>() / ev.gamma.len() as f64).sqrt();
        assert!(
            (gamma_rms - m.sigma_gamma).abs() < 0.3 * m.sigma_gamma,
            "gamma rms {gamma_rms}"
        );
        // attenuation in [0, σ_ζ,r); phase in [-σ_ζ,a, σ_ζ,a).
        assert!(ev
            .attenuation
            .iter()
            .all(|&a| (0.0..m.sigma_zeta_r).contains(&a)));
        assert!(ev
            .phase
            .iter()
            .all(|&p| p >= -m.sigma_zeta_a && p < m.sigma_zeta_a));
        // |ζ| ≤ 1 always.
        for (&a, &p) in ev.attenuation.iter().zip(&ev.phase) {
            assert!(zeta_from_parts(a, p).abs() <= 1.0 + 1e-15);
        }
    }

    #[test]
    fn flat_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let ev = ErrorVector::sample(4, 6, &ErrorModel::with_beta(1.0), &mut rng);
        let flat = ev.to_flat();
        assert_eq!(flat.len(), 4 + 12);
        let back = ErrorVector::from_flat(4, 6, &flat).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn from_flat_rejects_bad_length() {
        let err = ErrorVector::from_flat(2, 2, &[0.0; 5]).unwrap_err();
        assert_eq!(
            err,
            ErrorVectorError::FlatLengthMismatch {
                expected: 6,
                found: 5
            }
        );
        assert!(err.to_string().contains("length mismatch"));
    }

    #[test]
    fn cursor_over_consumption_is_an_error() {
        let ev = ErrorVector::zeros(1, 1);
        let mut cur = ErrorCursor::new(&ev);
        assert!(cur.next_gamma().is_ok());
        assert!(cur.next_zeta().is_ok());
        assert_eq!(
            cur.next_gamma().unwrap_err(),
            ErrorVectorError::GammaExhausted { available: 1 }
        );
        assert_eq!(
            cur.next_zeta().unwrap_err(),
            ErrorVectorError::ZetaExhausted { available: 1 }
        );
    }

    #[test]
    fn rmse_zero_for_identical() {
        let mut rng = StdRng::seed_from_u64(9);
        let ev = ErrorVector::sample(3, 3, &ErrorModel::with_beta(1.0), &mut rng);
        let r = ev.rmse(&ev);
        assert_eq!(r.gamma, 0.0);
        assert_eq!(r.attenuation, 0.0);
        assert_eq!(r.phase, 0.0);
    }

    #[test]
    fn rmse_measures_distance() {
        let a = ErrorVector::zeros(2, 1);
        let mut b = a.clone();
        b.gamma[0] = 0.3;
        b.gamma[1] = -0.3;
        b.phase[0] = 0.1;
        let r = a.rmse(&b);
        assert!((r.gamma - 0.3).abs() < 1e-12);
        assert!((r.phase - 0.1).abs() < 1e-12);
        assert_eq!(r.attenuation, 0.0);
    }

    #[test]
    fn cursor_walks_in_order() {
        let ev = ErrorVector {
            gamma: vec![0.1, 0.2],
            attenuation: vec![0.01],
            phase: vec![0.5],
        };
        let mut cur = ErrorCursor::new(&ev);
        assert_eq!(cur.next_gamma().unwrap(), 0.1);
        let z = cur.next_zeta().unwrap();
        assert!((z.abs() - 0.99).abs() < 1e-12);
        assert!((z.arg() - 0.5).abs() < 1e-12);
        assert_eq!(cur.next_gamma().unwrap(), 0.2);
    }

    #[test]
    fn empty_error_vector() {
        let ev = ErrorVector::zeros(0, 0);
        assert!(ev.is_empty());
        assert_eq!(ev.len(), 0);
        assert_eq!(ev.to_flat().len(), 0);
    }
}
