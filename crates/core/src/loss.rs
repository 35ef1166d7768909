//! Losses over ONN outputs: the optical power-readout classification head.

use photon_linalg::{CVector, RVector};

/// The classification head of the evaluation pipeline: extract the central
/// `num_classes` output ports, read their optical powers, scale by the
/// detector gain, and apply softmax cross-entropy.
///
/// # Examples
///
/// ```
/// use photon_linalg::{C64, CVector};
/// use photon_core::ClassificationHead;
///
/// let head = ClassificationHead::new(16, 10, 10.0)?;
/// // The ten classes sit on the central ports 3..13. All power on port 6,
/// // the port of class 3 → class 3 wins.
/// let mut y = CVector::zeros(16);
/// y[6] = C64::ONE;
/// assert_eq!(head.predict(&y), 3);
/// assert!(head.loss(&y, 3) < head.loss(&y, 5));
/// # Ok::<(), photon_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassificationHead {
    output_dim: usize,
    num_classes: usize,
    offset: usize,
    gain: f64,
}

/// Errors raised by `photon-core` configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The network output has fewer ports than there are classes.
    HeadTooWide {
        /// Output ports available.
        output_dim: usize,
        /// Classes requested.
        num_classes: usize,
    },
    /// An invalid configuration value.
    InvalidConfig(String),
    /// A run-journal operation (create / append / replay) failed.
    Journal(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::HeadTooWide {
                output_dim,
                num_classes,
            } => write!(
                f,
                "cannot read {num_classes} classes from {output_dim} output ports"
            ),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::Journal(msg) => write!(f, "run journal: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl ClassificationHead {
    /// Creates a head reading `num_classes` central ports of an
    /// `output_dim`-port circuit with the given detector gain.
    ///
    /// # Errors
    ///
    /// [`CoreError::HeadTooWide`] when `num_classes > output_dim`;
    /// [`CoreError::InvalidConfig`] for a non-positive gain or zero classes.
    pub fn new(output_dim: usize, num_classes: usize, gain: f64) -> Result<Self, CoreError> {
        if num_classes == 0 {
            return Err(CoreError::InvalidConfig("need at least one class".into()));
        }
        if num_classes > output_dim {
            return Err(CoreError::HeadTooWide {
                output_dim,
                num_classes,
            });
        }
        if gain <= 0.0 {
            return Err(CoreError::InvalidConfig(
                "detector gain must be positive".into(),
            ));
        }
        Ok(ClassificationHead {
            output_dim,
            num_classes,
            offset: (output_dim - num_classes) / 2,
            gain,
        })
    }

    /// Number of classes read out.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Scaled power logits of the central ports.
    ///
    /// # Panics
    ///
    /// Panics when `y.len() != output_dim`.
    pub fn logits(&self, y: &CVector) -> RVector {
        assert_eq!(y.len(), self.output_dim, "output dimension mismatch");
        RVector::from_fn(self.num_classes, |c| {
            self.gain * y[self.offset + c].norm_sqr()
        })
    }

    /// Softmax probabilities over classes.
    pub fn probabilities(&self, y: &CVector) -> RVector {
        softmax(&self.logits(y))
    }

    /// Predicted class (argmax logit).
    pub fn predict(&self, y: &CVector) -> usize {
        self.logits(y)
            .argmax()
            .expect("head has at least one class")
    }

    /// Cross-entropy loss of one sample.
    ///
    /// A non-finite network output (e.g. a dropped chip read) yields
    /// `f64::INFINITY` rather than NaN, so downstream guards — the robust
    /// estimators, the trainer's divergence check — see a value that
    /// compares and propagates predictably instead of poisoning the LCNG
    /// normal equations.
    ///
    /// # Panics
    ///
    /// Panics when `label >= num_classes`.
    pub fn loss(&self, y: &CVector, label: usize) -> f64 {
        assert!(label < self.num_classes, "label out of range");
        if !y.iter().all(|z| z.re.is_finite() && z.im.is_finite()) {
            return f64::INFINITY;
        }
        let p = self.probabilities(y);
        -(p[label].max(1e-300)).ln()
    }

    /// Loss plus the Wirtinger output cotangent
    /// `g = ∂ℓ/∂Re(y) + j·∂ℓ/∂Im(y)`, suitable for `Network::vjp`.
    ///
    /// # Panics
    ///
    /// Panics when `label >= num_classes`.
    pub fn loss_and_grad(&self, y: &CVector, label: usize) -> (f64, CVector) {
        assert!(label < self.num_classes, "label out of range");
        let p = self.probabilities(y);
        let loss = -(p[label].max(1e-300)).ln();
        let mut g = CVector::zeros(self.output_dim);
        for c in 0..self.num_classes {
            let dl_dlogit = p[c] - if c == label { 1.0 } else { 0.0 };
            // logit = gain·|y|² ⇒ ∂logit/∂Re(y) = 2·gain·Re(y), likewise Im.
            let m = self.offset + c;
            g[m] = y[m].scale(2.0 * self.gain * dl_dlogit);
        }
        (loss, g)
    }
}

/// Numerically stable softmax.
pub fn softmax(logits: &RVector) -> RVector {
    let max = logits.max();
    let exps = RVector::from_fn(logits.len(), |i| (logits[i] - max).exp());
    let sum = exps.sum();
    exps.scale(1.0 / sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_linalg::C64;

    fn head() -> ClassificationHead {
        ClassificationHead::new(16, 10, 10.0).unwrap()
    }

    #[test]
    fn central_ports_are_selected() {
        let h = head();
        assert_eq!((h.offset, h.offset + 9), (3, 12));
        let exact = ClassificationHead::new(10, 10, 1.0).unwrap();
        assert_eq!(exact.offset, 0);
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(
            ClassificationHead::new(4, 10, 1.0),
            Err(CoreError::HeadTooWide { .. })
        ));
        assert!(ClassificationHead::new(10, 10, 0.0).is_err());
        assert!(ClassificationHead::new(10, 0, 1.0).is_err());
    }

    #[test]
    fn softmax_properties() {
        let s = softmax(&RVector::from_slice(&[1.0, 2.0, 3.0]));
        assert!((s.sum() - 1.0).abs() < 1e-12);
        assert!(s[2] > s[1] && s[1] > s[0]);
        // Stability with huge logits.
        let s2 = softmax(&RVector::from_slice(&[1e4, 1e4 + 1.0]));
        assert!(s2.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn loss_prefers_correct_class() {
        let h = head();
        let mut y = CVector::zeros(16);
        y[h.offset + 7] = C64::from_polar(1.0, 0.3);
        assert_eq!(h.predict(&y), 7);
        assert!(h.loss(&y, 7) < h.loss(&y, 2));
        let p = h.probabilities(&y);
        assert!((p.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn grad_matches_finite_difference() {
        let h = head();
        let mut y = CVector::zeros(16);
        for c in 0..16 {
            y[c] = C64::new(0.1 * (c as f64 + 1.0), -0.05 * c as f64);
        }
        let label = 4;
        let (_, g) = h.loss_and_grad(&y, label);
        let eps = 1e-6;
        for m in 0..16 {
            for part in 0..2 {
                let mut yp = y.clone();
                let mut ym = y.clone();
                if part == 0 {
                    yp[m] = yp[m] + eps;
                    ym[m] = ym[m] - eps;
                } else {
                    yp[m] += C64::new(0.0, eps);
                    ym[m] -= C64::new(0.0, eps);
                }
                let fd = (h.loss(&yp, label) - h.loss(&ym, label)) / (2.0 * eps);
                let analytic = if part == 0 { g[m].re } else { g[m].im };
                assert!(
                    (fd - analytic).abs() < 1e-6,
                    "port {m} part {part}: fd {fd} vs {analytic}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_panics() {
        let h = head();
        let _ = h.loss(&CVector::zeros(16), 10);
    }

    #[test]
    fn non_finite_output_yields_infinite_loss_not_nan() {
        let h = head();
        let mut y = CVector::zeros(16);
        y[3] = C64::new(f64::NAN, 0.0);
        assert_eq!(h.loss(&y, 0), f64::INFINITY);
        let mut y = CVector::zeros(16);
        y[7] = C64::new(0.0, f64::INFINITY);
        assert_eq!(h.loss(&y, 2), f64::INFINITY);
    }
}
