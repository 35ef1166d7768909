//! The first-order parameter-update rule: Adam.
//!
//! These consume gradient *estimates* — exact backprop gradients in the
//! warm-start stage, ZO/LCNG surrogate gradients in the black-box stage.

use photon_linalg::RVector;

/// The Adam optimizer (Kingma & Ba, 2014) with bias correction.
///
/// # Examples
///
/// ```
/// use photon_linalg::RVector;
/// use photon_opt::Adam;
///
/// let mut opt = Adam::new(0.1);
/// let mut theta = RVector::zeros(2);
/// // A constant gradient moves θ by ≈ lr per step once bias-corrected.
/// opt.step(&mut theta, &RVector::from_slice(&[1.0, -1.0]));
/// assert!((theta[0] + 0.1).abs() < 1e-9);
/// assert!((theta[1] - 0.1).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    /// First- and second-moment estimates, `None` before the first step.
    moments: Option<(RVector, RVector)>,
    t: u64,
}

impl Adam {
    /// Adam with the standard moments `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics when `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        Adam::with_betas(lr, 0.9, 0.999, 1e-8)
    }

    /// Adam with explicit moment coefficients.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range hyperparameters.
    pub fn with_betas(lr: f64, beta1: f64, beta2: f64, eps: f64) -> Self {
        Adam::from_parts(lr, beta1, beta2, eps, None, 0).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Rebuilds an optimizer that has taken `t` steps from its
    /// hyperparameters and its first- and second-moment estimates (`None`
    /// before the first step); it continues that trajectory bit for bit.
    /// The run journal decodes Adam through it.
    ///
    /// # Errors
    ///
    /// Names the first out-of-range value: `lr` and `eps` must be
    /// positive, `beta1` and `beta2` in `[0, 1)`, and the two moments of
    /// one length.
    pub fn from_parts(
        lr: f64,
        beta1: f64,
        beta2: f64,
        eps: f64,
        moments: Option<(RVector, RVector)>,
        t: u64,
    ) -> Result<Self, &'static str> {
        let checks = [
            (lr > 0.0, "learning rate must be positive"),
            ((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)"),
            ((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)"),
            (eps > 0.0, "epsilon must be positive"),
            (
                moments.as_ref().is_none_or(|(m, v)| m.len() == v.len()),
                "moment estimates must have one length",
            ),
        ];
        if let Some(&(_, message)) = checks.iter().find(|(ok, _)| !ok) {
            return Err(message);
        }
        Ok(Adam {
            lr,
            beta1,
            beta2,
            eps,
            moments,
            t,
        })
    }

    /// The moment coefficients `(β₁, β₂)`.
    pub fn betas(&self) -> (f64, f64) {
        (self.beta1, self.beta2)
    }

    /// The denominator stabilizer `ε`.
    pub fn epsilon(&self) -> f64 {
        self.eps
    }

    /// Steps taken so far (they drive the bias correction).
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The first- and second-moment estimates, `None` before the first
    /// step.
    pub fn moments(&self) -> Option<(&RVector, &RVector)> {
        self.moments.as_ref().map(|(m, v)| (m, v))
    }
}

impl Adam {
    /// Applies one update `θ ← step(θ, ĝ)` in place given the gradient
    /// (estimate) `grad`.
    ///
    /// # Panics
    ///
    /// Panics when `grad.len() != theta.len()`.
    pub fn step(&mut self, theta: &mut RVector, grad: &RVector) {
        assert_eq!(theta.len(), grad.len(), "gradient length mismatch");
        let n = theta.len();
        let (m, v) = self
            .moments
            .get_or_insert_with(|| (RVector::zeros(n), RVector::zeros(n)));
        assert_eq!(m.len(), n, "optimizer state dimension changed");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..n {
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * grad[i];
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let m_hat = m[i] / b1t;
            let v_hat = v[i] / b2t;
            theta[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Overrides the learning rate (the recovery policy's backoff).
    pub fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize the quadratic ‖θ − t‖² with exact gradients.
    fn quadratic_descent(opt: &mut Adam, steps: usize) -> f64 {
        let target = RVector::from_slice(&[1.0, -2.0, 0.5]);
        let mut theta = RVector::zeros(3);
        for _ in 0..steps {
            let grad = (&theta - &target).scale(2.0);
            opt.step(&mut theta, &grad);
        }
        (&theta - &target).norm()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!(quadratic_descent(&mut opt, 500) < 1e-4);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut opt = Adam::new(0.01);
        let mut theta = RVector::zeros(1);
        opt.step(&mut theta, &RVector::from_slice(&[123.0]));
        // Bias correction makes the first step ≈ lr regardless of scale.
        assert!((theta[0].abs() - 0.01).abs() < 1e-6);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Adam::new(0.3);
        assert_eq!(opt.learning_rate(), 0.3);
        opt.set_learning_rate(0.7);
        assert_eq!(opt.learning_rate(), 0.7);
    }

    /// Rebuilds `opt` through its public parts, as the run journal does.
    fn rebuilt(opt: &Adam) -> Adam {
        let (beta1, beta2) = opt.betas();
        let moments = opt.moments().map(|(m, v)| (m.clone(), v.clone()));
        Adam::from_parts(
            opt.learning_rate(),
            beta1,
            beta2,
            opt.epsilon(),
            moments,
            opt.steps(),
        )
        .unwrap()
    }

    #[test]
    fn adam_rebuilt_from_parts_continues_bitwise() {
        let mut opt = Adam::new(0.05);
        assert_eq!(rebuilt(&opt), opt, "fresh optimizer");
        let mut theta = RVector::from_slice(&[0.3, -0.7, 1.1]);
        let grad = RVector::from_slice(&[0.4, 0.1, -0.9]);
        for _ in 0..5 {
            opt.step(&mut theta, &grad);
        }
        let mut restored = rebuilt(&opt);
        let mut theta_r = theta.clone();
        for _ in 0..5 {
            opt.step(&mut theta, &grad);
            restored.step(&mut theta_r, &grad);
        }
        let bits = |v: &RVector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&theta), bits(&theta_r));
        assert_eq!(opt, restored);
    }

    #[test]
    fn from_parts_rejects_out_of_range_values() {
        let ok = |lr, beta1, beta2, eps| Adam::from_parts(lr, beta1, beta2, eps, None, 0).is_ok();
        assert!(ok(0.01, 0.9, 0.999, 1e-8));
        assert!(!ok(-0.02, 0.9, 0.999, 1e-8));
        assert!(!ok(f64::NAN, 0.9, 0.999, 1e-8));
        assert!(!ok(0.01, 1.5, 0.999, 1e-8));
        assert!(!ok(0.01, 0.9, 1.0, 1e-8));
        assert!(!ok(0.01, 0.9, 0.999, 0.0));
        let uneven = Some((RVector::zeros(2), RVector::zeros(3)));
        assert!(Adam::from_parts(0.01, 0.9, 0.999, 1e-8, uneven, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lr_rejected() {
        let _ = Adam::new(0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn shape_mismatch_panics() {
        let mut opt = Adam::new(0.1);
        let mut theta = RVector::zeros(2);
        opt.step(&mut theta, &RVector::zeros(3));
    }
}
