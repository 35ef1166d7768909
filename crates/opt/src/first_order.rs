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
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Option<RVector>,
    v: Option<RVector>,
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
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        assert!(eps > 0.0, "epsilon must be positive");
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            m: None,
            v: None,
            t: 0,
        }
    }
}

/// A serializable snapshot of an [`Adam`] optimizer's full state.
///
/// Captures both the hyperparameters and the moment estimates so a training
/// run can be checkpointed and resumed bitwise-identically. Produced by
/// [`Adam::snapshot`] and consumed by [`Adam::from_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay coefficient.
    pub beta1: f64,
    /// Second-moment decay coefficient.
    pub beta2: f64,
    /// Denominator stabilizer.
    pub eps: f64,
    /// First-moment estimate (`None` before the first step).
    pub m: Option<RVector>,
    /// Second-moment estimate (`None` before the first step).
    pub v: Option<RVector>,
    /// Number of steps taken (drives bias correction).
    pub t: u64,
}

impl Adam {
    /// Captures the optimizer's complete state for serialization.
    pub fn snapshot(&self) -> AdamState {
        AdamState {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            m: self.m.clone(),
            v: self.v.clone(),
            t: self.t,
        }
    }

    /// Reconstructs an optimizer from a snapshot; the result continues the
    /// original trajectory bitwise-identically.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range hyperparameters (same domain as
    /// [`Adam::with_betas`]).
    pub fn from_state(state: AdamState) -> Self {
        let mut opt = Adam::with_betas(state.lr, state.beta1, state.beta2, state.eps);
        opt.m = state.m;
        opt.v = state.v;
        opt.t = state.t;
        opt
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
        let m = self.m.get_or_insert_with(|| RVector::zeros(n));
        let v = self.v.get_or_insert_with(|| RVector::zeros(n));
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

    #[test]
    fn adam_snapshot_roundtrip_continues_bitwise() {
        let mut opt = Adam::new(0.05);
        let mut theta = RVector::from_slice(&[0.3, -0.7, 1.1]);
        let grad = RVector::from_slice(&[0.4, 0.1, -0.9]);
        for _ in 0..5 {
            opt.step(&mut theta, &grad);
        }
        let mut restored = Adam::from_state(opt.snapshot());
        let mut theta_r = theta.clone();
        for _ in 0..5 {
            opt.step(&mut theta, &grad);
            restored.step(&mut theta_r, &grad);
        }
        let bits = |v: &RVector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&theta), bits(&theta_r));
        assert_eq!(opt.snapshot(), restored.snapshot());
    }

    #[test]
    fn adam_snapshot_before_first_step_is_fresh() {
        let opt = Adam::new(0.01);
        let state = opt.snapshot();
        assert_eq!(state.t, 0);
        assert!(state.m.is_none() && state.v.is_none());
        let restored = Adam::from_state(state);
        assert_eq!(restored.snapshot(), opt.snapshot());
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
