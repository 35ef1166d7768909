//! Damped Gauss-Newton (Levenberg-Marquardt) nonlinear least squares with a
//! forward-difference Jacobian.
//!
//! The calibrator fits the error vector of a software model to chip
//! measurements; the residual function is a cheap white-box model
//! evaluation, so finite differences cost no chip queries. The loop keeps
//! the Jacobian transposed (`n × m`, one contiguous row per parameter): the
//! dual Gram `JJᵀ` is then [`RMatrix::gram`] of it and both `Jᵀ·v`
//! products are plain row dot products.

use photon_linalg::{LinalgError, RCholesky, RMatrix, RVector};

/// Forward-difference step for the Jacobian.
const FD_STEP: f64 = 1e-6;
/// Initial damping λ.
const LAMBDA_INIT: f64 = 1e-3;
/// Damping multiplier on a rejected step.
const LAMBDA_UP: f64 = 10.0;
/// Damping divisor on an accepted step.
const LAMBDA_DOWN: f64 = 10.0;
/// Stop when the relative cost improvement falls below this.
const TOL: f64 = 1e-10;

/// Levenberg-Marquardt settings: callers choose only the iteration budget.
/// The forward-difference step (1e-6), the damping schedule (λ₀ = 1e-3,
/// ×10 after a rejected step, ÷10 after an accepted one) and the stopping
/// tolerance (relative cost gain below 1e-10) are fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmSettings {
    /// Maximum outer iterations.
    pub max_iters: usize,
}

impl Default for LmSettings {
    fn default() -> Self {
        LmSettings { max_iters: 30 }
    }
}

/// Result of a Levenberg-Marquardt run.
#[derive(Debug, Clone)]
pub struct LmResult {
    /// The fitted parameter vector.
    pub params: RVector,
    /// Final cost `‖r‖²`.
    pub cost: f64,
    /// Initial cost `‖r(x₀)‖²`.
    pub initial_cost: f64,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Whether the tolerance criterion stopped the run (vs the iteration
    /// budget).
    pub converged: bool,
}

/// A nonlinear least-squares problem for the Levenberg-Marquardt loop: its
/// residuals and the Jacobian the loop linearizes them with.
pub(crate) trait LeastSquares {
    /// The residual vector `r(x)`.
    fn residual(&mut self, x: &RVector) -> RVector;

    /// The transposed forward-difference Jacobian `Jᵀ` (`n × m`) at `x`,
    /// given `r = r(x)`: row `k` is `(r(x + step·e_k) − r) / step`.
    ///
    /// The default evaluates one full residual per parameter; a problem
    /// that can produce the nudged residuals more cheaply overrides it and
    /// must return the same bits.
    fn jacobian_t(&mut self, x: &RVector, r: &RVector, step: f64) -> RMatrix {
        let mut jt = RMatrix::zeros(x.len(), r.len());
        for k in 0..x.len() {
            let mut xp = x.clone();
            xp[k] += step;
            let rp = self.residual(&xp);
            for ((j, &a), &b) in jt.row_mut(k).iter_mut().zip(rp.iter()).zip(r.iter()) {
                *j = (a - b) / step;
            }
        }
        jt
    }
}

impl<F: FnMut(&RVector) -> RVector + ?Sized> LeastSquares for F {
    fn residual(&mut self, x: &RVector) -> RVector {
        self(x)
    }
}

/// Minimizes `‖r(x)‖²` starting from `init`, with a forward-difference
/// Jacobian of `residual`.
///
/// # Errors
///
/// Propagates factorization failures of the damped normal equations (does
/// not occur for positive damping).
///
/// # Examples
///
/// ```
/// use photon_linalg::RVector;
/// use photon_calib::{levenberg_marquardt, LmSettings};
///
/// // Fit y = a·x + b to three points on y = 2x + 1.
/// let xs = [0.0, 1.0, 2.0];
/// let ys = [1.0, 3.0, 5.0];
/// let mut residual = |p: &RVector| {
///     RVector::from_fn(3, |i| p[0] * xs[i] + p[1] - ys[i])
/// };
/// let fit = levenberg_marquardt(&mut residual, &RVector::zeros(2),
///                               &LmSettings::default())?;
/// assert!((fit.params[0] - 2.0).abs() < 1e-6);
/// assert!((fit.params[1] - 1.0).abs() < 1e-6);
/// # Ok::<(), photon_linalg::LinalgError>(())
/// ```
pub fn levenberg_marquardt(
    residual: &mut dyn FnMut(&RVector) -> RVector,
    init: &RVector,
    settings: &LmSettings,
) -> Result<LmResult, LinalgError> {
    solve(residual, init, settings)
}

/// The Levenberg-Marquardt loop behind [`levenberg_marquardt`], on any
/// [`LeastSquares`] problem.
pub(crate) fn solve<P: LeastSquares + ?Sized>(
    problem: &mut P,
    init: &RVector,
    settings: &LmSettings,
) -> Result<LmResult, LinalgError> {
    let n = init.len();
    let mut x = init.clone();
    let mut r = problem.residual(&x);
    let mut cost = r.norm_sqr();
    let initial_cost = cost;
    let mut lambda = LAMBDA_INIT;
    let mut converged = false;
    let mut iterations = 0;

    for _ in 0..settings.max_iters {
        iterations += 1;
        let jt = problem.jacobian_t(&x, &r, FD_STEP);
        // For over-parameterized fits (m < n, the common calibration case)
        // solve in the m-dimensional residual space via the push-through
        // identity (JᵀJ + λI)⁻¹Jᵀ = Jᵀ(JJᵀ + λI)⁻¹ — the factorization
        // drops from O(n³) to O(m³). The dual Gram JJᵀ is the Gram of Jᵀ's
        // columns; the primal JᵀJ needs J itself, one transposed copy.
        let dual = r.len() < n;
        let (gram, jtr) = if dual {
            (jt.gram(), RVector::zeros(0))
        } else {
            (jt.transpose().gram(), jt.mul_vec(&r)?)
        };

        // Inner damping loop: grow λ until a step is accepted.
        let mut accepted = false;
        for _ in 0..12 {
            let dim = gram.rows();
            let mut a = gram.clone();
            a.add_diagonal(lambda * (gram.trace()? / dim as f64).max(1e-12));
            let chol = match RCholesky::new(&a) {
                Ok(c) => c,
                Err(_) => {
                    lambda *= LAMBDA_UP;
                    continue;
                }
            };
            let delta = if dual {
                let z = chol.solve(&r)?;
                jt.mul_vec(&z)?
            } else {
                chol.solve(&jtr)?
            };
            let mut trial = x.clone();
            trial.axpy(-1.0, &delta);
            let r_trial = problem.residual(&trial);
            let cost_trial = r_trial.norm_sqr();
            if cost_trial < cost {
                let rel_gain = (cost - cost_trial) / cost.max(1e-300);
                x = trial;
                r = r_trial;
                cost = cost_trial;
                lambda = (lambda / LAMBDA_DOWN).max(1e-12);
                accepted = true;
                if rel_gain < TOL {
                    converged = true;
                }
                break;
            }
            lambda *= LAMBDA_UP;
        }
        if !accepted {
            converged = true; // damping saturated: local optimum
            break;
        }
        if converged {
            break;
        }
    }

    Ok(LmResult {
        params: x,
        cost,
        initial_cost,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_exact() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 2.5, 4.0, 5.5]; // y = 1.5x + 1
        let mut res = |p: &RVector| RVector::from_fn(4, |i| p[0] * xs[i] + p[1] - ys[i]);
        let fit =
            levenberg_marquardt(&mut res, &RVector::zeros(2), &LmSettings::default()).unwrap();
        assert!((fit.params[0] - 1.5).abs() < 1e-7);
        assert!((fit.params[1] - 1.0).abs() < 1e-7);
        assert!(fit.cost < 1e-12);
        assert!(fit.cost <= fit.initial_cost);
    }

    #[test]
    fn nonlinear_exponential_fit() {
        // y = exp(k·x) with k = 0.7.
        let xs: Vec<f64> = (0..10).map(|i| i as f64 * 0.3).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| (0.7 * x).exp()).collect();
        let xs2 = xs.clone();
        let mut res =
            move |p: &RVector| RVector::from_fn(xs2.len(), |i| (p[0] * xs2[i]).exp() - ys[i]);
        let fit = levenberg_marquardt(
            &mut res,
            &RVector::from_slice(&[0.1]),
            &LmSettings::default(),
        )
        .unwrap();
        assert!((fit.params[0] - 0.7).abs() < 1e-5, "k = {}", fit.params[0]);
    }

    #[test]
    fn rosenbrock_as_least_squares() {
        // r = (1−x, 10(y−x²)): the classic valley.
        let mut res =
            |p: &RVector| RVector::from_vec(vec![1.0 - p[0], 10.0 * (p[1] - p[0] * p[0])]);
        let settings = LmSettings { max_iters: 200 };
        let fit =
            levenberg_marquardt(&mut res, &RVector::from_slice(&[-1.2, 1.0]), &settings).unwrap();
        assert!(fit.cost < 1e-10, "cost {}", fit.cost);
        assert!((fit.params[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn zero_residual_start_terminates_quickly() {
        let mut res = |p: &RVector| p.clone();
        let fit =
            levenberg_marquardt(&mut res, &RVector::zeros(3), &LmSettings::default()).unwrap();
        assert!(fit.cost < 1e-30);
        assert!(fit.iterations <= 2);
    }

    #[test]
    fn dual_and_primal_normal_equations_agree() {
        // (JᵀJ + cI)⁻¹Jᵀr = Jᵀ(JJᵀ + cI)⁻¹r for the same scalar c.
        use photon_linalg::RMatrix;
        let j = RMatrix::from_rows(&[vec![1.0, 2.0, 0.5, -1.0], vec![0.0, 1.0, 3.0, 0.25]]);
        let r = RVector::from_slice(&[1.0, -2.0]);
        let c = 0.3;

        let mut primal = j.gram();
        primal.add_diagonal(c);
        let jtr = j.transpose_mul_vec(&r).unwrap();
        let d_primal = primal.solve(&jtr).unwrap();

        let mut dual = j.transpose().gram();
        dual.add_diagonal(c);
        let z = dual.solve(&r).unwrap();
        let d_dual = j.transpose_mul_vec(&z).unwrap();

        assert!((&d_primal - &d_dual).max_abs() < 1e-10);
    }

    #[test]
    fn wide_problem_converges_via_dual_path() {
        // 12 parameters, 4 residuals: the calibration regime. The dual
        // route must still drive the residual to zero.
        // Full-row-rank design matrix from a quadratic phase (a pure
        // linear phase would make the rows span only a 2-D space).
        let mut res = |p: &RVector| {
            RVector::from_fn(4, |i| {
                let mut acc = -((i + 1) as f64);
                for k in 0..12 {
                    let phase = (i * i * 7 + i * k * 3 + k * k) as f64 * 0.37;
                    acc += p[k] * phase.sin();
                }
                acc
            })
        };
        let fit =
            levenberg_marquardt(&mut res, &RVector::zeros(12), &LmSettings::default()).unwrap();
        assert!(fit.cost < 1e-10, "cost {}", fit.cost);
    }

    #[test]
    fn overparameterized_problem_is_damped_not_divergent() {
        // Two parameters, one residual: infinitely many optima; LM must
        // still settle on one with near-zero cost.
        let mut res = |p: &RVector| RVector::from_vec(vec![p[0] + p[1] - 1.0]);
        let fit =
            levenberg_marquardt(&mut res, &RVector::zeros(2), &LmSettings::default()).unwrap();
        assert!(fit.cost < 1e-12);
        assert!(fit.params.iter().all(|v| v.is_finite()));
    }
}
