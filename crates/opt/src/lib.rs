//! # photon-opt
//!
//! Optimizers for black-box ONN training:
//!
//! - the first-order update rule [`Adam`], fed by exact or surrogate
//!   gradients;
//! - the vanilla zeroth-order estimator ([`estimate_gradient`]) with
//!   Gaussian / Bernoulli / coordinate-wise / covariance-shaped probes;
//! - **the paper's contribution**: the linear combination natural gradient
//!   ([`lcng_direction`]) — a subspace Newton/natural step whose first-order
//!   term comes from chip measurements and whose curvature comes from a
//!   (calibrated) software model's Fisher metric;
//! - an optional retry → reject → re-read ladder ([`RobustEval`]) for
//!   faulty chip readouts, shared by both estimators;
//! - block natural-gradient preconditioning and layered covariance shaping
//!   ([`BlockNaturalPreconditioner`], [`layered_sigma_segments`]) for the
//!   ablation grid;
//! - a from-scratch [`CmaEs`] baseline;
//! - a log-uniform [`random_search`] tuner standing in for Optuna.
//!
//! Both estimators evaluate their probes on a
//! [`photon_exec::ExecPool`]; `ExecPool::serial()` runs them inline on the
//! caller's thread, and every pool size gives bitwise-identical results.
//!
//! # Examples
//!
//! Estimate a ZO gradient for a two-parameter toy loss:
//!
//! ```
//! use rand::SeedableRng;
//! use photon_exec::ExecPool;
//! use photon_linalg::RVector;
//! use photon_opt::{estimate_gradient, Perturbation, ZoSettings};
//!
//! let loss = |t: &RVector| (t[0] - 1.0).powi(2) + t[1] * t[1];
//! let theta = RVector::zeros(2);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let base = loss(&theta);
//! let (est, _) = estimate_gradient(
//!     &loss, &theta, base,
//!     &ZoSettings { q: 500, mu: 1e-5, lambda: 1.0 },
//!     &Perturbation::Gaussian, None, &ExecPool::serial(), &mut rng,
//! );
//! assert!(est.gradient[0] < 0.0); // points downhill toward θ₀ = 1
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cmaes;
mod first_order;
mod lcng;
mod natural;
mod robust;
mod tuning;
mod zo;

pub use cmaes::{penalize_non_finite, CmaEs, CmaEsState};
pub use first_order::{Adam, AdamState};
pub use lcng::{lcng_direction, LcngSettings, LcngStep, MetricSource};
pub use natural::{layered_sigma_segments, sigma_from_fisher, BlockNaturalPreconditioner};
pub use robust::{retry_non_finite, RobustEval, RobustStats};
pub use tuning::{random_search, tune, LogUniform, Trial};
pub use zo::{draw_perturbation, estimate_gradient, Perturbation, ZoEstimate, ZoSettings};
