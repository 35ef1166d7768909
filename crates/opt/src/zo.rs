//! Zeroth-order gradient estimation: the black-box workhorse.
//!
//! Given only loss evaluations `ℓ(θ)` (chip queries), the estimator probes
//! `Q` random directions and forms
//!
//! ```text
//! ĝ = (λ/Q) Σ_q δℓ_q · δθ_q,    δℓ_q = [ℓ(θ + μ·δθ_q) − ℓ(θ)] / μ
//! ```
//!
//! Perturbation families: Gaussian (`N(0, I)`), Bernoulli sign vectors,
//! coordinate-wise one-hot probes, and covariance-shaped Gaussian draws
//! (used by the layered-perturbation extension).
//!
//! [`estimate_gradient`] and [`lcng_direction`](crate::lcng_direction)
//! share one draw → measure → combine pipeline. The measure stage draws all
//! `Q` directions up front, builds each probe point (sparsely for one-hot
//! probes), and evaluates the probes on an [`ExecPool`] — a plain sweep, or
//! the retry → reject → re-read ladder of [`RobustEval`] when the caller
//! passes one. The estimators differ only in how they combine the measured
//! quotients.
//!
//! The loss closure is opaque to the estimator; in the training loop it is
//! `chip_batch_loss`, which evaluates each probe's batch through the
//! compiled batched chip path (one cached-unitary GEMM per block), so the
//! per-probe cost is `O(ops·N) + O(N²·B)` rather than `O(ops·B)`.

use photon_exec::ExecPool;
use rand::Rng;

use photon_linalg::random::{normal_rvector, sample_gaussian};
use photon_linalg::{RCholesky, RVector};

use crate::robust::{median, retry_non_finite, RobustEval, RobustStats};

/// Hyperparameters of the finite-difference ZO estimator.
///
/// The defaults follow the research line: `Q = K` (set by the caller),
/// `λ = 1/N`, `μ = 0.001/√N`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoSettings {
    /// Number of probe directions per estimate.
    pub q: usize,
    /// Finite-difference smoothing step `μ`.
    pub mu: f64,
    /// Estimate scale `λ`.
    pub lambda: f64,
}

impl ZoSettings {
    /// The paper-line defaults for a network with `n` parameters and `q`
    /// probes: `μ = 0.001/√N`, `λ = 1/N`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `q == 0`.
    pub fn for_dimension(n: usize, q: usize) -> Self {
        assert!(n > 0, "parameter count must be positive");
        assert!(q > 0, "need at least one probe direction");
        ZoSettings {
            q,
            mu: 1e-3 / (n as f64).sqrt(),
            lambda: 1.0 / n as f64,
        }
    }
}

/// How probe directions are drawn.
#[derive(Debug)]
pub enum Perturbation<'a> {
    /// `δθ_q ~ N(0, I_N)` — the conventional choice.
    Gaussian,
    /// Independent `±1` signs (Bernoulli / Rademacher probing).
    Bernoulli,
    /// One-hot coordinate probes cycling through the coordinates starting
    /// at the given offset.
    Coordinate {
        /// First coordinate to probe this round.
        offset: usize,
    },
    /// Covariance-shaped Gaussian `δθ ~ N(0, Σ)` given per-segment Cholesky
    /// factors `(start index, factor)`; unlisted coordinates use `N(0, 1)`.
    Shaped {
        /// `(start, L)` pairs: coordinates `start..start+L.dim()` are drawn
        /// jointly from `N(0, L·Lᵀ)`.
        segments: &'a [(usize, RCholesky)],
    },
}

impl Perturbation<'_> {
    /// When probe `index` of an `n`-dimensional draw is a one-hot basis
    /// vector, the coordinate it perturbs; `None` for dense families.
    ///
    /// Dense probe construction (`probe = θ + μ·δ`) touches every
    /// coordinate with a `+ μ·0.0`, which both wastes `O(N)` flops per
    /// probe and perturbs the bit pattern of negative-zero phases. Routing
    /// one-hot probes through this index instead writes the single
    /// perturbed coordinate and leaves the rest bitwise equal to `θ` — the
    /// sparse-diff shape the chip's pinned compile base serves with an
    /// `O(N²)` rank-1 update instead of a full mesh recompile.
    pub fn one_hot_index(&self, n: usize, index: usize) -> Option<usize> {
        match self {
            Perturbation::Coordinate { offset } => Some((offset + index) % n),
            _ => None,
        }
    }
}

/// Draws one probe direction of dimension `n`.
pub fn draw_perturbation<R: Rng + ?Sized>(
    pert: &Perturbation<'_>,
    n: usize,
    index: usize,
    rng: &mut R,
) -> RVector {
    match pert {
        Perturbation::Gaussian => normal_rvector(n, rng),
        Perturbation::Bernoulli => {
            RVector::from_fn(n, |_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        }
        Perturbation::Coordinate { offset } => RVector::basis(n, (offset + index) % n),
        Perturbation::Shaped { segments } => {
            let mut v = normal_rvector(n, rng);
            for (start, chol) in segments.iter() {
                let shaped =
                    sample_gaussian(chol, rng).expect("cholesky dimension fixed at construction");
                v.set_subvector(*start, &shaped);
            }
            v
        }
    }
}

/// One ZO gradient estimate together with its probe bookkeeping.
#[derive(Debug, Clone)]
pub struct ZoEstimate {
    /// The gradient estimate `ĝ`.
    pub gradient: RVector,
    /// The probe directions used (column-wise `P`).
    pub directions: Vec<RVector>,
    /// The measured difference quotients `δℓ_q`.
    pub quotients: Vec<f64>,
    /// Loss-oracle calls consumed (`Q` probes; the base loss is passed in).
    pub queries: usize,
}

/// Estimates `∇ℓ(θ)` from loss evaluations only.
///
/// `base_loss` must be `ℓ(θ)` (measured by the caller so it can be shared
/// across estimators); `loss` is charged once per probe, plus whatever
/// re-reads the `robust` ladder spends (see [`RobustEval`]). With `robust`
/// set, `base_loss` must already be finite. The `Q` probe losses are
/// evaluated on `pool`; [`ExecPool::serial`] runs them inline.
///
/// All probe directions are drawn from `rng` before any loss evaluation and
/// the estimate is assembled in probe order, so for a deterministic `loss`
/// the result is bitwise identical for every pool size.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use photon_exec::ExecPool;
/// use photon_linalg::RVector;
/// use photon_opt::{estimate_gradient, Perturbation, ZoSettings};
///
/// // ℓ(θ) = ‖θ‖²: the true gradient at θ=(1,0) is (2,0).
/// let loss = |t: &RVector| t.norm_sqr();
/// let theta = RVector::from_slice(&[1.0, 0.0]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let settings = ZoSettings { q: 2000, mu: 1e-4, lambda: 1.0 };
/// let (est, _) = estimate_gradient(&loss, &theta, theta.norm_sqr(), &settings,
///                                  &Perturbation::Gaussian, None,
///                                  &ExecPool::serial(), &mut rng);
/// assert_eq!(est.queries, 2000);
/// assert!((est.gradient[0] - 2.0).abs() < 0.2);
/// ```
#[allow(clippy::too_many_arguments)] // the measure stage's inputs plus the ladder and the pool
pub fn estimate_gradient<R: Rng + ?Sized>(
    loss: &(dyn Fn(&RVector) -> f64 + Sync),
    theta: &RVector,
    base_loss: f64,
    settings: &ZoSettings,
    pert: &Perturbation<'_>,
    robust: Option<&RobustEval>,
    pool: &ExecPool,
    rng: &mut R,
) -> (ZoEstimate, RobustStats) {
    let (directions, quotients, stats) =
        measure(loss, theta, base_loss, settings, pert, robust, pool, rng);
    let mut gradient = RVector::zeros(theta.len());
    for (dl, delta) in quotients.iter().zip(&directions) {
        gradient.axpy(*dl, delta);
    }
    gradient = gradient.scale(settings.lambda / settings.q as f64);
    let estimate = ZoEstimate {
        gradient,
        directions,
        quotients,
        queries: settings.q,
    };
    (estimate, stats)
}

/// The measure stage of every estimator: draws the `Q` probe directions
/// from `rng` in index order, then measures their difference quotients on
/// `pool` — one plain sweep, or with `robust` the retry → reject → re-read
/// ladder. Results are index-ordered, so they do not depend on the pool
/// size.
#[allow(clippy::too_many_arguments)] // mirrors the public entry points
pub(crate) fn measure<R: Rng + ?Sized>(
    loss: &(dyn Fn(&RVector) -> f64 + Sync),
    theta: &RVector,
    base_loss: f64,
    settings: &ZoSettings,
    pert: &Perturbation<'_>,
    robust: Option<&RobustEval>,
    pool: &ExecPool,
    rng: &mut R,
) -> (Vec<RVector>, Vec<f64>, RobustStats) {
    let n = theta.len();
    let mu = settings.mu;
    let directions: Vec<RVector> = (0..settings.q)
        .map(|k| draw_perturbation(pert, n, k, rng))
        .collect();
    // Writes the probe point θ + μ·δθ_k. One-hot probes write only their
    // perturbed coordinate (see `Perturbation::one_hot_index`).
    let build_probe = |probe: &mut RVector, k: usize, delta: &RVector| {
        probe.copy_from(theta);
        match pert.one_hot_index(n, k) {
            Some(i) => probe.as_mut_slice()[i] = theta[i] + mu,
            None => probe.axpy(mu, delta),
        }
    };
    let max_retries = robust.map_or(0, |_| RobustEval::MAX_RETRIES);

    // Sweep every probe once; the ladder retries non-finite readings in
    // place.
    let sweep: Vec<(f64, u32)> = pool.map_with(
        &directions,
        || theta.clone(),
        |probe, k, delta| {
            build_probe(probe, k, delta);
            let (l, retries) = retry_non_finite(loss, probe, max_retries);
            ((l - base_loss) / mu, retries)
        },
    );
    let mut quotients: Vec<f64> = sweep.iter().map(|&(q, _)| q).collect();
    let mut stats = RobustStats {
        retries: sweep.iter().map(|&(_, r)| u64::from(r)).sum(),
        ..RobustStats::default()
    };
    let Some(robust) = robust else {
        return (directions, quotients, stats);
    };

    // Reject: re-read every flagged probe `REREADS` times and take the
    // median of the finite readings.
    let flagged = robust.flag_outliers(&quotients);
    if flagged.is_empty() {
        return (directions, quotients, stats);
    }
    stats.rejected = flagged.len() as u64;
    let replacements: Vec<f64> = pool.map_subset(
        &directions,
        &flagged,
        || theta.clone(),
        |probe, k, delta| {
            build_probe(probe, k, delta);
            let readings: Vec<f64> = (0..RobustEval::REREADS)
                .filter_map(|_| {
                    let (l, _) = retry_non_finite(loss, probe, RobustEval::MAX_RETRIES);
                    l.is_finite().then(|| (l - base_loss) / mu)
                })
                .collect();
            if readings.is_empty() {
                f64::NAN
            } else {
                median(&readings)
            }
        },
    );
    for (&i, &q) in flagged.iter().zip(&replacements) {
        if q.is_finite() {
            quotients[i] = q;
        } else {
            // The probe is lost; a zero quotient removes it from the
            // estimate without poisoning the rest.
            quotients[i] = 0.0;
            stats.unrecovered += 1;
        }
    }
    (directions, quotients, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quadratic(theta: &RVector) -> f64 {
        // ℓ(θ) = Σ wᵢ θᵢ² with distinct curvatures.
        theta
            .iter()
            .enumerate()
            .map(|(i, t)| (i + 1) as f64 * t * t)
            .sum()
    }

    #[test]
    fn gaussian_estimate_aligns_with_true_gradient() {
        let theta = RVector::from_slice(&[1.0, -1.0, 0.5]);
        let true_grad = RVector::from_slice(&[2.0, -4.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let settings = ZoSettings {
            q: 4000,
            mu: 1e-5,
            lambda: 1.0,
        };
        let (est, _) = estimate_gradient(
            &quadratic,
            &theta,
            quadratic(&theta),
            &settings,
            &Perturbation::Gaussian,
            None,
            &ExecPool::serial(),
            &mut rng,
        );
        let cos = est.gradient.dot(&true_grad).unwrap() / (est.gradient.norm() * true_grad.norm());
        assert!(cos > 0.98, "cosine {cos}");
    }

    #[test]
    fn coordinate_probes_recover_exact_gradient() {
        // With μ→0 central... even forward differences on a quadratic are
        // exact up to O(μ); coordinate probing scaled by λ=1, Q=n touches
        // every coordinate once.
        let theta = RVector::from_slice(&[0.5, -0.25]);
        let mut rng = StdRng::seed_from_u64(2);
        let settings = ZoSettings {
            q: 2,
            mu: 1e-7,
            lambda: 2.0, // λ/Q · Σ e_i δℓ_i = (2/2)·[δℓ_0, δℓ_1]
        };
        let (est, _) = estimate_gradient(
            &quadratic,
            &theta,
            quadratic(&theta),
            &settings,
            &Perturbation::Coordinate { offset: 0 },
            None,
            &ExecPool::serial(),
            &mut rng,
        );
        assert!((est.gradient[0] - 1.0).abs() < 1e-4);
        assert!((est.gradient[1] + 1.0).abs() < 1e-4);
    }

    #[test]
    fn coordinate_offset_cycles() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = Perturbation::Coordinate { offset: 2 };
        let d0 = draw_perturbation(&p, 3, 0, &mut rng);
        let d1 = draw_perturbation(&p, 3, 1, &mut rng);
        assert_eq!(d0.as_slice(), &[0.0, 0.0, 1.0]);
        assert_eq!(d1.as_slice(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn bernoulli_directions_are_signs() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = draw_perturbation(&Perturbation::Bernoulli, 64, 0, &mut rng);
        assert!(d.iter().all(|&x| x == 1.0 || x == -1.0));
        // Not all the same sign (overwhelming probability).
        assert!(d.iter().any(|&x| x == 1.0) && d.iter().any(|&x| x == -1.0));
    }

    #[test]
    fn shaped_perturbations_follow_covariance() {
        use photon_linalg::RMatrix;
        let sigma = RMatrix::from_rows(&[vec![4.0, 0.0], vec![0.0, 0.25]]);
        let chol = RCholesky::new(&sigma).unwrap();
        let segments = [(1usize, chol)];
        let p = Perturbation::Shaped {
            segments: &segments,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let n = 4000;
        let (mut var1, mut var2) = (0.0, 0.0);
        for _ in 0..n {
            let d = draw_perturbation(&p, 4, 0, &mut rng);
            var1 += d[1] * d[1];
            var2 += d[2] * d[2];
        }
        var1 /= n as f64;
        var2 /= n as f64;
        assert!((var1 - 4.0).abs() < 0.4, "var1 {var1}");
        assert!((var2 - 0.25).abs() < 0.05, "var2 {var2}");
    }

    #[test]
    fn query_accounting() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let loss = |t: &RVector| {
            count.fetch_add(1, Ordering::Relaxed);
            t.norm_sqr()
        };
        let theta = RVector::zeros(3);
        let mut rng = StdRng::seed_from_u64(6);
        let settings = ZoSettings::for_dimension(3, 7);
        let (est, stats) = estimate_gradient(
            &loss,
            &theta,
            0.0,
            &settings,
            &Perturbation::Gaussian,
            None,
            &ExecPool::new(3),
            &mut rng,
        );
        assert_eq!(est.queries, 7);
        assert_eq!(count.load(Ordering::Relaxed), 7);
        assert_eq!(stats, RobustStats::default());
        assert_eq!(est.directions.len(), 7);
        assert_eq!(est.quotients.len(), 7);
    }

    #[test]
    fn estimate_is_bitwise_identical_across_pool_sizes() {
        let theta = RVector::from_slice(&[1.0, -1.0, 0.5, 0.25, -0.75, 2.0]);
        let settings = ZoSettings::for_dimension(6, 16);
        let estimate = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(21);
            let (est, _) = estimate_gradient(
                &quadratic,
                &theta,
                quadratic(&theta),
                &settings,
                &Perturbation::Gaussian,
                None,
                &ExecPool::new(threads),
                &mut rng,
            );
            est
        };
        let serial = estimate(1);
        for threads in [2usize, 4, 8] {
            let pooled = estimate(threads);
            for (a, b) in serial.gradient.iter().zip(pooled.gradient.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
            assert_eq!(serial.quotients, pooled.quotients);
        }
    }

    #[test]
    fn default_settings_scale_with_dimension() {
        let s = ZoSettings::for_dimension(100, 10);
        assert!((s.mu - 1e-4).abs() < 1e-12);
        assert!((s.lambda - 0.01).abs() < 1e-12);
    }
}
