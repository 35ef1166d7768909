//! The robust measurement ladder of the ZO estimators.
//!
//! Real chip readouts occasionally fail: a dropped read comes back NaN, an
//! outlier spike turns one difference quotient into garbage. Passing a
//! [`RobustEval`] to [`estimate_gradient`] or [`lcng_direction`] runs the
//! probe measurements through the ladder
//!
//! 1. **retry** — a non-finite loss reading is re-measured up to
//!    [`RobustEval::MAX_RETRIES`] times (each re-read is a fresh chip
//!    query);
//! 2. **reject** — difference quotients are screened by a median/MAD
//!    outlier test; flagged probes are re-measured
//!    [`RobustEval::REREADS`] times and replaced by the median of the
//!    finite re-reads;
//! 3. **zero** — a probe that stays non-finite after all of the above
//!    contributes a zero quotient (the probe is dropped from the estimate)
//!    and is counted as unrecovered.
//!
//! All decisions are functions of measured values only — never of thread
//! scheduling — so with a content-deterministic chip (see `photon-faults`)
//! the robust estimates stay bitwise identical across pool sizes. This
//! holds on the compiled batched loss path too: batch blocks are fixed-size
//! and index-ordered, so every re-measured loss reads the same content keys
//! regardless of pool size.
//!
//! [`estimate_gradient`]: crate::estimate_gradient
//! [`lcng_direction`]: crate::lcng_direction

use photon_linalg::RVector;

/// The robust measurement ladder. Its settings are constants: nothing in
/// the stack tunes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustEval;

impl RobustEval {
    /// Maximum immediate re-measurements of a non-finite loss reading.
    pub const MAX_RETRIES: u32 = 3;
    /// Outlier threshold in robust z-score units
    /// (`|q − median| > z·1.4826·MAD` flags the probe).
    pub const OUTLIER_ZSCORE: f64 = 6.0;
    /// Number of re-reads a flagged probe is replaced by the median of.
    pub const REREADS: usize = 3;

    /// The ladder: 3 retries, z = 6, median-of-3 re-reads.
    pub fn standard() -> Self {
        RobustEval
    }

    /// The ladder's median/MAD screen: indices of the quotients that are
    /// non-finite or lie more than [`Self::OUTLIER_ZSCORE`] robust standard
    /// deviations from the median of the finite ones (all of them when
    /// none is finite).
    pub(crate) fn flag_outliers(&self, quotients: &[f64]) -> Vec<usize> {
        let finite: Vec<f64> = quotients
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        if finite.is_empty() {
            return (0..quotients.len()).collect();
        }
        let med = median(&finite);
        let deviations: Vec<f64> = finite.iter().map(|v| (v - med).abs()).collect();
        // 1.4826·MAD ≈ σ for Gaussian data; the floor keeps a zero-spread
        // batch (e.g. a flat loss landscape) from flagging fp noise.
        let scale = (1.4826 * median(&deviations)).max(1e-9 * med.abs().max(1.0));
        quotients
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_finite() || (**v - med).abs() > Self::OUTLIER_ZSCORE * scale)
            .map(|(i, _)| i)
            .collect()
    }
}

/// What the robust ladder had to do during one estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RobustStats {
    /// Non-finite readings that were immediately re-measured.
    pub retries: u64,
    /// Probes flagged by the outlier test and re-read.
    pub rejected: u64,
    /// Probes that stayed non-finite and were zeroed out of the estimate.
    pub unrecovered: u64,
}

impl RobustStats {
    /// Accumulates another estimate's stats into this one.
    pub fn absorb(&mut self, other: RobustStats) {
        self.retries += other.retries;
        self.rejected += other.rejected;
        self.unrecovered += other.unrecovered;
    }
}

/// Evaluates `loss(point)`, re-measuring while the reading is non-finite,
/// up to `max_retries` extra attempts. Returns the last reading (possibly
/// still non-finite) and the number of retries consumed.
pub fn retry_non_finite(
    loss: &(dyn Fn(&RVector) -> f64 + Sync),
    point: &RVector,
    max_retries: u32,
) -> (f64, u32) {
    let mut value = loss(point);
    let mut retries = 0;
    while !value.is_finite() && retries < max_retries {
        value = loss(point);
        retries += 1;
    }
    (value, retries)
}

/// Median of a non-empty slice (even lengths average the middle pair).
pub(crate) fn median(values: &[f64]) -> f64 {
    debug_assert!(!values.is_empty());
    let mut sorted = values.to_vec();
    // Callers screen for finite values, but a NaN slipping through must
    // degrade the median, not panic the robust ladder.
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        estimate_gradient, lcng_direction, LcngSettings, MetricSource, Perturbation, ZoSettings,
    };
    use photon_exec::ExecPool;
    use photon_linalg::LinalgError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;
    use std::sync::Mutex;

    fn quadratic(t: &RVector) -> f64 {
        t.iter()
            .enumerate()
            .map(|(i, v)| (i + 1) as f64 * v * v)
            .sum()
    }

    /// A loss oracle that fails deterministically by *content*: the k-th
    /// evaluation of any given point follows a per-point fault schedule, so
    /// results are scheduling-independent like a `FaultyChip`.
    struct FaultyLoss {
        attempts: Mutex<HashMap<u64, u32>>,
        /// Fault decision per (content-hash, attempt).
        fault: fn(u64, u32) -> Option<f64>,
    }

    impl FaultyLoss {
        fn new(fault: fn(u64, u32) -> Option<f64>) -> Self {
            FaultyLoss {
                attempts: Mutex::new(HashMap::new()),
                fault,
            }
        }

        fn eval(&self, t: &RVector) -> f64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for v in t.iter() {
                h = (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3);
            }
            let mut attempts = self.attempts.lock().unwrap();
            let a = attempts.entry(h).or_insert(0);
            let attempt = *a;
            *a += 1;
            match (self.fault)(h, attempt) {
                Some(v) => v,
                None => quadratic(t),
            }
        }
    }

    #[test]
    fn retry_recovers_transient_nan() {
        // Every point NaNs on its first attempt, succeeds on the second.
        let oracle = FaultyLoss::new(|_, attempt| (attempt == 0).then_some(f64::NAN));
        let loss = |t: &RVector| oracle.eval(t);
        let (v, retries) = retry_non_finite(&loss, &RVector::from_slice(&[1.0, 2.0]), 3);
        assert_eq!(v, quadratic(&RVector::from_slice(&[1.0, 2.0])));
        assert_eq!(retries, 1);
    }

    #[test]
    fn retry_gives_up_after_budget() {
        let oracle = FaultyLoss::new(|_, _| Some(f64::NAN));
        let loss = |t: &RVector| oracle.eval(t);
        let (v, retries) = retry_non_finite(&loss, &RVector::from_slice(&[1.0]), 3);
        assert!(v.is_nan());
        assert_eq!(retries, 3);
    }

    #[test]
    fn robust_estimate_matches_clean_when_faults_are_transient() {
        // First attempt of ~1/4 of points is NaN; retries always recover, so
        // the robust estimate must equal the fault-free one exactly.
        let theta = RVector::from_slice(&[1.0, -1.0, 0.5, 0.25]);
        let settings = ZoSettings::for_dimension(4, 12);
        let robust = RobustEval::standard();
        let clean = {
            let mut rng = StdRng::seed_from_u64(33);
            estimate_gradient(
                &quadratic,
                &theta,
                quadratic(&theta),
                &settings,
                &Perturbation::Gaussian,
                None,
                &ExecPool::serial(),
                &mut rng,
            )
            .0
        };
        let oracle = FaultyLoss::new(|h, attempt| (h % 4 == 0 && attempt == 0).then_some(f64::NAN));
        let loss = |t: &RVector| oracle.eval(t);
        let mut rng = StdRng::seed_from_u64(33);
        let (est, stats) = estimate_gradient(
            &loss,
            &theta,
            quadratic(&theta),
            &settings,
            &Perturbation::Gaussian,
            Some(&robust),
            &ExecPool::serial(),
            &mut rng,
        );
        assert_eq!(stats.unrecovered, 0);
        for (a, b) in clean.gradient.iter().zip(est.gradient.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn outlier_spike_is_rejected_and_replaced() {
        // One content in ~8 spikes by ×1e6 on its first attempt only; the
        // re-read path must restore the clean quotient.
        let theta = RVector::from_slice(&[1.0, -1.0, 0.5, 0.25]);
        let settings = ZoSettings::for_dimension(4, 16);
        let clean = {
            let mut rng = StdRng::seed_from_u64(35);
            estimate_gradient(
                &quadratic,
                &theta,
                quadratic(&theta),
                &settings,
                &Perturbation::Gaussian,
                None,
                &ExecPool::serial(),
                &mut rng,
            )
            .0
        };
        let oracle = FaultyLoss::new(|h, attempt| (h % 8 == 0 && attempt == 0).then_some(1e6));
        let loss = |t: &RVector| oracle.eval(t);
        let mut rng = StdRng::seed_from_u64(35);
        let (est, stats) = estimate_gradient(
            &loss,
            &theta,
            quadratic(&theta),
            &settings,
            &Perturbation::Gaussian,
            Some(&RobustEval::standard()),
            &ExecPool::serial(),
            &mut rng,
        );
        assert!(stats.rejected > 0, "the spike should be flagged");
        assert_eq!(stats.unrecovered, 0);
        for (a, b) in clean.gradient.iter().zip(est.gradient.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn permanently_dead_probe_is_zeroed_not_propagated() {
        let theta = RVector::from_slice(&[1.0, -1.0]);
        let settings = ZoSettings::for_dimension(2, 8);
        // A fraction of contents always NaN — unrecoverable.
        let oracle = FaultyLoss::new(|h, _| (h % 3 == 0).then_some(f64::NAN));
        let loss = |t: &RVector| oracle.eval(t);
        let mut rng = StdRng::seed_from_u64(37);
        let (est, stats) = estimate_gradient(
            &loss,
            &theta,
            quadratic(&theta),
            &settings,
            &Perturbation::Gaussian,
            Some(&RobustEval::standard()),
            &ExecPool::serial(),
            &mut rng,
        );
        assert!(stats.unrecovered > 0, "some probes must be dead");
        assert!(est.gradient.iter().all(|v| v.is_finite()));
        assert!(est.quotients.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn robust_lcng_survives_faults_and_rejects_all_nan() {
        let theta = RVector::zeros(3);
        let settings = LcngSettings::for_dimension(3, 8);
        let oracle = FaultyLoss::new(|h, attempt| (h % 5 == 0 && attempt == 0).then_some(f64::NAN));
        let loss = |t: &RVector| oracle.eval(t);
        let mut rng = StdRng::seed_from_u64(39);
        let (step, _) = lcng_direction(
            &loss,
            &theta,
            quadratic(&theta),
            &settings,
            &Perturbation::Gaussian,
            &MetricSource::Identity,
            Some(&RobustEval::standard()),
            &ExecPool::serial(),
            &mut rng,
        )
        .unwrap();
        assert!(step.direction.iter().all(|v| v.is_finite()));

        // Without the ladder the solve must refuse NaN quotients.
        let oracle = FaultyLoss::new(|_, _| Some(f64::NAN));
        let loss = |t: &RVector| oracle.eval(t);
        let mut rng = StdRng::seed_from_u64(39);
        let err = lcng_direction(
            &loss,
            &theta,
            0.0,
            &settings,
            &Perturbation::Gaussian,
            &MetricSource::Identity,
            None,
            &ExecPool::serial(),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, LinalgError::NonFinite { .. }));
    }

    #[test]
    fn robust_stats_absorb_accumulates() {
        let mut a = RobustStats {
            retries: 1,
            rejected: 2,
            unrecovered: 3,
        };
        a.absorb(RobustStats {
            retries: 10,
            rejected: 20,
            unrecovered: 30,
        });
        assert_eq!(
            a,
            RobustStats {
                retries: 11,
                rejected: 22,
                unrecovered: 33,
            }
        );
    }
}
