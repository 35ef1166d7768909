//! Run statistics: summaries over repeated seeds, the Mann-Whitney U
//! test used for the significance annotations in the paper's tables and
//! box plots, and the rank-read quantiles behind serving reports and hedge
//! delays.

use std::cmp::Ordering;

/// Mean / standard deviation / extrema of a set of run results.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// The raw values, in run order.
    pub values: Vec<f64>,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single run).
    pub std: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl RunSummary {
    /// Summarizes a non-empty set of values.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize zero runs");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let std = if values.len() > 1 {
            (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)).sqrt()
        } else {
            0.0
        };
        RunSummary {
            values: values.to_vec(),
            mean,
            std,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Formats as `mean ± std` with the given precision.
    pub fn format(&self, decimals: usize) -> String {
        format!("{:.*} ±{:.*}", decimals, self.mean, decimals, self.std)
    }
}

/// Result of a two-sided Mann-Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannWhitney {
    /// The U statistic of the first sample.
    pub u: f64,
    /// Standard-normal z-score (tie-corrected, continuity-corrected).
    /// Reported for reference even when the p-value comes from the exact
    /// small-sample distribution.
    pub z: f64,
    /// Two-sided p-value: exact permutation distribution when the pooled
    /// sample has at most [`MANN_WHITNEY_EXACT_MAX_POOLED_N`] values, the
    /// normal approximation above that.
    pub p_value: f64,
}

impl MannWhitney {
    /// The paper's significance legend: `***` for `p ≤ 10⁻³`, `**` for
    /// `p ≤ 10⁻²`, `*` for `p ≤ 0.05`, `ns` otherwise.
    pub fn annotation(&self) -> &'static str {
        if self.p_value <= 1e-3 {
            "***"
        } else if self.p_value <= 1e-2 {
            "**"
        } else if self.p_value <= 0.05 {
            "*"
        } else {
            "ns"
        }
    }
}

/// Pooled-sample ceiling below which [`mann_whitney_u`] computes the
/// two-sided p-value from the **exact** permutation distribution of U
/// (enumerating every assignment of pooled midranks to the first sample)
/// instead of the normal approximation. At canary-slice sizes (n ≤ ~8 per
/// arm) the normal approximation mis-sizes the gate — the exact tail is
/// discrete and the smallest attainable p is `2 / C(n, n1)` — so a gate
/// sized from the approximation can promote a worse shadow theta.
/// `C(20, 10) = 184 756` arrangements keep the exact path microseconds
/// cheap.
pub const MANN_WHITNEY_EXACT_MAX_POOLED_N: usize = 20;

/// Exact two-sided permutation p-value over pooled midranks: the fraction
/// of the `C(n, n1)` equally likely rank assignments whose U deviates from
/// the null mean `n1·n2/2` by at least the observed deviation. Midranks
/// make tie handling exact (tied arrangements share a U value).
fn mann_whitney_exact_p(ranks: &[f64], n1: usize, u_obs: f64, mean_u: f64) -> f64 {
    let total = ranks.len();
    debug_assert!((1..total).contains(&n1) && total <= MANN_WHITNEY_EXACT_MAX_POOLED_N);
    let threshold = (u_obs - mean_u).abs() - 1e-9;
    let base = n1 as f64 * (n1 as f64 + 1.0) / 2.0;
    let mut extreme: u64 = 0;
    let mut arrangements: u64 = 0;
    let mut mask: u64 = (1u64 << n1) - 1;
    let last: u64 = mask << (total - n1);
    loop {
        let mut r1 = 0.0;
        let mut m = mask;
        while m != 0 {
            r1 += ranks[m.trailing_zeros() as usize];
            m &= m - 1;
        }
        if (r1 - base - mean_u).abs() >= threshold {
            extreme += 1;
        }
        arrangements += 1;
        if mask == last {
            break;
        }
        // Gosper's hack: next larger integer with the same popcount.
        let c = mask & mask.wrapping_neg();
        let r = mask + c;
        mask = (((r ^ mask) >> 2) / c) | r;
    }
    extreme as f64 / arrangements as f64
}

/// Two-sided Mann-Whitney U test. For pooled samples of at most
/// [`MANN_WHITNEY_EXACT_MAX_POOLED_N`] values the p-value comes from the
/// exact permutation distribution (ties handled via midranks); larger
/// pools use the tie-corrected, continuity-corrected normal approximation
/// — adequate for the ≥8-run samples used in the experiments.
///
/// # Panics
///
/// Panics when either sample is empty.
///
/// # Examples
///
/// ```
/// use photon_core::mann_whitney_u;
///
/// let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
/// let b = [11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0];
/// let test = mann_whitney_u(&a, &b);
/// assert!(test.p_value < 0.01); // clearly different samples
/// let same = mann_whitney_u(&a, &a);
/// assert!(same.p_value > 0.9);
/// ```
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> MannWhitney {
    assert!(!a.is_empty() && !b.is_empty(), "samples must be non-empty");
    let n1 = a.len() as f64;
    let n2 = b.len() as f64;

    // Rank the pooled sample with midranks for ties.
    let mut pooled: Vec<(f64, usize)> = a
        .iter()
        .map(|&v| (v, 0usize))
        .chain(b.iter().map(|&v| (v, 1usize)))
        .collect();
    // `total_cmp`, not `partial_cmp().unwrap()`: fault-injected runs feed
    // NaN losses into significance tests, and ranking must never panic.
    // NaNs order after +inf, each forming its own "tie" group of one.
    pooled.sort_by(|x, y| x.0.total_cmp(&y.0));
    let total = pooled.len();
    let mut ranks = vec![0.0f64; total];
    let mut tie_term = 0.0f64;
    // Adjacent NaNs count as tied (IEEE `==` would split them into
    // singleton groups, under-counting ties and making an all-NaN pool
    // look significant).
    let tied = |x: f64, y: f64| x == y || (x.is_nan() && y.is_nan());
    let mut i = 0;
    while i < total {
        let mut j = i;
        while j + 1 < total && tied(pooled[j + 1].0, pooled[i].0) {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = midrank;
        }
        let t = (j - i + 1) as f64;
        tie_term += t * t * t - t;
        i = j + 1;
    }

    let r1: f64 = pooled
        .iter()
        .zip(&ranks)
        .filter(|((_, g), _)| *g == 0)
        .map(|(_, &r)| r)
        .sum();
    let u1 = r1 - n1 * (n1 + 1.0) / 2.0;

    let mean_u = n1 * n2 / 2.0;
    let n = n1 + n2;
    let var_u = n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    // When every pooled sample ties, the tie-corrected variance is exactly
    // zero and z would be 0/0. The negated comparison also catches a NaN
    // variance, so the p-value is always well-defined (never NaN).
    if var_u.is_nan() || var_u <= 0.0 {
        // All values identical: no evidence of difference.
        return MannWhitney {
            u: u1,
            z: 0.0,
            p_value: 1.0,
        };
    }
    // Continuity correction toward the mean.
    let diff = u1 - mean_u;
    let z = (diff.abs() - 0.5).max(0.0) / var_u.sqrt() * diff.signum();
    let p = if total <= MANN_WHITNEY_EXACT_MAX_POOLED_N {
        mann_whitney_exact_p(&ranks, a.len(), u1, mean_u)
    } else {
        2.0 * normal_sf(z.abs())
    };
    MannWhitney {
        u: u1,
        z,
        p_value: p.min(1.0),
    }
}

/// The order latency and loss quantiles rank values by: IEEE total order
/// (`f64::total_cmp`) with every NaN, of either sign, above `+∞`.
///
/// Two values compare equal exactly when their bits are equal, so each
/// order statistic under this order is a unique bit pattern and a value can
/// be found again by binary search (`==` and `partial_cmp` cannot do that:
/// they equate `0.0` and `-0.0` and never match a NaN). Plain `total_cmp`
/// would put a NaN with its sign bit set below `-∞` — and x86 arithmetic
/// NaNs (`0.0 / 0.0`, `∞ − ∞`) have it set.
pub fn nan_last_cmp(a: &f64, b: &f64) -> Ordering {
    a.is_nan().cmp(&b.is_nan()).then_with(|| a.total_cmp(b))
}

/// Quantile `q ∈ [0, 1]` of `n = ranked.len()` values whose order
/// statistics under [`nan_last_cmp`] sit at their own ranks — at least the
/// two that bracket the fractional rank `q · (n − 1)`, which is all this
/// reads. Interpolates linearly between those two (the "linear" / type-7
/// definition numpy's `percentile` uses by default); an integral rank
/// returns its order statistic's bits unchanged.
///
/// `ranked` may be fully sorted (the hedge window) or partitioned by
/// selection at the needed ranks ([`percentiles`]).
///
/// # Panics
///
/// Panics when `ranked` is empty or `q` lies outside `[0, 1]`.
pub fn quantile_of_ranked(ranked: &[f64], q: f64) -> f64 {
    let (lo, hi, frac) = bracketing_ranks(ranked.len(), q);
    if lo == hi {
        ranked[lo]
    } else {
        ranked[lo] + frac * (ranked[hi] - ranked[lo])
    }
}

/// The order statistics quantile `q` of `n` values reads, `lo ≤ hi`, and
/// the fraction of the way from `lo` to `hi` it lies.
fn bracketing_ranks(n: usize, q: f64) -> (usize, usize, f64) {
    assert!(n > 0, "cannot take percentiles of zero values");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = q * (n - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

/// NaN-safe percentile extraction with linear interpolation.
///
/// Evaluates each quantile `q ∈ [0, 1]` at fractional rank `q · (n − 1)`
/// with [`quantile_of_ranked`] (type-7, numpy's default). Rather than sort,
/// it selects only the order statistics the quantiles read: on a copy of
/// `values`, `select_nth_unstable_by` places each needed rank in ascending
/// order, each time over the range above the rank placed before it. That
/// costs O(n) per call for a handful of quantiles where a sort costs
/// O(n log n), and returns exactly the bits a sort would: under
/// [`nan_last_cmp`] each order statistic is a unique bit pattern.
///
/// NaNs of either sign rank above `+∞`, so a fault-hung query that recorded
/// a NaN latency lands in the top tail instead of poisoning the whole
/// distribution. Serving reports lean on this for p50/p99/p999 latency.
///
/// # Panics
///
/// Panics when `values` is empty or any `q` lies outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use photon_core::percentiles;
///
/// let v = [4.0, 1.0, 3.0, 2.0];
/// let p = percentiles(&v, &[0.0, 0.5, 1.0]);
/// assert_eq!(p, vec![1.0, 2.5, 4.0]);
/// ```
pub fn percentiles(values: &[f64], qs: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "cannot take percentiles of zero values");
    let mut ranks: Vec<usize> = qs
        .iter()
        .flat_map(|&q| {
            let (lo, hi, _) = bracketing_ranks(values.len(), q);
            [lo, hi]
        })
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    let mut ranked = values.to_vec();
    // Everything below `start` is already in place and no greater than
    // anything at or above it, so each rank is selected in what is left.
    let mut start = 0;
    for k in ranks {
        ranked[start..].select_nth_unstable_by(k - start, nan_last_cmp);
        start = k + 1;
    }
    qs.iter().map(|&q| quantile_of_ranked(&ranked, q)).collect()
}

/// Standard normal survival function `P(Z > z)` via the complementary error
/// function (Abramowitz-Stegun 7.1.26 rational approximation, |ε| < 1.5e-7).
pub fn normal_sf(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

fn erfc(x: f64) -> f64 {
    let sign_neg = x < 0.0;
    let x_abs = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x_abs);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let val = poly * (-x_abs * x_abs).exp();
    if sign_neg {
        2.0 - val
    } else {
        val
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = RunSummary::from_values(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 1.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.format(2), "2.00 ±1.00");
        let single = RunSummary::from_values(&[5.0]);
        assert_eq!(single.std, 0.0);
    }

    #[test]
    fn normal_sf_reference_values() {
        assert!((normal_sf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_sf(1.96) - 0.024998).abs() < 1e-4);
        assert!((normal_sf(3.0) - 0.001350).abs() < 1e-5);
        assert!((normal_sf(-1.0) - 0.841345).abs() < 1e-4);
    }

    #[test]
    fn u_test_detects_separation() {
        let a = [0.1, 0.2, 0.15, 0.12, 0.18, 0.11, 0.16, 0.14];
        let b = [0.4, 0.5, 0.45, 0.42, 0.48, 0.41, 0.46, 0.44];
        let t = mann_whitney_u(&a, &b);
        assert!(t.p_value < 1e-3, "p {}", t.p_value);
        assert_eq!(t.annotation(), "***");
    }

    #[test]
    fn u_test_symmetric() {
        let a = [1.0, 3.0, 5.0, 7.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let t_ab = mann_whitney_u(&a, &b);
        let t_ba = mann_whitney_u(&b, &a);
        assert!((t_ab.p_value - t_ba.p_value).abs() < 1e-12);
        assert_eq!(t_ab.annotation(), "ns");
    }

    #[test]
    fn identical_samples_not_significant() {
        let a = [2.0; 6];
        let t = mann_whitney_u(&a, &a);
        assert_eq!(t.p_value, 1.0);
        assert_eq!(t.annotation(), "ns");
    }

    #[test]
    fn nan_samples_never_panic_or_poison_p() {
        // Fault-injected runs can hand the test NaN losses; ranking must
        // not panic and the p-value must stay a number.
        let a = [0.1, f64::NAN, 0.2, 0.15];
        let b = [0.4, 0.5, f64::NAN, 0.45];
        let t = mann_whitney_u(&a, &b);
        assert!(t.p_value.is_finite(), "p {}", t.p_value);
        assert!((0.0..=1.0).contains(&t.p_value));
    }

    #[test]
    fn all_nan_pool_has_well_defined_p() {
        // Every pooled sample ties (NaN == NaN under total order ranking →
        // one tie group), so the tie-corrected variance vanishes; the
        // guard must return p = 1 rather than NaN.
        let a = [f64::NAN; 4];
        let t = mann_whitney_u(&a, &a);
        assert_eq!(t.p_value, 1.0);
        assert_eq!(t.z, 0.0);
        assert_eq!(t.annotation(), "ns");
    }

    /// Regression test for the exact small-sample path: at canary sizes
    /// the normal approximation mis-sizes the tail (3-vs-3 full
    /// separation approximates to p ≈ 0.081 where the exact discrete
    /// distribution gives exactly 2/C(6,3) = 0.1), so these pins fail on
    /// approximation-only code.
    #[test]
    fn exact_small_sample_p_values_are_pinned() {
        // 3 vs 3, fully separated: only U = 0 and U = 9 are as extreme,
        // out of C(6,3) = 20 arrangements.
        let t = mann_whitney_u(&[1.0, 2.0, 3.0], &[10.0, 11.0, 12.0]);
        assert!((t.p_value - 2.0 / 20.0).abs() < 1e-12, "p {}", t.p_value);
        // 2 vs 3, fully separated: 2 extreme of C(5,2) = 10.
        let t = mann_whitney_u(&[1.0, 2.0], &[10.0, 11.0, 12.0]);
        assert!((t.p_value - 2.0 / 10.0).abs() < 1e-12, "p {}", t.p_value);
        // 8 vs 8, fully separated: 2 extreme of C(16,8) = 12870 — the
        // smallest attainable two-sided p at this size.
        let a: Vec<f64> = (1..=8).map(f64::from).collect();
        let b: Vec<f64> = (11..=18).map(f64::from).collect();
        let t = mann_whitney_u(&a, &b);
        assert!((t.p_value - 2.0 / 12870.0).abs() < 1e-12, "p {}", t.p_value);
        // 4 vs 4 interleaved: |U − 8| ≥ 2 covers 48 of C(8,4) = 70.
        let t = mann_whitney_u(&[1.0, 3.0, 5.0, 7.0], &[2.0, 4.0, 6.0, 8.0]);
        assert!((t.p_value - 48.0 / 70.0).abs() < 1e-12, "p {}", t.p_value);
    }

    #[test]
    fn exact_path_handles_ties_and_matches_symmetry() {
        // Tied pools stay exact: midranks give tied arrangements a shared
        // U, and swapping the samples must not change the p-value.
        let a = [1.0, 2.0, 2.0, 3.0];
        let b = [2.0, 3.0, 3.0, 4.0];
        let t_ab = mann_whitney_u(&a, &b);
        let t_ba = mann_whitney_u(&b, &a);
        assert!((t_ab.p_value - t_ba.p_value).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&t_ab.p_value));
        // Above the documented pooled-size ceiling the normal
        // approximation takes over and must still produce a sane p.
        let big_a: Vec<f64> = (0..11).map(f64::from).collect();
        let big_b: Vec<f64> = (6..17).map(f64::from).collect();
        assert!(big_a.len() + big_b.len() > MANN_WHITNEY_EXACT_MAX_POOLED_N);
        let t = mann_whitney_u(&big_a, &big_b);
        assert!(t.p_value > 0.0 && t.p_value < 1.0, "p {}", t.p_value);
    }

    #[test]
    fn overlapping_samples_moderate_p() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [3.0, 4.0, 5.0, 6.0, 7.0];
        let t = mann_whitney_u(&a, &b);
        assert!(t.p_value > 0.01 && t.p_value < 1.0, "p {}", t.p_value);
    }

    #[test]
    fn annotation_thresholds() {
        let make = |p| MannWhitney {
            u: 0.0,
            z: 0.0,
            p_value: p,
        };
        assert_eq!(make(0.0005).annotation(), "***");
        assert_eq!(make(0.005).annotation(), "**");
        assert_eq!(make(0.03).annotation(), "*");
        assert_eq!(make(0.2).annotation(), "ns");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sample_panics() {
        let _ = mann_whitney_u(&[], &[1.0]);
    }

    #[test]
    fn percentiles_known_quantiles() {
        // Median of an even-length set interpolates between the two middle
        // order statistics.
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentiles(&v, &[0.5]), vec![2.5]);
        // 1..=101 has exact integer quantiles at every hundredth.
        let big: Vec<f64> = (1..=101).map(|i| i as f64).collect();
        let p = percentiles(&big, &[0.0, 0.25, 0.5, 0.75, 0.99, 1.0]);
        assert_eq!(p, vec![1.0, 26.0, 51.0, 76.0, 100.0, 101.0]);
        // Fractional ranks interpolate linearly: q=0.1 over [10, 20, 30]
        // lands at rank 0.2 → 12.
        let p = percentiles(&[30.0, 10.0, 20.0], &[0.1]);
        assert!((p[0] - 12.0).abs() < 1e-12, "{}", p[0]);
    }

    #[test]
    fn percentiles_single_value_and_order() {
        assert_eq!(percentiles(&[7.0], &[0.0, 0.5, 1.0]), vec![7.0, 7.0, 7.0]);
        // Input order must not matter.
        let a = percentiles(&[5.0, 1.0, 4.0, 2.0, 3.0], &[0.25, 0.75]);
        let b = percentiles(&[1.0, 2.0, 3.0, 4.0, 5.0], &[0.25, 0.75]);
        assert_eq!(a, b);
        assert_eq!(a, vec![2.0, 4.0]);
    }

    #[test]
    fn percentiles_nan_safe() {
        // NaNs of either sign rank above +∞: they occupy the extreme tail
        // rather than panicking the selection or infecting the median. An
        // arithmetic NaN (sign bit set on x86) must not land at the bottom.
        let (num, den) = (std::hint::black_box(0.0f64), std::hint::black_box(0.0f64));
        for nan in [f64::NAN, -f64::NAN, num / den] {
            let v = [1.0, nan, 2.0, 3.0];
            let p = percentiles(&v, &[0.0, 1.0]);
            assert_eq!(p[0], 1.0);
            assert_eq!(p[1].to_bits(), nan.to_bits());
            let median = percentiles(&v, &[0.5]);
            assert_eq!(median, vec![2.5]);
        }
    }

    #[test]
    fn nan_last_cmp_is_equal_only_on_equal_bits() {
        assert_eq!(nan_last_cmp(&-0.0, &0.0), Ordering::Less);
        assert_eq!(nan_last_cmp(&0.0, &0.0), Ordering::Equal);
        assert_eq!(nan_last_cmp(&-f64::NAN, &f64::NAN), Ordering::Less);
        assert_eq!(nan_last_cmp(&-f64::NAN, &f64::INFINITY), Ordering::Greater);
        assert_eq!(nan_last_cmp(&f64::NAN, &f64::NAN), Ordering::Equal);
    }

    #[test]
    fn quantile_of_ranked_reads_only_the_bracketing_ranks() {
        // Positions other than ranks 1 and 2 are never read.
        let ranked = [f64::NAN, 10.0, 20.0, f64::NAN];
        assert_eq!(quantile_of_ranked(&ranked, 0.5), 15.0);
        assert_eq!(quantile_of_ranked(&ranked, 1.0 / 3.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "zero values")]
    fn percentiles_empty_panics() {
        let _ = percentiles(&[], &[0.5]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn percentiles_bad_quantile_panics() {
        let _ = percentiles(&[1.0], &[1.5]);
    }
}
