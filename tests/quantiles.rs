//! Quantiles read by rank instead of by sorting: `percentiles` selects only
//! the order statistics its quantiles need, and `HedgeDelayTracker` reads
//! its delay from a window it keeps sorted as it slides. Both must return
//! exactly the bits (`to_bits`) a full sort followed by type-7
//! interpolation returns, NaNs and signed zeros included.

use std::collections::VecDeque;
use std::hint::black_box;

use photon_zo::core::percentiles;
use photon_zo::farm::{HedgeDelayTracker, HedgePolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The rank order, written out independently of the library: NaNs of either
/// sign last, IEEE total order otherwise.
fn reference_order(a: &f64, b: &f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, true) => std::cmp::Ordering::Less,
        (true, false) => std::cmp::Ordering::Greater,
        _ => a.total_cmp(b),
    }
}

/// Sort the whole copy, then interpolate linearly at rank `q · (n − 1)`.
fn sort_then_interpolate(values: &[f64], qs: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(reference_order);
    qs.iter()
        .map(|&q| {
            let rank = q * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo])
            }
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// An arithmetic NaN as the hardware makes it (sign bit set on x86).
fn arithmetic_nan() -> f64 {
    let (num, den) = (black_box(0.0f64), black_box(0.0f64));
    num / den
}

/// Values that stress the order: signed zeros, infinities, NaNs of both
/// signs and two payloads, the smallest subnormal and the extremes.
fn specials() -> [f64; 11] {
    [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        arithmetic_nan(),
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(1),
        f64::MAX,
        f64::MIN,
    ]
}

/// One input of `n` values in one of four mixes: continuous, heavy
/// duplicates, duplicates with specials, or mostly specials.
fn draw_values(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let specials = specials();
    let mix = rng.gen_range(0..4usize);
    (0..n)
        .map(|_| match mix {
            0 => rng.gen_range(-1e6..1e6),
            1 => rng.gen_range(0..6u32) as f64 * 1_000.0,
            2 => {
                if rng.gen_bool(0.2) {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(0..4u32) as f64 - 1.5
                }
            }
            _ => {
                if rng.gen_bool(0.7) {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(-10.0..10.0)
                }
            }
        })
        .collect()
}

/// The fixed quantiles, plus some whose rank is integral, given unsorted
/// and with repeats.
fn draw_quantiles(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut qs = vec![0.999, 0.5, 0.0, 1.0, 0.25, 0.001, 0.99];
    if n > 1 {
        for _ in 0..3 {
            qs.push(rng.gen_range(0..n) as f64 / (n - 1) as f64);
        }
    }
    for _ in 0..3 {
        let at = rng.gen_range(0..qs.len());
        let repeat = qs[rng.gen_range(0..qs.len())];
        qs.insert(at, repeat);
    }
    // A Fisher-Yates shuffle so no two cases share an order.
    for i in (1..qs.len()).rev() {
        qs.swap(i, rng.gen_range(0..i + 1));
    }
    qs
}

#[test]
fn selected_percentiles_equal_sort_then_interpolate_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x5e1ec7);
    let sizes = (1..=64)
        .chain([127, 128, 129, 255, 256, 257, 1000, 1025, 2999, 3000])
        .chain((0..40).map(|_| rng.gen_range(65..3001)));
    let mut cases = 0;
    for n in sizes.collect::<Vec<_>>() {
        for _ in 0..3 {
            let values = draw_values(&mut rng, n);
            let qs = draw_quantiles(&mut rng, n);
            let want = sort_then_interpolate(&values, &qs);
            let got = percentiles(&values, &qs);
            assert_eq!(
                bits(&got),
                bits(&want),
                "n {n}, qs {qs:?}, values {values:?}"
            );
            // One quantile at a time reads the same bits as the batch.
            for (&q, &w) in qs.iter().zip(&want) {
                assert_eq!(percentiles(&values, &[q])[0].to_bits(), w.to_bits());
            }
            cases += 1;
        }
    }
    assert!(cases > 300);
}

/// The delay the tracker must report for `window`: the seed delay below
/// `min_samples`, else the window's quantile from scratch, floored.
fn expected_delay(policy: &HedgePolicy, window: &VecDeque<f64>) -> u64 {
    if window.len() < policy.min_samples.max(1) {
        return policy.min_delay_ns;
    }
    let values: Vec<f64> = window.iter().copied().collect();
    let q = percentiles(&values, &[policy.quantile])[0];
    if q.is_finite() {
        (q as u64).max(policy.min_delay_ns)
    } else {
        policy.min_delay_ns
    }
}

#[test]
fn sorted_hedge_window_matches_a_fresh_percentile_after_every_record() {
    const TENANTS: usize = 3;
    let mut rng = StdRng::seed_from_u64(0x4ed6e);
    for (window, min_samples) in [(1, 1), (1, 2), (7, 3), (7, 10), (256, 16), (256, 300)] {
        for quantile in [0.5, 0.99] {
            let policy = HedgePolicy {
                quantile,
                min_delay_ns: 50_000,
                window,
                min_samples,
            };
            let mut tracker = HedgeDelayTracker::new(policy, TENANTS);
            let mut windows = vec![VecDeque::new(); TENANTS];
            for step in 0..1_500 {
                let tenant = rng.gen_range(0..TENANTS);
                // Tenant 0 draws from a few repeated values and both zeros,
                // tenant 1 adds NaNs of both signs, tenant 2 is continuous.
                let latency = match tenant {
                    0 => [0.0, -0.0, 40_000.0, 60_000.0, 60_000.0][rng.gen_range(0..5usize)],
                    1 => {
                        if rng.gen_bool(0.1) {
                            [f64::NAN, -f64::NAN, arithmetic_nan()][rng.gen_range(0..3usize)]
                        } else {
                            rng.gen_range(0..8u32) as f64 * 20_000.0
                        }
                    }
                    _ => rng.gen_range(0.0..400_000.0),
                };
                tracker.record(tenant, latency);
                let w = &mut windows[tenant];
                w.push_back(latency);
                if w.len() > window {
                    w.pop_front();
                }
                for (t, w) in windows.iter().enumerate() {
                    assert_eq!(
                        tracker.delay_ns(t),
                        expected_delay(&policy, w),
                        "window {window}, min_samples {min_samples}, q {quantile}, \
                         step {step}, tenant {t}"
                    );
                }
            }
        }
    }
}
