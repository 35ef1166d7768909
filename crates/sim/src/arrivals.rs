//! Seeded open-loop arrival processes.
//!
//! Both processes are *open-loop*: arrival times are independent of
//! how the servers are doing, which is what makes saturation visible (a
//! closed-loop client slows down when the system does and hides the
//! queueing collapse). Every generator owns a private RNG stream derived
//! from the simulation's root seed, so arrival sequences are bitwise
//! reproducible and independent of how other streams are consumed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An open-loop arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant rate (exponential inter-arrival
    /// times).
    Poisson {
        /// Mean arrivals per (virtual) second.
        rate_hz: f64,
    },
    /// Two-phase on/off bursts: Poisson arrivals at `on_rate_hz` during
    /// "on" phases and `off_rate_hz` during "off" phases, with
    /// exponentially distributed phase durations. Models flash crowds and
    /// tidal batch traffic.
    Bursty {
        /// Arrival rate during a burst.
        on_rate_hz: f64,
        /// Arrival rate between bursts.
        off_rate_hz: f64,
        /// Mean burst duration in virtual nanoseconds.
        mean_on_ns: f64,
        /// Mean quiet-period duration in virtual nanoseconds.
        mean_off_ns: f64,
    },
}

impl ArrivalProcess {
    /// Short stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
        }
    }
}

/// A seeded generator of arrival instants for one process.
#[derive(Debug)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: StdRng,
    // Bursty phase machine (unused by Poisson).
    phase_on: bool,
    phase_end: f64,
}

impl ArrivalGen {
    /// A generator whose entire arrival sequence is a pure function of
    /// `process` and `seed`.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let phase_end = match process {
            ArrivalProcess::Bursty { mean_on_ns, .. } => exp_sample(&mut rng, mean_on_ns),
            _ => 0.0,
        };
        ArrivalGen {
            process,
            rng,
            phase_on: true,
            phase_end,
        }
    }

    /// The next arrival instant strictly after `now_ns`, or `u64::MAX`
    /// when the process can never produce another arrival (zero rates).
    pub fn next_after(&mut self, now_ns: u64) -> u64 {
        let t = match self.process {
            ArrivalProcess::Poisson { rate_hz } => {
                if rate_hz <= 0.0 {
                    return u64::MAX;
                }
                now_ns as f64 + exp_interval_ns(&mut self.rng, rate_hz)
            }
            ArrivalProcess::Bursty {
                on_rate_hz,
                off_rate_hz,
                mean_on_ns,
                mean_off_ns,
            } => {
                if on_rate_hz <= 0.0 && off_rate_hz <= 0.0 {
                    return u64::MAX;
                }
                let mut t = now_ns as f64;
                loop {
                    let rate = if self.phase_on {
                        on_rate_hz
                    } else {
                        off_rate_hz
                    };
                    if rate > 0.0 {
                        let candidate = t + exp_interval_ns(&mut self.rng, rate);
                        if candidate <= self.phase_end {
                            break candidate;
                        }
                    }
                    // No arrival before the phase flips. By memorylessness,
                    // discarding the overshoot and resampling in the next
                    // phase is exact, not an approximation.
                    t = self.phase_end;
                    self.phase_on = !self.phase_on;
                    let mean = if self.phase_on {
                        mean_on_ns
                    } else {
                        mean_off_ns
                    };
                    self.phase_end = t + exp_sample(&mut self.rng, mean);
                }
            }
        };
        // Quantize to whole virtual nanoseconds, strictly advancing.
        (t.ceil() as u64).max(now_ns + 1)
    }
}

/// Exponential inter-arrival interval in nanoseconds for a rate in Hz.
fn exp_interval_ns(rng: &mut StdRng, rate_hz: f64) -> f64 {
    exp_sample(rng, 1e9 / rate_hz)
}

/// Exponential sample with the given mean (inverse-CDF transform; the
/// `1 - u` keeps the argument of `ln` in `(0, 1]` for `u ∈ [0, 1)`).
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(process: ArrivalProcess, seed: u64, until_ns: u64) -> Vec<u64> {
        let mut gen = ArrivalGen::new(process, seed);
        let mut out = Vec::new();
        let mut t = 0u64;
        loop {
            t = gen.next_after(t);
            if t >= until_ns {
                break out;
            }
            out.push(t);
        }
    }

    #[test]
    fn poisson_rate_is_roughly_respected() {
        // 100k arrivals/s over 0.1 virtual seconds ≈ 10_000 arrivals.
        let n = collect(
            ArrivalProcess::Poisson { rate_hz: 100_000.0 },
            1,
            100_000_000,
        )
        .len() as f64;
        assert!((8_000.0..12_000.0).contains(&n), "got {n} arrivals");
    }

    #[test]
    fn arrivals_are_deterministic_in_the_seed() {
        let p = ArrivalProcess::Bursty {
            on_rate_hz: 50_000.0,
            off_rate_hz: 1_000.0,
            mean_on_ns: 2_000_000.0,
            mean_off_ns: 2_000_000.0,
        };
        let a = collect(p, 99, 50_000_000);
        let b = collect(p, 99, 50_000_000);
        assert_eq!(a, b, "same seed must replay bitwise");
        let c = collect(p, 100, 50_000_000);
        assert_ne!(a, c, "different seed must diverge");
    }

    #[test]
    fn arrivals_strictly_increase() {
        for p in [
            ArrivalProcess::Poisson { rate_hz: 1e9 },
            ArrivalProcess::Bursty {
                on_rate_hz: 1e9,
                off_rate_hz: 1e7,
                mean_on_ns: 100_000.0,
                mean_off_ns: 100_000.0,
            },
        ] {
            let times = collect(p, 7, 1_000_000);
            assert!(!times.is_empty());
            assert!(
                times.windows(2).all(|w| w[0] < w[1]),
                "{p:?} produced non-increasing arrivals"
            );
        }
    }

    #[test]
    fn bursty_is_actually_bursty() {
        // With a hot on-phase and a dead off-phase, arrival gaps are
        // bimodal: many short intra-burst gaps plus a few long inter-burst
        // gaps.
        let times = collect(
            ArrivalProcess::Bursty {
                on_rate_hz: 1_000_000.0,
                off_rate_hz: 0.0,
                mean_on_ns: 1_000_000.0,
                mean_off_ns: 5_000_000.0,
            },
            3,
            100_000_000,
        );
        assert!(times.len() > 20, "got only {} arrivals", times.len());
        let gaps: Vec<u64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let long = gaps.iter().filter(|&&g| g > 2_000_000).count();
        let short = gaps.iter().filter(|&&g| g < 100_000).count();
        assert!(long >= 2, "expected inter-burst gaps, got {long}");
        assert!(short > gaps.len() / 2, "expected dense bursts");
    }

    #[test]
    fn zero_rate_processes_never_fire() {
        let mut gen = ArrivalGen::new(ArrivalProcess::Poisson { rate_hz: 0.0 }, 5);
        assert_eq!(gen.next_after(0), u64::MAX);
        let mut gen = ArrivalGen::new(
            ArrivalProcess::Bursty {
                on_rate_hz: 0.0,
                off_rate_hz: 0.0,
                mean_on_ns: 1.0,
                mean_off_ns: 1.0,
            },
            5,
        );
        assert_eq!(gen.next_after(123), u64::MAX);
    }
}
