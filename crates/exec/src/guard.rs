//! Deadline watchdog and deterministic retry backoff for chip-query phases.
//!
//! Real chip queries go over a lab link that can hang. [`run_guarded`] runs
//! a blocking phase under a deadline: a watchdog thread arms a timer, and if
//! the phase has not finished when it fires, a caller-supplied cancellation
//! hook runs (typically raising the chip's abort flag so the hung query
//! returns a poisoned reading). The phase itself always runs on the calling
//! thread and always returns — the watchdog never kills anything, it only
//! asks the blocking layer to give up.
//!
//! [`BackoffSchedule`] spaces the retries: exponential growth from a base
//! delay, capped, with deterministic multiplicative jitter derived from a
//! seed — so tests can assert the exact schedule and two runs with the same
//! policy behave identically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use photon_linalg::random::splitmix64;

/// How a durable training run guards its chip-query phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogPolicy {
    /// Wall-clock budget for one guarded phase (one epoch of queries).
    pub deadline: Duration,
    /// Consecutive timed-out attempts tolerated before the run aborts.
    pub max_timeouts: u32,
    /// First retry delay; later retries double it.
    pub backoff_base: Duration,
    /// Ceiling on any single retry delay.
    pub backoff_max: Duration,
    /// Seed for the deterministic retry jitter.
    pub jitter_seed: u64,
}

impl WatchdogPolicy {
    /// A lenient default: generous deadline, three retries, sub-second
    /// backoff.
    pub fn standard() -> Self {
        WatchdogPolicy {
            deadline: Duration::from_secs(30),
            max_timeouts: 3,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(800),
            jitter_seed: 0,
        }
    }

    /// The retry schedule this policy induces.
    pub fn backoff(&self) -> BackoffSchedule {
        BackoffSchedule {
            base: self.backoff_base,
            max: self.backoff_max,
            seed: self.jitter_seed,
        }
    }
}

/// Exponential backoff with deterministic multiplicative jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffSchedule {
    /// First-attempt delay.
    pub base: Duration,
    /// Ceiling on any delay.
    pub max: Duration,
    /// Jitter seed; equal seeds yield equal schedules.
    pub seed: u64,
}

impl BackoffSchedule {
    /// Delay before retry `attempt` (1-based): `base · 2^(attempt-1)`,
    /// jittered into `[1.0×, 1.5×)` by a hash of `(seed, attempt)`, capped
    /// at `max`. Pure in `(self, attempt)`.
    ///
    /// The jitter band sits *above* the nominal value so the schedule is
    /// monotone non-decreasing in `attempt`: doubling the nominal always
    /// clears the previous attempt's ≤1.5× jitter, and once an attempt
    /// saturates at `max` every later one does too. A band straddling 1.0
    /// (e.g. `[0.5, 1.5)`) would let a lucky later retry fire *sooner* than
    /// an earlier one — exactly the thundering-herd pattern jitter exists
    /// to avoid.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let nominal = self.base.saturating_mul(1u32 << exp).min(self.max);
        let h = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E6D));
        // Map the hash to [1.0, 1.5).
        let factor = 1.0 + (h >> 11) as f64 / (1u64 << 54) as f64;
        nominal.mul_f64(factor).min(self.max)
    }
}

/// Runs `body` on the calling thread under a `deadline`.
///
/// If `body` finishes in time, `on_deadline` never runs. Otherwise a
/// watchdog thread invokes `on_deadline` exactly once (e.g. to raise an
/// [`AbortFlag`](https://docs.rs/photon-photonics) so a hung query returns)
/// and keeps waiting for `body`, which must eventually return once
/// cancelled. Returns `(result, fired)` where `fired` says whether the
/// deadline hit.
///
/// The guard is cooperative by design: nothing is killed, no state is
/// corrupted mid-flight, and the caller decides what a fired deadline means
/// (retry the phase, discard its partial state, or abort the run).
pub fn run_guarded<T, F, G>(deadline: Duration, on_deadline: G, body: F) -> (T, bool)
where
    F: FnOnce() -> T,
    G: FnOnce() + Send,
{
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let fired = AtomicBool::new(false);
    let result = thread::scope(|scope| {
        let fired_ref = &fired;
        scope.spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(deadline) {
                fired_ref.store(true, Ordering::SeqCst);
                on_deadline();
                // Hold the scope open until the body returns (sender drop).
                let _ = done_rx.recv();
            }
        });
        let out = body();
        drop(done_tx);
        out
    });
    (result, fired.load(Ordering::SeqCst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Instant;

    #[test]
    fn fast_body_never_fires() {
        let (out, fired) = run_guarded(
            Duration::from_secs(10),
            || panic!("must not fire"),
            || 41 + 1,
        );
        assert_eq!(out, 42);
        assert!(!fired);
    }

    #[test]
    fn slow_body_fires_once_and_still_returns() {
        let hits = AtomicU32::new(0);
        let stop = AtomicBool::new(false);
        let (out, fired) = run_guarded(
            Duration::from_millis(20),
            || {
                hits.fetch_add(1, Ordering::SeqCst);
                stop.store(true, Ordering::SeqCst);
            },
            || {
                // A cooperative "hung" phase: spins until cancelled.
                let t0 = Instant::now();
                while !stop.load(Ordering::SeqCst) {
                    assert!(t0.elapsed() < Duration::from_secs(10), "never cancelled");
                    thread::sleep(Duration::from_millis(1));
                }
                7
            },
        );
        assert_eq!(out, 7);
        assert!(fired);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let sched = BackoffSchedule {
            base: Duration::from_millis(10),
            max: Duration::from_millis(200),
            seed: 9,
        };
        let again = BackoffSchedule {
            base: Duration::from_millis(10),
            max: Duration::from_millis(200),
            seed: 9,
        };
        for attempt in 1..=12 {
            let d = sched.delay(attempt);
            assert_eq!(d, again.delay(attempt), "schedule must be pure");
            assert!(d <= Duration::from_millis(200), "cap violated: {d:?}");
            // Jitter stays within [1.0, 1.5) of the nominal value.
            let nominal = Duration::from_millis(10)
                .saturating_mul(1 << (attempt - 1).min(20))
                .min(Duration::from_millis(200));
            assert!(d >= nominal, "{d:?} < nominal {nominal:?}");
        }
        let other = BackoffSchedule {
            base: Duration::from_millis(10),
            max: Duration::from_millis(200),
            seed: 10,
        };
        assert_ne!(sched.delay(1), other.delay(1), "seed must matter");
    }

    #[test]
    fn backoff_delays_are_monotone_and_capped_across_seeds() {
        // The retry schedule must never wait *less* after failing *more*,
        // for any jitter seed, and must respect the cap everywhere.
        for seed in 0..64u64 {
            let sched = BackoffSchedule {
                base: Duration::from_millis(7),
                max: Duration::from_millis(500),
                seed,
            };
            let mut prev = Duration::ZERO;
            for attempt in 1..=24 {
                let d = sched.delay(attempt);
                assert!(
                    d >= prev,
                    "seed {seed}: delay({attempt}) = {d:?} < delay({}) = {prev:?}",
                    attempt - 1
                );
                assert!(
                    d <= Duration::from_millis(500),
                    "seed {seed}: {d:?} over cap"
                );
                prev = d;
            }
            // Deep attempts saturate at the cap exactly.
            assert_eq!(sched.delay(24), Duration::from_millis(500));
        }
    }
}
