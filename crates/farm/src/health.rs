//! Per-worker health state machine.
//!
//! Every worker in the farm carries a [`HealthMonitor`] fed one boolean per
//! completed slice: did the slice make progress (`Completed` or a clean
//! preemption), or did it burn its watchdog budget? A rolling window of
//! those outcomes drives the ladder
//!
//! ```text
//! Healthy ──failures──▶ Degraded ──more failures──▶ Quarantined
//!    ▲                      │
//!    └────clean streak──────┘                        (absorbing)
//! ```
//!
//! plus a terminal `Dead` state the chaos harness (or an operator) forces
//! directly. `Quarantined` and `Dead` workers are never dispatched to again;
//! jobs journaled on them migrate to surviving workers and resume bitwise
//! identically, because the journal — not the worker — owns the run state.

use std::fmt;

use crate::resilience::RollingWindow;

/// Where a worker sits on the healthy → degraded → quarantined ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipHealth {
    /// Serving normally.
    Healthy,
    /// Still serving, but recent slices have failed; one more burst of
    /// failures quarantines it.
    Degraded,
    /// Pulled from the dispatch rotation. Absorbing: the farm never
    /// un-quarantines a worker within a run.
    Quarantined,
    /// Killed (chaos harness or operator). Absorbing.
    Dead,
}

impl ChipHealth {
    /// Stable lower-case label used in trace events and reports.
    pub fn label(self) -> &'static str {
        match self {
            ChipHealth::Healthy => "healthy",
            ChipHealth::Degraded => "degraded",
            ChipHealth::Quarantined => "quarantined",
            ChipHealth::Dead => "dead",
        }
    }

    /// Whether the scheduler may dispatch new slices to this worker.
    pub fn can_serve(self) -> bool {
        matches!(self, ChipHealth::Healthy | ChipHealth::Degraded)
    }
}

impl fmt::Display for ChipHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Thresholds driving the health ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Rolling window length, in slices.
    pub window: usize,
    /// Failures inside the window that degrade a healthy worker.
    pub degrade_after: u32,
    /// Failures inside the window that quarantine the worker outright.
    pub quarantine_after: u32,
    /// Consecutive clean slices that promote a degraded worker back to
    /// healthy (and wipe its window).
    pub recover_after: u32,
}

impl HealthPolicy {
    /// The default ladder: window of 8 slices, degrade at 2 failures,
    /// quarantine at 4, recover after 3 clean slices in a row.
    pub fn standard() -> Self {
        HealthPolicy {
            window: 8,
            degrade_after: 2,
            quarantine_after: 4,
            recover_after: 3,
        }
    }

    /// A hair-trigger ladder for chaos tests: one failure degrades, two
    /// quarantine.
    pub fn strict() -> Self {
        HealthPolicy {
            window: 4,
            degrade_after: 1,
            quarantine_after: 2,
            recover_after: 2,
        }
    }
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy::standard()
    }
}

/// A state change produced by [`HealthMonitor::record`] or
/// [`HealthMonitor::force`], ready to be emitted as telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTransition {
    /// State before.
    pub from: ChipHealth,
    /// State after.
    pub to: ChipHealth,
    /// Human-readable cause ("3 failed slices in window of 8", "chaos
    /// kill", ...).
    pub reason: String,
}

/// Rolling-window health tracker for one worker.
///
/// The window math (bounded outcome history, failure count, success
/// streak, recovery wipe) is the shared [`RollingWindow`] — the same
/// helper behind the serving layer's [`CircuitBreaker`](crate::CircuitBreaker).
#[derive(Debug)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    window: RollingWindow,
    state: ChipHealth,
}

impl HealthMonitor {
    /// A fresh, healthy monitor.
    pub fn new(policy: HealthPolicy) -> Self {
        HealthMonitor {
            policy,
            window: RollingWindow::new(policy.window),
            state: ChipHealth::Healthy,
        }
    }

    /// Current state.
    pub fn state(&self) -> ChipHealth {
        self.state
    }

    /// Records one slice outcome (`true` = made progress). Returns the
    /// transition it caused, if any. No-op once the worker is quarantined
    /// or dead — those states are absorbing.
    pub fn record(&mut self, ok: bool) -> Option<HealthTransition> {
        if !self.state.can_serve() {
            return None;
        }
        self.window.push(ok);
        let failures = self.window.failures();
        let from = self.state;
        let (to, reason) = if failures >= self.policy.quarantine_after {
            (
                ChipHealth::Quarantined,
                format!(
                    "{failures} failed slices in window of {}",
                    self.window.len()
                ),
            )
        } else if from == ChipHealth::Degraded
            && ok
            && self.window.ok_streak() >= self.policy.recover_after
        {
            (
                ChipHealth::Healthy,
                format!("{} clean slices in a row", self.window.ok_streak()),
            )
        } else if failures >= self.policy.degrade_after {
            (
                ChipHealth::Degraded,
                format!(
                    "{failures} failed slices in window of {}",
                    self.window.len()
                ),
            )
        } else {
            (from, String::new())
        };
        if to == from {
            return None;
        }
        self.state = to;
        if to == ChipHealth::Healthy {
            // Fresh slate after a recovery: old failures no longer count.
            self.window.clear();
        }
        Some(HealthTransition { from, to, reason })
    }

    /// Forces the worker into `to` (chaos kill, operator quarantine).
    /// Returns the transition unless the worker was already there.
    pub fn force(&mut self, to: ChipHealth, reason: &str) -> Option<HealthTransition> {
        let from = self.state;
        if from == to {
            return None;
        }
        self.state = to;
        Some(HealthTransition {
            from,
            to,
            reason: reason.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> HealthPolicy {
        HealthPolicy {
            window: 4,
            degrade_after: 2,
            quarantine_after: 3,
            recover_after: 2,
        }
    }

    #[test]
    fn escalates_healthy_to_degraded_to_quarantined() {
        let mut m = HealthMonitor::new(policy());
        assert_eq!(m.state(), ChipHealth::Healthy);
        assert!(m.record(true).is_none());
        assert!(m.record(false).is_none(), "one failure is tolerated");
        let t = m.record(false).expect("second failure degrades");
        assert_eq!((t.from, t.to), (ChipHealth::Healthy, ChipHealth::Degraded));
        let t = m.record(false).expect("third failure quarantines");
        assert_eq!(
            (t.from, t.to),
            (ChipHealth::Degraded, ChipHealth::Quarantined)
        );
        // Quarantine is absorbing: further outcomes are ignored.
        assert!(m.record(true).is_none());
        assert!(m.record(false).is_none());
        assert_eq!(m.state(), ChipHealth::Quarantined);
    }

    #[test]
    fn clean_streak_recovers_a_degraded_worker() {
        let mut m = HealthMonitor::new(policy());
        m.record(false);
        m.record(false);
        assert_eq!(m.state(), ChipHealth::Degraded);
        assert!(m.record(true).is_none(), "one clean slice is not enough");
        let t = m.record(true).expect("streak of 2 recovers");
        assert_eq!((t.from, t.to), (ChipHealth::Degraded, ChipHealth::Healthy));
        // Recovery wipes the window: the old failures no longer count
        // toward a fresh degradation.
        assert!(m.record(false).is_none());
        assert_eq!(m.state(), ChipHealth::Healthy);
    }

    #[test]
    fn forced_kill_overrides_any_state_once() {
        let mut m = HealthMonitor::new(policy());
        let t = m.force(ChipHealth::Dead, "chaos kill").unwrap();
        assert_eq!((t.from, t.to), (ChipHealth::Healthy, ChipHealth::Dead));
        assert!(m.force(ChipHealth::Dead, "again").is_none());
        assert!(!m.state().can_serve());
        assert!(m.record(true).is_none(), "dead workers record nothing");
    }

    #[test]
    fn window_slides_old_failures_out() {
        let mut m = HealthMonitor::new(HealthPolicy {
            window: 3,
            degrade_after: 2,
            quarantine_after: 99,
            recover_after: 99,
        });
        m.record(false);
        // Three clean slices push the failure out of the window.
        m.record(true);
        m.record(true);
        m.record(true);
        assert!(m.record(false).is_none(), "only 1 failure in window now");
        assert_eq!(m.state(), ChipHealth::Healthy);
    }
}
