//! Deterministic chaos schedules for farm tests and CI gates.
//!
//! A [`ChaosPlan`] scripts infrastructure failures against *workers* (never
//! against job state): kill a worker partway through its nth slice.
//! Schedules are keyed on each worker's own dispatch counter, so a plan
//! replays identically however the scheduler interleaves tenants — which is
//! what lets the chaos gate assert bitwise-exact results.
//!
//! Hang injection is not scripted here: hangs are a property of a worker's
//! lab link, configured per worker via
//! [`WorkerSpec::hanging`](crate::WorkerSpec::hanging) and converted by the
//! watchdog into discarded attempts.

/// Kill one worker during one of its slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillSpec {
    /// Worker name.
    pub worker: String,
    /// The worker's 1-based dispatch ordinal on which the kill lands.
    pub at_dispatch: u64,
    /// Epochs the doomed slice is allowed to commit before the worker
    /// dies. `0` kills it before any epoch of that slice lands.
    pub after_epochs: usize,
}

/// A scripted, seedless, fully deterministic failure schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Scheduled worker kills.
    pub kills: Vec<KillSpec>,
}

impl ChaosPlan {
    /// An empty plan: no scripted failures.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Adds a kill: `worker` dies on its `at_dispatch`-th slice after that
    /// slice commits `after_epochs` epochs.
    #[must_use]
    pub fn with_kill(mut self, worker: &str, at_dispatch: u64, after_epochs: usize) -> Self {
        self.kills.push(KillSpec {
            worker: worker.to_string(),
            at_dispatch,
            after_epochs,
        });
        self
    }

    /// If `worker`'s `dispatch`-th slice is scripted to die, the number of
    /// epochs it may commit first.
    pub(crate) fn kill_for(&self, worker: &str, dispatch: u64) -> Option<usize> {
        self.kills
            .iter()
            .find(|k| k.worker == worker && k.at_dispatch == dispatch)
            .map(|k| k.after_epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_matches_only_its_dispatch_ordinal() {
        let plan = ChaosPlan::none().with_kill("w0", 2, 1);
        assert_eq!(plan.kill_for("w0", 1), None);
        assert_eq!(plan.kill_for("w0", 2), Some(1));
        assert_eq!(plan.kill_for("w0", 3), None);
        assert_eq!(plan.kill_for("w1", 2), None);
    }
}
