//! Tenants, jobs, admission control, and deficit-round-robin scheduling.
//!
//! The farm shares a pool of chips between *tenants*. Each tenant has a
//! bounded submission queue (backpressure), an optional chip-query budget
//! (metering), and a DRR quantum (its fair share, in training epochs).
//! Scheduling is classic deficit round robin at epoch granularity: each
//! visit tops the tenant's deficit up by its quantum, and the head job gets
//! a slice of `min(deficit, epochs remaining)` epochs. A tenant that keeps
//! submitting long jobs therefore cannot starve one that submits short
//! ones, and a tenant whose budget runs dry has its queued jobs shed with a
//! typed [`RejectReason::BudgetExhausted`] — never silently dropped.
//!
//! Everything here is deterministic: tenant order, queue order, and the
//! deficit arithmetic fully determine the dispatch sequence.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use photon_core::{Method, TaskSpec, TrainConfig};
use photon_faults::FaultPlan;

/// Handle to a submitted job. Indexes the farm's job table; also the order
/// of submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Why a job was rejected instead of trained. Every rejection is typed and
/// final — a rejected job is accounted for, not lost.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The submission named a tenant the farm does not know.
    UnknownTenant,
    /// The tenant's submission queue is full (backpressure).
    QueueFull {
        /// The queue capacity that was hit.
        cap: usize,
    },
    /// The tenant's chip-query budget is spent; the job was shed.
    BudgetExhausted {
        /// The configured budget.
        budget: u64,
        /// Queries already spent when the job was shed.
        spent: u64,
    },
    /// Every worker is quarantined or dead; queued jobs cannot run.
    NoHealthyWorkers,
    /// The job itself failed (bad configuration, journal error, or it
    /// exhausted the farm's retry allowance).
    Failed {
        /// Human-readable cause.
        detail: String,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::UnknownTenant => write!(f, "unknown tenant"),
            RejectReason::QueueFull { cap } => write!(f, "tenant queue full (cap {cap})"),
            RejectReason::BudgetExhausted { budget, spent } => {
                write!(f, "query budget exhausted ({spent} spent of {budget})")
            }
            RejectReason::NoHealthyWorkers => write!(f, "no healthy workers left"),
            RejectReason::Failed { detail } => write!(f, "failed: {detail}"),
        }
    }
}

/// A typed rejection: which job, whose, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// Job name as submitted.
    pub job: String,
    /// Tenant the job belonged to.
    pub tenant: String,
    /// The typed cause.
    pub reason: RejectReason,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {:?} of tenant {:?} rejected: {}",
            self.job, self.tenant, self.reason
        )
    }
}

impl Error for Rejection {}

/// One tenant's contract with the farm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Tenant name (must be unique within the farm).
    pub name: String,
    /// Total chip queries this tenant may spend, across all its jobs and
    /// including queries burned by discarded (timed-out) attempts. `None`
    /// means unmetered.
    pub query_budget: Option<u64>,
    /// Maximum jobs queued at once; submissions beyond it are rejected
    /// with [`RejectReason::QueueFull`].
    pub queue_cap: usize,
    /// DRR quantum in training epochs: the slice credit this tenant earns
    /// per scheduler visit.
    pub quantum: usize,
}

impl TenantSpec {
    /// A tenant with no budget cap, a queue of 64, and a quantum of 2
    /// epochs.
    pub fn new(name: &str) -> Self {
        TenantSpec {
            name: name.to_string(),
            query_budget: None,
            queue_cap: 64,
            quantum: 2,
        }
    }

    /// Caps total chip queries.
    #[must_use]
    pub fn with_query_budget(mut self, budget: u64) -> Self {
        self.query_budget = Some(budget);
        self
    }

    /// Caps the submission queue.
    #[must_use]
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Sets the DRR quantum (minimum 1 epoch).
    #[must_use]
    pub fn with_quantum(mut self, epochs: usize) -> Self {
        self.quantum = epochs.max(1);
        self
    }
}

/// A unit of tenant work: one durable training run.
///
/// The job owns its chip *recipe* — task spec, task seed, and optional
/// fault plan — not a chip instance. Every slice rebuilds the chip from the
/// recipe, and because fault decisions are content-hashed (pure in the
/// plan seed and the query), the rebuilt chip behaves identically on
/// whichever worker the slice lands on. That, plus the run journal, is
/// what makes migration bitwise-safe.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job name (reporting only; need not be unique).
    pub name: String,
    /// Owning tenant.
    pub tenant: String,
    /// What to train on.
    pub task: TaskSpec,
    /// Seed for [`photon_core::build_task`]; fixes the chip and data.
    pub task_seed: u64,
    /// Optional job-level chip faults (drift, spikes, drops). Keep hangs
    /// out of job plans — hangs model the *worker's* lab link and belong
    /// in [`WorkerSpec`](crate::WorkerSpec).
    pub chip_faults: Option<FaultPlan>,
    /// Stage-2 training method.
    pub method: Method,
    /// Training configuration.
    pub config: TrainConfig,
    /// Root seed of the durable run (drives every per-epoch RNG stream).
    pub root_seed: u64,
}

impl JobSpec {
    /// A job with default seeds (`task_seed` 1, `root_seed` 7) and no
    /// job-level faults.
    pub fn new(
        name: &str,
        tenant: &str,
        task: TaskSpec,
        method: Method,
        config: TrainConfig,
    ) -> Self {
        JobSpec {
            name: name.to_string(),
            tenant: tenant.to_string(),
            task,
            task_seed: 1,
            chip_faults: None,
            method,
            config,
            root_seed: 7,
        }
    }

    /// Sets the task seed (chip + data).
    #[must_use]
    pub fn with_task_seed(mut self, seed: u64) -> Self {
        self.task_seed = seed;
        self
    }

    /// Sets the durable-run root seed.
    #[must_use]
    pub fn with_root_seed(mut self, seed: u64) -> Self {
        self.root_seed = seed;
        self
    }
}

/// Live per-tenant accounting.
#[derive(Debug)]
pub(crate) struct TenantState {
    pub spec: TenantSpec,
    pub queue: VecDeque<JobId>,
    pub deficit: usize,
    /// Chip queries spent so far (includes discarded attempts — the chip
    /// was queried whether or not the epoch committed).
    pub queries: u64,
    pub completed: u64,
    pub rejected: u64,
}

impl TenantState {
    fn new(spec: TenantSpec) -> Self {
        TenantState {
            spec,
            queue: VecDeque::new(),
            deficit: 0,
            queries: 0,
            completed: 0,
            rejected: 0,
        }
    }

    /// Whether the tenant's budget is spent.
    pub fn budget_spent(&self) -> bool {
        self.spec
            .query_budget
            .is_some_and(|budget| self.queries >= budget)
    }
}

/// One scheduling decision from [`DrrScheduler::pick`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Pick {
    /// Dispatch `job` for a slice of `grant` epochs.
    Run {
        job: JobId,
        tenant: usize,
        grant: usize,
    },
    /// `job`'s tenant has no budget left; shed it.
    Shed {
        job: JobId,
        tenant: usize,
        budget: u64,
        spent: u64,
    },
    /// Nothing runnable anywhere.
    Idle,
}

/// Deficit-round-robin scheduler over the farm's tenants.
#[derive(Debug)]
pub(crate) struct DrrScheduler {
    pub tenants: Vec<TenantState>,
    cursor: usize,
}

impl DrrScheduler {
    pub fn new(specs: Vec<TenantSpec>) -> Self {
        // `TenantSpec::with_quantum` clamps to 1, but `quantum` is a public
        // field: a hand-built spec can still carry 0. Reject it here — a
        // zero-quantum tenant earns no credit and would starve forever
        // (`pick`'s `.max(1)` papers over it, but silently granting epochs
        // a spec said the tenant should never get is worse than refusing
        // the spec outright).
        for spec in &specs {
            assert!(
                spec.quantum >= 1,
                "tenant {:?} has a zero DRR quantum and could never be scheduled",
                spec.name
            );
        }
        DrrScheduler {
            tenants: specs.into_iter().map(TenantState::new).collect(),
            cursor: 0,
        }
    }

    /// Index of the tenant named `name`.
    pub fn tenant_index(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.spec.name == name)
    }

    /// Picks the next job to dispatch. `remaining` maps a job to its
    /// outstanding epoch count. Visits tenants round-robin from the
    /// cursor; each visit tops up the tenant's deficit by its quantum and
    /// grants the head job `min(deficit, remaining)` epochs.
    pub fn pick(&mut self, remaining: &dyn Fn(JobId) -> usize) -> Pick {
        let n = self.tenants.len();
        for _ in 0..n {
            let idx = self.cursor % n.max(1);
            self.cursor = (self.cursor + 1) % n.max(1);
            let tenant = &mut self.tenants[idx];
            let Some(&head) = tenant.queue.front() else {
                // Classic DRR: an empty queue forfeits its deficit.
                tenant.deficit = 0;
                continue;
            };
            if let Some(budget) = tenant.spec.query_budget {
                if tenant.queries >= budget {
                    tenant.queue.pop_front();
                    return Pick::Shed {
                        job: head,
                        tenant: idx,
                        budget,
                        spent: tenant.queries,
                    };
                }
            }
            tenant.deficit = tenant.deficit.saturating_add(tenant.spec.quantum.max(1));
            let need = remaining(head).max(1);
            let grant = tenant.deficit.min(need);
            tenant.deficit -= grant;
            tenant.queue.pop_front();
            if tenant.queue.is_empty() {
                tenant.deficit = 0;
            }
            return Pick::Run {
                job: head,
                tenant: idx,
                grant,
            };
        }
        Pick::Idle
    }

    /// Puts a preempted or timed-out job back at the head of its tenant's
    /// queue so the run continues as soon as the tenant is next served.
    pub fn requeue_front(&mut self, tenant: usize, job: JobId) {
        self.tenants[tenant].queue.push_front(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(quanta: &[usize]) -> DrrScheduler {
        DrrScheduler::new(
            quanta
                .iter()
                .enumerate()
                .map(|(i, &q)| TenantSpec::new(&format!("t{i}")).with_quantum(q))
                .collect(),
        )
    }

    #[test]
    fn drr_interleaves_tenants_by_quantum() {
        let mut s = sched(&[2, 2]);
        s.tenants[0].queue.push_back(JobId(0));
        s.tenants[1].queue.push_back(JobId(1));
        // Both jobs need 5 epochs; quanta of 2 → slices of 2,2,1 each,
        // alternating tenants.
        let mut left = [5usize, 5usize];
        let mut order = Vec::new();
        loop {
            let l = left;
            match s.pick(&move |j: JobId| l[j.0 as usize]) {
                Pick::Run { job, tenant, grant } => {
                    order.push((job.0, grant));
                    left[job.0 as usize] -= grant;
                    if left[job.0 as usize] > 0 {
                        s.requeue_front(tenant, job);
                    }
                }
                Pick::Idle => break,
                other => panic!("unexpected pick: {other:?}"),
            }
        }
        assert_eq!(
            order,
            vec![(0, 2), (1, 2), (0, 2), (1, 2), (0, 1), (1, 1)],
            "tenants must alternate, grants follow the quantum"
        );
        assert_eq!(left, [0, 0]);
    }

    #[test]
    fn deficit_accumulates_for_short_grants() {
        // A job with 1 epoch left against a quantum of 3 banks the unused
        // credit for the tenant's next job.
        let mut s = sched(&[3]);
        s.tenants[0].queue.push_back(JobId(0));
        s.tenants[0].queue.push_back(JobId(1));
        let rem = |j: JobId| if j.0 == 0 { 1 } else { 10 };
        match s.pick(&rem) {
            Pick::Run { job, grant, .. } => {
                assert_eq!((job.0, grant), (0, 1));
            }
            other => panic!("{other:?}"),
        }
        // 2 banked + 3 fresh = 5 for the next job.
        match s.pick(&rem) {
            Pick::Run { job, grant, .. } => {
                assert_eq!((job.0, grant), (1, 5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exhausted_budget_sheds_instead_of_running() {
        let mut s = DrrScheduler::new(vec![TenantSpec::new("t0").with_query_budget(100)]);
        s.tenants[0].queue.push_back(JobId(0));
        s.tenants[0].queries = 100;
        match s.pick(&|_| 4) {
            Pick::Shed {
                job, budget, spent, ..
            } => {
                assert_eq!(job, JobId(0));
                assert_eq!((budget, spent), (100, 100));
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(s.pick(&|_| 4), Pick::Idle, "queue is empty after the shed");
    }

    #[test]
    fn idle_when_all_queues_empty() {
        let mut s = sched(&[2, 2, 2]);
        assert_eq!(s.pick(&|_| 1), Pick::Idle);
    }

    #[test]
    #[should_panic(expected = "zero DRR quantum")]
    fn zero_quantum_tenant_rejected_at_construction() {
        // `with_quantum` clamps, but the field is public — forge the
        // invalid spec directly.
        let mut spec = TenantSpec::new("freeloader");
        spec.quantum = 0;
        let _ = DrrScheduler::new(vec![spec]);
    }

    #[test]
    fn banked_deficit_never_exceeds_one_quantum_after_idle_round() {
        // Quantum 3, a 1-epoch job: the visit banks 2 epochs of credit,
        // but the queue empties with the grant, so classic DRR forfeits
        // the bank. After the idle round, the next job must be granted
        // exactly one quantum — not quantum + stale credit.
        let mut s = sched(&[3]);
        s.tenants[0].queue.push_back(JobId(0));
        match s.pick(&|_| 1) {
            Pick::Run { grant, .. } => assert_eq!(grant, 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.pick(&|_| 1), Pick::Idle, "queue drained");
        assert_eq!(s.tenants[0].deficit, 0, "idle queue forfeits its bank");
        s.tenants[0].queue.push_back(JobId(1));
        match s.pick(&|_| 100) {
            Pick::Run { job, grant, .. } => {
                assert_eq!(job, JobId(1));
                assert_eq!(grant, 3, "one fresh quantum, no stale credit");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn single_tenant_degenerates_to_fifo() {
        // With one tenant there is no cross-tenant fairness to arbitrate:
        // jobs must complete strictly in submission order, each running to
        // completion (across possibly several slices) before the next
        // starts.
        let mut s = sched(&[2]);
        for id in 0..3 {
            s.tenants[0].queue.push_back(JobId(id));
        }
        let mut left = [3usize, 2, 1];
        let mut slices = Vec::new();
        loop {
            let l = left;
            match s.pick(&move |j: JobId| l[j.0 as usize]) {
                Pick::Run { job, tenant, grant } => {
                    slices.push((job.0, grant));
                    left[job.0 as usize] -= grant;
                    if left[job.0 as usize] > 0 {
                        s.requeue_front(tenant, job);
                    }
                }
                Pick::Idle => break,
                other => panic!("unexpected pick: {other:?}"),
            }
        }
        assert_eq!(left, [0, 0, 0]);
        assert_eq!(
            slices,
            vec![(0, 2), (0, 1), (1, 2), (2, 1)],
            "strict FIFO: each job finishes before its successor starts"
        );
    }
}
