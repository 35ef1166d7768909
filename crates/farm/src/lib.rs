//! # photon-farm
//!
//! Fault-tolerant multi-tenant chip farm: a pool of (possibly faulty)
//! optical chips shared between tenants under supervised scheduling,
//! admission control, and quarantine.
//!
//! The farm runs each submitted [`JobSpec`] as a sequence of *slices*: a
//! slice is one invocation of the durable training runtime
//! ([`Trainer::train_durable`] / [`Trainer::resume`]) with an epoch budget
//! ([`DurableOptions::epoch_budget`]) set by the deficit-round-robin
//! scheduler. Because every committed epoch lives in the job's run journal
//! and every RNG stream re-derives from the root seed, a slice can end —
//! by preemption, watchdog timeout, or a chaos kill — and the next slice
//! resumes **bitwise identically**, on the same worker or another one.
//! Worker-side faults (hung lab links) only ever poison *attempts*, which
//! the watchdog discards; they can never corrupt committed state.
//!
//! Supervision: each worker carries a rolling-window [`HealthMonitor`].
//! Slices that burn their watchdog budget count against the worker; enough
//! failures walk it healthy → degraded → quarantined, after which it is
//! never dispatched to again and its in-flight jobs migrate. The
//! [`ChaosPlan`] scripts worker kills deterministically for tests and CI
//! gates.
//!
//! Accounting: every chip query is attributed to exactly one
//! (tenant, worker) pair — including queries burned by discarded attempts
//! — and [`Farm::run`] reconciles the per-tenant, per-worker, and per-job
//! ledgers at shutdown. Jobs end [`JobResult::Completed`] or
//! [`JobResult::Rejected`] with a typed [`RejectReason`]; the farm never
//! loses one.
//!
//! ```no_run
//! use photon_core::{Method, TaskSpec, TrainConfig};
//! use photon_farm::{Farm, FarmConfig, JobSpec, TenantSpec, WorkerSpec};
//!
//! let config = FarmConfig::new("/tmp/farm-journals");
//! let workers = vec![WorkerSpec::clean("w0"), WorkerSpec::hanging("w1", 0.02, 9)];
//! let tenants = vec![TenantSpec::new("alice"), TenantSpec::new("bob")];
//! let mut farm = Farm::new(config, workers, tenants);
//! let mut train = TrainConfig::quick(4);
//! train.epochs = 6;
//! farm.submit(JobSpec::new("a0", "alice", TaskSpec::quick(4), Method::ZoGaussian, train))
//!     .unwrap();
//! let report = farm.run();
//! assert_eq!(report.lost(), 0);
//! assert!(report.ledgers_reconcile());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod chaos;
mod health;
mod online;
mod resilience;
mod scheduler;
mod serving;

pub use chaos::{ChaosPlan, KillSpec};
pub use health::{ChipHealth, HealthMonitor, HealthPolicy, HealthTransition};
pub use online::{run_online, CycleRecord, OnlineError, OnlineOptions, OnlineOutcome, ONLINE_WAL};
pub use resilience::{
    BreakerPolicy, BreakerState, BreakerTransition, BrownoutController, BrownoutPolicy,
    CircuitBreaker, HedgeDelayTracker, HedgePolicy, RollingWindow, ServingTier, TierTransition,
};
pub use scheduler::{JobId, JobSpec, RejectReason, Rejection, TenantSpec};
pub use serving::{CoalescePolicy, DrainDecision, RequestQueue, ServeRequest, NO_DEADLINE};

use std::path::PathBuf;
use std::time::Duration;

use photon_core::{
    build_task, AbortReason, DurableOptions, RunOutcome, TrainOutcome, Trainer, WatchdogPolicy,
};
use photon_exec::ExecPool;
use photon_faults::{FaultPlan, FaultyChip, HangConfig};
use photon_photonics::OnnChip;
use photon_trace::{TraceEvent, TraceHandle};

use scheduler::{DrrScheduler, Pick};

/// One physical worker: a chip slot plus the lab link that reaches it.
///
/// The worker does **not** own job chip state — jobs carry their chip
/// recipe and rebuild it each slice, which is what makes migration safe.
/// What the worker contributes is its *infrastructure* failure mode: a
/// hang probability on its lab link, injected as an outer
/// [`FaultyChip`] wrapper whose hangs the watchdog converts into
/// discarded attempts.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSpec {
    /// Worker name (must be unique within the farm).
    pub name: String,
    /// Probability any chip read over this worker's link hangs.
    pub hang_prob: f64,
    /// Seed of the worker's fault plan.
    pub fault_seed: u64,
}

impl WorkerSpec {
    /// A worker with a clean link.
    pub fn clean(name: &str) -> Self {
        WorkerSpec {
            name: name.to_string(),
            hang_prob: 0.0,
            fault_seed: 0,
        }
    }

    /// A worker whose link hangs with probability `prob` per read,
    /// deterministically under `seed`.
    pub fn hanging(name: &str, prob: f64, seed: u64) -> Self {
        WorkerSpec {
            name: name.to_string(),
            hang_prob: prob,
            fault_seed: seed,
        }
    }
}

/// Farm-wide configuration.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Directory for per-job run journals (created on demand).
    pub journal_dir: PathBuf,
    /// Watchdog policy applied to every slice.
    pub watchdog: WatchdogPolicy,
    /// Health ladder thresholds.
    pub health: HealthPolicy,
    /// Scripted failures (empty by default).
    pub chaos: ChaosPlan,
    /// Telemetry sink for farm events (chip health, job state, tenant
    /// ledgers). Job-internal events flow through each job's own
    /// `TrainConfig::trace`.
    pub trace: TraceHandle,
    /// Worker threads for slice execution. `None` honours
    /// `PHOTON_THREADS`.
    pub parallelism: Option<usize>,
    /// Watchdog-timeout slices a single job may accumulate before it is
    /// rejected as failed (bounds poison-pill jobs).
    pub max_job_timeouts: u32,
    /// Hard cap on scheduler rounds (safety valve; generous by default).
    pub max_rounds: u64,
}

impl FarmConfig {
    /// Defaults: standard watchdog and health policy, no chaos, null
    /// trace, 5 timeout slices per job, 10 000 rounds.
    pub fn new(journal_dir: impl Into<PathBuf>) -> Self {
        FarmConfig {
            journal_dir: journal_dir.into(),
            watchdog: WatchdogPolicy::standard(),
            health: HealthPolicy::standard(),
            chaos: ChaosPlan::none(),
            trace: TraceHandle::null(),
            parallelism: None,
            max_job_timeouts: 5,
            max_rounds: 10_000,
        }
    }

    /// Replaces the watchdog policy.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: WatchdogPolicy) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Replaces the health policy.
    #[must_use]
    pub fn with_health(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }

    /// Installs a chaos plan.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        self.chaos = chaos;
        self
    }

    /// Attaches a telemetry sink.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }
}

/// How a job ended. Every submitted job reaches exactly one of these.
#[derive(Debug, Clone)]
pub enum JobResult {
    /// The run finished all epochs; the outcome is bitwise identical to an
    /// uninterrupted single-chip run with the same spec.
    Completed(Box<TrainOutcome>),
    /// The job was turned away or shed, with a typed reason.
    Rejected(RejectReason),
}

impl JobResult {
    /// The training outcome, if the job completed.
    pub fn completed(&self) -> Option<&TrainOutcome> {
        match self {
            JobResult::Completed(out) => Some(out),
            JobResult::Rejected(_) => None,
        }
    }

    /// The rejection reason, if the job was rejected.
    pub fn rejected(&self) -> Option<&RejectReason> {
        match self {
            JobResult::Completed(_) => None,
            JobResult::Rejected(reason) => Some(reason),
        }
    }
}

#[derive(Debug)]
enum JobPhase {
    Queued,
    Running,
    Done(JobResult),
}

#[derive(Debug)]
struct JobRuntime {
    spec: JobSpec,
    tenant: usize,
    journal: PathBuf,
    /// Whether a journal exists (first slice ran), i.e. the next slice
    /// resumes instead of starting fresh.
    started: bool,
    epochs_done: usize,
    queries: u64,
    slices: u32,
    timeouts: u32,
    migrations: u32,
    last_worker: Option<usize>,
    phase: JobPhase,
}

#[derive(Debug)]
struct WorkerState {
    spec: WorkerSpec,
    monitor: HealthMonitor,
    dispatches: u64,
    queries: u64,
    slices: u32,
    hangs: u64,
    timeouts: u32,
}

/// Everything one slice needs, detached from the farm so slices of a round
/// can run on pool threads.
#[derive(Debug)]
struct SliceInput {
    job: JobId,
    tenant: usize,
    worker: usize,
    spec: JobSpec,
    journal: PathBuf,
    started: bool,
    hang_prob: f64,
    fault_seed: u64,
    watchdog: WatchdogPolicy,
    epochs: usize,
    kill_after: Option<usize>,
}

#[derive(Debug)]
enum SliceOutcome {
    Completed(Box<TrainOutcome>),
    Preempted {
        epochs_done: usize,
    },
    TimedOut {
        epochs_done: usize,
        epoch: usize,
        timeouts: u32,
    },
    Failed(String),
}

#[derive(Debug)]
struct SliceReport {
    job: JobId,
    tenant: usize,
    worker: usize,
    killed: bool,
    outcome: SliceOutcome,
    queries: u64,
    hangs: u64,
}

/// Runs one slice: rebuild the job's chip from its recipe, wrap it in the
/// worker's link faults, and drive the durable runtime for up to `epochs`
/// epochs (fewer if a chaos kill is scripted).
fn run_slice(inp: &SliceInput) -> SliceReport {
    let budget = inp.kill_after.map_or(inp.epochs, |k| k.min(inp.epochs));
    let fail = |detail: String| SliceReport {
        job: inp.job,
        tenant: inp.tenant,
        worker: inp.worker,
        killed: inp.kill_after.is_some(),
        outcome: SliceOutcome::Failed(detail),
        queries: 0,
        hangs: 0,
    };
    let task = match build_task(&inp.spec.task, inp.spec.task_seed) {
        Ok(task) => task,
        Err(e) => return fail(e.to_string()),
    };
    // Inner wrapper: the job's own chip faults (content-hashed, so the
    // rebuilt chip replays identically on any worker). Outer wrapper: this
    // worker's link hangs. The trainer sees the outer chip, so its abort
    // flag — the one the watchdog raises — unblocks the hangs.
    let job_plan = inp
        .spec
        .chip_faults
        .clone()
        .unwrap_or_else(|| FaultPlan::new(inp.spec.task_seed));
    let link_plan = FaultPlan::new(inp.fault_seed).with_hangs(HangConfig {
        prob: inp.hang_prob,
        max_block: Duration::from_secs(5),
    });
    let chip = FaultyChip::new(FaultyChip::new(task.chip, job_plan), link_plan);
    let trainer = Trainer::new(&chip, &task.train, &task.test, task.head);
    let opts = DurableOptions::new(&inp.journal, inp.spec.root_seed)
        .with_watchdog(inp.watchdog)
        .with_epoch_budget(budget);
    let result = if inp.started {
        trainer.resume(&inp.spec.config, &opts)
    } else {
        trainer.train_durable(inp.spec.method, &inp.spec.config, &opts)
    };
    let queries = chip.query_count();
    let hangs = chip.fault_counts().hung;
    let outcome = match result {
        Ok(RunOutcome::Completed(out)) => SliceOutcome::Completed(Box::new(out)),
        Ok(RunOutcome::Aborted {
            epochs_completed,
            reason: AbortReason::Preempted { .. },
            ..
        }) => SliceOutcome::Preempted {
            epochs_done: epochs_completed,
        },
        Ok(RunOutcome::Aborted {
            epochs_completed,
            reason: AbortReason::QueryDeadline { epoch, timeouts },
            ..
        }) => SliceOutcome::TimedOut {
            epochs_done: epochs_completed,
            epoch,
            timeouts,
        },
        Err(e) => SliceOutcome::Failed(e.to_string()),
    };
    SliceReport {
        job: inp.job,
        tenant: inp.tenant,
        worker: inp.worker,
        killed: inp.kill_after.is_some(),
        outcome,
        queries,
        hangs,
    }
}

/// Terminal record of one job in the [`FarmReport`], in submission order.
#[derive(Debug)]
pub struct JobOutcome {
    /// Job id (submission order).
    pub id: JobId,
    /// Job name as submitted.
    pub name: String,
    /// Owning tenant.
    pub tenant: String,
    /// Terminal result. `None` only if the farm stalled before the job
    /// reached a terminal state — [`FarmReport::lost`] counts these, and a
    /// correct farm produces none.
    pub result: Option<JobResult>,
    /// Chip queries attributed to the job (discarded attempts included).
    pub queries: u64,
    /// Slices dispatched.
    pub slices: u32,
    /// Times the job resumed on a different worker than its previous
    /// slice.
    pub migrations: u32,
    /// Worker that ran the final slice.
    pub last_worker: Option<String>,
}

/// Per-tenant ledger at shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Total chip queries attributed to the tenant.
    pub queries: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs rejected (admission or shed).
    pub rejected: u64,
}

/// Per-worker ledger at shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Worker name.
    pub name: String,
    /// Final health state.
    pub health: ChipHealth,
    /// Chip queries served.
    pub queries: u64,
    /// Slices executed.
    pub slices: u32,
    /// Reads that hung on this worker's link.
    pub hangs: u64,
    /// Watchdog timeouts charged to this worker.
    pub timeouts: u32,
    /// Slices dispatched to it (≥ `slices` only if the farm stalled).
    pub dispatches: u64,
}

/// Shutdown summary of a farm run.
#[derive(Debug)]
pub struct FarmReport {
    /// One entry per submitted job, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Per-tenant ledgers.
    pub tenants: Vec<TenantReport>,
    /// Per-worker ledgers.
    pub workers: Vec<WorkerReport>,
    /// Scheduler rounds executed.
    pub rounds: u64,
}

impl FarmReport {
    /// Jobs that never reached a terminal state. A correct farm returns 0.
    pub fn lost(&self) -> usize {
        self.jobs.iter().filter(|j| j.result.is_none()).count()
    }

    /// Whether chip spend reconciles: the sum over tenant ledgers, the sum
    /// over worker ledgers, and the sum over job ledgers must agree —
    /// every query is attributed exactly once on each axis.
    pub fn ledgers_reconcile(&self) -> bool {
        let by_tenant: u64 = self.tenants.iter().map(|t| t.queries).sum();
        let by_worker: u64 = self.workers.iter().map(|w| w.queries).sum();
        let by_job: u64 = self.jobs.iter().map(|j| j.queries).sum();
        by_tenant == by_worker && by_worker == by_job
    }

    /// The completed outcome of the job named `name`, if any.
    pub fn completed(&self, name: &str) -> Option<&TrainOutcome> {
        self.jobs
            .iter()
            .find(|j| j.name == name)
            .and_then(|j| j.result.as_ref())
            .and_then(|r| r.completed())
    }
}

/// The farm: workers, tenants, and the scheduling loop.
#[derive(Debug)]
pub struct Farm {
    config: FarmConfig,
    workers: Vec<WorkerState>,
    sched: DrrScheduler,
    jobs: Vec<JobRuntime>,
    rounds: u64,
}

impl Farm {
    /// Builds a farm over `workers` serving `tenants`.
    pub fn new(config: FarmConfig, workers: Vec<WorkerSpec>, tenants: Vec<TenantSpec>) -> Self {
        let health = config.health;
        Farm {
            workers: workers
                .into_iter()
                .map(|spec| WorkerState {
                    spec,
                    monitor: HealthMonitor::new(health),
                    dispatches: 0,
                    queries: 0,
                    slices: 0,
                    hangs: 0,
                    timeouts: 0,
                })
                .collect(),
            sched: DrrScheduler::new(tenants),
            jobs: Vec::new(),
            rounds: 0,
            config,
        }
    }

    fn emit_job_state(&self, job: &JobRuntime, state: &str, worker: &str, detail: &str) {
        let (name, tenant) = (job.spec.name.clone(), job.spec.tenant.clone());
        self.config.trace.emit(|| TraceEvent::JobState {
            job: name,
            tenant,
            state: state.to_string(),
            worker: worker.to_string(),
            detail: detail.to_string(),
        });
    }

    fn emit_health(&self, worker: &str, t: &HealthTransition) {
        let worker = worker.to_string();
        let t = t.clone();
        self.config.trace.emit(move || TraceEvent::ChipHealth {
            worker,
            from: t.from.label().to_string(),
            to: t.to.label().to_string(),
            reason: t.reason,
        });
    }

    /// Health attribution for one finished slice: a slice that made
    /// progress (completion or clean preemption) is a success, a watchdog
    /// timeout is charged to the worker. Chaos kills bypass the ladder —
    /// the worker is forced dead right after, whatever the slice did.
    fn record_worker_health(&mut self, worker: usize, ok: bool, killed: bool) {
        if killed {
            return;
        }
        let name = self.workers[worker].spec.name.clone();
        if let Some(t) = self.workers[worker].monitor.record(ok) {
            self.emit_health(&name, &t);
        }
    }

    /// Submits a job. Admission control runs here: an unknown tenant, a
    /// full queue, or an already-spent budget rejects the job immediately
    /// — the rejection is returned *and* recorded in the farm's ledger, so
    /// shutdown accounting still covers it.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, Rejection> {
        let id = JobId(self.jobs.len() as u64);
        let Some(tenant) = self.sched.tenant_index(&spec.tenant) else {
            return Err(self.record_admission_reject(spec, None, RejectReason::UnknownTenant));
        };
        let state = &self.sched.tenants[tenant];
        if state.queue.len() >= state.spec.queue_cap {
            let reason = RejectReason::QueueFull {
                cap: state.spec.queue_cap,
            };
            return Err(self.record_admission_reject(spec, Some(tenant), reason));
        }
        if state.budget_spent() {
            let reason = RejectReason::BudgetExhausted {
                budget: state.spec.query_budget.unwrap_or(0),
                spent: state.queries,
            };
            return Err(self.record_admission_reject(spec, Some(tenant), reason));
        }
        let journal = self
            .config
            .journal_dir
            .join(format!("job-{:04}.journal", id.0));
        let job = JobRuntime {
            spec,
            tenant,
            journal,
            started: false,
            epochs_done: 0,
            queries: 0,
            slices: 0,
            timeouts: 0,
            migrations: 0,
            last_worker: None,
            phase: JobPhase::Queued,
        };
        self.emit_job_state(&job, "queued", "", "");
        debug_assert_eq!(id.0 as usize, self.jobs.len());
        self.jobs.push(job);
        self.sched.tenants[tenant].queue.push_back(id);
        Ok(id)
    }

    fn record_admission_reject(
        &mut self,
        spec: JobSpec,
        tenant: Option<usize>,
        reason: RejectReason,
    ) -> Rejection {
        if let Some(t) = tenant {
            self.sched.tenants[t].rejected += 1;
        }
        let rejection = Rejection {
            job: spec.name.clone(),
            tenant: spec.tenant.clone(),
            reason: reason.clone(),
        };
        let job = JobRuntime {
            tenant: tenant.unwrap_or(usize::MAX),
            journal: PathBuf::new(),
            started: false,
            epochs_done: 0,
            queries: 0,
            slices: 0,
            timeouts: 0,
            migrations: 0,
            last_worker: None,
            phase: JobPhase::Done(JobResult::Rejected(reason.clone())),
            spec,
        };
        self.emit_job_state(&job, "rejected", "", &reason.to_string());
        self.jobs.push(job);
        rejection
    }

    fn finalize(&mut self, id: JobId, result: JobResult, worker: &str) {
        let idx = id.0 as usize;
        match &result {
            JobResult::Completed(_) => {
                let t = self.jobs[idx].tenant;
                self.sched.tenants[t].completed += 1;
                let detail = format!("{} epochs", self.jobs[idx].spec.config.epochs);
                self.emit_job_state(&self.jobs[idx], "completed", worker, &detail);
            }
            JobResult::Rejected(reason) => {
                let t = self.jobs[idx].tenant;
                if t != usize::MAX {
                    self.sched.tenants[t].rejected += 1;
                }
                let detail = reason.to_string();
                self.emit_job_state(&self.jobs[idx], "rejected", worker, &detail);
            }
        }
        self.jobs[idx].phase = JobPhase::Done(result);
    }

    /// Drives every submitted job to a terminal state and returns the
    /// reconciled shutdown report.
    ///
    /// In debug builds the three ledgers (per tenant, per worker, per job)
    /// are asserted to agree; release builds surface the same check via
    /// [`FarmReport::ledgers_reconcile`].
    pub fn run(&mut self) -> FarmReport {
        loop {
            let queued = self
                .jobs
                .iter()
                .any(|j| matches!(j.phase, JobPhase::Queued));
            if !queued {
                break;
            }
            if self.rounds >= self.config.max_rounds {
                self.reject_all_queued(RejectReason::Failed {
                    detail: "scheduler round limit reached".to_string(),
                });
                break;
            }
            self.rounds += 1;
            let free: Vec<usize> = (0..self.workers.len())
                .filter(|&w| self.workers[w].monitor.state().can_serve())
                .collect();
            if free.is_empty() {
                self.reject_all_queued(RejectReason::NoHealthyWorkers);
                break;
            }
            let inputs = self.plan_round(&free);
            if inputs.is_empty() {
                // Shedding drained the queues this round; loop back to
                // re-check for queued work.
                continue;
            }
            let pool = ExecPool::with_threads(self.config.parallelism);
            let reports = pool.map(&inputs, |_, inp| run_slice(inp));
            for report in reports {
                self.absorb(report);
            }
        }
        self.shutdown_report()
    }

    /// Builds this round's slice assignments: one per free worker, picked
    /// by DRR. Shed picks consume no worker.
    fn plan_round(&mut self, free: &[usize]) -> Vec<SliceInput> {
        let mut inputs = Vec::new();
        for &w in free {
            loop {
                let jobs = &self.jobs;
                let pick = self.sched.pick(&|id: JobId| {
                    let job = &jobs[id.0 as usize];
                    job.spec.config.epochs.saturating_sub(job.epochs_done)
                });
                match pick {
                    Pick::Run { job, tenant, grant } => {
                        let worker = &mut self.workers[w];
                        worker.dispatches += 1;
                        let dispatch = worker.dispatches;
                        let worker_name = worker.spec.name.clone();
                        let kill = self.config.chaos.kill_for(&worker_name, dispatch);
                        let idx = job.0 as usize;
                        if let Some(prev) = self.jobs[idx].last_worker {
                            if prev != w {
                                self.jobs[idx].migrations += 1;
                                self.emit_job_state(
                                    &self.jobs[idx],
                                    "migrated",
                                    &worker_name,
                                    &format!("from {}", self.workers[prev].spec.name),
                                );
                            }
                        }
                        self.jobs[idx].phase = JobPhase::Running;
                        self.jobs[idx].last_worker = Some(w);
                        self.jobs[idx].slices += 1;
                        self.emit_job_state(
                            &self.jobs[idx],
                            "dispatched",
                            &worker_name,
                            &format!("slice of {grant} epochs"),
                        );
                        inputs.push(SliceInput {
                            job,
                            tenant,
                            worker: w,
                            spec: self.jobs[idx].spec.clone(),
                            journal: self.jobs[idx].journal.clone(),
                            started: self.jobs[idx].started,
                            hang_prob: self.workers[w].spec.hang_prob,
                            fault_seed: self.workers[w].spec.fault_seed,
                            watchdog: self.config.watchdog,
                            epochs: grant,
                            kill_after: kill,
                        });
                        break;
                    }
                    Pick::Shed {
                        job, budget, spent, ..
                    } => {
                        self.finalize(
                            job,
                            JobResult::Rejected(RejectReason::BudgetExhausted { budget, spent }),
                            "",
                        );
                        // This worker slot is still free; pick again.
                    }
                    Pick::Idle => return inputs,
                }
            }
        }
        inputs
    }

    /// Folds one slice report back into farm state: ledgers, health, and
    /// the job's next move (done, requeue, or reject).
    fn absorb(&mut self, report: SliceReport) {
        let idx = report.job.0 as usize;
        let worker_name = self.workers[report.worker].spec.name.clone();
        {
            let w = &mut self.workers[report.worker];
            w.queries += report.queries;
            w.slices += 1;
            w.hangs += report.hangs;
        }
        self.sched.tenants[report.tenant].queries += report.queries;
        self.jobs[idx].queries += report.queries;

        let killed = report.killed;
        match report.outcome {
            SliceOutcome::Completed(out) => {
                self.jobs[idx].epochs_done = self.jobs[idx].spec.config.epochs;
                self.jobs[idx].started = true;
                self.record_worker_health(report.worker, true, killed);
                self.finalize(report.job, JobResult::Completed(out), &worker_name);
            }
            SliceOutcome::Preempted { epochs_done } => {
                self.jobs[idx].epochs_done = epochs_done;
                self.jobs[idx].started = true;
                self.jobs[idx].phase = JobPhase::Queued;
                self.record_worker_health(report.worker, true, killed);
                self.emit_job_state(
                    &self.jobs[idx],
                    "preempted",
                    &worker_name,
                    &format!("{epochs_done} epochs journaled"),
                );
                self.sched.requeue_front(report.tenant, report.job);
            }
            SliceOutcome::TimedOut {
                epochs_done,
                epoch,
                timeouts,
            } => {
                self.jobs[idx].epochs_done = epochs_done;
                self.jobs[idx].started = true;
                self.jobs[idx].timeouts += 1;
                self.workers[report.worker].timeouts += timeouts;
                self.record_worker_health(report.worker, false, killed);
                if self.jobs[idx].timeouts > self.config.max_job_timeouts {
                    self.finalize(
                        report.job,
                        JobResult::Rejected(RejectReason::Failed {
                            detail: format!(
                                "exceeded {} timed-out slices",
                                self.config.max_job_timeouts
                            ),
                        }),
                        &worker_name,
                    );
                } else {
                    self.jobs[idx].phase = JobPhase::Queued;
                    self.emit_job_state(
                        &self.jobs[idx],
                        "evicted",
                        &worker_name,
                        &format!("watchdog timeout at epoch {epoch}"),
                    );
                    self.sched.requeue_front(report.tenant, report.job);
                }
            }
            SliceOutcome::Failed(detail) => {
                self.finalize(
                    report.job,
                    JobResult::Rejected(RejectReason::Failed { detail }),
                    &worker_name,
                );
            }
        }

        if report.killed {
            if let Some(t) = self.workers[report.worker]
                .monitor
                .force(ChipHealth::Dead, "chaos kill")
            {
                self.emit_health(&worker_name, &t);
            }
        }
    }

    fn reject_all_queued(&mut self, reason: RejectReason) {
        for idx in 0..self.jobs.len() {
            if matches!(self.jobs[idx].phase, JobPhase::Queued) {
                self.finalize(JobId(idx as u64), JobResult::Rejected(reason.clone()), "");
            }
        }
        for t in &mut self.sched.tenants {
            t.queue.clear();
        }
    }

    /// Emits tenant ledgers, reconciles the three accounting axes, and
    /// snapshots the report.
    fn shutdown_report(&mut self) -> FarmReport {
        for t in &self.sched.tenants {
            let (tenant, queries, completed, rejected) =
                (t.spec.name.clone(), t.queries, t.completed, t.rejected);
            self.config.trace.emit(move || TraceEvent::TenantLedger {
                tenant,
                queries,
                jobs_completed: completed,
                jobs_rejected: rejected,
            });
        }
        let by_tenant: u64 = self.sched.tenants.iter().map(|t| t.queries).sum();
        let by_worker: u64 = self.workers.iter().map(|w| w.queries).sum();
        let by_job: u64 = self.jobs.iter().map(|j| j.queries).sum();
        debug_assert_eq!(
            by_tenant, by_worker,
            "tenant ledgers must reconcile with worker chip counters"
        );
        debug_assert_eq!(
            by_job, by_worker,
            "job ledgers must reconcile with worker chip counters"
        );
        self.config.trace.flush();
        FarmReport {
            jobs: self
                .jobs
                .iter()
                .enumerate()
                .map(|(i, j)| JobOutcome {
                    id: JobId(i as u64),
                    name: j.spec.name.clone(),
                    tenant: j.spec.tenant.clone(),
                    result: match &j.phase {
                        JobPhase::Done(result) => Some(result.clone()),
                        JobPhase::Queued | JobPhase::Running => None,
                    },
                    queries: j.queries,
                    slices: j.slices,
                    migrations: j.migrations,
                    last_worker: j.last_worker.map(|w| self.workers[w].spec.name.clone()),
                })
                .collect(),
            tenants: self
                .sched
                .tenants
                .iter()
                .map(|t| TenantReport {
                    name: t.spec.name.clone(),
                    queries: t.queries,
                    completed: t.completed,
                    rejected: t.rejected,
                })
                .collect(),
            workers: self
                .workers
                .iter()
                .map(|w| WorkerReport {
                    name: w.spec.name.clone(),
                    health: w.monitor.state(),
                    queries: w.queries,
                    slices: w.slices,
                    hangs: w.hangs,
                    timeouts: w.timeouts,
                    dispatches: w.dispatches,
                })
                .collect(),
            rounds: self.rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_core::{Method, TaskSpec, TrainConfig};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("photon-farm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quick_job(name: &str, tenant: &str, epochs: usize) -> JobSpec {
        let mut config = TrainConfig::quick(3);
        config.epochs = epochs;
        config.warm_epochs = 2;
        config.threads = Some(1);
        JobSpec::new(name, tenant, TaskSpec::quick(3), Method::ZoGaussian, config)
            .with_task_seed(11)
            .with_root_seed(23)
    }

    #[test]
    fn admission_rejects_unknown_tenant_full_queue_and_spent_budget() {
        let dir = tmp_dir("admission");
        let mut farm = Farm::new(
            FarmConfig::new(&dir),
            vec![WorkerSpec::clean("w0")],
            vec![TenantSpec::new("a").with_queue_cap(1)],
        );
        let err = farm.submit(quick_job("j0", "nobody", 2)).unwrap_err();
        assert_eq!(err.reason, RejectReason::UnknownTenant);
        farm.submit(quick_job("j1", "a", 2)).unwrap();
        let err = farm.submit(quick_job("j2", "a", 2)).unwrap_err();
        assert_eq!(err.reason, RejectReason::QueueFull { cap: 1 });
        // Rejected submissions are still accounted for at shutdown.
        let report = farm.run();
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(report.lost(), 0);
        assert_eq!(
            report.jobs[0].result.as_ref().unwrap().rejected(),
            Some(&RejectReason::UnknownTenant)
        );
        assert!(report.jobs[1]
            .result
            .as_ref()
            .unwrap()
            .completed()
            .is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_job_on_clean_farm_completes() {
        let dir = tmp_dir("single");
        let mut farm = Farm::new(
            FarmConfig::new(&dir),
            vec![WorkerSpec::clean("w0")],
            vec![TenantSpec::new("a").with_quantum(2)],
        );
        farm.submit(quick_job("j0", "a", 5)).unwrap();
        let report = farm.run();
        assert_eq!(report.lost(), 0);
        assert!(report.ledgers_reconcile());
        let out = report.completed("j0").expect("job must complete");
        assert_eq!(out.history.len(), 5);
        // Quantum 2 against 5 epochs → at least 3 slices.
        assert!(
            report.jobs[0].slices >= 3,
            "slices: {}",
            report.jobs[0].slices
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sliced_run_is_bitwise_identical_to_uninterrupted_run() {
        let dir = tmp_dir("bitwise");
        // Uninterrupted single-chip baseline.
        let spec = quick_job("solo", "a", 4);
        let task = build_task(&spec.task, spec.task_seed).unwrap();
        let chip = FaultyChip::new(task.chip, FaultPlan::new(spec.task_seed));
        let trainer = Trainer::new(&chip, &task.train, &task.test, task.head);
        let opts = DurableOptions::new(dir.join("solo.journal"), spec.root_seed);
        let baseline = trainer
            .train_durable(spec.method, &spec.config, &opts)
            .unwrap()
            .completed()
            .unwrap();
        // Same job sliced across two workers, one of which dies.
        let chaos = ChaosPlan::none().with_kill("w0", 1, 1);
        let mut farm = Farm::new(
            FarmConfig::new(&dir).with_chaos(chaos),
            vec![WorkerSpec::clean("w0"), WorkerSpec::clean("w1")],
            vec![TenantSpec::new("a").with_quantum(2)],
        );
        farm.submit(quick_job("farmed", "a", 4)).unwrap();
        let report = farm.run();
        let farmed = report.completed("farmed").expect("job must complete");
        assert_eq!(farmed.theta.as_slice(), baseline.theta.as_slice());
        assert_eq!(farmed.final_eval.accuracy, baseline.final_eval.accuracy);
        assert_eq!(
            report.jobs[0].migrations, 1,
            "job must have migrated off w0"
        );
        assert_eq!(
            report.workers[0].health,
            ChipHealth::Dead,
            "w0 was chaos-killed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_exhaustion_sheds_follow_up_jobs_with_typed_reason() {
        let dir = tmp_dir("budget");
        let mut farm = Farm::new(
            FarmConfig::new(&dir),
            vec![WorkerSpec::clean("w0")],
            // Budget of 1 query: the first job's first slice overruns it,
            // so the second job is shed at its dispatch.
            vec![TenantSpec::new("a").with_query_budget(1).with_quantum(8)],
        );
        farm.submit(quick_job("first", "a", 2)).unwrap();
        farm.submit(quick_job("second", "a", 2)).unwrap();
        let report = farm.run();
        assert_eq!(report.lost(), 0);
        assert!(report.completed("first").is_some());
        match report.jobs[1].result.as_ref().unwrap().rejected() {
            Some(RejectReason::BudgetExhausted { budget: 1, .. }) => {}
            other => panic!("expected budget shed, got {other:?}"),
        }
        assert!(report.ledgers_reconcile());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
