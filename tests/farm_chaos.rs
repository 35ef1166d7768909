//! Chaos gate for the multi-tenant chip farm: under a scripted worker kill
//! and a hang-prone lab link, whose watchdog timeouts count against that
//! worker's health monitor, every submitted job must end `Completed` —
//! with results **bitwise equal** to an uninterrupted single-chip run of
//! the same spec — or `Rejected` with a typed reason. No job may be lost
//! or corrupted, and the per-tenant, per-worker, and per-job query ledgers
//! must reconcile exactly, both in the farm report and in the emitted
//! telemetry.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use photon_zo::core::{
    build_task, DurableOptions, Method, RunOutcome, TaskSpec, TrainConfig, TrainOutcome, Trainer,
    WatchdogPolicy,
};
use photon_zo::farm::{
    ChaosPlan, ChipHealth, Farm, FarmConfig, HealthPolicy, JobSpec, RejectReason, TenantSpec,
    WorkerSpec,
};
use photon_zo::faults::{FaultPlan, FaultyChip};
use photon_zo::trace::{TraceEvent, TraceHandle};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("photon-farm-chaos-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A fast watchdog so hung attempts are discarded in milliseconds, not the
/// 30 s lab default.
fn fast_watchdog() -> WatchdogPolicy {
    WatchdogPolicy {
        deadline: Duration::from_millis(300),
        max_timeouts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(4),
        jitter_seed: 5,
    }
}

fn job(name: &str, tenant: &str, epochs: usize, task_seed: u64, root_seed: u64) -> JobSpec {
    let mut config = TrainConfig::quick(3);
    config.epochs = epochs;
    config.warm_epochs = 2;
    config.threads = Some(1);
    JobSpec::new(name, tenant, TaskSpec::quick(3), Method::ZoGaussian, config)
        .with_task_seed(task_seed)
        .with_root_seed(root_seed)
}

/// The uninterrupted single-chip control for a job spec: the same chip
/// recipe, the same durable runtime, no farm, no slicing, no faults beyond
/// the job's own plan.
fn solo_baseline(dir: &Path, spec: &JobSpec) -> TrainOutcome {
    let task = build_task(&spec.task, spec.task_seed).expect("baseline task");
    let plan = spec
        .chip_faults
        .clone()
        .unwrap_or_else(|| FaultPlan::new(spec.task_seed));
    let chip = FaultyChip::new(task.chip, plan);
    let trainer = Trainer::new(&chip, &task.train, &task.test, task.head);
    let opts = DurableOptions::new(dir.join(format!("solo-{}.journal", spec.name)), spec.root_seed);
    match trainer
        .train_durable(spec.method, &spec.config, &opts)
        .expect("baseline run")
    {
        RunOutcome::Completed(out) => out,
        RunOutcome::Aborted { reason, .. } => panic!("baseline aborted: {reason:?}"),
    }
}

#[test]
fn chaos_farm_loses_no_jobs_and_preserves_bitwise_results() {
    let dir = tmp_dir("main");
    let (trace, sink) = TraceHandle::memory(0);

    // Three workers: w0 is healthy but scripted to die mid-slice on its
    // second dispatch; w1's lab link hangs so often the watchdog will
    // quarantine it; w2 is clean and immortal, guaranteeing liveness.
    let workers = vec![
        WorkerSpec::clean("w0"),
        WorkerSpec::hanging("w1", 0.02, 3),
        WorkerSpec::clean("w2"),
    ];
    let chaos = ChaosPlan::none().with_kill("w0", 2, 1);
    let tenants = vec![
        TenantSpec::new("alice").with_quantum(2),
        TenantSpec::new("bob").with_quantum(3),
    ];
    let config = FarmConfig::new(&dir)
        .with_watchdog(fast_watchdog())
        .with_health(HealthPolicy::strict())
        .with_chaos(chaos)
        .with_trace(trace);
    let mut farm = Farm::new(config, workers, tenants);

    let specs = vec![
        job("a0", "alice", 5, 11, 21),
        job("a1", "alice", 3, 12, 22),
        job("b0", "bob", 4, 13, 23),
        job("b1", "bob", 2, 14, 24),
    ];
    for spec in &specs {
        farm.submit(spec.clone()).expect("admission");
    }
    let report = farm.run();

    // Invariant 1: no job is ever lost — every submission reaches a
    // terminal state.
    assert_eq!(report.lost(), 0, "jobs lost: {report:?}");
    assert_eq!(report.jobs.len(), specs.len());

    // Invariant 2: with one immortal clean worker, every job completes,
    // and each completed result is bitwise identical to its uninterrupted
    // single-chip control — whatever kills, migrations, and discarded
    // hung attempts happened along the way.
    for spec in &specs {
        let farmed = report
            .completed(&spec.name)
            .unwrap_or_else(|| panic!("job {} did not complete: {report:?}", spec.name));
        let baseline = solo_baseline(&dir, spec);
        assert_eq!(
            farmed.theta.as_slice(),
            baseline.theta.as_slice(),
            "job {}: farmed theta diverged from solo baseline",
            spec.name
        );
        assert_eq!(farmed.history.len(), baseline.history.len());
        for (f, b) in farmed.history.iter().zip(baseline.history.iter()) {
            assert_eq!(f.train_loss.to_bits(), b.train_loss.to_bits());
        }
        assert_eq!(
            farmed.final_eval.accuracy.to_bits(),
            baseline.final_eval.accuracy.to_bits()
        );
    }

    // Invariant 3: the scripted kill landed and the job it interrupted
    // migrated instead of dying with its worker.
    let w0 = report.workers.iter().find(|w| w.name == "w0").unwrap();
    assert_eq!(w0.health, ChipHealth::Dead, "w0 must be chaos-killed");
    let migrations: u32 = report.jobs.iter().map(|j| j.migrations).sum();
    assert!(migrations >= 1, "the kill must force at least one migration");

    // Invariant 4: ledgers reconcile across all three axes.
    assert!(report.ledgers_reconcile(), "{report:?}");
    let by_tenant: u64 = report.tenants.iter().map(|t| t.queries).sum();
    let by_worker: u64 = report.workers.iter().map(|w| w.queries).sum();
    assert_eq!(by_tenant, by_worker);

    // Invariant 5: the telemetry stream agrees with the report — one
    // tenant_ledger event per tenant carrying the same totals, and the
    // scripted kill shows up as a chip_health transition to "dead".
    let events = sink.events();
    for t in &report.tenants {
        let ledger = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::TenantLedger {
                    tenant,
                    queries,
                    jobs_completed,
                    jobs_rejected,
                } if tenant == &t.name => Some((*queries, *jobs_completed, *jobs_rejected)),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no tenant_ledger event for {}", t.name));
        assert_eq!(ledger, (t.queries, t.completed, t.rejected));
    }
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::ChipHealth { worker, to, .. } if worker == "w0" && to == "dead"
        )),
        "missing chip_health event for the scripted kill"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn admission_and_shed_rejections_are_typed_and_accounted() {
    let dir = tmp_dir("reject");
    let (trace, sink) = TraceHandle::memory(0);
    let config = FarmConfig::new(&dir)
        .with_watchdog(fast_watchdog())
        .with_trace(trace);
    let mut farm = Farm::new(
        config,
        vec![WorkerSpec::clean("w0")],
        vec![
            // A tenant whose budget dies after the first slice, and one
            // whose queue holds a single job.
            TenantSpec::new("metered").with_query_budget(1).with_quantum(8),
            TenantSpec::new("queued").with_queue_cap(1),
        ],
    );
    farm.submit(job("m0", "metered", 2, 31, 41)).expect("m0");
    farm.submit(job("m1", "metered", 2, 32, 42)).expect("m1");
    farm.submit(job("q0", "queued", 2, 33, 43)).expect("q0");
    let err = farm.submit(job("q1", "queued", 2, 34, 44)).unwrap_err();
    assert_eq!(err.reason, RejectReason::QueueFull { cap: 1 });
    let err = farm.submit(job("x0", "ghost", 2, 35, 45)).unwrap_err();
    assert_eq!(err.reason, RejectReason::UnknownTenant);

    let report = farm.run();
    assert_eq!(report.lost(), 0);
    assert_eq!(report.jobs.len(), 5, "rejected submissions stay on the ledger");
    assert!(report.completed("m0").is_some());
    assert!(matches!(
        report.jobs[1].result.as_ref().unwrap().rejected(),
        Some(RejectReason::BudgetExhausted { budget: 1, .. })
    ));
    assert!(report.completed("q0").is_some());
    assert!(report.ledgers_reconcile());

    // Every rejection surfaced as a job_state event with state
    // "rejected".
    let rejected_events = sink
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::JobState { state, .. } if state == "rejected"))
        .count();
    assert_eq!(rejected_events, 3, "m1 shed + q1 queue-full + x0 unknown tenant");

    let _ = fs::remove_dir_all(&dir);
}
