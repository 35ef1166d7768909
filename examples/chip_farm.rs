//! The chip farm end to end: three workers (one scripted to die, one with
//! a hang-prone lab link), two tenants with different fair-share quanta and
//! one metered budget, six jobs — run under chaos until every job is
//! `Completed` or cleanly `Rejected`, then print the reconciled ledgers and
//! the farm's telemetry summary.
//!
//! One job is re-run solo on a single chip to show the farm's headline
//! guarantee: a job that was preempted, killed mid-slice, and migrated
//! between workers finishes **bitwise identical** to an uninterrupted run.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example chip_farm
//! ```

use std::process::ExitCode;
use std::time::Duration;

use photon_zo::core::{trace_summary, RunOutcome};
use photon_zo::farm::JobResult;
use photon_zo::faults::FaultyChip;
use photon_zo::prelude::*;

fn job(name: &str, tenant: &str, epochs: usize, task_seed: u64, root_seed: u64) -> JobSpec {
    let mut config = TrainConfig::quick(4);
    config.epochs = epochs;
    config.threads = Some(1);
    JobSpec::new(name, tenant, TaskSpec::quick(4), Method::ZoGaussian, config)
        .with_task_seed(task_seed)
        .with_root_seed(root_seed)
}

fn main() -> ExitCode {
    println!("photon-zo chip farm demo");
    println!("========================");

    let dir = std::env::temp_dir().join(format!("photon-chip-farm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (trace, sink) = TraceHandle::memory(0);

    // Fast watchdog so the hang-prone link costs milliseconds per
    // discarded attempt instead of the 30 s lab default.
    let watchdog = WatchdogPolicy {
        deadline: Duration::from_millis(300),
        max_timeouts: 2,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(4),
        jitter_seed: 5,
    };
    let chaos = ChaosPlan::none().with_kill("w0", 2, 1);
    let config = FarmConfig::new(&dir)
        .with_watchdog(watchdog)
        .with_health(HealthPolicy::strict())
        .with_chaos(chaos)
        .with_trace(trace);
    let workers = vec![
        WorkerSpec::clean("w0"),
        WorkerSpec::hanging("w1", 0.02, 3),
        WorkerSpec::clean("w2"),
    ];
    let tenants = vec![
        TenantSpec::new("alice").with_quantum(2),
        TenantSpec::new("bob")
            .with_quantum(3)
            .with_query_budget(400_000),
    ];
    println!("workers: w0 (clean, chaos-killed on dispatch 2), w1 (link hangs 2%), w2 (clean)");
    println!("tenants: alice (quantum 2) | bob (quantum 3, budget 400k queries)\n");

    let mut farm = Farm::new(config, workers, tenants);
    let specs = vec![
        job("a0", "alice", 6, 11, 21),
        job("a1", "alice", 3, 12, 22),
        job("a2", "alice", 2, 13, 23),
        job("b0", "bob", 5, 14, 24),
        job("b1", "bob", 4, 15, 25),
        job("b2", "bob", 2, 16, 26),
    ];
    for spec in &specs {
        match farm.submit(spec.clone()) {
            Ok(id) => println!("submitted {id}: {} [{}]", spec.name, spec.tenant),
            Err(rejection) => println!("rejected at admission: {rejection}"),
        }
    }

    let report = farm.run();

    println!("\njobs ({} rounds):", report.rounds);
    for j in &report.jobs {
        let place = j.last_worker.as_deref().unwrap_or("-");
        match &j.result {
            Some(JobResult::Completed(out)) => println!(
                "  {:<3} [{:<5}] completed  acc {:.3}  {} queries, {} slices, {} migrations, last on {place}",
                j.name,
                j.tenant,
                out.final_eval.accuracy,
                j.queries,
                j.slices,
                j.migrations
            ),
            Some(JobResult::Rejected(reason)) => {
                println!("  {:<3} [{:<5}] REJECTED: {reason}", j.name, j.tenant)
            }
            None => println!("  {:<3} [{:<5}] LOST (bug!)", j.name, j.tenant),
        }
    }

    println!("\nworkers:");
    for w in &report.workers {
        println!(
            "  {:<3} {:<11} {} slices, {} queries, {} hangs, {} timeouts",
            w.name,
            w.health.label(),
            w.slices,
            w.queries,
            w.hangs,
            w.timeouts
        );
    }

    println!("\ntenants:");
    for t in &report.tenants {
        println!(
            "  {:<5} {} queries, {} completed, {} rejected",
            t.name, t.queries, t.completed, t.rejected
        );
    }

    // The farm's headline guarantee: pick the job the chaos kill
    // interrupted and check it against an uninterrupted single-chip run.
    let interrupted = report
        .jobs
        .iter()
        .find(|j| j.migrations > 0 && j.result.as_ref().is_some_and(|r| r.completed().is_some()));
    if let Some(j) = interrupted {
        let spec = specs.iter().find(|s| s.name == j.name).unwrap();
        let task = build_task(&spec.task, spec.task_seed).expect("task");
        let chip = FaultyChip::new(task.chip, FaultPlan::new(spec.task_seed));
        let trainer = Trainer::new(&chip, &task.train, &task.test, task.head);
        let opts = DurableOptions::new(dir.join("solo-control.journal"), spec.root_seed);
        let control = match trainer.train_durable(spec.method, &spec.config, &opts) {
            Ok(RunOutcome::Completed(out)) => out,
            other => {
                eprintln!("solo control did not complete: {other:?}");
                return ExitCode::from(2);
            }
        };
        let farmed = report.completed(&j.name).unwrap();
        let identical = farmed.theta.as_slice() == control.theta.as_slice();
        println!(
            "\nmigrated job {} vs uninterrupted single-chip control: {}",
            j.name,
            if identical {
                "BITWISE IDENTICAL"
            } else {
                "DIVERGED"
            }
        );
        if !identical {
            return ExitCode::from(2);
        }
    }

    println!(
        "\nledgers reconcile (tenant == worker == job totals): {}",
        report.ledgers_reconcile()
    );
    if report.lost() != 0 || !report.ledgers_reconcile() {
        return ExitCode::from(2);
    }

    println!("\ntelemetry summary");
    println!("-----------------");
    println!("{}", trace_summary(&sink.events()));

    let _ = std::fs::remove_dir_all(&dir);
    ExitCode::SUCCESS
}
