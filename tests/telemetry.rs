//! Structured-telemetry integration tests: the query ledger must reconcile
//! exactly with the chip's own query counter, and attaching any trace sink
//! must leave training bitwise identical (telemetry is observation-only).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::calib::{calibrate_traced, CalibrationSettings};
use photon_zo::core::{
    build_task, DurableOptions, Method, ModelChoice, RunJournal, TaskSpec, TrainConfig, Trainer,
};
use photon_zo::faults::{FaultPlan, FaultyChip, TransientConfig};
use photon_zo::linalg::RVector;
use photon_zo::photonics::OnnChip;
use photon_zo::trace::{
    JsonlSink, LedgerCounts, MemorySink, QueryCategory, TraceEvent, TraceHandle, TraceSink,
};

fn bits(v: &RVector) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn query_ledger_reconciles_with_chip_query_count() {
    let (trace, sink) = TraceHandle::memory(0);
    let task = build_task(&TaskSpec::quick(4), 11).unwrap();
    assert_eq!(task.chip.query_count(), 0, "chip must start unqueried");

    let mut rng = StdRng::seed_from_u64(12);
    let calibration = calibrate_traced(
        &task.chip,
        &CalibrationSettings::default(),
        &mut rng,
        &trace,
    )
    .unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head)
        .with_calibrated_model(calibration.model);
    let mut config = TrainConfig::quick(4);
    config.epochs = 3;
    config.eval_every = 2;
    config.trace = trace;
    let outcome = trainer
        .train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        )
        .unwrap();

    // Every chip query — calibration sweep, probes, batch losses, evals —
    // must be attributed to exactly one ledger category, so the ledgered
    // total telescopes to the chip's own counter.
    let events = sink.events();
    let mut ledger = LedgerCounts::new();
    for event in &events {
        if let TraceEvent::QueryLedger {
            category, queries, ..
        } = event
        {
            ledger.add(*category, *queries);
        }
    }
    assert_eq!(
        ledger.total(),
        task.chip.query_count(),
        "ledger must reconcile with the chip's query counter"
    );
    assert_eq!(
        ledger.get(QueryCategory::Calibration),
        calibration.chip_queries as u64,
        "epoch-0 calibration spend must be ledgered"
    );
    // The model-based Fisher metric is the paper's point: zero chip spend.
    assert_eq!(ledger.get(QueryCategory::Fisher), 0);
    assert!(ledger.get(QueryCategory::Probe) > 0);
    assert!(ledger.get(QueryCategory::Eval) > 0);

    // RunEnd carries the reconciliation totals for external checkers.
    let run_end = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::RunEnd {
                training_queries,
                eval_queries,
                run_queries,
                chip_query_count,
                ..
            } => Some((
                *training_queries,
                *eval_queries,
                *run_queries,
                *chip_query_count,
            )),
            _ => None,
        })
        .expect("traced run must emit run_end");
    assert_eq!(run_end.0, outcome.training_queries);
    assert_eq!(run_end.0 + run_end.1, run_end.2);
    assert_eq!(run_end.3, task.chip.query_count());
}

#[test]
fn faulty_traced_run_reconciles_and_reports_faults() {
    let (trace, sink) = TraceHandle::memory(0);
    let task = build_task(&TaskSpec::quick(4), 21).unwrap();
    let model = task.chip.oracle_network();
    let plan = FaultPlan::new(22).with_transients(TransientConfig {
        drop_prob: 0.05,
        spike_prob: 0.05,
        ..TransientConfig::default()
    });
    let faulty = FaultyChip::new(task.chip, plan).with_trace(trace.clone());
    let trainer =
        Trainer::new(&faulty, &task.train, &task.test, task.head).with_calibrated_model(model);
    let mut config = TrainConfig::quick(4);
    config.epochs = 3;
    config.recovery = photon_zo::core::RecoveryPolicy::standard();
    config.trace = trace;
    let mut rng = StdRng::seed_from_u64(23);
    trainer
        .train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        )
        .unwrap();

    let events = sink.events();
    let ledgered: u64 = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::QueryLedger { queries, .. } => Some(*queries),
            _ => None,
        })
        .sum();
    assert_eq!(
        ledgered,
        faulty.query_count(),
        "ledger must reconcile through the fault-injection layer"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::FaultStats { .. })),
        "a faulting traced chip must emit fault_stats"
    );
}

#[test]
fn trace_sinks_leave_training_bitwise_identical_across_pool_sizes() {
    let run = |threads: usize, trace: TraceHandle| {
        let task = build_task(&TaskSpec::quick(4), 47).unwrap();
        let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head)
            .with_calibrated_model(task.chip.oracle_network());
        let mut config = TrainConfig::quick(4);
        config.epochs = 2;
        config.threads = Some(threads);
        config.trace = trace;
        let mut rng = StdRng::seed_from_u64(48);
        trainer
            .train(
                Method::Lcng {
                    model: ModelChoice::Ideal,
                },
                &config,
                &mut rng,
            )
            .unwrap()
    };

    let reference = run(1, TraceHandle::null());
    let ref_theta = bits(&reference.theta);
    let ref_losses: Vec<u64> = reference
        .history
        .iter()
        .map(|h| h.train_loss.to_bits())
        .collect();

    let jsonl_path = std::env::temp_dir().join("photon_zo_telemetry_determinism.jsonl");
    for threads in [1usize, 3, 4] {
        for sink in ["null", "jsonl", "memory"] {
            let trace = match sink {
                "null" => TraceHandle::null(),
                "jsonl" => TraceHandle::new(
                    Arc::new(JsonlSink::create(&jsonl_path).unwrap()) as Arc<dyn TraceSink>
                ),
                _ => TraceHandle::new(Arc::new(MemorySink::new(0)) as Arc<dyn TraceSink>),
            };
            let out = run(threads, trace);
            assert_eq!(
                bits(&out.theta),
                ref_theta,
                "theta diverged with {sink} sink at {threads} threads"
            );
            let losses: Vec<u64> = out.history.iter().map(|h| h.train_loss.to_bits()).collect();
            assert_eq!(
                losses, ref_losses,
                "losses diverged with {sink} sink at {threads} threads"
            );
            assert_eq!(
                out.final_eval.loss.to_bits(),
                reference.final_eval.loss.to_bits()
            );
            assert_eq!(out.training_queries, reference.training_queries);
        }
    }
    let _ = std::fs::remove_file(&jsonl_path);
}

#[test]
fn jsonl_artifact_is_parseable_line_json() {
    let jsonl_path = std::env::temp_dir().join("photon_zo_telemetry_artifact.jsonl");
    let trace = TraceHandle::jsonl(&jsonl_path).unwrap();
    let task = build_task(&TaskSpec::quick(4), 31).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head)
        .with_calibrated_model(task.chip.oracle_network());
    let mut config = TrainConfig::quick(4);
    config.epochs = 2;
    config.trace = trace.clone();
    let mut rng = StdRng::seed_from_u64(32);
    trainer
        .train(
            Method::Lcng {
                model: ModelChoice::Ideal,
            },
            &config,
            &mut rng,
        )
        .unwrap();
    trace.flush();

    let text = std::fs::read_to_string(&jsonl_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 5, "expected a run's worth of events");
    assert!(lines[0].contains("\"type\":\"run_start\""));
    assert!(lines.last().unwrap().contains("\"type\":\"run_end\""));
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"type\":"),
            "malformed JSONL line: {line}"
        );
    }
    let _ = std::fs::remove_file(&jsonl_path);
}

#[test]
fn durable_run_flushes_journal_and_resumed_ledger_reconciles() {
    let dir = std::env::temp_dir().join(format!("photon-telemetry-durable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut config = TrainConfig::quick(4);
    config.epochs = 3;
    config.eval_every = 2;
    config.threads = Some(1);

    // Control: an uninterrupted durable run. Every epoch must land on disk
    // before the run moves on, and say so via a journal_flush event.
    let (trace_a, sink_a) = TraceHandle::memory(0);
    let mut config_a = config.clone();
    config_a.trace = trace_a;
    let task = build_task(&TaskSpec::quick(4), 11).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let path = dir.join("run.journal");
    let control = trainer
        .train_durable(
            Method::ZoGaussian,
            &config_a,
            &DurableOptions::new(&path, 5),
        )
        .unwrap()
        .completed()
        .unwrap();

    let flushes: Vec<(u64, u64)> = sink_a
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::JournalFlush { epoch, records, .. } => Some((*epoch, *records)),
            _ => None,
        })
        .collect();
    assert_eq!(flushes.len(), config.epochs, "one flush per epoch");
    for (i, (epoch, records)) in flushes.iter().enumerate() {
        assert_eq!(*epoch, (i + 1) as u64);
        // Per-handle record count includes the header frame.
        assert_eq!(*records, (i + 2) as u64);
    }

    // Kill simulation at an exact frame boundary: rewrite the journal with
    // the last epoch record dropped, so the pre-kill ledger total is known.
    let replay = RunJournal::replay(&path).unwrap();
    let killed_path = dir.join("killed.journal");
    let mut killed = RunJournal::create(&killed_path, &replay.header).unwrap();
    let kept = &replay.entries[..replay.entries.len() - 1];
    for entry in kept {
        killed.append_epoch(entry).unwrap();
    }
    drop(killed);
    let pre_kill_total = kept.last().unwrap().state.ledger.total();
    assert!(pre_kill_total > 0, "journaled ledger must carry real spend");

    // Resume on a freshly fabricated identical chip whose query counter is
    // back at zero: the restored ledger bridges the two process windows.
    let (trace_b, sink_b) = TraceHandle::memory(0);
    let mut config_b = config.clone();
    config_b.trace = trace_b;
    let task2 = build_task(&TaskSpec::quick(4), 11).unwrap();
    let trainer2 = Trainer::new(&task2.chip, &task2.train, &task2.test, task2.head);
    let resumed = trainer2
        .resume(&config_b, &DurableOptions::new(&killed_path, 5))
        .unwrap()
        .completed()
        .unwrap();
    assert_eq!(resumed.training_queries, control.training_queries);

    let events = sink_b.events();
    let resume_event = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Resume {
                epoch,
                records_replayed,
                truncated_bytes,
            } => Some((*epoch, *records_replayed, *truncated_bytes)),
            _ => None,
        })
        .expect("resumed run must emit a resume event");
    assert_eq!(resume_event.0, kept.len() as u64);
    assert_eq!(resume_event.1, kept.len() as u64);
    assert_eq!(resume_event.2, 0);

    // This window's ledger entries cover exactly the fresh chip's spend...
    let window_delta: u64 = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::QueryLedger { queries, .. } => Some(*queries),
            _ => None,
        })
        .sum();
    assert_eq!(window_delta, task2.chip.query_count());

    // ...and the run total telescopes: pre-kill spend + post-resume delta.
    let run_queries = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::RunEnd { run_queries, .. } => Some(*run_queries),
            _ => None,
        })
        .expect("resumed run must emit run_end");
    assert_eq!(run_queries, pre_kill_total + window_delta);
    let _ = std::fs::remove_dir_all(&dir);
}
