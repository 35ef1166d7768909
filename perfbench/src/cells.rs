//! The two Table-1 training cells: ZO-LCNG(calib) at K = 10 and a durable
//! ZO-co run at K = 16, each under table1's full protocol.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_calib::{calibrate_traced, CalibrationSettings, LmSettings};
use photon_core::{
    build_task, AbortReason, ClassificationHead, DurableOptions, Method, ModelChoice, RunJournal,
    RunOutcome, TaskInstance, TaskKind, TaskSpec, TrainConfig, TrainOutcome, Trainer,
};
use photon_data::Dataset;
use photon_photonics::{CacheStats, OnnChip};
use photon_trace::{QueryCategory, TraceEvent};

use crate::chip::{BATCH, PIN};
use crate::spans::{self_secs, timed, Recorder, Span, Stamped};

/// Bench span names of the training layers.
const BUILD: &str = "data.build_task";
const CALIBRATE: &str = "calib.calibrate";
const TRAIN: &str = "core.train";
const TRAIN_DURABLE: &str = "core.train_durable";
const RESUME: &str = "core.resume";
const REPLAY: &str = "core.journal.replay";

/// Which Table-1 cell a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// ZO-LCNG on the calibrated model, after `calibrate`.
    LcngCalib,
    /// ZO-co, run durably in epoch-budgeted slices.
    ZocoDurable,
}

/// Everything fixed about one workload's cells.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// The task every cell builds from its own seed.
    pub spec: TaskSpec,
    /// The stage-2 method.
    pub method: Method,
    /// table1's full protocol, untraced.
    pub config: TrainConfig,
    /// Pre-training calibration, for the calibrated-model method.
    pub calibration: Option<CalibrationSettings>,
    /// Epochs per durable slice; `None` trains in one `Trainer::train`.
    pub epoch_budget: Option<usize>,
}

impl CellPlan {
    /// The cell of `kind` with an exec pool of `threads` workers.
    pub fn new(kind: CellKind, threads: usize) -> Self {
        // Calibration at K = 16 costs ~16 s per Gauss-Newton iteration, so
        // the calibrated cell runs at the smallest image width.
        let k = match kind {
            CellKind::LcngCalib => 10,
            CellKind::ZocoDurable => 16,
        };
        let spec = TaskSpec {
            train_size: 600,
            test_size: 300,
            ..TaskSpec::image(TaskKind::MnistLike, k)
        };
        let mut config = TrainConfig::for_network(0, k);
        config.warm_epochs = 10;
        config.epochs = 40;
        config.batch_size = 100;
        config.threads = Some(threads);
        match kind {
            CellKind::LcngCalib => CellPlan {
                spec,
                method: Method::Lcng {
                    model: ModelChoice::Calibrated,
                },
                config,
                calibration: Some(CalibrationSettings {
                    lm: LmSettings {
                        max_iters: 10,
                        ..LmSettings::default()
                    },
                    ..CalibrationSettings::default()
                }),
                epoch_budget: None,
            },
            CellKind::ZocoDurable => CellPlan {
                spec,
                method: Method::ZoCoordinate,
                config,
                calibration: None,
                epoch_budget: Some(10),
            },
        }
    }
}

/// Builds a cell's task, timing it as set-up.
///
/// # Errors
///
/// Returns the reason when `build_task` fails.
pub fn build(
    plan: &CellPlan,
    seed: u64,
    rec: Option<&Recorder>,
) -> Result<(TaskInstance, f64), String> {
    let (task, secs) = timed(rec, BUILD, || build_task(&plan.spec, seed));
    task.map(|t| (t, secs))
        .map_err(|e| format!("build_task: {e}"))
}

/// What one cell produced, and how long its parts took.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Wall time of `calibrate` (0 without calibration).
    pub calibrate_s: f64,
    /// Wall time of warm start, stage-2 fine-tune and final test eval.
    pub train_s: f64,
    /// Chip queries the cell spent, calibration included.
    pub queries: u64,
    /// Bit patterns of the final parameters.
    pub theta_bits: Vec<u64>,
    /// Final test accuracy.
    pub accuracy: f64,
    /// Final test loss.
    pub loss: f64,
    /// Compiled-plan cache counters the cell added to the chip.
    pub cache: CacheStats,
}

impl CellRun {
    /// Wall time of the cell's timed part.
    pub fn op_s(&self) -> f64 {
        self.calibrate_s + self.train_s
    }

    /// Whether two runs produced bitwise the same outputs.
    pub fn same_outputs(&self, other: &CellRun) -> bool {
        self.theta_bits == other.theta_bits
            && self.accuracy.to_bits() == other.accuracy.to_bits()
            && self.loss.to_bits() == other.loss.to_bits()
            && self.queries == other.queries
    }
}

/// Runs one cell on `chip` and checks its outputs.
///
/// With `rec`, the calls into each layer run inside bench spans and the
/// program's own events go to the recorder; the computation is the same.
/// A durable cell keeps its journal at `journal`.
///
/// # Errors
///
/// Returns the reason when a call fails or an output check does not hold.
#[allow(clippy::too_many_arguments)]
pub fn run_cell<C: OnnChip>(
    plan: &CellPlan,
    chip: &C,
    train: &Dataset,
    test: &Dataset,
    head: ClassificationHead,
    seed: u64,
    journal: &Path,
    rec: Option<&Arc<Recorder>>,
) -> Result<CellRun, String> {
    let mut config = plan.config.clone();
    if let Some(rec) = rec {
        config.trace = rec.trace_handle();
    }
    let rec = rec.map(|r| &**r);
    let cache_before = chip.cache_stats();
    let start_queries = chip.query_count();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
    let mut trainer = Trainer::new(chip, train, test, head);

    let mut calibrate_s = 0.0;
    if let Some(settings) = &plan.calibration {
        let (cal, secs) = timed(rec, CALIBRATE, || {
            calibrate_traced(chip, settings, &mut rng, &config.trace)
        });
        let cal = cal.map_err(|e| format!("calibrate: {e}"))?;
        let spent = chip.query_count() - start_queries;
        if cal.chip_queries as u64 != spent {
            return Err(format!(
                "calibrate reports {} queries, chip counted {spent}",
                cal.chip_queries
            ));
        }
        calibrate_s = secs;
        trainer = trainer.with_calibrated_model(cal.model);
    }

    let train_queries = chip.query_count();
    let (outcome, train_s) = match plan.epoch_budget {
        None => {
            let (outcome, secs) =
                timed(rec, TRAIN, || trainer.train(plan.method, &config, &mut rng));
            (outcome.map_err(|e| e.to_string()), secs)
        }
        Some(budget) => {
            let opts = DurableOptions::new(journal, seed ^ 0xabcdef).with_epoch_budget(budget);
            let start = Instant::now();
            let outcome = run_sliced(&trainer, plan, &config, &opts, rec);
            (outcome, start.elapsed().as_secs_f64())
        }
    };
    let outcome = outcome.map_err(|e| format!("train: {e}"))?;
    let spent = chip.query_count() - train_queries;

    check_outcome(&outcome, spent, test.len())?;
    if plan.epoch_budget.is_some() {
        check_journal(journal, &config, &outcome, rec)?;
    }
    Ok(CellRun {
        calibrate_s,
        train_s,
        queries: chip.query_count() - start_queries,
        theta_bits: outcome.theta.iter().map(|v| v.to_bits()).collect(),
        accuracy: outcome.final_eval.accuracy,
        loss: outcome.final_eval.loss,
        cache: chip.cache_stats().since(cache_before),
    })
}

/// `train_durable` under the epoch budget, then `resume` until done — the
/// way the farm runs a preemptible job.
fn run_sliced<C: OnnChip>(
    trainer: &Trainer<'_, C>,
    plan: &CellPlan,
    config: &TrainConfig,
    opts: &DurableOptions,
    rec: Option<&Recorder>,
) -> Result<TrainOutcome, String> {
    let (mut run, _) = timed(rec, TRAIN_DURABLE, || {
        trainer.train_durable(plan.method, config, opts)
    });
    // One slice per budget plus one: anything beyond that is a stuck run.
    for _ in 0..=config.epochs {
        match run.map_err(|e| e.to_string())? {
            RunOutcome::Completed(outcome) => return Ok(outcome),
            RunOutcome::Aborted {
                resumable: true,
                reason: AbortReason::Preempted { .. },
                ..
            } => run = timed(rec, RESUME, || trainer.resume(config, opts)).0,
            RunOutcome::Aborted { reason, .. } => {
                return Err(format!("durable run aborted: {reason:?}"))
            }
        }
    }
    Err("durable run never completed".into())
}

/// Loss and accuracy are finite and above chance, and the trainer's
/// ledger (training queries plus one query per test sample for the final
/// eval) equals the chip's query delta.
fn check_outcome(outcome: &TrainOutcome, spent: u64, test_len: usize) -> Result<(), String> {
    let eval = &outcome.final_eval;
    if !eval.loss.is_finite() || !eval.accuracy.is_finite() {
        return Err(format!(
            "non-finite final eval: loss {}, accuracy {}",
            eval.loss, eval.accuracy
        ));
    }
    if eval.accuracy <= 0.1 {
        return Err(format!(
            "final accuracy {} is no better than chance over 10 classes",
            eval.accuracy
        ));
    }
    if outcome.history.iter().any(|h| !h.train_loss.is_finite()) {
        return Err("non-finite training loss".into());
    }
    let ledger = outcome.training_queries + test_len as u64;
    if ledger != spent {
        return Err(format!(
            "ledger {ledger} queries (training {} + eval {test_len}) != chip delta {spent}",
            outcome.training_queries
        ));
    }
    Ok(())
}

/// The journal replays to one record per epoch, in order, whose last theta
/// and ledger equal the outcome's.
fn check_journal(
    journal: &Path,
    config: &TrainConfig,
    outcome: &TrainOutcome,
    rec: Option<&Recorder>,
) -> Result<(), String> {
    let (replay, _) = timed(rec, REPLAY, || RunJournal::replay(journal));
    let replay = replay.map_err(|e| format!("replay: {e}"))?;
    let epochs: Vec<usize> = replay.entries.iter().map(|e| e.state.epoch).collect();
    if epochs != (1..=config.epochs).collect::<Vec<_>>() {
        return Err(format!(
            "journal holds epochs {epochs:?}, expected 1..={}",
            config.epochs
        ));
    }
    let last = &replay.entries[epochs.len() - 1].state;
    let same_theta = last.theta.len() == outcome.theta.len()
        && last
            .theta
            .iter()
            .zip(outcome.theta.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same_theta {
        return Err("journal's last theta differs from the outcome's".into());
    }
    if last.ledger.total() != outcome.training_queries {
        return Err(format!(
            "journal ledger {} != outcome training queries {}",
            last.ledger.total(),
            outcome.training_queries
        ));
    }
    Ok(())
}

/// Per-layer figures of one traced cell, from its spans, the program's
/// events and the cell's own outputs.
pub fn layers(
    op: u64,
    spans: &[Span],
    events: &[Stamped],
    run: &CellRun,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let spans: Vec<&Span> = spans.iter().filter(|s| s.op == op).collect();
    let events: Vec<&Stamped> = events.iter().filter(|e| e.op == op).collect();
    let children = |parent: u64| -> Vec<&Span> {
        spans
            .iter()
            .copied()
            .filter(|s| s.parent == parent)
            .collect()
    };
    let named =
        |name: &str| -> Vec<&Span> { spans.iter().copied().filter(|s| s.name == name).collect() };
    let total = |name: &str| named(name).iter().map(|s| s.secs()).sum::<f64>();
    let mut m = BTreeMap::new();

    m.insert("data.build_task_s", total(BUILD));
    for cal in named(CALIBRATE) {
        let chip_s: f64 = cal.secs() - self_secs(cal, &children(cal.id));
        *m.entry("calib.calibrate_s").or_insert(0.0) += cal.secs();
        *m.entry("calib.chip_s").or_insert(0.0) += chip_s;
        *m.entry("calib.fit_self_s").or_insert(0.0) += cal.secs() - chip_s;
    }
    for e in &events {
        if let TraceEvent::Calibration {
            queries,
            fit_cost,
            iterations,
            ..
        } = &e.event
        {
            m.insert("calib.iterations", *iterations as f64);
            m.insert("calib.queries", *queries as f64);
            m.insert("calib.fit_cost", *fit_cost);
        }
    }

    let batches = named(BATCH);
    m.insert("photonics.batch_calls", batches.len() as f64);
    m.insert(
        "photonics.batch_queries",
        batches.iter().map(|s| s.items).sum::<u64>() as f64,
    );
    m.insert("photonics.batch_busy_s", total(BATCH));
    m.insert("photonics.pin_calls", named(PIN).len() as f64);
    m.insert("photonics.pin_s", total(PIN));
    m.insert("photonics.cache_misses", run.cache.misses as f64);
    m.insert("photonics.incremental", run.cache.incremental as f64);
    m.insert(
        "photonics.forced_recompiles",
        run.cache.forced_recompiles as f64,
    );

    m.insert("core.train_s", run.train_s);
    m.insert("core.test_acc", run.accuracy);
    // Each training call splits at the program's RunStart event: before it
    // the warm start (or the journal replay of a resume), after it the
    // stage-2 epochs and the final eval.
    let mut ledger_total = 0;
    for call in spans
        .iter()
        .filter(|s| [TRAIN, TRAIN_DURABLE, RESUME].contains(&s.name))
    {
        let inside = |e: &&&Stamped| call.start_ns <= e.at_ns && e.at_ns <= call.end_ns;
        let run_start = events
            .iter()
            .filter(inside)
            .find(|e| matches!(e.event, TraceEvent::RunStart { .. }))
            .ok_or_else(|| format!("{} span without a RunStart event", call.name))?;
        let since_start = |at_ns: u64| (at_ns - call.start_ns) as f64 * 1e-9;
        if call.name == RESUME {
            // `resume` emits Resume right after it replayed the journal.
            let resumed = events
                .iter()
                .filter(inside)
                .find(|e| matches!(e.event, TraceEvent::Resume { .. }))
                .ok_or("resume span without a Resume event")?;
            *m.entry("core.journal.replay_s").or_insert(0.0) += since_start(resumed.at_ns);
        } else {
            *m.entry("core.warm_start_s").or_insert(0.0) += since_start(run_start.at_ns);
        }
        if call.name != TRAIN {
            *m.entry("core.slices").or_insert(0.0) += 1.0;
        }
        let finetune = Span {
            start_ns: run_start.at_ns,
            ..(*call).clone()
        };
        *m.entry("core.finetune_s").or_insert(0.0) += finetune.secs();
        *m.entry("core.self_s").or_insert(0.0) += self_secs(&finetune, &children(call.id));
    }
    for e in &events {
        match &e.event {
            TraceEvent::QueryLedger {
                category, queries, ..
            } => {
                ledger_total += queries;
                let key = match category {
                    QueryCategory::BatchLoss => "core.queries.batch_loss",
                    QueryCategory::Probe => "core.queries.probe",
                    QueryCategory::Fisher => "core.queries.fisher",
                    QueryCategory::Eval => "core.queries.eval",
                    _ => continue,
                };
                *m.entry(key).or_insert(0.0) += *queries as f64;
            }
            TraceEvent::JournalFlush { bytes, .. } => {
                *m.entry("core.journal.records").or_insert(0.0) += 1.0;
                *m.entry("core.journal.bytes").or_insert(0.0) += *bytes as f64;
            }
            TraceEvent::PoolStats {
                threads,
                map_calls,
                items,
                ..
            } => {
                m.insert("exec.threads", *threads as f64);
                *m.entry("exec.map_calls").or_insert(0.0) += *map_calls as f64;
                *m.entry("exec.items").or_insert(0.0) += *items as f64;
            }
            _ => {}
        }
    }
    if ledger_total != run.queries {
        return Err(format!(
            "traced ledger {ledger_total} queries != chip delta {}",
            run.queries
        ));
    }
    Ok(m)
}
