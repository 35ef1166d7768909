//! Structured telemetry for the photon-zo training stack.
//!
//! The DAC 2024 method is a *query-budgeted* black-box loop: every LCNG
//! probe, CMA-ES population member, calibration sweep, fidelity check and
//! evaluation pass spends chip queries. This crate makes that spend — and
//! the wall-time, cache and pool behaviour behind it — observable without
//! perturbing the training computation.
//!
//! Design contract:
//!
//! * **Zero dependencies.** Only `std`. Events are hand-serialized to
//!   JSON lines; no serde, no chrono.
//! * **Null by default, free when null.** Producers hold a [`TraceHandle`]
//!   whose default is the null sink. [`TraceHandle::emit`] takes a closure,
//!   so a disabled handle costs one branch and never constructs the event
//!   (hot paths stay allocation-free).
//! * **Observation only.** Sinks receive copies of values the trainer
//!   already computed. Attaching or detaching a sink must leave training
//!   bitwise identical: no RNG draws, no floating-point operations, no
//!   reordering may depend on the handle. `tests/telemetry.rs` in the
//!   workspace root enforces this at pool sizes 1/3/4.
//! * **Thread-safe sinks.** [`TraceSink::record`] takes `&self` and sinks
//!   are `Send + Sync`; emission points may sit on worker threads.
//!
//! Event ordering within one thread follows program order. The JSONL file
//! is line-buffered behind a mutex, so concurrent emitters interleave at
//! line granularity and every line is a complete JSON object.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// What a chip query was spent on. Every query the trainer issues is
/// attributed to exactly one category; the per-run ledger of
/// [`TraceEvent::QueryLedger`] entries therefore sums to the chip's own
/// [`query_count`](https://docs.rs/) delta — a property the test suite and
/// the CI telemetry gate both assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryCategory {
    /// ZO / LCNG perturbation probes and CMA-ES population evaluations.
    Probe,
    /// Base (unperturbed) mini-batch loss measurements, including
    /// divergence-guard re-reads.
    BatchLoss,
    /// Chip queries spent refreshing Fisher metrics / preconditioners.
    /// Zero for model-based metrics — the paper's point: LCNG gets its
    /// curvature from the calibrated software model, not the chip.
    Fisher,
    /// Calibration measurement sweeps (initial or in-run recalibration).
    Calibration,
    /// Fidelity-monitor probes of the self-healing ladder.
    RecoveryMonitor,
    /// Test-set evaluation sweeps (scheduled and final).
    Eval,
    /// Duplicate work spent by hedged serving dispatches: a microbatch
    /// re-dispatched to a second replica whose completion lost the race
    /// (or a primary completion that arrived after its hedge). The queries
    /// are real chip spend, so they stay on the ledger — attributed here
    /// rather than to the winning category — which is what keeps
    /// "ledger total == chip query delta" exact under hedging.
    Hedge,
}

impl QueryCategory {
    /// All categories, in ledger-report order.
    pub const ALL: [QueryCategory; 7] = [
        QueryCategory::Probe,
        QueryCategory::BatchLoss,
        QueryCategory::Fisher,
        QueryCategory::Calibration,
        QueryCategory::RecoveryMonitor,
        QueryCategory::Eval,
        QueryCategory::Hedge,
    ];

    /// Stable snake_case label (used as the JSON value).
    pub fn label(&self) -> &'static str {
        match self {
            QueryCategory::Probe => "probe",
            QueryCategory::BatchLoss => "batch_loss",
            QueryCategory::Fisher => "fisher",
            QueryCategory::Calibration => "calibration",
            QueryCategory::RecoveryMonitor => "recovery_monitor",
            QueryCategory::Eval => "eval",
            QueryCategory::Hedge => "hedge",
        }
    }
}

/// Per-category query counters. Plain `u64` arithmetic — cheap enough to
/// keep even on untraced runs, where it backs the trainer's
/// `debug_assert!` reconciliation against `chip.query_count()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerCounts {
    counts: [u64; QueryCategory::ALL.len()],
}

impl LedgerCounts {
    /// An all-zero ledger.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(cat: QueryCategory) -> usize {
        QueryCategory::ALL
            .iter()
            .position(|c| *c == cat)
            .expect("ALL is exhaustive")
    }

    /// Adds `queries` to `cat`.
    pub fn add(&mut self, cat: QueryCategory, queries: u64) {
        self.counts[Self::slot(cat)] += queries;
    }

    /// The count attributed to `cat`.
    pub fn get(&self, cat: QueryCategory) -> u64 {
        self.counts[Self::slot(cat)]
    }

    /// Sum over all categories.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Accumulates another ledger into this one.
    pub fn absorb(&mut self, other: &LedgerCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// `(category, count)` pairs in [`QueryCategory::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (QueryCategory, u64)> + '_ {
        QueryCategory::ALL
            .iter()
            .copied()
            .zip(self.counts.iter().copied())
    }
}

/// One typed telemetry event. All payloads are plain scalars so events are
/// cheap to clone and trivially serializable.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Start of a stage-2 fine-tune run.
    RunStart {
        /// Method label (e.g. `ZO-LCNG(calib)`).
        method: String,
        /// Configured stage-2 epochs.
        epochs: u64,
        /// Mini-batch size.
        batch_size: u64,
        /// ZO probe count `Q`.
        probes: u64,
        /// Dense-kernel tier selected at pool startup (`scalar` or `avx2`),
        /// so archived runs record which code path produced them (both
        /// tiers give the same bits).
        kernel: String,
    },
    /// Per-epoch training summary.
    EpochSpan {
        /// Stage-2 epoch (1-based).
        epoch: u64,
        /// Mean training loss over the epoch's batches.
        train_loss: f64,
        /// Test accuracy, when an evaluation ran this epoch.
        test_accuracy: Option<f64>,
        /// Test loss, when an evaluation ran this epoch.
        test_loss: Option<f64>,
        /// Adam learning rate at epoch end (reflects rollback backoffs).
        learning_rate: f64,
        /// Wall-clock seconds since the run started.
        wall_secs: f64,
        /// Cumulative training queries at epoch end (evals excluded).
        training_queries: u64,
    },
    /// One ledger entry: `queries` chip queries attributed to `category`.
    /// Epoch 0 denotes spend outside the epoch loop (e.g. pre-run
    /// calibration via `calibrate_traced`).
    QueryLedger {
        /// Stage-2 epoch the spend occurred in (0 = outside the loop).
        epoch: u64,
        /// What the queries were spent on.
        category: QueryCategory,
        /// Number of chip queries.
        queries: u64,
    },
    /// Compiled-unitary cache counters (run-level delta).
    CacheStats {
        /// Forward-batch calls served by the cached compiled plan.
        hits: u64,
        /// Full plan compilations (cache misses).
        misses: u64,
        /// Recompilations that evicted a previously valid plan.
        invalidations: u64,
        /// Compiles served incrementally from a pinned base (rank-1
        /// updates instead of a full mesh recompile).
        incremental: u64,
        /// Full recompiles forced by the incremental drift-bound cadence.
        forced_recompiles: u64,
        /// Stages that batches skipped by starting from a pinned base's
        /// memoized stage input.
        skipped_stages: u64,
    },
    /// Worker-pool counters (run-level).
    PoolStats {
        /// Configured worker threads.
        threads: u64,
        /// `map`/`map_with` calls executed.
        map_calls: u64,
        /// Total items processed across all calls.
        items: u64,
        /// Worst per-call imbalance: max share (in 1/1000ths of the call's
        /// items) claimed by a single worker. 1000 = one worker did
        /// everything (expected for serial pools).
        peak_worker_share_milli: u64,
    },
    /// A calibration fit completed.
    Calibration {
        /// Chip queries consumed by the measurement sweep.
        queries: u64,
        /// Residual cost before the fit.
        initial_cost: f64,
        /// Residual cost after the fit.
        fit_cost: f64,
        /// Gauss-Newton iterations used.
        iterations: u64,
    },
    /// The divergence guard rolled training back to the last snapshot.
    Rollback {
        /// Stage-2 epoch (1-based).
        epoch: u64,
        /// Global iteration index at the rollback.
        iteration: u64,
        /// The offending base loss (may be non-finite).
        loss: f64,
        /// The spike threshold it exceeded.
        threshold: f64,
        /// Learning rate after the backoff.
        new_lr: f64,
    },
    /// The fidelity monitor recalibrated the metric model.
    Recalibration {
        /// Stage-2 epoch (1-based).
        epoch: u64,
        /// Measured fidelity that triggered the recalibration.
        fidelity_before: f64,
        /// Fidelity of the freshly calibrated model.
        fidelity_after: f64,
        /// Chip queries the monitor + recalibration consumed.
        queries: u64,
        /// Whether the new model was adopted.
        adopted: bool,
    },
    /// Cumulative fault-injection counters (emitted from the serial
    /// `advance_to` control point whenever they changed).
    FaultStats {
        /// Iteration index of the control point.
        step: u64,
        /// Readings dropped to NaN so far.
        dropped: u64,
        /// Readings spiked so far.
        spiked: u64,
        /// Burst windows entered so far.
        bursts: u64,
    },
    /// One durable-run journal record hit the disk (fsynced).
    JournalFlush {
        /// Stage-2 epoch the record covers.
        epoch: u64,
        /// Records appended to the journal so far (header included).
        records: u64,
        /// Bytes of this framed record.
        bytes: u64,
    },
    /// A durable run resumed from its journal.
    Resume {
        /// Last completed epoch found in the journal.
        epoch: u64,
        /// Intact epoch records replayed.
        records_replayed: u64,
        /// Bytes of torn tail truncated during replay (0 for a clean log).
        truncated_bytes: u64,
    },
    /// End of a stage-2 fine-tune run, with reconciliation totals.
    RunEnd {
        /// Method label.
        method: String,
        /// Training queries (evals excluded), as on `TrainOutcome`.
        training_queries: u64,
        /// Evaluation + monitor + in-run recalibration queries.
        eval_queries: u64,
        /// Total chip queries spent by this run (training + eval).
        run_queries: u64,
        /// Absolute `chip.query_count()` at run end. For a fresh chip whose
        /// every query is traced, the sum of all `QueryLedger` entries
        /// equals this value.
        chip_query_count: u64,
        /// Wall-clock seconds for the whole run.
        wall_secs: f64,
    },
    /// A farm worker's chip changed health state (emitted by the chip-farm
    /// supervisor when its rolling error window or a chaos schedule moves a
    /// worker between healthy / degraded / quarantined / dead).
    ChipHealth {
        /// Worker name.
        worker: String,
        /// State before the transition.
        from: String,
        /// State after the transition.
        to: String,
        /// What drove it (e.g. "error window 3/4", "chaos kill").
        reason: String,
    },
    /// A farm job changed state (submitted / dispatched / preempted /
    /// migrated / completed / rejected).
    JobState {
        /// Job name (unique within the farm run).
        job: String,
        /// Owning tenant.
        tenant: String,
        /// The new state, as a stable lowercase word.
        state: String,
        /// Worker involved, or empty when not placed.
        worker: String,
        /// Free-form detail (rejection reason, epochs completed, …).
        detail: String,
    },
    /// Per-tenant end-of-farm ledger line: total chip spend attributed to
    /// the tenant across every slice of every job, for reconciliation
    /// against the per-worker chip counters.
    TenantLedger {
        /// Tenant name.
        tenant: String,
        /// Chip queries attributed to the tenant (discarded attempts
        /// included — this is raw chip spend, not just journaled spend).
        queries: u64,
        /// Jobs that finished with a completed outcome.
        jobs_completed: u64,
        /// Jobs that ended rejected (admission or mid-run load-shed).
        jobs_rejected: u64,
    },
    /// A canary comparison between the deployed theta and a shadow theta
    /// finished: seeded traffic was served by both, and the Mann-Whitney
    /// gate on the per-sample losses produced a verdict.
    CanaryVerdict {
        /// Online-recalibration cycle (1-based).
        cycle: u64,
        /// Canary samples routed to each arm.
        samples: u64,
        /// Mean per-sample loss of the deployed (baseline) theta.
        baseline_loss: f64,
        /// Mean per-sample loss of the shadow theta.
        shadow_loss: f64,
        /// Two-sided Mann-Whitney p-value of the loss comparison.
        p_value: f64,
        /// Whether the gate decided to promote the shadow.
        promote: bool,
    },
    /// The shadow theta was atomically promoted to the deployed pinned
    /// base at a serial control point.
    Promotion {
        /// Online-recalibration cycle (1-based).
        cycle: u64,
        /// Serial `advance_to` step the re-pin happened at.
        step: u64,
        /// Shadow fine-tune epochs that produced the promoted theta.
        shadow_epochs: u64,
        /// Canary loss of the promoted theta.
        shadow_loss: f64,
    },
    /// The shadow theta lost (or tied) the canary and was discarded; the
    /// deployed theta keeps serving.
    ShadowRollback {
        /// Online-recalibration cycle (1-based).
        cycle: u64,
        /// Serial `advance_to` step the decision was taken at.
        step: u64,
        /// Why the shadow was rejected (stable lowercase words, e.g.
        /// "canary_not_better", "finetune_diverged").
        reason: String,
    },
    /// Per-tenant serving-latency summary from a serving run or the
    /// discrete-event serving simulator: tail latencies, throughput, and
    /// what overload cost (shed requests, queue high-water mark).
    ServingStats {
        /// Tenant name (or `"all"` for the aggregate row).
        tenant: String,
        /// Requests that arrived during the run.
        arrivals: u64,
        /// Requests served to completion.
        completed: u64,
        /// Requests shed at admission (queue full).
        shed: u64,
        /// Median latency in nanoseconds (virtual time in simulation).
        p50_ns: f64,
        /// 99th-percentile latency in nanoseconds.
        p99_ns: f64,
        /// 99.9th-percentile latency in nanoseconds.
        p999_ns: f64,
        /// Completed requests per second of makespan.
        throughput_rps: f64,
        /// High-water queue depth observed.
        peak_queue_depth: u64,
        /// Mean requests per coalesced dispatch.
        mean_batch: f64,
    },
}

/// Formats an `f64` as a JSON value; non-finite values become `null`
/// (JSON has no NaN/Infinity).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{}` prints the shortest representation that round-trips; bare
        // integers like `3` are valid JSON numbers already.
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) => json_f64(x),
        None => "null".into(),
    }
}

/// Formats a string as a quoted, escaped JSON value.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl TraceEvent {
    /// Stable snake_case discriminant, used as the `"type"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::EpochSpan { .. } => "epoch_span",
            TraceEvent::QueryLedger { .. } => "query_ledger",
            TraceEvent::CacheStats { .. } => "cache_stats",
            TraceEvent::PoolStats { .. } => "pool_stats",
            TraceEvent::Calibration { .. } => "calibration",
            TraceEvent::Rollback { .. } => "rollback",
            TraceEvent::Recalibration { .. } => "recalibration",
            TraceEvent::FaultStats { .. } => "fault_stats",
            TraceEvent::JournalFlush { .. } => "journal_flush",
            TraceEvent::Resume { .. } => "resume",
            TraceEvent::RunEnd { .. } => "run_end",
            TraceEvent::ChipHealth { .. } => "chip_health",
            TraceEvent::JobState { .. } => "job_state",
            TraceEvent::TenantLedger { .. } => "tenant_ledger",
            TraceEvent::CanaryVerdict { .. } => "canary_verdict",
            TraceEvent::Promotion { .. } => "promotion",
            TraceEvent::ShadowRollback { .. } => "shadow_rollback",
            TraceEvent::ServingStats { .. } => "serving_stats",
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let kind = json_str(self.kind());
        match self {
            TraceEvent::RunStart {
                method,
                epochs,
                batch_size,
                probes,
                kernel,
            } => format!(
                "{{\"type\":{kind},\"method\":{},\"epochs\":{epochs},\"batch_size\":{batch_size},\"probes\":{probes},\"kernel\":{}}}",
                json_str(method),
                json_str(kernel)
            ),
            TraceEvent::EpochSpan {
                epoch,
                train_loss,
                test_accuracy,
                test_loss,
                learning_rate,
                wall_secs,
                training_queries,
            } => format!(
                "{{\"type\":{kind},\"epoch\":{epoch},\"train_loss\":{},\"test_accuracy\":{},\"test_loss\":{},\"learning_rate\":{},\"wall_secs\":{},\"training_queries\":{training_queries}}}",
                json_f64(*train_loss),
                json_opt_f64(*test_accuracy),
                json_opt_f64(*test_loss),
                json_f64(*learning_rate),
                json_f64(*wall_secs),
            ),
            TraceEvent::QueryLedger {
                epoch,
                category,
                queries,
            } => format!(
                "{{\"type\":{kind},\"epoch\":{epoch},\"category\":{},\"queries\":{queries}}}",
                json_str(category.label())
            ),
            TraceEvent::CacheStats {
                hits,
                misses,
                invalidations,
                incremental,
                forced_recompiles,
                skipped_stages,
            } => format!(
                "{{\"type\":{kind},\"hits\":{hits},\"misses\":{misses},\"invalidations\":{invalidations},\"incremental\":{incremental},\"forced_recompiles\":{forced_recompiles},\"skipped_stages\":{skipped_stages}}}"
            ),
            TraceEvent::PoolStats {
                threads,
                map_calls,
                items,
                peak_worker_share_milli,
            } => format!(
                "{{\"type\":{kind},\"threads\":{threads},\"map_calls\":{map_calls},\"items\":{items},\"peak_worker_share_milli\":{peak_worker_share_milli}}}"
            ),
            TraceEvent::Calibration {
                queries,
                initial_cost,
                fit_cost,
                iterations,
            } => format!(
                "{{\"type\":{kind},\"queries\":{queries},\"initial_cost\":{},\"fit_cost\":{},\"iterations\":{iterations}}}",
                json_f64(*initial_cost),
                json_f64(*fit_cost),
            ),
            TraceEvent::Rollback {
                epoch,
                iteration,
                loss,
                threshold,
                new_lr,
            } => format!(
                "{{\"type\":{kind},\"epoch\":{epoch},\"iteration\":{iteration},\"loss\":{},\"threshold\":{},\"new_lr\":{}}}",
                json_f64(*loss),
                json_f64(*threshold),
                json_f64(*new_lr),
            ),
            TraceEvent::Recalibration {
                epoch,
                fidelity_before,
                fidelity_after,
                queries,
                adopted,
            } => format!(
                "{{\"type\":{kind},\"epoch\":{epoch},\"fidelity_before\":{},\"fidelity_after\":{},\"queries\":{queries},\"adopted\":{adopted}}}",
                json_f64(*fidelity_before),
                json_f64(*fidelity_after),
            ),
            TraceEvent::FaultStats {
                step,
                dropped,
                spiked,
                bursts,
            } => format!(
                "{{\"type\":{kind},\"step\":{step},\"dropped\":{dropped},\"spiked\":{spiked},\"bursts\":{bursts}}}"
            ),
            TraceEvent::JournalFlush {
                epoch,
                records,
                bytes,
            } => format!(
                "{{\"type\":{kind},\"epoch\":{epoch},\"records\":{records},\"bytes\":{bytes}}}"
            ),
            TraceEvent::Resume {
                epoch,
                records_replayed,
                truncated_bytes,
            } => format!(
                "{{\"type\":{kind},\"epoch\":{epoch},\"records_replayed\":{records_replayed},\"truncated_bytes\":{truncated_bytes}}}"
            ),
            TraceEvent::RunEnd {
                method,
                training_queries,
                eval_queries,
                run_queries,
                chip_query_count,
                wall_secs,
            } => format!(
                "{{\"type\":{kind},\"method\":{},\"training_queries\":{training_queries},\"eval_queries\":{eval_queries},\"run_queries\":{run_queries},\"chip_query_count\":{chip_query_count},\"wall_secs\":{}}}",
                json_str(method),
                json_f64(*wall_secs),
            ),
            TraceEvent::ChipHealth {
                worker,
                from,
                to,
                reason,
            } => format!(
                "{{\"type\":{kind},\"worker\":{},\"from\":{},\"to\":{},\"reason\":{}}}",
                json_str(worker),
                json_str(from),
                json_str(to),
                json_str(reason),
            ),
            TraceEvent::JobState {
                job,
                tenant,
                state,
                worker,
                detail,
            } => format!(
                "{{\"type\":{kind},\"job\":{},\"tenant\":{},\"state\":{},\"worker\":{},\"detail\":{}}}",
                json_str(job),
                json_str(tenant),
                json_str(state),
                json_str(worker),
                json_str(detail),
            ),
            TraceEvent::TenantLedger {
                tenant,
                queries,
                jobs_completed,
                jobs_rejected,
            } => format!(
                "{{\"type\":{kind},\"tenant\":{},\"queries\":{queries},\"jobs_completed\":{jobs_completed},\"jobs_rejected\":{jobs_rejected}}}",
                json_str(tenant),
            ),
            TraceEvent::CanaryVerdict {
                cycle,
                samples,
                baseline_loss,
                shadow_loss,
                p_value,
                promote,
            } => format!(
                "{{\"type\":{kind},\"cycle\":{cycle},\"samples\":{samples},\"baseline_loss\":{},\"shadow_loss\":{},\"p_value\":{},\"promote\":{promote}}}",
                json_f64(*baseline_loss),
                json_f64(*shadow_loss),
                json_f64(*p_value),
            ),
            TraceEvent::Promotion {
                cycle,
                step,
                shadow_epochs,
                shadow_loss,
            } => format!(
                "{{\"type\":{kind},\"cycle\":{cycle},\"step\":{step},\"shadow_epochs\":{shadow_epochs},\"shadow_loss\":{}}}",
                json_f64(*shadow_loss),
            ),
            TraceEvent::ShadowRollback {
                cycle,
                step,
                reason,
            } => format!(
                "{{\"type\":{kind},\"cycle\":{cycle},\"step\":{step},\"reason\":{}}}",
                json_str(reason),
            ),
            TraceEvent::ServingStats {
                tenant,
                arrivals,
                completed,
                shed,
                p50_ns,
                p99_ns,
                p999_ns,
                throughput_rps,
                peak_queue_depth,
                mean_batch,
            } => format!(
                "{{\"type\":{kind},\"tenant\":{},\"arrivals\":{arrivals},\"completed\":{completed},\"shed\":{shed},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"throughput_rps\":{},\"peak_queue_depth\":{peak_queue_depth},\"mean_batch\":{}}}",
                json_str(tenant),
                json_f64(*p50_ns),
                json_f64(*p99_ns),
                json_f64(*p999_ns),
                json_f64(*throughput_rps),
                json_f64(*mean_batch),
            ),
        }
    }
}

/// Receives trace events. Implementations must tolerate concurrent calls.
pub trait TraceSink: Send + Sync {
    /// Records one event. Must not panic; I/O errors are swallowed.
    fn record(&self, event: &TraceEvent);

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// Discards everything (the default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &TraceEvent) {}
}

/// Appends one JSON object per event to a file (JSON Lines).
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from directory or file creation.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        let line = event.to_json();
        if let Ok(mut w) = self.writer.lock() {
            // Telemetry must never take training down: I/O errors are
            // dropped on the floor.
            let _ = writeln!(w, "{line}");
        }
    }

    fn flush(&self) {
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.flush();
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

/// Keeps the most recent `capacity` events in memory (a ring buffer).
/// Intended for tests and for rendering an end-of-run summary.
#[derive(Debug)]
pub struct MemorySink {
    events: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
}

impl MemorySink {
    /// A ring holding up to `capacity` events (0 is treated as unbounded).
    pub fn new(capacity: usize) -> Self {
        MemorySink {
            events: Mutex::new(VecDeque::new()),
            capacity,
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .map(|e| e.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.lock().map(|e| e.len()).unwrap_or(0)
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for MemorySink {
    fn default() -> Self {
        MemorySink::new(0)
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &TraceEvent) {
        if let Ok(mut e) = self.events.lock() {
            if self.capacity > 0 && e.len() == self.capacity {
                e.pop_front();
            }
            e.push_back(event.clone());
        }
    }
}

/// Fans one event stream out to several sinks (e.g. JSONL file + memory
/// ring for the end-of-run summary).
pub struct TeeSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl TeeSink {
    /// Records every event to each of `sinks`, in order.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        TeeSink { sinks }
    }
}

impl TraceSink for TeeSink {
    fn record(&self, event: &TraceEvent) {
        for s in &self.sinks {
            s.record(event);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }
}

impl fmt::Debug for TeeSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TeeSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// A cheap, cloneable handle producers thread through configs. The default
/// (null) handle drops every event without constructing it.
#[derive(Clone, Default)]
pub struct TraceHandle {
    sink: Option<Arc<dyn TraceSink>>,
}

impl TraceHandle {
    /// The null handle: events are discarded, `emit` closures never run.
    pub fn null() -> Self {
        TraceHandle { sink: None }
    }

    /// Wraps an existing sink.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        TraceHandle { sink: Some(sink) }
    }

    /// Convenience: a handle writing JSON lines to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from [`JsonlSink::create`].
    pub fn jsonl<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Ok(Self::new(Arc::new(JsonlSink::create(path)?)))
    }

    /// Convenience: an in-memory handle plus the sink to read it back.
    pub fn memory(capacity: usize) -> (Self, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new(capacity));
        (Self::new(sink.clone() as Arc<dyn TraceSink>), sink)
    }

    /// Convenience: a handle fanning out to several sinks.
    pub fn tee(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        Self::new(Arc::new(TeeSink::new(sinks)))
    }

    /// `true` when a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event produced by `make` — which runs only when a sink is
    /// attached, so null-handle call sites pay one branch and allocate
    /// nothing.
    pub fn emit<F: FnOnce() -> TraceEvent>(&self, make: F) {
        if let Some(sink) = &self.sink {
            sink.record(&make());
        }
    }

    /// Flushes the attached sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

/// `Debug` for the handle shows only enablement — sinks are opaque.
impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Handles compare by sink identity: two nulls are equal; otherwise equal
/// only when they share the same `Arc`. This keeps `PartialEq` derivable
/// on configs that embed a handle.
impl PartialEq for TraceHandle {
    fn eq(&self, other: &Self) -> bool {
        match (&self.sink, &other.sink) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_handle_never_runs_closure() {
        let h = TraceHandle::null();
        assert!(!h.is_enabled());
        let mut ran = false;
        h.emit(|| {
            ran = true;
            TraceEvent::CacheStats {
                hits: 0,
                misses: 0,
                invalidations: 0,
                incremental: 0,
                forced_recompiles: 0,
                skipped_stages: 0,
            }
        });
        assert!(!ran, "null handle must not construct events");
    }

    #[test]
    fn memory_sink_retains_events_in_order() {
        let (h, mem) = TraceHandle::memory(0);
        assert!(h.is_enabled());
        for i in 0..3 {
            h.emit(|| TraceEvent::QueryLedger {
                epoch: i,
                category: QueryCategory::Probe,
                queries: 10 * i,
            });
        }
        let events = mem.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[2],
            TraceEvent::QueryLedger {
                epoch: 2,
                category: QueryCategory::Probe,
                queries: 20
            }
        );
    }

    #[test]
    fn memory_ring_caps_capacity() {
        let (h, mem) = TraceHandle::memory(2);
        for i in 0..5u64 {
            h.emit(|| TraceEvent::FaultStats {
                step: i,
                dropped: 0,
                spiked: 0,
                bursts: 0,
            });
        }
        let events = mem.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], TraceEvent::FaultStats { step: 3, .. }));
    }

    #[test]
    fn ledger_counts_sum_and_absorb() {
        let mut a = LedgerCounts::new();
        a.add(QueryCategory::Probe, 100);
        a.add(QueryCategory::Eval, 7);
        let mut b = LedgerCounts::new();
        b.add(QueryCategory::Probe, 1);
        b.absorb(&a);
        assert_eq!(b.get(QueryCategory::Probe), 101);
        assert_eq!(b.total(), 108);
        let listed: u64 = b.iter().map(|(_, q)| q).sum();
        assert_eq!(listed, b.total());
    }

    #[test]
    fn json_escapes_and_non_finite() {
        let e = TraceEvent::RunStart {
            method: "a\"b\\c\n".into(),
            epochs: 1,
            batch_size: 2,
            probes: 3,
            kernel: "avx2-fma".into(),
        };
        let s = e.to_json();
        assert!(s.contains("a\\\"b\\\\c\\n"));
        assert!(s.contains("\"kernel\":\"avx2-fma\""));
        let e = TraceEvent::Rollback {
            epoch: 1,
            iteration: 2,
            loss: f64::NAN,
            threshold: f64::INFINITY,
            new_lr: 0.5,
        };
        let s = e.to_json();
        assert!(s.contains("\"loss\":null"));
        assert!(s.contains("\"threshold\":null"));
        assert!(s.contains("\"new_lr\":0.5"));
    }

    #[test]
    fn durable_run_events_serialize() {
        let e = TraceEvent::JournalFlush {
            epoch: 3,
            records: 4,
            bytes: 512,
        };
        assert_eq!(e.kind(), "journal_flush");
        let s = e.to_json();
        assert!(s.contains("\"type\":\"journal_flush\""));
        assert!(s.contains("\"epoch\":3"));
        assert!(s.contains("\"bytes\":512"));
        let e = TraceEvent::Resume {
            epoch: 3,
            records_replayed: 3,
            truncated_bytes: 0,
        };
        assert_eq!(e.kind(), "resume");
        let s = e.to_json();
        assert!(s.contains("\"type\":\"resume\""));
        assert!(s.contains("\"records_replayed\":3"));
        assert!(s.contains("\"truncated_bytes\":0"));
    }

    #[test]
    fn serving_stats_serializes() {
        let e = TraceEvent::ServingStats {
            tenant: "alice".into(),
            arrivals: 1000,
            completed: 990,
            shed: 10,
            p50_ns: 12_000.0,
            p99_ns: 95_000.5,
            p999_ns: f64::NAN,
            throughput_rps: 125_000.0,
            peak_queue_depth: 42,
            mean_batch: 7.75,
        };
        assert_eq!(e.kind(), "serving_stats");
        let s = e.to_json();
        assert!(s.contains("\"type\":\"serving_stats\""));
        assert!(s.contains("\"tenant\":\"alice\""));
        assert!(s.contains("\"arrivals\":1000"));
        assert!(s.contains("\"completed\":990"));
        assert!(s.contains("\"shed\":10"));
        assert!(s.contains("\"p50_ns\":12000"));
        assert!(s.contains("\"p99_ns\":95000.5"));
        // NaN tail (no samples) must serialize as null, not poison the line.
        assert!(s.contains("\"p999_ns\":null"));
        assert!(s.contains("\"peak_queue_depth\":42"));
        assert!(s.contains("\"mean_batch\":7.75"));
    }

    #[test]
    fn online_recal_events_serialize() {
        let e = TraceEvent::CanaryVerdict {
            cycle: 2,
            samples: 8,
            baseline_loss: 0.75,
            shadow_loss: 0.25,
            p_value: 0.0125,
            promote: true,
        };
        assert_eq!(e.kind(), "canary_verdict");
        let s = e.to_json();
        assert!(s.contains("\"type\":\"canary_verdict\""));
        assert!(s.contains("\"cycle\":2"));
        assert!(s.contains("\"samples\":8"));
        assert!(s.contains("\"baseline_loss\":0.75"));
        assert!(s.contains("\"shadow_loss\":0.25"));
        assert!(s.contains("\"p_value\":0.0125"));
        assert!(s.contains("\"promote\":true"));

        let e = TraceEvent::Promotion {
            cycle: 2,
            step: 640,
            shadow_epochs: 3,
            shadow_loss: 0.25,
        };
        assert_eq!(e.kind(), "promotion");
        let s = e.to_json();
        assert!(s.contains("\"type\":\"promotion\""));
        assert!(s.contains("\"step\":640"));
        assert!(s.contains("\"shadow_epochs\":3"));

        let e = TraceEvent::ShadowRollback {
            cycle: 3,
            step: 960,
            reason: "canary_not_better".into(),
        };
        assert_eq!(e.kind(), "shadow_rollback");
        let s = e.to_json();
        assert!(s.contains("\"type\":\"shadow_rollback\""));
        assert!(s.contains("\"reason\":\"canary_not_better\""));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("photon_trace_test");
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(&TraceEvent::CacheStats {
            hits: 5,
            misses: 1,
            invalidations: 0,
            incremental: 3,
            forced_recompiles: 0,
            skipped_stages: 2,
        });
        sink.record(&TraceEvent::QueryLedger {
            epoch: 1,
            category: QueryCategory::Eval,
            queries: 42,
        });
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(lines[0].contains("\"skipped_stages\":2"));
        assert!(lines[1].contains("\"category\":\"eval\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tee_fans_out() {
        let m1 = Arc::new(MemorySink::new(0));
        let m2 = Arc::new(MemorySink::new(0));
        let h = TraceHandle::tee(vec![
            m1.clone() as Arc<dyn TraceSink>,
            m2.clone() as Arc<dyn TraceSink>,
        ]);
        h.emit(|| TraceEvent::PoolStats {
            threads: 4,
            map_calls: 1,
            items: 8,
            peak_worker_share_milli: 250,
        });
        assert_eq!(m1.len(), 1);
        assert_eq!(m2.len(), 1);
    }

    #[test]
    fn handle_equality_is_sink_identity() {
        let (a, _) = TraceHandle::memory(0);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(TraceHandle::null(), TraceHandle::null());
        assert_ne!(a, TraceHandle::null());
        let (c, _) = TraceHandle::memory(0);
        assert_ne!(a, c);
    }
}
