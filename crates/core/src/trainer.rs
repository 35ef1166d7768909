//! The two-stage training orchestrator.
//!
//! Stage 1 (warm start): a few epochs of backpropagation on the *ideal*
//! software model — fast but systematically wrong about the fabricated
//! chip's errors.
//!
//! Stage 2 (black-box fine-tune): the compared method runs against the
//! chip, seeing only loss values. Methods:
//!
//! | label        | description |
//! |--------------|-------------|
//! | `ZO-I`       | vanilla ZO, `N(0, I)` probes, Adam |
//! | `ZO-co`      | coordinate-wise ZO probes, Adam |
//! | `ZO-Σ`       | ZO with layered covariance-shaped probes (extension) |
//! | `ZO-LC`      | linear combination, identity metric (ablation) |
//! | `ZO-NG`      | vanilla ZO + block natural-gradient preconditioning |
//! | `ZO-LCNG`    | **the paper's method**: linear combination natural gradient with a model Fisher metric |
//! | `CMA`        | CMA-ES over all parameters |
//! | `BP-ideal`   | backprop on the ideal model (never queries the chip) |
//! | `BP-calib`   | backprop on the calibrated model |
//! | `BP-oracle`  | backprop with perfect error information (upper bound) |

use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use photon_calib::{calibrate, evaluate_model, CalibrationSettings};
use photon_data::{Batcher, Dataset};
use photon_exec::{run_guarded, ExecPool, WatchdogPolicy};
use photon_linalg::RVector;
use photon_opt::{
    estimate_gradient, layered_sigma_segments, lcng_direction, penalize_non_finite,
    retry_non_finite, Adam, BlockNaturalPreconditioner, CmaEs, LcngSettings, MetricSource,
    Perturbation, RobustEval, ZoSettings,
};
use photon_photonics::{ideal_model, CacheStats, ErrorVector, FabricatedChip, Network, OnnChip};
use photon_trace::{LedgerCounts, QueryCategory, TraceEvent, TraceHandle};

use crate::journal::{
    epoch_seed, EpochEntry, JournalError, JournalHeader, Replay, RollbackSnapshot, RunJournal,
    RunState,
};
use crate::loss::{ClassificationHead, CoreError};
use crate::metrics::{
    batch_inputs, chip_batch_loss, evaluate_chip, model_batch_loss_and_grad, Evaluation,
};

impl From<JournalError> for CoreError {
    fn from(e: JournalError) -> Self {
        CoreError::Journal(e.to_string())
    }
}

/// Which software model supplies curvature / error information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelChoice {
    /// Error-free model (no measurements needed).
    Ideal,
    /// Calibrated model attached via [`Trainer::with_calibrated_model`].
    Calibrated,
    /// Oracle model with the chip's true errors (upper-bound ablation).
    OracleTrue,
}

impl ModelChoice {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            ModelChoice::Ideal => "ideal",
            ModelChoice::Calibrated => "calib",
            ModelChoice::OracleTrue => "oracle",
        }
    }
}

/// A stage-2 training method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Vanilla ZO with Gaussian probes ("ZO-I").
    ZoGaussian,
    /// Coordinate-wise ZO ("ZO-co").
    ZoCoordinate,
    /// ZO with layered covariance-shaped probes ("ZO-Σ", extension).
    ZoShaped {
        /// Metric-model source for the probe covariance.
        model: ModelChoice,
    },
    /// Linear combination with identity metric ("ZO-LC", ablation).
    ZoLc,
    /// Vanilla ZO preconditioned by block Fisher ("ZO-NG", ablation).
    ZoNg {
        /// Metric-model source for the preconditioner.
        model: ModelChoice,
    },
    /// Linear combination natural gradient ("ZO-LCNG", the paper's method).
    Lcng {
        /// Metric-model source for the Gram curvature.
        model: ModelChoice,
    },
    /// CMA-ES baseline.
    Cma {
        /// Initial global step size σ₀.
        sigma0: f64,
    },
    /// Backprop on the ideal model (never touches the chip in stage 2).
    BpIdeal,
    /// Backprop on the calibrated model.
    BpCalibrated,
    /// Backprop with perfect error information (upper bound).
    BpOracle,
}

impl Method {
    /// The label used in tables and figures.
    pub fn label(&self) -> String {
        match self {
            Method::ZoGaussian => "ZO-I".into(),
            Method::ZoCoordinate => "ZO-co".into(),
            Method::ZoShaped { model } => format!("ZO-S({})", model.label()),
            Method::ZoLc => "ZO-LC".into(),
            Method::ZoNg { model } => format!("ZO-NG({})", model.label()),
            Method::Lcng { model } => format!("ZO-LCNG({})", model.label()),
            Method::Cma { .. } => "CMA".into(),
            Method::BpIdeal => "BP-ideal".into(),
            Method::BpCalibrated => "BP-calib".into(),
            Method::BpOracle => "BP-oracle".into(),
        }
    }

    /// Stable machine-readable code used by the run journal's header
    /// record. Inverse of [`Method::decode`].
    pub fn encode(&self) -> String {
        match self {
            Method::ZoGaussian => "zo-i".into(),
            Method::ZoCoordinate => "zo-co".into(),
            Method::ZoShaped { model } => format!("zo-s {}", model.label()),
            Method::ZoLc => "zo-lc".into(),
            Method::ZoNg { model } => format!("zo-ng {}", model.label()),
            Method::Lcng { model } => format!("lcng {}", model.label()),
            Method::Cma { sigma0 } => format!("cma {sigma0:?}"),
            Method::BpIdeal => "bp-ideal".into(),
            Method::BpCalibrated => "bp-calib".into(),
            Method::BpOracle => "bp-oracle".into(),
        }
    }

    /// Parses a [`Method::encode`] code. Returns `None` for unknown codes.
    pub fn decode(code: &str) -> Option<Method> {
        let mut it = code.split_whitespace();
        let head = it.next()?;
        let model = |arg: Option<&str>| -> Option<ModelChoice> {
            match arg? {
                "ideal" => Some(ModelChoice::Ideal),
                "calib" => Some(ModelChoice::Calibrated),
                "oracle" => Some(ModelChoice::OracleTrue),
                _ => None,
            }
        };
        let method = match head {
            "zo-i" => Method::ZoGaussian,
            "zo-co" => Method::ZoCoordinate,
            "zo-s" => Method::ZoShaped { model: model(it.next())? },
            "zo-lc" => Method::ZoLc,
            "zo-ng" => Method::ZoNg { model: model(it.next())? },
            "lcng" => Method::Lcng { model: model(it.next())? },
            "cma" => Method::Cma {
                sigma0: it.next()?.parse().ok()?,
            },
            "bp-ideal" => Method::BpIdeal,
            "bp-calib" => Method::BpCalibrated,
            "bp-oracle" => Method::BpOracle,
            _ => return None,
        };
        if it.next().is_some() {
            return None;
        }
        Some(method)
    }

    /// Whether stage 2 consumes chip queries for training.
    pub fn queries_chip(&self) -> bool {
        !matches!(
            self,
            Method::BpIdeal | Method::BpCalibrated | Method::BpOracle
        )
    }
}

/// Hyperparameters shared by the two training stages.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Stage-1 warm-start epochs (backprop on the ideal model).
    pub warm_epochs: usize,
    /// Stage-1 learning rate.
    pub warm_lr: f64,
    /// Stage-2 epochs.
    pub epochs: usize,
    /// Mini-batch size `B`.
    pub batch_size: usize,
    /// Probe count `Q` per ZO estimate.
    pub q: usize,
    /// Stage-2 learning rate (Adam).
    pub lr: f64,
    /// Damping `ρ` for natural-gradient blocks and shaped covariances.
    pub rho: f64,
    /// Relative ridge for the LCNG Gram solve.
    pub ridge: f64,
    /// Refresh cadence `T_ud` (iterations) of preconditioners / covariances.
    pub t_update: usize,
    /// Number of Fisher-metric input vectors `R_in` per refresh.
    pub r_in: usize,
    /// Evaluate on the test set every this many epochs (0 = only at the
    /// end).
    pub eval_every: usize,
    /// Override of the ZO smoothing step `μ` (default `1e-3/√N`). Raise it
    /// when the chip has measurement noise: quotients average the noise
    /// over a larger loss difference.
    pub mu_override: Option<f64>,
    /// Worker threads for probe / batch / Fisher / population evaluation.
    /// `None` honours `PHOTON_THREADS` (falling back to the machine's
    /// available parallelism); `Some(1)` forces exact serial execution.
    pub threads: Option<usize>,
    /// Self-healing policy for faulty chips. The presets disable it, which
    /// keeps the legacy training path bitwise intact; enable it (e.g.
    /// [`RecoveryPolicy::standard`]) when the chip may drift, spike, or
    /// drop reads.
    pub recovery: RecoveryPolicy,
    /// Telemetry sink. Defaults to the null handle, which keeps the
    /// training hot paths allocation-free and the run bitwise identical to
    /// an untraced one; attach a sink (e.g.
    /// [`photon_trace::TraceHandle::jsonl`]) to receive structured
    /// [`TraceEvent`]s — epoch spans, the per-category query ledger, cache
    /// / pool counters and recovery actions.
    pub trace: TraceHandle,
}

/// Self-healing policy: how the trainer reacts to faulty chip behaviour.
///
/// The recovery ladder, in escalation order:
///
/// 1. **retry** — non-finite loss readings are re-measured in place;
/// 2. **reject** — outlier difference quotients are screened out and
///    re-read (see [`photon_opt::RobustEval`]);
/// 3. **rollback** — a diverging iteration (non-finite base loss, or base
///    loss above `spike_factor ×` its running EMA) restores the last good
///    `(θ, optimizer)` snapshot and shrinks the learning rate;
/// 4. **recalibrate** — when the metric model's measured fidelity falls
///    below `fidelity_threshold`, the chip is recalibrated in place and the
///    model replaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Master switch. When `false` every other field is ignored and the
    /// training path is bitwise identical to the pre-recovery trainer.
    pub enabled: bool,
    /// Immediate re-measurements of a non-finite loss reading.
    pub max_retries: u32,
    /// Robust z-score beyond which a difference quotient is rejected.
    pub outlier_zscore: f64,
    /// Re-reads replacing a rejected probe (median taken).
    pub rereads: usize,
    /// Base-loss spike threshold as a multiple of the loss EMA.
    pub spike_factor: f64,
    /// EMA smoothing factor for the divergence guard (weight of the newest
    /// loss).
    pub ema_alpha: f64,
    /// Learning-rate multiplier applied at each rollback.
    pub lr_backoff: f64,
    /// Maximum rollbacks per fine-tune run.
    pub max_rollbacks: usize,
    /// Power-fidelity floor below which auto-recalibration triggers.
    pub fidelity_threshold: f64,
    /// Check model fidelity every this many epochs (0 = never).
    pub fidelity_every: usize,
    /// Random probes per fidelity check.
    pub fidelity_probes: usize,
    /// Chip-query budget per auto-recalibration (0 = never recalibrate).
    pub recalib_budget: usize,
}

impl RecoveryPolicy {
    /// Recovery off: the trainer behaves exactly as if the policy did not
    /// exist.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            enabled: false,
            max_retries: 0,
            outlier_zscore: 0.0,
            rereads: 0,
            spike_factor: 0.0,
            ema_alpha: 0.0,
            lr_backoff: 1.0,
            max_rollbacks: 0,
            fidelity_threshold: 0.0,
            fidelity_every: 0,
            fidelity_probes: 0,
            recalib_budget: 0,
        }
    }

    /// A balanced default for chips with drift and transient faults.
    pub fn standard() -> Self {
        RecoveryPolicy {
            enabled: true,
            max_retries: 3,
            outlier_zscore: 6.0,
            rereads: 3,
            spike_factor: 3.0,
            ema_alpha: 0.3,
            lr_backoff: 0.5,
            max_rollbacks: 8,
            fidelity_threshold: 0.995,
            fidelity_every: 1,
            fidelity_probes: 8,
            recalib_budget: 64,
        }
    }
}

/// Counts of recovery actions over one epoch (on [`EpochRecord`]) or one
/// run (on [`TrainOutcome`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Non-finite loss readings that were re-measured.
    pub retries: u64,
    /// Probes rejected by the outlier screen (including unrecoverable ones
    /// that were zeroed out of the estimate).
    pub rejected_probes: u64,
    /// Divergence rollbacks to the last good snapshot.
    pub rollbacks: u64,
    /// Auto-recalibrations of the metric model.
    pub recalibrations: u64,
}

impl RecoveryStats {
    /// Accumulates another period's stats into this one.
    pub fn absorb(&mut self, other: RecoveryStats) {
        self.retries += other.retries;
        self.rejected_probes += other.rejected_probes;
        self.rollbacks += other.rollbacks;
        self.recalibrations += other.recalibrations;
    }

    /// `true` when no recovery action of any kind was taken.
    pub fn is_quiet(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

/// One structured recovery action, in the order it occurred.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEvent {
    /// The divergence guard rolled training back to the last good snapshot.
    Rollback {
        /// Stage-2 epoch (1-based) the rollback occurred in.
        epoch: usize,
        /// Global iteration index at the rollback.
        iteration: usize,
        /// The offending base loss (may be infinite).
        loss: f64,
        /// The spike threshold it exceeded (infinite when the trigger was a
        /// non-finite reading before any EMA existed).
        threshold: f64,
        /// Learning rate after the backoff.
        new_lr: f64,
    },
    /// The fidelity monitor recalibrated the metric model in place.
    Recalibration {
        /// Stage-2 epoch (1-based) the recalibration occurred in.
        epoch: usize,
        /// Measured power fidelity that triggered the recalibration.
        fidelity_before: f64,
        /// Power fidelity of the freshly calibrated model.
        fidelity_after: f64,
        /// Chip queries the monitor + recalibration consumed.
        queries: u64,
        /// Whether the new model was adopted. A recalibration whose own
        /// measurements were fault-corrupted can come out *worse* than the
        /// incumbent; such a model is measured, rejected and discarded.
        adopted: bool,
    },
}

impl TrainConfig {
    /// Paper-line defaults scaled to a network with `n` parameters and
    /// input dimension `k`: `B = 100`, `Q = K`, `T_ud = 100`, `ρ = 0.1`.
    pub fn for_network(n: usize, k: usize) -> Self {
        let _ = n;
        TrainConfig {
            warm_epochs: 10,
            warm_lr: 0.02,
            epochs: 100,
            batch_size: 100,
            q: k.max(2),
            lr: 0.01,
            rho: 0.1,
            ridge: 0.1,
            t_update: 100,
            r_in: 8,
            eval_every: 0,
            mu_override: None,
            threads: None,
            recovery: RecoveryPolicy::disabled(),
            trace: TraceHandle::null(),
        }
    }

    /// A fast preset for tests and examples.
    pub fn quick(k: usize) -> Self {
        TrainConfig {
            warm_epochs: 3,
            warm_lr: 0.02,
            epochs: 5,
            batch_size: 16,
            q: k.max(2),
            lr: 0.02,
            rho: 0.1,
            ridge: 0.1,
            t_update: 10,
            r_in: 4,
            eval_every: 0,
            mu_override: None,
            threads: None,
            recovery: RecoveryPolicy::disabled(),
            trace: TraceHandle::null(),
        }
    }
}

/// One epoch's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Stage-2 epoch index (1-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f64,
    /// Test evaluation, when scheduled this epoch.
    pub test: Option<Evaluation>,
    /// Cumulative *training* chip queries at the end of the epoch
    /// (evaluation sweeps excluded).
    pub training_queries: u64,
    /// Recovery actions taken during this epoch.
    pub recovery: RecoveryStats,
}

/// The result of a full two-stage run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Method label.
    pub method: String,
    /// Per-epoch records.
    pub history: Vec<EpochRecord>,
    /// Final test evaluation on the chip.
    pub final_eval: Evaluation,
    /// Final parameters.
    pub theta: RVector,
    /// Total training chip queries (stage 2, excluding evaluations).
    pub training_queries: u64,
    /// Aggregate recovery actions over the whole run.
    pub recovery: RecoveryStats,
    /// Structured recovery events, in order of occurrence.
    pub recovery_events: Vec<RecoveryEvent>,
}

/// Configuration of a durable (journaled, resumable) training run.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Where the run journal lives. [`Trainer::train_durable`] creates it
    /// (truncating any previous file); [`Trainer::resume`] replays it.
    pub journal_path: PathBuf,
    /// Root seed. Every per-epoch RNG stream (and the warm start, as
    /// "epoch 0") is re-derived from it via [`epoch_seed`], which is what
    /// makes a resumed run bitwise identical to an uninterrupted one.
    pub root_seed: u64,
    /// Deadline / retry policy guarding each epoch's chip queries.
    pub watchdog: WatchdogPolicy,
    /// Maximum number of *new* epochs this invocation may complete before
    /// returning a resumable [`AbortReason::Preempted`] abort. `None` (the
    /// default) runs to the configured epoch count. This is the preemption
    /// primitive a slice scheduler is built on: the journal already holds
    /// every completed epoch, so a preempted run resumes anywhere —
    /// including on a different worker — bitwise identically.
    pub epoch_budget: Option<usize>,
}

impl DurableOptions {
    /// Durable options with the standard watchdog policy.
    pub fn new(journal_path: impl Into<PathBuf>, root_seed: u64) -> Self {
        DurableOptions {
            journal_path: journal_path.into(),
            root_seed,
            watchdog: WatchdogPolicy::standard(),
            epoch_budget: None,
        }
    }

    /// Replaces the watchdog policy.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: WatchdogPolicy) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Caps the number of new epochs this invocation may complete
    /// (preemption quantum). The run aborts resumably once the cap is hit.
    #[must_use]
    pub fn with_epoch_budget(mut self, epochs: usize) -> Self {
        self.epoch_budget = Some(epochs);
        self
    }
}

/// Why a durable run gave up cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// Consecutive attempts at one epoch all blew the watchdog deadline
    /// (e.g. a permanently hung chip link).
    QueryDeadline {
        /// The epoch that could not be completed.
        epoch: usize,
        /// Timed-out attempts, including the final one.
        timeouts: u32,
    },
    /// The invocation's [`DurableOptions::epoch_budget`] ran out with
    /// epochs still to go. Always resumable: the journal holds every
    /// epoch completed so far.
    Preempted {
        /// The first epoch this invocation did *not* run.
        epoch: usize,
    },
}

/// The result of a durable run: either a finished [`TrainOutcome`] or a
/// clean, resumable abort with the journal flushed through the last
/// completed epoch.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run finished all epochs.
    Completed(TrainOutcome),
    /// The run gave up cleanly before finishing.
    Aborted {
        /// Whether [`Trainer::resume`] can pick the run back up. Always
        /// `true` for watchdog aborts: the journal holds every completed
        /// epoch.
        resumable: bool,
        /// Stage-2 epochs completed (and journaled) before the abort.
        epochs_completed: usize,
        /// What went wrong.
        reason: AbortReason,
    },
}

impl RunOutcome {
    /// The completed outcome, if the run finished.
    pub fn completed(self) -> Option<TrainOutcome> {
        match self {
            RunOutcome::Completed(outcome) => Some(outcome),
            RunOutcome::Aborted { .. } => None,
        }
    }
}

/// Immutable per-run context shared by every stage-2 epoch.
#[derive(Debug)]
struct FinetuneCtx {
    method: Method,
    zo: ZoSettings,
    lcng_settings: LcngSettings,
    rp: RecoveryPolicy,
    /// The estimators' measurement ladder; `None` when recovery is off.
    robust: Option<RobustEval>,
    pool: ExecPool,
    serial: ExecPool,
    start: Instant,
}

/// The complete loop-carried state of stage-2 training. The legacy
/// [`Trainer::finetune`] threads one instance through all epochs; the
/// durable path rebuilds it from the journaled [`RunState`] at every epoch
/// boundary, which is what forces each epoch to be a pure function of
/// `(RunState, epoch seed)` — the property the resume contract rests on.
#[derive(Debug)]
struct FinetuneState {
    metric_model: Option<Network>,
    /// Error assignment of an adopted auto-recalibration, so a resumed run
    /// can rebuild the same replacement metric model.
    metric_errors: Option<ErrorVector>,
    loss_ema: Option<f64>,
    snapshot: Option<(RVector, Adam, Option<CmaEs>)>,
    rollbacks_used: usize,
    adam: Adam,
    cma: Option<CmaEs>,
    preconditioner: Option<BlockNaturalPreconditioner>,
    sigma_segments: Option<Vec<(usize, photon_linalg::RCholesky)>>,
    iteration: usize,
    coord_offset: usize,
    eval_queries: u64,
    ledger: LedgerCounts,
    total_recovery: RecoveryStats,
    recovery_events: Vec<RecoveryEvent>,
    /// Chip queries attributed to the run before the current process
    /// window (0 for a fresh run; the restored ledger total on resume).
    prior_queries: u64,
    /// The chip's monotonic query counter at the start of the current
    /// window, so per-run spend is `prior + (count - at_start)`.
    queries_at_start: u64,
}

/// Orchestrates two-stage training of one chip on one task.
///
/// Generic over the chip implementation: a plain [`FabricatedChip`] (the
/// default) or any other [`OnnChip`], such as a fault-injecting wrapper.
#[derive(Debug)]
pub struct Trainer<'a, C: OnnChip = FabricatedChip> {
    chip: &'a C,
    train: &'a Dataset,
    test: &'a Dataset,
    head: ClassificationHead,
    calibrated: Option<Network>,
}

impl<'a, C: OnnChip> Trainer<'a, C> {
    /// Creates a trainer for `chip` on the given train/test split.
    pub fn new(
        chip: &'a C,
        train: &'a Dataset,
        test: &'a Dataset,
        head: ClassificationHead,
    ) -> Self {
        Trainer {
            chip,
            train,
            test,
            head,
            calibrated: None,
        }
    }

    /// Attaches a calibrated model (required by `ModelChoice::Calibrated`
    /// and `Method::BpCalibrated`).
    pub fn with_calibrated_model(mut self, model: Network) -> Self {
        self.calibrated = Some(model);
        self
    }

    /// The classification head in use.
    pub fn head(&self) -> &ClassificationHead {
        &self.head
    }

    fn model_for(&self, choice: ModelChoice) -> Result<Network, CoreError> {
        match choice {
            ModelChoice::Ideal => Ok(ideal_model(self.chip.architecture())),
            ModelChoice::OracleTrue => Ok(self.chip.oracle_network()),
            ModelChoice::Calibrated => self.calibrated.clone().ok_or_else(|| {
                CoreError::InvalidConfig(
                    "calibrated model not attached; call with_calibrated_model".into(),
                )
            }),
        }
    }

    /// Stage 1: backprop warm start on the ideal model. Costs no chip
    /// queries.
    pub fn warm_start<R: Rng + ?Sized>(&self, config: &TrainConfig, rng: &mut R) -> RVector {
        let pool = ExecPool::with_threads(config.threads);
        let model = ideal_model(self.chip.architecture());
        let mut theta = model.init_params(rng);
        let mut adam = Adam::new(config.warm_lr);
        let mut batcher = Batcher::new(self.train.len(), config.batch_size);
        for _ in 0..config.warm_epochs {
            for batch in batcher.epoch(rng) {
                let (_, grad) = model_batch_loss_and_grad(
                    &model, self.train, &batch, &self.head, &theta, &pool,
                );
                adam.step(&mut theta, &grad);
            }
        }
        theta
    }

    /// Runs both stages for `method` and returns the outcome.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when a calibrated model is required but
    /// not attached, or an internal solve fails irrecoverably.
    pub fn train<R: Rng + ?Sized>(
        &self,
        method: Method,
        config: &TrainConfig,
        rng: &mut R,
    ) -> Result<TrainOutcome, CoreError> {
        let mut theta = self.warm_start(config, rng);
        self.finetune(method, config, &mut theta, rng)
    }

    /// Runs only stage 2 from the given parameters (shared warm starts let
    /// experiments compare methods from identical initial conditions).
    ///
    /// # Errors
    ///
    /// Same as [`Trainer::train`].
    pub fn finetune<R: Rng + ?Sized>(
        &self,
        method: Method,
        config: &TrainConfig,
        theta: &mut RVector,
        rng: &mut R,
    ) -> Result<TrainOutcome, CoreError> {
        let trace = &config.trace;
        let start_queries = self.chip.query_count();
        let cache_start = self.chip.cache_stats();
        let mut history = Vec::with_capacity(config.epochs);
        trace.emit(|| TraceEvent::RunStart {
            method: method.label(),
            epochs: config.epochs as u64,
            batch_size: config.batch_size as u64,
            probes: config.q as u64,
            kernel: photon_linalg::kernel_tier().name().to_string(),
        });

        let ctx = self.finetune_ctx(method, config, theta.len());
        let mut st = self.durable_state(method, &self.initial_run_state(method, config, theta))?;
        let mut batcher = Batcher::new(self.train.len(), config.batch_size);
        for epoch in 1..=config.epochs {
            let record = self.run_epoch(epoch, config, &ctx, &mut st, theta, &mut batcher, rng)?;
            history.push(record);
        }

        let theta_final = theta.clone();
        self.finish_run(config, &ctx, st, history, theta_final, start_queries, cache_start)
    }

    /// Starts a durable (journaled, resumable) run: warm start from the
    /// root seed's "epoch 0" stream, then stage-2 epochs with the full
    /// loop-carried state appended to the run journal after every epoch.
    ///
    /// The run is a deterministic function of `(method, config,
    /// opts.root_seed)` at any worker-pool size: killing the process at any
    /// instant and calling [`Trainer::resume`] yields bitwise-identical
    /// final parameters, history, and query ledger. Each epoch's chip
    /// queries run under the watchdog in `opts`; a permanently hung chip
    /// link degrades to a clean [`RunOutcome::Aborted`] with
    /// `resumable: true` and the journal flushed through the last
    /// completed epoch.
    ///
    /// # Errors
    ///
    /// [`CoreError::Journal`] when the journal cannot be created or
    /// written; otherwise as [`Trainer::train`].
    pub fn train_durable(
        &self,
        method: Method,
        config: &TrainConfig,
        opts: &DurableOptions,
    ) -> Result<RunOutcome, CoreError> {
        let mut rng = StdRng::seed_from_u64(epoch_seed(opts.root_seed, 0));
        let theta = self.warm_start(config, &mut rng);
        self.train_durable_from(method, config, opts, &theta)
    }

    /// Starts a durable run from caller-supplied parameters, skipping the
    /// warm start entirely — the fine-tune primitive of online
    /// recalibration, where the shadow run continues from the *deployed*
    /// theta rather than a fresh random draw.
    ///
    /// Identical to [`Trainer::train_durable`] otherwise: same journal
    /// format, same epoch streams derived from `opts.root_seed`, same
    /// determinism contract. One caveat for resumption: a journal with
    /// zero landed epochs cannot reconstruct `theta` (the file does not
    /// record it), so [`Trainer::resume`] would redo the *warm start*
    /// instead. Callers must treat an empty journal as "not started" and
    /// call this method again with the same `theta` — which is exactly
    /// what the online controller does, since the deployed theta is part
    /// of its own write-ahead state.
    ///
    /// # Errors
    ///
    /// As [`Trainer::train_durable`].
    pub fn train_durable_from(
        &self,
        method: Method,
        config: &TrainConfig,
        opts: &DurableOptions,
        theta: &RVector,
    ) -> Result<RunOutcome, CoreError> {
        let header = JournalHeader {
            method,
            root_seed: opts.root_seed,
            epochs: config.epochs,
            batch_size: config.batch_size,
            q: config.q,
        };
        let journal = RunJournal::create(&opts.journal_path, &header)?;
        let state = self.initial_run_state(method, config, theta);
        self.durable_loop(method, config, opts, journal, state, Vec::new())
    }

    /// Resumes a durable run from its journal: replays the log (truncating
    /// any torn tail), restores the last journaled [`RunState`], re-derives
    /// the next epoch's RNG stream from the root seed, and continues
    /// exactly where the run left off.
    ///
    /// The method is taken from the journal header. `config` and `opts`
    /// must match the original run; `root_seed`, `epochs`, `batch_size`
    /// and `q` are verified against the header.
    ///
    /// # Errors
    ///
    /// [`CoreError::Journal`] when the file is unreadable or not a
    /// journal; [`CoreError::InvalidConfig`] when the header contradicts
    /// the caller's configuration.
    pub fn resume(
        &self,
        config: &TrainConfig,
        opts: &DurableOptions,
    ) -> Result<RunOutcome, CoreError> {
        let Replay {
            header,
            entries,
            truncated_bytes,
        } = RunJournal::replay(&opts.journal_path)?;
        if header.root_seed != opts.root_seed {
            return Err(CoreError::InvalidConfig(format!(
                "journal root seed {} does not match options root seed {}",
                header.root_seed, opts.root_seed
            )));
        }
        if header.epochs != config.epochs
            || header.batch_size != config.batch_size
            || header.q != config.q
        {
            return Err(CoreError::InvalidConfig(format!(
                "journal run shape (epochs {}, batch {}, q {}) does not match \
                 config (epochs {}, batch {}, q {})",
                header.epochs,
                header.batch_size,
                header.q,
                config.epochs,
                config.batch_size,
                config.q
            )));
        }
        let method = header.method;
        config.trace.emit(|| TraceEvent::Resume {
            epoch: entries.last().map_or(0, |e| e.state.epoch) as u64,
            records_replayed: entries.len() as u64,
            truncated_bytes,
        });
        let history: Vec<EpochRecord> = entries.iter().map(|e| e.record).collect();
        let state = match entries.into_iter().next_back() {
            Some(entry) => entry.state,
            None => {
                // Killed before the first epoch landed: redo the warm start
                // from the root seed's "epoch 0" stream.
                let mut rng = StdRng::seed_from_u64(epoch_seed(opts.root_seed, 0));
                let theta = self.warm_start(config, &mut rng);
                self.initial_run_state(method, config, &theta)
            }
        };
        let journal = RunJournal::open_append(&opts.journal_path)?;
        self.durable_loop(method, config, opts, journal, state, history)
    }

    /// The durable epoch loop shared by [`Trainer::train_durable`] and
    /// [`Trainer::resume`]: rebuild the live state from the canonical
    /// [`RunState`], run one epoch under the watchdog, journal the result.
    fn durable_loop(
        &self,
        method: Method,
        config: &TrainConfig,
        opts: &DurableOptions,
        mut journal: RunJournal,
        mut state: RunState,
        mut history: Vec<EpochRecord>,
    ) -> Result<RunOutcome, CoreError> {
        let trace = &config.trace;
        let cache_start = self.chip.cache_stats();
        trace.emit(|| TraceEvent::RunStart {
            method: method.label(),
            epochs: config.epochs as u64,
            batch_size: config.batch_size as u64,
            probes: config.q as u64,
            kernel: photon_linalg::kernel_tier().name().to_string(),
        });
        let ctx = self.finetune_ctx(method, config, state.theta.len());
        let backoff = opts.watchdog.backoff();
        let first_epoch = state.epoch + 1;
        let budget_limit = opts
            .epoch_budget
            .map(|b| state.epoch.saturating_add(b));
        for epoch in first_epoch..=config.epochs {
            if let Some(limit) = budget_limit {
                if epoch > limit {
                    // Preemption quantum exhausted: stop cleanly at the
                    // epoch boundary. Everything completed is journaled, so
                    // resume (on any worker) continues bitwise identically.
                    trace.flush();
                    return Ok(RunOutcome::Aborted {
                        resumable: true,
                        epochs_completed: state.epoch,
                        reason: AbortReason::Preempted { epoch },
                    });
                }
            }
            let mut timeouts: u32 = 0;
            loop {
                // Each attempt starts from the canonical journaled state: a
                // timed-out attempt is discarded wholesale, so partial
                // (possibly poisoned) progress can never leak into the run.
                let mut theta = state.theta.clone();
                let mut st = self.durable_state(method, &state)?;
                st.queries_at_start = self.chip.query_count();
                let mut batcher = Batcher::new(self.train.len(), config.batch_size);
                let mut rng = StdRng::seed_from_u64(epoch_seed(opts.root_seed, epoch));
                let flag = self.chip.abort_flag();
                let cancel = flag.clone();
                let (result, fired) = run_guarded(
                    opts.watchdog.deadline,
                    move || cancel.raise(),
                    || {
                        self.run_epoch(
                            epoch,
                            config,
                            &ctx,
                            &mut st,
                            &mut theta,
                            &mut batcher,
                            &mut rng,
                        )
                    },
                );
                if fired {
                    // The raised flag unblocked the hung query; lower it so
                    // the retry (or a later run) measures normally again.
                    flag.clear();
                    timeouts += 1;
                    if timeouts > opts.watchdog.max_timeouts {
                        trace.flush();
                        return Ok(RunOutcome::Aborted {
                            resumable: true,
                            epochs_completed: state.epoch,
                            reason: AbortReason::QueryDeadline { epoch, timeouts },
                        });
                    }
                    std::thread::sleep(backoff.delay(timeouts));
                    continue;
                }
                let record = result?;
                let entry = EpochEntry {
                    state: run_state_after(epoch, &st, &theta),
                    record,
                };
                let bytes = journal.append_epoch(&entry)?;
                let records = journal.records();
                trace.emit(|| TraceEvent::JournalFlush {
                    epoch: epoch as u64,
                    records,
                    bytes,
                });
                history.push(entry.record);
                state = entry.state;
                break;
            }
        }

        let mut st = self.durable_state(method, &state)?;
        st.queries_at_start = self.chip.query_count();
        let window_start = st.queries_at_start;
        let outcome = self.finish_run(
            config,
            &ctx,
            st,
            history,
            state.theta.clone(),
            window_start,
            cache_start,
        )?;
        Ok(RunOutcome::Completed(outcome))
    }

    /// The immutable per-run context (thread pools, estimator settings).
    fn finetune_ctx(&self, method: Method, config: &TrainConfig, n: usize) -> FinetuneCtx {
        // Outer-level parallelism: probes / population members / batch samples
        // fan out across `pool`; the per-probe batch loss stays serial so each
        // worker owns exactly one scratch arena (no nested pools). Inside a
        // probe, `chip_batch_loss` evaluates the batch in compiled
        // blocks — one cached-unitary GEMM per block instead of an
        // interpreted op walk per sample — so every ZO/LCNG/robust probe and
        // CMA-ES population member amortizes its compile over the batch.
        let pool = if config.trace.is_enabled() {
            // Instrumentation is telemetry-only (relaxed counters on the
            // side); an instrumented pool schedules and computes exactly
            // like a plain one.
            ExecPool::with_threads(config.threads).instrumented()
        } else {
            ExecPool::with_threads(config.threads)
        };
        let zo = ZoSettings {
            q: config.q,
            mu: config.mu_override.unwrap_or(1e-3 / (n as f64).sqrt()),
            lambda: 1.0 / n as f64,
        };
        let rp = config.recovery;
        FinetuneCtx {
            method,
            zo,
            lcng_settings: LcngSettings {
                zo,
                ridge: config.ridge,
            },
            rp,
            robust: rp.enabled.then_some(RobustEval {
                max_retries: rp.max_retries,
                outlier_zscore: rp.outlier_zscore,
                rereads: rp.rereads,
            }),
            pool,
            serial: ExecPool::serial(),
            start: Instant::now(),
        }
    }

    /// The epoch-0 [`RunState`] every run starts from: the given
    /// parameters, fresh optimizer internals, empty ledger.
    fn initial_run_state(&self, method: Method, config: &TrainConfig, theta: &RVector) -> RunState {
        RunState {
            epoch: 0,
            iteration: 0,
            coord_offset: 0,
            rollbacks_used: 0,
            loss_ema: None,
            eval_queries: 0,
            ledger: LedgerCounts::new(),
            recovery: RecoveryStats::default(),
            theta: theta.clone(),
            adam: Adam::new(config.lr).snapshot(),
            cma: match method {
                Method::Cma { sigma0 } => Some(CmaEs::new(theta, sigma0).snapshot()),
                _ => None,
            },
            rollback_snapshot: None,
            metric_errors: None,
            recovery_events: Vec::new(),
        }
    }

    /// Rebuilds the live [`FinetuneState`] from a [`RunState`]: a journaled
    /// one at a durable epoch boundary, or the epoch-0 one a fine-tune
    /// starts from.
    ///
    /// Derived caches (natural-gradient preconditioner, shaped-probe
    /// covariances) are deliberately dropped — they are re-assembled from
    /// the restored state on first use, which keeps every durable epoch a
    /// pure function of `(RunState, epoch seed)`.
    fn durable_state(&self, method: Method, state: &RunState) -> Result<FinetuneState, CoreError> {
        let metric_model = if let Some(errors) = &state.metric_errors {
            // An adopted auto-recalibration replaced the metric model;
            // rebuild the same replacement from its journaled errors.
            Some(
                self.chip
                    .architecture()
                    .build_with_errors(errors)
                    .map_err(|e| {
                        CoreError::Journal(format!(
                            "journaled metric errors do not fit the architecture: {e}"
                        ))
                    })?,
            )
        } else {
            match method {
                Method::ZoShaped { model } | Method::ZoNg { model } | Method::Lcng { model } => {
                    Some(self.model_for(model)?)
                }
                Method::BpCalibrated => Some(self.model_for(ModelChoice::Calibrated)?),
                Method::BpIdeal => Some(self.model_for(ModelChoice::Ideal)?),
                Method::BpOracle => Some(self.model_for(ModelChoice::OracleTrue)?),
                _ => None,
            }
        };
        Ok(FinetuneState {
            metric_model,
            metric_errors: state.metric_errors.clone(),
            loss_ema: state.loss_ema,
            snapshot: state.rollback_snapshot.as_ref().map(|s| {
                (
                    s.theta.clone(),
                    Adam::from_state(s.adam.clone()),
                    s.cma.clone().map(CmaEs::from_state),
                )
            }),
            rollbacks_used: state.rollbacks_used,
            adam: Adam::from_state(state.adam.clone()),
            cma: state.cma.clone().map(CmaEs::from_state),
            preconditioner: None,
            sigma_segments: None,
            iteration: state.iteration,
            coord_offset: state.coord_offset,
            eval_queries: state.eval_queries,
            ledger: state.ledger,
            total_recovery: state.recovery,
            recovery_events: state.recovery_events.clone(),
            prior_queries: state.ledger.total(),
            queries_at_start: self.chip.query_count(),
        })
    }

    /// Runs one stage-2 epoch: the batch loop, the fidelity monitor, and
    /// any scheduled evaluation sweep. All loop-carried training state
    /// lives in `st`, so the legacy path (one state threaded through all
    /// epochs) and the durable path (state rebuilt from the journaled
    /// [`RunState`] at every epoch boundary) share one epoch
    /// implementation.
    #[allow(clippy::too_many_arguments)]
    fn run_epoch<R: Rng + ?Sized>(
        &self,
        epoch: usize,
        config: &TrainConfig,
        ctx: &FinetuneCtx,
        st: &mut FinetuneState,
        theta: &mut RVector,
        batcher: &mut Batcher,
        rng: &mut R,
    ) -> Result<EpochRecord, CoreError> {
        let n = theta.len();
        let method = ctx.method;
        let trace = &config.trace;
        let pool = &ctx.pool;
        let serial = &ctx.serial;
        let zo = ctx.zo;
        let lcng_settings = ctx.lcng_settings;
        let rp = ctx.rp;
        let robust = ctx.robust.as_ref();
        let FinetuneState {
            metric_model,
            metric_errors,
            loss_ema,
            snapshot,
            rollbacks_used,
            adam,
            cma,
            preconditioner,
            sigma_segments,
            iteration,
            coord_offset,
            eval_queries,
            ledger,
            total_recovery,
            recovery_events,
            prior_queries,
            queries_at_start,
        } = st;

        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        let mut epoch_recovery = RecoveryStats::default();
        let mut epoch_ledger = LedgerCounts::new();
        for batch in batcher.epoch(rng) {
            // One serial control point per optimizer iteration: slow
            // chip state (e.g. thermal drift on a fault-injecting chip)
            // advances here and only here, keeping every chip reading
            // within the iteration a pure function of content.
            self.chip.advance_to(*iteration as u64 + 1);
            // Pin the compiled base at the iteration's center theta (after
            // the step above, so fault-effective phases match): sparse ZO
            // probes below are then served by rank-1 incremental updates.
            self.chip.pin_compile_base(theta);

            let fisher_inputs = batch_inputs(self.train, &batch[..batch.len().min(config.r_in)]);
            let refresh = iteration.is_multiple_of(config.t_update.max(1));
            let chip = self.chip;
            let data = self.train;
            let head = self.head;
            let batch_ref = &batch;
            let serial_ref = &serial;
            let chip_loss =
                |t: &RVector| chip_batch_loss(chip, data, batch_ref, &head, t, serial_ref);

            // The base loss doubles as the divergence-guard signal for
            // every estimator that measures it.
            let needs_base = matches!(
                method,
                Method::ZoGaussian
                    | Method::ZoCoordinate
                    | Method::ZoShaped { .. }
                    | Method::ZoNg { .. }
                    | Method::ZoLc
                    | Method::Lcng { .. }
            );
            // Every chip query below happens at a serial point (the
            // pooled estimators join before returning), so attributing
            // spend by diffing the monotonic query counter is exact.
            let base_q = self.chip.query_count();
            let mut base = 0.0;
            if needs_base {
                let max_retries = robust.map_or(0, |r| r.max_retries);
                let (measured, retries) = retry_non_finite(&chip_loss, theta, max_retries);
                base = measured;
                epoch_recovery.retries += u64::from(retries);
                if rp.enabled {
                    let threshold = loss_ema.map(|e| rp.spike_factor * e.max(1e-12));
                    let spiking = !base.is_finite() || threshold.is_some_and(|t| base > t);
                    if spiking {
                        let mut rolled_back = false;
                        if *rollbacks_used < rp.max_rollbacks {
                            if let Some((theta_good, adam_good, cma_good)) = snapshot.as_ref() {
                                theta.copy_from(theta_good);
                                *adam = adam_good.clone();
                                *cma = cma_good.clone();
                                let new_lr = adam.learning_rate() * rp.lr_backoff;
                                adam.set_learning_rate(new_lr);
                                *preconditioner = None;
                                *sigma_segments = None;
                                *rollbacks_used += 1;
                                epoch_recovery.rollbacks += 1;
                                recovery_events.push(RecoveryEvent::Rollback {
                                    epoch,
                                    iteration: *iteration,
                                    loss: base,
                                    threshold: threshold.unwrap_or(f64::INFINITY),
                                    new_lr,
                                });
                                trace.emit(|| TraceEvent::Rollback {
                                    epoch: epoch as u64,
                                    iteration: *iteration as u64,
                                    loss: base,
                                    threshold: threshold.unwrap_or(f64::INFINITY),
                                    new_lr,
                                });
                                rolled_back = true;
                            }
                        }
                        if rolled_back || !base.is_finite() {
                            // Rolled back, or no good state to return
                            // to and no finite base to estimate from:
                            // drop the batch either way. The wasted
                            // measurements still ledger as batch loss.
                            epoch_ledger.add(
                                QueryCategory::BatchLoss,
                                self.chip.query_count().saturating_sub(base_q),
                            );
                            *iteration += 1;
                            continue;
                        }
                    }
                }
                epoch_ledger.add(
                    QueryCategory::BatchLoss,
                    self.chip.query_count().saturating_sub(base_q),
                );
            }

            // Queries inside the update step are probes, except the
            // Fisher-metric refreshes, which are tracked separately:
            // they are expected to cost zero chip queries (the metric
            // comes from the calibrated software model — the paper's
            // central claim), and the ledger makes that measurable.
            let probe_q = self.chip.query_count();
            let mut fisher_q: u64 = 0;
            let loss_val = match method {
                Method::ZoGaussian
                | Method::ZoCoordinate
                | Method::ZoShaped { .. }
                | Method::ZoNg { .. } => {
                    let pert_storage;
                    let pert: Perturbation<'_> = match method {
                        Method::ZoGaussian | Method::ZoNg { .. } => Perturbation::Gaussian,
                        Method::ZoCoordinate => {
                            let p = Perturbation::Coordinate {
                                offset: *coord_offset,
                            };
                            *coord_offset = (*coord_offset + config.q) % n;
                            p
                        }
                        Method::ZoShaped { .. } => {
                            if refresh || sigma_segments.is_none() {
                                let fq = self.chip.query_count();
                                let model = metric_model.as_ref().expect("model resolved above");
                                *sigma_segments = Some(
                                    layered_sigma_segments(model, theta, &fisher_inputs, config.rho)
                                        .map_err(|e| {
                                            CoreError::InvalidConfig(format!(
                                                "sigma refresh failed: {e}"
                                            ))
                                        })?,
                                );
                                fisher_q += self.chip.query_count().saturating_sub(fq);
                            }
                            pert_storage = sigma_segments.as_ref().unwrap();
                            Perturbation::Shaped {
                                segments: pert_storage,
                            }
                        }
                        _ => unreachable!(),
                    };
                    let (est, stats) =
                        estimate_gradient(&chip_loss, theta, base, &zo, &pert, robust, pool, rng);
                    epoch_recovery.retries += stats.retries;
                    epoch_recovery.rejected_probes += stats.rejected + stats.unrecovered;
                    let grad = if let Method::ZoNg { .. } = method {
                        if refresh || preconditioner.is_none() {
                            let fq = self.chip.query_count();
                            let model = metric_model.as_ref().expect("model resolved above");
                            *preconditioner = Some(
                                BlockNaturalPreconditioner::assemble(
                                    model,
                                    theta,
                                    &fisher_inputs,
                                    config.rho,
                                )
                                .map_err(|e| {
                                    CoreError::InvalidConfig(format!(
                                        "preconditioner refresh failed: {e}"
                                    ))
                                })?,
                            );
                            fisher_q += self.chip.query_count().saturating_sub(fq);
                        }
                        preconditioner.as_ref().unwrap().apply(&est.gradient)
                    } else {
                        est.gradient
                    };
                    adam.step(theta, &grad);
                    base
                }
                Method::ZoLc | Method::Lcng { .. } => {
                    let metric = match (&method, metric_model.as_ref()) {
                        (Method::ZoLc, _) => MetricSource::Identity,
                        (Method::Lcng { .. }, Some(model)) => MetricSource::Model {
                            model,
                            inputs: &fisher_inputs,
                        },
                        _ => unreachable!(),
                    };
                    let (step, stats) = lcng_direction(
                        &chip_loss,
                        theta,
                        base,
                        &lcng_settings,
                        &Perturbation::Gaussian,
                        &metric,
                        robust,
                        pool,
                        rng,
                    )
                    .map_err(|e| CoreError::InvalidConfig(format!("LCNG solve failed: {e}")))?;
                    epoch_recovery.retries += stats.retries;
                    epoch_recovery.rejected_probes += stats.rejected + stats.unrecovered;
                    // Feed the negative direction to Adam as a surrogate
                    // gradient (the protocol the research line uses).
                    let surrogate = step.direction.scale(-1.0);
                    adam.step(theta, &surrogate);
                    base
                }
                Method::Cma { .. } => {
                    let es = cma.as_mut().expect("initialized above");
                    let xs = es.ask(rng);
                    let mut losses: Vec<f64> = pool.map(&xs, |_, x| chip_loss(x));
                    if rp.enabled {
                        epoch_recovery.rejected_probes += penalize_non_finite(&mut losses);
                    }
                    es.tell(&xs, &losses).map_err(|e| {
                        CoreError::InvalidConfig(format!("CMA-ES update failed: {e}"))
                    })?;
                    *theta = es.mean().clone();
                    losses.iter().copied().fold(f64::INFINITY, f64::min)
                }
                Method::BpIdeal | Method::BpCalibrated | Method::BpOracle => {
                    let model = metric_model.as_ref().expect("model resolved above");
                    let (loss, grad) = model_batch_loss_and_grad(
                        model, self.train, &batch, &self.head, theta, pool,
                    );
                    adam.step(theta, &grad);
                    loss
                }
            };
            let step_spent = self.chip.query_count().saturating_sub(probe_q);
            debug_assert!(fisher_q <= step_spent);
            epoch_ledger.add(QueryCategory::Fisher, fisher_q);
            epoch_ledger.add(QueryCategory::Probe, step_spent.saturating_sub(fisher_q));
            epoch_loss += loss_val;
            batches += 1;
            if rp.enabled && needs_base && base.is_finite() {
                *loss_ema = Some(match *loss_ema {
                    None => base,
                    Some(e) => rp.ema_alpha * base + (1.0 - rp.ema_alpha) * e,
                });
                // This iteration measured sanely: its post-update state
                // becomes the rollback target.
                *snapshot = Some((theta.clone(), adam.clone(), cma.clone()));
            }
            *iteration += 1;
        }

        // Fidelity monitor: measure how faithfully the metric model
        // still reproduces the (possibly drifting) chip, and
        // recalibrate in place when it has degraded past the floor.
        if rp.enabled
            && method.queries_chip()
            && rp.fidelity_every > 0
            && epoch.is_multiple_of(rp.fidelity_every)
            && metric_model.is_some()
        {
            let before_q = self.chip.query_count();
            let report = evaluate_model(
                self.chip,
                metric_model.as_ref().expect("checked above"),
                rp.fidelity_probes.max(1),
                1,
                rng,
            );
            epoch_ledger.add(
                QueryCategory::RecoveryMonitor,
                self.chip.query_count().saturating_sub(before_q),
            );
            if report.power < rp.fidelity_threshold && rp.recalib_budget > 0 {
                let k = self.chip.input_dim();
                let calib_settings =
                    CalibrationSettings::with_query_budget(k, rp.recalib_budget.max(2 * k));
                // A failed recalibration solve is non-fatal: training
                // continues on the old model — but its measurement
                // sweep spent real queries either way, so ledger the
                // spend before inspecting the result.
                let calib_q = self.chip.query_count();
                let calib_result = calibrate(self.chip, &calib_settings, rng);
                epoch_ledger.add(
                    QueryCategory::Calibration,
                    self.chip.query_count().saturating_sub(calib_q),
                );
                if let Ok(outcome) = calib_result {
                    let monitor_q = self.chip.query_count();
                    let after =
                        evaluate_model(self.chip, &outcome.model, rp.fidelity_probes.max(1), 1, rng);
                    epoch_ledger.add(
                        QueryCategory::RecoveryMonitor,
                        self.chip.query_count().saturating_sub(monitor_q),
                    );
                    // Guarded swap: a recalibration fitted to
                    // fault-corrupted measurements can be worse than the
                    // incumbent model — adopt only on measured
                    // non-regression.
                    let adopted = after.power >= report.power;
                    if adopted {
                        // Keep the adopted error assignment so a resumed
                        // durable run rebuilds the same replacement model.
                        *metric_errors = Some(outcome.errors.clone());
                        *metric_model = Some(outcome.model);
                        *preconditioner = None;
                        *sigma_segments = None;
                    }
                    epoch_recovery.recalibrations += 1;
                    recovery_events.push(RecoveryEvent::Recalibration {
                        epoch,
                        fidelity_before: report.power,
                        fidelity_after: after.power,
                        queries: self.chip.query_count().saturating_sub(before_q),
                        adopted,
                    });
                    trace.emit(|| TraceEvent::Recalibration {
                        epoch: epoch as u64,
                        fidelity_before: report.power,
                        fidelity_after: after.power,
                        queries: self.chip.query_count().saturating_sub(before_q),
                        adopted,
                    });
                }
            }
            // Monitor + recalibration queries are bookkept alongside
            // evaluation sweeps, not training queries.
            *eval_queries += self.chip.query_count().saturating_sub(before_q);
        }

        let test = if config.eval_every > 0 && epoch.is_multiple_of(config.eval_every) {
            let before = self.chip.query_count();
            let ev = evaluate_chip(self.chip, self.test, &self.head, theta, pool);
            let spent = self.chip.query_count().saturating_sub(before);
            *eval_queries += spent;
            epoch_ledger.add(QueryCategory::Eval, spent);
            Some(ev)
        } else {
            None
        };
        total_recovery.absorb(epoch_recovery);
        ledger.absorb(&epoch_ledger);
        let train_loss = epoch_loss / batches.max(1) as f64;
        let chip_queries = self.chip.query_count();
        debug_assert!(
            chip_queries >= *queries_at_start,
            "chip query counter moved backwards"
        );
        let run_total = *prior_queries + chip_queries.saturating_sub(*queries_at_start);
        let training_queries = training_query_total(run_total, *eval_queries);
        for (category, queries) in epoch_ledger.iter() {
            if queries > 0 {
                trace.emit(|| TraceEvent::QueryLedger {
                    epoch: epoch as u64,
                    category,
                    queries,
                });
            }
        }
        trace.emit(|| TraceEvent::EpochSpan {
            epoch: epoch as u64,
            train_loss,
            test_accuracy: test.as_ref().map(|t| t.accuracy),
            test_loss: test.as_ref().map(|t| t.loss),
            learning_rate: adam.learning_rate(),
            wall_secs: ctx.start.elapsed().as_secs_f64(),
            training_queries,
        });
        Ok(EpochRecord {
            epoch,
            train_loss,
            test,
            training_queries,
            recovery: epoch_recovery,
        })
    }

    /// Final evaluation, ledger reconciliation, and run-end telemetry
    /// shared by the legacy and durable paths.
    #[allow(clippy::too_many_arguments)]
    fn finish_run(
        &self,
        config: &TrainConfig,
        ctx: &FinetuneCtx,
        mut st: FinetuneState,
        history: Vec<EpochRecord>,
        theta: RVector,
        window_start: u64,
        cache_start: CacheStats,
    ) -> Result<TrainOutcome, CoreError> {
        let trace = &config.trace;
        let before = self.chip.query_count();
        let final_eval = evaluate_chip(self.chip, self.test, &self.head, &theta, &ctx.pool);
        let final_eval_spent = self.chip.query_count().saturating_sub(before);
        st.eval_queries += final_eval_spent;
        st.ledger.add(QueryCategory::Eval, final_eval_spent);
        if final_eval_spent > 0 {
            trace.emit(|| TraceEvent::QueryLedger {
                epoch: config.epochs as u64,
                category: QueryCategory::Eval,
                queries: final_eval_spent,
            });
        }

        let window_queries = self.chip.query_count().saturating_sub(window_start);
        // Reconciliation: every chip query this run spent must be attributed
        // to exactly one ledger category. A mismatch means an unledgered
        // measurement path crept in.
        debug_assert_eq!(
            st.ledger.total(),
            st.prior_queries + window_queries,
            "query ledger does not reconcile with the chip's query counter"
        );
        let run_queries = st.ledger.total();
        let training_queries = training_query_total(run_queries, st.eval_queries);
        if trace.is_enabled() {
            let cache = self.chip.cache_stats().since(cache_start);
            trace.emit(|| TraceEvent::CacheStats {
                hits: cache.hits,
                misses: cache.misses,
                invalidations: cache.invalidations,
                incremental: cache.incremental,
                forced_recompiles: cache.forced_recompiles,
            });
            if let Some(metrics) = ctx.pool.metrics() {
                let snap = metrics.snapshot();
                trace.emit(|| TraceEvent::PoolStats {
                    threads: ctx.pool.threads() as u64,
                    map_calls: snap.map_calls,
                    items: snap.items,
                    peak_worker_share_milli: snap.peak_worker_share_milli,
                });
            }
            trace.emit(|| TraceEvent::RunEnd {
                method: ctx.method.label(),
                training_queries,
                eval_queries: st.eval_queries,
                run_queries,
                chip_query_count: self.chip.query_count(),
                wall_secs: ctx.start.elapsed().as_secs_f64(),
            });
            trace.flush();
        }

        Ok(TrainOutcome {
            method: ctx.method.label(),
            history,
            final_eval,
            theta,
            training_queries,
            recovery: st.total_recovery,
            recovery_events: st.recovery_events,
        })
    }
}

/// Packs the live state after `epoch` into the journaled [`RunState`].
fn run_state_after(epoch: usize, st: &FinetuneState, theta: &RVector) -> RunState {
    RunState {
        epoch,
        iteration: st.iteration,
        coord_offset: st.coord_offset,
        rollbacks_used: st.rollbacks_used,
        loss_ema: st.loss_ema,
        eval_queries: st.eval_queries,
        ledger: st.ledger,
        recovery: st.total_recovery,
        theta: theta.clone(),
        adam: st.adam.snapshot(),
        cma: st.cma.as_ref().map(CmaEs::snapshot),
        rollback_snapshot: st.snapshot.as_ref().map(|(t, a, c)| RollbackSnapshot {
            theta: t.clone(),
            adam: a.snapshot(),
            cma: c.as_ref().map(CmaEs::snapshot),
        }),
        metric_errors: st.metric_errors.clone(),
        recovery_events: st.recovery_events.clone(),
    }
}

/// Training queries = total run spend minus evaluation-side spend, with the
/// subtraction saturating so a bookkeeping slip degrades to a clamped count
/// instead of a wrapped-around garbage value (debug builds assert instead).
fn training_query_total(run_total: u64, eval_queries: u64) -> u64 {
    debug_assert!(
        eval_queries <= run_total,
        "eval query bookkeeping exceeds the run's total chip queries"
    );
    run_total.saturating_sub(eval_queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_data::GaussianClusters;
    use photon_photonics::{Architecture, ErrorModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (FabricatedChip, Dataset, Dataset, ClassificationHead) {
        let mut rng = StdRng::seed_from_u64(seed);
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let all = GaussianClusters::new(4, 4, 0.15)
            .generate(120, &mut rng)
            .unwrap();
        let (train, test) = all.split(0.75, &mut rng);
        let head = ClassificationHead::new(4, 4, 10.0).unwrap();
        (chip, train, test, head)
    }

    #[test]
    fn warm_start_reduces_model_loss() {
        let (chip, train, test, head) = setup(1);
        let trainer = Trainer::new(&chip, &train, &test, head);
        let mut rng = StdRng::seed_from_u64(2);
        let config = TrainConfig::quick(4);
        let model = ideal_model(chip.architecture());
        let theta0 = model.init_params(&mut rng);
        let idx: Vec<usize> = (0..train.len()).collect();
        let loss0 = crate::metrics::model_batch_loss(&model, &train, &idx, &head, &theta0);
        let theta = trainer.warm_start(&config, &mut rng);
        let loss1 = crate::metrics::model_batch_loss(&model, &train, &idx, &head, &theta);
        assert!(loss1 < loss0, "{loss1} !< {loss0}");
    }

    #[test]
    fn zo_gaussian_trains_above_chance() {
        let (chip, train, test, head) = setup(3);
        let trainer = Trainer::new(&chip, &train, &test, head);
        let mut rng = StdRng::seed_from_u64(4);
        let mut config = TrainConfig::quick(4);
        config.epochs = 8;
        let out = trainer
            .train(Method::ZoGaussian, &config, &mut rng)
            .unwrap();
        assert!(
            out.final_eval.accuracy > 0.3,
            "acc {}",
            out.final_eval.accuracy
        );
        assert!(out.training_queries > 0);
        assert_eq!(out.history.len(), 8);
        assert_eq!(out.method, "ZO-I");
    }

    #[test]
    fn lcng_with_oracle_metric_trains() {
        let (chip, train, test, head) = setup(5);
        let trainer = Trainer::new(&chip, &train, &test, head);
        let mut rng = StdRng::seed_from_u64(6);
        let mut config = TrainConfig::quick(4);
        config.epochs = 8;
        let out = trainer
            .train(
                Method::Lcng {
                    model: ModelChoice::OracleTrue,
                },
                &config,
                &mut rng,
            )
            .unwrap();
        assert!(
            out.final_eval.accuracy > 0.3,
            "acc {}",
            out.final_eval.accuracy
        );
        assert_eq!(out.method, "ZO-LCNG(oracle)");
    }

    #[test]
    fn calibrated_choice_requires_attachment() {
        let (chip, train, test, head) = setup(7);
        let trainer = Trainer::new(&chip, &train, &test, head);
        let mut rng = StdRng::seed_from_u64(8);
        let config = TrainConfig::quick(4);
        let err = trainer.train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        );
        assert!(err.is_err());
        // Attaching the oracle network as a stand-in fixes it.
        let trainer = trainer.with_calibrated_model(chip.oracle_network());
        let ok = trainer.train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn bp_ideal_never_queries_chip_during_training() {
        let (chip, train, test, head) = setup(9);
        let trainer = Trainer::new(&chip, &train, &test, head);
        let mut rng = StdRng::seed_from_u64(10);
        let config = TrainConfig::quick(4);
        let out = trainer.train(Method::BpIdeal, &config, &mut rng).unwrap();
        assert_eq!(out.training_queries, 0);
        assert!(!Method::BpIdeal.queries_chip());
        assert!(Method::ZoGaussian.queries_chip());
    }

    #[test]
    fn bp_oracle_beats_bp_ideal_on_noisy_chip() {
        // With large fabrication errors the ideal-model gradients mislead;
        // perfect error information must win.
        let mut rng = StdRng::seed_from_u64(11);
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(10.0), &mut rng);
        let all = GaussianClusters::new(4, 4, 0.15)
            .generate(160, &mut rng)
            .unwrap();
        let (train, test) = all.split(0.75, &mut rng);
        let head = ClassificationHead::new(4, 4, 10.0).unwrap();
        let trainer = Trainer::new(&chip, &train, &test, head);
        let mut config = TrainConfig::quick(4);
        config.epochs = 12;
        config.warm_epochs = 5;

        let mut rng_a = StdRng::seed_from_u64(12);
        let oracle = trainer
            .train(Method::BpOracle, &config, &mut rng_a)
            .unwrap();
        let mut rng_b = StdRng::seed_from_u64(12);
        let ideal = trainer.train(Method::BpIdeal, &config, &mut rng_b).unwrap();
        assert!(
            oracle.final_eval.loss <= ideal.final_eval.loss * 1.05,
            "oracle {} should beat ideal {}",
            oracle.final_eval.loss,
            ideal.final_eval.loss
        );
    }

    #[test]
    fn cma_trains_on_tiny_problem() {
        let (chip, train, test, head) = setup(13);
        let trainer = Trainer::new(&chip, &train, &test, head);
        let mut rng = StdRng::seed_from_u64(14);
        let mut config = TrainConfig::quick(4);
        config.epochs = 3;
        let out = trainer
            .train(Method::Cma { sigma0: 0.3 }, &config, &mut rng)
            .unwrap();
        assert_eq!(out.method, "CMA");
        assert!(out.final_eval.accuracy >= 0.2);
    }

    #[test]
    fn eval_every_records_test_points() {
        let (chip, train, test, head) = setup(15);
        let trainer = Trainer::new(&chip, &train, &test, head);
        let mut rng = StdRng::seed_from_u64(16);
        let mut config = TrainConfig::quick(4);
        config.epochs = 4;
        config.eval_every = 2;
        let out = trainer
            .train(Method::ZoGaussian, &config, &mut rng)
            .unwrap();
        assert!(out.history[1].test.is_some());
        assert!(out.history[0].test.is_none());
        // Training queries exclude evaluation sweeps: monotone per epoch.
        assert!(out.history[3].training_queries >= out.history[0].training_queries);
    }

    #[test]
    fn method_labels() {
        assert_eq!(Method::ZoCoordinate.label(), "ZO-co");
        assert_eq!(Method::ZoLc.label(), "ZO-LC");
        assert_eq!(
            Method::ZoNg {
                model: ModelChoice::Ideal
            }
            .label(),
            "ZO-NG(ideal)"
        );
        assert_eq!(
            Method::ZoShaped {
                model: ModelChoice::OracleTrue
            }
            .label(),
            "ZO-S(oracle)"
        );
        assert_eq!(Method::BpCalibrated.label(), "BP-calib");
    }
}
