//! In-situ continual recalibration under live traffic.
//!
//! A deployed chip drifts; taking it offline to recalibrate costs serving
//! capacity. This module closes the loop *in place*: the same physical
//! chip keeps serving its deployed (pinned) theta while, cycle after
//! cycle, the controller
//!
//! 1. **probes** the drifted chip (a calibration sweep warm-started from
//!    the previous error estimate — [`photon_calib::recalibrate`]),
//! 2. **fine-tunes a shadow theta** against the freshly calibrated model
//!    (a durable [`Trainer::train_durable_from`] run seeded from the
//!    *deployed* parameters, sliceable via `epoch_budget`),
//! 3. **canaries** the shadow: per-sample losses of deployed vs shadow on
//!    a seeded traffic slice, gated by the Mann-Whitney U test, and
//! 4. **promotes or rolls back** atomically: the verdict — including the
//!    next deployed theta — is committed to a CRC-framed write-ahead
//!    record *before* the chip is re-pinned, so a crash at any byte
//!    leaves the deployment either fully old or fully new, never torn.
//!
//! Every random decision derives from the cycle's stream seeds, every
//! chip-state mutation happens at a serial [`OnnChip::advance_to`] /
//! [`OnnChip::pin_compile_base`] control point, and the shadow run's
//! steps are offset past the cycle's base step (see [`run_online`]), so
//! the whole loop is bitwise-replayable at any `PHOTON_THREADS` and
//! resumable after a kill via [`run_online`]'s write-ahead journal.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use photon_calib::{recalibrate, CalibError, CalibrationSettings};
use photon_core::{
    chip_batch_loss, evaluate_chip, mann_whitney_u, stream_seed, ClassificationHead, CoreError,
    DurableOptions, Evaluation, JournalError, Method, ModelChoice, RecordLog, RunJournal,
    RunOutcome, TrainConfig, TrainOutcome, Trainer, WatchdogPolicy,
};
use photon_data::Dataset;
use photon_exec::ExecPool;
use photon_linalg::{CVector, RVector};
use photon_photonics::{
    AbortFlag, Architecture, BatchScratch, CacheStats, ChipScratch, ErrorVector, Network, OnnChip,
};
use photon_trace::{TraceEvent, TraceHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// File name of the online controller's write-ahead journal inside the
/// run directory: a [`RecordLog`] whose first record is the controller's
/// identity and every later one a committed [`CycleRecord`].
pub const ONLINE_WAL: &str = "online.journal";

// Stream tags: each cycle's probe sweep, shadow fine-tune, and canary
// slice draw from independent streams, `stream_seed(root, tag, cycle)`.
const PROBE_TAG: u64 = 0x5052_4F42; // "PROB"
const SHADOW_TAG: u64 = 0x5348_4144; // "SHAD"
const CANARY_TAG: u64 = 0x4341_4E41; // "CANA"

/// Configuration of the online recalibration controller.
#[derive(Debug, Clone)]
pub struct OnlineOptions {
    /// Recalibration cycles to run.
    pub cycles: usize,
    /// Root seed; every probe/shadow/canary stream derives from it.
    pub root_seed: u64,
    /// Probe sweep budget per cycle (the piggybacked calibration traffic).
    pub probe: CalibrationSettings,
    /// Shadow fine-tune configuration (its `epochs` is the per-cycle
    /// training budget).
    pub shadow: TrainConfig,
    /// Shadow fine-tune method. Defaults to the paper's
    /// `ZO-LCNG (calibrated)`, which is what the per-cycle recalibration
    /// feeds.
    pub shadow_method: Method,
    /// Optional epoch budget per durable slice of the shadow run: the
    /// controller keeps resuming until the run completes, exactly like a
    /// preempting farm scheduler.
    pub epoch_budget: Option<usize>,
    /// Optional watchdog for the shadow run's chip queries.
    pub watchdog: Option<WatchdogPolicy>,
    /// Canary *requests* per arm. Each request is a microbatch of
    /// [`canary_batch`](Self::canary_batch) test samples served under
    /// both thetas; per-request mean losses feed the Mann-Whitney gate.
    /// Values ≤ 10 keep the pooled sample within the exact Mann-Whitney
    /// range.
    pub canary_samples: usize,
    /// Test samples averaged per canary request. Canary traffic arrives
    /// as microbatches, exactly like inference traffic; comparing
    /// per-microbatch means instead of raw per-sample losses shrinks the
    /// heavy-tailed cross-entropy variance the rank test has to overcome.
    pub canary_batch: usize,
    /// Two-sided significance level the canary must clear to promote.
    pub alpha: f64,
    /// Trace sink for canary/promotion/rollback events.
    pub trace: TraceHandle,
}

impl OnlineOptions {
    /// Defaults: `ZO-LCNG (calibrated)` shadow method, default probe
    /// sweep, 8 canary requests of 4 samples per arm, `alpha = 0.05`, no
    /// slicing, no watchdog, no tracing.
    pub fn new(cycles: usize, root_seed: u64, shadow: TrainConfig) -> Self {
        OnlineOptions {
            cycles,
            root_seed,
            probe: CalibrationSettings::default(),
            shadow,
            shadow_method: Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            epoch_budget: None,
            watchdog: None,
            canary_samples: 8,
            canary_batch: 4,
            alpha: 0.05,
            trace: TraceHandle::null(),
        }
    }

    /// Slices the shadow run into durable `budget`-epoch quanta.
    #[must_use]
    pub fn with_epoch_budget(mut self, budget: usize) -> Self {
        assert!(budget >= 1, "epoch budget must be at least 1");
        self.epoch_budget = Some(budget);
        self
    }

    /// Sets the canary request count (per arm) and significance level.
    #[must_use]
    pub fn with_canary(mut self, samples: usize, alpha: f64) -> Self {
        assert!(samples >= 1, "canary needs at least one request per arm");
        assert!((0.0..=1.0).contains(&alpha), "alpha {alpha}");
        self.canary_samples = samples;
        self.alpha = alpha;
        self
    }

    /// Sets the microbatch size of each canary request.
    #[must_use]
    pub fn with_canary_batch(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "canary microbatch must hold at least 1 sample");
        self.canary_batch = batch;
        self
    }

    /// Attaches a trace sink.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }
}

/// One committed recalibration cycle — also the write-ahead record:
/// everything needed to restart the controller after this cycle lives
/// here.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleRecord {
    /// Cycle number, 1-based.
    pub cycle: u64,
    /// Chip step the cycle started (and served) at.
    pub base_step: u64,
    /// First chip step of the *next* cycle.
    pub next_step: u64,
    /// Whether the shadow theta was promoted.
    pub promoted: bool,
    /// Two-sided Mann-Whitney p-value of the canary comparison.
    pub p_value: f64,
    /// Mean per-sample canary loss of the deployed theta.
    pub baseline_loss: f64,
    /// Mean per-sample canary loss of the shadow theta.
    pub shadow_loss: f64,
    /// Epochs the shadow fine-tune ran.
    pub shadow_epochs: u64,
    /// Deployed theta *after* this cycle (the shadow on promotion, the
    /// previous deployment on rollback).
    pub theta: RVector,
    /// Error estimate from this cycle's probe sweep (the next cycle's
    /// warm-start prior).
    pub errors: ErrorVector,
}

/// Result of a completed [`run_online`] loop.
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// One record per cycle, in order (includes cycles replayed from the
    /// write-ahead journal on resume).
    pub cycles: Vec<CycleRecord>,
    /// Final deployed theta.
    pub deployed: RVector,
    /// Final error estimate (prior for a future cycle).
    pub errors: ErrorVector,
    /// Cycles that promoted their shadow.
    pub promotions: u64,
    /// Cycles that rolled their shadow back.
    pub rollbacks: u64,
    /// Test-set evaluation of the final deployment on the live (drifted)
    /// chip.
    pub final_eval: Evaluation,
}

/// Errors raised by the online controller.
#[derive(Debug)]
#[non_exhaustive]
pub enum OnlineError {
    /// Filesystem failure on the write-ahead journal.
    Io(io::Error),
    /// The probe sweep's model fit failed.
    Calib(CalibError),
    /// The shadow fine-tune failed.
    Core(CoreError),
    /// The write-ahead journal contradicts the caller's configuration.
    Wal(String),
    /// The shadow run aborted non-resumably.
    ShadowAborted(String),
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::Io(e) => write!(f, "online journal I/O: {e}"),
            OnlineError::Calib(e) => write!(f, "probe recalibration failed: {e}"),
            OnlineError::Core(e) => write!(f, "shadow fine-tune failed: {e}"),
            OnlineError::Wal(msg) => write!(f, "online journal: {msg}"),
            OnlineError::ShadowAborted(msg) => {
                write!(f, "shadow run aborted non-resumably: {msg}")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

impl From<io::Error> for OnlineError {
    fn from(e: io::Error) -> Self {
        OnlineError::Io(e)
    }
}

impl From<CalibError> for OnlineError {
    fn from(e: CalibError) -> Self {
        OnlineError::Calib(e)
    }
}

impl From<CoreError> for OnlineError {
    fn from(e: CoreError) -> Self {
        OnlineError::Core(e)
    }
}

impl From<JournalError> for OnlineError {
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Io(e) => OnlineError::Io(e),
            other => OnlineError::Wal(other.to_string()),
        }
    }
}

/// An [`OnnChip`] adapter that offsets every [`OnnChip::advance_to`] by a
/// fixed base, so a shadow fine-tune's iteration steps `1, 2, …` land on
/// fresh, monotonically increasing chip steps past the cycle's base — the
/// drifted chip never moves backwards, and per-step fault state (attempt
/// counters) resets exactly once per shadow iteration.
///
/// It also **swallows `pin_compile_base`**: while the shadow trains, the
/// *deployed* pin must keep serving inference traffic, so the trainer's
/// per-iteration pin hints are dropped rather than forwarded (a pure
/// performance hint — measurement results stay a function of theta).
struct SteppedChip<'c, C: OnnChip> {
    inner: &'c C,
    offset: u64,
    max_step: AtomicU64,
}

impl<'c, C: OnnChip> SteppedChip<'c, C> {
    fn new(inner: &'c C, offset: u64) -> Self {
        SteppedChip {
            inner,
            offset,
            max_step: AtomicU64::new(offset),
        }
    }

    /// Highest inner chip step this adapter has advanced to.
    #[cfg(test)]
    fn max_step(&self) -> u64 {
        self.max_step.load(Ordering::Relaxed)
    }
}

impl<C: OnnChip> OnnChip for SteppedChip<'_, C> {
    fn architecture(&self) -> &Architecture {
        self.inner.architecture()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn init_params<R: Rng + ?Sized>(&self, rng: &mut R) -> RVector {
        self.inner.init_params(rng)
    }

    fn forward_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut ChipScratch,
    ) -> &'s CVector {
        self.inner.forward_into(x, theta, scratch)
    }

    fn forward_powers_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut ChipScratch,
    ) -> &'s RVector {
        self.inner.forward_powers_into(x, theta, scratch)
    }

    fn forward_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [CVector] {
        self.inner.forward_batch_into(xs, theta, scratch)
    }

    fn forward_powers_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [RVector] {
        self.inner.forward_powers_batch_into(xs, theta, scratch)
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }

    fn reset_query_count(&self) {
        self.inner.reset_query_count()
    }

    fn oracle_errors(&self) -> ErrorVector {
        self.inner.oracle_errors()
    }

    fn oracle_network(&self) -> Network {
        self.inner.oracle_network()
    }

    fn advance_to(&self, step: u64) {
        let inner_step = self.offset + step;
        self.max_step.fetch_max(inner_step, Ordering::Relaxed);
        self.inner.advance_to(inner_step);
    }

    fn abort_flag(&self) -> AbortFlag {
        self.inner.abort_flag()
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn pin_compile_base(&self, _theta: &RVector) {
        // Deliberately dropped: the deployed pin keeps serving.
    }

    fn pinned_theta(&self) -> Option<RVector> {
        None
    }
}

fn hex_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_hex_f64(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn hex_csv(vs: impl Iterator<Item = f64>) -> String {
    vs.map(hex_f64).collect::<Vec<_>>().join(",")
}

fn parse_hex_csv(s: &str, expected: usize) -> Option<Vec<f64>> {
    let vals: Option<Vec<f64>> = s.split(',').map(parse_hex_f64).collect();
    let vals = vals?;
    (vals.len() == expected).then_some(vals)
}

fn encode_record(rec: &CycleRecord) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {}\n",
        rec.cycle,
        rec.base_step,
        rec.next_step,
        u8::from(rec.promoted),
        hex_f64(rec.p_value),
        hex_f64(rec.baseline_loss),
        hex_f64(rec.shadow_loss),
        rec.shadow_epochs,
        hex_csv(rec.theta.iter().copied()),
        hex_csv(rec.errors.to_flat().into_iter()),
    )
}

fn decode_record(payload: &str, theta_len: usize, n_bs: usize, n_ps: usize) -> Option<CycleRecord> {
    let mut it = payload.split_ascii_whitespace();
    let cycle = it.next()?.parse().ok()?;
    let base_step = it.next()?.parse().ok()?;
    let next_step = it.next()?.parse().ok()?;
    let promoted = match it.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let p_value = parse_hex_f64(it.next()?)?;
    let baseline_loss = parse_hex_f64(it.next()?)?;
    let shadow_loss = parse_hex_f64(it.next()?)?;
    let shadow_epochs = it.next()?.parse().ok()?;
    let theta = RVector::from_vec(parse_hex_csv(it.next()?, theta_len)?);
    let flat = parse_hex_csv(it.next()?, n_bs + 2 * n_ps)?;
    let errors = ErrorVector::from_flat(n_bs, n_ps, &flat).ok()?;
    if it.next().is_some() {
        return None;
    }
    Some(CycleRecord {
        cycle,
        base_step,
        next_step,
        promoted,
        p_value,
        baseline_loss,
        shadow_loss,
        shadow_epochs,
        theta,
        errors,
    })
}

/// The write-ahead journal's first record: the controller identity a
/// resume must match.
fn wal_identity(root_seed: u64, theta_len: usize, n_bs: usize, n_ps: usize) -> String {
    format!("online-header seed {root_seed} theta {theta_len} bs {n_bs} ps {n_ps}\n")
}

/// Replays the write-ahead journal through [`RecordLog::replay`], which
/// truncates a torn tail (the signature of a kill mid-append), and decodes
/// its cycles. The first record must be the caller's `identity`. Every
/// later record is CRC-intact, so one that does not decode or does not
/// continue the cycle sequence is corruption, not a torn tail: an error.
fn replay_wal(
    path: &Path,
    identity: &str,
    theta_len: usize,
    n_bs: usize,
    n_ps: usize,
) -> Result<Vec<CycleRecord>, OnlineError> {
    let (payloads, _) = RecordLog::replay(path)?;
    let mut payloads = payloads.iter();
    let found = payloads.next().map_or("", String::as_str);
    if found != identity {
        return Err(OnlineError::Wal(format!(
            "header mismatch: expected {:?}, found {:?}",
            identity.trim_end(),
            found.trim_end()
        )));
    }
    let mut records: Vec<CycleRecord> = Vec::new();
    for payload in payloads {
        let cycle = records.len() as u64 + 1;
        let rec = decode_record(payload, theta_len, n_bs, n_ps)
            .filter(|r| r.cycle == cycle)
            .ok_or_else(|| {
                OnlineError::Wal(format!("intact record is not a valid cycle {cycle}"))
            })?;
        records.push(rec);
    }
    Ok(records)
}

fn has_entries(path: &Path) -> bool {
    path.exists()
        && RunJournal::replay(path)
            .map(|r| !r.entries.is_empty())
            .unwrap_or(false)
}

/// Runs (or resumes) the online recalibration loop on a live chip.
///
/// The chip keeps serving `initial_theta` (pinned at each cycle's base
/// step) while each cycle probes, shadow-trains, canaries, and then
/// atomically promotes or rolls back — see the module docs for the state
/// machine. `initial_errors` seeds the first probe sweep's warm start
/// (use [`ErrorVector::zeros`] for a cold start).
///
/// **Idempotent**: all controller state lives in `dir/`[`ONLINE_WAL`]
/// plus per-cycle shadow journals. If the directory already holds a
/// journal from an earlier (possibly killed) invocation with the same
/// identity, completed cycles are replayed from it and the loop continues
/// where it left off — bitwise identically to a run that was never
/// interrupted, because chip drift replays by step, every RNG stream is
/// derived per cycle, and the commit record (not the chip pin) is the
/// source of truth for the deployment.
///
/// # Errors
///
/// See [`OnlineError`].
#[allow(clippy::too_many_arguments)]
pub fn run_online<C: OnnChip>(
    chip: &C,
    train: &Dataset,
    test: &Dataset,
    head: ClassificationHead,
    initial_theta: &RVector,
    initial_errors: &ErrorVector,
    opts: &OnlineOptions,
    dir: &Path,
) -> Result<OnlineOutcome, OnlineError> {
    fs::create_dir_all(dir)?;
    let (n_bs, n_ps) = chip.architecture().error_slots();
    let theta_len = initial_theta.len();
    let wal_path = dir.join(ONLINE_WAL);

    let identity = wal_identity(opts.root_seed, theta_len, n_bs, n_ps);
    let (mut wal, records) = if wal_path.exists() {
        let records = replay_wal(&wal_path, &identity, theta_len, n_bs, n_ps)?;
        (RecordLog::open_append(&wal_path)?, records)
    } else {
        (RecordLog::create(&wal_path, &identity)?, Vec::new())
    };

    let mut deployed = records
        .last()
        .map_or_else(|| initial_theta.clone(), |r| r.theta.clone());
    let mut prior = records
        .last()
        .map_or_else(|| initial_errors.clone(), |r| r.errors.clone());
    let mut base = records.last().map_or(1, |r| r.next_step);
    let start_cycle = records.last().map_or(1, |r| r.cycle + 1);
    let mut records = records;

    let pool = ExecPool::with_threads(opts.shadow.threads);
    for cycle in start_cycle..=opts.cycles as u64 {
        let rec = run_cycle(
            chip, train, test, head, &deployed, &prior, opts, dir, cycle, base, &pool,
        )?;
        // Commit order is the atomicity protocol: journal first (fsync'd),
        // re-pin second. A kill between the two resumes from the record —
        // the new deployment — and a kill before the append resumes from
        // the previous record: never a torn mix.
        wal.append(&encode_record(&rec))?;
        if rec.promoted {
            chip.advance_to(rec.next_step);
            chip.pin_compile_base(&rec.theta);
        }
        deployed = rec.theta.clone();
        prior = rec.errors.clone();
        base = rec.next_step;
        records.push(rec);
    }

    // Make the live pin reflect the committed deployment even when every
    // cycle was replayed from the journal (fresh process after a kill).
    chip.advance_to(base);
    chip.pin_compile_base(&deployed);
    let final_eval = evaluate_chip(chip, test, &head, &deployed, &pool);
    let promotions = records.iter().filter(|r| r.promoted).count() as u64;
    Ok(OnlineOutcome {
        promotions,
        rollbacks: records.len() as u64 - promotions,
        cycles: records,
        deployed,
        errors: prior,
        final_eval,
    })
}

/// One Serve → Probe → Shadow-finetune → Canary cycle; pure up to chip
/// drift (which replays by step) and the cycle's derived RNG streams.
#[allow(clippy::too_many_arguments)]
fn run_cycle<C: OnnChip>(
    chip: &C,
    train: &Dataset,
    test: &Dataset,
    head: ClassificationHead,
    deployed: &RVector,
    prior: &ErrorVector,
    opts: &OnlineOptions,
    dir: &Path,
    cycle: u64,
    base: u64,
    pool: &ExecPool,
) -> Result<CycleRecord, OnlineError> {
    // Serve: move drift to the cycle's base step and (re-)pin the
    // deployment — both serial control points.
    chip.advance_to(base);
    chip.pin_compile_base(deployed);

    // Probe: a calibration sweep against the live, drifted chip,
    // warm-started from the previous cycle's error estimate.
    let mut probe_rng = StdRng::seed_from_u64(stream_seed(opts.root_seed, PROBE_TAG, cycle));
    let recal = recalibrate(chip, prior, &opts.probe, &mut probe_rng)?;

    // Shadow fine-tune: a durable run from the *deployed* theta against
    // the freshly calibrated model, its steps offset past `base`.
    let stepped = SteppedChip::new(chip, base);
    let trainer =
        Trainer::new(&stepped, train, test, head).with_calibrated_model(recal.model.clone());
    let shadow_path = dir.join(format!("shadow-{cycle}.journal"));
    let shadow_seed = stream_seed(opts.root_seed, SHADOW_TAG, cycle);
    let mut dopts = DurableOptions::new(&shadow_path, shadow_seed);
    if let Some(w) = opts.watchdog {
        dopts = dopts.with_watchdog(w);
    }
    if let Some(b) = opts.epoch_budget {
        dopts = dopts.with_epoch_budget(b);
    }
    // A journal with committed epochs resumes; an absent or empty one
    // restarts from the deployed theta (an empty journal cannot
    // reconstruct the from-theta start — the deployed theta in our own
    // write-ahead state is the authority; see `train_durable_from`).
    let mut outcome = if has_entries(&shadow_path) {
        trainer.resume(&opts.shadow, &dopts)?
    } else {
        trainer.train_durable_from(opts.shadow_method, &opts.shadow, &dopts, deployed)?
    };
    let shadow: TrainOutcome = loop {
        match outcome {
            RunOutcome::Completed(out) => break out,
            RunOutcome::Aborted {
                resumable: true, ..
            } => outcome = trainer.resume(&opts.shadow, &dopts)?,
            RunOutcome::Aborted { reason, .. } => {
                return Err(OnlineError::ShadowAborted(format!("{reason:?}")))
            }
        }
    };

    // Canary: a seeded traffic slice, per-sample losses for both thetas
    // on the *same* chip state, gated by Mann-Whitney.
    //
    // The canary step derives from the shadow journal's final committed
    // iteration, NOT from runtime `advance_to` observation: a resume
    // that replays an already-complete shadow journal runs zero fresh
    // iterations, and the canary must land on the same drift step either
    // way for bitwise resume.
    let final_iter = RunJournal::replay(&shadow_path)
        .map_err(|e| OnlineError::Wal(format!("shadow journal re-read: {e}")))?
        .entries
        .last()
        .map_or(0, |e| e.state.iteration as u64);
    let canary_step = base + final_iter + 1;
    chip.advance_to(canary_step);
    let mut canary_rng = StdRng::seed_from_u64(stream_seed(opts.root_seed, CANARY_TAG, cycle));
    // Each canary request is a microbatch, like real inference traffic:
    // one observation per request (its mean loss), drawn over distinct
    // test samples (partial Fisher-Yates).
    let group = opts.canary_batch.max(1);
    let n = (opts.canary_samples.max(1) * group).min(test.len());
    let mut idx: Vec<usize> = (0..test.len()).collect();
    for k in 0..n {
        let j = canary_rng.gen_range(k..idx.len());
        idx.swap(k, j);
    }
    idx.truncate(n);
    let baseline_losses: Vec<f64> = idx
        .chunks(group)
        .map(|c| chip_batch_loss(chip, test, c, &head, deployed, pool))
        .collect();
    let shadow_losses: Vec<f64> = idx
        .chunks(group)
        .map(|c| chip_batch_loss(chip, test, c, &head, &shadow.theta, pool))
        .collect();
    let mw = mann_whitney_u(&shadow_losses, &baseline_losses);
    let baseline_loss = baseline_losses.iter().sum::<f64>() / baseline_losses.len() as f64;
    let shadow_loss = shadow_losses.iter().sum::<f64>() / shadow_losses.len() as f64;
    let promoted = mw.p_value < opts.alpha && shadow_loss < baseline_loss;

    opts.trace.emit(|| TraceEvent::CanaryVerdict {
        cycle,
        samples: n as u64,
        baseline_loss,
        shadow_loss,
        p_value: mw.p_value,
        promote: promoted,
    });
    let shadow_epochs = shadow.history.len() as u64;
    if promoted {
        opts.trace.emit(|| TraceEvent::Promotion {
            cycle,
            step: canary_step,
            shadow_epochs,
            shadow_loss,
        });
    } else {
        opts.trace.emit(|| TraceEvent::ShadowRollback {
            cycle,
            step: canary_step,
            reason: "canary_not_better".to_string(),
        });
    }

    Ok(CycleRecord {
        cycle,
        base_step: base,
        next_step: canary_step + 1,
        promoted,
        p_value: mw.p_value,
        baseline_loss,
        shadow_loss,
        shadow_epochs,
        theta: if promoted {
            shadow.theta
        } else {
            deployed.clone()
        },
        errors: recal.errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64, promoted: bool) -> CycleRecord {
        CycleRecord {
            cycle,
            base_step: 1 + (cycle - 1) * 10,
            next_step: 1 + cycle * 10,
            promoted,
            p_value: 0.01 * cycle as f64,
            baseline_loss: 0.5,
            shadow_loss: 0.25,
            shadow_epochs: 3,
            theta: RVector::from_vec(vec![0.1 * cycle as f64, -0.2, f64::consts_hack()]),
            errors: ErrorVector::from_flat(2, 1, &[0.01, -0.02, 0.03, f64::NAN]).unwrap(),
        }
    }

    // A non-trivial bit pattern (negative zero) to catch lossy encodings.
    trait ConstsHack {
        fn consts_hack() -> f64;
    }
    impl ConstsHack for f64 {
        fn consts_hack() -> f64 {
            -0.0
        }
    }

    #[test]
    fn wal_records_roundtrip_bitwise_including_nan() {
        for promoted in [false, true] {
            let r = rec(1, promoted);
            let payload = encode_record(&r);
            let back = decode_record(&payload, 3, 2, 1).expect("decode");
            assert_eq!(back.cycle, r.cycle);
            assert_eq!(back.promoted, r.promoted);
            let bits = |v: &RVector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&back.theta),
                bits(&r.theta),
                "theta must survive bitwise"
            );
            let ebits =
                |e: &ErrorVector| e.to_flat().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(ebits(&back.errors), ebits(&r.errors), "NaN error slot too");
            assert_eq!(back.p_value.to_bits(), r.p_value.to_bits());
        }
    }

    fn wal_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("photon-online-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn wal_replay_truncates_torn_tail_to_last_intact_record() {
        use std::io::Write;
        let dir = wal_dir("torn");
        let path = dir.join(ONLINE_WAL);
        let identity = wal_identity(7, 3, 2, 1);
        let mut wal = RecordLog::create(&path, &identity).unwrap();
        wal.append(&encode_record(&rec(1, true))).unwrap();
        wal.append(&encode_record(&rec(2, false))).unwrap();
        drop(wal);
        let clean_len = fs::metadata(&path).unwrap().len();
        // A kill mid-append leaves a frame line without its full payload.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"record 500 12345678\npartial").unwrap();
        drop(f);

        let records = replay_wal(&path, &identity, 3, 2, 1).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].cycle, 1);
        assert!(records[0].promoted);
        assert!(!records[1].promoted);
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            clean_len,
            "torn tail must be truncated"
        );
        // Wrong identity is an error, not a silent restart.
        assert!(replay_wal(&path, &wal_identity(8, 3, 2, 1), 3, 2, 1).is_err());
        assert!(replay_wal(&path, &wal_identity(7, 4, 2, 1), 4, 2, 1).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn intact_record_that_breaks_the_cycle_sequence_is_an_error() {
        let dir = wal_dir("corrupt");
        let path = dir.join(ONLINE_WAL);
        let identity = wal_identity(7, 3, 2, 1);
        // CRC-intact but invalid: a skipped cycle, and a payload that does
        // not decode. Neither is a torn tail, so neither is truncated away.
        for bad in [encode_record(&rec(3, true)), "not a cycle\n".to_string()] {
            let mut wal = RecordLog::create(&path, &identity).unwrap();
            wal.append(&encode_record(&rec(1, true))).unwrap();
            wal.append(&bad).unwrap();
            drop(wal);
            let len = fs::metadata(&path).unwrap().len();
            let err = replay_wal(&path, &identity, 3, 2, 1).unwrap_err();
            assert!(matches!(err, OnlineError::Wal(_)), "{err}");
            assert_eq!(fs::metadata(&path).unwrap().len(), len);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stepped_chip_offsets_steps_and_swallows_pins() {
        use photon_photonics::{ErrorModel, FabricatedChip};
        let mut rng = StdRng::seed_from_u64(3);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let theta = chip.init_params(&mut rng);
        chip.pin_compile_base(&theta);

        let stepped = SteppedChip::new(&chip, 100);
        stepped.advance_to(3);
        stepped.advance_to(7);
        assert_eq!(stepped.max_step(), 107);
        // The deployed pin survives the trainer's per-iteration pin hints.
        let other = RVector::zeros(theta.len());
        stepped.pin_compile_base(&other);
        assert_eq!(chip.pinned_theta().unwrap(), theta);
        assert!(stepped.pinned_theta().is_none());
    }
}
