//! # photon-core
//!
//! End-to-end training core of the `photon-zo` reproduction: the optical
//! power-readout classification head, batch metrics, the two-stage trainer
//! (backprop warm start → black-box fine-tune), the experiment harness, and
//! run statistics (including the Mann-Whitney U test used in the paper's
//! significance annotations).
//!
//! Durability has one format: [`RecordLog`], a CRC-framed, fsynced,
//! single-writer text log whose torn tail replay truncates. The
//! [`RunJournal`] of a durable run keeps the full loop-carried training
//! state in one after every epoch, so a killed run resumes
//! bitwise-identically; the journal's last [`RunState`] holds the trained
//! parameters. No record carries wall-clock time, so same-spec runs write
//! byte-identical files.
//!
//! The method grid wired through [`Trainer`] covers the paper's comparison:
//! vanilla ZO (`ZO-I`), coordinate-wise ZO (`ZO-co`), CMA-ES, the ablations
//! `ZO-LC` / `ZO-NG`, the full **`ZO-LCNG`** with ideal / calibrated /
//! oracle metric models, and the backprop bounds `BP-ideal` / `BP-calib` /
//! `BP-oracle`.
//!
//! # Examples
//!
//! Train a tiny ONN on a cluster task with vanilla ZO:
//!
//! ```
//! use rand::SeedableRng;
//! use photon_core::{build_task, Method, TaskSpec, TrainConfig, Trainer};
//!
//! let task = build_task(&TaskSpec::quick(4), 7)?;
//! let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut config = TrainConfig::quick(4);
//! config.epochs = 2;
//! let outcome = trainer.train(Method::ZoGaussian, &config, &mut rng)?;
//! assert!(outcome.final_eval.accuracy >= 0.0);
//! # Ok::<(), photon_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod experiment;
mod journal;
mod loss;
mod metrics;
mod report;
mod stats;
mod trainer;

pub use journal::{
    crc32, epoch_seed, EpochEntry, JournalError, JournalHeader, RecordLog, Replay,
    RollbackSnapshot, RunJournal, RunState,
};
pub use experiment::{build_task, run_method, MethodResult, TaskInstance, TaskKind, TaskSpec};
pub use loss::{softmax, ClassificationHead, CoreError};
pub use metrics::{
    batch_inputs, chip_batch_loss, evaluate_chip, model_batch_loss, model_batch_loss_and_grad,
    Evaluation,
};
pub use report::{downsample, recovery_report, sparkline, trace_summary, CsvWriter, TextTable};
pub use stats::{
    mann_whitney_u, normal_sf, percentiles, MannWhitney, RunSummary,
    MANN_WHITNEY_EXACT_MAX_POOLED_N,
};
pub use photon_exec::WatchdogPolicy;
pub use trainer::{
    AbortReason, DurableOptions, EpochRecord, Method, ModelChoice, RecoveryEvent, RecoveryPolicy,
    RecoveryStats, RunOutcome, TrainConfig, TrainOutcome, Trainer,
};
