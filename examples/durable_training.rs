//! Durable training demo: a journaled, kill-resilient run that survives
//! `kill -9` at any instant and resumes bitwise-identically.
//!
//! The run appends its full loop-carried state to a write-ahead journal
//! after every epoch; on `--resume` the journal is replayed (truncating any
//! torn tail left by the kill) and training continues exactly where it
//! stopped. The journal holds no wall-clock time, so its bytes — every
//! epoch's state and record, the final parameters included — are a pure
//! function of `(task, config, seed)` at any `--threads`: the CI chaos gate
//! (`scripts/chaos_resume.sh`) `cmp`s a killed-and-resumed run's journal
//! against an uninterrupted control's.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example durable_training -- --journal results/durable.journal
//! # ... kill -9 it mid-run, then:
//! cargo run --release --example durable_training -- --journal results/durable.journal --resume
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use photon_zo::core::{
    build_task, AbortReason, DurableOptions, Method, RunOutcome, TaskSpec, TrainConfig, Trainer,
};
use photon_zo::trace::{TraceEvent, TraceHandle, TraceSink};

/// Slows the run down by sleeping after each journal flush, widening the
/// window in which the chaos script's `kill -9` can land mid-run. Purely
/// observational: the trace layer never influences training results.
struct FlushThrottle {
    delay: Duration,
}

impl TraceSink for FlushThrottle {
    fn record(&self, event: &TraceEvent) {
        if matches!(event, TraceEvent::JournalFlush { .. }) {
            std::thread::sleep(self.delay);
        }
    }
}

struct Args {
    journal: PathBuf,
    epochs: usize,
    seed: u64,
    threads: usize,
    resume: bool,
    flush_delay_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        journal: PathBuf::from("results/durable.journal"),
        epochs: 6,
        seed: 7,
        threads: 1,
        resume: false,
        flush_delay_ms: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--journal" => args.journal = PathBuf::from(value("--journal")?),
            "--epochs" => {
                args.epochs = value("--epochs")?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--flush-delay-ms" => {
                args.flush_delay_ms = value("--flush-delay-ms")?
                    .parse()
                    .map_err(|e| format!("--flush-delay-ms: {e}"))?;
            }
            "--resume" => args.resume = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("durable_training: {msg}");
            return ExitCode::from(2);
        }
    };

    let task = build_task(&TaskSpec::quick(4), 11).expect("task");
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let mut config = TrainConfig::quick(4);
    config.epochs = args.epochs;
    config.eval_every = 2;
    config.threads = Some(args.threads);
    if args.flush_delay_ms > 0 {
        config.trace = TraceHandle::new(Arc::new(FlushThrottle {
            delay: Duration::from_millis(args.flush_delay_ms),
        }) as Arc<dyn TraceSink>);
    }
    let opts = DurableOptions::new(&args.journal, args.seed);

    let result = if args.resume {
        println!("resuming from journal {}", args.journal.display());
        trainer.resume(&config, &opts)
    } else {
        println!("starting durable run, journal {}", args.journal.display());
        trainer.train_durable(Method::ZoGaussian, &config, &opts)
    };

    match result {
        Ok(RunOutcome::Completed(outcome)) => {
            println!(
                "run complete: {} epochs, final accuracy {:.3}, {} training queries",
                outcome.history.len(),
                outcome.final_eval.accuracy,
                outcome.training_queries
            );
            println!(
                "final parameters are the last record of {}",
                args.journal.display()
            );
            ExitCode::SUCCESS
        }
        Ok(RunOutcome::Aborted {
            resumable,
            epochs_completed,
            reason,
        }) => {
            match reason {
                AbortReason::QueryDeadline { epoch, timeouts } => eprintln!(
                    "run aborted at epoch {epoch} after {timeouts} timed-out attempts \
                     ({epochs_completed} epochs journaled, resumable: {resumable})"
                ),
                AbortReason::Preempted { epoch } => eprintln!(
                    "run preempted before epoch {epoch} \
                     ({epochs_completed} epochs journaled, resumable: {resumable})"
                ),
            }
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("durable_training: {e}");
            ExitCode::from(1)
        }
    }
}
