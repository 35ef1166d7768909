//! In-situ continual recalibration demo: a deployed theta keeps serving
//! on a drifting chip while the online controller probes, shadow
//! fine-tunes, canaries, and atomically promotes — recovering the
//! accuracy the drift took away, without ever taking the chip offline.
//!
//! The controller's write-ahead journal lives in `--dir`; `kill -9` the
//! process at any instant and re-run the same command line — completed
//! cycles replay from the journal and the loop continues bitwise
//! identically (the CI gate `cmp`s two runs' stdout byte for byte).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example online_recal -- --dir results/online
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::core::{
    build_task, evaluate_chip, Method, ModelChoice, TaskSpec, TrainConfig, Trainer,
};
use photon_zo::exec::ExecPool;
use photon_zo::farm::{run_online, OnlineOptions};
use photon_zo::faults::{DriftConfig, FaultPlan, FaultyChip};
use photon_zo::photonics::{ErrorVector, OnnChip};

const TASK_SEED: u64 = 17;
const THETA_SEED: u64 = 18;
const ROOT_SEED: u64 = 19;
const DRIFT_SEED: u64 = 41;

struct Args {
    dir: PathBuf,
    cycles: usize,
    epochs: usize,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dir: PathBuf::from("results/online-recal"),
        cycles: 2,
        epochs: 5,
        threads: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--dir" => args.dir = PathBuf::from(val("--dir")?),
            "--cycles" => args.cycles = val("--cycles")?.parse().map_err(|e| format!("{e}"))?,
            "--epochs" => args.epochs = val("--epochs")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => args.threads = val("--threads")?.parse().map_err(|e| format!("{e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn drift_plan() -> FaultPlan {
    FaultPlan::new(DRIFT_SEED).with_drift(DriftConfig {
        sigma: 0.05,
        tau: 20.0,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("online_recal: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The deployment story: theta trained on the just-fabricated chip,
    // pinned, and left serving while the chip drifts underneath it.
    let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head)
        .with_calibrated_model(task.chip.oracle_network());
    let mut config = TrainConfig::quick(4);
    config.epochs = 6;
    config.threads = Some(args.threads);
    let mut rng = StdRng::seed_from_u64(THETA_SEED);
    let deployed = trainer
        .train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        )
        .unwrap();
    println!(
        "deployed theta (trained pre-drift): accuracy {:.4}, loss {:.6}",
        deployed.final_eval.accuracy, deployed.final_eval.loss
    );

    // The live chip: same fabrication, drifting thermally step by step.
    let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let chip = FaultyChip::new(task.chip, drift_plan());
    let (n_bs, n_ps) = chip.architecture().error_slots();

    let mut shadow = TrainConfig::quick(4);
    shadow.epochs = args.epochs;
    shadow.threads = Some(args.threads);
    let opts = OnlineOptions::new(args.cycles, ROOT_SEED, shadow)
        .with_canary(8, 0.05)
        .with_canary_batch(5);

    let outcome = match run_online(
        &chip,
        &task.train,
        &task.test,
        task.head,
        &deployed.theta,
        &ErrorVector::zeros(n_bs, n_ps),
        &opts,
        &args.dir,
    ) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("online_recal: {e}");
            return ExitCode::FAILURE;
        }
    };

    for c in &outcome.cycles {
        println!(
            "cycle {}: steps {}..{}, shadow {} epochs, canary p {:.6}, \
             loss {:.6} -> {:.6}, {}",
            c.cycle,
            c.base_step,
            c.next_step,
            c.shadow_epochs,
            c.p_value,
            c.baseline_loss,
            c.shadow_loss,
            if c.promoted {
                "PROMOTED"
            } else {
                "rolled back"
            }
        );
    }
    println!(
        "promotions: {}, rollbacks: {}",
        outcome.promotions, outcome.rollbacks
    );

    // What would have happened without recalibration: the original theta
    // left serving on the drifted chip.
    let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let stale_chip = FaultyChip::new(task.chip, drift_plan());
    let final_step = outcome.cycles.last().map_or(1, |c| c.next_step);
    stale_chip.advance_to(final_step);
    stale_chip.pin_compile_base(&deployed.theta);
    let pool = ExecPool::with_threads(Some(args.threads));
    let stale = evaluate_chip(&stale_chip, &task.test, &task.head, &deployed.theta, &pool);
    println!(
        "stale deployment at step {final_step}: accuracy {:.4}, loss {:.6}",
        stale.accuracy, stale.loss
    );
    println!(
        "online deployment at step {final_step}: accuracy {:.4}, loss {:.6}",
        outcome.final_eval.accuracy, outcome.final_eval.loss
    );

    let recovered = outcome.promotions >= 1
        && outcome.final_eval.loss < stale.loss
        && outcome.final_eval.accuracy >= stale.accuracy;
    println!("recovered: {}", if recovered { "yes" } else { "NO" });
    if recovered {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
