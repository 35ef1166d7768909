//! Durable-runtime acceptance tests: a run killed at an arbitrary byte of
//! its journal and resumed on a freshly fabricated identical chip must be
//! bitwise identical — final parameters, per-epoch history, query ledger —
//! to the uninterrupted run, at serial and pooled worker counts; a torn
//! journal tail is truncated rather than fatal; and a permanently hung
//! chip link degrades to a clean, resumable abort instead of a hang.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use photon_zo::core::Evaluation;
use photon_zo::core::{
    build_task, AbortReason, DurableOptions, JournalHeader, Method, ModelChoice, RunJournal,
    RunOutcome, TaskSpec, TrainConfig, TrainOutcome, Trainer, WatchdogPolicy,
};
use photon_zo::faults::{FaultPlan, FaultyChip, HangConfig};
use photon_zo::linalg::RVector;

const TASK_SEED: u64 = 11;
const ROOT_SEED: u64 = 77;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("photon-durable-{}-{name}", std::process::id()));
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn quick_config(threads: usize) -> TrainConfig {
    let mut config = TrainConfig::quick(4);
    config.epochs = 4;
    config.eval_every = 2;
    config.threads = Some(threads);
    config
}

fn bits(v: &RVector) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn eval_bits(e: &Evaluation) -> (u64, u64, usize) {
    (e.accuracy.to_bits(), e.loss.to_bits(), e.samples)
}

/// Bitwise equality of two outcomes.
fn assert_same_outcome(control: &TrainOutcome, resumed: &TrainOutcome) {
    assert_eq!(control.method, resumed.method);
    assert_eq!(
        bits(&control.theta),
        bits(&resumed.theta),
        "final theta diverged"
    );
    assert_eq!(
        control.training_queries, resumed.training_queries,
        "training-query total diverged"
    );
    assert_eq!(
        eval_bits(&control.final_eval),
        eval_bits(&resumed.final_eval),
        "final evaluation diverged"
    );
    assert_eq!(control.recovery, resumed.recovery);
    assert_eq!(control.recovery_events, resumed.recovery_events);
    assert_eq!(control.history.len(), resumed.history.len());
    for (a, b) in control.history.iter().zip(&resumed.history) {
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(
            a.train_loss.to_bits(),
            b.train_loss.to_bits(),
            "train loss diverged at epoch {}",
            a.epoch
        );
        assert_eq!(
            a.test.as_ref().map(eval_bits),
            b.test.as_ref().map(eval_bits),
            "test eval diverged at epoch {}",
            a.epoch
        );
        assert_eq!(
            a.training_queries, b.training_queries,
            "ledger diverged at epoch {}",
            a.epoch
        );
        assert_eq!(a.recovery, b.recovery);
    }
}

/// Byte length of a header-only journal with the control run's identity,
/// so the simulated kill never cuts into the header itself (that would be
/// a corrupt file, not a torn tail — covered by the persistence proptests
/// in tests/noise_and_checkpoint.rs).
fn header_len(dir: &Path, method: Method, config: &TrainConfig) -> u64 {
    let header = JournalHeader {
        method,
        root_seed: ROOT_SEED,
        epochs: config.epochs,
        batch_size: config.batch_size,
        q: config.q,
    };
    let probe = dir.join("header-probe.journal");
    RunJournal::create(&probe, &header).expect("probe journal");
    fs::metadata(&probe).expect("probe metadata").len()
}

/// The decisive test: run durably to completion (control), then simulate a
/// kill by truncating a copy of the journal at a seeded-random byte, and
/// resume on a freshly fabricated identical chip. Control and resumed run
/// must agree bit for bit, and so must their journal files.
fn kill_and_resume(threads: usize, method: Method, kill_seed: u64, name: &str) {
    let dir = tmp_dir(name);
    let config = quick_config(threads);

    let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let control_path = dir.join("control.journal");
    let opts = DurableOptions::new(&control_path, ROOT_SEED);
    let control = trainer
        .train_durable(method, &config, &opts)
        .unwrap()
        .completed()
        .expect("control run completes");

    // Kill simulation: the process could have died at ANY byte boundary of
    // the journal — mid-frame, between frames, or before the first record.
    let floor = header_len(&dir, method, &config);
    let full = fs::metadata(&control_path).unwrap().len();
    let mut rng = StdRng::seed_from_u64(kill_seed);
    let cut = rng.gen_range(floor..full);
    let killed_path = dir.join("killed.journal");
    fs::copy(&control_path, &killed_path).unwrap();
    let file = fs::OpenOptions::new()
        .write(true)
        .open(&killed_path)
        .unwrap();
    file.set_len(cut).unwrap();
    drop(file);

    // Resume on a fresh, identically fabricated chip: readings are pure in
    // content + drift iteration, so a new chip (query counter back at zero)
    // reproduces the original's physics; `prior_queries` bridges the ledger.
    let task2 = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let trainer2 = Trainer::new(&task2.chip, &task2.train, &task2.test, task2.head);
    let resumed = trainer2
        .resume(&config, &DurableOptions::new(&killed_path, ROOT_SEED))
        .unwrap()
        .completed()
        .expect("resumed run completes");

    assert_same_outcome(&control, &resumed);
    assert!(
        fs::read(&killed_path).unwrap() == fs::read(&control_path).unwrap(),
        "resumed journal must equal the control journal byte for byte"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_is_bitwise_identical_serial() {
    kill_and_resume(1, Method::ZoGaussian, 101, "serial-zo");
}

#[test]
fn kill_and_resume_is_bitwise_identical_pooled() {
    kill_and_resume(
        3,
        Method::Lcng {
            model: ModelChoice::OracleTrue,
        },
        202,
        "pooled-lcng",
    );
}

#[test]
fn kill_and_resume_restores_cma_state() {
    kill_and_resume(1, Method::Cma { sigma0: 0.05 }, 303, "serial-cma");
}

#[test]
fn resume_rejects_mismatched_run_identity() {
    let dir = tmp_dir("identity");
    let config = quick_config(1);
    let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let path = dir.join("run.journal");
    trainer
        .train_durable(
            Method::ZoGaussian,
            &config,
            &DurableOptions::new(&path, ROOT_SEED),
        )
        .unwrap();

    // Wrong root seed: the per-epoch RNG streams would diverge silently.
    let err = trainer
        .resume(&config, &DurableOptions::new(&path, ROOT_SEED + 1))
        .unwrap_err();
    assert!(err.to_string().contains("root seed"), "got: {err}");

    // Wrong run shape: the shuffle / probe streams would diverge silently.
    let mut other = config.clone();
    other.batch_size += 1;
    let err = trainer
        .resume(&other, &DurableOptions::new(&path, ROOT_SEED))
        .unwrap_err();
    assert!(err.to_string().contains("does not match"), "got: {err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_tail_is_truncated_and_run_resumes() {
    let dir = tmp_dir("torn-tail");
    let config = quick_config(1);
    let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let path = dir.join("run.journal");
    let opts = DurableOptions::new(&path, ROOT_SEED);
    let control = trainer
        .train_durable(Method::ZoGaussian, &config, &opts)
        .unwrap()
        .completed()
        .unwrap();

    // A crash mid-append leaves a partial frame: a frame line whose payload
    // never made it to disk, plus raw garbage.
    let torn = dir.join("torn.journal");
    fs::copy(&path, &torn).unwrap();
    let mut bytes = fs::read(&torn).unwrap();
    bytes.extend_from_slice(b"record 9999 deadbeef\npartial payload that was cut");
    fs::write(&torn, &bytes).unwrap();

    let replay = RunJournal::replay(&torn).unwrap();
    assert_eq!(
        replay.entries.len(),
        config.epochs,
        "intact records survive"
    );
    assert!(replay.truncated_bytes > 0, "torn tail must be reported");
    // Replay truncates the file back to its last intact record.
    let replay2 = RunJournal::replay(&torn).unwrap();
    assert_eq!(replay2.truncated_bytes, 0);

    // Resume of the (fully complete) torn journal re-runs only the final
    // evaluation — on a fresh identical chip it reproduces the control.
    let task2 = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let trainer2 = Trainer::new(&task2.chip, &task2.train, &task2.test, task2.head);
    let resumed = trainer2
        .resume(&config, &DurableOptions::new(&torn, ROOT_SEED))
        .unwrap()
        .completed()
        .unwrap();
    assert_same_outcome(&control, &resumed);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_converts_hung_chip_into_resumable_abort() {
    let dir = tmp_dir("watchdog");
    let mut config = quick_config(1);
    config.epochs = 2;

    let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    // Every read hangs, far beyond the deadline: without the watchdog the
    // run would stall for max_block per read; with it, each attempt is cut
    // off at the deadline and the run aborts cleanly after the retry
    // budget.
    let plan = FaultPlan::new(5).with_hangs(HangConfig {
        prob: 1.0,
        max_block: Duration::from_secs(30),
    });
    let faulty = FaultyChip::new(task.chip, plan);
    let trainer = Trainer::new(&faulty, &task.train, &task.test, task.head);
    let path = dir.join("hung.journal");
    let watchdog = WatchdogPolicy {
        deadline: Duration::from_millis(50),
        max_timeouts: 1,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(4),
        jitter_seed: 9,
    };
    let opts = DurableOptions::new(&path, ROOT_SEED).with_watchdog(watchdog);

    let t0 = Instant::now();
    let outcome = trainer
        .train_durable(Method::ZoGaussian, &config, &opts)
        .unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "watchdog must not wait out the hang's safety valve"
    );
    match outcome {
        RunOutcome::Aborted {
            resumable,
            epochs_completed,
            reason: AbortReason::QueryDeadline { epoch, timeouts },
        } => {
            assert!(resumable, "watchdog aborts are always resumable");
            assert_eq!(epochs_completed, 0);
            assert_eq!(epoch, 1);
            assert_eq!(timeouts, 2, "max_timeouts + 1 attempts before abort");
        }
        RunOutcome::Completed(_) => panic!("a permanently hung chip cannot complete"),
        RunOutcome::Aborted { reason, .. } => panic!("unexpected abort reason: {reason:?}"),
    }

    // The abort left a valid journal: resuming on a healthy chip finishes
    // the run, identically to one that never saw the fault.
    let task2 = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let trainer2 = Trainer::new(&task2.chip, &task2.train, &task2.test, task2.head);
    let resumed = trainer2
        .resume(&config, &DurableOptions::new(&path, ROOT_SEED))
        .unwrap()
        .completed()
        .expect("resume on a healthy chip completes");

    let task3 = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let trainer3 = Trainer::new(&task3.chip, &task3.train, &task3.test, task3.head);
    let control = trainer3
        .train_durable(
            Method::ZoGaussian,
            &config,
            &DurableOptions::new(dir.join("control.journal"), ROOT_SEED),
        )
        .unwrap()
        .completed()
        .unwrap();
    assert_same_outcome(&control, &resumed);
    let _ = fs::remove_dir_all(&dir);
}

/// Preemption via `epoch_budget` is a first-class resumable abort: a run
/// sliced into 1-2 epoch quanta — each slice a separate invocation, as a
/// farm scheduler would issue them — lands bitwise on the uninterrupted
/// control.
#[test]
fn epoch_budget_slices_reassemble_bitwise() {
    let dir = tmp_dir("preempt");
    let config = quick_config(1);

    let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let control = trainer
        .train_durable(
            Method::ZoGaussian,
            &config,
            &DurableOptions::new(dir.join("control.journal"), ROOT_SEED),
        )
        .unwrap()
        .completed()
        .expect("control completes");

    // Sliced run: fresh chip + trainer per slice (the farm rebuilds both
    // on whichever worker a slice lands on).
    let sliced_path = dir.join("sliced.journal");
    let quanta = [1usize, 2, 1, 2, 1];
    let mut outcome = None;
    for (i, &quantum) in quanta.iter().enumerate() {
        let task_i = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
        let trainer_i = Trainer::new(&task_i.chip, &task_i.train, &task_i.test, task_i.head);
        let opts = DurableOptions::new(&sliced_path, ROOT_SEED).with_epoch_budget(quantum);
        let result = if i == 0 {
            trainer_i.train_durable(Method::ZoGaussian, &config, &opts)
        } else {
            trainer_i.resume(&config, &opts)
        }
        .unwrap();
        match result {
            RunOutcome::Completed(out) => {
                outcome = Some(out);
                break;
            }
            RunOutcome::Aborted {
                resumable,
                reason: AbortReason::Preempted { epoch },
                epochs_completed,
            } => {
                assert!(resumable, "preemption must be resumable");
                assert_eq!(epoch, epochs_completed + 1, "preempted at the next epoch");
            }
            RunOutcome::Aborted { reason, .. } => panic!("unexpected abort: {reason:?}"),
        }
    }
    let sliced = outcome.expect("slices must finish all epochs");
    assert_same_outcome(&control, &sliced);
    let _ = fs::remove_dir_all(&dir);
}

/// `train_durable_from` seeds the run with a caller-supplied theta instead
/// of the warm start, and the journal it writes kill-resumes bitwise like
/// any other durable run (as long as at least one epoch committed — the
/// zero-entry journal is the caller's responsibility, per its docs).
#[test]
fn train_durable_from_starts_at_given_theta_and_kill_resumes_bitwise() {
    let dir = tmp_dir("from-theta");
    let config = quick_config(1);
    let method = Method::ZoGaussian;

    let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let mut rng = StdRng::seed_from_u64(500);
    let theta0 = task.chip.init_params(&mut rng);

    let control_path = dir.join("control.journal");
    let control = trainer
        .train_durable_from(
            method,
            &config,
            &DurableOptions::new(&control_path, ROOT_SEED),
            &theta0,
        )
        .unwrap()
        .completed()
        .expect("from-theta control completes");

    // Regression: the warm start must actually be skipped — a plain
    // warm-started run with the same seeds lands elsewhere.
    let warm = trainer
        .train_durable(
            method,
            &config,
            &DurableOptions::new(dir.join("warm.journal"), ROOT_SEED),
        )
        .unwrap()
        .completed()
        .unwrap();
    assert_ne!(
        bits(&control.theta),
        bits(&warm.theta),
        "train_durable_from must not redo the warm start"
    );

    // Floor the simulated kill at one committed epoch: a one-epoch
    // preempted run of the same spec yields exactly that journal prefix.
    let floor_path = dir.join("floor.journal");
    let task_f = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let trainer_f = Trainer::new(&task_f.chip, &task_f.train, &task_f.test, task_f.head);
    match trainer_f
        .train_durable_from(
            method,
            &config,
            &DurableOptions::new(&floor_path, ROOT_SEED).with_epoch_budget(1),
            &theta0,
        )
        .unwrap()
    {
        RunOutcome::Aborted {
            resumable: true,
            epochs_completed: 1,
            ..
        } => {}
        other => panic!("expected a one-epoch preemption, got {other:?}"),
    }
    let floor = fs::metadata(&floor_path).unwrap().len();
    let full = fs::metadata(&control_path).unwrap().len();
    assert!(floor < full);

    let mut rng = StdRng::seed_from_u64(404);
    let cut = rng.gen_range(floor..full);
    let killed = dir.join("killed.journal");
    fs::copy(&control_path, &killed).unwrap();
    fs::OpenOptions::new()
        .write(true)
        .open(&killed)
        .unwrap()
        .set_len(cut)
        .unwrap();

    let task2 = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let trainer2 = Trainer::new(&task2.chip, &task2.train, &task2.test, task2.head);
    let resumed = trainer2
        .resume(&config, &DurableOptions::new(&killed, ROOT_SEED))
        .unwrap()
        .completed()
        .expect("killed from-theta run resumes");
    assert_same_outcome(&control, &resumed);
    let _ = fs::remove_dir_all(&dir);
}

mod online_atomicity {
    use super::*;
    use photon_zo::core::evaluate_chip;
    use photon_zo::exec::ExecPool;
    use photon_zo::farm::{run_online, OnlineOptions, OnlineOutcome, ONLINE_WAL};
    use photon_zo::faults::{DriftConfig, FaultyChip};
    use photon_zo::photonics::{ErrorVector, OnnChip};

    const ONLINE_SEED: u64 = 61;

    /// `tmp_dir` that also clears leftovers from a previously failed run —
    /// the online controller is idempotent-by-journal, so a stale journal
    /// would silently skip the cycles this test means to execute.
    fn fresh_tmp(tag: &str) -> PathBuf {
        let dir = tmp_dir(tag);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn options(cycles: usize) -> OnlineOptions {
        let mut shadow = TrainConfig::quick(4);
        shadow.epochs = 4;
        shadow.threads = Some(1);
        OnlineOptions::new(cycles, ONLINE_SEED, shadow)
            .with_canary(8, 0.05)
            .with_canary_batch(6)
    }

    /// Fresh drifting chip + deployment for one controller invocation, as
    /// a restarted process would rebuild them.
    fn invoke(dir: &Path, cycles: usize) -> OnlineOutcome {
        let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
        let chip = FaultyChip::new(
            task.chip,
            FaultPlan::new(19).with_drift(DriftConfig {
                sigma: 0.05,
                tau: 20.0,
            }),
        );
        let mut rng = StdRng::seed_from_u64(500);
        let deployed = chip.init_params(&mut rng);
        let (n_bs, n_ps) = chip.architecture().error_slots();
        run_online(
            &chip,
            &task.train,
            &task.test,
            task.head,
            &deployed,
            &ErrorVector::zeros(n_bs, n_ps),
            &options(cycles),
            dir,
        )
        .unwrap()
    }

    fn copy_dir(from: &Path, to: &Path) {
        fs::create_dir_all(to).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }

    /// The atomic promote/rollback guarantee: kill the controller at ANY
    /// byte of its write-ahead journal — including between a canary
    /// verdict's committed record and the re-pin that follows it — and the
    /// restarted controller deploys either the cycle's old theta or its
    /// new one (bitwise equal to the uninterrupted control's), never a
    /// torn mix, and then converges to the control's final state.
    #[test]
    fn online_promote_and_rollback_survive_kills_untorn() {
        let control_dir = fresh_tmp("online-control");
        let control = invoke(&control_dir, 2);
        assert_eq!(control.cycles.len(), 2);
        assert!(
            control.promotions >= 1,
            "scenario must exercise the promote path: {:?}",
            control
                .cycles
                .iter()
                .map(|c| (c.promoted, c.p_value))
                .collect::<Vec<_>>()
        );

        // Record boundaries, measured rather than assumed: header-only and
        // one-record journals from runs asked for 0 and 1 cycles.
        let len0_dir = fresh_tmp("online-len0");
        invoke(&len0_dir, 0);
        let len0 = fs::metadata(len0_dir.join(ONLINE_WAL)).unwrap().len();
        let len1_dir = fresh_tmp("online-len1");
        invoke(&len1_dir, 1);
        let len1 = fs::metadata(len1_dir.join(ONLINE_WAL)).unwrap().len();
        let len2 = fs::metadata(control_dir.join(ONLINE_WAL)).unwrap().len();
        assert!(len0 < len1 && len1 < len2);

        // (cut byte, intact records after replay)
        let cuts = [
            ((len0 + len1) / 2, 0usize), // killed mid-append of record 1
            (len1, 1),                   // killed between record 1 and re-pin
            ((len1 + len2) / 2, 1),      // killed mid-append of record 2
            (len2 - 1, 1),               // killed one byte short of commit 2
        ];
        for (i, &(cut, intact)) in cuts.iter().enumerate() {
            let dir = fresh_tmp(&format!("online-cut{i}"));
            let _ = fs::remove_dir_all(&dir);
            copy_dir(&control_dir, &dir);
            fs::OpenOptions::new()
                .write(true)
                .open(dir.join(ONLINE_WAL))
                .unwrap()
                .set_len(cut)
                .unwrap();

            // First restart, asked to do no further cycles: what does the
            // replayed journal say is deployed? Exactly the control's
            // committed deployment at that cycle — old theta if the cycle
            // rolled back, new if it promoted, never a mix of the two.
            let replayed = invoke(&dir, intact);
            assert_eq!(replayed.cycles.len(), intact, "cut {i}");
            let expected = if intact == 0 {
                let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
                let chip = FaultyChip::new(task.chip, FaultPlan::new(19));
                let mut rng = StdRng::seed_from_u64(500);
                chip.init_params(&mut rng)
            } else {
                control.cycles[intact - 1].theta.clone()
            };
            assert_eq!(
                bits(&replayed.deployed),
                bits(&expected),
                "cut {i}: deployment must be the committed record's theta"
            );

            // Second restart finishes the remaining cycles and must land
            // bitwise on the uninterrupted control — journal bytes and all.
            let finished = invoke(&dir, 2);
            assert_eq!(
                bits(&finished.deployed),
                bits(&control.deployed),
                "cut {i}: resumed run diverged from control"
            );
            assert_eq!(
                fs::read(dir.join(ONLINE_WAL)).unwrap(),
                fs::read(control_dir.join(ONLINE_WAL)).unwrap(),
                "cut {i}: journals must converge byte-identically"
            );
            assert_eq!(
                finished.final_eval.accuracy.to_bits(),
                control.final_eval.accuracy.to_bits(),
                "cut {i}"
            );
            let _ = fs::remove_dir_all(&dir);
        }

        // Sanity: the no-recal deployment really is worse than what the
        // promoted loop ends at (the whole point of recalibrating live).
        let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
        let chip = FaultyChip::new(
            task.chip,
            FaultPlan::new(19).with_drift(DriftConfig {
                sigma: 0.05,
                tau: 20.0,
            }),
        );
        let mut rng = StdRng::seed_from_u64(500);
        let stale = chip.init_params(&mut rng);
        let final_step = control.cycles.last().unwrap().next_step;
        chip.advance_to(final_step);
        let pool = ExecPool::with_threads(Some(1));
        let stale_eval = evaluate_chip(&chip, &task.test, &task.head, &stale, &pool);
        assert!(
            control.final_eval.loss < stale_eval.loss,
            "online loop must beat the stale deployment: {} vs {}",
            control.final_eval.loss,
            stale_eval.loss
        );

        for d in [control_dir, len0_dir, len1_dir] {
            let _ = fs::remove_dir_all(&d);
        }
    }
}
