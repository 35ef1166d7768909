//! Fault-injection integration tests: the seeded fault layer (`photon-faults`)
//! driving the self-healing trainer end to end — retry, outlier rejection,
//! divergence rollback and auto-recalibration — with bitwise reproducibility
//! across worker-pool sizes.

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::calib::{calibrate, CalibError, CalibrationSettings};
use photon_zo::core::{
    build_task, chip_batch_loss, recovery_report, Method, ModelChoice, RecoveryEvent,
    RecoveryPolicy, TaskSpec, TrainConfig, TrainOutcome, Trainer,
};
use photon_zo::exec::ExecPool;
use photon_zo::faults::{DriftConfig, FaultPlan, FaultyChip, StuckShifter, TransientConfig};
use photon_zo::photonics::OnnChip;

/// The acceptance-scenario fault schedule: slow thermal drift, occasional
/// dropped reads and outlier spikes, plus one dead phase shifter.
fn healing_plan() -> FaultPlan {
    FaultPlan::new(42)
        .with_drift(DriftConfig {
            sigma: 0.04,
            tau: 20.0,
        })
        .with_transients(TransientConfig {
            drop_prob: 0.004,
            spike_prob: 0.01,
            spike_scale: 1e4,
            burst_prob: 0.0,
            burst_sigma: 0.0,
        })
        .with_stuck(StuckShifter {
            index: 3,
            value: 0.4,
        })
}

fn healing_policy() -> RecoveryPolicy {
    let mut rp = RecoveryPolicy::standard();
    rp.spike_factor = 2.5;
    rp
}

/// One full self-healing LCNG run on a freshly built faulty chip. A fresh
/// chip per call keeps the fault schedule (attempt counters, drift state,
/// query counts) independent across runs, which the bitwise-replay test
/// relies on.
fn run_healing(threads: Option<usize>) -> TrainOutcome {
    let task = build_task(&TaskSpec::quick(4), 81).unwrap();
    // The pre-fault truth stands in for an initial calibration; drift and
    // the dead shifter degrade it over the run, which is what the fidelity
    // monitor is there to catch.
    let model = task.chip.oracle_network();
    let faulty = FaultyChip::new(task.chip, healing_plan());
    let trainer =
        Trainer::new(&faulty, &task.train, &task.test, task.head).with_calibrated_model(model);
    let mut config = TrainConfig::quick(4);
    config.epochs = 6;
    config.threads = threads;
    config.recovery = healing_policy();
    let mut rng = StdRng::seed_from_u64(82);
    trainer
        .train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        )
        .unwrap()
}

/// The same task and method on the bare, fault-free chip — the reference
/// accuracy the self-healing run must stay close to.
fn run_clean() -> TrainOutcome {
    let task = build_task(&TaskSpec::quick(4), 81).unwrap();
    let model = task.chip.oracle_network();
    let trainer =
        Trainer::new(&task.chip, &task.train, &task.test, task.head).with_calibrated_model(model);
    let mut config = TrainConfig::quick(4);
    config.epochs = 6;
    config.threads = Some(1);
    let mut rng = StdRng::seed_from_u64(82);
    trainer
        .train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        )
        .unwrap()
}

#[test]
fn faulty_measurements_are_bitwise_stable_across_pool_sizes() {
    // Identical fault schedules must produce bit-identical batch losses no
    // matter how many workers fan the per-sample reads out.
    let run = |threads: Option<usize>| -> Vec<u64> {
        let task = build_task(&TaskSpec::quick(4), 51).unwrap();
        let faulty = FaultyChip::new(task.chip, healing_plan());
        let mut rng = StdRng::seed_from_u64(52);
        let theta = faulty.init_params(&mut rng);
        let pool = ExecPool::with_threads(threads);
        let idx: Vec<usize> = (0..task.train.len()).collect();
        let mut bits = Vec::new();
        for step in 1..=5u64 {
            faulty.advance_to(step);
            let l = chip_batch_loss(&faulty, &task.train, &idx, &task.head, &theta, &pool);
            bits.push(l.to_bits());
        }
        bits
    };
    let serial = run(Some(1));
    assert_eq!(serial, run(Some(4)));
    assert_eq!(serial, run(Some(3)));
}

#[test]
fn rollback_on_spike_recovers() {
    // An aggressive spike schedule must trip the divergence guard: at least
    // one rollback, a backed-off learning rate, and no non-finite state.
    let task = build_task(&TaskSpec::quick(4), 61).unwrap();
    let faulty = FaultyChip::new(
        task.chip,
        FaultPlan::new(62).with_transients(TransientConfig {
            spike_prob: 0.02,
            spike_scale: 1e4,
            ..TransientConfig::default()
        }),
    );
    let trainer = Trainer::new(&faulty, &task.train, &task.test, task.head);
    let mut config = TrainConfig::quick(4);
    config.epochs = 6;
    config.threads = Some(1);
    config.recovery = healing_policy();
    let mut rng = StdRng::seed_from_u64(63);
    let out = trainer
        .train(Method::ZoGaussian, &config, &mut rng)
        .unwrap();
    eprintln!("{}", recovery_report(&out));
    assert!(
        out.recovery.rollbacks >= 1,
        "spikes should trigger a rollback: {:?}",
        out.recovery
    );
    assert!(out.theta.iter().all(|v| v.is_finite()));
    assert!(out.history.iter().all(|h| h.train_loss.is_finite()));
    // Per-epoch stats sum to the aggregate.
    let epoch_rollbacks: u64 = out.history.iter().map(|h| h.recovery.rollbacks).sum();
    assert_eq!(epoch_rollbacks, out.recovery.rollbacks);
}

#[test]
fn fidelity_monitor_triggers_recalibration() {
    // Strong drift plus a dead shifter degrade the attached model's power
    // fidelity; the monitor must notice and recalibrate in place.
    let task = build_task(&TaskSpec::quick(4), 71).unwrap();
    let model = task.chip.oracle_network();
    let faulty = FaultyChip::new(
        task.chip,
        FaultPlan::new(72)
            .with_drift(DriftConfig {
                sigma: 0.08,
                tau: 10.0,
            })
            .with_stuck(StuckShifter {
                index: 3,
                value: 0.7,
            }),
    );
    let trainer =
        Trainer::new(&faulty, &task.train, &task.test, task.head).with_calibrated_model(model);
    let mut config = TrainConfig::quick(4);
    config.epochs = 3;
    config.threads = Some(1);
    config.recovery = RecoveryPolicy::standard();
    let mut rng = StdRng::seed_from_u64(73);
    let out = trainer
        .train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        )
        .unwrap();
    eprintln!("{}", recovery_report(&out));
    assert!(
        out.recovery.recalibrations >= 1,
        "drift should trigger recalibration: {:?}",
        out.recovery
    );
    for event in &out.recovery_events {
        if let RecoveryEvent::Recalibration {
            fidelity_before,
            fidelity_after,
            queries,
            ..
        } = event
        {
            assert!(fidelity_before.is_finite() && fidelity_after.is_finite());
            assert!(*queries > 0, "recalibration must consume chip queries");
        }
    }
}

#[test]
fn self_healing_training_completes_and_reports() {
    // The acceptance scenario: drift + outliers + one dead shifter. The run
    // must finish with finite parameters, perform at least one rollback and
    // one auto-recalibration, report both, and land within 0.3 accuracy of
    // the fault-free reference run.
    let out = run_healing(Some(1));
    let report = recovery_report(&out);
    eprintln!("{report}");
    assert!(
        out.theta.iter().all(|v| v.is_finite()),
        "theta went non-finite"
    );
    assert!(out.history.iter().all(|h| h.train_loss.is_finite()));
    assert!(
        out.recovery.rollbacks >= 1,
        "expected at least one rollback: {:?}",
        out.recovery
    );
    assert!(
        out.recovery.recalibrations >= 1,
        "expected at least one recalibration: {:?}",
        out.recovery
    );
    assert!(!out.recovery_events.is_empty());
    assert!(report.contains("rollback"));
    assert!(report.contains("recalibrate"));

    let clean = run_clean();
    assert!(
        out.final_eval.accuracy >= clean.final_eval.accuracy - 0.3,
        "self-healed accuracy {} too far below fault-free {}",
        out.final_eval.accuracy,
        clean.final_eval.accuracy
    );
}

#[test]
fn self_healing_replays_bitwise_across_pool_sizes() {
    // The identical fault schedule and seeds must reproduce the entire
    // training trajectory — parameters, losses and recovery events — no
    // matter the worker-pool size.
    let a = run_healing(Some(1));
    let b = run_healing(Some(4));
    let bits = |o: &TrainOutcome| -> Vec<u64> { o.theta.iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&a), bits(&b), "theta diverged across pool sizes");
    assert_eq!(a.recovery, b.recovery);
    assert_eq!(a.recovery_events, b.recovery_events);
    assert_eq!(
        a.final_eval.accuracy.to_bits(),
        b.final_eval.accuracy.to_bits()
    );
    let losses = |o: &TrainOutcome| -> Vec<u64> {
        o.history.iter().map(|h| h.train_loss.to_bits()).collect()
    };
    assert_eq!(losses(&a), losses(&b));
    assert_eq!(a.training_queries, b.training_queries);
}

/// A chip whose reads drop to NaN so often that whole probe batches come
/// back non-finite. With recovery disabled nothing sanitizes the losses,
/// so they flow straight into CMA-ES ranking — which must order NaNs
/// deterministically (total order) instead of panicking.
#[test]
fn nan_probe_batches_survive_cmaes_ranking() {
    let task = build_task(&TaskSpec::quick(4), 91).unwrap();
    let plan = FaultPlan::new(92).with_transients(TransientConfig {
        drop_prob: 0.35,
        ..TransientConfig::default()
    });
    let faulty = FaultyChip::new(task.chip, plan);
    let trainer = Trainer::new(&faulty, &task.train, &task.test, task.head);
    let mut config = TrainConfig::quick(4);
    config.epochs = 2;
    config.recovery = RecoveryPolicy::disabled();
    let mut rng = StdRng::seed_from_u64(93);
    let out = trainer
        .train(Method::Cma { sigma0: 0.1 }, &config, &mut rng)
        .unwrap();
    assert_eq!(out.history.len(), 2, "run must complete every epoch");
    assert!(faulty.fault_counts().dropped > 0, "faults must have fired");
}

/// The same NaN-heavy chip through the robust recovery ladder: retries,
/// probe penalization and the rollback guard must carry an LCNG run to
/// completion without a panic.
#[test]
fn nan_probe_batches_survive_robust_ladder() {
    let task = build_task(&TaskSpec::quick(4), 94).unwrap();
    let model = task.chip.oracle_network();
    let plan = FaultPlan::new(95).with_transients(TransientConfig {
        drop_prob: 0.25,
        ..TransientConfig::default()
    });
    let faulty = FaultyChip::new(task.chip, plan);
    let trainer =
        Trainer::new(&faulty, &task.train, &task.test, task.head).with_calibrated_model(model);
    let mut config = TrainConfig::quick(4);
    config.epochs = 2;
    config.recovery = healing_policy();
    let mut rng = StdRng::seed_from_u64(96);
    let out = trainer
        .train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        )
        .unwrap();
    assert_eq!(out.history.len(), 2, "run must complete every epoch");
    let r = out.recovery;
    assert!(
        r.retries + r.rejected_probes + r.rollbacks > 0,
        "a 25% drop rate must exercise the recovery ladder"
    );
}

/// A chip whose every read drops to NaN.
fn all_dropped_plan() -> FaultPlan {
    FaultPlan::new(102).with_transients(TransientConfig {
        drop_prob: 1.0,
        ..TransientConfig::default()
    })
}

/// With every read dropped the calibration sweep holds nothing to fit.
/// The fit zeroes non-finite residuals, so without a check it would
/// return the ideal model at fit cost 0; it must be a typed error.
#[test]
fn calibrating_an_all_dropped_chip_is_a_typed_error() {
    let task = build_task(&TaskSpec::quick(4), 101).unwrap();
    let faulty = FaultyChip::new(task.chip, all_dropped_plan());
    let mut rng = StdRng::seed_from_u64(103);
    let settings = CalibrationSettings::with_query_budget(faulty.input_dim(), 64);
    match calibrate(&faulty, &settings, &mut rng) {
        Err(CalibError::NoFiniteReadings) => {}
        other => panic!("expected NoFiniteReadings, got {other:?}"),
    }
}

/// The fidelity monitor on a chip that drops every read: no probe reads
/// finite, so each sweep measures nothing. It must neither trigger a
/// recalibration nor let one replace the attached oracle-exact model.
#[test]
fn fidelity_monitor_adopts_nothing_from_an_all_dropped_chip() {
    let task = build_task(&TaskSpec::quick(4), 101).unwrap();
    let model = task.chip.oracle_network();
    let faulty = FaultyChip::new(task.chip, all_dropped_plan());
    let trainer =
        Trainer::new(&faulty, &task.train, &task.test, task.head).with_calibrated_model(model);
    let mut config = TrainConfig::quick(4);
    config.epochs = 2;
    config.threads = Some(1);
    config.recovery = RecoveryPolicy::standard();
    let mut rng = StdRng::seed_from_u64(104);
    let out = trainer
        .train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        )
        .unwrap();
    let adopted = out
        .recovery_events
        .iter()
        .filter(|e| matches!(e, RecoveryEvent::Recalibration { adopted: true, .. }))
        .count();
    assert_eq!(adopted, 0, "adopted: {:?}", out.recovery_events);
    assert_eq!(out.recovery.recalibrations, 0, "{:?}", out.recovery_events);
}
