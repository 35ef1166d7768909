//! End-to-end tests of in-situ continual recalibration under live
//! traffic: a deployed theta on a drifting chip is probed, shadow
//! fine-tuned against the freshly calibrated model, canaried, and
//! atomically promoted — recovering accuracy close to a
//! freshly-calibrated offline control, bitwise-replayably across pool
//! sizes and controller restarts, while the serving simulator keeps the
//! probe traffic's p99 cost bounded.

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::core::{build_task, evaluate_chip, Method, ModelChoice, TaskSpec, TrainConfig};
use photon_zo::data::Dataset;
use photon_zo::exec::ExecPool;
use photon_zo::farm::{run_online, OnlineOptions, OnlineOutcome, ONLINE_WAL};
use photon_zo::faults::{DriftConfig, FaultPlan, FaultyChip};
use photon_zo::linalg::RVector;
use photon_zo::photonics::{ErrorVector, FabricatedChip, OnnChip};

const TASK_SEED: u64 = 17;
const THETA_SEED: u64 = 18;
const ROOT_SEED: u64 = 19;

fn drift_plan() -> FaultPlan {
    FaultPlan::new(41).with_drift(DriftConfig {
        sigma: 0.05,
        tau: 20.0,
    })
}

struct Scenario {
    chip: FaultyChip<FabricatedChip>,
    train: Dataset,
    test: Dataset,
    head: photon_zo::core::ClassificationHead,
}

/// A fresh drifting chip — fresh per run so the fault schedule replays.
fn fresh_chip() -> Scenario {
    let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    Scenario {
        chip: FaultyChip::new(task.chip, drift_plan()),
        train: task.train,
        test: task.test,
        head: task.head,
    }
}

/// The deployment story: theta was trained offline on the just-fabricated
/// (not yet drifted) chip, then pinned and left serving while the chip
/// drifts away underneath it.
fn deployed_theta() -> RVector {
    let task = build_task(&TaskSpec::quick(4), TASK_SEED).unwrap();
    let trainer = photon_zo::core::Trainer::new(&task.chip, &task.train, &task.test, task.head)
        .with_calibrated_model(task.chip.oracle_network());
    let mut config = TrainConfig::quick(4);
    config.epochs = 6;
    config.threads = Some(1);
    let mut rng = StdRng::seed_from_u64(THETA_SEED);
    trainer
        .train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        )
        .unwrap()
        .theta
}

fn options(cycles: usize, threads: Option<usize>) -> OnlineOptions {
    let mut shadow = TrainConfig::quick(4);
    shadow.epochs = 5;
    shadow.threads = threads;
    OnlineOptions::new(cycles, ROOT_SEED, shadow)
        .with_canary(8, 0.05)
        .with_canary_batch(5)
}

fn run_loop(dir: &std::path::Path, cycles: usize, threads: Option<usize>) -> OnlineOutcome {
    let sc = fresh_chip();
    let deployed = deployed_theta();
    let (n_bs, n_ps) = sc.chip.architecture().error_slots();
    run_online(
        &sc.chip,
        &sc.train,
        &sc.test,
        sc.head,
        &deployed,
        &ErrorVector::zeros(n_bs, n_ps),
        &options(cycles, threads),
        dir,
    )
    .unwrap()
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("photon-online-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn theta_bits(v: &RVector) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn online_recalibration_recovers_accuracy_and_promotes() {
    let dir = tmp_dir("recover");
    let outcome = run_loop(&dir, 2, Some(1));
    assert!(
        outcome.promotions >= 1,
        "the fine-tuned shadow must win at least one canary: {:?}",
        outcome
            .cycles
            .iter()
            .map(|c| (c.promoted, c.p_value, c.baseline_loss, c.shadow_loss))
            .collect::<Vec<_>>()
    );
    let final_step = outcome.cycles.last().unwrap().next_step;

    // No-recal baseline: the original deployment left to drift to the same
    // final step. The online loop must not do worse, and with a promotion
    // in hand it should do strictly better on loss.
    let sc = fresh_chip();
    let stale = deployed_theta();
    sc.chip.advance_to(final_step);
    sc.chip.pin_compile_base(&stale);
    let pool = ExecPool::with_threads(Some(1));
    let baseline = evaluate_chip(&sc.chip, &sc.test, &sc.head, &stale, &pool);
    assert!(
        outcome.final_eval.accuracy >= baseline.accuracy,
        "online {} vs stale baseline {}",
        outcome.final_eval.accuracy,
        baseline.accuracy
    );
    assert!(
        outcome.final_eval.loss < baseline.loss,
        "online loss {} must beat stale loss {}",
        outcome.final_eval.loss,
        baseline.loss
    );

    // Freshly-calibrated offline control: calibrate a fresh instance of
    // the same drifting chip, then train offline from scratch with the
    // same total epoch budget. Online must land within 2% accuracy.
    let sc = fresh_chip();
    let (n_bs, n_ps) = sc.chip.architecture().error_slots();
    let mut crng = StdRng::seed_from_u64(901);
    let cal = photon_zo::calib::recalibrate(
        &sc.chip,
        &ErrorVector::zeros(n_bs, n_ps),
        &photon_zo::calib::CalibrationSettings::default(),
        &mut crng,
    )
    .unwrap();
    let mut config = TrainConfig::quick(4);
    config.epochs = 10; // same budget as 2 cycles x 5 shadow epochs
    config.threads = Some(1);
    let trainer = photon_zo::core::Trainer::new(&sc.chip, &sc.train, &sc.test, sc.head)
        .with_calibrated_model(cal.model);
    let mut rng = StdRng::seed_from_u64(ROOT_SEED);
    let control = trainer
        .train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        )
        .unwrap();
    assert!(
        outcome.final_eval.accuracy >= control.final_eval.accuracy - 0.02,
        "online {} must be within 2% of offline control {}",
        outcome.final_eval.accuracy,
        control.final_eval.accuracy
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn online_loop_replays_bitwise_across_pool_sizes() {
    let dir1 = tmp_dir("threads1");
    let dir3 = tmp_dir("threads3");
    let a = run_loop(&dir1, 2, Some(1));
    let b = run_loop(&dir3, 2, Some(3));
    assert_eq!(
        theta_bits(&a.deployed),
        theta_bits(&b.deployed),
        "deployed theta must not depend on pool size"
    );
    assert_eq!(a.promotions, b.promotions);
    for (ca, cb) in a.cycles.iter().zip(&b.cycles) {
        assert_eq!(ca.p_value.to_bits(), cb.p_value.to_bits());
        assert_eq!(ca.shadow_loss.to_bits(), cb.shadow_loss.to_bits());
    }
    let wal1 = std::fs::read(dir1.join(ONLINE_WAL)).unwrap();
    let wal3 = std::fs::read(dir3.join(ONLINE_WAL)).unwrap();
    assert_eq!(wal1, wal3, "write-ahead journals must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir3);
}

#[test]
fn online_loop_is_idempotent_across_restarts() {
    // One uninterrupted two-cycle run...
    let full_dir = tmp_dir("idem-full");
    let full = run_loop(&full_dir, 2, Some(1));
    // ...must equal a run stopped after cycle 1 and restarted (fresh
    // process, fresh chip handle) asking for two cycles.
    let split_dir = tmp_dir("idem-split");
    let first = run_loop(&split_dir, 1, Some(1));
    assert_eq!(first.cycles.len(), 1);
    let resumed = run_loop(&split_dir, 2, Some(1));
    assert_eq!(resumed.cycles.len(), 2);
    assert_eq!(
        theta_bits(&full.deployed),
        theta_bits(&resumed.deployed),
        "restart must not change the deployment"
    );
    assert_eq!(
        std::fs::read(full_dir.join(ONLINE_WAL)).unwrap(),
        std::fs::read(split_dir.join(ONLINE_WAL)).unwrap(),
        "journals must be byte-identical after the restart"
    );
    assert_eq!(
        full.final_eval.accuracy.to_bits(),
        resumed.final_eval.accuracy.to_bits()
    );
    // A third invocation with nothing left to do replays everything and
    // changes nothing.
    let replayed = run_loop(&split_dir, 2, Some(1));
    assert_eq!(theta_bits(&replayed.deployed), theta_bits(&full.deployed));
    let _ = std::fs::remove_dir_all(&full_dir);
    let _ = std::fs::remove_dir_all(&split_dir);
}

#[test]
fn probe_piggybacking_keeps_p99_bounded_in_the_serving_sim() {
    use photon_zo::farm::CoalescePolicy;
    use photon_zo::sim::{run, ArrivalProcess, ProbeTraffic, SimConfig, TenantLoad};

    let base_cfg = || {
        SimConfig::new(5, 40_000_000) // 40 virtual ms
            .with_tenant(TenantLoad::new(
                "svc",
                ArrivalProcess::Poisson { rate_hz: 9_000.0 },
            ))
            .with_coalescer(CoalescePolicy::new(8, 150_000))
    };
    let quiet = run(&base_cfg());
    let probed = run(&base_cfg().with_probes(ProbeTraffic {
        start_ns: 1_000_000,
        total: 200,
        per_window: 4,
        window_ns: 500_000,
    }));
    assert_eq!(probed.probes, 200, "all probes must complete");
    let p99 = |r: &photon_zo::sim::ServingReport| r.tenants[0].p99_ns;
    assert!(
        p99(&probed) <= 1.5 * p99(&quiet),
        "probe traffic must keep p99 within 1.5x the probe-free baseline: {} vs {}",
        p99(&probed),
        p99(&quiet)
    );
}
