//! Determinism guarantee of the parallel evaluation engine: for noise-free
//! chips, every pooled evaluation path — batch losses, ZO gradient estimates,
//! LCNG directions, backprop gradients, and full training runs — produces
//! bitwise-identical results regardless of worker-pool size.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::core::{
    build_task, chip_batch_loss, model_batch_loss_and_grad, Method, TaskKind, TaskSpec,
    TrainConfig, Trainer,
};
use photon_zo::exec::ExecPool;
use photon_zo::linalg::RVector;
use photon_zo::opt::{
    estimate_gradient, lcng_direction, LcngSettings, MetricSource, Perturbation, RobustEval,
    ZoSettings,
};

const POOLS: [usize; 3] = [2, 4, 8];

fn bits(v: &RVector) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn batch_loss_and_gradients_are_pool_size_invariant() {
    let task = build_task(&TaskSpec::quick(4), 41).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let theta = task.chip.init_params(&mut rng);
    let indices: Vec<usize> = (0..task.train.len()).collect();
    let serial = ExecPool::serial();

    let loss_serial = chip_batch_loss(
        &task.chip,
        &task.train,
        &indices,
        &task.head,
        &theta,
        &serial,
    );
    let model = task.chip.oracle_network();
    let (bp_loss, bp_grad) =
        model_batch_loss_and_grad(&model, &task.train, &indices, &task.head, &theta, &serial);

    for threads in POOLS {
        let pool = ExecPool::new(threads);
        let loss_pooled =
            chip_batch_loss(&task.chip, &task.train, &indices, &task.head, &theta, &pool);
        assert_eq!(
            loss_pooled.to_bits(),
            loss_serial.to_bits(),
            "chip batch loss diverged at {threads} threads"
        );
        let (lp, gp) =
            model_batch_loss_and_grad(&model, &task.train, &indices, &task.head, &theta, &pool);
        assert_eq!(lp.to_bits(), bp_loss.to_bits());
        assert_eq!(
            bits(&gp),
            bits(&bp_grad),
            "BP gradient diverged at {threads} threads"
        );
    }
}

#[test]
fn batched_compiled_paths_are_pool_size_invariant_across_blocks() {
    // 80 samples spans multiple fixed-size batch blocks, so this exercises
    // the block partition of the compiled GEMM paths, not just one panel.
    use photon_zo::core::{evaluate_chip, ClassificationHead};
    use photon_zo::data::GaussianClusters;
    use photon_zo::photonics::{Architecture, ErrorModel, FabricatedChip};

    let mut rng = StdRng::seed_from_u64(51);
    let arch = Architecture::single_mesh(4, 2).unwrap();
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let data = GaussianClusters::new(4, 4, 0.1)
        .generate(80, &mut rng)
        .unwrap();
    let head = ClassificationHead::new(4, 4, 10.0).unwrap();
    let theta = chip.init_params(&mut rng);
    let idx: Vec<usize> = (0..80).collect();

    let serial = ExecPool::serial();
    let loss_ref = chip_batch_loss(&chip, &data, &idx, &head, &theta, &serial);
    let ev_ref = evaluate_chip(&chip, &data, &head, &theta, &serial);

    for threads in [1usize, 3, 4] {
        let pool = ExecPool::new(threads);
        let loss = chip_batch_loss(&chip, &data, &idx, &head, &theta, &pool);
        assert_eq!(
            loss.to_bits(),
            loss_ref.to_bits(),
            "batched chip loss diverged at {threads} threads"
        );
        let ev = evaluate_chip(&chip, &data, &head, &theta, &pool);
        assert_eq!(
            ev.loss.to_bits(),
            ev_ref.loss.to_bits(),
            "batched evaluation loss diverged at {threads} threads"
        );
        assert_eq!(ev.accuracy, ev_ref.accuracy);
    }
    // Every pooled sweep above queried each sample exactly once.
    assert_eq!(chip.query_count(), 2 * 4 * 80);
}

#[test]
fn zo_estimates_and_lcng_directions_are_pool_size_invariant() {
    let task = build_task(&TaskSpec::quick(4), 43).unwrap();
    let mut rng = StdRng::seed_from_u64(44);
    let theta = task.chip.init_params(&mut rng);
    let indices: Vec<usize> = (0..task.train.len().min(8)).collect();
    let serial = ExecPool::serial();
    let loss =
        |t: &RVector| chip_batch_loss(&task.chip, &task.train, &indices, &task.head, t, &serial);
    let base = loss(&theta);
    let zo = ZoSettings {
        q: 12,
        mu: 1e-3,
        lambda: 1.0 / theta.len() as f64,
    };
    let model = task.chip.oracle_network();
    let fisher_inputs: Vec<_> = (0..2).map(|i| task.train.sample(i).0.clone()).collect();
    let metric = MetricSource::Model {
        model: &model,
        inputs: &fisher_inputs,
    };
    let settings = LcngSettings { zo, ridge: 1e-6 };
    let ladder = RobustEval::standard();

    for robust in [None, Some(&ladder)] {
        for pert in [
            Perturbation::Gaussian,
            Perturbation::Coordinate { offset: 5 },
        ] {
            let zo_at = |pool: &ExecPool| {
                let mut rng = StdRng::seed_from_u64(45);
                estimate_gradient(&loss, &theta, base, &zo, &pert, robust, pool, &mut rng)
            };
            let lcng_at = |pool: &ExecPool| {
                let mut rng = StdRng::seed_from_u64(46);
                lcng_direction(
                    &loss, &theta, base, &settings, &pert, &metric, robust, pool, &mut rng,
                )
                .unwrap()
            };
            let (est_ref, est_stats_ref) = zo_at(&serial);
            let (step_ref, step_stats_ref) = lcng_at(&serial);

            for threads in [1, 3].into_iter().chain(POOLS) {
                let pool = ExecPool::new(threads);
                let (est, est_stats) = zo_at(&pool);
                assert_eq!(
                    bits(&est.gradient),
                    bits(&est_ref.gradient),
                    "ZO gradient diverged at {threads} threads ({pert:?}, {robust:?})"
                );
                assert_eq!(est_stats, est_stats_ref);

                let (step, step_stats) = lcng_at(&pool);
                assert_eq!(
                    bits(&step.direction),
                    bits(&step_ref.direction),
                    "LCNG direction diverged at {threads} threads ({pert:?}, {robust:?})"
                );
                assert_eq!(step_stats, step_stats_ref);
            }
        }
    }
}

#[test]
fn robust_ladder_sweeps_the_plain_estimators_probe_points() {
    // θ holds negative zeros. Coordinate probes leave every unprobed
    // coordinate bitwise equal to θ, so a dense build (θ + μ·0.0 turns
    // −0.0 into +0.0) would ask the chip for different points than the
    // sparse one.
    let theta = RVector::from_slice(&[-0.0, 0.5, -0.0, -1.25, 0.0, -0.0]);
    let quadratic = |t: &RVector| -> f64 {
        t.iter()
            .enumerate()
            .map(|(i, v)| (i + 1) as f64 * v * v)
            .sum()
    };
    let zo = ZoSettings::for_dimension(theta.len(), 4);
    let pert = Perturbation::Coordinate { offset: 1 };
    let probe_points = |robust: Option<&RobustEval>| {
        let points = Mutex::new(Vec::new());
        let loss = |t: &RVector| {
            points.lock().unwrap().push(bits(t));
            quadratic(t)
        };
        let mut rng = StdRng::seed_from_u64(61);
        let base = quadratic(&theta);
        let serial = ExecPool::serial();
        estimate_gradient(&loss, &theta, base, &zo, &pert, robust, &serial, &mut rng);
        points.into_inner().unwrap()
    };

    let plain = probe_points(None);
    let ladder = probe_points(Some(&RobustEval::standard()));
    assert_eq!(plain.len(), zo.q);
    assert!(ladder.len() >= zo.q);
    assert_eq!(
        ladder[..zo.q],
        plain[..],
        "the ladder's first sweep must evaluate the plain estimator's points"
    );
}

#[test]
fn full_training_runs_are_pool_size_invariant() {
    // ZO-co on the two-mesh image task probes the activation and the
    // second mesh, whose batches the pin's stage-input memo serves: state
    // that the pooled probe workers share.
    let two_mesh = TaskSpec {
        train_size: 120,
        test_size: 60,
        ..TaskSpec::image(TaskKind::MnistLike, 10)
    };
    for (spec, method) in [
        (TaskSpec::quick(4), Method::ZoGaussian),
        (
            TaskSpec::quick(4),
            Method::Lcng {
                model: photon_zo::core::ModelChoice::Ideal,
            },
        ),
        (two_mesh, Method::ZoCoordinate),
    ] {
        let mut outcomes = Vec::new();
        for threads in [1usize, 4] {
            let task = build_task(&spec, 47).unwrap();
            let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
            let mut config = TrainConfig::quick(spec.k);
            config.epochs = 2;
            if method == Method::ZoCoordinate {
                // Two epochs of three 40-probe iterations sweep all 210
                // coordinates.
                config.warm_epochs = 2;
                config.batch_size = 40;
                config.q = 40;
            }
            config.threads = Some(threads);
            let mut rng = StdRng::seed_from_u64(48);
            outcomes.push(trainer.train(method, &config, &mut rng).unwrap());
        }
        let (serial, pooled) = (&outcomes[0], &outcomes[1]);
        assert_eq!(
            bits(&pooled.theta),
            bits(&serial.theta),
            "{method:?}: final parameters diverged between 1 and 4 threads"
        );
        for (a, b) in pooled.history.iter().zip(&serial.history) {
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
        }
        assert_eq!(
            pooled.final_eval.loss.to_bits(),
            serial.final_eval.loss.to_bits()
        );
        assert_eq!(pooled.final_eval.accuracy, serial.final_eval.accuracy);
    }
}
