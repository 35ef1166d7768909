//! Behavioural integration tests of the method grid: determinism,
//! method-specific mechanics and cross-method sanity orderings that must
//! hold even at miniature scale.

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::core::{build_task, Method, ModelChoice, TaskSpec, TrainConfig, Trainer};
use photon_zo::trace::{TraceEvent, TraceHandle};

fn quick(epochs: usize) -> TrainConfig {
    let mut c = TrainConfig::quick(4);
    c.epochs = epochs;
    c
}

#[test]
fn training_is_fully_deterministic_per_seed() {
    let spec = TaskSpec::quick(4);
    let config = quick(4);
    let run = |seed: u64| {
        let task = build_task(&spec, 77).unwrap();
        let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head)
            .with_calibrated_model(task.chip.oracle_network());
        let mut rng = StdRng::seed_from_u64(seed);
        trainer
            .train(
                Method::Lcng {
                    model: ModelChoice::Calibrated,
                },
                &config,
                &mut rng,
            )
            .unwrap()
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.theta, b.theta, "same seed must give identical parameters");
    let c = run(6);
    assert_ne!(a.theta, c.theta, "different seeds must explore differently");
}

#[test]
fn shaped_probes_train_and_respect_structure() {
    // ZO-Σ must run end-to-end and actually perturb layered and
    // non-layered blocks with different statistics (implicitly: it trains).
    let spec = TaskSpec {
        train_size: 120,
        test_size: 60,
        ..TaskSpec::quick(4)
    };
    let task = build_task(&spec, 88).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let mut rng = StdRng::seed_from_u64(89);
    let out = trainer
        .train(
            Method::ZoShaped {
                model: ModelChoice::Ideal,
            },
            &quick(6),
            &mut rng,
        )
        .unwrap();
    assert!(
        out.final_eval.accuracy > 0.3,
        "acc {}",
        out.final_eval.accuracy
    );
    assert_eq!(out.method, "ZO-S(ideal)");
}

#[test]
fn coordinate_zo_touches_every_coordinate_over_an_epoch_cycle() {
    // With Q probes per iteration and offset cycling, N/Q iterations cover
    // all coordinates; verify via parameter movement: after enough
    // iterations every coordinate should have moved from warm start.
    let spec = TaskSpec {
        train_size: 64,
        test_size: 32,
        ..TaskSpec::quick(4)
    };
    let task = build_task(&spec, 99).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let mut config = quick(6);
    config.batch_size = 16;
    let mut rng = StdRng::seed_from_u64(100);
    let theta0 = trainer.warm_start(&config, &mut rng);
    let mut theta = theta0.clone();
    let _ = trainer
        .finetune(Method::ZoCoordinate, &config, &mut theta, &mut rng)
        .unwrap();
    let moved: Vec<usize> = (0..theta.len())
        .filter(|&i| (theta[i] - theta0[i]).abs() > 1e-12)
        .collect();
    // Every *power-observable* coordinate must have been touched by the
    // offset cycling. The trailing PSdiag(4) only shifts output phases,
    // which photodetectors cannot see: its analytic quotients are zero and
    // any movement there is floating-point dust amplified by Adam's scale
    // invariance — so we assert nothing about those four coordinates.
    let n = theta.len();
    for i in 0..n - 4 {
        assert!(
            moved.contains(&i),
            "coordinate cycling must touch parameter {i}"
        );
    }
}

#[test]
fn cma_ignores_adam_lr_but_uses_sigma() {
    // Same seeds, different σ₀ must give different outcomes; different lr
    // must not (CMA has no lr).
    let spec = TaskSpec::quick(4);
    let run = |sigma0: f64, lr: f64| {
        let task = build_task(&spec, 111).unwrap();
        let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
        let mut config = quick(2);
        config.lr = lr;
        let mut rng = StdRng::seed_from_u64(7);
        trainer
            .train(Method::Cma { sigma0 }, &config, &mut rng)
            .unwrap()
            .theta
    };
    let base = run(0.3, 0.02);
    let different_sigma = run(0.6, 0.02);
    assert_ne!(base, different_sigma);
    let different_lr = run(0.3, 0.2);
    assert_eq!(base, different_lr);
}

#[test]
fn lcng_metric_source_changes_trajectory() {
    let spec = TaskSpec::quick(4);
    let run = |model: ModelChoice| {
        let task = build_task(&spec, 123).unwrap();
        let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head)
            .with_calibrated_model(task.chip.oracle_network());
        let mut rng = StdRng::seed_from_u64(8);
        trainer
            .train(Method::Lcng { model }, &quick(3), &mut rng)
            .unwrap()
            .theta
    };
    let ideal = run(ModelChoice::Ideal);
    let oracle = run(ModelChoice::OracleTrue);
    // Different Fisher models reshape the Gram and hence the steps.
    assert_ne!(ideal, oracle);
}

#[test]
fn histories_are_complete_and_monotone_in_queries() {
    let spec = TaskSpec::quick(4);
    let task = build_task(&spec, 130).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let mut rng = StdRng::seed_from_u64(9);
    let (trace, sink) = TraceHandle::memory(0);
    let config = TrainConfig { trace, ..quick(5) };
    let out = trainer
        .train(Method::ZoGaussian, &config, &mut rng)
        .unwrap();
    assert_eq!(out.history.len(), 5);
    // Wall time lives in the trace, one span per epoch, never in a record.
    let wall_secs: Vec<f64> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::EpochSpan { wall_secs, .. } => Some(wall_secs),
            _ => None,
        })
        .collect();
    assert_eq!(wall_secs.len(), out.history.len());
    for (i, rec) in out.history.iter().enumerate() {
        assert_eq!(rec.epoch, i + 1);
        assert!(rec.train_loss.is_finite());
        assert!(wall_secs[i] >= 0.0);
        if i > 0 {
            assert!(rec.training_queries >= out.history[i - 1].training_queries);
            assert!(wall_secs[i] >= wall_secs[i - 1]);
        }
    }
    assert_eq!(
        out.training_queries,
        out.history.last().unwrap().training_queries
    );
}
