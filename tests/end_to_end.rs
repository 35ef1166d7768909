//! Workspace integration tests: the full pipeline from fabrication through
//! calibration to black-box training, crossing every crate boundary.

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::calib::{calibrate, evaluate_model, CalibrationSettings, LmSettings};
use photon_zo::core::{
    build_task, evaluate_chip, mann_whitney_u, Method, ModelChoice, TaskKind, TaskSpec,
    TrainConfig, Trainer,
};
use photon_zo::photonics::ideal_model;
use photon_zo::prelude::*;

fn quick_config(k: usize, epochs: usize) -> TrainConfig {
    let mut c = TrainConfig::quick(k);
    c.epochs = epochs;
    c
}

#[test]
fn all_black_box_methods_run_end_to_end() {
    let spec = TaskSpec::quick(4);
    let task = build_task(&spec, 100).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head)
        .with_calibrated_model(task.chip.oracle_network());
    let config = quick_config(4, 2);
    for method in [
        Method::ZoGaussian,
        Method::ZoCoordinate,
        Method::ZoLc,
        Method::ZoNg {
            model: ModelChoice::Ideal,
        },
        Method::ZoShaped {
            model: ModelChoice::Ideal,
        },
        Method::Lcng {
            model: ModelChoice::Calibrated,
        },
        Method::Cma { sigma0: 0.3 },
        Method::BpIdeal,
        Method::BpCalibrated,
        Method::BpOracle,
    ] {
        let mut rng = StdRng::seed_from_u64(200);
        let out = trainer
            .train(method, &config, &mut rng)
            .unwrap_or_else(|e| panic!("{} failed: {e}", method.label()));
        assert!(
            out.final_eval.accuracy.is_finite() && out.final_eval.loss.is_finite(),
            "{} produced non-finite metrics",
            method.label()
        );
        assert_eq!(out.history.len(), 2);
    }
}

#[test]
fn zo_training_improves_over_warm_start_on_chip() {
    let spec = TaskSpec {
        train_size: 160,
        test_size: 80,
        ..TaskSpec::quick(4)
    };
    let task = build_task(&spec, 300).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let config = quick_config(4, 10);
    let mut rng = StdRng::seed_from_u64(301);

    // Evaluate right after warm start (theta from stage 1 only).
    let theta0 = trainer.warm_start(&config, &mut rng);
    let before = evaluate_chip(
        &task.chip,
        &task.test,
        trainer.head(),
        &theta0,
        &ExecPool::from_env(),
    );

    // Stage 2 with vanilla ZO from the same warm start.
    let mut theta = theta0;
    let out = trainer
        .finetune(Method::ZoGaussian, &config, &mut theta, &mut rng)
        .unwrap();
    assert!(
        out.final_eval.loss < before.loss,
        "ZO fine-tune should reduce chip loss: {} !< {}",
        out.final_eval.loss,
        before.loss
    );
}

#[test]
fn calibrated_model_is_closer_to_chip_than_ideal() {
    let spec = TaskSpec {
        beta: 3.0,
        ..TaskSpec::quick(4)
    };
    let task = build_task(&spec, 400).unwrap();
    let mut rng = StdRng::seed_from_u64(401);
    let settings = CalibrationSettings {
        random_inputs: 8,
        num_settings: 3,
        lm: LmSettings { max_iters: 10 },
        ..CalibrationSettings::default()
    };
    let outcome = calibrate(&task.chip, &settings, &mut rng).unwrap();
    let fid_cal = evaluate_model(&task.chip, &outcome.model, 12, 3, &mut rng);
    let ideal = ideal_model(task.chip.architecture());
    let fid_ideal = evaluate_model(&task.chip, &ideal, 12, 3, &mut rng);
    assert!(
        fid_cal.power > fid_ideal.power,
        "calibration should help: {} !> {}",
        fid_cal.power,
        fid_ideal.power
    );
}

#[test]
fn query_accounting_is_consistent_across_stack() {
    let spec = TaskSpec::quick(4);
    let task = build_task(&spec, 500).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let config = quick_config(4, 2);
    let mut rng = StdRng::seed_from_u64(501);

    let before_total = task.chip.query_count();
    let out = trainer
        .train(Method::ZoGaussian, &config, &mut rng)
        .unwrap();
    let after_total = task.chip.query_count();

    // Training queries + final evaluation sweep = total new queries.
    let eval_cost = task.test.len() as u64;
    assert_eq!(
        after_total - before_total,
        out.training_queries + eval_cost,
        "query bookkeeping must balance"
    );
    // Each ZO iteration costs (1 + Q)·B queries.
    let batches_per_epoch = task.train.len().div_ceil(config.batch_size) as u64;
    let per_iter = (1 + config.q as u64) * config.batch_size as u64;
    // Last batch may be short, so bound rather than equate.
    assert!(out.training_queries <= per_iter * batches_per_epoch * config.epochs as u64);
    assert!(out.training_queries >= per_iter * (batches_per_epoch - 1).max(1));
}

#[test]
fn lcng_beats_vanilla_zo_at_equal_query_budget_on_average() {
    // The headline claim, at miniature scale: over several seeds, final
    // training loss of LCNG (oracle metric) is stochastically lower than
    // vanilla ZO with the same Q, B and epochs.
    let spec = TaskSpec {
        train_size: 120,
        test_size: 60,
        ..TaskSpec::quick(4)
    };
    let config = quick_config(4, 8);
    let mut lcng_losses = Vec::new();
    let mut zo_losses = Vec::new();
    for seed in 0..5u64 {
        let task = build_task(&spec, 600 + seed).unwrap();
        let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
        let mut rng_a = StdRng::seed_from_u64(700 + seed);
        let lcng = trainer
            .train(
                Method::Lcng {
                    model: ModelChoice::OracleTrue,
                },
                &config,
                &mut rng_a,
            )
            .unwrap();
        let mut rng_b = StdRng::seed_from_u64(700 + seed);
        let zo = trainer
            .train(Method::ZoGaussian, &config, &mut rng_b)
            .unwrap();
        lcng_losses.push(lcng.final_eval.loss);
        zo_losses.push(zo.final_eval.loss);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&lcng_losses) < mean(&zo_losses),
        "LCNG {:?} should beat ZO {:?} on average",
        lcng_losses,
        zo_losses
    );
}

#[test]
fn statistics_integrate_with_training_outcomes() {
    // Use the U test machinery on two artificial result sets shaped like
    // the table pipeline produces.
    let a = [0.80, 0.81, 0.79, 0.82, 0.80, 0.81, 0.83, 0.80];
    let b = [0.70, 0.71, 0.69, 0.72, 0.70, 0.71, 0.73, 0.70];
    let t = mann_whitney_u(&a, &b);
    assert_eq!(t.annotation(), "***");
}

#[test]
fn image_pipeline_end_to_end_smoke() {
    let spec = TaskSpec {
        train_size: 60,
        test_size: 30,
        ..TaskSpec::image(TaskKind::FashionLike, 12)
    };
    let task = build_task(&spec, 800).unwrap();
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head);
    let mut config = quick_config(12, 2);
    config.batch_size = 20;
    let mut rng = StdRng::seed_from_u64(801);
    let out = trainer
        .train(Method::ZoGaussian, &config, &mut rng)
        .unwrap();
    assert!(out.final_eval.accuracy >= 0.0 && out.final_eval.accuracy <= 1.0);
    // 10-class readout on a 12-port chip.
    assert_eq!(task.train.num_classes(), 10);
}

#[test]
fn prelude_exposes_the_public_surface() {
    // Compile-time check that the facade re-exports fit together.
    let mut rng = StdRng::seed_from_u64(900);
    let arch = Architecture::single_mesh(4, 2).unwrap();
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let theta = chip.init_params(&mut rng);
    let x = CVector::basis(4, 0);
    let y = chip.forward(&x, &theta);
    assert_eq!(y.len(), 4);
    let mut adam = Adam::new(0.1);
    let mut t = RVector::zeros(3);
    adam.step(&mut t, &RVector::from_slice(&[1.0, 2.0, 3.0]));
    assert!(t[0] < 0.0);
    let _ = C64::I;
}
