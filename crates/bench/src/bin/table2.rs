//! **Table 2** — calibration quality versus probe budget, and its
//! downstream effect on ZO-LCNG accuracy.
//!
//! For each probe budget: chip queries spent, per-family parameter RMSE
//! against the oracle errors, held-out power/field fidelity of the
//! calibrated model, and the final accuracy of ZO-LCNG using that model as
//! its Fisher-metric source.
//!
//! ```text
//! cargo run -p photon-bench --release --bin table2 -- [--quick] [--seed N]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_bench::harness::BenchArgs;
use photon_calib::{calibrate, evaluate_model, CalibrationSettings, LmSettings};
use photon_core::{
    build_task, Method, ModelChoice, RunSummary, TaskKind, TaskSpec, TextTable, TrainConfig,
    Trainer,
};
use photon_photonics::ideal_model;

fn main() {
    let args = BenchArgs::parse();
    let runs = args.runs_or(2, 5);
    let k = args.pick(12, 16);
    let spec = TaskSpec {
        train_size: args.pick(200, 500),
        test_size: args.pick(100, 250),
        ..TaskSpec::image(TaskKind::MnistLike, k)
    };
    let mut config = TrainConfig::for_network(0, k);
    config.warm_epochs = args.pick(3, 10);
    config.epochs = args.pick(5, 30);
    config.batch_size = args.pick(25, 100);

    println!("Table 2: calibration quality vs probe budget (K={k}, {runs} runs)\n");
    let mut table = TextTable::new(&[
        "budget",
        "chip queries",
        "gamma RMSE",
        "phase RMSE",
        "power fid",
        "field fid",
        "LCNG accuracy",
    ]);

    // Budgets: none (ideal model), then growing probe plans.
    let budgets: &[(usize, usize)] = &[(0, 0), (2, 2), (8, 3), (24, 5)];
    for &(random_inputs, num_settings) in budgets {
        let mut g_rmse = Vec::new();
        let mut p_rmse = Vec::new();
        let mut pf = Vec::new();
        let mut ff = Vec::new();
        let mut acc = Vec::new();
        let mut queries = 0usize;
        for r in 0..runs {
            let seed = args.seed.wrapping_add(r as u64).wrapping_mul(0x1001);
            let task = build_task(&spec, seed).expect("task construction");
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7a51e);

            let (model, q) = if num_settings == 0 {
                (ideal_model(task.chip.architecture()), 0)
            } else {
                let settings = CalibrationSettings {
                    include_basis: true,
                    random_inputs,
                    num_settings,
                    lm: LmSettings {
                        max_iters: args.pick(6, 20),
                    },
                };
                let out = calibrate(&task.chip, &settings, &mut rng).expect("calibration");
                let rmse = task.chip.oracle_errors().rmse(&out.errors);
                g_rmse.push(rmse.gamma);
                p_rmse.push(rmse.phase);
                (out.model, out.chip_queries)
            };
            queries = q;
            let fid = evaluate_model(&task.chip, &model, 12, 3, &mut rng);
            pf.push(fid.power);
            ff.push(fid.field);

            let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head)
                .with_calibrated_model(model);
            let out = trainer
                .train(
                    Method::Lcng {
                        model: ModelChoice::Calibrated,
                    },
                    &config,
                    &mut rng,
                )
                .expect("training");
            acc.push(out.final_eval.accuracy);
            eprintln!(
                "  budget ({random_inputs},{num_settings}) run {r}: acc {:.3}",
                out.final_eval.accuracy
            );
        }
        let fmt = |v: &[f64], d: usize| {
            if v.is_empty() {
                "-".to_string()
            } else {
                RunSummary::from_values(v).format(d)
            }
        };
        table.row_owned(vec![
            if num_settings == 0 {
                "none (ideal)".into()
            } else {
                format!("{}x{}", k + random_inputs, num_settings)
            },
            format!("{queries}"),
            fmt(&g_rmse, 4),
            fmt(&p_rmse, 4),
            fmt(&pf, 4),
            fmt(&ff, 4),
            format!(
                "{:.2}% ±{:.2}",
                100.0 * RunSummary::from_values(&acc).mean,
                100.0 * RunSummary::from_values(&acc).std
            ),
        ]);
    }
    println!("{}", table.render());
    println!("Expected shape: more probes → lower RMSE, higher fidelity, higher accuracy.");
}
