//! **Table 1** — test accuracy of every compared method on the synthetic
//! MNIST-like and Fashion-like tasks across ONN widths K.
//!
//! Reproduces the paper's main table: mean ± std over independent runs,
//! best black-box method in context, Mann-Whitney significance of each
//! method against the best, with the backprop bounds `BP-ideal` (no error
//! information) and `BP-oracle` (perfect error information) framing the
//! black-box block.
//!
//! ```text
//! cargo run -p photon-bench --release --bin table1 -- [--quick] [--seed N] [--runs N]
//! ```

use photon_bench::harness::{bound_method_grid, main_method_grid, BenchArgs};
use photon_calib::{CalibrationSettings, LmSettings};
use photon_core::{mann_whitney_u, run_method, TaskKind, TaskSpec, TextTable, TrainConfig};

fn main() {
    let args = BenchArgs::parse();
    let runs = args.runs_or(3, 8);
    // K = 24 stands in for the paper's largest width: the calibration fit's
    // dense Gram and Cholesky (about m²·n multiply-adds per Levenberg-
    // Marquardt iteration for m residuals and n error parameters; see
    // BENCH_calib.json) dominate its cost, while its exact Jacobian is
    // cheap. That keeps the full table affordable on a laptop while still
    // showing the with-K trend.
    let ks: &[usize] = if args.quick { &[12] } else { &[16, 24] };
    let tasks = [TaskKind::MnistLike, TaskKind::FashionLike];

    println!("Table 1: test accuracy @ end of stage 2 (mean ± std over {runs} runs)");
    println!(
        "mode: {} | seed {} | K ∈ {:?}\n",
        if args.quick { "quick" } else { "full" },
        args.seed,
        ks
    );

    for kind in tasks {
        let mut table = TextTable::new(&["method", "K", "accuracy", "vs best", "queries"]);
        for &k in ks {
            let spec = TaskSpec {
                train_size: args.pick(200, 600),
                test_size: args.pick(100, 300),
                ..TaskSpec::image(kind, k)
            };
            let mut config = TrainConfig::for_network(0, k);
            config.warm_epochs = args.pick(3, 10);
            config.epochs = args.pick(6, 40);
            config.batch_size = args.pick(25, 100);
            // With --trace, every run of this (task, K) cell appends its
            // span of events to one JSONL artifact next to the CSVs.
            config.trace = args.trace_handle(&format!(
                "table1_{}_k{k}_trace",
                kind.label().to_lowercase().replace('-', "_")
            ));

            // CMA only at the smallest width — it does not scale (the same
            // failure the paper reports).
            let include_cma = k == ks[0];
            let calib_settings = CalibrationSettings {
                lm: LmSettings { max_iters: 10 },
                ..CalibrationSettings::default()
            };

            let mut results = Vec::new();
            for method in main_method_grid(include_cma) {
                let needs_calib = method.label().contains("calib");
                let calib = needs_calib.then_some(&calib_settings);
                match run_method(&spec, method, &config, runs, args.seed, calib) {
                    Ok(res) => {
                        eprintln!(
                            "  [{} K={k}] {}: {}",
                            kind.label(),
                            res.method,
                            res.accuracy.format(4)
                        );
                        results.push(res);
                    }
                    Err(e) => {
                        eprintln!("  [{} K={k}] {method:?} failed: {e}", kind.label())
                    }
                }
            }
            // Best black-box method by mean accuracy.
            let best_idx = results
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.accuracy.mean.total_cmp(&b.1.accuracy.mean))
                .map(|(i, _)| i)
                .unwrap_or(0);
            for (i, res) in results.iter().enumerate() {
                let sig = if i == best_idx {
                    "best".to_string()
                } else {
                    mann_whitney_u(&res.accuracy.values, &results[best_idx].accuracy.values)
                        .annotation()
                        .to_string()
                };
                table.row_owned(vec![
                    res.method.clone(),
                    format!("{k}"),
                    format!(
                        "{:.2}% ±{:.2}",
                        100.0 * res.accuracy.mean,
                        100.0 * res.accuracy.std
                    ),
                    sig,
                    format!("{:.0}", res.mean_queries),
                ]);
            }
            // Gradient bounds for context.
            for method in bound_method_grid() {
                if let Ok(res) = run_method(&spec, method, &config, runs, args.seed, None) {
                    table.row_owned(vec![
                        res.method.clone(),
                        format!("{k}"),
                        format!(
                            "{:.2}% ±{:.2}",
                            100.0 * res.accuracy.mean,
                            100.0 * res.accuracy.std
                        ),
                        "bound".into(),
                        "0".into(),
                    ]);
                }
            }
        }
        println!("== {} ==\n{}", kind.label(), table.render());
    }
}
