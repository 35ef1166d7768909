//! **Figure 2** — training-loss convergence versus epoch for every compared
//! method, on the MNIST-like task.
//!
//! Writes `results/fig2_convergence.csv` with one row per (method, epoch)
//! and prints a coarse text rendition of the series. The `elapsed_s`
//! column is the trace's per-epoch wall time (`EpochSpan::wall_secs`).
//!
//! ```text
//! cargo run -p photon-bench --release --bin fig2_convergence -- [--quick] [--seed N]
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_bench::harness::{main_method_grid, BenchArgs};
use photon_core::{
    build_task, downsample, sparkline, CsvWriter, Method, TaskKind, TaskSpec, TrainConfig, Trainer,
};
use photon_trace::{TraceEvent, TraceHandle};

fn main() {
    let args = BenchArgs::parse();
    let k = args.pick(12, 16);
    let spec = TaskSpec {
        train_size: args.pick(200, 600),
        test_size: args.pick(100, 300),
        ..TaskSpec::image(TaskKind::MnistLike, k)
    };
    let mut config = TrainConfig::for_network(0, k);
    config.warm_epochs = args.pick(3, 10);
    config.epochs = args.pick(8, 60);
    config.batch_size = args.pick(25, 100);

    println!(
        "Fig 2: training-loss convergence (K={k}, {} epochs)\n",
        config.epochs
    );
    let mut csv = CsvWriter::new(&["method", "epoch", "train_loss", "elapsed_s"]);
    let mut summaries = Vec::new();

    // Shared chip/data/warm-start across methods: identical starting point.
    let task = build_task(&spec, args.seed).expect("task construction");
    let trainer = Trainer::new(&task.chip, &task.train, &task.test, task.head)
        .with_calibrated_model(task.chip.oracle_network());
    let mut warm_rng = StdRng::seed_from_u64(args.seed ^ 0x11a);
    let theta0 = trainer.warm_start(&config, &mut warm_rng);

    let mut methods = main_method_grid(args.quick);
    if !args.quick {
        methods.push(Method::Cma { sigma0: 0.1 });
    }
    for method in methods {
        // The "calibrated" grid slot uses the oracle network attached above,
        // which isolates convergence behavior from calibration quality.
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0x22b);
        let mut theta = theta0.clone();
        let (trace, sink) = TraceHandle::memory(0);
        let config = TrainConfig {
            trace,
            ..config.clone()
        };
        match trainer.finetune(method, &config, &mut theta, &mut rng) {
            Ok(out) => {
                let wall_secs = sink.events().into_iter().filter_map(|e| match e {
                    TraceEvent::EpochSpan { wall_secs, .. } => Some(wall_secs),
                    _ => None,
                });
                for (rec, wall_secs) in out.history.iter().zip(wall_secs) {
                    csv.record(&[
                        &out.method,
                        &rec.epoch.to_string(),
                        &format!("{}", rec.train_loss),
                        &format!("{wall_secs}"),
                    ]);
                }
                let first = out
                    .history
                    .first()
                    .map(|h| h.train_loss)
                    .unwrap_or(f64::NAN);
                let last = out.history.last().map(|h| h.train_loss).unwrap_or(f64::NAN);
                let series: Vec<f64> = out.history.iter().map(|h| h.train_loss).collect();
                let spark = sparkline(&downsample(&series, 40));
                summaries.push((out.method.clone(), first, last));
                println!("  {:<16} loss {first:.4} → {last:.4}  {spark}", out.method);
            }
            Err(e) => eprintln!("  {} failed: {e}", method.label()),
        }
    }

    let path = args.out_dir.join("fig2_convergence.csv");
    csv.write_to(&path).expect("write csv");
    println!("\nseries written to {}", path.display());
    println!("Expected shape: ZO-LCNG reaches lower loss per epoch than ZO-I/ZO-co;");
    println!("ZO-LC sits between; CMA trails at these dimensionalities.");
}
