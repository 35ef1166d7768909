//! Serial vs. worker-pool throughput of the ZO probe sweep — the hot loop of
//! every fine-tuning iteration (q batch-loss evaluations per step).
//!
//! Unlike the other benches this one has a custom `main`: after the criterion
//! pass it writes the raw numbers (mean/min ns per pool size, the measured
//! speedup at 4 threads, and the host's available parallelism) to
//! `BENCH_parallel.json` at the workspace root so results land in the repo
//! without any manual copying.

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_bench::report::{
    host_parallelism, json_fixed, json_object, json_rows, json_str, write_bench_json,
};
use photon_core::{chip_batch_loss, ClassificationHead};
use photon_data::{Dataset, GaussianClusters};
use photon_exec::ExecPool;
use photon_linalg::RVector;
use photon_opt::{estimate_gradient, Perturbation, ZoSettings};
use photon_photonics::{Architecture, ErrorModel, FabricatedChip};

const DIM: usize = 8;
const Q: usize = 32;
const BATCH: usize = 16;
const POOL_SIZES: [usize; 4] = [1, 2, 4, 8];

fn setup() -> (FabricatedChip, Dataset, ClassificationHead, RVector) {
    let mut rng = StdRng::seed_from_u64(11);
    let arch = Architecture::single_mesh(DIM, DIM).unwrap();
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let data = GaussianClusters::new(DIM, DIM, 0.1)
        .generate(BATCH, &mut rng)
        .unwrap();
    let head = ClassificationHead::new(DIM, DIM, 10.0).unwrap();
    let theta = chip.init_params(&mut rng);
    (chip, data, head, theta)
}

fn bench_probe_eval(c: &mut Criterion) {
    let (chip, data, head, theta) = setup();
    let indices: Vec<usize> = (0..BATCH).collect();
    let serial = ExecPool::serial();
    let loss = |t: &RVector| chip_batch_loss(&chip, &data, &indices, &head, t, &serial);
    let zo = ZoSettings {
        q: Q,
        mu: 1e-3 / (theta.len() as f64).sqrt(),
        lambda: 1.0 / theta.len() as f64,
    };

    // Pool sizes above the host's parallelism oversubscribe the machine:
    // their timings measure scheduler churn, not parallel speedup, so the
    // bench skips them instead of publishing numbers that look like a
    // scaling regression.
    let host_threads = host_parallelism();
    let mut group = c.benchmark_group("probe_eval");
    group.sample_size(15);
    for threads in POOL_SIZES {
        if threads > host_threads {
            eprintln!(
                "probe_eval: skipping threads_{threads} \
                 (host_available_parallelism = {host_threads})"
            );
            continue;
        }
        let pool = ExecPool::new(threads);
        group.bench_function(format!("threads_{threads}"), |b| {
            let mut rng = StdRng::seed_from_u64(13);
            let base = loss(&theta);
            b.iter(|| {
                estimate_gradient(
                    &loss,
                    &theta,
                    base,
                    &zo,
                    &Perturbation::Gaussian,
                    None,
                    &pool,
                    &mut rng,
                )
            })
        });
    }
    group.finish();
}

fn write_report(c: &Criterion) -> std::io::Result<()> {
    let host_threads = host_parallelism();
    let find = |threads: usize| {
        let id = format!("probe_eval/threads_{threads}");
        c.measurements().iter().find(|m| m.id == id)
    };
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for threads in POOL_SIZES {
        if threads > host_threads {
            skipped.push(threads.to_string());
            continue;
        }
        if let Some(m) = find(threads) {
            // host_available_parallelism rides along on every row so a
            // reader of a single entry knows what hardware bounded it.
            rows.push(json_object(&[
                ("threads", threads.to_string()),
                ("mean_ns", m.mean.as_nanos().to_string()),
                ("min_ns", m.min.as_nanos().to_string()),
                ("host_available_parallelism", host_threads.to_string()),
            ]));
        }
    }
    let speedup_4 = match (find(1), find(4)) {
        (Some(serial), Some(pooled)) if pooled.mean.as_nanos() > 0 => {
            serial.mean.as_nanos() as f64 / pooled.mean.as_nanos() as f64
        }
        // threads_4 skipped (host too small) or not yet measured.
        _ => f64::NAN,
    };
    let note = if skipped.is_empty() {
        "all configured pool sizes fit within host_available_parallelism".to_string()
    } else {
        format!(
            "pool sizes [{}] exceed host_available_parallelism ({host_threads}) and were \
             skipped: oversubscribed timings measure scheduler churn, not speedup",
            skipped.join(", ")
        )
    };
    write_bench_json(
        "BENCH_parallel.json",
        "probe_eval",
        &[
            ("mesh", json_str(&format!("{DIM}x{DIM} Clements"))),
            ("q", Q.to_string()),
            ("batch", BATCH.to_string()),
            ("speedup_at_4_threads", json_fixed(speedup_4, 3)),
            ("note", json_str(&note)),
            ("results", json_rows(&rows)),
        ],
    )
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_probe_eval(&mut c);
    if let Err(e) = write_report(&c) {
        eprintln!("probe_eval: failed to write BENCH_parallel.json: {e}");
    }
}
