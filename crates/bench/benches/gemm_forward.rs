//! Compiled-batched vs. interpreted probe evaluation — the amortization the
//! compiled-unitary path buys on a single thread.
//!
//! Both arms evaluate the same `Q = 32` perturbed parameter settings on the
//! same `B = 16` sample batch of an 8×8 Clements chip. The interpreted arm
//! walks the op list per sample (`O(ops·B)` per probe, trig per op per
//! sample); the compiled arm compiles each probe's unitary once
//! (`O(ops·N)`) and applies it batch-wide as one GEMM (`O(N²·B)`). Pool
//! size is 1 everywhere: the measured speedup is compile amortization, not
//! thread parallelism.
//!
//! Like `probe_eval`, this bench has a custom `main` that writes the raw
//! numbers to `BENCH_gemm.json` at the workspace root.

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_bench::report::{json_fixed, json_object, json_rows, json_str, write_bench_json};
use photon_core::ClassificationHead;
use photon_data::{Dataset, GaussianClusters};
use photon_linalg::random::normal_rvector;
use photon_linalg::{CVector, RVector};
use photon_photonics::{Architecture, BatchScratch, ChipScratch, ErrorModel, FabricatedChip};

const DIM: usize = 8;
const Q: usize = 32;
const BATCH: usize = 16;

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

/// The probe settings a ZO sweep would evaluate: `theta + mu * delta_q`.
fn probe_thetas(theta: &RVector, rng: &mut StdRng) -> Vec<RVector> {
    let mu = 1e-3 / (theta.len() as f64).sqrt();
    (0..Q)
        .map(|_| {
            let delta = normal_rvector(theta.len(), rng);
            let mut t = theta.clone();
            for k in 0..t.len() {
                t[k] += mu * delta[k];
            }
            t
        })
        .collect()
}

fn bench_gemm_forward(c: &mut Criterion) {
    let (chip, data, head, theta) = setup();
    let mut rng = StdRng::seed_from_u64(13);
    let thetas = probe_thetas(&theta, &mut rng);
    let xs: Vec<&CVector> = (0..BATCH).map(|i| data.sample(i).0).collect();

    let mut group = c.benchmark_group("gemm_forward");
    group.sample_size(15);

    group.bench_function("interpreted", |b| {
        let mut scratch = ChipScratch::new();
        b.iter(|| {
            let mut acc = 0.0;
            for t in &thetas {
                for i in 0..BATCH {
                    let (x, label) = data.sample(i);
                    let y = chip.forward_into(x, t, &mut scratch);
                    acc += head.loss(y, label);
                }
            }
            acc
        })
    });

    group.bench_function("compiled", |b| {
        let mut scratch = BatchScratch::new();
        b.iter(|| {
            let mut acc = 0.0;
            for t in &thetas {
                let ys = chip.forward_batch_into(&xs, t, &mut scratch);
                for (i, y) in ys.iter().enumerate() {
                    acc += head.loss(y, data.sample(i).1);
                }
            }
            acc
        })
    });

    group.finish();
}

fn write_report(c: &Criterion) -> std::io::Result<()> {
    let find = |path: &str| {
        let id = format!("gemm_forward/{path}");
        c.measurements().iter().find(move |m| m.id == id)
    };
    let mut rows = Vec::new();
    for path in ["interpreted", "compiled"] {
        if let Some(m) = find(path) {
            rows.push(json_object(&[
                ("path", json_str(path)),
                ("mean_ns", m.mean.as_nanos().to_string()),
                ("min_ns", m.min.as_nanos().to_string()),
            ]));
        }
    }
    let speedup = match (find("interpreted"), find("compiled")) {
        (Some(interp), Some(comp)) if comp.mean.as_nanos() > 0 => {
            interp.mean.as_nanos() as f64 / comp.mean.as_nanos() as f64
        }
        _ => f64::NAN,
    };
    write_bench_json(
        "BENCH_gemm.json",
        "gemm_forward",
        &[
            ("mesh", json_str(&format!("{DIM}x{DIM} Clements"))),
            ("q", Q.to_string()),
            ("batch", BATCH.to_string()),
            ("speedup_compiled_vs_interpreted", json_fixed(speedup, 3)),
            (
                "note",
                json_str(
                    "single-thread comparison: the speedup is per-probe compile amortization \
                     over the batch, not thread parallelism; see DESIGN.md",
                ),
            ),
            ("results", json_rows(&rows)),
        ],
    )
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_gemm_forward(&mut c);
    if let Err(e) = write_report(&c) {
        eprintln!("gemm_forward: failed to write BENCH_gemm.json: {e}");
    }
}
