//! The incremental fast forward path vs. the plain compiled f64 baseline —
//! the NNUE-style serving stack measured on the workload it exists for:
//! sparse coordinate-probe sweeps.
//!
//! Both arms evaluate the same `Q = 32` coordinate-perturbed parameter
//! settings on the same `B = 16` sample batch of a 16×16 Clements chip,
//! single-threaded:
//!
//! - `f64-full`: the baseline compiled path — one full probed-walk compile
//!   per probe theta, then the GEMM.
//! - `incremental-f64`: a compile base pinned at the center theta; each
//!   one-phase probe is served by an exact `O(N²)` rank-1 update instead of
//!   a full mesh recompile.
//!
//! A second set of arms times the pinned serve (`serve_pinned_batch_into`)
//! per request on an 8×8 single-mesh chip (β = 1) pinned at its initial θ,
//! at batch 1, 16 and 64; each row records the min and median
//! per-request time over the repeats. Every arm runs on the process's
//! kernel tier, so running the bench once under `PHOTON_KERNEL=scalar` and
//! once natively compares the portable and the AVX2 GEMM.
//!
//! A custom `main` writes the raw numbers plus the speedup, the serve rows
//! (`serve`) and the dispatched kernel tier to `BENCH_simd.json` at the
//! workspace root.

use std::hint::black_box;
use std::time::Instant;

use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_bench::report::{json_fixed, json_object, json_rows, json_str, write_bench_json};
use photon_core::ClassificationHead;
use photon_data::{Dataset, GaussianClusters};
use photon_linalg::random::normal_cvector;
use photon_linalg::{CVector, RVector};
use photon_photonics::{Architecture, BatchScratch, ErrorModel, FabricatedChip};

const DIM: usize = 16;
const Q: usize = 32;
const BATCH: usize = 16;
const ARMS: [&str; 2] = ["f64-full", "incremental-f64"];

const SERVE_DIM: usize = 8;
const SERVE_BATCHES: [usize; 3] = [1, 16, 64];
/// Requests served per timed sample, whatever the batch size.
const SERVE_REQUESTS_PER_SAMPLE: usize = 8_192;
const SERVE_REPEATS: usize = 31;

fn fabricate() -> FabricatedChip {
    let mut rng = StdRng::seed_from_u64(11);
    let arch = Architecture::single_mesh(DIM, DIM).unwrap();
    FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng)
}

fn setup() -> (Dataset, ClassificationHead, RVector) {
    let mut rng = StdRng::seed_from_u64(11);
    // Burn the fabrication draws so theta matches the chips built by
    // `fabricate()` from the same seed.
    let chip = fabricate();
    let data = GaussianClusters::new(DIM, DIM, 0.1)
        .generate(BATCH, &mut rng)
        .unwrap();
    let head = ClassificationHead::new(DIM, DIM, 10.0).unwrap();
    let theta = chip.init_params(&mut rng);
    (data, head, theta)
}

/// The ZO coordinate sweep's probe settings: `theta` with a single phase
/// nudged by `mu`, cycling through the coordinates — exactly the sparse
/// diffs the pinned compile base serves incrementally.
fn probe_thetas(theta: &RVector) -> Vec<RVector> {
    let mu = 1e-3 / (theta.len() as f64).sqrt();
    (0..Q)
        .map(|k| {
            let mut t = theta.clone();
            let i = k % t.len();
            t[i] += mu;
            t
        })
        .collect()
}

fn bench_simd_forward(c: &mut Criterion) {
    let (data, head, theta) = setup();
    let thetas = probe_thetas(&theta);
    let xs: Vec<&CVector> = (0..BATCH).map(|i| data.sample(i).0).collect();

    let mut group = c.benchmark_group("simd_forward");
    group.sample_size(15);

    for arm in ARMS {
        let chip = fabricate();
        if arm.starts_with("incremental") {
            chip.pin_compile_base(&theta);
        }
        group.bench_function(arm, |b| {
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
    }

    group.finish();
}

/// The serve arms' chip: 8×8 single mesh, β = 1, pinned at its initial θ.
fn serve_chip() -> FabricatedChip {
    let mut rng = StdRng::seed_from_u64(11);
    let arch = Architecture::single_mesh(SERVE_DIM, SERVE_DIM).unwrap();
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let theta = chip.init_params(&mut rng);
    chip.pin_compile_base(&theta);
    chip
}

/// Times the pinned serve per request, in ns, at every batch size: one
/// `(batch, samples)` row per arm. Each repeat takes one sample of every
/// arm in turn, so host noise lands on every batch size alike.
fn bench_serve() -> Vec<(usize, Vec<f64>)> {
    let chip = serve_chip();
    let mut rng = StdRng::seed_from_u64(12);
    let xs: Vec<CVector> = (0..SERVE_BATCHES[2])
        .map(|_| normal_cvector(SERVE_DIM, &mut rng))
        .collect();
    let refs: Vec<&CVector> = xs.iter().collect();
    let mut scratch = BatchScratch::new();
    let mut time = |chip: &FabricatedChip, batch: usize| {
        let start = Instant::now();
        for _ in 0..SERVE_REQUESTS_PER_SAMPLE / batch {
            let ys = chip
                .serve_pinned_batch_into(black_box(&refs[..batch]), &mut scratch)
                .expect("serve chips are pinned");
            black_box(ys);
        }
        start.elapsed().as_nanos() as f64 / SERVE_REQUESTS_PER_SAMPLE as f64
    };
    // Warm-up: one untimed sample per arm fills the caches and scratch.
    for batch in SERVE_BATCHES {
        time(&chip, batch);
    }
    let mut samples = vec![Vec::with_capacity(SERVE_REPEATS); SERVE_BATCHES.len()];
    for _ in 0..SERVE_REPEATS {
        for (&batch, s) in SERVE_BATCHES.iter().zip(&mut samples) {
            s.push(time(&chip, batch));
        }
    }
    SERVE_BATCHES.into_iter().zip(samples).collect()
}

fn write_report(c: &Criterion, serve: &[(usize, Vec<f64>)]) -> std::io::Result<()> {
    let find = |arm: &str| {
        let id = format!("simd_forward/{arm}");
        c.measurements().iter().find(move |m| m.id == id)
    };
    let baseline = find("f64-full");
    let mut rows = Vec::new();
    for arm in ARMS {
        if let Some(m) = find(arm) {
            let speedup = match baseline {
                Some(base) if m.mean.as_nanos() > 0 => {
                    base.mean.as_nanos() as f64 / m.mean.as_nanos() as f64
                }
                _ => f64::NAN,
            };
            rows.push(json_object(&[
                ("tier", json_str(arm)),
                ("mean_ns", m.mean.as_nanos().to_string()),
                ("min_ns", m.min.as_nanos().to_string()),
                ("speedup_vs_f64_full", json_fixed(speedup, 3)),
            ]));
        }
    }
    let serve_rows: Vec<String> = serve
        .iter()
        .map(|(batch, samples)| {
            let mut ns = samples.clone();
            ns.sort_by(f64::total_cmp);
            json_object(&[
                ("batch", batch.to_string()),
                ("min_ns_per_request", json_fixed(ns[0], 1)),
                ("median_ns_per_request", json_fixed(ns[ns.len() / 2], 1)),
            ])
        })
        .collect();
    write_bench_json(
        "BENCH_simd.json",
        "simd_forward",
        &[
            ("mesh", json_str(&format!("{DIM}x{DIM} Clements"))),
            ("q", Q.to_string()),
            ("batch", BATCH.to_string()),
            ("probe_kind", json_str("coordinate")),
            (
                "note",
                json_str(
                    "single-thread coordinate-probe sweep on the kernel tier named above; \
                     speedups are vs the plain compiled f64 path (one full compile per probe); \
                     see DESIGN.md fast-path tiers",
                ),
            ),
            ("results", json_rows(&rows)),
            (
                "serve_note",
                json_str(&format!(
                    "per-request wall time of serve_pinned_batch_into on an {SERVE_DIM}x{SERVE_DIM} \
                     single-mesh chip (beta 1) pinned at its initial theta, on the kernel tier \
                     named above; min and median over {SERVE_REPEATS} interleaved samples of \
                     {SERVE_REQUESTS_PER_SAMPLE} requests"
                )),
            ),
            ("serve", json_rows(&serve_rows)),
        ],
    )
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    bench_simd_forward(&mut c);
    let serve = bench_serve();
    if let Err(e) = write_report(&c, &serve) {
        eprintln!("simd_forward: failed to write BENCH_simd.json: {e}");
    }
}
