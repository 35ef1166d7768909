//! Seconds per Levenberg-Marquardt iteration of the calibration fit — the
//! software-model half of calibrated LCNG — at the widths the Table-1
//! cells use.
//!
//! Each width fabricates a `two_mesh_classifier(K, K)` chip and calibrates
//! it with the default probe plan (`K` basis + 8 random inputs at 3 phase
//! settings): 540 residuals against 580 error parameters at K = 10, 1 152
//! against 1 504 at K = 16, so both fits take the dual path. A fit is
//! capped at [`LM_ITERS`] iterations and timed end to end, measurement
//! sweep included; the bench reports wall seconds divided by iterations.
//!
//! The bench has a custom `main` that writes the numbers to
//! `BENCH_calib.json` at the workspace root.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_bench::report::{json_fixed, json_object, json_rows, json_str, write_bench_json};
use photon_calib::{calibrate, CalibrationSettings, LmSettings, ProbePlan};
use photon_photonics::{Architecture, ErrorModel, FabricatedChip};

const WIDTHS: [usize; 2] = [10, 16];
const LM_ITERS: usize = 2;
const REPEATS: usize = 3;

/// Timed fits at width `k`: the JSON row with seconds per LM iteration.
fn bench_width(k: usize) -> String {
    let mut rng = StdRng::seed_from_u64(7);
    let arch = Architecture::two_mesh_classifier(k, k).expect("valid width");
    let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
    let settings = CalibrationSettings {
        lm: LmSettings {
            max_iters: LM_ITERS,
        },
        ..CalibrationSettings::default()
    };
    let plan = ProbePlan::for_chip(
        &chip,
        settings.include_basis,
        settings.random_inputs,
        settings.num_settings,
        &mut rng.clone(),
    );
    let residuals = plan.residual_count(chip.output_dim());
    let (n_bs, n_ps) = arch.error_slots();

    let mut per_iter = Vec::with_capacity(REPEATS);
    let mut iterations = 0;
    for _ in 0..REPEATS {
        let mut fit_rng = rng.clone();
        let start = Instant::now();
        let outcome = calibrate(&chip, &settings, &mut fit_rng).expect("calibration fit");
        per_iter.push(start.elapsed().as_secs_f64() / outcome.iterations as f64);
        iterations = outcome.iterations;
    }
    per_iter.sort_by(f64::total_cmp);
    eprintln!(
        "calibration: K = {k}: {residuals} x {} fit, {:.3} s per LM iteration (median of {REPEATS})",
        n_bs + 2 * n_ps,
        per_iter[REPEATS / 2]
    );
    json_object(&[
        ("k", k.to_string()),
        ("residuals", residuals.to_string()),
        ("error_params", (n_bs + 2 * n_ps).to_string()),
        ("iterations", iterations.to_string()),
        ("s_per_lm_iter_min", json_fixed(per_iter[0], 4)),
        ("s_per_lm_iter_median", json_fixed(per_iter[REPEATS / 2], 4)),
    ])
}

fn main() {
    let rows: Vec<String> = WIDTHS.iter().map(|&k| bench_width(k)).collect();
    let written = write_bench_json(
        "BENCH_calib.json",
        "calibration",
        &[
            ("arch", json_str("two_mesh_classifier(K, K), beta = 1")),
            (
                "probe_plan",
                json_str("default: K basis + 8 random inputs at 3 settings"),
            ),
            ("repeats", REPEATS.to_string()),
            (
                "note",
                json_str(
                    "single-thread wall seconds of calibrate() per LM iteration, \
                     measurement sweep included",
                ),
            ),
            ("results", json_rows(&rows)),
        ],
    );
    if let Err(e) = written {
        eprintln!("calibration: failed to write BENCH_calib.json: {e}");
    }
}
