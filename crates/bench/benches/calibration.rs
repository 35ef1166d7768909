//! Seconds per Levenberg-Marquardt iteration of the calibration fit — the
//! software-model half of calibrated LCNG — at the widths the Table-1
//! cells use.
//!
//! Each width fabricates a `two_mesh_classifier(K, K)` chip and calibrates
//! it with the default probe plan (`K` basis + 8 random inputs at 3 phase
//! settings): 540 residuals against 580 error parameters at K = 10, 1 152
//! against 1 504 at K = 16 and 2 304 against 3 408 at K = 24, so every fit
//! takes the dual path. A fit is capped at [`LM_ITERS`] iterations and
//! timed end to end, measurement sweep included; the bench reports wall
//! seconds divided by iterations, min and median over a width's repeats.
//! With the exact Jacobian, the dense dual Gram `JJᵀ` and its Cholesky
//! take most of an iteration, so each row also times those two kernels
//! alone at the fit's shapes: [`RMatrix::gram`] of an `error_params ×
//! residuals` matrix and [`RCholesky::new`] of the `residuals`-wide
//! result. It times the Jacobian's walks alone too, as the fit runs them:
//! per setting one gate plan, per probe one taped forward and one error-VJP
//! panel of the `K` detector cotangents written into `Jᵀ`. The K = 24 row
//! is the cost a matrix-free solve has to beat.
//!
//! The bench has a custom `main` that writes the numbers to
//! `BENCH_calib.json` at the workspace root.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_bench::report::{json_fixed, json_object, json_rows, json_str, write_bench_json};
use photon_calib::{calibrate, CalibrationSettings, LmSettings, ProbePlan};
use photon_linalg::{CVector, RCholesky, RMatrix};
use photon_photonics::{
    Architecture, ErrorModel, ErrorVector, FabricatedChip, NetworkScratch, StatePanel,
};

/// Widths and the fits timed at each: a K = 10 fit takes about 0.1 s and a
/// K = 24 one several seconds.
const WIDTHS: [(usize, usize); 3] = [(10, 21), (16, 9), (24, 3)];
const LM_ITERS: usize = 2;

/// `(min, median)` over `repeats` runs of `f` of the wall seconds per unit
/// of the count `f` returns.
fn time_per(repeats: usize, mut f: impl FnMut() -> usize) -> (f64, f64) {
    let mut secs: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            let units = f();
            start.elapsed().as_secs_f64() / units as f64
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    (secs[0], secs[repeats / 2])
}

/// Timed fits at width `k`: the JSON row with seconds per LM iteration,
/// and seconds per dual Gram and per Cholesky at the fit's shapes.
fn bench_width(k: usize, repeats: usize) -> String {
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
    let error_params = n_bs + 2 * n_ps;

    let mut iterations = 0;
    let (iter_min, iter_median) = time_per(repeats, || {
        let outcome = calibrate(&chip, &settings, &mut rng.clone()).expect("calibration fit");
        iterations = outcome.iterations;
        iterations
    });
    // The exact Jᵀ of a model with sampled errors over the plan's probes.
    let errors = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(1.0), &mut rng.clone());
    let model = arch.build_with_errors(&errors).expect("matching slots");
    let k_out = chip.output_dim();
    let mut jt_exact = RMatrix::zeros(error_params, residuals);
    let (mut scratch, mut tape) = (NetworkScratch::new(), model.new_tape());
    let (mut y, mut panel) = (CVector::zeros(0), StatePanel::default());
    let jacobian = time_per(repeats, || {
        let mut at = 0;
        for theta in &plan.settings {
            let gates = model.gate_plan(theta);
            for x in &plan.inputs {
                model.forward_tape_into(x, theta, &gates, &mut scratch, &mut y, &mut tape);
                panel.reset(k_out, k_out);
                for d in 0..k_out {
                    panel.set(d, d, y[d].scale(2.0));
                }
                let out = &mut jt_exact.as_mut_slice()[at..];
                model.error_vjp_panel_into(&gates, &tape, theta, &mut panel, out, residuals);
                at += k_out;
            }
        }
        black_box(&jt_exact);
        1
    });
    // The transposed Jacobian's shape, filled with fixed values.
    let jt = RMatrix::from_fn(error_params, residuals, |r, c| {
        ((r * 31 + c * 17) as f64 * 0.01).sin()
    });
    let gram = time_per(repeats, || {
        black_box(jt.gram());
        1
    });
    let mut damped = jt.gram();
    damped.add_diagonal(1e-3 * damped.trace().expect("square") / residuals as f64);
    let cholesky = time_per(repeats, || {
        black_box(RCholesky::new(&damped).expect("positive definite"));
        1
    });
    eprintln!(
        "calibration: K = {k}: {residuals} x {error_params} fit, {iter_median:.3} s per LM \
         iteration, Jacobian {:.4} s, Gram {:.4} s, Cholesky {:.4} s (medians of {repeats})",
        jacobian.1, gram.1, cholesky.1
    );
    json_object(&[
        ("k", k.to_string()),
        ("residuals", residuals.to_string()),
        ("error_params", error_params.to_string()),
        ("iterations", iterations.to_string()),
        ("repeats", repeats.to_string()),
        ("s_per_lm_iter_min", json_fixed(iter_min, 4)),
        ("s_per_lm_iter_median", json_fixed(iter_median, 4)),
        ("jacobian_s_min", json_fixed(jacobian.0, 4)),
        ("jacobian_s_median", json_fixed(jacobian.1, 4)),
        ("gram_s_min", json_fixed(gram.0, 4)),
        ("gram_s_median", json_fixed(gram.1, 4)),
        ("cholesky_s_min", json_fixed(cholesky.0, 4)),
        ("cholesky_s_median", json_fixed(cholesky.1, 4)),
    ])
}

fn main() {
    let rows: Vec<String> = WIDTHS
        .iter()
        .map(|&(k, repeats)| bench_width(k, repeats))
        .collect();
    let written = write_bench_json(
        "BENCH_calib.json",
        "calibration",
        &[
            ("arch", json_str("two_mesh_classifier(K, K), beta = 1")),
            (
                "probe_plan",
                json_str("default: K basis + 8 random inputs at 3 settings"),
            ),
            (
                "note",
                json_str(
                    "single-thread wall seconds, on the kernel tier named above: calibrate() \
                     per LM iteration, measurement sweep included; the exact Jacobian's \
                     walks (a taped forward and an error-VJP panel per probe); RMatrix::gram \
                     of an error_params x residuals matrix; RCholesky::new of the \
                     residuals-wide damped result. Min and median over each row's repeats",
                ),
            ),
            ("results", json_rows(&rows)),
        ],
    );
    if let Err(e) = written {
        eprintln!("calibration: failed to write BENCH_calib.json: {e}");
    }
}
