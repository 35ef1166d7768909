//! The chip calibrator: estimates per-component fabrication errors from
//! black-box power measurements.
//!
//! Protocol:
//!
//! 1. drive the chip with a [`crate::ProbePlan`] (basis + random inputs at
//!    several random phase settings) and record detector powers;
//! 2. fit the model's flat error vector `e = (γ…, attenuation…, phase…)` by
//!    damped Gauss-Newton on the residual
//!    `r(e) = [ |y_model(x_p; θ_s, e)|² − measured ]_{s,p}`;
//! 3. return the estimated [`ErrorVector`] and the calibrated [`Network`].
//!
//! The fit touches only the software model — chip queries are spent solely
//! on step 1, so calibration cost is exactly `plan.query_cost()` queries.

use photon_exec::ExecPool;
use rand::Rng;

use photon_linalg::{CVector, LinalgError, RMatrix, RVector};
use photon_photonics::{
    Architecture, ErrorVector, GatePlan, Network, NetworkError, NetworkScratch, NetworkTape,
    OnnChip, StatePanel,
};
use photon_trace::{QueryCategory, TraceEvent, TraceHandle};

use crate::gauss_newton::{solve, LeastSquares, LmSettings};
use crate::probe::{measure_chip, Measurements, ProbePlan};

/// Calibration hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSettings {
    /// Include the `K` basis inputs in the probe plan.
    pub include_basis: bool,
    /// Number of Haar-random unit inputs.
    pub random_inputs: usize,
    /// Number of random phase settings.
    pub num_settings: usize,
    /// Gauss-Newton settings for the model fit.
    pub lm: LmSettings,
}

impl Default for CalibrationSettings {
    fn default() -> Self {
        CalibrationSettings {
            include_basis: true,
            random_inputs: 8,
            num_settings: 3,
            lm: LmSettings::default(),
        }
    }
}

impl CalibrationSettings {
    /// A budget-scaled preset: roughly `budget` chip queries split over
    /// inputs and settings.
    ///
    /// # Panics
    ///
    /// Panics when `budget` is too small to fit one basis sweep.
    pub fn with_query_budget(k: usize, budget: usize) -> Self {
        assert!(
            budget >= 2 * k,
            "budget must cover at least two basis sweeps"
        );
        let num_settings = (budget / (2 * k)).clamp(2, 6);
        let inputs_per_setting = budget / num_settings;
        let random_inputs = inputs_per_setting.saturating_sub(k).max(2);
        CalibrationSettings {
            include_basis: true,
            random_inputs,
            num_settings,
            lm: LmSettings::default(),
        }
    }
}

/// Errors raised by the calibrator.
#[derive(Debug)]
#[non_exhaustive]
pub enum CalibError {
    /// The least-squares solve failed.
    Linalg(LinalgError),
    /// Rebuilding the model from the fitted errors failed (never occurs for
    /// plans generated from the chip's own architecture).
    Network(NetworkError),
    /// A recalibration prior holds a NaN or infinite error. The fit zeroes
    /// non-finite residual entries, so such a model would read as a
    /// perfect fit.
    NonFinitePrior {
        /// Flat index (layout of `ErrorVector::to_flat`) of the first
        /// non-finite entry.
        index: usize,
    },
    /// The measurement sweep read no finite power (every read dropped).
    /// The fit zeroes non-finite residual entries, so it would match no
    /// data and read as a perfect fit.
    NoFiniteReadings,
}

impl std::fmt::Display for CalibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibError::Linalg(e) => write!(f, "calibration solve failed: {e}"),
            CalibError::Network(e) => write!(f, "calibrated model rebuild failed: {e}"),
            CalibError::NonFinitePrior { index } => {
                write!(f, "recalibration prior is not finite at flat index {index}")
            }
            CalibError::NoFiniteReadings => {
                write!(f, "calibration sweep read no finite power")
            }
        }
    }
}

impl std::error::Error for CalibError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CalibError::Linalg(e) => Some(e),
            CalibError::Network(e) => Some(e),
            CalibError::NonFinitePrior { .. } | CalibError::NoFiniteReadings => None,
        }
    }
}

impl From<LinalgError> for CalibError {
    fn from(e: LinalgError) -> Self {
        CalibError::Linalg(e)
    }
}

impl From<NetworkError> for CalibError {
    fn from(e: NetworkError) -> Self {
        CalibError::Network(e)
    }
}

/// The outcome of a calibration run.
#[derive(Debug)]
pub struct CalibrationOutcome {
    /// Estimated per-component error assignment.
    pub errors: ErrorVector,
    /// The calibrated software model (architecture + estimated errors).
    pub model: Network,
    /// Final fit cost `‖r‖²`.
    pub fit_cost: f64,
    /// Fit cost before optimization (ideal-model residual).
    pub initial_cost: f64,
    /// Gauss-Newton iterations used.
    pub iterations: usize,
    /// Chip queries consumed by the measurement sweep.
    pub chip_queries: usize,
}

/// Calibrates `chip` with the given settings.
///
/// # Errors
///
/// See [`CalibError`].
///
/// # Examples
///
/// ```no_run
/// use rand::SeedableRng;
/// use photon_calib::{calibrate, CalibrationSettings};
/// use photon_photonics::{Architecture, ErrorModel, FabricatedChip};
///
/// let arch = Architecture::single_mesh(4, 2)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
/// let outcome = calibrate(&chip, &CalibrationSettings::default(), &mut rng)?;
/// assert!(outcome.fit_cost <= outcome.initial_cost);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn calibrate<C: OnnChip, R: Rng + ?Sized>(
    chip: &C,
    settings: &CalibrationSettings,
    rng: &mut R,
) -> Result<CalibrationOutcome, CalibError> {
    let plan = ProbePlan::for_chip(
        chip,
        settings.include_basis,
        settings.random_inputs,
        settings.num_settings,
        rng,
    );
    let measured = measure_chip(chip, &plan, &ExecPool::serial());
    let (n_bs, n_ps) = chip.architecture().error_slots();
    fit_measurements(
        chip,
        &plan,
        &measured,
        &settings.lm,
        RVector::zeros(n_bs + 2 * n_ps),
    )
}

/// [`calibrate`], with telemetry: emits a [`TraceEvent::Calibration`] fit
/// summary plus an epoch-0 [`TraceEvent::QueryLedger`] entry in the
/// `Calibration` category covering the chip queries the measurement sweep
/// actually consumed. With a null handle this is exactly [`calibrate`].
///
/// Use this for standalone (pre-training) calibration so a traced run's
/// ledger accounts for every chip query; in-run recalibrations are ledgered
/// by the trainer itself.
///
/// # Errors
///
/// See [`CalibError`].
pub fn calibrate_traced<C: OnnChip, R: Rng + ?Sized>(
    chip: &C,
    settings: &CalibrationSettings,
    rng: &mut R,
    trace: &TraceHandle,
) -> Result<CalibrationOutcome, CalibError> {
    let before = chip.query_count();
    let outcome = calibrate(chip, settings, rng)?;
    let spent = chip.query_count().saturating_sub(before);
    trace.emit(|| TraceEvent::Calibration {
        queries: spent,
        initial_cost: outcome.initial_cost,
        fit_cost: outcome.fit_cost,
        iterations: outcome.iterations as u64,
    });
    trace.emit(|| TraceEvent::QueryLedger {
        epoch: 0,
        category: QueryCategory::Calibration,
        queries: spent,
    });
    Ok(outcome)
}

/// Incremental recalibration: re-fit an already-calibrated chip whose
/// physical errors have drifted, warm-starting the Gauss-Newton fit from a
/// prior [`ErrorVector`] instead of zeros.
///
/// Under slow drift (e.g. OU thermal walks) the prior estimate is already
/// close to the new optimum, so the warm start converges in a fraction of
/// the iterations of a cold [`calibrate`] and tolerates much smaller probe
/// sweeps — this is the entry point the online-recalibration controller
/// uses between serving windows, where every chip query steals a microbatch
/// slot from live traffic.
///
/// # Errors
///
/// [`CalibError::NonFinitePrior`] when `prior` holds a NaN or infinite
/// error (checked before any chip query); otherwise see [`CalibError`].
///
/// # Panics
///
/// Panics when `prior`'s flat layout does not match the chip architecture's
/// error slots.
pub fn recalibrate<C: OnnChip, R: Rng + ?Sized>(
    chip: &C,
    prior: &ErrorVector,
    settings: &CalibrationSettings,
    rng: &mut R,
) -> Result<CalibrationOutcome, CalibError> {
    let (n_bs, n_ps) = chip.architecture().error_slots();
    let flat = prior.to_flat();
    assert_eq!(
        flat.len(),
        n_bs + 2 * n_ps,
        "prior error vector does not match the chip architecture"
    );
    if let Some(index) = flat.iter().position(|e| !e.is_finite()) {
        return Err(CalibError::NonFinitePrior { index });
    }
    let plan = ProbePlan::for_chip(
        chip,
        settings.include_basis,
        settings.random_inputs,
        settings.num_settings,
        rng,
    );
    let measured = measure_chip(chip, &plan, &ExecPool::serial());
    fit_measurements(
        chip,
        &plan,
        &measured,
        &settings.lm,
        RVector::from_vec(flat),
    )
}

/// Shared fit body: damped Gauss-Newton on the power residuals, starting
/// from `init` (zeros for a cold calibration, the prior errors for an
/// incremental recalibration). A sweep with no finite reading is
/// [`CalibError::NoFiniteReadings`].
fn fit_measurements<C: OnnChip>(
    chip: &C,
    plan: &ProbePlan,
    measured: &Measurements,
    lm: &LmSettings,
    init: RVector,
) -> Result<CalibrationOutcome, CalibError> {
    let mut readings = measured.powers.iter().flatten().flat_map(RVector::iter);
    if !readings.any(|v| v.is_finite()) {
        return Err(CalibError::NoFiniteReadings);
    }
    let mut problem = PowerFit::new(chip.architecture().clone(), plan, measured);
    let fit = solve(&mut problem, &init, lm)?;
    let errors = problem.errors(&fit.params);
    let model = problem.arch.build_with_errors(&errors)?;
    Ok(CalibrationOutcome {
        errors,
        model,
        fit_cost: fit.cost,
        initial_cost: fit.initial_cost,
        iterations: fit.iterations,
        chip_queries: plan.query_cost(),
    })
}

/// The calibration least-squares problem: the residuals
/// `|y_model(x_p; θ_s, e)|² − measured` of the model built from the flat
/// error vector `e`, over every (setting, input) pair of the plan.
struct PowerFit<'a> {
    arch: Architecture,
    plan: &'a ProbePlan,
    measured: &'a Measurements,
    n_bs: usize,
    n_ps: usize,
    k_out: usize,
    // One scratch, tape and output buffer for every model evaluation of
    // the whole fit: the probe sweeps perform no per-sample heap
    // allocation.
    scratch: NetworkScratch,
    tape: NetworkTape,
    y: CVector,
}

impl<'a> PowerFit<'a> {
    fn new(arch: Architecture, plan: &'a ProbePlan, measured: &'a Measurements) -> Self {
        let (n_bs, n_ps) = arch.error_slots();
        let k_out = arch.output_dim();
        let tape = arch.build_ideal().new_tape();
        PowerFit {
            arch,
            plan,
            measured,
            n_bs,
            n_ps,
            k_out,
            scratch: NetworkScratch::new(),
            tape,
            y: CVector::zeros(0),
        }
    }

    fn errors(&self, flat: &RVector) -> ErrorVector {
        ErrorVector::from_flat(self.n_bs, self.n_ps, flat.as_slice())
            .expect("length constructed to match")
    }

    fn model(&self, flat: &RVector) -> Network {
        self.arch
            .build_with_errors(&self.errors(flat))
            .expect("flat layout matches the architecture")
    }

    /// Runs `model` on every probe of the plan, setting by setting: the op
    /// gates are evaluated once per setting and each probe is taped on the
    /// one reused tape. Calls `f(at, θ_s, gates, tape, y, measured)` per
    /// probe, `at` being the probe's first residual index.
    fn sweep(
        &mut self,
        model: &Network,
        mut f: impl FnMut(usize, &RVector, &GatePlan, &NetworkTape, &CVector, &RVector),
    ) {
        let PowerFit {
            plan,
            measured,
            k_out,
            scratch,
            tape,
            y,
            ..
        } = self;
        let mut at = 0;
        for (s, theta) in plan.settings.iter().enumerate() {
            let gates = model.gate_plan(theta);
            for (p, x) in plan.inputs.iter().enumerate() {
                model.forward_tape_into(x, theta, &gates, scratch, y, tape);
                f(at, theta, &gates, tape, y, &measured.powers[s][p]);
                at += *k_out;
            }
        }
    }
}

/// Writes one probe's power residuals `|y_d|² − target_d` into `out`.
///
/// A dropped/NaN reading must not poison the whole fit: its residual entry
/// is zeroed, removing that detector sample from the least-squares
/// objective.
fn power_residuals(y: &CVector, target: &RVector, out: &mut [f64]) {
    for ((o, z), &t) in out.iter_mut().zip(y.iter()).zip(target.iter()) {
        let e = z.norm_sqr() - t;
        *o = if e.is_finite() { e } else { 0.0 };
    }
}

impl LeastSquares for PowerFit<'_> {
    fn residual(&mut self, flat: &RVector) -> RVector {
        let model = self.model(flat);
        let k_out = self.k_out;
        let mut r = RVector::zeros(self.plan.residual_count(k_out));
        self.sweep(&model, |at, _, _, _, y, target| {
            power_residuals(y, target, &mut r.as_mut_slice()[at..at + k_out]);
        });
        r
    }

    /// The exact Jacobian, one probe at a time: residual `|y_d|² − p_d`
    /// has the error gradient `2·Re(conj(y_d)·∂y_d/∂e)`, which is one
    /// error-parameter VJP of the cotangent `2·y_d` on detector `d` through
    /// the probe's tape. A probe's `K` detector cotangents walk its tape
    /// together as one panel ([`Network::error_vjp_panel_into`]), whose
    /// column `d` lands in Jᵀ column `at + d` directly, each error row's `K`
    /// entries side by side. A residual whose entry [`power_residuals`]
    /// zeroes (a dropped reading) keeps a zero Jacobian row, as in the
    /// forward-difference default: its column is overwritten with `+0.0`
    /// after the walk. `step` is unused.
    fn jacobian_t(&mut self, flat: &RVector, r: &RVector, _step: f64, jt: &mut RMatrix) {
        let model = self.model(flat);
        let (n, m, k_out) = (flat.len(), r.len(), self.k_out);
        jt.resize_zeroed(n, m);
        let mut panel = StatePanel::default();
        self.sweep(&model, |at, theta, gates, tape, y, target| {
            panel.reset(k_out, k_out);
            for d in 0..k_out {
                panel.set(d, d, y[d].scale(2.0));
            }
            let out = &mut jt.as_mut_slice()[at..];
            model.error_vjp_panel_into(gates, tape, theta, &mut panel, out, m);
            for d in 0..k_out {
                if !(y[d].norm_sqr() - target[d]).is_finite() {
                    out.iter_mut().skip(d).step_by(m).for_each(|j| *j = 0.0);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::evaluate_model;
    use photon_photonics::{ideal_model, Architecture, ErrorModel, FabricatedChip, ModuleSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn calibration_improves_over_ideal_model() {
        let mut rng = StdRng::seed_from_u64(11);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(2.0), &mut rng);

        let settings = CalibrationSettings {
            random_inputs: 8,
            num_settings: 3,
            lm: LmSettings { max_iters: 12 },
            ..CalibrationSettings::default()
        };
        let outcome = calibrate(&chip, &settings, &mut rng).unwrap();
        assert!(outcome.fit_cost < outcome.initial_cost);

        // Held-out fidelity: calibrated model beats the ideal model.
        let ideal = ideal_model(&arch);
        let fid_ideal = evaluate_model(&chip, &ideal, 10, 2, &mut rng);
        let fid_calib = evaluate_model(&chip, &outcome.model, 10, 2, &mut rng);
        assert!(
            fid_calib.power > fid_ideal.power,
            "calibrated {} !> ideal {}",
            fid_calib.power,
            fid_ideal.power
        );
    }

    #[test]
    fn calibration_query_accounting() {
        let mut rng = StdRng::seed_from_u64(13);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        chip.reset_query_count();
        let settings = CalibrationSettings {
            random_inputs: 4,
            num_settings: 2,
            lm: LmSettings { max_iters: 3 },
            ..CalibrationSettings::default()
        };
        let outcome = calibrate(&chip, &settings, &mut rng).unwrap();
        // All chip queries come from the measurement sweep: (4 basis + 4
        // random) × 2 settings = 16; the Gauss-Newton fit is chip-free.
        assert_eq!(outcome.chip_queries, 16);
        assert_eq!(chip.query_count(), 16);
    }

    #[test]
    fn zero_error_chip_calibrates_to_near_zero_errors() {
        let mut rng = StdRng::seed_from_u64(17);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let (n_bs, n_ps) = arch.error_slots();
        let chip = FabricatedChip::with_errors(&arch, &ErrorVector::zeros(n_bs, n_ps)).unwrap();
        let outcome = calibrate(&chip, &CalibrationSettings::default(), &mut rng).unwrap();
        // The residual at zero errors is already zero; LM stays there.
        assert!(outcome.fit_cost < 1e-15);
        let flat = outcome.errors.to_flat();
        assert!(flat.iter().all(|&e| e.abs() < 1e-6));
    }

    #[test]
    fn warm_start_recalibration_converges_faster_than_cold() {
        let mut rng = StdRng::seed_from_u64(29);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(2.0), &mut rng);
        // The prior is the chip's own oracle errors nudged slightly — the
        // situation after a short stretch of OU drift since the previous
        // calibration.
        let mut flat = chip.oracle_errors().to_flat();
        for (i, e) in flat.iter_mut().enumerate() {
            *e += 0.01 * (i as f64 * 0.7).sin();
        }
        let lm = LmSettings { max_iters: 12 };
        let plan = ProbePlan::for_chip(&chip, true, 6, 2, &mut rng);
        let measured = measure_chip(&chip, &plan, &ExecPool::serial());
        let cold =
            fit_measurements(&chip, &plan, &measured, &lm, RVector::zeros(flat.len())).unwrap();
        let warm = fit_measurements(&chip, &plan, &measured, &lm, RVector::from_vec(flat)).unwrap();
        assert!(
            warm.initial_cost < cold.initial_cost,
            "warm start must begin closer: warm {} vs cold {}",
            warm.initial_cost,
            cold.initial_cost
        );
        assert!(warm.fit_cost <= warm.initial_cost);
        assert!(warm.iterations <= cold.iterations);
    }

    #[test]
    fn recalibrate_entry_point_spends_the_probe_budget() {
        let mut rng = StdRng::seed_from_u64(31);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        chip.reset_query_count();
        let settings = CalibrationSettings {
            random_inputs: 2,
            num_settings: 2,
            lm: LmSettings { max_iters: 4 },
            ..CalibrationSettings::default()
        };
        let outcome = recalibrate(&chip, &chip.oracle_errors(), &settings, &mut rng).unwrap();
        assert_eq!(outcome.chip_queries, 12);
        assert_eq!(chip.query_count(), 12);
        // From the oracle prior the residual is already ~zero.
        assert!(outcome.initial_cost < 1e-12, "{}", outcome.initial_cost);
    }

    #[test]
    fn recalibrate_rejects_a_non_finite_prior() {
        let mut rng = StdRng::seed_from_u64(31);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        chip.reset_query_count();
        let mut prior = chip.oracle_errors();
        prior.phase[1] = f64::NAN;
        let flat_index = prior.n_beam_splitters() + prior.n_phase_shifters() + 1;
        let settings = CalibrationSettings {
            random_inputs: 2,
            num_settings: 2,
            lm: LmSettings { max_iters: 4 },
            ..CalibrationSettings::default()
        };
        match recalibrate(&chip, &prior, &settings, &mut rng) {
            Err(CalibError::NonFinitePrior { index }) => assert_eq!(index, flat_index),
            other => panic!("a NaN prior must be rejected, got {other:?}"),
        }
        assert_eq!(chip.query_count(), 0, "rejected before measuring");
    }

    /// Wraps the calibration problem with the default Jacobian: one
    /// network rebuild and full probe sweep per error parameter.
    struct RebuildOracle<'a>(PowerFit<'a>);

    impl LeastSquares for RebuildOracle<'_> {
        fn residual(&mut self, x: &RVector) -> RVector {
            self.0.residual(x)
        }
    }

    /// The exact Jᵀ agrees with the rebuild-per-column forward-difference
    /// oracle within 1e-5·max|J| through modReLU, the electro-optic
    /// activation and Reck meshes, on dual and primal plans, and a dropped
    /// (NaN) reading leaves a +0.0 Jacobian column in both.
    #[test]
    fn exact_jacobian_matches_rebuild_oracle() {
        let reck = Architecture::new(vec![
            ModuleSpec::Reck { dim: 4 },
            ModuleSpec::PhaseDiag { dim: 4 },
            ModuleSpec::ModRelu { dim: 4 },
            ModuleSpec::Reck { dim: 4 },
        ])
        .unwrap();
        let archs = [
            Architecture::two_mesh_classifier(4, 2).unwrap(),
            Architecture::two_mesh_eo_classifier(4, 2, 0.1, 1.0).unwrap(),
            reck,
        ];
        let mut rng = StdRng::seed_from_u64(37);
        for arch in archs {
            let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
            let (n_bs, n_ps) = arch.error_slots();
            let n = n_bs + 2 * n_ps;
            for num_settings in [1, 3] {
                // One setting: 24 residuals, fewer than the 52 or 80 error
                // parameters (dual path); three: 120 residuals (primal).
                let plan =
                    ProbePlan::for_chip(&chip, true, 2 * num_settings, num_settings, &mut rng);
                let m = plan.residual_count(4);
                assert_eq!(m < n, num_settings == 1, "{m} residuals, {n} errors");
                let mut measured = measure_chip(&chip, &plan, &ExecPool::serial());
                measured.powers[0][1][2] = f64::NAN;
                let x = RVector::from_vec(
                    ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(0.5), &mut rng)
                        .to_flat(),
                );
                let mut exact = PowerFit::new(arch.clone(), &plan, &measured);
                let mut oracle = RebuildOracle(PowerFit::new(arch.clone(), &plan, &measured));
                let r = exact.residual(&x);
                let mut jt = RMatrix::zeros(0, 0);
                exact.jacobian_t(&x, &r, 1e-6, &mut jt);
                let mut jt_oracle = RMatrix::zeros(0, 0);
                oracle.jacobian_t(&x, &r, 1e-6, &mut jt_oracle);
                let scale = jt.max_abs();
                let gap = (&jt - &jt_oracle).max_abs();
                assert!(scale > 0.1, "{arch:?}: max|J| = {scale}");
                assert!(
                    gap <= 1e-5 * scale,
                    "{arch:?}: |ΔJ| = {gap}, max|J| = {scale}"
                );
                // Setting 0, input 1, detector 2 is residual 1·4 + 2: its
                // column is +0.0 exactly, not the −0.0 some error terms
                // give for a zero cotangent.
                for j in [&jt, &jt_oracle] {
                    assert!(
                        (0..n).all(|k| j.row(k)[6].to_bits() == 0),
                        "NaN reading zeroed"
                    );
                }
            }
        }
    }

    #[test]
    fn budget_preset_scales() {
        let s = CalibrationSettings::with_query_budget(8, 128);
        assert!(s.num_settings >= 2);
        let sweep = (8 + s.random_inputs) * s.num_settings;
        assert!(sweep <= 160, "sweep {sweep} should be near budget");
    }

    #[test]
    fn error_display_chain() {
        let e = CalibError::from(LinalgError::Singular);
        assert!(e.to_string().contains("singular"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
