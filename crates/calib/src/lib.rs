//! # photon-calib
//!
//! Black-box chip calibration: estimating the hidden fabrication errors of a
//! [`photon_photonics::FabricatedChip`] from input/output power measurements
//! — the "Calibrated Model" of the paper's title.
//!
//! The pipeline:
//!
//! 1. [`ProbePlan`] drives the chip with basis + Haar-random inputs at
//!    several random phase settings (each pair = one chip query);
//! 2. [`calibrate`] fits the model's per-component error vector by damped
//!    Gauss-Newton ([`levenberg_marquardt`]) on the power residuals — the
//!    fit runs entirely on the free software model;
//! 3. [`evaluate_model`] scores the result on held-out probes
//!    (field/power fidelity), and `ErrorVector::rmse` against
//!    `FabricatedChip::oracle_errors` scores parameter recovery.
//!
//! The calibrated model then supplies the Fisher metric for the LCNG
//! optimizer in `photon-opt`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calibrator;
mod fidelity;
mod gauss_newton;
mod probe;

pub use calibrator::{
    calibrate, calibrate_traced, recalibrate, CalibError, CalibrationOutcome, CalibrationSettings,
};
pub use fidelity::{evaluate_model, field_fidelity, power_fidelity, FidelityReport};
pub use gauss_newton::{levenberg_marquardt, LmResult, LmSettings};
pub use probe::{measure_chip, Measurements, ProbePlan};
