//! Bit pins of the software-model work behind calibrated LCNG: the
//! Levenberg-Marquardt calibration fit through its dual (fewer residuals
//! than error parameters) and primal paths, the fit with dropped chip
//! readings, and the batched Fisher-vector products.
//!
//! Each test hashes the exact bits of its outputs. The constants were
//! recorded by running these test bodies on the implementation that
//! evaluated every op's trigonometry afresh and rebuilt the network for
//! each finite-difference column, so a faster path that changes any bit
//! fails here. To re-record after a deliberate change, print the hashes
//! and `fit_cost.to_bits()` from the test bodies.

use rand::rngs::StdRng;
use rand::SeedableRng;

use photon_zo::calib::{calibrate, measure_chip, CalibrationSettings, LmSettings, ProbePlan};
use photon_zo::exec::ExecPool;
use photon_zo::faults::{FaultPlan, FaultyChip, TransientConfig};
use photon_zo::linalg::random::{normal_cvector, normal_rvector};
use photon_zo::photonics::{
    fisher_vector_products, Architecture, ErrorModel, ErrorVector, FabricatedChip, OnnChip,
};

/// FNV-1a over the bit patterns of `values`.
fn bits_hash(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A two-mesh 4×2 chip with β = 1 errors drawn from `seed`, plus the rng
/// positioned after the draw.
fn chip(seed: u64) -> (FabricatedChip, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let arch = Architecture::two_mesh_classifier(4, 2).unwrap();
    let (n_bs, n_ps) = arch.error_slots();
    let errors = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(1.0), &mut rng);
    (FabricatedChip::with_errors(&arch, &errors).unwrap(), rng)
}

/// Four basis and two random inputs at one setting: 24 residuals against
/// 52 error parameters.
fn dual_settings() -> CalibrationSettings {
    CalibrationSettings {
        random_inputs: 2,
        num_settings: 1,
        lm: LmSettings { max_iters: 6 },
        ..CalibrationSettings::default()
    }
}

fn error_params<C: OnnChip>(chip: &C) -> usize {
    let (n_bs, n_ps) = chip.architecture().error_slots();
    n_bs + 2 * n_ps
}

#[test]
fn calibrate_dual_path_is_bit_pinned() {
    let (chip, mut rng) = chip(5);
    let settings = dual_settings();
    assert!(24 < error_params(&chip), "fit takes the dual path");
    let out = calibrate(&chip, &settings, &mut rng).unwrap();
    assert_eq!(bits_hash(out.errors.to_flat()), 0x772635d36a4270be);
    assert_eq!(out.fit_cost.to_bits(), 0x3e0021515dd338f6);
    assert_eq!(out.iterations, 6);
}

#[test]
fn calibrate_primal_path_is_bit_pinned() {
    let (chip, mut rng) = chip(6);
    let settings = CalibrationSettings {
        lm: LmSettings { max_iters: 4 },
        ..CalibrationSettings::default()
    };
    // (4 basis + 8 random inputs) × 3 settings × 4 detectors.
    assert!(144 >= error_params(&chip), "fit takes the primal path");
    let out = calibrate(&chip, &settings, &mut rng).unwrap();
    assert_eq!(bits_hash(out.errors.to_flat()), 0xd7ba3f5c7a4b7942);
    assert_eq!(out.fit_cost.to_bits(), 0x3dea1fe0580e0477);
    assert_eq!(out.iterations, 4);
}

#[test]
fn calibrate_with_dropped_readings_is_bit_pinned() {
    let faulty = || {
        FaultyChip::new(
            chip(7).0,
            FaultPlan::new(23).with_transients(TransientConfig {
                drop_prob: 0.6,
                ..TransientConfig::default()
            }),
        )
    };
    let (_, rng) = chip(7);
    let settings = dual_settings();
    // A twin chip with fresh fault counters replays the sweep `calibrate`
    // is about to measure and shows that some readings stay NaN through
    // the retries, so the fit runs with zeroed residual entries.
    let twin = faulty();
    let plan = ProbePlan::for_chip(
        &twin,
        settings.include_basis,
        settings.random_inputs,
        settings.num_settings,
        &mut rng.clone(),
    );
    let measured = measure_chip(&twin, &plan, &ExecPool::serial());
    let dropped = measured
        .powers
        .iter()
        .flatten()
        .filter(|p| p.iter().any(|v| !v.is_finite()))
        .count();
    assert!(dropped > 0, "no reading stayed NaN");

    let out = calibrate(&faulty(), &settings, &mut rng.clone()).unwrap();
    assert!(out.fit_cost.is_finite());
    assert_eq!(bits_hash(out.errors.to_flat()), 0x7f63286a1d7d6d75);
    assert_eq!(out.fit_cost.to_bits(), 0x3c1175bfd17f5534);
    assert_eq!(out.iterations, 6);
}

#[test]
fn fisher_vector_products_are_bit_pinned() {
    let mut rng = StdRng::seed_from_u64(8);
    let arch = Architecture::two_mesh_classifier(4, 4).unwrap();
    let (n_bs, n_ps) = arch.error_slots();
    let errors = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(1.0), &mut rng);
    let net = arch.build_with_errors(&errors).unwrap();
    let mut theta = net.init_params(&mut rng);
    for k in net.module_param_range(2) {
        theta[k] = -0.05;
    }
    let inputs: Vec<_> = (0..5).map(|_| normal_cvector(4, &mut rng)).collect();
    let directions: Vec<_> = (0..3)
        .map(|_| normal_rvector(net.param_count(), &mut rng))
        .collect();
    let fv = fisher_vector_products(&net, &theta, &inputs, &directions, &ExecPool::serial());
    let hash = bits_hash(fv.iter().flat_map(|v| v.iter().copied()));
    assert_eq!(hash, 0xbad6859cb6630870);
}
