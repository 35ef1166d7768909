//! Calibration probe generation: the optical inputs and phase settings the
//! calibrator drives the chip with.

use rand::Rng;

use photon_exec::ExecPool;
use photon_linalg::random::random_unit_cvector;
use photon_linalg::{CVector, RVector};

use photon_photonics::{BatchScratch, ChipScratch, OnnChip};

/// Number of probe inputs measured per batched chip read.
///
/// Fixed (never derived from the pool size) so the work items handed to the
/// pool are identical for every pool size, keeping the sweep bitwise
/// pool-size-invariant on noise-free chips.
const INPUT_BLOCK: usize = 32;

/// A calibration probe plan: input vectors × phase settings.
///
/// Each `(input, setting)` pair costs one chip query when measured. Basis
/// inputs localize errors to optical paths; random superposition inputs
/// constrain relative phases; multiple phase settings disambiguate
/// parameter-dependent from parameter-independent effects.
#[derive(Debug, Clone)]
pub struct ProbePlan {
    /// Optical input vectors.
    pub inputs: Vec<CVector>,
    /// Phase-parameter settings the chip is programmed to.
    pub settings: Vec<RVector>,
}

impl ProbePlan {
    /// Builds a plan for `chip`: all `K` basis inputs (when
    /// `include_basis`), `random_inputs` Haar-random unit inputs, and
    /// `num_settings` random phase settings drawn from the standard
    /// initialization distribution.
    ///
    /// # Panics
    ///
    /// Panics when the plan would be empty.
    pub fn for_chip<C: OnnChip, R: Rng + ?Sized>(
        chip: &C,
        include_basis: bool,
        random_inputs: usize,
        num_settings: usize,
        rng: &mut R,
    ) -> Self {
        assert!(num_settings > 0, "need at least one phase setting");
        let k = chip.input_dim();
        let mut inputs = Vec::new();
        if include_basis {
            for i in 0..k {
                inputs.push(CVector::basis(k, i));
            }
        }
        for _ in 0..random_inputs {
            inputs.push(random_unit_cvector(k, rng));
        }
        assert!(!inputs.is_empty(), "probe plan needs at least one input");
        let settings = (0..num_settings).map(|_| chip.init_params(rng)).collect();
        ProbePlan { inputs, settings }
    }

    /// Total chip queries one measurement sweep costs.
    pub fn query_cost(&self) -> usize {
        self.inputs.len() * self.settings.len()
    }

    /// Number of scalar power residuals the plan produces for a chip with
    /// `output_dim` detectors.
    pub fn residual_count(&self, output_dim: usize) -> usize {
        self.query_cost() * output_dim
    }
}

/// The measured chip responses for a [`ProbePlan`]: per-setting, per-input
/// output power vectors, flattened in plan order.
#[derive(Debug, Clone)]
pub struct Measurements {
    /// `powers[s][p]` = detector powers for setting `s`, input `p`.
    pub powers: Vec<Vec<RVector>>,
}

/// Runs the plan against the chip with `(setting, input-block)` sweeps
/// fanned out over `pool`, consuming `plan.query_cost()` queries.
///
/// Each work item measures one phase setting on a fixed block of 32 probe
/// inputs (`INPUT_BLOCK`) through [`OnnChip::forward_powers_batch_into`], so
/// compiled chips pay one unitary compile per block instead of one
/// interpreted op walk per probe. Results come back in plan order regardless of pool size.
/// For noise-free chips the powers are bitwise identical for every pool
/// size. Noisy chips draw from a shared noise stream, so only the
/// [`ExecPool::serial`] sweep draws that noise in plan order; larger pools
/// preserve its distribution only.
///
/// A non-finite power reading (a dropped read on a faulty chip) is
/// re-measured individually up to three times; if it stays non-finite the
/// reading is recorded as-is and the calibrator's residual zeroes it out of
/// the fit.
pub fn measure_chip<C: OnnChip>(chip: &C, plan: &ProbePlan, pool: &ExecPool) -> Measurements {
    let input_idx: Vec<usize> = (0..plan.inputs.len()).collect();
    let items: Vec<(usize, &[usize])> = (0..plan.settings.len())
        .flat_map(|s| input_idx.chunks(INPUT_BLOCK).map(move |block| (s, block)))
        .collect();
    let mut flat = pool
        .map_with(
            &items,
            || (BatchScratch::new(), ChipScratch::new()),
            |(batch, single), _, &(s, block)| {
                let theta = &plan.settings[s];
                let xs: Vec<&CVector> = block.iter().map(|&p| &plan.inputs[p]).collect();
                let batched = chip.forward_powers_batch_into(&xs, theta, batch);
                let mut out: Vec<RVector> = batched.to_vec();
                for (powers, &p) in out.iter_mut().zip(block.iter()) {
                    let mut attempts = 0;
                    while !powers.iter().all(|v| v.is_finite()) && attempts < 3 {
                        powers
                            .copy_from(chip.forward_powers_into(&plan.inputs[p], theta, single));
                        attempts += 1;
                    }
                }
                out
            },
        )
        .into_iter()
        .flatten();
    let powers = (0..plan.settings.len())
        .map(|_| (&mut flat).take(plan.inputs.len()).collect())
        .collect();
    Measurements { powers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_photonics::{Architecture, ErrorModel, FabricatedChip};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chip() -> (FabricatedChip, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        (chip, rng)
    }

    #[test]
    fn plan_shapes() {
        let (chip, mut rng) = chip();
        let plan = ProbePlan::for_chip(&chip, true, 3, 2, &mut rng);
        assert_eq!(plan.inputs.len(), 4 + 3);
        assert_eq!(plan.settings.len(), 2);
        assert_eq!(plan.query_cost(), 14);
        assert_eq!(plan.residual_count(4), 56);
        // All inputs unit power.
        for x in &plan.inputs {
            assert!((x.norm() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn measurement_counts_queries() {
        let (chip, mut rng) = chip();
        let plan = ProbePlan::for_chip(&chip, true, 2, 3, &mut rng);
        chip.reset_query_count();
        let meas = measure_chip(&chip, &plan, &ExecPool::serial());
        assert_eq!(chip.query_count() as usize, plan.query_cost());
        assert_eq!(meas.powers.len(), 3);
        assert_eq!(meas.powers[0].len(), 6);
        assert_eq!(meas.powers[0][0].len(), 4);
    }

    #[test]
    fn powers_are_physical() {
        let (chip, mut rng) = chip();
        let plan = ProbePlan::for_chip(&chip, true, 4, 2, &mut rng);
        let meas = measure_chip(&chip, &plan, &ExecPool::serial());
        for setting in &meas.powers {
            for p in setting {
                // Non-negative and total power ≤ input power (attenuation only).
                assert!(p.iter().all(|&v| v >= 0.0));
                assert!(p.sum() <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn sweep_is_bitwise_identical_across_pool_sizes() {
        let (chip, mut rng) = chip();
        let plan = ProbePlan::for_chip(&chip, true, 3, 2, &mut rng);
        let serial = measure_chip(&chip, &plan, &ExecPool::serial());
        for threads in [2usize, 4, 8] {
            let pooled = measure_chip(&chip, &plan, &ExecPool::new(threads));
            assert_eq!(pooled.powers.len(), serial.powers.len());
            for (ps, ss) in pooled.powers.iter().zip(&serial.powers) {
                assert_eq!(ps.len(), ss.len());
                for (p, s) in ps.iter().zip(ss) {
                    for (a, b) in p.iter().zip(s.iter()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn empty_plan_rejected() {
        let (chip, mut rng) = chip();
        let _ = ProbePlan::for_chip(&chip, false, 0, 1, &mut rng);
    }
}
