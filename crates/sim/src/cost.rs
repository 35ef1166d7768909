//! The service-time model.
//!
//! The simulator does not execute forwards while simulating — it charges
//! each dispatch a virtual duration from this model, whose constants are
//! set by hand (see [`CostModel::calibrated_8x8`] for where they came from
//! and how far they sit from the measured pinned serve). A dispatch of `b`
//! coalesced requests costs
//!
//! ```text
//! service_ns(b) = compile_ns + b · per_sample_ns   (+ hang_ns, rarely)
//! ```
//!
//! i.e. a fixed per-call cost (plan setup + the compiled-unitary walk /
//! pin commit) amortized over the batch, plus a linear per-sample GEMM
//! cost. That two-term shape is exactly why microbatch coalescing pays:
//! at `b = 1` every request carries the full per-call cost, at `b = 16`
//! it carries 1/16th of it.

use photon_farm::ServingTier;
use rand::rngs::StdRng;
use rand::Rng;

/// Virtual-time cost model for one worker serving one chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost per `forward_batch_into` call (plan setup, pinned-base
    /// commit / compiled walk), in virtual nanoseconds.
    pub compile_ns: u64,
    /// Incremental cost per request in a batch (multi-RHS GEMM column),
    /// in virtual nanoseconds.
    pub per_sample_ns: u64,
    /// Cost of one background recalibration pass (it owns the worker for
    /// the duration), in virtual nanoseconds.
    pub recal_service_ns: u64,
    /// Cost of one piggybacked calibration probe — a single-input
    /// measurement against the live chip, dispatched into an idle
    /// microbatch slot — in virtual nanoseconds.
    pub probe_service_ns: u64,
    /// Probability that a dispatch trips a fault-induced lab-link hang.
    pub hang_prob: f64,
    /// Extra latency a hang adds to the dispatch it strikes.
    pub hang_ns: u64,
}

impl CostModel {
    /// Hand-set constants for the 8x8 Clements mesh: 7_400 ns per call
    /// plus 250 ns per request. They were read off an early
    /// `BENCH_gemm.json` arm that recompiles the mesh on every call (32
    /// probe compiles × 16-sample batches ≈ 11_400 ns per call); the pinned
    /// serve the simulator stands for recompiles nothing, and
    /// `BENCH_serving.json`'s `measured` block times it at a few hundred ns
    /// for a whole batch-1 call. See DESIGN.md "Serving simulator & cost
    /// model".
    pub fn calibrated_8x8() -> Self {
        CostModel {
            compile_ns: 7_400,
            per_sample_ns: 250,
            recal_service_ns: 2_000_000,
            // One probe = one fresh compile at the probe setting plus one
            // sample: the same two-term shape as service_ns(1).
            probe_service_ns: 7_650,
            hang_prob: 0.0,
            hang_ns: 0,
        }
    }

    /// Adds fault-induced hangs: each dispatch independently stalls an
    /// extra `hang_ns` with probability `prob` (mirrors the lab-link hang
    /// model in `photon-faults`, at dispatch granularity).
    #[must_use]
    pub fn with_hangs(mut self, prob: f64, hang_ns: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "hang probability {prob}");
        self.hang_prob = prob;
        self.hang_ns = hang_ns;
        self
    }

    /// Virtual service time of one coalesced dispatch of `batch` requests,
    /// excluding hangs.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch.
    pub fn service_ns(&self, batch: usize) -> u64 {
        assert!(batch >= 1, "cannot serve an empty batch");
        self.compile_ns + batch as u64 * self.per_sample_ns
    }

    /// Draws whether a dispatch hangs, from the caller's dedicated service
    /// RNG stream. Returns the extra nanoseconds (0 almost always).
    pub fn draw_hang_ns(&self, rng: &mut StdRng) -> u64 {
        if self.hang_prob > 0.0 && rng.gen::<f64>() < self.hang_prob {
            self.hang_ns
        } else {
            0
        }
    }
}

/// Tiered extension of [`CostModel`]: the same two-term dispatch cost,
/// divided by a per-tier speedup factor for the brownout ladder the
/// controller walks (`f64 → f32 → i16`, see [`ServingTier`]).
///
/// The f64 tier is the base model verbatim. The two factors, 3.5 for f32
/// and 5.0 for i16, are unmeasured stand-ins: no path serves an f32 or an
/// i16 batch, so neither rung has a number to measure.
/// `BENCH_simd.json`'s `serve` rows time the one serve that runs, the
/// pinned f64 serve on an 8×8 chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierCostModel {
    /// The f64 (full-precision) base model; hangs and recal/probe costs
    /// come from here for every tier.
    pub base: CostModel,
    /// Speedup of the f32 tier over the base.
    pub f32_speedup: f64,
    /// Speedup of the i16 quantized tier over the base.
    pub i16_speedup: f64,
}

impl TierCostModel {
    /// The 8×8 ladder (see the type-level docs for provenance).
    pub fn calibrated_8x8() -> Self {
        TierCostModel {
            base: CostModel::calibrated_8x8(),
            f32_speedup: 3.5,
            i16_speedup: 5.0,
        }
    }

    /// Virtual service time of one dispatch of `batch` requests at `tier`,
    /// excluding hangs. Integer division of the base cost keeps the result
    /// exactly reproducible across hosts; the cost never rounds below 1 ns.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch.
    pub fn service_ns(&self, tier: ServingTier, batch: usize) -> u64 {
        let base = self.base.service_ns(batch);
        let factor = match tier {
            ServingTier::F64 => return base,
            ServingTier::F32 => self.f32_speedup,
            ServingTier::I16 => self.i16_speedup,
        };
        // Scale in integer nanoseconds via a fixed-point factor so the
        // division is bit-exact everywhere.
        let scaled = (base as u128 * 1_000) / (factor * 1_000.0) as u128;
        (scaled as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn tiers_get_monotonically_cheaper() {
        let m = TierCostModel::calibrated_8x8();
        for batch in [1usize, 4, 16, 64] {
            let f64c = m.service_ns(ServingTier::F64, batch);
            let f32c = m.service_ns(ServingTier::F32, batch);
            let i16c = m.service_ns(ServingTier::I16, batch);
            assert!(
                f64c > f32c && f32c > i16c,
                "{f64c} > {f32c} > {i16c} at batch {batch}"
            );
            assert_eq!(
                f64c,
                m.base.service_ns(batch),
                "f64 tier is the base verbatim"
            );
        }
        // The f32 stand-in factor divides the base cost in integer ns.
        let b16 = m.base.service_ns(16);
        assert_eq!(m.service_ns(ServingTier::F32, 16), b16 * 1_000 / 3_500);
        // Degenerate costs never round to zero virtual time.
        let tiny = TierCostModel {
            base: CostModel {
                compile_ns: 1,
                per_sample_ns: 0,
                recal_service_ns: 1,
                probe_service_ns: 1,
                hang_prob: 0.0,
                hang_ns: 0,
            },
            ..m
        };
        assert_eq!(tiny.service_ns(ServingTier::I16, 1), 1);
    }

    #[test]
    fn batch_amortizes_the_per_call_cost() {
        let m = CostModel::calibrated_8x8();
        let single = m.service_ns(1);
        let batch16 = m.service_ns(16);
        // 16 uncoalesced dispatches pay the per-call cost 16 times.
        assert!(16 * single > 2 * batch16, "{single} vs {batch16}");
        // Per-request cost shrinks monotonically with batch size.
        assert!(batch16 / 16 < single);
        assert_eq!(single, m.compile_ns + m.per_sample_ns);
        assert_eq!(batch16, m.compile_ns + 16 * m.per_sample_ns);
    }

    #[test]
    fn hang_draws_follow_probability_and_seed() {
        let m = CostModel::calibrated_8x8().with_hangs(0.25, 1_000_000);
        let mut rng = StdRng::seed_from_u64(7);
        let hangs = (0..10_000).filter(|_| m.draw_hang_ns(&mut rng) > 0).count();
        assert!((2_000..3_000).contains(&hangs), "got {hangs} hangs");
        // Same seed → identical hang pattern.
        let pattern = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100)
                .map(|_| m.draw_hang_ns(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(pattern(3), pattern(3));
        // Zero probability never consumes entropy pathologically.
        let none = CostModel::calibrated_8x8();
        assert_eq!(none.draw_hang_ns(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn zero_batch_rejected() {
        let _ = CostModel::calibrated_8x8().service_ns(0);
    }
}
