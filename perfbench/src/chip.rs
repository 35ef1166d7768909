//! A timing decorator around any [`OnnChip`].
//!
//! [`TimedChip`] forwards every trait method to the chip it wraps and
//! records one leaf span per batched forward, per-sample forward and
//! `pin_compile_base`. It adds timing and nothing else: the outputs, the
//! query count and the compiled-plan cache counters are the wrapped chip's
//! own, which `tests/decorator.rs` checks bitwise.

use std::sync::Arc;
use std::time::Instant;

use photon_linalg::{CVector, RVector};
use photon_photonics::{
    AbortFlag, Architecture, BatchScratch, CacheStats, ChipScratch, ErrorVector, Network, OnnChip,
};
use rand::Rng;

use crate::spans::Recorder;

/// Span name of one batched forward (fields or powers); `items` is the
/// batch size.
pub const BATCH: &str = "photonics.batch";
/// Span name of one per-sample forward (field or powers).
pub const SAMPLE: &str = "photonics.sample";
/// Span name of one `pin_compile_base` call.
pub const PIN: &str = "photonics.pin";

/// A chip whose measurement calls are timed into a [`Recorder`].
#[derive(Debug)]
pub struct TimedChip<C> {
    inner: C,
    rec: Arc<Recorder>,
}

impl<C: OnnChip> TimedChip<C> {
    /// Wraps `inner`; its spans go to `rec`.
    pub fn new(inner: C, rec: Arc<Recorder>) -> Self {
        TimedChip { inner, rec }
    }
}

impl<C: OnnChip> OnnChip for TimedChip<C> {
    fn architecture(&self) -> &Architecture {
        self.inner.architecture()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn init_params<R: Rng + ?Sized>(&self, rng: &mut R) -> RVector {
        self.inner.init_params(rng)
    }

    fn forward_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut ChipScratch,
    ) -> &'s CVector {
        let start = Instant::now();
        let out = self.inner.forward_into(x, theta, scratch);
        self.rec.leaf(SAMPLE, start, 1);
        out
    }

    fn forward_powers_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut ChipScratch,
    ) -> &'s RVector {
        let start = Instant::now();
        let out = self.inner.forward_powers_into(x, theta, scratch);
        self.rec.leaf(SAMPLE, start, 1);
        out
    }

    fn forward_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [CVector] {
        let start = Instant::now();
        let out = self.inner.forward_batch_into(xs, theta, scratch);
        self.rec.leaf(BATCH, start, xs.len() as u64);
        out
    }

    fn forward_powers_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [RVector] {
        let start = Instant::now();
        let out = self.inner.forward_powers_batch_into(xs, theta, scratch);
        self.rec.leaf(BATCH, start, xs.len() as u64);
        out
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }

    fn reset_query_count(&self) {
        self.inner.reset_query_count()
    }

    fn oracle_errors(&self) -> ErrorVector {
        self.inner.oracle_errors()
    }

    fn oracle_network(&self) -> Network {
        self.inner.oracle_network()
    }

    fn advance_to(&self, step: u64) {
        self.inner.advance_to(step)
    }

    fn abort_flag(&self) -> AbortFlag {
        self.inner.abort_flag()
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn pin_compile_base(&self, theta: &RVector) {
        let start = Instant::now();
        self.inner.pin_compile_base(theta);
        self.rec.leaf(PIN, start, 1);
    }

    fn pinned_theta(&self) -> Option<RVector> {
        self.inner.pinned_theta()
    }
}
