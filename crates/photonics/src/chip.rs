//! The black-box chip abstraction.
//!
//! A [`FabricatedChip`] wraps a [`Network`] whose fabrication errors were
//! sampled at "fabrication time" and are *hidden* from training algorithms:
//! the public surface exposes only forward evaluations (optical field or
//! detector powers) and a query counter — exactly what a physical chip in
//! the lab offers. The gradient-free optimizers in `photon-opt` and the
//! calibrator in `photon-calib` interact with the chip solely through this
//! surface.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use photon_linalg::random::standard_normal;
use photon_linalg::{CVector, RVector, C64};

use crate::compiled::{CacheStats, CompiledNetwork, PinnedBase};
use crate::error::{ErrorModel, ErrorVector};
use crate::network::{Architecture, Network, NetworkError, NetworkScratch};

/// Reusable buffers for the allocation-free chip measurement paths
/// ([`FabricatedChip::forward_into`],
/// [`FabricatedChip::forward_powers_into`]).
///
/// One scratch belongs to one evaluation thread: build it once, then reuse
/// it for every measurement. After the first call at a given architecture no
/// heap allocation is performed.
#[derive(Debug, Clone, Default)]
pub struct ChipScratch {
    net: NetworkScratch,
    theta_eff: RVector,
    out: CVector,
    powers: RVector,
}

impl ChipScratch {
    /// An empty scratch; buffers grow to the chip's dimensions on first use.
    pub fn new() -> Self {
        ChipScratch::default()
    }

    /// Mutable access to the field-readout buffer the last
    /// [`OnnChip::forward_into`] wrote. Fault layers use this to corrupt a
    /// reading in place after the underlying chip produced it.
    pub fn field_mut(&mut self) -> &mut CVector {
        &mut self.out
    }

    /// Mutable access to the power-readout buffer the last
    /// [`OnnChip::forward_powers_into`] wrote. Fault layers use this to
    /// corrupt a reading in place after the underlying chip produced it.
    pub fn powers_mut(&mut self) -> &mut RVector {
        &mut self.powers
    }
}

/// Reusable buffers for the batched chip measurement paths
/// ([`OnnChip::forward_batch_into`],
/// [`OnnChip::forward_powers_batch_into`]).
///
/// Owns the [`CompiledNetwork`] plan (cached compiled unitaries), the
/// per-sample output buffers, and an inner [`ChipScratch`] used by
/// decorators and default implementations that fall back to per-sample
/// evaluation. One scratch belongs to one evaluation thread; after the
/// first batch at fixed dimensions no heap allocation is performed.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    plan: CompiledNetwork,
    theta_eff: RVector,
    fields: Vec<CVector>,
    powers: Vec<RVector>,
    chip: ChipScratch,
}

impl BatchScratch {
    /// An empty scratch; buffers grow to the chip's dimensions on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// Mutable access to the per-sample field buffers the last
    /// [`OnnChip::forward_batch_into`] wrote (may be longer than the last
    /// batch; entry `b` holds sample `b`). Fault layers use this to corrupt
    /// readings in place after the underlying chip produced them.
    pub fn fields_mut(&mut self) -> &mut [CVector] {
        &mut self.fields
    }

    /// Mutable access to the per-sample power buffers the last
    /// [`OnnChip::forward_powers_batch_into`] wrote. Fault layers use this
    /// to corrupt readings in place after the underlying chip produced them.
    pub fn powers_mut(&mut self) -> &mut [RVector] {
        &mut self.powers
    }

    /// Recompile count of the owned compiled plan — see
    /// [`CompiledNetwork::generation`].
    pub fn generation(&self) -> u64 {
        self.plan.generation()
    }
}

/// A shared cooperative-cancellation flag for in-flight chip queries.
///
/// A watchdog raises the flag from another thread when a query blows its
/// deadline; a chip whose measurement path can block (e.g. a fault injector
/// simulating a hung readout) polls it and bails out with a poisoned
/// reading instead of blocking forever. Cloning shares the underlying flag.
#[derive(Debug, Clone, Default)]
pub struct AbortFlag(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl AbortFlag {
    /// A fresh, lowered flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag: pending blockable queries should give up promptly.
    pub fn raise(&self) {
        self.0.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Lowers the flag (e.g. before retrying after a timeout).
    pub fn clear(&self) {
        self.0.store(false, std::sync::atomic::Ordering::SeqCst);
    }

    /// Whether the flag is currently raised.
    pub fn is_raised(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }
}

/// The black-box chip interface all training, calibration and fault-layer
/// code is written against.
///
/// [`FabricatedChip`] is the baseline implementation; wrappers (e.g. the
/// fault injector in `photon-faults`) decorate another `OnnChip` while
/// keeping the same measurement surface. The trait uses generic methods and
/// is therefore consumed through generics (`C: OnnChip`), not trait objects.
pub trait OnnChip: Sync {
    /// The chip's architecture (the netlist is public, the errors are not).
    fn architecture(&self) -> &Architecture;

    /// Number of input waveguides.
    fn input_dim(&self) -> usize;

    /// Number of output waveguides.
    fn output_dim(&self) -> usize;

    /// Number of programmable parameters.
    fn param_count(&self) -> usize;

    /// Draws the standard initial parameter vector for this architecture.
    fn init_params<R: Rng + ?Sized>(&self, rng: &mut R) -> RVector;

    /// Programs the phases to `theta` and measures the output *field* for
    /// input `x`, writing into caller-owned scratch. Counts one chip query.
    fn forward_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut ChipScratch,
    ) -> &'s CVector;

    /// Programs the phases to `theta` and measures the per-port output
    /// *powers*, writing into caller-owned scratch. Counts one chip query.
    fn forward_powers_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut ChipScratch,
    ) -> &'s RVector;

    /// Programs the phases to `theta` once and measures the output *fields*
    /// for a whole batch of inputs, counting `xs.len()` chip queries.
    /// Returns one output vector per input, in order.
    ///
    /// The default falls back to per-sample [`OnnChip::forward_into`] calls
    /// — bitwise-identical to a caller-side loop, so decorators that only
    /// override the per-sample path keep their exact semantics.
    /// [`FabricatedChip`] overrides this with the compiled-plan GEMM path,
    /// which matches the interpreted walk to rounding (≤1e-12) but not
    /// bitwise.
    fn forward_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [CVector] {
        if scratch.fields.len() < xs.len() {
            scratch.fields.resize_with(xs.len(), CVector::default);
        }
        let BatchScratch { fields, chip, .. } = scratch;
        for (slot, x) in fields.iter_mut().zip(xs.iter()) {
            slot.copy_from(self.forward_into(x, theta, chip));
        }
        &scratch.fields[..xs.len()]
    }

    /// Programs the phases to `theta` once and measures the per-port output
    /// *powers* for a whole batch of inputs, counting `xs.len()` chip
    /// queries. Returns one power vector per input, in order.
    ///
    /// Default and override semantics mirror
    /// [`OnnChip::forward_batch_into`].
    fn forward_powers_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [RVector] {
        if scratch.powers.len() < xs.len() {
            scratch.powers.resize_with(xs.len(), RVector::default);
        }
        let BatchScratch { powers, chip, .. } = scratch;
        for (slot, x) in powers.iter_mut().zip(xs.iter()) {
            slot.copy_from(self.forward_powers_into(x, theta, chip));
        }
        &scratch.powers[..xs.len()]
    }

    /// Allocating convenience wrapper over [`OnnChip::forward_into`].
    fn forward(&self, x: &CVector, theta: &RVector) -> CVector {
        let mut scratch = ChipScratch::new();
        self.forward_into(x, theta, &mut scratch).clone()
    }

    /// Allocating convenience wrapper over
    /// [`OnnChip::forward_powers_into`].
    fn forward_powers(&self, x: &CVector, theta: &RVector) -> RVector {
        let mut scratch = ChipScratch::new();
        self.forward_powers_into(x, theta, &mut scratch).clone()
    }

    /// Total number of forward queries issued so far.
    fn query_count(&self) -> u64;

    /// Resets the query counter (e.g. between experiment phases).
    fn reset_query_count(&self);

    /// **Oracle access** to the hidden error assignment (scoring only).
    fn oracle_errors(&self) -> ErrorVector;

    /// **Oracle access** to a white-box clone of the chip's true network
    /// (upper-bound baselines only).
    fn oracle_network(&self) -> Network;

    /// Advances time-dependent chip state (thermal drift, fault schedules)
    /// to logical step `step`.
    ///
    /// Called once per training iteration from a *serial* control point so
    /// that slow state evolves identically regardless of how the iteration's
    /// measurements are scheduled across worker threads. Static chips ignore
    /// it.
    fn advance_to(&self, step: u64) {
        let _ = step;
    }

    /// The chip's cooperative-cancellation flag, shared with watchdogs.
    ///
    /// Chips whose measurement path can block override this to hand out
    /// their real flag; the default returns a fresh disconnected flag, so
    /// raising it is a harmless no-op on chips that never block.
    fn abort_flag(&self) -> AbortFlag {
        AbortFlag::new()
    }

    /// Aggregate compiled-plan cache counters across every batched
    /// evaluation this chip served (per-worker plans are transient, so the
    /// chip is the only place their counters survive). Chips without a
    /// compiled path report zeros.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Compiles and installs a shared pinned base at `theta`, so that
    /// subsequent batched evaluations whose theta differs from `theta` in
    /// only a few phases (ZO coordinate probes) are served by `O(N²)`
    /// incremental rank-1 updates instead of full mesh recompiles.
    ///
    /// Like [`OnnChip::advance_to`], call this only from a *serial* control
    /// point (the trainer does, once per iteration): the pin is shared by
    /// every worker, and every serve is a pure function of the pin and the
    /// request theta, which preserves pool-size determinism. Chips without
    /// a compiled path ignore it.
    fn pin_compile_base(&self, theta: &RVector) {
        let _ = theta;
    }

    /// The logical theta currently deployed via
    /// [`pin_compile_base`](Self::pin_compile_base), or `None` when the
    /// chip has no pin (including chips that ignore pinning entirely).
    ///
    /// Wrapper chips report the theta *they* were pinned with, not
    /// whatever transformed phases they forwarded to an inner chip.
    fn pinned_theta(&self) -> Option<RVector> {
        None
    }
}

/// Optional measurement-noise model of the chip's readout chain.
///
/// Real labs never see noiseless detector values; this model adds
/// signal-dependent shot noise plus a noise floor to power readouts and
/// complex Gaussian noise to coherent field readouts. ZO training must
/// remain functional under it (the difference quotients become noisy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementNoise {
    /// Shot-noise coefficient: power readouts get `σ_shot·√p·r` added.
    pub shot: f64,
    /// Additive noise floor on power readouts.
    pub floor: f64,
    /// Per-quadrature standard deviation of coherent field readout noise.
    pub field: f64,
}

impl MeasurementNoise {
    /// A realistic mild-readout-noise preset.
    pub fn realistic() -> Self {
        MeasurementNoise {
            shot: 5e-3,
            floor: 1e-4,
            field: 2e-3,
        }
    }
}

/// Thread-safe aggregate of [`CacheStats`] deltas from transient
/// per-worker compiled plans.
#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    incremental: AtomicU64,
    forced_recompiles: AtomicU64,
}

impl CacheCounters {
    fn add(&self, d: CacheStats) {
        if d.hits > 0 {
            self.hits.fetch_add(d.hits, Ordering::Relaxed);
        }
        if d.misses > 0 {
            self.misses.fetch_add(d.misses, Ordering::Relaxed);
        }
        if d.invalidations > 0 {
            self.invalidations.fetch_add(d.invalidations, Ordering::Relaxed);
        }
        if d.incremental > 0 {
            self.incremental.fetch_add(d.incremental, Ordering::Relaxed);
        }
        if d.forced_recompiles > 0 {
            self.forced_recompiles
                .fetch_add(d.forced_recompiles, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            incremental: self.incremental.load(Ordering::Relaxed),
            forced_recompiles: self.forced_recompiles.load(Ordering::Relaxed),
        }
    }
}

/// A simulated fabricated ONN chip with hidden fabrication errors.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use photon_linalg::CVector;
/// use photon_photonics::{Architecture, ErrorModel, FabricatedChip};
///
/// let arch = Architecture::single_mesh(4, 4)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
///
/// let theta = chip.init_params(&mut rng);
/// let y = chip.forward(&CVector::basis(4, 0), &theta);
/// assert_eq!(y.len(), 4);
/// assert_eq!(chip.query_count(), 1);
/// # Ok::<(), photon_photonics::NetworkError>(())
/// ```
#[derive(Debug)]
pub struct FabricatedChip {
    network: Network,
    queries: AtomicU64,
    cache: CacheCounters,
    noise: Option<MeasurementNoise>,
    noise_rng: Mutex<StdRng>,
    crosstalk: f64,
    pinned: Mutex<Option<Arc<PinnedBase>>>,
    /// The *raw* deployment theta the pin was compiled from. The pin itself
    /// stores post-crosstalk effective phases; serving must re-enter through
    /// the raw theta so crosstalk is resolved exactly once.
    pinned_theta: Mutex<Option<RVector>>,
    fast32: bool,
}

impl FabricatedChip {
    /// "Fabricates" a chip: samples an error assignment from `model` and
    /// bakes it into the architecture.
    ///
    /// # Panics
    ///
    /// Never panics for architectures produced by [`Architecture::new`]
    /// (slot counts always match the freshly sampled error vector).
    pub fn fabricate<R: Rng + ?Sized>(
        arch: &Architecture,
        model: &ErrorModel,
        rng: &mut R,
    ) -> Self {
        let (n_bs, n_ps) = arch.error_slots();
        let errors = ErrorVector::sample(n_bs, n_ps, model, rng);
        let network = arch
            .build_with_errors(&errors)
            .expect("sampled error vector always matches the architecture");
        FabricatedChip {
            network,
            queries: AtomicU64::new(0),
            cache: CacheCounters::default(),
            noise: None,
            noise_rng: Mutex::new(StdRng::seed_from_u64(rng.gen())),
            crosstalk: 0.0,
            pinned: Mutex::new(None),
            pinned_theta: Mutex::new(None),
            fast32: false,
        }
    }

    /// Wraps an explicit error assignment (useful in tests and when
    /// replaying a known chip).
    ///
    /// # Errors
    ///
    /// [`NetworkError::ErrorSlotMismatch`] when `errors` does not match the
    /// architecture.
    pub fn with_errors(arch: &Architecture, errors: &ErrorVector) -> Result<Self, NetworkError> {
        Ok(FabricatedChip {
            network: arch.build_with_errors(errors)?,
            queries: AtomicU64::new(0),
            cache: CacheCounters::default(),
            noise: None,
            noise_rng: Mutex::new(StdRng::seed_from_u64(0)),
            crosstalk: 0.0,
            pinned: Mutex::new(None),
            pinned_theta: Mutex::new(None),
            fast32: false,
        })
    }

    /// Switches the batched measurement paths onto the opt-in f32
    /// structure-of-arrays GEMM kernels (AVX2/NEON dispatched — see
    /// `photon_linalg::kernel_tier`). Off by default: the f64 path stays
    /// the oracle, and training-grade equivalence (≤1e-12 vs the
    /// interpreted walk) only holds with this disabled. Enable for serving
    /// and evaluation traffic where ≤1e-5 relative loss error is
    /// acceptable.
    pub fn with_f32_fast_path(mut self) -> Self {
        self.fast32 = true;
        self
    }

    /// Enables nearest-neighbour thermal heater crosstalk: every
    /// measurement uses the effective phases
    /// `θ_eff = θ + coupling·(chain neighbours)` — see
    /// [`Network::apply_thermal_crosstalk_into`].
    ///
    /// Crosstalk is an *unmodeled* error: the [`Architecture`] error family
    /// (γ, ζ) cannot represent it, so even a perfectly calibrated model
    /// remains wrong about the chip. Use it to study robustness of
    /// chip-in-the-loop methods against model mismatch.
    pub fn with_thermal_crosstalk(mut self, coupling: f64) -> Self {
        self.crosstalk = coupling;
        self
    }

    /// Enables readout noise on every subsequent measurement, seeded for
    /// reproducibility.
    pub fn with_measurement_noise(mut self, noise: MeasurementNoise, seed: u64) -> Self {
        self.noise = Some(noise);
        self.noise_rng = Mutex::new(StdRng::seed_from_u64(seed));
        self
    }

    /// The chip's architecture (public: the designer knows the netlist, just
    /// not the per-component errors).
    pub fn architecture(&self) -> &Architecture {
        self.network.architecture()
    }

    /// Number of input waveguides.
    pub fn input_dim(&self) -> usize {
        self.network.input_dim()
    }

    /// Number of output waveguides.
    pub fn output_dim(&self) -> usize {
        self.network.output_dim()
    }

    /// Number of programmable parameters.
    pub fn param_count(&self) -> usize {
        self.network.param_count()
    }

    /// Draws the standard initial parameter vector for this architecture.
    pub fn init_params<R: Rng + ?Sized>(&self, rng: &mut R) -> RVector {
        self.network.init_params(rng)
    }

    /// Programs the phases to `theta` and measures the output *field* for
    /// input `x` (coherent detection). Counts one chip query.
    ///
    /// # Panics
    ///
    /// Panics on input/parameter shape mismatch.
    pub fn forward(&self, x: &CVector, theta: &RVector) -> CVector {
        let mut scratch = ChipScratch::new();
        self.forward_into(x, theta, &mut scratch).clone()
    }

    /// Allocation-free variant of [`FabricatedChip::forward`] writing into
    /// caller-owned scratch buffers. Counts one chip query.
    ///
    /// # Panics
    ///
    /// Panics on input/parameter shape mismatch.
    pub fn forward_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut ChipScratch,
    ) -> &'s CVector {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let ChipScratch {
            net,
            theta_eff,
            out,
            ..
        } = scratch;
        let th = if self.crosstalk == 0.0 {
            theta
        } else {
            self.network
                .apply_thermal_crosstalk_into(theta, self.crosstalk, theta_eff);
            &*theta_eff
        };
        out.copy_from(self.network.forward_into(x, th, net));
        if let Some(noise) = self.noise {
            let mut rng = self.noise_rng.lock();
            for v in out.iter_mut() {
                *v += C64::new(
                    noise.field * standard_normal(&mut *rng),
                    noise.field * standard_normal(&mut *rng),
                );
            }
        }
        out
    }

    /// Programs the phases to `theta` and measures the per-port output
    /// *powers* (photodetector array). Counts one chip query.
    ///
    /// # Panics
    ///
    /// Panics on input/parameter shape mismatch.
    pub fn forward_powers(&self, x: &CVector, theta: &RVector) -> RVector {
        let mut scratch = ChipScratch::new();
        self.forward_powers_into(x, theta, &mut scratch).clone()
    }

    /// Allocation-free variant of [`FabricatedChip::forward_powers`] writing
    /// into caller-owned scratch buffers. Counts one chip query.
    ///
    /// # Panics
    ///
    /// Panics on input/parameter shape mismatch.
    pub fn forward_powers_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut ChipScratch,
    ) -> &'s RVector {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let ChipScratch {
            net,
            theta_eff,
            powers,
            ..
        } = scratch;
        let th = if self.crosstalk == 0.0 {
            theta
        } else {
            self.network
                .apply_thermal_crosstalk_into(theta, self.crosstalk, theta_eff);
            &*theta_eff
        };
        let y = self.network.forward_into(x, th, net);
        powers.resize_zeroed(y.len());
        for (p, z) in powers.iter_mut().zip(y.iter()) {
            *p = z.norm_sqr();
        }
        if let Some(noise) = self.noise {
            let mut rng = self.noise_rng.lock();
            for p in powers.iter_mut() {
                *p = (*p
                    + noise.shot * p.sqrt() * standard_normal(&mut *rng)
                    + noise.floor * standard_normal(&mut *rng))
                .max(0.0);
            }
        }
        powers
    }

    /// Batched field measurement through the compiled plan: one cached
    /// `theta`-compile plus one multi-RHS GEMM per linear stage, instead of
    /// `xs.len()` interpreted op walks. Counts `xs.len()` chip queries.
    ///
    /// Thermal crosstalk is resolved once per batch (it depends only on
    /// `theta`); readout noise is drawn per sample in batch order from the
    /// same seeded stream as the per-sample path.
    ///
    /// # Panics
    ///
    /// Panics on input/parameter shape mismatch.
    pub fn forward_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [CVector] {
        if xs.is_empty() {
            return &scratch.fields[..0];
        }
        self.queries.fetch_add(xs.len() as u64, Ordering::Relaxed);
        let BatchScratch {
            plan,
            theta_eff,
            fields,
            ..
        } = scratch;
        let th = self.effective_theta(theta, theta_eff);
        plan.set_pinned(self.pinned.lock().clone());
        plan.set_fast32(self.fast32);
        let cache_before = plan.cache_stats();
        let panel = plan.forward_batch(&self.network, th, xs);
        if fields.len() < xs.len() {
            fields.resize_with(xs.len(), CVector::default);
        }
        for (j, slot) in fields.iter_mut().take(xs.len()).enumerate() {
            slot.copy_from_slice(panel.col(j));
        }
        self.cache.add(plan.cache_stats().since(cache_before));
        if let Some(noise) = self.noise {
            let mut rng = self.noise_rng.lock();
            for slot in fields.iter_mut().take(xs.len()) {
                for v in slot.iter_mut() {
                    *v += C64::new(
                        noise.field * standard_normal(&mut *rng),
                        noise.field * standard_normal(&mut *rng),
                    );
                }
            }
        }
        &scratch.fields[..xs.len()]
    }

    /// Batched power measurement through the compiled plan — see
    /// [`FabricatedChip::forward_batch_into`]. Counts `xs.len()` chip
    /// queries.
    ///
    /// # Panics
    ///
    /// Panics on input/parameter shape mismatch.
    pub fn forward_powers_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [RVector] {
        if xs.is_empty() {
            return &scratch.powers[..0];
        }
        self.queries.fetch_add(xs.len() as u64, Ordering::Relaxed);
        let BatchScratch {
            plan,
            theta_eff,
            powers,
            ..
        } = scratch;
        let th = self.effective_theta(theta, theta_eff);
        plan.set_pinned(self.pinned.lock().clone());
        plan.set_fast32(self.fast32);
        let cache_before = plan.cache_stats();
        let panel = plan.forward_batch(&self.network, th, xs);
        if powers.len() < xs.len() {
            powers.resize_with(xs.len(), RVector::default);
        }
        for (j, slot) in powers.iter_mut().take(xs.len()).enumerate() {
            let col = panel.col(j);
            slot.resize_zeroed(col.len());
            for (p, z) in slot.iter_mut().zip(col.iter()) {
                *p = z.norm_sqr();
            }
        }
        self.cache.add(plan.cache_stats().since(cache_before));
        if let Some(noise) = self.noise {
            let mut rng = self.noise_rng.lock();
            for slot in powers.iter_mut().take(xs.len()) {
                for p in slot.iter_mut() {
                    *p = (*p
                        + noise.shot * p.sqrt() * standard_normal(&mut *rng)
                        + noise.floor * standard_normal(&mut *rng))
                    .max(0.0);
                }
            }
        }
        &scratch.powers[..xs.len()]
    }

    /// Probe-compiles the fused linear stages at `theta` (after thermal
    /// crosstalk, so the base matches what a batched measurement at the
    /// same request phases would compile) and pins the result. Subsequent
    /// batched measurements whose phases differ from the pin in at most
    /// [`MAX_INCREMENTAL_PHASES`](crate::MAX_INCREMENTAL_PHASES) phase
    /// shifters are served by rank-1 updates of the pinned matrices
    /// instead of a full mesh recompile.
    ///
    /// Call from a serial control point (e.g. once per training
    /// iteration, before the probe fan-out): the pin is shared read-only
    /// by every worker's transient plan, so serving stays a pure function
    /// of `(pin, request theta)` and results are independent of pool
    /// size. Compiling costs one full probed walk — the payoff is the
    /// probe loop that follows.
    pub fn pin_compile_base(&self, theta: &RVector) {
        let mut eff = RVector::zeros(0);
        let th = self.effective_theta(theta, &mut eff);
        *self.pinned.lock() = Some(PinnedBase::compile(&self.network, th));
        *self.pinned_theta.lock() = Some(theta.clone());
    }

    /// Whether a compile base is currently pinned.
    pub fn has_pinned_base(&self) -> bool {
        self.pinned_theta.lock().is_some()
    }

    /// The deployed theta — the raw phases
    /// [`pin_compile_base`](Self::pin_compile_base) was last called with,
    /// or `None` when nothing is pinned.
    pub fn pinned_theta(&self) -> Option<RVector> {
        self.pinned_theta.lock().clone()
    }

    /// Serving entry point: measures a whole microbatch at the *deployed*
    /// theta — the phases [`pin_compile_base`](Self::pin_compile_base) was
    /// last called with. Returns `None` when nothing is pinned.
    ///
    /// This is the coalesced path the farm's serving layer drains request
    /// queues into: because every request in the batch shares the pinned
    /// base, the walk reduces to the pin's precompiled stage matrices plus
    /// one multi-RHS GEMM per stage, amortizing per-call setup over the
    /// whole batch. The request theta is looked up here (not passed by the
    /// caller) so crosstalk is resolved exactly once — the pin stores
    /// post-crosstalk phases, and re-submitting those through the public
    /// batch path would apply crosstalk twice.
    ///
    /// Counts `xs.len()` chip queries, like every measurement path.
    pub fn serve_pinned_batch_into<'s>(
        &self,
        xs: &[&CVector],
        scratch: &'s mut BatchScratch,
    ) -> Option<&'s [CVector]> {
        // Clone out of the lock: `forward_batch_into` re-locks `pinned`
        // internally, and holding one chip lock across that call is a
        // deadlock with a non-reentrant mutex.
        let theta = self.pinned_theta.lock().clone()?;
        Some(self.forward_batch_into(xs, &theta, scratch))
    }

    /// Freezes the *deployed* theta — the phases
    /// [`pin_compile_base`](Self::pin_compile_base) was last called with —
    /// into an `i16` fixed-point [`QuantizedNetwork`](crate::QuantizedNetwork)
    /// serving artifact, the bottom rung of the evaluation-tier ladder
    /// ([`ServingTier`](crate::ServingTier)).
    ///
    /// Crosstalk is resolved exactly once (like the pin itself), so the
    /// artifact answers at the same effective phases the pinned f64 path
    /// serves. Returns `None` when nothing is pinned or when the network
    /// contains an activation (not compilable to one dense transfer
    /// matrix). Quantizing reads no measurements, so it counts zero chip
    /// queries; serves on the artifact are off-chip electronics and are
    /// not metered here either.
    pub fn quantize_pinned(&self) -> Option<crate::QuantizedNetwork> {
        let theta = self.pinned_theta.lock().clone()?;
        let mut eff = RVector::zeros(0);
        let th = self.effective_theta(&theta, &mut eff);
        crate::QuantizedNetwork::quantize(&self.network, th)
    }

    /// Resolves thermal crosstalk once per measurement: returns `theta`
    /// unchanged when crosstalk is disabled, otherwise the effective phases
    /// written into `theta_eff`.
    fn effective_theta<'t>(&self, theta: &'t RVector, theta_eff: &'t mut RVector) -> &'t RVector {
        if self.crosstalk == 0.0 {
            theta
        } else {
            self.network
                .apply_thermal_crosstalk_into(theta, self.crosstalk, theta_eff);
            theta_eff
        }
    }

    /// Total number of forward queries issued so far — the currency every
    /// black-box training method is charged in.
    pub fn query_count(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Resets the query counter (e.g. between experiment phases).
    pub fn reset_query_count(&self) {
        self.queries.store(0, Ordering::Relaxed);
    }

    /// Aggregate compiled-plan cache counters over every batched
    /// evaluation this chip served. The per-worker [`BatchScratch`] plans
    /// are transient (created per map call), so their counter deltas are
    /// folded into the chip here — the only place a run-level cache view
    /// survives.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.snapshot()
    }

    /// **Oracle access** to the hidden error assignment.
    ///
    /// This exists only for the "BP with perfect error information" upper
    /// bound and for scoring calibration quality; no training or calibration
    /// algorithm may call it. Reading the errors does not count as a chip
    /// query precisely because no physical measurement could provide it.
    pub fn oracle_errors(&self) -> ErrorVector {
        self.network.collect_errors()
    }

    /// **Oracle access** to a white-box differentiable clone of the chip's
    /// true network, for upper-bound baselines only.
    pub fn oracle_network(&self) -> Network {
        self.network.clone()
    }
}

impl OnnChip for FabricatedChip {
    fn architecture(&self) -> &Architecture {
        FabricatedChip::architecture(self)
    }

    fn input_dim(&self) -> usize {
        FabricatedChip::input_dim(self)
    }

    fn output_dim(&self) -> usize {
        FabricatedChip::output_dim(self)
    }

    fn param_count(&self) -> usize {
        FabricatedChip::param_count(self)
    }

    fn init_params<R: Rng + ?Sized>(&self, rng: &mut R) -> RVector {
        FabricatedChip::init_params(self, rng)
    }

    fn forward_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut ChipScratch,
    ) -> &'s CVector {
        FabricatedChip::forward_into(self, x, theta, scratch)
    }

    fn forward_powers_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut ChipScratch,
    ) -> &'s RVector {
        FabricatedChip::forward_powers_into(self, x, theta, scratch)
    }

    fn forward_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [CVector] {
        FabricatedChip::forward_batch_into(self, xs, theta, scratch)
    }

    fn forward_powers_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [RVector] {
        FabricatedChip::forward_powers_batch_into(self, xs, theta, scratch)
    }

    fn query_count(&self) -> u64 {
        FabricatedChip::query_count(self)
    }

    fn reset_query_count(&self) {
        FabricatedChip::reset_query_count(self)
    }

    fn cache_stats(&self) -> CacheStats {
        FabricatedChip::cache_stats(self)
    }

    fn pin_compile_base(&self, theta: &RVector) {
        FabricatedChip::pin_compile_base(self, theta)
    }

    fn pinned_theta(&self) -> Option<RVector> {
        FabricatedChip::pinned_theta(self)
    }

    fn oracle_errors(&self) -> ErrorVector {
        FabricatedChip::oracle_errors(self)
    }

    fn oracle_network(&self) -> Network {
        FabricatedChip::oracle_network(self)
    }
}

/// Builds the ideal (error-free) software model of an architecture.
pub fn ideal_model(arch: &Architecture) -> Network {
    arch.build_ideal()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chip_and_rng() -> (FabricatedChip, StdRng) {
        let mut rng = StdRng::seed_from_u64(42);
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        (chip, rng)
    }

    #[test]
    fn query_counting() {
        let (chip, mut rng) = chip_and_rng();
        let theta = chip.init_params(&mut rng);
        assert_eq!(chip.query_count(), 0);
        let x = CVector::basis(4, 1);
        let _ = chip.forward(&x, &theta);
        let _ = chip.forward_powers(&x, &theta);
        assert_eq!(chip.query_count(), 2);
        chip.reset_query_count();
        assert_eq!(chip.query_count(), 0);
    }

    #[test]
    fn chip_differs_from_ideal_model() {
        let (chip, mut rng) = chip_and_rng();
        let theta = chip.init_params(&mut rng);
        let ideal = ideal_model(chip.architecture());
        let x = CVector::basis(4, 0);
        let y_chip = chip.forward(&x, &theta);
        let y_ideal = ideal.forward(&x, &theta);
        // β=1 errors are small but nonzero.
        let dev = (&y_chip - &y_ideal).max_abs();
        assert!(dev > 1e-6, "chip should deviate from ideal, dev={dev}");
        assert!(dev < 0.5, "deviation should be small at β=1, dev={dev}");
    }

    #[test]
    fn oracle_model_matches_chip_exactly() {
        let (chip, mut rng) = chip_and_rng();
        let theta = chip.init_params(&mut rng);
        let oracle = chip.oracle_network();
        let x = photon_linalg::random::normal_cvector(4, &mut rng);
        let y_chip = chip.forward(&x, &theta);
        let y_oracle = oracle.forward(&x, &theta);
        assert!((&y_chip - &y_oracle).max_abs() < 1e-15);
    }

    #[test]
    fn explicit_errors_constructor() {
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let (n_bs, n_ps) = arch.error_slots();
        let ev = ErrorVector::zeros(n_bs, n_ps);
        let chip = FabricatedChip::with_errors(&arch, &ev).unwrap();
        // Zero errors: chip == ideal model.
        let mut rng = StdRng::seed_from_u64(1);
        let theta = chip.init_params(&mut rng);
        let x = CVector::basis(4, 3);
        let ideal = ideal_model(&arch);
        assert!((&chip.forward(&x, &theta) - &ideal.forward(&x, &theta)).max_abs() < 1e-15);
    }

    #[test]
    fn fabrication_is_reproducible_from_seed() {
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let e1 = {
            let mut rng = StdRng::seed_from_u64(5);
            FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng).oracle_errors()
        };
        let e2 = {
            let mut rng = StdRng::seed_from_u64(5);
            FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng).oracle_errors()
        };
        assert_eq!(e1, e2);
    }

    #[test]
    fn serve_pinned_batch_requires_a_pin() {
        let (chip, mut rng) = chip_and_rng();
        let x = photon_linalg::random::normal_cvector(4, &mut rng);
        let mut scratch = BatchScratch::new();
        assert!(!chip.has_pinned_base());
        assert!(chip.serve_pinned_batch_into(&[&x], &mut scratch).is_none());
        assert_eq!(chip.query_count(), 0, "a refused serve must not count");
    }

    #[test]
    fn serve_pinned_batch_matches_batch_path_and_hits_the_pin() {
        let (chip, mut rng) = chip_and_rng();
        let theta = chip.init_params(&mut rng);
        let xs: Vec<CVector> = (0..6)
            .map(|_| photon_linalg::random::normal_cvector(4, &mut rng))
            .collect();
        let refs: Vec<&CVector> = xs.iter().collect();

        chip.pin_compile_base(&theta);
        assert!(chip.has_pinned_base());
        let mut scratch = BatchScratch::new();
        let served: Vec<CVector> = chip
            .serve_pinned_batch_into(&refs, &mut scratch)
            .unwrap()
            .to_vec();
        // The serve is the exact-theta fast path: the request phases match
        // the pin, so the plan commits the pinned base matrices instead of
        // recompiling — visible as an incremental serve in cache stats.
        let stats = chip.cache_stats();
        assert_eq!(stats.incremental, 1, "{stats:?}");
        assert_eq!(stats.misses, 0, "{stats:?}");
        assert_eq!(chip.query_count(), 6);

        // And it agrees exactly with the public batch path at the deployed
        // theta.
        let mut scratch2 = BatchScratch::new();
        let direct = chip.forward_batch_into(&refs, &theta, &mut scratch2);
        for (a, b) in served.iter().zip(direct.iter()) {
            assert!((a - b).max_abs() == 0.0, "serve must equal batch path");
        }

        let (unpinned, _) = chip_and_rng();
        assert!(!unpinned.has_pinned_base());
        assert!(unpinned
            .serve_pinned_batch_into(&refs, &mut scratch)
            .is_none());
    }

    #[test]
    fn serve_pinned_batch_applies_crosstalk_once() {
        // With crosstalk enabled, the pin stores *effective* phases. The
        // serve path must reproduce forward_batch_into(raw theta), which
        // resolves crosstalk once — not forward at the effective phases
        // with crosstalk applied again.
        let mut rng = StdRng::seed_from_u64(42);
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng)
            .with_thermal_crosstalk(0.05);
        let theta = chip.init_params(&mut rng);
        let x = photon_linalg::random::normal_cvector(4, &mut rng);

        chip.pin_compile_base(&theta);
        let mut scratch = BatchScratch::new();
        let served = chip.serve_pinned_batch_into(&[&x], &mut scratch).unwrap()[0].clone();
        let mut scratch2 = BatchScratch::new();
        let direct = chip.forward_batch_into(&[&x], &theta, &mut scratch2)[0].clone();
        assert!((&served - &direct).max_abs() == 0.0);
    }

    #[test]
    fn measurement_noise_perturbs_readouts() {
        let (chip, mut rng) = chip_and_rng();
        let theta = chip.init_params(&mut rng);
        let x = CVector::basis(4, 0);
        let clean_field = chip.forward(&x, &theta);
        let clean_power = chip.forward_powers(&x, &theta);

        let arch = Architecture::single_mesh(4, 4).unwrap();
        let noisy_chip = FabricatedChip::with_errors(&arch, &chip.oracle_errors())
            .unwrap()
            .with_measurement_noise(MeasurementNoise::realistic(), 99);

        let noisy_field = noisy_chip.forward(&x, &theta);
        let noisy_power = noisy_chip.forward_powers(&x, &theta);
        // Noise is visible but small.
        let fdev = (&noisy_field - &clean_field).max_abs();
        assert!(fdev > 0.0 && fdev < 0.1, "field dev {fdev}");
        let pdev = (&noisy_power - &clean_power).max_abs();
        assert!(pdev > 0.0 && pdev < 0.1, "power dev {pdev}");
        // Powers never go negative.
        assert!(noisy_power.iter().all(|&p| p >= 0.0));
        // Two measurements of the same condition differ (noise is fresh).
        let again = noisy_chip.forward_powers(&x, &theta);
        assert!((&again - &noisy_power).max_abs() > 0.0);
        // Query accounting still exact.
        assert_eq!(noisy_chip.query_count(), 3);
    }

    #[test]
    fn thermal_crosstalk_changes_response() {
        let (chip, mut rng) = chip_and_rng();
        let theta = chip.init_params(&mut rng);
        let x = CVector::basis(4, 0);
        let clean = chip.forward(&x, &theta);

        let xtalk_chip = FabricatedChip::with_errors(
            &Architecture::single_mesh(4, 4).unwrap(),
            &chip.oracle_errors(),
        )
        .unwrap()
        .with_thermal_crosstalk(0.02);
        let warped = xtalk_chip.forward(&x, &theta);
        let dev = (&warped - &clean).max_abs();
        assert!(dev > 1e-4, "crosstalk should be visible, dev {dev}");
        // Zero coupling is the identity.
        let zero = FabricatedChip::with_errors(
            &Architecture::single_mesh(4, 4).unwrap(),
            &chip.oracle_errors(),
        )
        .unwrap()
        .with_thermal_crosstalk(0.0);
        assert!((&zero.forward(&x, &theta) - &clean).max_abs() < 1e-15);
    }

    #[test]
    fn crosstalk_map_is_linear_and_module_local() {
        let net = Architecture::two_mesh_classifier(4, 2)
            .unwrap()
            .build_ideal();
        let n = net.param_count();
        let coupling = 0.05;
        let crosstalk = |theta: &RVector| {
            let mut out = RVector::zeros(0);
            net.apply_thermal_crosstalk_into(theta, coupling, &mut out);
            out
        };
        // Linearity.
        let a = photon_linalg::RVector::from_fn(n, |i| (i as f64 * 0.37).sin());
        let b = photon_linalg::RVector::from_fn(n, |i| (i as f64 * 0.11).cos());
        let lhs = crosstalk(&(&a + &b));
        let rhs = &crosstalk(&a) + &crosstalk(&b);
        assert!((&lhs - &rhs).max_abs() < 1e-12);
        // Module-local: a basis vector at the last index of module 0 leaks
        // to its previous neighbour but not into module 1.
        let m0 = net.module_param_range(0);
        let m1 = net.module_param_range(1);
        let e = photon_linalg::RVector::basis(n, m0.end - 1);
        let out = crosstalk(&e);
        assert_eq!(out[m0.end - 2], coupling);
        assert_eq!(out[m1.start], 0.0);
    }

    #[test]
    fn batched_forward_matches_per_sample() {
        let (chip, mut rng) = chip_and_rng();
        let crosstalk_chip = FabricatedChip::with_errors(
            &Architecture::single_mesh(4, 4).unwrap(),
            &chip.oracle_errors(),
        )
        .unwrap()
        .with_thermal_crosstalk(0.02);
        let theta = chip.init_params(&mut rng);
        let xs: Vec<CVector> = (0..5)
            .map(|_| photon_linalg::random::normal_cvector(4, &mut rng))
            .collect();
        let refs: Vec<&CVector> = xs.iter().collect();
        for c in [&chip, &crosstalk_chip] {
            let mut batch = BatchScratch::new();
            let mut single = ChipScratch::new();
            let fields: Vec<CVector> = c
                .forward_batch_into(&refs, &theta, &mut batch)
                .to_vec();
            let powers: Vec<RVector> = c
                .forward_powers_batch_into(&refs, &theta, &mut batch)
                .to_vec();
            assert_eq!(fields.len(), 5);
            for (j, x) in xs.iter().enumerate() {
                let want_f = c.forward_into(x, &theta, &mut single).clone();
                assert!((&fields[j] - &want_f).max_abs() < 1e-12, "field {j}");
                let want_p = c.forward_powers_into(x, &theta, &mut single).clone();
                assert!((&powers[j] - &want_p).max_abs() < 1e-12, "powers {j}");
            }
        }
    }

    #[test]
    fn batched_forward_counts_batch_queries() {
        let (chip, mut rng) = chip_and_rng();
        let theta = chip.init_params(&mut rng);
        let xs: Vec<CVector> = (0..6).map(|k| CVector::basis(4, k % 4)).collect();
        let refs: Vec<&CVector> = xs.iter().collect();
        let mut scratch = BatchScratch::new();
        chip.forward_batch_into(&refs, &theta, &mut scratch);
        assert_eq!(chip.query_count(), 6);
        chip.forward_powers_batch_into(&refs[..2], &theta, &mut scratch);
        assert_eq!(chip.query_count(), 8);
        // Same theta: the second call must have reused the compiled plan.
        assert_eq!(scratch.generation(), 1);
    }

    #[test]
    fn noise_free_chip_is_deterministic() {
        let (chip, mut rng) = chip_and_rng();
        let theta = chip.init_params(&mut rng);
        let x = CVector::basis(4, 1);
        let a = chip.forward_powers(&x, &theta);
        let b = chip.forward_powers(&x, &theta);
        assert_eq!(a, b);
    }
}
