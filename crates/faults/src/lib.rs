//! # photon-faults
//!
//! Deterministic, seeded fault injection for simulated ONN chips.
//!
//! A [`FaultyChip`] wraps any [`OnnChip`] and corrupts its behavior with the
//! three fault families a real photonic testbench exhibits:
//!
//! - **drift** — slow per-phase-shifter thermal drift, modeled as an
//!   Ornstein–Uhlenbeck random walk added to the commanded phases on top of
//!   the chip's static fabrication errors ([`DriftConfig`]);
//! - **transient** — per-measurement faults: dropped reads (the readout
//!   returns NaN), outlier spikes (one detector port multiplied by a large
//!   factor) and shot-noise bursts ([`TransientConfig`]);
//! - **hard** — stuck/dead phase shifters that ignore their drive and hold a
//!   fixed phase ([`StuckShifter`]);
//! - **hang** — a read blocks as if the lab link stalled, until the chip's
//!   [`AbortFlag`] is raised (by a watchdog) or a safety valve expires, then
//!   comes back poisoned ([`HangConfig`]).
//!
//! Everything is reproducible from the single seed in [`FaultPlan`] and —
//! crucially — **bitwise stable across `photon-exec` pool sizes**. Slow
//! state (drift) only advances at the serial [`OnnChip::advance_to`] control
//! point, called once per training iteration; transient fault decisions are
//! pure hashes of the *content* of a measurement (step, commanded phases,
//! input field, readout kind) plus a per-content attempt counter, never of
//! the order in which worker threads happen to issue queries. Re-reading the
//! same measurement (the retry path in `photon-opt`) bumps the attempt
//! counter and gets a fresh, deterministic fault decision.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use photon_linalg::CVector;
//! use photon_photonics::{Architecture, ErrorModel, FabricatedChip, OnnChip};
//! use photon_faults::{FaultPlan, FaultyChip, TransientConfig};
//!
//! let arch = Architecture::single_mesh(4, 4)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
//! let plan = FaultPlan::new(42).with_transients(TransientConfig {
//!     drop_prob: 0.5,
//!     ..TransientConfig::default()
//! });
//! let faulty = FaultyChip::new(chip, plan);
//!
//! let theta = faulty.init_params(&mut rng);
//! faulty.advance_to(1);
//! let y = faulty.forward(&CVector::basis(4, 0), &theta);
//! // Roughly half of all reads come back as NaN; the schedule is fixed by
//! // the seed, so this exact read always gives the same answer.
//! assert_eq!(y.len(), 4);
//! # Ok::<(), photon_photonics::NetworkError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use photon_linalg::random::{splitmix64, standard_normal};
use photon_linalg::{CVector, RVector};
use photon_photonics::{
    AbortFlag, Architecture, BatchScratch, CacheStats, ChipScratch, ErrorVector, Network, OnnChip,
};
use photon_trace::{TraceEvent, TraceHandle};

/// Ornstein–Uhlenbeck thermal drift on the phase-shifter drives.
///
/// Each parameter `i` carries a hidden offset `d_i` evolving once per
/// [`OnnChip::advance_to`] step as
///
/// ```text
/// d_i ← a·d_i + σ·√(1−a²)·N(0,1),   a = exp(−1/τ)
/// ```
///
/// so the stationary distribution is `N(0, σ²)` and `τ` is the correlation
/// time in training iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Stationary standard deviation of the per-phase drift (radians).
    pub sigma: f64,
    /// Correlation time in `advance_to` steps.
    pub tau: f64,
}

impl Default for DriftConfig {
    /// A mild but visible drift: σ = 0.02 rad, τ = 25 iterations.
    fn default() -> Self {
        DriftConfig {
            sigma: 0.02,
            tau: 25.0,
        }
    }
}

/// Transient per-measurement fault rates.
///
/// Faults are decided independently per read (drop, then spike, then burst;
/// at most one fires per read) from a pure hash of the measurement content,
/// so identical fault schedules replay across pool sizes and reruns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Probability a read is dropped entirely (readout becomes NaN).
    pub drop_prob: f64,
    /// Probability one detector port spikes by [`TransientConfig::spike_scale`].
    pub spike_prob: f64,
    /// Multiplicative size of an outlier spike.
    pub spike_scale: f64,
    /// Probability a read suffers a correlated shot-noise burst.
    pub burst_prob: f64,
    /// Per-port standard deviation of a burst.
    pub burst_sigma: f64,
}

impl Default for TransientConfig {
    /// All rates zero except a nominal spike size, so enabling a single
    /// fault family needs one field override.
    fn default() -> Self {
        TransientConfig {
            drop_prob: 0.0,
            spike_prob: 0.0,
            spike_scale: 1e3,
            burst_prob: 0.0,
            burst_sigma: 0.05,
        }
    }
}

/// Hung-readout faults: a read blocks as if the lab link stalled.
///
/// A hung read busy-waits (sleeping) until either the chip's [`AbortFlag`]
/// is raised — the cooperative-cancellation path a deadline watchdog uses —
/// or `max_block` expires as a safety valve. Either way the reading comes
/// back poisoned (all-NaN), mirroring what an aborted lab query yields. The
/// *decision* to hang is a pure content hash like every transient fault, so
/// hang schedules replay deterministically; only the blocking time is
/// wall-clock-dependent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HangConfig {
    /// Probability a read hangs.
    pub prob: f64,
    /// Safety valve: a hung read unblocks on its own after this long even
    /// if nothing raises the abort flag (keeps unguarded tests finite).
    pub max_block: Duration,
}

impl Default for HangConfig {
    /// Disabled by default, with a 30 s safety valve.
    fn default() -> Self {
        HangConfig {
            prob: 0.0,
            max_block: Duration::from_secs(30),
        }
    }
}

/// A hard fault: phase shifter `index` ignores its drive and holds `value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StuckShifter {
    /// Parameter index of the dead shifter.
    pub index: usize,
    /// Phase the shifter is stuck at (radians).
    pub value: f64,
}

/// The complete seeded fault schedule for one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; all drift draws and transient decisions derive from it.
    pub seed: u64,
    /// Slow thermal drift, if enabled.
    pub drift: Option<DriftConfig>,
    /// Transient measurement faults, if enabled.
    pub transient: Option<TransientConfig>,
    /// Hard stuck-shifter faults.
    pub stuck: Vec<StuckShifter>,
    /// Hung-readout faults, if enabled.
    pub hang: Option<HangConfig>,
}

impl FaultPlan {
    /// A plan with every fault family disabled (pure pass-through).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drift: None,
            transient: None,
            stuck: Vec::new(),
            hang: None,
        }
    }

    /// Enables thermal drift.
    pub fn with_drift(mut self, drift: DriftConfig) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Enables transient measurement faults.
    pub fn with_transients(mut self, transient: TransientConfig) -> Self {
        self.transient = Some(transient);
        self
    }

    /// Adds a stuck phase shifter.
    pub fn with_stuck(mut self, stuck: StuckShifter) -> Self {
        self.stuck.push(stuck);
        self
    }

    /// Enables hung-readout faults.
    pub fn with_hangs(mut self, hang: HangConfig) -> Self {
        self.hang = Some(hang);
        self
    }
}

/// Running totals of injected faults, for observability in tests and
/// training reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Reads dropped (returned NaN).
    pub dropped: u64,
    /// Reads hit by an outlier spike.
    pub spiked: u64,
    /// Reads hit by a shot-noise burst.
    pub bursts: u64,
    /// Reads that hung until cancelled (or the safety valve expired).
    pub hung: u64,
}

#[derive(Debug)]
struct FaultState {
    /// Logical step last passed to `advance_to`.
    step: u64,
    /// Current OU drift offsets, one per chip parameter.
    drift: RVector,
    /// Drift-stream RNG (advanced only at the serial control point).
    rng: StdRng,
    /// Per-content re-read counters for the current step; attempt `k` of a
    /// content gets an independent fault decision, so retries see fresh
    /// readings regardless of worker-thread scheduling.
    attempts: HashMap<u64, u32>,
    /// Fault totals last forwarded to the trace handle (emission happens
    /// only at the serial control point, so event order is deterministic).
    reported: FaultCounts,
    /// Logical theta last passed to `pin_compile_base` — the *deployed*
    /// phases, before drift/stuck resolution (the inner chip only ever
    /// sees fault-effective phases).
    pinned_theta: Option<RVector>,
}

/// An [`OnnChip`] decorator that injects the [`FaultPlan`]'s faults into
/// every measurement of the wrapped chip.
///
/// Dropped reads still consume a query on the inner chip: the lab charged
/// you for the measurement even though the detector returned garbage.
#[derive(Debug)]
pub struct FaultyChip<C: OnnChip> {
    inner: C,
    plan: FaultPlan,
    state: Mutex<FaultState>,
    dropped: AtomicU64,
    spiked: AtomicU64,
    bursts: AtomicU64,
    hung: AtomicU64,
    abort: AbortFlag,
    trace: TraceHandle,
}

const TAG_FIELD: u64 = 0x1;
const TAG_POWERS: u64 = 0x2;
const SALT_DROP: u64 = 0x9e37_79b9_7f4a_7c15;
const SALT_SPIKE: u64 = 0xbf58_476d_1ce4_e5b9;
const SALT_PORT: u64 = 0x94d0_49bb_1331_11eb;
const SALT_BURST: u64 = 0xd6e8_feb8_6659_fd93;
const SALT_NOISE: u64 = 0xa076_1d64_78bd_642f;
const SALT_HANG: u64 = 0xe703_7ed1_a0b4_28db;

/// Maps a hash to a uniform in `(0, 1)` (never exactly 0, so logs are safe).
fn unit(h: u64) -> f64 {
    (((h >> 11) as f64) + 1.0) / (1u64 << 53) as f64
}

/// One standard-normal draw derived purely from a hash (Box–Muller).
fn hashed_normal(h: u64) -> f64 {
    let u = unit(splitmix64(h));
    let v = unit(splitmix64(h ^ SALT_NOISE));
    (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
}

impl<C: OnnChip> FaultyChip<C> {
    /// Wraps `inner` under the fault schedule `plan`.
    pub fn new(inner: C, plan: FaultPlan) -> Self {
        let n = inner.param_count();
        let seed = plan.seed;
        FaultyChip {
            inner,
            plan,
            state: Mutex::new(FaultState {
                step: 0,
                drift: RVector::zeros(n),
                rng: StdRng::seed_from_u64(splitmix64(seed)),
                attempts: HashMap::new(),
                reported: FaultCounts::default(),
                pinned_theta: None,
            }),
            dropped: AtomicU64::new(0),
            spiked: AtomicU64::new(0),
            bursts: AtomicU64::new(0),
            hung: AtomicU64::new(0),
            abort: AbortFlag::new(),
            trace: TraceHandle::null(),
        }
    }

    /// Forwards cumulative fault counters to `trace` as
    /// [`TraceEvent::FaultStats`] events, emitted from the serial
    /// `advance_to` control point whenever the totals changed since the
    /// last emission. Telemetry only: fault decisions, drift evolution and
    /// readings are unaffected.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// The wrapped chip.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The active fault schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Totals of transient faults injected so far.
    pub fn fault_counts(&self) -> FaultCounts {
        FaultCounts {
            dropped: self.dropped.load(Ordering::Relaxed),
            spiked: self.spiked.load(Ordering::Relaxed),
            bursts: self.bursts.load(Ordering::Relaxed),
            hung: self.hung.load(Ordering::Relaxed),
        }
    }

    /// Content key: a pure function of what is being measured — never of
    /// when or on which thread. Distinct probes hash to distinct keys
    /// (almost surely, for continuous-valued probes), so per-read fault
    /// decisions commute with any `photon-exec` schedule.
    fn content_key(&self, step: u64, x: &CVector, theta: &RVector, tag: u64) -> u64 {
        let mut h = splitmix64(self.plan.seed ^ splitmix64(step) ^ tag);
        for v in theta.iter() {
            h = splitmix64(h ^ v.to_bits());
        }
        for z in x.iter() {
            h = splitmix64(h ^ z.re.to_bits());
            h = splitmix64(h ^ z.im.to_bits());
        }
        h
    }

    /// Applies drift + stuck faults to the commanded phases and returns the
    /// per-read attempt-salted decision key.
    fn prepare(&self, x: &CVector, theta: &RVector, tag: u64) -> (RVector, u64) {
        let mut st = self.state.lock();
        let mut eff = theta.clone();
        if self.plan.drift.is_some() {
            eff.axpy(1.0, &st.drift);
        }
        for s in &self.plan.stuck {
            eff.as_mut_slice()[s.index] = s.value;
        }
        let key = self.content_key(st.step, x, theta, tag);
        let attempt = st.attempts.entry(key).or_insert(0);
        let salted = splitmix64(key ^ (*attempt as u64).wrapping_mul(0xff51_afd7_ed55_8ccd));
        *attempt += 1;
        (eff, salted)
    }

    /// Batched [`FaultyChip::prepare`]: resolves drift + stuck faults once
    /// (they depend only on `theta` and the step, shared by the whole
    /// batch) and derives one attempt-salted decision key per sample, in
    /// batch order under a single lock. The keys are identical to what
    /// per-sample reads of the same contents would produce, so fault
    /// decisions stay schedule-independent.
    fn prepare_batch(&self, xs: &[&CVector], theta: &RVector, tag: u64) -> (RVector, Vec<u64>) {
        let mut st = self.state.lock();
        let mut eff = theta.clone();
        if self.plan.drift.is_some() {
            eff.axpy(1.0, &st.drift);
        }
        for s in &self.plan.stuck {
            eff.as_mut_slice()[s.index] = s.value;
        }
        let step = st.step;
        let salts = xs
            .iter()
            .map(|x| {
                let key = self.content_key(step, x, theta, tag);
                let attempt = st.attempts.entry(key).or_insert(0);
                let salted =
                    splitmix64(key ^ (*attempt as u64).wrapping_mul(0xff51_afd7_ed55_8ccd));
                *attempt += 1;
                salted
            })
            .collect();
        (eff, salts)
    }

    /// Whether this read's content hash schedules a hang. Pure in
    /// `salted`.
    fn hang_for(&self, salted: u64) -> Option<HangConfig> {
        let h = self.plan.hang?;
        (unit(splitmix64(salted ^ SALT_HANG)) < h.prob).then_some(h)
    }

    /// Simulates the stalled lab link: blocks until the abort flag is
    /// raised or the safety valve expires. Runs on whatever worker thread
    /// issued the read — exactly like a real hung I/O call would.
    fn block_until_cancelled(&self, max_block: Duration) {
        let t0 = Instant::now();
        while !self.abort.is_raised() && t0.elapsed() < max_block {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.hung.fetch_add(1, Ordering::Relaxed);
    }

    /// Applies this read's transient fault (if any) to a field readout.
    fn corrupt_field(&self, out: &mut CVector, salted: u64) {
        if let Some(h) = self.hang_for(salted) {
            self.block_until_cancelled(h.max_block);
            for z in out.iter_mut() {
                z.re = f64::NAN;
                z.im = f64::NAN;
            }
            return;
        }
        match self.transient_for(salted) {
            Some(Transient::Drop) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                for z in out.iter_mut() {
                    z.re = f64::NAN;
                    z.im = f64::NAN;
                }
            }
            Some(Transient::Spike { port, scale }) => {
                self.spiked.fetch_add(1, Ordering::Relaxed);
                let p = (port % out.len() as u64) as usize;
                out[p] = out[p].scale(scale);
            }
            Some(Transient::Burst { key, sigma }) => {
                self.bursts.fetch_add(1, Ordering::Relaxed);
                for (i, z) in out.iter_mut().enumerate() {
                    z.re += sigma * hashed_normal(key ^ (2 * i) as u64);
                    z.im += sigma * hashed_normal(key ^ (2 * i + 1) as u64);
                }
            }
            None => {}
        }
    }

    /// Applies this read's transient fault (if any) to a power readout.
    fn corrupt_powers(&self, powers: &mut RVector, salted: u64) {
        if let Some(h) = self.hang_for(salted) {
            self.block_until_cancelled(h.max_block);
            powers.fill(f64::NAN);
            return;
        }
        match self.transient_for(salted) {
            Some(Transient::Drop) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                powers.fill(f64::NAN);
            }
            Some(Transient::Spike { port, scale }) => {
                self.spiked.fetch_add(1, Ordering::Relaxed);
                let p = (port % powers.len() as u64) as usize;
                powers.as_mut_slice()[p] *= scale;
            }
            Some(Transient::Burst { key, sigma }) => {
                self.bursts.fetch_add(1, Ordering::Relaxed);
                for (i, p) in powers.iter_mut().enumerate() {
                    *p = (*p + sigma * hashed_normal(key ^ i as u64)).max(0.0);
                }
            }
            None => {}
        }
    }

    /// Whether the (drop / spike / burst) family fires for this read, and
    /// with what shape. At most one family fires, tried in severity order.
    fn transient_for(&self, salted: u64) -> Option<Transient> {
        let t = self.plan.transient?;
        if unit(splitmix64(salted ^ SALT_DROP)) < t.drop_prob {
            return Some(Transient::Drop);
        }
        if unit(splitmix64(salted ^ SALT_SPIKE)) < t.spike_prob {
            return Some(Transient::Spike {
                port: splitmix64(salted ^ SALT_PORT),
                scale: t.spike_scale,
            });
        }
        if unit(splitmix64(salted ^ SALT_BURST)) < t.burst_prob {
            return Some(Transient::Burst {
                key: salted,
                sigma: t.burst_sigma,
            });
        }
        None
    }
}

enum Transient {
    Drop,
    Spike { port: u64, scale: f64 },
    Burst { key: u64, sigma: f64 },
}

impl<C: OnnChip> OnnChip for FaultyChip<C> {
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
        let (eff, salted) = self.prepare(x, theta, TAG_FIELD);
        self.inner.forward_into(x, &eff, scratch);
        let out = scratch.field_mut();
        self.corrupt_field(out, salted);
        &*out
    }

    fn forward_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [CVector] {
        let (eff, salts) = self.prepare_batch(xs, theta, TAG_FIELD);
        self.inner.forward_batch_into(xs, &eff, scratch);
        let fields = &mut scratch.fields_mut()[..xs.len()];
        for (out, salted) in fields.iter_mut().zip(salts) {
            self.corrupt_field(out, salted);
        }
        &*fields
    }

    fn forward_powers_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [RVector] {
        let (eff, salts) = self.prepare_batch(xs, theta, TAG_POWERS);
        self.inner.forward_powers_batch_into(xs, &eff, scratch);
        let powers = &mut scratch.powers_mut()[..xs.len()];
        for (out, salted) in powers.iter_mut().zip(salts) {
            self.corrupt_powers(out, salted);
        }
        &*powers
    }

    fn forward_powers_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut ChipScratch,
    ) -> &'s RVector {
        let (eff, salted) = self.prepare(x, theta, TAG_POWERS);
        self.inner.forward_powers_into(x, &eff, scratch);
        let powers = scratch.powers_mut();
        self.corrupt_powers(powers, salted);
        &*powers
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

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    /// Pins the inner chip's compile base at the *fault-effective* phases:
    /// drift and stuck offsets are resolved at the current step exactly as
    /// a batched read resolves them, so the pin matches the theta
    /// the inner chip actually sees for batched reads issued at this step.
    /// Serial control point, like [`OnnChip::advance_to`].
    fn pin_compile_base(&self, theta: &RVector) {
        let eff = {
            let mut st = self.state.lock();
            st.pinned_theta = Some(theta.clone());
            let mut eff = theta.clone();
            if self.plan.drift.is_some() {
                eff.axpy(1.0, &st.drift);
            }
            for s in &self.plan.stuck {
                eff.as_mut_slice()[s.index] = s.value;
            }
            eff
        };
        self.inner.pin_compile_base(&eff);
    }

    /// The *logical* deployed theta — what the caller pinned, not the
    /// fault-effective phases forwarded to the inner chip.
    fn pinned_theta(&self) -> Option<RVector> {
        self.state.lock().pinned_theta.clone()
    }

    /// The real cancellation flag hung reads poll. A watchdog that raises
    /// it unblocks every in-flight hung read promptly (the readings come
    /// back poisoned); clear it before retrying.
    fn abort_flag(&self) -> AbortFlag {
        self.abort.clone()
    }

    /// Advances the OU drift by `step − current` increments and resets the
    /// per-step re-read counters. Serial control point: call exactly once
    /// per training iteration, never from worker threads.
    fn advance_to(&self, step: u64) {
        let mut st = self.state.lock();
        if step <= st.step {
            return;
        }
        if let Some(d) = self.plan.drift {
            let a = (-1.0 / d.tau).exp();
            let b = d.sigma * (1.0 - a * a).sqrt();
            let increments = step - st.step;
            let FaultState { drift, rng, .. } = &mut *st;
            for _ in 0..increments {
                for v in drift.iter_mut() {
                    *v = a * *v + b * standard_normal(rng);
                }
            }
        }
        st.step = step;
        st.attempts.clear();
        // Telemetry: forward cumulative fault totals when they moved since
        // the last control point. Emitting only here (never from worker
        // threads) keeps the event stream deterministic.
        if self.trace.is_enabled() {
            let counts = self.fault_counts();
            if counts != st.reported {
                st.reported = counts;
                self.trace.emit(|| TraceEvent::FaultStats {
                    step,
                    dropped: counts.dropped,
                    spiked: counts.spiked,
                    bursts: counts.bursts,
                });
            }
        }
        self.inner.advance_to(step);
    }
}

/// A scripted, seedless infrastructure-failure schedule for one *serving
/// replica*, keyed on **virtual nanoseconds** — the discrete-event
/// counterpart of [`ChaosPlan`](https://docs.rs/)-style dispatch-ordinal
/// scripting in `photon-farm`.
///
/// Two failure modes, matching what the calibrated-model line actually
/// observes in the lab:
///
/// * **kill** — the replica dies at `kill_at_ns` and never completes
///   another dispatch (power loss, fiber cut). Absorbing.
/// * **hang window** — between `hang_from_ns` and `hang_until_ns` the
///   replica's lab link stalls: dispatches overlapping the window do not
///   complete until the window closes (and then re-serve), which is how
///   transient control-plane freezes present to a serving layer.
///
/// Both are plain data evaluated against the caller's virtual clock, so a
/// chaos scenario replays byte-identically at any worker-pool size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaChaos {
    /// Virtual time the replica dies, if scripted.
    pub kill_at_ns: Option<u64>,
    /// Half-open hang window `[from, until)`, if scripted.
    pub hang_window_ns: Option<(u64, u64)>,
}

impl ReplicaChaos {
    /// No scripted failures.
    pub fn none() -> Self {
        ReplicaChaos::default()
    }

    /// Scripts a kill at virtual time `at_ns`.
    #[must_use]
    pub fn kill_at(mut self, at_ns: u64) -> Self {
        self.kill_at_ns = Some(at_ns);
        self
    }

    /// Scripts a hang window `[from_ns, until_ns)`.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty or inverted.
    #[must_use]
    pub fn hang_between(mut self, from_ns: u64, until_ns: u64) -> Self {
        assert!(
            from_ns < until_ns,
            "hang window [{from_ns}, {until_ns}) is empty"
        );
        self.hang_window_ns = Some((from_ns, until_ns));
        self
    }

    /// If a dispatch occupying `[start_ns, done_ns)` overlaps the hang
    /// window, the virtual time the link un-stalls; `None` when the
    /// dispatch is unaffected.
    pub fn hang_release(&self, start_ns: u64, done_ns: u64) -> Option<u64> {
        let (from, until) = self.hang_window_ns?;
        (start_ns < until && done_ns > from).then_some(until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_photonics::{ErrorModel, FabricatedChip};

    fn base_chip(seed: u64) -> (FaultyChip<FabricatedChip>, StdRng, RVector) {
        let mut rng = StdRng::seed_from_u64(seed);
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let faulty = FaultyChip::new(
            chip,
            FaultPlan::new(7)
                .with_drift(DriftConfig::default())
                .with_transients(TransientConfig {
                    drop_prob: 0.1,
                    spike_prob: 0.1,
                    burst_prob: 0.1,
                    ..TransientConfig::default()
                })
                .with_stuck(StuckShifter {
                    index: 3,
                    value: 0.5,
                }),
        );
        let theta = faulty.init_params(&mut rng);
        (faulty, rng, theta)
    }

    #[test]
    fn passthrough_plan_matches_inner_chip() {
        let mut rng = StdRng::seed_from_u64(1);
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let theta = chip.init_params(&mut rng);
        let x = CVector::basis(4, 0);
        let clean = chip.forward(&x, &theta);
        let faulty = FaultyChip::new(chip, FaultPlan::new(99));
        faulty.advance_to(5);
        let wrapped = faulty.forward(&x, &theta);
        assert_eq!(clean, wrapped);
        assert_eq!(faulty.fault_counts(), FaultCounts::default());
    }

    #[test]
    fn same_read_same_step_is_reproducible_and_reread_differs() {
        let (faulty, mut rng, theta) = base_chip(11);
        let x = photon_linalg::random::random_unit_cvector(4, &mut rng);
        faulty.advance_to(1);
        let a = faulty.forward_powers(&x, &theta);
        faulty.advance_to(2);
        let b = faulty.forward_powers(&x, &theta);
        faulty.advance_to(2); // no-op: already at step 2
        let b2 = faulty.forward_powers(&x, &theta);
        // Drift changed between steps 1 and 2, so the readings differ.
        assert_ne!(a.as_slice(), b.as_slice());
        // Re-reading within a step is a fresh attempt, not a cached value —
        // the phases agree but the transient decision is independent. Here
        // neither read faults, so only drift matters and they agree.
        if b.iter().all(|v| v.is_finite()) && b2.iter().all(|v| v.is_finite()) {
            assert_eq!(b.as_slice(), b2.as_slice());
        }
    }

    #[test]
    fn pinned_theta_reports_logical_not_effective_phases() {
        let (faulty, _rng, theta) = base_chip(17);
        assert!(faulty.pinned_theta().is_none());
        faulty.advance_to(3); // accumulate some drift first
        faulty.pin_compile_base(&theta);
        // The wrapper reports the deployed theta verbatim...
        assert_eq!(faulty.pinned_theta().unwrap(), theta);
        // ...while the inner chip was pinned at fault-effective phases
        // (drift plus the stuck shifter override), which must differ.
        let inner_pin = faulty.inner().pinned_theta().unwrap();
        assert_ne!(inner_pin, theta);
        assert_eq!(inner_pin.as_slice()[3], 0.5, "stuck override applied");
    }

    #[test]
    fn fault_schedule_replays_bitwise_from_seed() {
        let run = || {
            let (faulty, mut rng, theta) = base_chip(13);
            let mut bits = Vec::new();
            for step in 1..=10u64 {
                faulty.advance_to(step);
                let x = photon_linalg::random::random_unit_cvector(4, &mut rng);
                for v in faulty.forward_powers(&x, &theta).iter() {
                    bits.push(v.to_bits());
                }
            }
            (bits, faulty.fault_counts())
        };
        let (bits1, counts1) = run();
        let (bits2, counts2) = run();
        assert_eq!(bits1, bits2);
        assert_eq!(counts1, counts2);
    }

    #[test]
    fn transient_decisions_ignore_query_order() {
        // Two runs read the same three probes in opposite orders within one
        // step; each probe must receive the identical fault decision.
        let probes: Vec<CVector> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..3)
                .map(|_| photon_linalg::random::random_unit_cvector(4, &mut rng))
                .collect()
        };
        let read_all = |order: &[usize]| -> Vec<Vec<u64>> {
            let (faulty, _, theta) = base_chip(17);
            faulty.advance_to(1);
            let mut out = vec![Vec::new(); probes.len()];
            for &i in order {
                out[i] = faulty
                    .forward_powers(&probes[i], &theta)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
            }
            out
        };
        assert_eq!(read_all(&[0, 1, 2]), read_all(&[2, 1, 0]));
    }

    #[test]
    fn batched_reads_get_the_same_fault_decisions_as_serial_reads() {
        // The same probes within the same step must receive identical
        // transient decisions whether read one by one or as a batch.
        let probes: Vec<CVector> = {
            let mut rng = StdRng::seed_from_u64(6);
            (0..8)
                .map(|_| photon_linalg::random::random_unit_cvector(4, &mut rng))
                .collect()
        };
        let serial_pattern = {
            let (faulty, _, theta) = base_chip(19);
            faulty.advance_to(1);
            let mut scratch = ChipScratch::new();
            probes
                .iter()
                .map(|x| {
                    faulty
                        .forward_powers_into(x, &theta, &mut scratch)
                        .iter()
                        .any(|v| v.is_nan())
                })
                .collect::<Vec<bool>>()
        };
        let (faulty, _, theta) = base_chip(19);
        faulty.advance_to(1);
        let refs: Vec<&CVector> = probes.iter().collect();
        let mut scratch = BatchScratch::new();
        let batched = faulty.forward_powers_batch_into(&refs, &theta, &mut scratch);
        let batched_pattern: Vec<bool> = batched
            .iter()
            .map(|p| p.iter().any(|v| v.is_nan()))
            .collect();
        assert_eq!(serial_pattern, batched_pattern);
        assert_eq!(faulty.query_count(), probes.len() as u64);
    }

    #[test]
    fn batched_passthrough_matches_inner_batch() {
        let mut rng = StdRng::seed_from_u64(2);
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let theta = chip.init_params(&mut rng);
        let xs: Vec<CVector> = (0..3)
            .map(|_| photon_linalg::random::random_unit_cvector(4, &mut rng))
            .collect();
        let refs: Vec<&CVector> = xs.iter().collect();
        let mut scratch = BatchScratch::new();
        let clean: Vec<CVector> = chip
            .forward_batch_into(&refs, &theta, &mut scratch)
            .to_vec();
        let faulty = FaultyChip::new(chip, FaultPlan::new(77));
        faulty.advance_to(3);
        let mut scratch2 = BatchScratch::new();
        let wrapped = faulty.forward_batch_into(&refs, &theta, &mut scratch2);
        assert_eq!(clean.as_slice(), wrapped);
    }

    #[test]
    fn stuck_shifter_pins_its_phase() {
        let mut rng = StdRng::seed_from_u64(3);
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(0.0), &mut rng);
        let theta = chip.init_params(&mut rng);
        let x = CVector::basis(4, 1);
        // Reference: evaluate the bare chip at theta with slot 2 overridden.
        let mut pinned = theta.clone();
        pinned.as_mut_slice()[2] = 1.25;
        let want = chip.forward(&x, &pinned);
        let faulty = FaultyChip::new(
            chip,
            FaultPlan::new(1).with_stuck(StuckShifter {
                index: 2,
                value: 1.25,
            }),
        );
        let got = faulty.forward(&x, &theta);
        assert_eq!(want, got);
    }

    #[test]
    fn drift_walks_and_stays_bounded() {
        let (faulty, _, _) = base_chip(23);
        assert_eq!(faulty.state.lock().drift.max_abs(), 0.0);
        faulty.advance_to(500);
        let d = faulty.state.lock().drift.clone();
        assert!(d.max_abs() > 0.0, "drift should have moved");
        // OU is stationary with σ = 0.02: 10σ is an extremely safe bound.
        assert!(d.max_abs() < 0.2, "drift {:.3} out of bounds", d.max_abs());
        assert_eq!(faulty.state.lock().step, 500);
    }

    #[test]
    fn dropped_reads_are_nan_and_still_count_queries() {
        let mut rng = StdRng::seed_from_u64(29);
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let faulty = FaultyChip::new(
            chip,
            FaultPlan::new(31).with_transients(TransientConfig {
                drop_prob: 1.0,
                ..TransientConfig::default()
            }),
        );
        let theta = faulty.init_params(&mut rng);
        let x = CVector::basis(4, 0);
        let p = faulty.forward_powers(&x, &theta);
        assert!(p.iter().all(|v| v.is_nan()));
        let y = faulty.forward(&x, &theta);
        assert!(y.iter().all(|z| z.re.is_nan() && z.im.is_nan()));
        assert_eq!(faulty.query_count(), 2);
        assert_eq!(faulty.fault_counts().dropped, 2);
    }

    #[test]
    fn hung_read_unblocks_on_abort_and_poisons() {
        let mut rng = StdRng::seed_from_u64(53);
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let faulty = FaultyChip::new(
            chip,
            FaultPlan::new(55).with_hangs(HangConfig {
                prob: 1.0,
                max_block: Duration::from_secs(30), // "permanently" hung
            }),
        );
        let theta = faulty.init_params(&mut rng);
        let x = CVector::basis(4, 0);
        let flag = faulty.abort_flag();
        let t0 = Instant::now();
        let (p, fired) = photon_exec::run_guarded(
            Duration::from_millis(30),
            || flag.raise(),
            || faulty.forward_powers(&x, &theta),
        );
        assert!(fired, "the deadline must trip on a hung read");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "abort must beat the safety valve"
        );
        assert!(p.iter().all(|v| v.is_nan()), "cancelled read is poisoned");
        assert_eq!(faulty.fault_counts().hung, 1);
        // The query still hit the inner chip: the lab charged for it.
        assert_eq!(faulty.query_count(), 1);
        flag.clear();
    }

    #[test]
    fn hang_safety_valve_expires_without_watchdog() {
        let mut rng = StdRng::seed_from_u64(57);
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let faulty = FaultyChip::new(
            chip,
            FaultPlan::new(59).with_hangs(HangConfig {
                prob: 1.0,
                max_block: Duration::from_millis(20),
            }),
        );
        let theta = faulty.init_params(&mut rng);
        let p = faulty.forward_powers(&CVector::basis(4, 1), &theta);
        assert!(p.iter().all(|v| v.is_nan()));
        assert_eq!(faulty.fault_counts().hung, 1);
    }

    #[test]
    fn spike_hits_exactly_one_port() {
        let mut rng = StdRng::seed_from_u64(41);
        let arch = Architecture::single_mesh(4, 4).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let theta = chip.init_params(&mut rng);
        let x = CVector::basis(4, 2);
        let clean = chip.forward_powers(&x, &theta);
        let faulty = FaultyChip::new(
            chip,
            FaultPlan::new(43).with_transients(TransientConfig {
                spike_prob: 1.0,
                spike_scale: 100.0,
                ..TransientConfig::default()
            }),
        );
        let spiked = faulty.forward_powers(&x, &theta);
        let changed: Vec<usize> = (0..4)
            .filter(|&i| (spiked.as_slice()[i] - clean.as_slice()[i]).abs() > 1e-12)
            .collect();
        assert_eq!(changed.len(), 1, "exactly one port spikes");
        let i = changed[0];
        assert!((spiked.as_slice()[i] / clean.as_slice()[i] - 100.0).abs() < 1e-6);
    }
}
