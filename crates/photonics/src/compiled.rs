//! Compiled forward plans: cached dense unitaries + batched GEMM execution.
//!
//! A mesh is linear in the optical field, so for a fixed `theta` every run
//! of consecutive linear modules collapses to one dense `N×N` matrix. A
//! [`CompiledNetwork`] caches those matrices (keyed by the exact `theta`
//! they were compiled at, with a generation counter exposed for cache
//! observability) and evaluates a whole `B`-sample batch per stage:
//! linear stages as one multi-RHS GEMM, nonlinear stages (modReLU,
//! electro-optic) element-wise per column. Per probe point this replaces
//! `O(ops·B)` interpreted op applications — each with its own trig — by an
//! `O(ops·N)` compile plus an `O(N²·B)` GEMM.
//!
//! A [`PinnedBase`] serves requests near one pinned `theta` in two ways,
//! NNUE's incremental accumulator applied to a compiled plan. A sparse
//! theta-diff rebuilds the stage matrices from the base by exact rank-1
//! corrections instead of a mesh recompile. And when every phase the
//! request changes lies past the first stage, the batch starts at the
//! first changed stage from the panel that entered it at the pinned
//! `theta`, memoized per input block; the stages before it are skipped.
//!
//! Numerical contract: compiled evaluation matches the interpreted op walk
//! to rounding (≤1e-12 observed at the dimensions used here), but is *not*
//! bitwise-identical to it — summation orders differ. The single-sample
//! `forward_into` paths therefore stay interpreted; only the batched entry
//! points use compiled plans. Within the compiled path, every output value
//! is bitwise-independent of the batch partition, which preserves
//! worker-pool determinism, and a memo-served batch gives the bits the
//! full stage walk gives.

use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;
use photon_linalg::{gemm_into, CMatrix, CPanel, CVector, GemmMatrix, RVector, C64};

use crate::mesh::MeshModule;
use crate::module::Module;
use crate::network::Network;

/// Maximum number of changed phases an incremental serve will absorb; any
/// wider theta-diff falls back to a full recompile.
pub const MAX_INCREMENTAL_PHASES: usize = 4;

/// Multi-phase incremental serves additionally require every `|Δθ|` below
/// this bound: the per-phase rank-1 updates are applied against the shared
/// pinned base, so cross-terms of order `O(Δ²)` are dropped. A
/// single-phase serve is mathematically exact and is accepted at any `Δ`.
pub const MULTI_PHASE_DELTA_LIMIT: f64 = 1e-4;

/// Incremental serves a plan performs between forced full f64 recompiles.
///
/// Every incremental serve is computed from the pristine pinned base, so no
/// error accumulates serve-over-serve; this cadence is defense-in-depth for
/// long-lived serving plans whose pin is never refreshed. Per-call training
/// plans serve far fewer thetas than this between full compiles, so the
/// counter never trips there and pool-size determinism is preserved.
pub const FORCED_RECOMPILE_PERIOD: u64 = 256;

/// Input blocks one pin's stage-input memo holds: 16 blocks of the 32
/// samples a chip batch loss evaluates per block, a 512-sample batch.
const MEMO_BLOCKS: usize = 16;

/// The stage split shared by [`PinnedBase`] and [`CompiledNetwork`]:
/// `(true, run)` for each maximal run of consecutive meshes, which fuses
/// into one linear stage, and `(false, i..i + 1)` for each activation, a
/// pointwise stage of its own; in pipeline order.
fn stage_split(modules: &[Module]) -> Vec<(bool, Range<usize>)> {
    let mut start = 0;
    modules
        .chunk_by(|a, b| matches!((a, b), (Module::Mesh(_), Module::Mesh(_))))
        .map(|run| {
            let range = start..start + run.len();
            start = range.end;
            (matches!(run[0], Module::Mesh(_)), range)
        })
        .collect()
}

/// The meshes of a linear stage's module range, each with its global theta
/// range.
fn stage_meshes(
    net: &Network,
    modules: Range<usize>,
) -> impl DoubleEndedIterator<Item = (&MeshModule, Range<usize>)> {
    modules.map(move |i| match &net.modules()[i] {
        Module::Mesh(mesh) => (mesh, net.module_param_range(i)),
        _ => unreachable!("a linear stage holds only meshes"),
    })
}

/// Whether two panels have the same shape and the same bits: `-0.0` and
/// `0.0` differ, and a NaN matches its own bits.
fn same_bits(a: &CPanel, b: &CPanel) -> bool {
    a.dim() == b.dim()
        && a.batch() == b.batch()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// One execution stage of a compiled plan.
#[derive(Debug, Clone)]
enum Stage {
    /// A fused run of consecutive meshes, evaluated as a single GEMM with
    /// the cached product matrix.
    Linear {
        /// Dense transfer matrix of the fused module run at the cached
        /// `theta`, packed for the GEMM whenever it is rebuilt.
        matrix: GemmMatrix,
        /// Indices into `Network::modules()` of the fused run, in order.
        modules: std::ops::Range<usize>,
        /// Optical dimension of the run (rows of `matrix`).
        dim: usize,
    },
    /// A nonlinear module applied element-wise, column by column.
    Pointwise {
        /// Index into `Network::modules()`.
        module: usize,
    },
}

/// One stage of a [`PinnedBase`], with the global theta indices its
/// modules read.
#[derive(Debug)]
enum BaseStage {
    /// A fused linear run: its matrix at the pinned theta plus, per phase
    /// shifter, the snapshots that make rank-1 incremental updates
    /// possible. The stage's phase `j` (global index `params.start + j`)
    /// drives one shifter, since the meshes number their phases in op
    /// order; its fabrication factor is `zeta[j]`, its prefix row
    /// `prefix[j·dim..(j+1)·dim]` and its suffix column
    /// `suffix[j·dim..(j+1)·dim]` (see `MeshModule::compile_apply_probed`).
    Linear {
        /// Fused transfer matrix at the pinned theta.
        matrix: CMatrix,
        /// Global theta indices covered by this stage's meshes.
        params: Range<usize>,
        /// Fabrication factor `ζ` of each phase's shifter.
        zeta: Vec<C64>,
        /// Prefix rows, `dim` entries per phase.
        prefix: Vec<C64>,
        /// Suffix columns, `dim` entries per phase.
        suffix: Vec<C64>,
    },
    /// An activation, which reads live theta at evaluation time and needs
    /// no compiled state.
    Pointwise {
        /// Global theta indices of the activation's biases.
        params: Range<usize>,
    },
}

impl BaseStage {
    fn params(&self) -> &Range<usize> {
        match self {
            BaseStage::Linear { params, .. } | BaseStage::Pointwise { params } => params,
        }
    }
}

/// One input block of a pin's stage-input memo.
#[derive(Debug)]
struct MemoEntry {
    /// The block's input panel, matched bit for bit.
    input: CPanel,
    /// `stage_inputs[t - 1]` is the panel that entered stage `t` at the
    /// pinned theta, for `t` in `1..=stage_inputs.len()`.
    stage_inputs: Vec<CPanel>,
}

/// A fully compiled forward plan pinned at one exact `theta`, shared (via
/// `Arc`) by every transient per-worker [`CompiledNetwork`] of a chip.
///
/// A pinned plan lets a worker serve a request as a *pure function* of
/// `(base, request theta)`: an exact theta match copies the base matrices,
/// a sparse diff (≤[`MAX_INCREMENTAL_PHASES`] phases) applies per-phase
/// rank-1 corrections in `O(N²)` per stage instead of an `O(ops·N)` mesh
/// recompile, and anything wider falls back to a full compile. The base's
/// matrices and snapshots never change after the compile, so results are
/// independent of serve order and worker count — the property the
/// pool-size determinism suite pins down.
///
/// **The stage-input memo.** The pin also keeps, for up to 16 input
/// blocks, the block's input panel and the panels that entered stages
/// `1..=s` at the pinned theta. A batch uses it only when its plan was
/// rebuilt from this pin by the sparse path and the first theta index the
/// request changes lies in a stage `s ≥ 1` (an activation counts as a
/// stage). Such a batch whose input panel matches an entry of depth `≥ s`
/// bit for bit starts at stage `s` from the memoized panel; otherwise it
/// runs every stage, as without a memo, and stores the panels entering
/// stages `1..=s` (a deeper entry replaces a shallower one, and a full
/// memo takes no new block). Exact-theta requests, dense requests and full
/// compiles never lock or read it. The skip is exact: the stages before
/// `s` of both the filling and the reading batch run the pin's own matrix
/// copies and the pin's theta bits on the same input bits, so the
/// memoized panel is the panel the full walk computes. The memo only
/// fills; its contents decide speed, never bits.
///
/// Compile one at a serial control point (the trainer does this once per
/// iteration, next to `OnnChip::advance_to`) and install it with
/// [`CompiledNetwork::set_pinned`].
#[derive(Debug)]
pub struct PinnedBase {
    stages: Vec<BaseStage>,
    theta: RVector,
    memo: Mutex<Vec<MemoEntry>>,
}

impl PinnedBase {
    /// Compiles a pinned base for `net` at `theta`.
    ///
    /// The forward walk is arithmetic-for-arithmetic identical to the plain
    /// stage compile, so an exact-match serve from the base is bitwise
    /// equal to a fresh full compile.
    ///
    /// # Panics
    ///
    /// Panics when `theta.len() != net.param_count()`.
    pub fn compile(net: &Network, theta: &RVector) -> Arc<PinnedBase> {
        assert_eq!(theta.len(), net.param_count(), "parameter count mismatch");
        let stages = stage_split(net.modules())
            .into_iter()
            .map(|(linear, modules)| {
                let params = net.module_param_range(modules.start).start
                    ..net.module_param_range(modules.end - 1).end;
                if linear {
                    Self::compile_linear(net, theta, modules, params)
                } else {
                    BaseStage::Pointwise { params }
                }
            })
            .collect();
        Arc::new(PinnedBase {
            stages,
            theta: theta.clone(),
            memo: Mutex::new(Vec::new()),
        })
    }

    /// The exact theta this base was compiled at.
    #[must_use]
    pub fn theta(&self) -> &RVector {
        &self.theta
    }

    fn compile_linear(
        net: &Network,
        theta: &RVector,
        modules: Range<usize>,
        params: Range<usize>,
    ) -> BaseStage {
        let dim = net.modules()[modules.start].dim();
        let mut matrix = CMatrix::identity(dim);
        let mut zeta = Vec::with_capacity(params.len());
        let mut prefix = Vec::with_capacity(params.len() * dim);
        for (mesh, pr) in stage_meshes(net, modules.clone()) {
            mesh.compile_apply_probed(&theta.as_slice()[pr], &mut matrix, &mut zeta, &mut prefix);
        }
        debug_assert_eq!(zeta.len(), params.len(), "one shifter per phase");
        // The reverse walk fills the suffix columns, each mesh its own span.
        let mut suffix = vec![C64::ZERO; prefix.len()];
        let mut acc = CMatrix::identity(dim);
        for (mesh, pr) in stage_meshes(net, modules).rev() {
            let span = (pr.start - params.start) * dim..(pr.end - params.start) * dim;
            mesh.compile_suffix_probed(&theta.as_slice()[pr], &mut acc, &mut suffix[span]);
        }
        BaseStage::Linear {
            matrix,
            params,
            zeta,
            prefix,
            suffix,
        }
    }

    /// The stage whose theta range holds global index `k`.
    fn stage_of(&self, k: usize) -> usize {
        self.stages.partition_point(|stage| stage.params().end <= k)
    }

    /// Overwrites `panel`, a block's input panel, with the memoized panel
    /// that entered `stage` for that input and returns `true`; returns
    /// `false`, leaving `panel` as it is, when no entry that deep matches.
    fn memo_load(&self, stage: usize, panel: &mut CPanel) -> bool {
        let memo = self.memo.lock();
        let found = memo
            .iter()
            .find(|entry| same_bits(&entry.input, panel))
            .and_then(|entry| entry.stage_inputs.get(stage - 1));
        let Some(memoized) = found else {
            return false;
        };
        panel.resize(memoized.dim(), memoized.batch());
        panel.as_mut_slice().copy_from_slice(memoized.as_slice());
        true
    }

    /// Stores the panels that entered stages `1..=stage_inputs.len()` for
    /// the block `input`, unless an entry at least that deep holds it or
    /// the memo is full.
    fn memo_store(&self, input: CPanel, stage_inputs: Vec<CPanel>) {
        let mut memo = self.memo.lock();
        match memo
            .iter()
            .position(|entry| same_bits(&entry.input, &input))
        {
            Some(i) => {
                if memo[i].stage_inputs.len() < stage_inputs.len() {
                    memo[i].stage_inputs = stage_inputs;
                }
            }
            None => {
                if memo.len() < MEMO_BLOCKS {
                    memo.push(MemoEntry {
                        input,
                        stage_inputs,
                    });
                }
            }
        }
    }
}

/// A cached compiled execution plan for one [`Network`].
///
/// The stage *structure* (which modules fuse into which linear runs) is
/// theta-independent and built once; the stage *matrices* are recompiled
/// whenever the plan is asked to run at a `theta` different from the cached
/// one. [`CompiledNetwork::generation`] counts recompiles, so callers and
/// tests can observe cache behaviour.
///
/// All buffers (matrices, ping/pong panels) are owned and reused:
/// steady-state re-evaluation at fixed `N`, `B` performs no heap
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct CompiledNetwork {
    stages: Vec<Stage>,
    cached_theta: RVector,
    valid: bool,
    generation: u64,
    hits: u64,
    invalidations: u64,
    full_compiles: u64,
    incremental: u64,
    forced_recompiles: u64,
    skipped_stages: u64,
    serves_since_full: u64,
    pinned: Option<Arc<PinnedBase>>,
    /// The stage a batch may start at from the pin's memo: the first stage
    /// the cached theta changes, recorded by a sparse rebuild from the pin;
    /// 0 (no memo) after a full compile, an exact-theta serve or a pin
    /// change.
    reuse_stage: usize,
    diff_idx: Vec<usize>,
    ping: CPanel,
    pong: CPanel,
}

/// Cache counters for one [`CompiledNetwork`] plan (or an aggregate over
/// the transient per-worker plans of a chip — see `OnnChip::cache_stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `ensure` calls served by the cached matrices (theta unchanged).
    pub hits: u64,
    /// Full f64 compilations — every `ensure` that rebuilt the stage
    /// matrices by walking the op lists.
    pub misses: u64,
    /// Rebuilds that evicted a previously valid plan (i.e. theta moved);
    /// the remainder are cold compiles.
    pub invalidations: u64,
    /// Rebuilds served incrementally from a pinned base (exact-match copy
    /// or sparse rank-1 update) instead of a full op-walk compile.
    pub incremental: u64,
    /// Full recompiles forced by the [`FORCED_RECOMPILE_PERIOD`] cadence
    /// while a pinned base was installed.
    pub forced_recompiles: u64,
    /// Stages that batches skipped by starting from a panel in the pin's
    /// stage-input memo (see [`PinnedBase`]), summed over batches.
    pub skipped_stages: u64,
}

impl CacheStats {
    /// Counterwise sum (aggregating several plans into one chip view).
    pub fn absorb(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.incremental += other.incremental;
        self.forced_recompiles += other.forced_recompiles;
        self.skipped_stages += other.skipped_stages;
    }

    /// Counterwise difference against an earlier snapshot of the same
    /// monotone counters.
    #[must_use]
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
            incremental: self.incremental.saturating_sub(earlier.incremental),
            forced_recompiles: self
                .forced_recompiles
                .saturating_sub(earlier.forced_recompiles),
            skipped_stages: self.skipped_stages.saturating_sub(earlier.skipped_stages),
        }
    }
}

impl CompiledNetwork {
    /// An empty plan; the structure is built lazily on first use against a
    /// concrete network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recompiles performed so far. Two evaluations at the same
    /// `theta` leave this unchanged; mutating `theta` bumps it.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cache counters for this plan. `hits` counts `ensure` calls that
    /// reused the cached matrices; `misses` counts full op-walk compiles;
    /// `incremental` counts rebuilds served from the pinned base;
    /// `invalidations` counts rebuilds (of either kind) that replaced a
    /// previously valid plan; `skipped_stages` counts the stages batches
    /// skipped through the pin's memo. Without a pin, `misses` equals
    /// [`CompiledNetwork::generation`].
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.full_compiles,
            invalidations: self.invalidations,
            incremental: self.incremental,
            forced_recompiles: self.forced_recompiles,
            skipped_stages: self.skipped_stages,
        }
    }

    /// Installs (or clears) the shared pinned base this plan may serve
    /// incremental rebuilds from. Plans without a pin behave exactly as
    /// before pinning existed. Installing a different pin resets the
    /// forced-recompile cadence, since the base itself is fresh, and
    /// stops the cached matrices from reading the new pin's memo.
    pub fn set_pinned(&mut self, pin: Option<Arc<PinnedBase>>) {
        let changed = match (&self.pinned, &pin) {
            (Some(a), Some(b)) => !Arc::ptr_eq(a, b),
            (None, None) => false,
            _ => true,
        };
        if changed {
            self.serves_since_full = 0;
            self.reuse_stage = 0;
        }
        self.pinned = pin;
    }

    fn build_structure(&mut self, net: &Network) {
        self.stages = stage_split(net.modules())
            .into_iter()
            .map(|(linear, modules)| {
                if linear {
                    let dim = net.modules()[modules.start].dim();
                    Stage::Linear {
                        matrix: GemmMatrix::new(CMatrix::identity(dim)),
                        modules,
                        dim,
                    }
                } else {
                    Stage::Pointwise {
                        module: modules.start,
                    }
                }
            })
            .collect();
    }

    /// Makes the plan valid for `net` at `theta`, rebuilding the linear
    /// stage matrices only when `theta` differs from the cached value.
    /// Returns `true` when a rebuild happened.
    ///
    /// With a pinned base installed (see [`CompiledNetwork::set_pinned`]),
    /// a rebuild whose theta-diff against the pin is sparse is served as a
    /// base copy plus rank-1 corrections; everything else is a full op-walk
    /// compile, exactly as before pinning existed.
    ///
    /// # Panics
    ///
    /// Panics when `theta.len() != net.param_count()`.
    pub fn ensure(&mut self, net: &Network, theta: &RVector) -> bool {
        assert_eq!(theta.len(), net.param_count(), "parameter count mismatch");
        if self.stages.is_empty() {
            self.build_structure(net);
        }
        if self.valid && self.cached_theta.as_slice() == theta.as_slice() {
            self.hits += 1;
            return false;
        }
        if self.valid {
            self.invalidations += 1;
        }
        if let Some(reuse_stage) = self.try_pinned_serve(theta) {
            self.incremental += 1;
            self.serves_since_full += 1;
            self.reuse_stage = reuse_stage;
        } else {
            for stage in &mut self.stages {
                if let Stage::Linear {
                    matrix,
                    modules,
                    dim,
                } = stage
                {
                    matrix.rebuild(|m| {
                        m.reset_identity(*dim);
                        for (mesh, range) in stage_meshes(net, modules.clone()) {
                            mesh.compile_apply(&theta.as_slice()[range], m);
                        }
                    });
                }
            }
            self.full_compiles += 1;
            self.serves_since_full = 0;
            self.reuse_stage = 0;
        }
        self.cached_theta.copy_from(theta);
        self.valid = true;
        self.generation += 1;
        true
    }

    /// Attempts to rebuild the stage matrices from the pinned base. On
    /// success the matrices hold `base + Σ δ·b·cᵀ` over the changed phases
    /// and the stage a batch may start at from the pin's memo is returned:
    /// the stage of the first theta index whose bits differ from the pin,
    /// or 0 when that is stage 0 or no index differs. On any gate failure
    /// the matrices are left untouched, `None` is returned and the caller
    /// performs a full compile.
    fn try_pinned_serve(&mut self, theta: &RVector) -> Option<usize> {
        let pin = self.pinned.as_ref()?;
        if pin.theta.len() != theta.len() || pin.stages.len() != self.stages.len() {
            return None;
        }
        if self.serves_since_full >= FORCED_RECOMPILE_PERIOD {
            self.forced_recompiles += 1;
            return None;
        }
        let base = pin.theta.as_slice();
        let req = theta.as_slice();
        self.diff_idx.clear();
        // The memo may skip only stages whose theta holds the pin's exact
        // bits, since activations read theta live: `!=` alone calls −0.0
        // and 0.0 equal.
        let mut first_change = None;
        let mut max_delta = 0.0f64;
        for (k, (&a, &b)) in base.iter().zip(req).enumerate() {
            if a.to_bits() != b.to_bits() {
                first_change.get_or_insert(k);
            }
            if a != b {
                first_change.get_or_insert(k);
                if self.diff_idx.len() == MAX_INCREMENTAL_PHASES {
                    return None;
                }
                self.diff_idx.push(k);
                max_delta = max_delta.max((b - a).abs());
            }
        }
        if self.diff_idx.len() > 1 && max_delta > MULTI_PHASE_DELTA_LIMIT {
            return None;
        }
        // The pin must have this plan's stage structure. Changes to
        // pointwise-module parameters need no matrix work — those stages
        // read live theta at eval time.
        let same_structure = self.stages.iter().zip(&pin.stages).all(|pair| {
            matches!(
                pair,
                (Stage::Linear { .. }, BaseStage::Linear { .. })
                    | (Stage::Pointwise { .. }, BaseStage::Pointwise { .. })
            )
        });
        if !same_structure {
            return None;
        }
        // Commit: copy the base matrices and apply one rank-1 correction
        // per changed phase, in ascending phase order (a fixed order, so
        // the result is a pure function of the pin and the request theta).
        for (stage, bstage) in self.stages.iter_mut().zip(&pin.stages) {
            if let (
                Stage::Linear { matrix, dim, .. },
                BaseStage::Linear {
                    matrix: base_matrix,
                    params,
                    zeta,
                    prefix,
                    suffix,
                },
            ) = (stage, bstage)
            {
                matrix.rebuild(|matrix| {
                    matrix.clone_from(base_matrix);
                    for &k in &self.diff_idx {
                        if !params.contains(&k) {
                            continue;
                        }
                        let j = k - params.start;
                        let delta = zeta[j] * (C64::cis(req[k]) - C64::cis(base[k]));
                        let span = j * *dim..(j + 1) * *dim;
                        for (r, &b) in suffix[span.clone()].iter().enumerate() {
                            let coef = delta * b;
                            for (m, &p) in matrix.row_mut(r).iter_mut().zip(&prefix[span.clone()]) {
                                *m += coef * p;
                            }
                        }
                    }
                });
            }
        }
        Some(first_change.map_or(0, |k| pin.stage_of(k)))
    }

    /// Evaluates the network on a whole batch of inputs, returning the
    /// packed `output_dim × B` result panel (column `b` is the output field
    /// of `xs[b]`).
    ///
    /// Compiles lazily via [`CompiledNetwork::ensure`]. Each output column
    /// is bitwise-independent of the other columns and of the batch width,
    /// so callers may partition batches freely without perturbing results.
    /// A plan rebuilt from its pin by a sparse diff past the first stage
    /// reads and fills the pin's stage-input memo (see [`PinnedBase`]),
    /// with the same output bits.
    ///
    /// # Panics
    ///
    /// Panics when `theta.len() != net.param_count()` or any input length
    /// differs from `net.input_dim()`.
    pub fn forward_batch(&mut self, net: &Network, theta: &RVector, xs: &[&CVector]) -> &CPanel {
        self.ensure(net, theta);
        let n = net.input_dim();
        let b = xs.len();
        self.ping.resize(n, b);
        for (j, x) in xs.iter().enumerate() {
            // The single validated boundary check for the batched path.
            assert_eq!(x.len(), n, "input dimension mismatch");
            self.ping.col_mut(j).copy_from_slice(x.as_slice());
        }
        let CompiledNetwork {
            stages,
            pinned,
            reuse_stage,
            skipped_stages,
            ping,
            pong,
            ..
        } = self;
        let reuse = *reuse_stage;
        let memo = pinned.as_deref().filter(|_| reuse > 0);
        // `fill` collects the panels entering stages 1..=reuse on a miss.
        let mut start = 0;
        let mut fill = None;
        if let Some(pin) = memo {
            if pin.memo_load(reuse, ping) {
                start = reuse;
                *skipped_stages += reuse as u64;
            } else {
                fill = Some((ping.clone(), Vec::with_capacity(reuse)));
            }
        }
        let mut cur_is_ping = true;
        for (t, stage) in stages.iter().enumerate().skip(start) {
            let (src, dst) = if cur_is_ping {
                (&*ping, &mut *pong)
            } else {
                (&*pong, &mut *ping)
            };
            match stage {
                Stage::Linear { matrix, .. } => gemm_into(matrix, src, dst),
                Stage::Pointwise { module } => {
                    let m = &net.modules()[*module];
                    let th = &theta.as_slice()[net.module_param_range(*module)];
                    dst.resize(m.dim(), b);
                    for j in 0..b {
                        m.forward_pointwise(src.col(j), th, dst.col_mut(j));
                    }
                }
            }
            if let Some((_, stage_inputs)) = fill.as_mut().filter(|_| t < reuse) {
                stage_inputs.push(dst.clone());
            }
            cur_is_ping = !cur_is_ping;
        }
        if let (Some(pin), Some((input, stage_inputs))) = (memo, fill) {
            pin.memo_store(input, stage_inputs);
        }
        if cur_is_ping {
            ping
        } else {
            pong
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Architecture, NetworkScratch};
    use photon_linalg::random::normal_cvector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn batch(dim: usize, b: usize, rng: &mut StdRng) -> Vec<CVector> {
        (0..b).map(|_| normal_cvector(dim, rng)).collect()
    }

    #[test]
    fn compiled_batch_matches_interpreted_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        for arch in [
            Architecture::single_mesh(6, 6).unwrap(),
            Architecture::two_mesh_classifier(6, 6).unwrap(),
        ] {
            let net = arch.build_ideal();
            let theta = net.init_params(&mut rng);
            let xs = batch(6, 5, &mut rng);
            let refs: Vec<&CVector> = xs.iter().collect();
            let mut plan = CompiledNetwork::new();
            let panel = plan.forward_batch(&net, &theta, &refs);
            let mut scratch = NetworkScratch::new();
            for (j, x) in xs.iter().enumerate() {
                let want = net.forward_into(x, &theta, &mut scratch);
                for k in 0..want.len() {
                    assert!(
                        (panel.col(j)[k] - want[k]).abs() < 1e-12,
                        "sample {j} port {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_mesh_fuses_to_one_linear_stage() {
        let net = Architecture::single_mesh(4, 4).unwrap().build_ideal();
        let mut plan = CompiledNetwork::new();
        let theta = RVector::zeros(net.param_count());
        plan.ensure(&net, &theta);
        assert_eq!(plan.stages.len(), 1);
        assert!(matches!(plan.stages[0], Stage::Linear { .. }));
    }

    #[test]
    fn pinned_exact_match_serve_is_bitwise_equal_to_full_compile() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = Architecture::two_mesh_classifier(5, 5)
            .unwrap()
            .build_ideal();
        let theta = net.init_params(&mut rng);
        let xs = batch(5, 4, &mut rng);
        let refs: Vec<&CVector> = xs.iter().collect();

        let mut plain = CompiledNetwork::new();
        let want = plain.forward_batch(&net, &theta, &refs).clone();

        let pin = PinnedBase::compile(&net, &theta);
        let mut pinned = CompiledNetwork::new();
        pinned.set_pinned(Some(pin));
        let got = pinned.forward_batch(&net, &theta, &refs);
        assert_eq!(
            got.as_slice(),
            want.as_slice(),
            "exact match must be bitwise"
        );
        assert_eq!(pinned.cache_stats().incremental, 1);
        assert_eq!(pinned.cache_stats().misses, 0);
    }

    #[test]
    fn pinned_single_phase_serve_matches_full_compile() {
        let mut rng = StdRng::seed_from_u64(12);
        let net = Architecture::single_mesh(6, 6).unwrap().build_ideal();
        let theta = net.init_params(&mut rng);
        let xs = batch(6, 3, &mut rng);
        let refs: Vec<&CVector> = xs.iter().collect();
        let pin = PinnedBase::compile(&net, &theta);

        for k in [0usize, 7, net.param_count() - 1] {
            let mut theta2 = theta.clone();
            theta2[k] += 0.37; // single-phase updates are exact at any Δ
            let mut plain = CompiledNetwork::new();
            let want = plain.forward_batch(&net, &theta2, &refs).clone();
            let mut pinned = CompiledNetwork::new();
            pinned.set_pinned(Some(pin.clone()));
            let got = pinned.forward_batch(&net, &theta2, &refs).clone();
            assert_eq!(
                pinned.cache_stats().incremental,
                1,
                "phase {k} not incremental"
            );
            for j in 0..3 {
                for p in 0..6 {
                    assert!(
                        (got.col(j)[p] - want.col(j)[p]).abs() < 1e-12,
                        "phase {k} sample {j} port {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_diffs_fall_back_to_full_compile() {
        let mut rng = StdRng::seed_from_u64(13);
        let net = Architecture::single_mesh(4, 4).unwrap().build_ideal();
        let theta = net.init_params(&mut rng);
        let xs = batch(4, 2, &mut rng);
        let refs: Vec<&CVector> = xs.iter().collect();
        let pin = PinnedBase::compile(&net, &theta);
        let mut plan = CompiledNetwork::new();
        plan.set_pinned(Some(pin));
        let mut theta2 = theta.clone();
        for k in 0..=MAX_INCREMENTAL_PHASES {
            theta2[k] += 1e-5;
        }
        plan.forward_batch(&net, &theta2, &refs);
        let stats = plan.cache_stats();
        assert_eq!(
            stats.incremental, 0,
            "diff wider than K must not be incremental"
        );
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn forced_recompile_cadence_is_observable() {
        let mut rng = StdRng::seed_from_u64(14);
        let net = Architecture::single_mesh(3, 3).unwrap().build_ideal();
        let theta = net.init_params(&mut rng);
        let xs = batch(3, 1, &mut rng);
        let refs: Vec<&CVector> = xs.iter().collect();
        let pin = PinnedBase::compile(&net, &theta);
        let mut plan = CompiledNetwork::new();
        plan.set_pinned(Some(pin));
        let mut theta2 = theta.clone();
        for i in 0..=FORCED_RECOMPILE_PERIOD {
            theta2[0] = theta[0] + 1e-6 * (i + 1) as f64;
            plan.forward_batch(&net, &theta2, &refs);
        }
        let stats = plan.cache_stats();
        assert_eq!(
            stats.forced_recompiles, 1,
            "cadence must force one full recompile"
        );
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.incremental, FORCED_RECOMPILE_PERIOD);
    }

    #[test]
    fn generation_counts_recompiles_only() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = Architecture::single_mesh(4, 4).unwrap().build_ideal();
        let theta = net.init_params(&mut rng);
        let xs = batch(4, 3, &mut rng);
        let refs: Vec<&CVector> = xs.iter().collect();
        let mut plan = CompiledNetwork::new();
        assert_eq!(plan.generation(), 0);
        plan.forward_batch(&net, &theta, &refs);
        assert_eq!(plan.generation(), 1);
        plan.forward_batch(&net, &theta, &refs);
        assert_eq!(plan.generation(), 1, "same theta must hit the cache");
        let mut theta2 = theta.clone();
        theta2[0] += 1e-3;
        plan.forward_batch(&net, &theta2, &refs);
        assert_eq!(plan.generation(), 2, "mutated theta must recompile");
    }
}
