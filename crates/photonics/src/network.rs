//! Whole-network assembly: architectures, parameter packing and end-to-end
//! differentiation.

use std::fmt;
use std::ops::Range;

use rand::Rng;

use photon_linalg::{CVector, RVector, C64};

use crate::electrooptic::ElectroOptic;
use crate::error::{ErrorCursor, ErrorVector};
use crate::mesh::MeshModule;
use crate::modrelu::ModRelu;
use crate::module::Module;
use crate::panel::StatePanel;

/// Errors raised while assembling a [`Network`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetworkError {
    /// Two consecutive modules have incompatible port counts.
    DimensionMismatch {
        /// Index of the offending module in the spec list.
        index: usize,
        /// Output dimension of the previous module.
        expected: usize,
        /// Input dimension of the offending module.
        found: usize,
    },
    /// The architecture contains no modules.
    Empty,
    /// An error vector with the wrong number of slots was supplied.
    ErrorSlotMismatch {
        /// Slots the architecture requires `(beam splitters, phase shifters)`.
        expected: (usize, usize),
        /// Slots the supplied error vector provides.
        found: (usize, usize),
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::DimensionMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "module {index} expects {found} ports but previous module outputs {expected}"
            ),
            NetworkError::Empty => write!(f, "architecture has no modules"),
            NetworkError::ErrorSlotMismatch { expected, found } => write!(
                f,
                "error vector provides {found:?} slots, architecture needs {expected:?}"
            ),
        }
    }
}

impl std::error::Error for NetworkError {}

/// Declarative description of one module in an [`Architecture`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModuleSpec {
    /// Rectangular Clements mesh (`layers == dim` is universal).
    Clements {
        /// Waveguide count.
        dim: usize,
        /// MZI layer count.
        layers: usize,
    },
    /// Triangular Reck mesh.
    Reck {
        /// Waveguide count.
        dim: usize,
    },
    /// Diagonal phase layer.
    PhaseDiag {
        /// Waveguide count.
        dim: usize,
    },
    /// modReLU activation.
    ModRelu {
        /// Waveguide count.
        dim: usize,
    },
    /// Electro-optic activation (Williamson et al. 2020).
    ElectroOptic {
        /// Waveguide count.
        dim: usize,
        /// Tap ratio α ∈ [0, 1).
        alpha: f64,
        /// Electro-optic gain `g`.
        gain: f64,
    },
}

impl ModuleSpec {
    /// Waveguide count of the module.
    pub fn dim(&self) -> usize {
        match *self {
            ModuleSpec::Clements { dim, .. }
            | ModuleSpec::Reck { dim }
            | ModuleSpec::PhaseDiag { dim }
            | ModuleSpec::ModRelu { dim }
            | ModuleSpec::ElectroOptic { dim, .. } => dim,
        }
    }

    fn instantiate(&self) -> Module {
        match *self {
            ModuleSpec::Clements { dim, layers } => Module::Mesh(MeshModule::clements(dim, layers)),
            ModuleSpec::Reck { dim } => Module::Mesh(MeshModule::reck(dim)),
            ModuleSpec::PhaseDiag { dim } => Module::Mesh(MeshModule::phase_diag(dim)),
            ModuleSpec::ModRelu { dim } => Module::ModRelu(ModRelu::new(dim)),
            ModuleSpec::ElectroOptic { dim, alpha, gain } => {
                Module::ElectroOptic(ElectroOptic::new(dim, alpha, gain))
            }
        }
    }
}

/// A validated module pipeline that can be instantiated with any error
/// assignment — the shared "blueprint" of the physical chip, the ideal
/// model and the calibrated model.
///
/// # Examples
///
/// ```
/// use photon_photonics::Architecture;
///
/// // The standard single-hidden-layer ONN classifier used in the paper line:
/// // Clements(K,K) + PSdiag + modReLU + Clements(K,K) + PSdiag.
/// let arch = Architecture::two_mesh_classifier(8, 8)?;
/// assert_eq!(arch.input_dim(), 8);
/// assert_eq!(arch.param_count(), 2 * (56 + 8) + 8);
/// # Ok::<(), photon_photonics::NetworkError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Architecture {
    specs: Vec<ModuleSpec>,
}

impl Architecture {
    /// Validates and wraps a module list.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Empty`] for an empty list and
    /// [`NetworkError::DimensionMismatch`] when consecutive module port
    /// counts disagree.
    pub fn new(specs: Vec<ModuleSpec>) -> Result<Self, NetworkError> {
        if specs.is_empty() {
            return Err(NetworkError::Empty);
        }
        for i in 1..specs.len() {
            let expected = specs[i - 1].dim();
            let found = specs[i].dim();
            if expected != found {
                return Err(NetworkError::DimensionMismatch {
                    index: i,
                    expected,
                    found,
                });
            }
        }
        Ok(Architecture { specs })
    }

    /// `Clements(K,L) + PSdiag(K)`: a single programmable linear layer.
    ///
    /// # Errors
    ///
    /// Never fails for `dim ≥ 2`, `layers ≥ 1`; returns the same errors as
    /// [`Architecture::new`] otherwise.
    pub fn single_mesh(dim: usize, layers: usize) -> Result<Self, NetworkError> {
        Architecture::new(vec![
            ModuleSpec::Clements { dim, layers },
            ModuleSpec::PhaseDiag { dim },
        ])
    }

    /// The classification network of the evaluation:
    /// `Clements(K,L) + PSdiag(K) + modReLU(K) + Clements(K,L) + PSdiag(K)`.
    ///
    /// # Errors
    ///
    /// Same as [`Architecture::new`].
    pub fn two_mesh_classifier(dim: usize, layers: usize) -> Result<Self, NetworkError> {
        Architecture::new(vec![
            ModuleSpec::Clements { dim, layers },
            ModuleSpec::PhaseDiag { dim },
            ModuleSpec::ModRelu { dim },
            ModuleSpec::Clements { dim, layers },
            ModuleSpec::PhaseDiag { dim },
        ])
    }

    /// The classification network with the electro-optic activation instead
    /// of modReLU:
    /// `Clements(K,L) + PSdiag(K) + EOAct(K) + Clements(K,L) + PSdiag(K)`.
    ///
    /// # Errors
    ///
    /// Same as [`Architecture::new`].
    pub fn two_mesh_eo_classifier(
        dim: usize,
        layers: usize,
        alpha: f64,
        gain: f64,
    ) -> Result<Self, NetworkError> {
        Architecture::new(vec![
            ModuleSpec::Clements { dim, layers },
            ModuleSpec::PhaseDiag { dim },
            ModuleSpec::ElectroOptic { dim, alpha, gain },
            ModuleSpec::Clements { dim, layers },
            ModuleSpec::PhaseDiag { dim },
        ])
    }

    /// The module specs, in pipeline order.
    pub fn specs(&self) -> &[ModuleSpec] {
        &self.specs
    }

    /// Input dimension of the pipeline.
    pub fn input_dim(&self) -> usize {
        self.specs[0].dim()
    }

    /// Output dimension of the pipeline.
    pub fn output_dim(&self) -> usize {
        self.specs[self.specs.len() - 1].dim()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.specs
            .iter()
            .map(|s| s.instantiate().param_count())
            .sum()
    }

    /// Fabrication-error slots `(beam splitters, phase shifters)` the whole
    /// pipeline consumes.
    pub fn error_slots(&self) -> (usize, usize) {
        let mut bs = 0;
        let mut ps = 0;
        for s in &self.specs {
            let (b, p) = s.instantiate().error_slots();
            bs += b;
            ps += p;
        }
        (bs, ps)
    }

    /// Instantiates the ideal (error-free) network.
    pub fn build_ideal(&self) -> Network {
        let modules = self.specs.iter().map(|s| s.instantiate()).collect();
        Network::from_modules(modules, self.clone())
    }

    /// Instantiates the network with the given fabrication errors.
    ///
    /// # Errors
    ///
    /// [`NetworkError::ErrorSlotMismatch`] when `errors` does not match the
    /// architecture's slot counts.
    pub fn build_with_errors(&self, errors: &ErrorVector) -> Result<Network, NetworkError> {
        let expected = self.error_slots();
        let found = (errors.n_beam_splitters(), errors.n_phase_shifters());
        if expected != found {
            return Err(NetworkError::ErrorSlotMismatch { expected, found });
        }
        let mut cursor = ErrorCursor::new(errors);
        let mut modules = Vec::with_capacity(self.specs.len());
        for s in &self.specs {
            // Slot counts were validated above, so cursor exhaustion can only
            // mean the architecture and error vector disagree about layout.
            modules.push(
                s.instantiate()
                    .with_errors(&mut cursor)
                    .map_err(|_| NetworkError::ErrorSlotMismatch { expected, found })?,
            );
        }
        Ok(Network::from_modules(modules, self.clone()))
    }
}

/// A network's op gates ([`crate::Op::gate`]) at one parameter vector.
///
/// Gates depend only on the network and `θ`, so one plan serves every
/// sample evaluated at that `θ`: [`Network::forward_tape_into`] records
/// against it, and [`Network::jvp_into`], [`Network::vjp_into`] and
/// [`Network::error_vjp_into`] read it instead of re-evaluating any trig.
/// Built by [`Network::gate_plan`].
#[derive(Debug, Clone)]
pub struct GatePlan {
    gates: Vec<C64>,
}

/// One sample's saved forward state: each mesh op's input amplitudes (one
/// per phase shifter, two per beam splitter) and each activation's input,
/// in pipeline order in one contiguous buffer.
///
/// Together with the [`GatePlan`] it was recorded against, this is all the
/// JVP, VJP and error VJP read. Reusing one tape across samples performs no
/// heap allocation after the first.
#[derive(Debug, Clone)]
pub struct NetworkTape {
    taped: Vec<C64>,
}

/// Reusable evaluation buffers for the allocation-free network paths
/// ([`Network::forward_into`], [`Network::forward_tape_into`]).
///
/// One scratch belongs to one evaluation thread: build it once (e.g. per
/// worker via `ExecPool::map_with`), then reuse it for every sample. After
/// the first call at a given architecture, subsequent calls perform no heap
/// allocation.
#[derive(Debug, Clone, Default)]
pub struct NetworkScratch {
    ping: CVector,
    pong: CVector,
}

impl NetworkScratch {
    /// An empty scratch; buffers grow to the network's dimensions on first
    /// use.
    pub fn new() -> Self {
        NetworkScratch::default()
    }
}

/// Where one module's pieces sit in the network's flat buffers: the packed
/// parameters, the [`GatePlan`], the [`NetworkTape`] and the flat error
/// families of [`ErrorVector::to_flat`] (splitter `γ`s; shifter
/// attenuations and phases share one range).
#[derive(Debug, Clone)]
struct Spans {
    params: Range<usize>,
    gates: Range<usize>,
    taped: Range<usize>,
    gamma: Range<usize>,
    zeta: Range<usize>,
}

/// An instantiated ONN: a pipeline of modules with a packed parameter
/// vector layout.
///
/// The same type serves as the *physical chip's internals* (wrapped by
/// [`crate::FabricatedChip`], hidden from training algorithms), the *ideal
/// software model* (zero errors) and the *calibrated model* (estimated
/// errors) — they differ only in the error assignment baked into their
/// modules.
#[derive(Debug, Clone)]
pub struct Network {
    modules: Vec<Module>,
    spans: Vec<Spans>,
    param_count: usize,
    gate_count: usize,
    taped_len: usize,
    error_slots: (usize, usize),
    architecture: Architecture,
}

impl Network {
    fn from_modules(modules: Vec<Module>, architecture: Architecture) -> Self {
        let (mut params, mut gates, mut taped, mut bs, mut ps) = (0, 0, 0, 0, 0);
        let spans = modules
            .iter()
            .map(|m| {
                let (n_bs, n_ps) = m.error_slots();
                let spans = Spans {
                    params: params..params + m.param_count(),
                    gates: gates..gates + m.gate_count(),
                    taped: taped..taped + m.taped_len(),
                    gamma: bs..bs + n_bs,
                    zeta: ps..ps + n_ps,
                };
                params = spans.params.end;
                gates = spans.gates.end;
                taped = spans.taped.end;
                (bs, ps) = (bs + n_bs, ps + n_ps);
                spans
            })
            .collect();
        Network {
            modules,
            spans,
            param_count: params,
            gate_count: gates,
            taped_len: taped,
            error_slots: (bs, ps),
            architecture,
        }
    }

    /// The architecture this network was built from.
    pub fn architecture(&self) -> &Architecture {
        &self.architecture
    }

    /// The module pipeline.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.modules[0].dim()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.modules[self.modules.len() - 1].dim()
    }

    /// Total trainable parameter count `N`.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The half-open range of indices module `i` occupies in the packed
    /// parameter vector.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn module_param_range(&self, i: usize) -> Range<usize> {
        self.spans[i].params.clone()
    }

    /// Draws an initial parameter vector: layered meshes uniform in
    /// `[0, 2π)`, element-wise modules zero — the initialization protocol of
    /// the research line.
    pub fn init_params<R: Rng + ?Sized>(&self, rng: &mut R) -> RVector {
        let mut theta = RVector::zeros(self.param_count);
        for (i, m) in self.modules.iter().enumerate() {
            if m.is_layered() {
                let range = self.module_param_range(i);
                for k in range {
                    theta[k] = rng.gen::<f64>() * std::f64::consts::TAU;
                }
            }
        }
        theta
    }

    /// End-to-end forward pass.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.input_dim()` or
    /// `theta.len() != self.param_count()`.
    pub fn forward(&self, x: &CVector, theta: &RVector) -> CVector {
        self.forward_into(x, theta, &mut NetworkScratch::new())
            .clone()
    }

    /// Allocating form of [`Network::forward_tape_into`].
    ///
    /// # Panics
    ///
    /// Same as [`Network::forward_tape_into`].
    pub fn forward_tape(
        &self,
        x: &CVector,
        theta: &RVector,
        plan: &GatePlan,
    ) -> (CVector, NetworkTape) {
        let mut out = CVector::zeros(0);
        let mut tape = self.new_tape();
        let mut scratch = NetworkScratch::new();
        self.forward_tape_into(x, theta, plan, &mut scratch, &mut out, &mut tape);
        (out, tape)
    }

    /// The op gates at `theta`, shared by every sample evaluated there.
    ///
    /// # Panics
    ///
    /// Panics when `theta.len() != self.param_count()`.
    pub fn gate_plan(&self, theta: &RVector) -> GatePlan {
        assert_eq!(theta.len(), self.param_count, "parameter count mismatch");
        let mut gates = vec![C64::ZERO; self.gate_count];
        for (m, s) in self.modules.iter().zip(&self.spans) {
            let th = &theta.as_slice()[s.params.clone()];
            m.gates_into(th, &mut gates[s.gates.clone()]);
        }
        GatePlan { gates }
    }

    /// An empty tape shaped for this network, for reuse with
    /// [`Network::forward_tape_into`].
    pub fn new_tape(&self) -> NetworkTape {
        NetworkTape {
            taped: vec![C64::ZERO; self.taped_len],
        }
    }

    /// Allocation-free forward pass: evaluates into `scratch` and returns a
    /// reference to the output state held there.
    ///
    /// After the first call at this network's dimensions, no heap allocation
    /// is performed.
    ///
    /// # Panics
    ///
    /// Same as [`Network::forward`].
    pub fn forward_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut NetworkScratch,
    ) -> &'s CVector {
        let NetworkScratch { ping, pong } = scratch;
        self.walk(x, theta, ping, pong, |_, m, src, th, dst| {
            m.forward_into(src, th, dst);
        })
    }

    /// Allocation-free forward pass at `theta` that records `x`'s tape.
    ///
    /// `plan` must be [`Network::gate_plan`] of this network at `theta`;
    /// the output is bitwise [`Network::forward_into`]'s. `tape` should come
    /// from [`Network::new_tape`] (or a previous call); its buffer is
    /// reused, so after the first call no heap allocation is performed.
    ///
    /// # Panics
    ///
    /// Same as [`Network::forward`], plus when `plan` was built for another
    /// architecture.
    pub fn forward_tape_into(
        &self,
        x: &CVector,
        theta: &RVector,
        plan: &GatePlan,
        scratch: &mut NetworkScratch,
        out: &mut CVector,
        tape: &mut NetworkTape,
    ) {
        assert_eq!(plan.gates.len(), self.gate_count, "gate plan mismatch");
        tape.taped.resize(self.taped_len, C64::ZERO);
        let NetworkScratch { ping, pong } = scratch;
        out.copy_from(self.walk(x, theta, ping, pong, |i, m, src, th, dst| {
            let s = &self.spans[i];
            let taped = &mut tape.taped[s.taped.clone()];
            m.forward_taped(src, th, &plan.gates[s.gates.clone()], taped, dst);
        }));
    }

    /// The ping-pong walk behind every forward pass: runs the modules on
    /// `x`, calling `apply(i, module, input, module parameters, output)`
    /// for each while alternating between `ping` and `pong`, and returns
    /// the buffer holding the output.
    fn walk<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        ping: &'s mut CVector,
        pong: &'s mut CVector,
        mut apply: impl FnMut(usize, &Module, &CVector, &[f64], &mut CVector),
    ) -> &'s CVector {
        // The single validated boundary check: module-level hot loops below
        // only carry debug assertions.
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        assert_eq!(theta.len(), self.param_count, "parameter count mismatch");
        ping.copy_from(x);
        let mut cur_is_ping = true;
        for (i, (m, s)) in self.modules.iter().zip(&self.spans).enumerate() {
            let th = &theta.as_slice()[s.params.clone()];
            let (src, dst) = if cur_is_ping {
                (&*ping, &mut *pong)
            } else {
                (&*pong, &mut *ping)
            };
            apply(i, m, src, th, dst);
            cur_is_ping = !cur_is_ping;
        }
        if cur_is_ping {
            ping
        } else {
            pong
        }
    }

    // The derivative passes below linearize at the point `tape` was
    // recorded at: `plan` and `theta` must be the ones it was recorded
    // with.

    /// Forward-mode derivative of the whole network at the tape point:
    /// output tangent for input tangent `dx` and parameter tangent `dtheta`.
    ///
    /// # Panics
    ///
    /// Same as [`Network::jvp_into`].
    pub fn jvp(
        &self,
        plan: &GatePlan,
        tape: &NetworkTape,
        theta: &RVector,
        dx: &CVector,
        dtheta: &RVector,
    ) -> CVector {
        let mut dstate = dx.clone();
        self.jvp_into(plan, tape, theta, dtheta, &mut dstate);
        dstate
    }

    /// [`Network::jvp`] in place: `dstate` holds the input tangent on entry
    /// and the output tangent on return.
    ///
    /// # Panics
    ///
    /// Panics when tangent shapes disagree with the network.
    pub fn jvp_into(
        &self,
        plan: &GatePlan,
        tape: &NetworkTape,
        theta: &RVector,
        dtheta: &RVector,
        dstate: &mut CVector,
    ) {
        assert_eq!(dtheta.len(), self.param_count, "tangent count mismatch");
        assert_eq!(dstate.len(), self.input_dim(), "tangent dimension mismatch");
        for (m, s) in self.modules.iter().zip(&self.spans) {
            m.jvp_in_place(
                &plan.gates[s.gates.clone()],
                &tape.taped[s.taped.clone()],
                &theta.as_slice()[s.params.clone()],
                dstate,
                &dtheta.as_slice()[s.params.clone()],
            );
        }
    }

    /// Reverse-mode derivative: given the output cotangent `gy` (convention
    /// `g = ∂ℓ/∂Re(y) + j·∂ℓ/∂Im(y)`), returns `(input cotangent, ∂ℓ/∂θ)`.
    ///
    /// # Panics
    ///
    /// Same as [`Network::vjp_into`].
    pub fn vjp(
        &self,
        plan: &GatePlan,
        tape: &NetworkTape,
        theta: &RVector,
        gy: &CVector,
    ) -> (CVector, RVector) {
        let mut grad = RVector::zeros(self.param_count);
        let mut gstate = gy.clone();
        self.vjp_into(plan, tape, theta, &mut gstate, grad.as_mut_slice());
        (gstate, grad)
    }

    /// [`Network::vjp`] in place: `gstate` holds the output cotangent on
    /// entry and the input cotangent on return, and `∂ℓ/∂θ` is added into
    /// `grad` (pass zeros for the gradient itself).
    ///
    /// # Panics
    ///
    /// Panics when `gstate.len() != self.output_dim()` or
    /// `grad.len() != self.param_count()`.
    pub fn vjp_into(
        &self,
        plan: &GatePlan,
        tape: &NetworkTape,
        theta: &RVector,
        gstate: &mut CVector,
        grad: &mut [f64],
    ) {
        assert_eq!(
            gstate.len(),
            self.output_dim(),
            "cotangent dimension mismatch"
        );
        assert_eq!(grad.len(), self.param_count, "gradient length mismatch");
        for (m, s) in self.modules.iter().zip(&self.spans).rev() {
            m.vjp_in_place(
                &plan.gates[s.gates.clone()],
                &tape.taped[s.taped.clone()],
                &theta.as_slice()[s.params.clone()],
                gstate,
                &mut grad[s.params.clone()],
            );
        }
    }

    /// Reverse-mode derivative with respect to the fabrication errors baked
    /// into the network: for the output cotangent in `gstate`, writes
    /// `∂ℓ/∂e` into `grad` in the flat layout of [`ErrorVector::to_flat`] —
    /// every splitter's `γ`, then every shifter's attenuation, then every
    /// shifter's phase, through the meshes in pipeline order and through
    /// each mesh in op order. `gstate` holds the input cotangent on return.
    ///
    /// One call replaces one finite-difference restart per error: the
    /// calibrator takes one per detector per probe, with
    /// `gstate = 2·y_d·e_d`, for the exact Jacobian row of the power
    /// residual `|y_d|² − p_d`.
    ///
    /// # Panics
    ///
    /// Panics when `gstate.len() != self.output_dim()` or `grad` does not
    /// have the flat length of this network's error slots.
    pub fn error_vjp_into(
        &self,
        plan: &GatePlan,
        tape: &NetworkTape,
        theta: &RVector,
        gstate: &mut CVector,
        grad: &mut [f64],
    ) {
        let (n_bs, n_ps) = self.error_slots;
        assert_eq!(
            gstate.len(),
            self.output_dim(),
            "cotangent dimension mismatch"
        );
        assert_eq!(grad.len(), n_bs + 2 * n_ps, "flat error length mismatch");
        let (gamma, zeta) = grad.split_at_mut(n_bs);
        let (attenuation, phase) = zeta.split_at_mut(n_ps);
        for (m, s) in self.modules.iter().zip(&self.spans).rev() {
            let gates = &plan.gates[s.gates.clone()];
            let taped = &tape.taped[s.taped.clone()];
            let th = &theta.as_slice()[s.params.clone()];
            match m {
                Module::Mesh(mesh) => mesh.error_vjp(
                    gates,
                    taped,
                    gstate,
                    &mut gamma[s.gamma.clone()],
                    &mut attenuation[s.zeta.clone()],
                    &mut phase[s.zeta.clone()],
                ),
                Module::ModRelu(act) => act.vjp_in_place(taped, th, gstate, None),
                Module::ElectroOptic(act) => act.vjp_in_place(taped, th, gstate, None),
            }
        }
    }

    // The panel walks below push many columns through one op walk
    // (`crate::panel`). Each column gets the bits of the single-vector walk
    // above on its own inputs; parameter tangents and gradients are
    // param-major (`N × q`, entry `k·q + c`).

    /// [`Network::jvp_into`] for `q = dstate.width()` tangents at one tape:
    /// column `c` of `dstate` holds its input tangent on entry and its
    /// output tangent on return, with parameter tangent column `c` of the
    /// param-major `dtheta`.
    ///
    /// # Panics
    ///
    /// Panics when `dstate.dim() != self.input_dim()` or
    /// `dtheta.len() != self.param_count() · q`.
    pub fn jvp_panel_into(
        &self,
        plan: &GatePlan,
        tape: &NetworkTape,
        theta: &RVector,
        dtheta: &[f64],
        dstate: &mut StatePanel,
    ) {
        let q = dstate.width();
        assert_eq!(dstate.dim(), self.input_dim(), "tangent dimension mismatch");
        assert_eq!(dtheta.len(), self.param_count * q, "tangent count mismatch");
        for (m, s) in self.modules.iter().zip(&self.spans) {
            m.jvp_panel(
                &plan.gates[s.gates.clone()],
                &tape.taped[s.taped.clone()],
                &theta.as_slice()[s.params.clone()],
                dstate,
                &dtheta[s.params.start * q..s.params.end * q],
            );
        }
    }

    /// [`Network::vjp_into`] for `q = gstate.width()` cotangents at one
    /// tape: column `c` of `gstate` holds its output cotangent on entry and
    /// its input cotangent on return, and its `∂ℓ/∂θ` is added into column
    /// `c` of the param-major `grad` (pass zeros for the gradients
    /// themselves).
    ///
    /// # Panics
    ///
    /// Panics when `gstate.dim() != self.output_dim()` or
    /// `grad.len() != self.param_count() · q`.
    pub fn vjp_panel_into(
        &self,
        plan: &GatePlan,
        tape: &NetworkTape,
        theta: &RVector,
        gstate: &mut StatePanel,
        grad: &mut [f64],
    ) {
        let q = gstate.width();
        assert_eq!(
            gstate.dim(),
            self.output_dim(),
            "cotangent dimension mismatch"
        );
        assert_eq!(grad.len(), self.param_count * q, "gradient length mismatch");
        for (m, s) in self.modules.iter().zip(&self.spans).rev() {
            m.vjp_panel(
                &plan.gates[s.gates.clone()],
                &tape.taped[s.taped.clone()],
                &theta.as_slice()[s.params.clone()],
                gstate,
                &mut grad[s.params.start * q..s.params.end * q],
            );
        }
    }

    /// [`Network::error_vjp_into`] for `q = gstate.width()` cotangents at
    /// one tape. Slot-major: column `c`'s `∂ℓ/∂e_k` for flat error index
    /// `k` ([`ErrorVector::to_flat`]) is written to `out[k·stride + c]`, so
    /// with `stride` the row length of a transposed Jacobian each error's
    /// `q` entries land side by side in its row. Entries outside those
    /// positions are left alone.
    ///
    /// # Panics
    ///
    /// Panics when `gstate.dim() != self.output_dim()`, `stride < q`, or
    /// `out` ends before the last error's entries.
    pub fn error_vjp_panel_into(
        &self,
        plan: &GatePlan,
        tape: &NetworkTape,
        theta: &RVector,
        gstate: &mut StatePanel,
        out: &mut [f64],
        stride: usize,
    ) {
        let q = gstate.width();
        let (n_bs, n_ps) = self.error_slots;
        let n = n_bs + 2 * n_ps;
        assert_eq!(
            gstate.dim(),
            self.output_dim(),
            "cotangent dimension mismatch"
        );
        assert!(stride >= q, "stride shorter than the panel");
        assert!(
            n == 0 || out.len() >= (n - 1) * stride + q,
            "error output too short"
        );
        for (m, s) in self.modules.iter().zip(&self.spans).rev() {
            let gates = &plan.gates[s.gates.clone()];
            let taped = &tape.taped[s.taped.clone()];
            let th = &theta.as_slice()[s.params.clone()];
            match m {
                Module::Mesh(mesh) => {
                    let ends = [s.gamma.end, n_bs + s.zeta.end, n_bs + n_ps + s.zeta.end];
                    mesh.error_vjp_panel(gates, taped, gstate, out, stride, ends);
                }
                Module::ModRelu(act) => act.vjp_panel(taped, th, gstate, None),
                Module::ElectroOptic(act) => act.vjp_panel(taped, th, gstate, None),
            }
        }
    }

    /// The current error assignment baked into this network's modules.
    pub fn collect_errors(&self) -> ErrorVector {
        let mut out = ErrorVector::default();
        for m in &self.modules {
            m.collect_errors(&mut out);
        }
        out
    }

    /// Applies a nearest-neighbour thermal-crosstalk map to a parameter
    /// vector, writing into `out`: within each module, a fraction
    /// `coupling` of each heater's phase leaks into its chain neighbours,
    /// `θ_eff[i] = θ[i] + coupling·(θ[i−1] + θ[i+1])` (module-local chain).
    ///
    /// This is the standard first-order model of thermal heater crosstalk
    /// on silicon photonics; crosstalk never crosses module boundaries.
    ///
    /// # Panics
    ///
    /// Panics when `theta.len() != self.param_count()`.
    pub fn apply_thermal_crosstalk_into(&self, theta: &RVector, coupling: f64, out: &mut RVector) {
        assert_eq!(theta.len(), self.param_count, "parameter count mismatch");
        out.copy_from(theta);
        if coupling == 0.0 {
            return;
        }
        for i in 0..self.modules.len() {
            let range = self.module_param_range(i);
            for k in range.clone() {
                let mut leak = 0.0;
                if k > range.start {
                    leak += theta[k - 1];
                }
                if k + 1 < range.end {
                    leak += theta[k + 1];
                }
                out[k] = theta[k] + coupling * leak;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorModel;
    use photon_linalg::random::normal_cvector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_arch() -> Architecture {
        Architecture::two_mesh_classifier(4, 4).unwrap()
    }

    #[test]
    fn architecture_validation() {
        assert!(matches!(
            Architecture::new(vec![]),
            Err(NetworkError::Empty)
        ));
        let bad = Architecture::new(vec![
            ModuleSpec::Clements { dim: 4, layers: 2 },
            ModuleSpec::PhaseDiag { dim: 5 },
        ]);
        assert!(matches!(
            bad,
            Err(NetworkError::DimensionMismatch { index: 1, .. })
        ));
    }

    #[test]
    fn param_counts_match_formula() {
        // K=4, L=4: Clements has 4·3/2 = 6 MZIs = 12 phases; PSdiag 4;
        // modReLU 4. Two meshes: 2·(12+4) + 4 = 36.
        let arch = small_arch();
        assert_eq!(arch.param_count(), 36);
        let net = arch.build_ideal();
        assert_eq!(net.param_count(), 36);
        assert_eq!(net.module_param_range(0), 0..12);
        assert_eq!(net.module_param_range(1), 12..16);
        assert_eq!(net.module_param_range(2), 16..20);
    }

    #[test]
    fn error_slot_accounting() {
        let arch = small_arch();
        let (n_bs, n_ps) = arch.error_slots();
        // Each mesh: 6 MZIs → 12 BS, 12 PS; PSdiag adds 4 PS; modReLU none.
        assert_eq!(n_bs, 24);
        assert_eq!(n_ps, 24 + 8);
        // Slot mismatch rejected.
        let bad = ErrorVector::zeros(1, 1);
        assert!(matches!(
            arch.build_with_errors(&bad),
            Err(NetworkError::ErrorSlotMismatch { .. })
        ));
    }

    #[test]
    fn errors_roundtrip_through_network() {
        let arch = small_arch();
        let (n_bs, n_ps) = arch.error_slots();
        let mut rng = StdRng::seed_from_u64(17);
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(1.0), &mut rng);
        let net = arch.build_with_errors(&ev).unwrap();
        let collected = net.collect_errors();
        let r = ev.rmse(&collected);
        assert!(r.gamma < 1e-12 && r.attenuation < 1e-12 && r.phase < 1e-12);
        // Ideal network has all-zero errors.
        let ideal_errors = arch.build_ideal().collect_errors();
        assert!(ideal_errors.gamma.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn init_params_policy() {
        let arch = small_arch();
        let net = arch.build_ideal();
        let mut rng = StdRng::seed_from_u64(3);
        let theta = net.init_params(&mut rng);
        // Mesh params random in [0, 2π); PSdiag & modReLU zero.
        let mesh_range = net.module_param_range(0);
        assert!(theta.as_slice()[mesh_range].iter().any(|&t| t != 0.0));
        let diag_range = net.module_param_range(1);
        assert!(theta.as_slice()[diag_range].iter().all(|&t| t == 0.0));
        let relu_range = net.module_param_range(2);
        assert!(theta.as_slice()[relu_range].iter().all(|&t| t == 0.0));
    }

    #[test]
    fn forward_is_deterministic_and_bounded() {
        let arch = small_arch();
        let net = arch.build_ideal();
        let mut rng = StdRng::seed_from_u64(7);
        let theta = net.init_params(&mut rng);
        let x = normal_cvector(4, &mut rng);
        let y1 = net.forward(&x, &theta);
        let y2 = net.forward(&x, &theta);
        assert!((&y1 - &y2).max_abs() == 0.0);
        // With zero modReLU biases the whole pipeline is norm-preserving.
        assert!((y1.norm_sqr() - x.norm_sqr()).abs() < 1e-10);
    }

    #[test]
    fn network_jvp_matches_finite_difference() {
        let arch = small_arch();
        let net = arch.build_ideal();
        let mut rng = StdRng::seed_from_u64(19);
        let mut theta = net.init_params(&mut rng);
        // Non-zero biases to exercise modReLU curvature.
        for k in net.module_param_range(2) {
            theta[k] = 0.1;
        }
        let x = normal_cvector(4, &mut rng);
        let dtheta = photon_linalg::random::normal_rvector(net.param_count(), &mut rng);

        let plan = net.gate_plan(&theta);
        let (_, tape) = net.forward_tape(&x, &theta, &plan);
        let dy = net.jvp(&plan, &tape, &theta, &CVector::zeros(4), &dtheta);

        let eps = 1e-6;
        let mut tp = theta.clone();
        tp.axpy(eps, &dtheta);
        let mut tm = theta.clone();
        tm.axpy(-eps, &dtheta);
        let fd = (&net.forward(&x, &tp) - &net.forward(&x, &tm)).scale_real(0.5 / eps);
        assert!((&dy - &fd).max_abs() < 1e-6);
    }

    #[test]
    fn network_vjp_is_adjoint_of_jvp() {
        let arch = small_arch();
        let mut rng = StdRng::seed_from_u64(23);
        let (n_bs, n_ps) = arch.error_slots();
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(2.0), &mut rng);
        let net = arch.build_with_errors(&ev).unwrap();
        let mut theta = net.init_params(&mut rng);
        for k in net.module_param_range(2) {
            theta[k] = -0.05;
        }
        let x = normal_cvector(4, &mut rng);
        let plan = net.gate_plan(&theta);
        let (_, tape) = net.forward_tape(&x, &theta, &plan);

        let dx = normal_cvector(4, &mut rng);
        let dtheta = photon_linalg::random::normal_rvector(net.param_count(), &mut rng);
        let g = normal_cvector(4, &mut rng);

        let dy = net.jvp(&plan, &tape, &theta, &dx, &dtheta);
        let (gx, gtheta) = net.vjp(&plan, &tape, &theta, &g);

        let real_dot = |a: &CVector, b: &CVector| -> f64 {
            a.iter()
                .zip(b.iter())
                .map(|(u, v)| u.re * v.re + u.im * v.im)
                .sum()
        };
        let lhs = real_dot(&dy, &g);
        let rhs = real_dot(&dx, &gx) + dtheta.dot(&gtheta).unwrap();
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn eo_classifier_builds_and_differentiates() {
        let arch = Architecture::two_mesh_eo_classifier(4, 2, 0.1, 1.0).unwrap();
        let net = arch.build_ideal();
        let mut rng = StdRng::seed_from_u64(91);
        let theta = net.init_params(&mut rng);
        let x = normal_cvector(4, &mut rng);
        let y = net.forward(&x, &theta);
        // Tap ratio removes some power; nothing is created.
        assert!(y.norm_sqr() <= x.norm_sqr() + 1e-12);
        // The tap plus power-dependent transmission dims but never darkens
        // the whole field.
        assert!(y.norm_sqr() > 0.1 * x.norm_sqr());
        // Adjoint contract holds through the EO activation.
        let plan = net.gate_plan(&theta);
        let (_, tape) = net.forward_tape(&x, &theta, &plan);
        let dx = normal_cvector(4, &mut rng);
        let dtheta = photon_linalg::random::normal_rvector(net.param_count(), &mut rng);
        let g = normal_cvector(4, &mut rng);
        let dy = net.jvp(&plan, &tape, &theta, &dx, &dtheta);
        let (gx, gtheta) = net.vjp(&plan, &tape, &theta, &g);
        let rdot = |a: &CVector, b: &CVector| -> f64 {
            a.iter()
                .zip(b.iter())
                .map(|(u, v)| u.re * v.re + u.im * v.im)
                .sum()
        };
        let lhs = rdot(&dy, &g);
        let rhs = rdot(&dx, &gx) + dtheta.dot(&gtheta).unwrap();
        assert!((lhs - rhs).abs() < 1e-9);
    }

    /// The error VJP must match central differences of `⟨y(e), g⟩_R` over
    /// networks rebuilt with each error moved, through modReLU, the
    /// electro-optic activation and Reck meshes alike.
    #[test]
    fn error_vjp_matches_central_differences() {
        let reck = Architecture::new(vec![
            ModuleSpec::Reck { dim: 4 },
            ModuleSpec::PhaseDiag { dim: 4 },
            ModuleSpec::ModRelu { dim: 4 },
            ModuleSpec::Reck { dim: 4 },
        ])
        .unwrap();
        let archs = [
            Architecture::two_mesh_classifier(4, 3).unwrap(),
            Architecture::two_mesh_eo_classifier(4, 2, 0.1, 1.0).unwrap(),
            reck,
        ];
        let real_dot = |a: &CVector, b: &CVector| -> f64 {
            a.iter()
                .zip(b.iter())
                .map(|(u, v)| u.re * v.re + u.im * v.im)
                .sum()
        };
        for (seed, arch) in archs.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(40 + seed as u64);
            let (n_bs, n_ps) = arch.error_slots();
            let model = ErrorModel::with_beta(2.0);
            let flat = ErrorVector::sample(n_bs, n_ps, &model, &mut rng).to_flat();
            let build = |flat: &[f64]| {
                arch.build_with_errors(&ErrorVector::from_flat(n_bs, n_ps, flat).unwrap())
                    .unwrap()
            };
            let net = build(&flat);
            let mut theta = net.init_params(&mut rng);
            for k in net.module_param_range(2) {
                theta[k] = 0.1;
            }
            let x = normal_cvector(4, &mut rng);
            let g = normal_cvector(4, &mut rng);
            let plan = net.gate_plan(&theta);
            let (_, tape) = net.forward_tape(&x, &theta, &plan);
            let mut grad = vec![f64::NAN; flat.len()];
            let mut gstate = g.clone();
            net.error_vjp_into(&plan, &tape, &theta, &mut gstate, &mut grad);

            let eps = 1e-6;
            for (k, &exact) in grad.iter().enumerate() {
                let mut moved = flat.clone();
                moved[k] += eps;
                let up = real_dot(&build(&moved).forward(&x, &theta), &g);
                moved[k] -= 2.0 * eps;
                let down = real_dot(&build(&moved).forward(&x, &theta), &g);
                let fd = (up - down) / (2.0 * eps);
                assert!(
                    (exact - fd).abs() < 1e-7,
                    "slot {k} of {arch:?}: {exact} vs {fd}"
                );
            }
            // The input cotangent is the θ-VJP's.
            let (gx, _) = net.vjp(&plan, &tape, &theta, &g);
            assert_eq!((&gstate - &gx).max_abs(), 0.0);
        }
    }

    #[test]
    fn display_of_errors() {
        let e = NetworkError::Empty;
        assert_eq!(e.to_string(), "architecture has no modules");
    }
}
