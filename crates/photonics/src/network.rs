//! Whole-network assembly: architectures, parameter packing and end-to-end
//! differentiation.

use std::fmt;

use rand::Rng;

use photon_linalg::{CVector, RVector};

use crate::electrooptic::ElectroOptic;
use crate::error::{zeta_from_parts, ErrorCursor, ErrorVector};
use crate::mesh::MeshModule;
use crate::modrelu::ModRelu;
use crate::module::{Module, ModuleTape};
use crate::ops::Op;

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

/// Saved forward state of a whole network, one tape per module.
#[derive(Debug, Clone)]
pub struct NetworkTape {
    tapes: Vec<ModuleTape>,
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
    nudge: CVector,
}

impl NetworkScratch {
    /// An empty scratch; buffers grow to the network's dimensions on first
    /// use.
    pub fn new() -> Self {
        NetworkScratch::default()
    }
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
    offsets: Vec<usize>,
    param_count: usize,
    architecture: Architecture,
}

impl Network {
    fn from_modules(modules: Vec<Module>, architecture: Architecture) -> Self {
        let mut offsets = Vec::with_capacity(modules.len());
        let mut acc = 0;
        for m in &modules {
            offsets.push(acc);
            acc += m.param_count();
        }
        Network {
            modules,
            offsets,
            param_count: acc,
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
    pub fn module_param_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = self.offsets[i];
        start..start + self.modules[i].param_count()
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

    /// Forward pass recording the differentiation tape.
    ///
    /// # Panics
    ///
    /// Same as [`Network::forward`].
    pub fn forward_tape(&self, x: &CVector, theta: &RVector) -> (CVector, NetworkTape) {
        let mut out = CVector::zeros(0);
        let mut tape = self.new_tape();
        let mut scratch = NetworkScratch::new();
        self.forward_tape_into(x, theta, &mut scratch, &mut out, &mut tape);
        (out, tape)
    }

    /// An empty tape shaped for this network, for reuse with
    /// [`Network::forward_tape_into`].
    pub fn new_tape(&self) -> NetworkTape {
        NetworkTape {
            tapes: vec![ModuleTape::empty(); self.modules.len()],
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
        let NetworkScratch { ping, pong, .. } = scratch;
        self.walk(0, x, theta, ping, pong, |_, m, src, th, dst| {
            m.forward_into(src, th, dst);
        })
    }

    /// Allocation-free forward pass recording into caller-owned buffers.
    ///
    /// `tape` should come from [`Network::new_tape`] (or a previous call);
    /// its per-module state buffers are reused. After the first call at this
    /// network's dimensions, no heap allocation is performed.
    ///
    /// # Panics
    ///
    /// Same as [`Network::forward`], plus when `tape` has the wrong number
    /// of module slots.
    pub fn forward_tape_into(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &mut NetworkScratch,
        out: &mut CVector,
        tape: &mut NetworkTape,
    ) {
        assert_eq!(
            tape.tapes.len(),
            self.modules.len(),
            "tape module count mismatch"
        );
        let NetworkScratch { ping, pong, .. } = scratch;
        out.copy_from(self.walk(0, x, theta, ping, pong, |i, m, src, th, dst| {
            m.forward_tape_into(src, th, dst, &mut tape.tapes[i]);
        }));
    }

    /// The ping-pong walk behind every forward pass: runs modules `from..`
    /// on `x`, calling `apply(i, module, input, module parameters, output)`
    /// for each while alternating between `ping` and `pong`, and returns
    /// the buffer holding the output.
    fn walk<'s>(
        &self,
        from: usize,
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
        for (i, m) in self.modules.iter().enumerate().skip(from) {
            let th = &theta.as_slice()[self.module_param_range(i)];
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

    /// Forward-mode derivative of the whole network at the tape point:
    /// output tangent for input tangent `dx` and parameter tangent `dtheta`.
    ///
    /// # Panics
    ///
    /// Panics when tangent shapes disagree with the network.
    pub fn jvp(
        &self,
        tape: &NetworkTape,
        theta: &RVector,
        dx: &CVector,
        dtheta: &RVector,
    ) -> CVector {
        assert_eq!(dtheta.len(), self.param_count, "tangent count mismatch");
        let mut dstate = dx.clone();
        for (i, m) in self.modules.iter().enumerate() {
            let range = self.module_param_range(i);
            dstate = m.jvp(
                &tape.tapes[i],
                &theta.as_slice()[range.clone()],
                &dstate,
                &dtheta.as_slice()[range],
            );
        }
        dstate
    }

    /// Reverse-mode derivative: given the output cotangent `gy` (convention
    /// `g = ∂ℓ/∂Re(y) + j·∂ℓ/∂Im(y)`), returns `(input cotangent, ∂ℓ/∂θ)`.
    ///
    /// # Panics
    ///
    /// Panics when `gy.len() != self.output_dim()`.
    pub fn vjp(&self, tape: &NetworkTape, theta: &RVector, gy: &CVector) -> (CVector, RVector) {
        assert_eq!(gy.len(), self.output_dim(), "cotangent dimension mismatch");
        let mut grad = RVector::zeros(self.param_count);
        let mut gstate = gy.clone();
        for (i, m) in self.modules.iter().enumerate().rev() {
            let range = self.module_param_range(i);
            gstate = m.vjp(
                &tape.tapes[i],
                &theta.as_slice()[range.clone()],
                &gstate,
                &mut grad.as_mut_slice()[range],
            );
        }
        (gstate, grad)
    }

    /// Forward-difference outputs for the calibrator's Jacobian: for every
    /// fabrication-error slot `k`, in flat order, calls `f(k, y_k)` where
    /// `y_k` is the output at the taped point with `errors[k]` moved to
    /// `errors[k] + step`.
    ///
    /// `tape` must have been recorded by [`Network::forward_tape_into`] at
    /// `(x, theta)` on a network built from the flat errors `errors`
    /// (layout of [`ErrorVector::to_flat`]). Each `y_k` is bitwise equal to
    /// `build_with_errors(nudged).forward_into(x, theta)`, without the
    /// rebuild or the full forward: the walk restarts inside the nudged
    /// mesh from the tape's state before the nudged op, applies that op
    /// with its nudged error, replays the mesh's later ops from the taped
    /// gates, then runs every later module — meshes from their taped gates,
    /// activations through [`Module::forward_into`]. A nudged
    /// `ζ` is rebuilt from the flat `(attenuation, phase)` pair exactly as
    /// [`ErrorCursor`] builds it; recovering the pair from `ζ` would not
    /// round-trip bit for bit.
    ///
    /// # Panics
    ///
    /// Panics when `errors` does not have the flat length of this
    /// network's error slots or `theta` has the wrong length.
    pub fn for_each_nudged_output(
        &self,
        tape: &NetworkTape,
        theta: &RVector,
        errors: &[f64],
        step: f64,
        scratch: &mut NetworkScratch,
        mut f: impl FnMut(usize, &CVector),
    ) {
        #[derive(Clone, Copy)]
        enum Family {
            Gamma,
            Attenuation,
            Phase,
        }
        assert_eq!(theta.len(), self.param_count, "parameter count mismatch");
        let (n_bs, n_ps) = self.modules.iter().fold((0, 0), |(b, p), m| {
            let (mb, mp) = m.error_slots();
            (b + mb, p + mp)
        });
        assert_eq!(errors.len(), n_bs + 2 * n_ps, "flat error length mismatch");
        let (gamma, zeta_parts) = errors.split_at(n_bs);
        let (attenuation, phase) = zeta_parts.split_at(n_ps);
        let NetworkScratch { ping, pong, nudge } = scratch;
        // Modules after the nudged one: meshes replay their taped gates,
        // activations run forward.
        let replay =
            |j: usize, later: &Module, src: &CVector, th: &[f64], dst: &mut CVector| match later {
                Module::Mesh(mesh) => mesh.forward_gated_into(&tape.tapes[j], src, dst),
                _ => later.forward_into(src, th, dst),
            };
        let mut k = 0;
        // The flat layout lists every γ, then every attenuation, then every
        // phase; within a family the slots run through the meshes in
        // pipeline order and through each mesh in op order — the order
        // `build_with_errors` consumes them in.
        for family in [Family::Gamma, Family::Attenuation, Family::Phase] {
            let (mut bs, mut ps) = (0, 0);
            for (m, module) in self.modules.iter().enumerate() {
                let Module::Mesh(mesh) = module else {
                    continue;
                };
                let th = &theta.as_slice()[self.module_param_range(m)];
                let replace = |op: &Op| {
                    let nudged = match (*op, family) {
                        (Op::Bs { port, .. }, Family::Gamma) => Some(Op::Bs {
                            port,
                            gamma: gamma[bs] + step,
                        }),
                        (Op::Ps { port, param, .. }, Family::Attenuation) => Some(Op::Ps {
                            port,
                            param,
                            zeta: zeta_from_parts(attenuation[ps] + step, phase[ps]),
                        }),
                        (Op::Ps { port, param, .. }, Family::Phase) => Some(Op::Ps {
                            port,
                            param,
                            zeta: zeta_from_parts(attenuation[ps], phase[ps] + step),
                        }),
                        _ => None,
                    };
                    match op {
                        Op::Bs { .. } => bs += 1,
                        Op::Ps { .. } => ps += 1,
                    }
                    nudged
                };
                mesh.for_each_replaced_output(&tape.tapes[m], th, nudge, replace, |y| {
                    f(k, self.walk(m + 1, y, theta, ping, pong, replay));
                    k += 1;
                });
            }
        }
        debug_assert_eq!(k, errors.len(), "every error slot nudged once");
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

        let (_, tape) = net.forward_tape(&x, &theta);
        let dy = net.jvp(&tape, &theta, &CVector::zeros(4), &dtheta);

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
        let (_, tape) = net.forward_tape(&x, &theta);

        let dx = normal_cvector(4, &mut rng);
        let dtheta = photon_linalg::random::normal_rvector(net.param_count(), &mut rng);
        let g = normal_cvector(4, &mut rng);

        let dy = net.jvp(&tape, &theta, &dx, &dtheta);
        let (gx, gtheta) = net.vjp(&tape, &theta, &g);

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
        let (_, tape) = net.forward_tape(&x, &theta);
        let dx = normal_cvector(4, &mut rng);
        let dtheta = photon_linalg::random::normal_rvector(net.param_count(), &mut rng);
        let g = normal_cvector(4, &mut rng);
        let dy = net.jvp(&tape, &theta, &dx, &dtheta);
        let (gx, gtheta) = net.vjp(&tape, &theta, &g);
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

    /// The tape-restarted nudges must reproduce rebuilding the network
    /// with each nudged error and running it forward, bit for bit, through
    /// modReLU, the electro-optic activation and Reck meshes alike.
    #[test]
    fn nudged_outputs_match_rebuild_and_forward_bitwise() {
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
        let bits = |v: &CVector| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for (seed, arch) in archs.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(40 + seed as u64);
            let (n_bs, n_ps) = arch.error_slots();
            let model = ErrorModel::with_beta(2.0);
            let flat = ErrorVector::sample(n_bs, n_ps, &model, &mut rng).to_flat();
            let errors = ErrorVector::from_flat(n_bs, n_ps, &flat).unwrap();
            let net = arch.build_with_errors(&errors).unwrap();
            let mut theta = net.init_params(&mut rng);
            for k in net.module_param_range(2) {
                theta[k] = 0.1;
            }
            let x = normal_cvector(4, &mut rng);
            let step = 1e-6;
            let mut scratch = NetworkScratch::new();
            let mut tape = net.new_tape();
            let mut y = CVector::zeros(0);
            net.forward_tape_into(&x, &theta, &mut scratch, &mut y, &mut tape);

            let mut oracle_scratch = NetworkScratch::new();
            let mut seen = 0;
            net.for_each_nudged_output(&tape, &theta, &flat, step, &mut scratch, |k, yk| {
                assert_eq!(k, seen, "slots come in flat order");
                seen += 1;
                let mut nudged = flat.clone();
                nudged[k] += step;
                let oracle = arch
                    .build_with_errors(&ErrorVector::from_flat(n_bs, n_ps, &nudged).unwrap())
                    .unwrap();
                let expected = oracle.forward_into(&x, &theta, &mut oracle_scratch);
                assert_eq!(bits(yk), bits(expected), "slot {k} of {arch:?}");
            });
            assert_eq!(seen, flat.len());
        }
    }

    #[test]
    fn display_of_errors() {
        let e = NetworkError::Empty;
        assert_eq!(e.to_string(), "architecture has no modules");
    }
}
