//! The module type: the unit an ONN is composed of.

use photon_linalg::{CVector, C64};

use crate::electrooptic::ElectroOptic;
use crate::error::{ErrorCursor, ErrorVector, ErrorVectorError};
use crate::mesh::MeshModule;
use crate::modrelu::ModRelu;
use crate::panel::StatePanel;

/// Saved forward-pass state of one module and one sample, needed by
/// [`Module::jvp`] and [`Module::vjp`].
///
/// A mesh tape holds its ops' gates ([`crate::Op::gate`]) at the recorded
/// parameters, so passes over the tape evaluate no trigonometry, and each
/// op's input amplitudes ([`crate::Op::record`]): one per phase shifter,
/// two per beam splitter, in op order. An activation's tape holds its
/// input and no gates. A network keeps the same two buffers for all its
/// modules at once ([`crate::GatePlan`], [`crate::NetworkTape`]).
#[derive(Debug, Clone, Default)]
pub struct ModuleTape {
    pub(crate) gates: Vec<C64>,
    pub(crate) taped: Vec<C64>,
}

impl ModuleTape {
    /// An empty tape, ready to be filled by
    /// [`Module::forward_tape_into`]. Reusing one tape across calls keeps
    /// its buffers alive, so steady-state re-recording performs no heap
    /// allocation.
    pub fn empty() -> Self {
        ModuleTape::default()
    }
}

/// One module of an ONN: a map `y = f(x, θ)` from a complex state and real
/// parameters to a complex state on the same `dim` waveguides.
///
/// Only meshes carry fabrication errors and compile to a transfer matrix;
/// [`MeshModule`] owns both. Every kind satisfies the adjoint contract: for
/// any tape, `⟨jvp(dx, dθ), g⟩_R = ⟨dx, vjp-state⟩_R + dθ·(vjp-params)`,
/// where `⟨u, v⟩_R = Σ Re(uᵢ)Re(vᵢ) + Im(uᵢ)Im(vᵢ)`. This makes
/// `vjp ∘ jvp` an exact Fisher-metric (Gauss-Newton) product, which the
/// LCNG optimizer relies on; [`crate::gradcheck`] checks it.
#[derive(Debug, Clone)]
pub enum Module {
    /// A linear mesh of phase shifters and beam splitters.
    Mesh(MeshModule),
    /// The modReLU activation.
    ModRelu(ModRelu),
    /// The electro-optic activation.
    ElectroOptic(ElectroOptic),
}

impl Module {
    /// Number of waveguides in and out (every module is square).
    pub fn dim(&self) -> usize {
        match self {
            Module::Mesh(mesh) => mesh.dim(),
            Module::ModRelu(act) => act.dim,
            Module::ElectroOptic(act) => act.dim,
        }
    }

    /// Number of trainable real parameters (one bias per waveguide for an
    /// activation).
    pub fn param_count(&self) -> usize {
        match self {
            Module::Mesh(mesh) => mesh.param_count(),
            Module::ModRelu(_) | Module::ElectroOptic(_) => self.dim(),
        }
    }

    /// `true` for Clements and Reck meshes, whose parameters sit in
    /// interrelated optical layers: they are randomly initialized and get
    /// their own natural-gradient block.
    pub fn is_layered(&self) -> bool {
        matches!(self, Module::Mesh(mesh) if mesh.is_layered())
    }

    /// `(beam splitters, phase shifters)` — the fabrication-error slots this
    /// module consumes, in netlist order. Activations have none.
    pub fn error_slots(&self) -> (usize, usize) {
        match self {
            Module::Mesh(mesh) => mesh.error_slots(),
            Module::ModRelu(_) | Module::ElectroOptic(_) => (0, 0),
        }
    }

    /// Applies the module into a caller-owned output buffer (shapes are
    /// debug-checked only; `Network` validates them once per evaluation).
    pub fn forward_into(&self, x: &CVector, theta: &[f64], out: &mut CVector) {
        match self {
            Module::Mesh(mesh) => mesh.forward_into(x, theta, out),
            Module::ModRelu(_) | Module::ElectroOptic(_) => {
                out.resize_zeroed(self.dim());
                self.forward_pointwise(x.as_slice(), theta, out.as_mut_slice());
            }
        }
    }

    /// Applies an activation element-wise from `x` into `out`, both of
    /// length `dim`: the one body of an activation's forward, which the
    /// interpreted walk and the compiled plan's panel columns share.
    ///
    /// # Panics
    ///
    /// Panics on a mesh, which is not element-wise.
    pub(crate) fn forward_pointwise(&self, x: &[C64], theta: &[f64], out: &mut [C64]) {
        match self {
            Module::ModRelu(act) => act.forward_slice(x, theta, out),
            Module::ElectroOptic(act) => act.forward_slice(x, theta, out),
            Module::Mesh(_) => unreachable!("a mesh is not element-wise"),
        }
    }

    /// Applies the module, recording the tape [`Module::jvp`] and
    /// [`Module::vjp`] need (shapes are debug-checked only, as for
    /// [`Module::forward_into`]).
    pub fn forward_tape_into(
        &self,
        x: &CVector,
        theta: &[f64],
        out: &mut CVector,
        tape: &mut ModuleTape,
    ) {
        tape.gates.resize(self.gate_count(), C64::ZERO);
        self.gates_into(theta, &mut tape.gates);
        tape.taped.resize(self.taped_len(), C64::ZERO);
        self.forward_taped(x, theta, &tape.gates, &mut tape.taped, out);
    }

    /// Allocating form of [`Module::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.dim()`.
    pub fn forward(&self, x: &CVector, theta: &[f64]) -> CVector {
        assert_eq!(x.len(), self.dim(), "input dimension mismatch");
        let mut out = CVector::zeros(0);
        self.forward_into(x, theta, &mut out);
        out
    }

    /// Allocating form of [`Module::forward_tape_into`].
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.dim()`.
    pub fn forward_tape(&self, x: &CVector, theta: &[f64]) -> (CVector, ModuleTape) {
        assert_eq!(x.len(), self.dim(), "input dimension mismatch");
        let mut out = CVector::zeros(0);
        let mut tape = ModuleTape::empty();
        self.forward_tape_into(x, theta, &mut out, &mut tape);
        (out, tape)
    }

    /// Forward-mode derivative: the output tangent produced by input tangent
    /// `dx` and parameter tangent `dtheta`, linearized at the tape point.
    pub fn jvp(&self, tape: &ModuleTape, theta: &[f64], dx: &CVector, dtheta: &[f64]) -> CVector {
        let mut dstate = dx.clone();
        self.jvp_in_place(&tape.gates, &tape.taped, theta, &mut dstate, dtheta);
        dstate
    }

    /// Reverse-mode derivative: consumes the output cotangent `gy`, returns
    /// the input cotangent, and accumulates the parameter cotangent into
    /// `grad_theta`.
    pub fn vjp(
        &self,
        tape: &ModuleTape,
        theta: &[f64],
        gy: &CVector,
        grad_theta: &mut [f64],
    ) -> CVector {
        let mut gstate = gy.clone();
        self.vjp_in_place(&tape.gates, &tape.taped, theta, &mut gstate, grad_theta);
        gstate
    }

    // The slice forms below are what `Network` walks: `gates` and `taped`
    // are this module's ranges of one network-wide gate plan and tape.

    /// Number of op gates (zero for an activation).
    pub(crate) fn gate_count(&self) -> usize {
        match self {
            Module::Mesh(mesh) => mesh.ops().len(),
            Module::ModRelu(_) | Module::ElectroOptic(_) => 0,
        }
    }

    /// Number of amplitudes one sample's tape keeps: the ops' input ports
    /// for a mesh, the input for an activation.
    pub(crate) fn taped_len(&self) -> usize {
        match self {
            Module::Mesh(mesh) => mesh.taped_len(),
            Module::ModRelu(_) | Module::ElectroOptic(_) => self.dim(),
        }
    }

    /// Evaluates the module's op gates at `theta` (nothing for an
    /// activation).
    pub(crate) fn gates_into(&self, theta: &[f64], gates: &mut [C64]) {
        if let Module::Mesh(mesh) = self {
            mesh.gates_into(theta, gates);
        }
    }

    /// Applies the module to `x` with precomputed `gates`, recording its
    /// taped amplitudes; bitwise [`Module::forward_into`].
    pub(crate) fn forward_taped(
        &self,
        x: &CVector,
        theta: &[f64],
        gates: &[C64],
        taped: &mut [C64],
        out: &mut CVector,
    ) {
        match self {
            Module::Mesh(mesh) => {
                out.copy_from(x);
                mesh.forward_taped(gates, taped, out);
            }
            Module::ModRelu(_) | Module::ElectroOptic(_) => {
                taped.copy_from_slice(x.as_slice());
                self.forward_into(x, theta, out);
            }
        }
    }

    /// [`Module::jvp`] in place on `dstate`.
    pub(crate) fn jvp_in_place(
        &self,
        gates: &[C64],
        taped: &[C64],
        theta: &[f64],
        dstate: &mut CVector,
        dtheta: &[f64],
    ) {
        match self {
            Module::Mesh(mesh) => mesh.jvp_in_place(gates, taped, dstate, dtheta),
            Module::ModRelu(act) => act.jvp_in_place(taped, theta, dstate, dtheta),
            Module::ElectroOptic(act) => act.jvp_in_place(taped, theta, dstate, dtheta),
        }
    }

    /// [`Module::vjp`] in place on `gstate`.
    pub(crate) fn vjp_in_place(
        &self,
        gates: &[C64],
        taped: &[C64],
        theta: &[f64],
        gstate: &mut CVector,
        grad_theta: &mut [f64],
    ) {
        match self {
            Module::Mesh(mesh) => mesh.vjp_in_place(gates, taped, gstate, grad_theta),
            Module::ModRelu(act) => act.vjp_in_place(taped, theta, gstate, Some(grad_theta)),
            Module::ElectroOptic(act) => act.vjp_in_place(taped, theta, gstate, Some(grad_theta)),
        }
    }

    // The panel forms: the same walks on every column of a `StatePanel`
    // (see `crate::panel`), parameter tangents and gradients param-major.

    /// [`Module::jvp_in_place`] on every column of `dstate` at one shared
    /// tape.
    #[inline(always)]
    pub(crate) fn jvp_panel(
        &self,
        gates: &[C64],
        taped: &[C64],
        theta: &[f64],
        dstate: &mut StatePanel,
        dtheta: &[f64],
    ) {
        match self {
            Module::Mesh(mesh) => mesh.jvp_panel(gates, taped, dstate, dtheta),
            Module::ModRelu(act) => act.jvp_panel(taped, theta, dstate, dtheta),
            Module::ElectroOptic(act) => act.jvp_panel(taped, theta, dstate, dtheta),
        }
    }

    /// [`Module::vjp_in_place`] on every column of `gstate` at one shared
    /// tape.
    #[inline(always)]
    pub(crate) fn vjp_panel(
        &self,
        gates: &[C64],
        taped: &[C64],
        theta: &[f64],
        gstate: &mut StatePanel,
        grad_theta: &mut [f64],
    ) {
        match self {
            Module::Mesh(mesh) => mesh.vjp_panel(gates, taped, gstate, grad_theta),
            Module::ModRelu(act) => act.vjp_panel(taped, theta, gstate, Some(grad_theta)),
            Module::ElectroOptic(act) => act.vjp_panel(taped, theta, gstate, Some(grad_theta)),
        }
    }

    /// Rebuilds this module with fabrication errors taken from `cursor`
    /// (consumed in netlist order); activations are returned unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorVectorError`] when the cursor runs out of error slots
    /// before the module is fully instantiated.
    pub fn with_errors(&self, cursor: &mut ErrorCursor<'_>) -> Result<Module, ErrorVectorError> {
        match self {
            Module::Mesh(mesh) => Ok(Module::Mesh(mesh.with_errors(cursor)?)),
            Module::ModRelu(_) | Module::ElectroOptic(_) => Ok(self.clone()),
        }
    }

    /// Appends this module's current error assignment to `out` in netlist
    /// order (nothing for an activation).
    pub fn collect_errors(&self, out: &mut ErrorVector) {
        if let Module::Mesh(mesh) = self {
            mesh.collect_errors(out);
        }
    }
}
