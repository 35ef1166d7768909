//! The module type: the unit an ONN is composed of.

use photon_linalg::{CVector, C64};

use crate::electrooptic::ElectroOptic;
use crate::error::{ErrorCursor, ErrorVector, ErrorVectorError};
use crate::mesh::MeshModule;
use crate::modrelu::ModRelu;

/// Compile-time snapshot of one phase shifter inside a fused linear stage,
/// recorded by [`MeshModule::compile_apply_probed`] and completed by
/// [`MeshModule::compile_suffix_probed`].
///
/// With the stage product written `M = U_n···U_1` and shifter `i` sitting on
/// port `p`, a change of its phase from `θ` to `θ'` moves the stage matrix by
/// the exact rank-1 update
///
/// ```text
/// M' = M + ζ·(e^{jθ'} − e^{jθ}) · b · cᵀ,
///   b = (U_n···U_{i+1})·e_p   (the suffix column),
///   c = e_pᵀ·(U_{i−1}···U_1)  (the prefix row),
/// ```
///
/// so a snapshot holding `b` and `c` lets the compiled-plan cache absorb a
/// sparse phase perturbation in `O(N²)` instead of a full mesh recompile.
#[derive(Debug, Clone)]
pub struct PsSnapshot {
    /// Waveguide index the shifter sits on.
    pub port: usize,
    /// Fabrication error factor `ζ` baked into the shifter.
    pub zeta: C64,
    /// Prefix row `e_pᵀ·(U_{i−1}···U_1)` at the compile point.
    pub prefix: Vec<C64>,
    /// Suffix column `(U_n···U_{i+1})·e_p` at the compile point. Empty until
    /// the reverse walk fills it.
    pub suffix: Vec<C64>,
}

/// Saved forward-pass state needed by [`Module::jvp`] and
/// [`Module::vjp`].
///
/// For a mesh of `n` ops the tape holds `n + 1` states: the input, the state
/// after each op, the last being the module output. It also holds the `n`
/// op gates ([`crate::Op::gate`]) at the recorded parameters, so passes over
/// the tape evaluate no trigonometry. Element-wise modules store only the
/// input and no gates.
#[derive(Debug, Clone)]
pub struct ModuleTape {
    /// Intermediate amplitude states, in forward order.
    pub states: Vec<CVector>,
    /// Per-op gates at the recorded parameters, in op order.
    pub gates: Vec<C64>,
}

impl ModuleTape {
    /// An empty tape, ready to be filled by
    /// [`Module::forward_tape_into`]. Reusing one tape across calls keeps
    /// the recorded state buffers alive, so steady-state re-recording
    /// performs no heap allocation.
    pub fn empty() -> Self {
        ModuleTape {
            states: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Truncates to `len` recorded states (buffer capacity is retained).
    pub fn truncate(&mut self, len: usize) {
        self.states.truncate(len);
    }

    /// Overwrites slot `i` with a copy of `src`, growing the tape by one
    /// slot when `i == self.states.len()`. Existing slot buffers are reused.
    ///
    /// # Panics
    ///
    /// Panics when `i > self.states.len()` (slots must be recorded in
    /// order).
    pub fn record(&mut self, i: usize, src: &CVector) {
        if i == self.states.len() {
            self.states.push(src.clone());
        } else {
            self.states[i].copy_from(src);
        }
    }

    /// Copies state `i` into slot `i + 1` (growing the tape if needed) and
    /// returns a mutable reference to the new slot, so an op can be applied
    /// to it in place — the push-then-apply tape recording pattern.
    ///
    /// # Panics
    ///
    /// Panics when slot `i` does not exist yet.
    pub fn advance(&mut self, i: usize) -> &mut CVector {
        assert!(i < self.states.len(), "tape slot {i} not recorded yet");
        if i + 1 == self.states.len() {
            let next = self.states[i].clone();
            self.states.push(next);
        } else {
            let (head, tail) = self.states.split_at_mut(i + 1);
            tail[0].copy_from(&head[i]);
        }
        &mut self.states[i + 1]
    }

    /// The module input recorded on this tape.
    ///
    /// # Panics
    ///
    /// Panics on an empty tape (never produced by this crate).
    pub fn input(&self) -> &CVector {
        self.states.first().expect("tape has at least the input")
    }

    /// The module output recorded on this tape.
    ///
    /// # Panics
    ///
    /// Panics on an empty tape (never produced by this crate).
    pub fn output(&self) -> &CVector {
        self.states.last().expect("tape has at least the input")
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
            Module::ModRelu(act) => act.forward_into(x, theta, out),
            Module::ElectroOptic(act) => act.forward_into(x, theta, out),
        }
    }

    /// Applies the module, recording the tape [`Module::jvp`] and
    /// [`Module::vjp`] need; an activation records only its input.
    pub fn forward_tape_into(
        &self,
        x: &CVector,
        theta: &[f64],
        out: &mut CVector,
        tape: &mut ModuleTape,
    ) {
        match self {
            Module::Mesh(mesh) => mesh.forward_tape_into(x, theta, out, tape),
            Module::ModRelu(_) | Module::ElectroOptic(_) => {
                self.forward_into(x, theta, out);
                tape.truncate(1);
                tape.record(0, x);
            }
        }
    }

    /// Allocating form of [`Module::forward_into`].
    pub fn forward(&self, x: &CVector, theta: &[f64]) -> CVector {
        let mut out = CVector::zeros(0);
        self.forward_into(x, theta, &mut out);
        out
    }

    /// Allocating form of [`Module::forward_tape_into`].
    pub fn forward_tape(&self, x: &CVector, theta: &[f64]) -> (CVector, ModuleTape) {
        let mut out = CVector::zeros(0);
        let mut tape = ModuleTape::empty();
        self.forward_tape_into(x, theta, &mut out, &mut tape);
        (out, tape)
    }

    /// Forward-mode derivative: the output tangent produced by input tangent
    /// `dx` and parameter tangent `dtheta`, linearized at the tape point.
    pub fn jvp(&self, tape: &ModuleTape, theta: &[f64], dx: &CVector, dtheta: &[f64]) -> CVector {
        match self {
            Module::Mesh(mesh) => mesh.jvp(tape, dx, dtheta),
            Module::ModRelu(act) => act.jvp(tape.input(), theta, dx, dtheta),
            Module::ElectroOptic(act) => act.jvp(tape.input(), theta, dx, dtheta),
        }
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
        match self {
            Module::Mesh(mesh) => mesh.vjp(tape, gy, grad_theta),
            Module::ModRelu(act) => act.vjp(tape.input(), theta, gy, grad_theta),
            Module::ElectroOptic(act) => act.vjp(tape.input(), theta, gy, grad_theta),
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

#[cfg(test)]
mod tests {
    use super::*;
    use photon_linalg::C64;

    #[test]
    fn tape_accessors() {
        let tape = ModuleTape {
            states: vec![
                CVector::from_vec(vec![C64::ONE]),
                CVector::from_vec(vec![C64::I]),
            ],
            gates: Vec::new(),
        };
        assert_eq!(tape.input()[0], C64::ONE);
        assert_eq!(tape.output()[0], C64::I);
    }
}
