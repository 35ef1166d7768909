//! The module abstraction: the unit an ONN is composed of.

use std::fmt;

use photon_linalg::{CMatrix, CVector, C64};

use crate::error::{ErrorCursor, ErrorVector, ErrorVectorError};
use crate::mesh::MeshModule;

/// Compile-time snapshot of one phase shifter inside a fused linear stage,
/// recorded by [`OnnModule::compile_apply_probed`] and completed by
/// [`OnnModule::compile_suffix_probed`].
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
    /// Parameter index driving the shifter. Module-local as recorded; the
    /// stage compiler rebases it to the network's global theta indexing.
    pub param: usize,
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

/// Saved forward-pass state needed by [`OnnModule::jvp`] and
/// [`OnnModule::vjp`].
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
    /// [`OnnModule::forward_tape_into`]. Reusing one tape across calls keeps
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

/// A differentiable ONN module: a map `y = f(x, θ)` from a complex state and
/// real parameters to a complex state.
///
/// Implementations must satisfy the adjoint contract: for any tape,
/// `⟨jvp(dx, dθ), g⟩_R = ⟨dx, vjp-state⟩_R + dθ·(vjp-params)`, where
/// `⟨u, v⟩_R = Σ Re(uᵢ)Re(vᵢ) + Im(uᵢ)Im(vᵢ)`. This makes
/// `vjp ∘ jvp` an exact Fisher-metric (Gauss-Newton) product, which the
/// LCNG optimizer relies on.
pub trait OnnModule: fmt::Debug + Send + Sync {
    /// Short human-readable name, e.g. `Clements(8,8)`.
    fn name(&self) -> String;

    /// Number of input waveguides.
    fn input_dim(&self) -> usize;

    /// Number of output waveguides.
    fn output_dim(&self) -> usize;

    /// Number of trainable real parameters.
    fn param_count(&self) -> usize;

    /// `true` when the parameters are arranged in interrelated optical
    /// layers (Clements meshes); `false` for element-wise modules.
    fn is_layered(&self) -> bool;

    /// `(beam splitters, phase shifters)` — the fabrication-error slots this
    /// module consumes, in netlist order.
    fn error_slots(&self) -> (usize, usize);

    /// Whether parameters should be randomly initialized (layered meshes)
    /// rather than zero-initialized (diagonal phases, modReLU biases).
    fn random_init(&self) -> bool {
        self.is_layered()
    }

    /// Applies the module.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.input_dim()` or
    /// `theta.len() != self.param_count()`.
    fn forward(&self, x: &CVector, theta: &[f64]) -> CVector;

    /// Applies the module, recording the tape needed for differentiation.
    fn forward_tape(&self, x: &CVector, theta: &[f64]) -> (CVector, ModuleTape);

    /// Applies the module into a caller-owned output buffer.
    ///
    /// The default delegates to [`OnnModule::forward`] (one allocation); the
    /// modules in this crate override it with a true in-place evaluation so
    /// steady-state reuse of `out` performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Same as [`OnnModule::forward`].
    fn forward_into(&self, x: &CVector, theta: &[f64], out: &mut CVector) {
        *out = self.forward(x, theta);
    }

    /// Applies the module, recording into caller-owned output and tape
    /// buffers.
    ///
    /// The default delegates to [`OnnModule::forward_tape`]; the modules in
    /// this crate override it to reuse the buffers already held by `out` and
    /// `tape`.
    ///
    /// # Panics
    ///
    /// Same as [`OnnModule::forward`].
    fn forward_tape_into(&self, x: &CVector, theta: &[f64], out: &mut CVector, tape: &mut ModuleTape) {
        let (y, t) = self.forward_tape(x, theta);
        *out = y;
        *tape = t;
    }

    /// `true` when this module is linear in the optical field for fixed
    /// `theta`, i.e. representable as a dense transfer matrix that
    /// [`OnnModule::compile_apply`] can build. Element-wise nonlinear
    /// modules (modReLU, electro-optic activations) return `false`.
    fn is_compilable(&self) -> bool {
        false
    }

    /// Premultiplies this module's transfer matrix onto the accumulator
    /// `acc` (shape `N×W` for any panel width `W`), returning `true` on
    /// success or `false` when the module is not compilable (in which case
    /// `acc` is untouched).
    ///
    /// Walking the op list over `acc`'s rows costs `O(ops·W)` with the trig
    /// hoisted to once per op; consecutive compilable modules chain on the
    /// same accumulator, fusing a whole linear run into one matrix without
    /// any `O(N³)` matrix-matrix product.
    ///
    /// # Panics
    ///
    /// Implementations may panic (debug assertions) when
    /// `theta.len() != self.param_count()` or `acc.rows()` does not match
    /// the module dimension.
    fn compile_apply(&self, theta: &[f64], acc: &mut CMatrix) -> bool {
        let _ = (theta, acc);
        false
    }

    /// Like [`OnnModule::compile_apply`], but additionally records one
    /// [`PsSnapshot`] per phase shifter (prefix rows filled, suffix columns
    /// left empty for [`OnnModule::compile_suffix_probed`]), appended to
    /// `snaps` in op order. Must premultiply exactly the same arithmetic as
    /// `compile_apply`, so a probed compile is bitwise identical to a plain
    /// one.
    ///
    /// The default performs a plain compile and records nothing, which
    /// downgrades parameter changes inside this module to a full recompile —
    /// correct, just not incremental.
    fn compile_apply_probed(
        &self,
        theta: &[f64],
        acc: &mut CMatrix,
        snaps: &mut Vec<PsSnapshot>,
    ) -> bool {
        let _ = snaps;
        self.compile_apply(theta, acc)
    }

    /// Completes the suffix columns of this module's snapshots by walking
    /// the op list in reverse while postmultiplying onto `acc`.
    ///
    /// On entry `acc` must hold the product of every op applied *after* this
    /// module in the fused stage (identity for the last module); on exit it
    /// has absorbed this module too, ready for the preceding module. `snaps`
    /// is exactly the slice this module appended in
    /// [`OnnModule::compile_apply_probed`], still in op order. Returns
    /// `false` (leaving `acc` untouched) when the module records no
    /// snapshots.
    fn compile_suffix_probed(
        &self,
        theta: &[f64],
        acc: &mut CMatrix,
        snaps: &mut [PsSnapshot],
    ) -> bool {
        let _ = (theta, acc, snaps);
        false
    }

    /// Compiles this module's dense transfer matrix at `theta` (errors are
    /// already baked into the op list), or `None` when the module is
    /// nonlinear and has no fixed transfer matrix.
    fn compile_matrix(&self, theta: &[f64]) -> Option<CMatrix> {
        let mut acc = CMatrix::identity(self.input_dim());
        self.compile_apply(theta, &mut acc).then_some(acc)
    }

    /// Forward-mode derivative: the output tangent produced by input tangent
    /// `dx` and parameter tangent `dtheta`, linearized at the tape point.
    fn jvp(&self, tape: &ModuleTape, theta: &[f64], dx: &CVector, dtheta: &[f64]) -> CVector;

    /// Reverse-mode derivative: consumes the output cotangent `gy`, returns
    /// the input cotangent, and accumulates the parameter cotangent into
    /// `grad_theta`.
    fn vjp(
        &self,
        tape: &ModuleTape,
        theta: &[f64],
        gy: &CVector,
        grad_theta: &mut [f64],
    ) -> CVector;

    /// This module as a [`MeshModule`], or `None` for element-wise modules.
    ///
    /// Meshes are the only modules that carry fabrication errors, so
    /// [`crate::Network::for_each_nudged_output`] restarts its error nudges
    /// inside them through this view.
    fn as_mesh(&self) -> Option<&MeshModule> {
        None
    }

    /// Rebuilds this module with fabrication errors taken from `cursor`
    /// (consumed in netlist order).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorVectorError`] when the cursor runs out of error slots
    /// before the module is fully instantiated.
    fn with_errors(
        &self,
        cursor: &mut ErrorCursor<'_>,
    ) -> Result<Box<dyn OnnModule>, ErrorVectorError>;

    /// Appends this module's current error assignment to `out` in netlist
    /// order.
    fn collect_errors(&self, out: &mut ErrorVector);

    /// Clones into a boxed trait object.
    fn clone_box(&self) -> Box<dyn OnnModule>;
}

impl Clone for Box<dyn OnnModule> {
    fn clone(&self) -> Self {
        self.clone_box()
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
