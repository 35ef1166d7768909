//! Linear photonic modules built from phase shifters and beam splitters:
//! Clements meshes (full and truncated), Reck triangles and diagonal phase
//! layers.

use photon_linalg::{CMatrix, CVector, C64};

use crate::error::{ErrorCursor, ErrorVector, ErrorVectorError};
use crate::ops::{
    rotate, rotate_back, shifter_cotangent, shifter_error_cotangent, shifter_tangent,
    splitter_error_cotangent, splitter_error_dirs, Op,
};
use crate::panel::StatePanel;

/// The topology family of a [`MeshModule`], kept for naming and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshKind {
    /// Rectangular Clements mesh with the given number of layers.
    Clements {
        /// Number of MZI layers (`layers == dim` is the universal mesh).
        layers: usize,
    },
    /// Triangular Reck-Zeilinger mesh.
    Reck,
    /// Single column of phase shifters (`diag(e^{jθ})`).
    PhaseDiag,
}

/// A linear photonic module: an ordered list of [`Op`]s on `dim` waveguides.
///
/// Construct via [`MeshModule::clements`], [`MeshModule::reck`] or
/// [`MeshModule::phase_diag`]. Meshes alone carry fabrication errors and
/// compile to a dense transfer matrix.
///
/// # Examples
///
/// ```
/// use photon_photonics::MeshModule;
///
/// let mesh = MeshModule::clements(8, 8);
/// assert_eq!(mesh.param_count(), 56); // 28 MZIs × 2 phases
/// assert_eq!(mesh.name(), "Clements(8,8)");
/// let diag = MeshModule::phase_diag(8);
/// assert_eq!(diag.param_count(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct MeshModule {
    dim: usize,
    ops: Vec<Op>,
    param_count: usize,
    kind: MeshKind,
}

impl MeshModule {
    /// Builds an ideal (error-free) rectangular Clements mesh on `dim`
    /// waveguides with `layers` MZI layers.
    ///
    /// Layer `ℓ` places MZIs on port pairs `(0,1), (2,3), …` when `ℓ` is
    /// even and `(1,2), (3,4), …` when odd. `layers == dim` together with a
    /// trailing [`MeshModule::phase_diag`] realizes an arbitrary unitary;
    /// `layers < dim` is the truncated mesh that trades expressivity for
    /// circuit size.
    ///
    /// # Panics
    ///
    /// Panics when `dim < 2` or `layers == 0`.
    pub fn clements(dim: usize, layers: usize) -> Self {
        assert!(dim >= 2, "Clements mesh needs at least 2 waveguides");
        assert!(layers >= 1, "Clements mesh needs at least 1 layer");
        let mut ops = Vec::new();
        let mut param = 0;
        for layer in 0..layers {
            let start = layer % 2;
            let mut p = start;
            while p + 1 < dim {
                push_mzi(&mut ops, p, &mut param);
                p += 2;
            }
        }
        MeshModule {
            dim,
            ops,
            param_count: param,
            kind: MeshKind::Clements { layers },
        }
    }

    /// Builds an ideal triangular Reck-Zeilinger mesh on `dim` waveguides
    /// (`dim·(dim−1)/2` MZIs).
    ///
    /// # Panics
    ///
    /// Panics when `dim < 2`.
    pub fn reck(dim: usize) -> Self {
        assert!(dim >= 2, "Reck mesh needs at least 2 waveguides");
        let mut ops = Vec::new();
        let mut param = 0;
        for i in 1..dim {
            for j in (0..i).rev() {
                push_mzi(&mut ops, j, &mut param);
            }
        }
        MeshModule {
            dim,
            ops,
            param_count: param,
            kind: MeshKind::Reck,
        }
    }

    /// Builds an ideal diagonal phase layer `diag(e^{jθ₁}, …, e^{jθ_K})`.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`.
    pub fn phase_diag(dim: usize) -> Self {
        assert!(dim >= 1, "phase layer needs at least 1 waveguide");
        let ops = (0..dim)
            .map(|p| Op::Ps {
                port: p,
                param: p,
                zeta: C64::ONE,
            })
            .collect();
        MeshModule {
            dim,
            ops,
            param_count: dim,
            kind: MeshKind::PhaseDiag,
        }
    }

    /// The op netlist, in application order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Materializes the transfer matrix by pushing basis vectors through.
    ///
    /// With zero errors, the result is unitary for every `theta`.
    ///
    /// # Panics
    ///
    /// Panics when `theta.len() != self.param_count()`.
    pub fn transfer_matrix(&self, theta: &[f64]) -> CMatrix {
        assert_eq!(theta.len(), self.param_count, "parameter count mismatch");
        let mut m = CMatrix::zeros(self.dim, self.dim);
        let mut y = CVector::zeros(0);
        for k in 0..self.dim {
            self.forward_into(&CVector::basis(self.dim, k), theta, &mut y);
            m.set_col(k, &y);
        }
        m
    }

    /// Short human-readable name, e.g. `Clements(8,8)`.
    pub fn name(&self) -> String {
        match self.kind {
            MeshKind::Clements { layers } => format!("Clements({},{})", self.dim, layers),
            MeshKind::Reck => format!("Reck({})", self.dim),
            MeshKind::PhaseDiag => format!("PSdiag({})", self.dim),
        }
    }

    /// Number of waveguides in and out.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of trainable phases.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// `true` for Clements and Reck meshes, whose phases sit in
    /// interrelated optical layers; `false` for a phase diagonal.
    pub fn is_layered(&self) -> bool {
        !matches!(self.kind, MeshKind::PhaseDiag)
    }

    /// `(beam splitters, phase shifters)` — the fabrication-error slots this
    /// mesh consumes, in netlist order.
    pub fn error_slots(&self) -> (usize, usize) {
        let n_bs = self
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Bs { .. }))
            .count();
        let n_ps = self.ops.len() - n_bs;
        (n_bs, n_ps)
    }

    // Dimension checks in the per-op hot paths are debug-only: callers go
    // through the validated `Network`/chip boundary, which asserts input and
    // parameter lengths once per evaluation.

    /// Applies the mesh into a caller-owned output buffer.
    pub fn forward_into(&self, x: &CVector, theta: &[f64], out: &mut CVector) {
        debug_assert_eq!(x.len(), self.dim, "input dimension mismatch");
        debug_assert_eq!(theta.len(), self.param_count, "parameter count mismatch");
        out.copy_from(x);
        for op in &self.ops {
            op.apply(out, theta);
        }
    }

    /// Evaluates every op's [`Op::gate`] at `theta` into `gates`, in op
    /// order.
    pub(crate) fn gates_into(&self, theta: &[f64], gates: &mut [C64]) {
        debug_assert_eq!(theta.len(), self.param_count, "parameter count mismatch");
        debug_assert_eq!(gates.len(), self.ops.len(), "gate count mismatch");
        for (gate, op) in gates.iter_mut().zip(&self.ops) {
            *gate = op.gate(theta);
        }
    }

    /// Number of input amplitudes a tape of this mesh keeps: one per phase
    /// shifter, two per beam splitter ([`Op::taped_len`]).
    pub(crate) fn taped_len(&self) -> usize {
        self.ops.iter().map(Op::taped_len).sum()
    }

    /// Applies the mesh to `state` in place with the ops' precomputed
    /// `gates`, recording each op's input amplitudes into `taped` in op
    /// order. Bitwise [`MeshModule::forward_into`] at the gates' `theta`.
    pub(crate) fn forward_taped(&self, gates: &[C64], taped: &mut [C64], state: &mut CVector) {
        debug_assert_eq!(state.len(), self.dim, "input dimension mismatch");
        debug_assert_eq!(taped.len(), self.taped_len(), "tape length mismatch");
        let mut at = 0;
        for (op, &gate) in self.ops.iter().zip(gates) {
            let n = op.taped_len();
            op.record(state, &mut taped[at..at + n]);
            op.apply_gate(state, gate);
            at += n;
        }
    }

    /// Premultiplies this mesh's transfer matrix onto the accumulator `acc`
    /// (shape `N×W` for any panel width `W`).
    ///
    /// Walking the op list over `acc`'s rows costs `O(ops·W)` with the trig
    /// hoisted to once per op; consecutive meshes chain on the same
    /// accumulator, fusing a whole linear run into one matrix without any
    /// `O(N³)` matrix-matrix product.
    pub fn compile_apply(&self, theta: &[f64], acc: &mut CMatrix) {
        debug_assert_eq!(theta.len(), self.param_count, "parameter count mismatch");
        debug_assert_eq!(acc.rows(), self.dim, "accumulator row mismatch");
        for op in &self.ops {
            op.apply_to_rows(acc, theta);
        }
    }

    /// Like [`MeshModule::compile_apply`], but additionally records each
    /// phase shifter's fabrication factor `ζ` onto `zeta` and its prefix
    /// row — row `port` of `acc` just before the shifter, the product
    /// `e_pᵀ·(U_{i−1}···U_1)` of every op before it in the fused stage —
    /// onto `prefix`, in op order: the mesh numbers its phases in op
    /// order, so phase `j` of a stage has its row at `prefix[j·N..(j+1)·N]`.
    /// It premultiplies exactly the same arithmetic as `compile_apply`, so
    /// a probed compile is bitwise identical to a plain one.
    ///
    /// With the stage product written `M = U_n···U_1`, a change of shifter
    /// `i`'s phase from `θ` to `θ'` moves `M` by the exact rank-1 update
    /// `ζ·(e^{jθ'} − e^{jθ})·b·cᵀ`, `c` the prefix row and `b` the suffix
    /// column of [`MeshModule::compile_suffix_probed`].
    pub(crate) fn compile_apply_probed(
        &self,
        theta: &[f64],
        acc: &mut CMatrix,
        zeta: &mut Vec<C64>,
        prefix: &mut Vec<C64>,
    ) {
        debug_assert_eq!(theta.len(), self.param_count, "parameter count mismatch");
        debug_assert_eq!(acc.rows(), self.dim, "accumulator row mismatch");
        for op in &self.ops {
            if let Op::Ps { port, zeta: z, .. } = *op {
                zeta.push(z);
                prefix.extend_from_slice(acc.row(port));
            }
            op.apply_to_rows(acc, theta);
        }
    }

    /// Writes this mesh's suffix columns — column `port` of the product
    /// `U_n···U_{i+1}` of every op after shifter `i` in the fused stage —
    /// into `suffix`, in op order, `N` entries per shifter, by walking the
    /// op list in reverse while postmultiplying onto `acc`.
    ///
    /// On entry `acc` must hold the product of every op applied *after* this
    /// mesh in the fused stage (identity for the last mesh); on exit it has
    /// absorbed this mesh too, ready for the preceding one. `suffix` is
    /// exactly this mesh's span of the stage's columns.
    pub(crate) fn compile_suffix_probed(
        &self,
        theta: &[f64],
        acc: &mut CMatrix,
        suffix: &mut [C64],
    ) {
        debug_assert_eq!(acc.cols(), self.dim, "suffix accumulator column mismatch");
        let mut end = suffix.len();
        for op in self.ops.iter().rev() {
            if let Op::Ps { port, .. } = *op {
                debug_assert!(end >= self.dim, "suffix/op walk out of sync");
                let col = &mut suffix[end - self.dim..end];
                for (r, v) in col.iter_mut().enumerate() {
                    *v = acc[(r, port)];
                }
                end -= self.dim;
            }
            op.apply_to_cols(acc, theta);
        }
        debug_assert_eq!(end, 0, "suffix/op walk out of sync");
    }

    /// Compiles this mesh's dense transfer matrix at `theta` (errors are
    /// already baked into the op list).
    pub fn compile_matrix(&self, theta: &[f64]) -> CMatrix {
        let mut acc = CMatrix::identity(self.dim);
        self.compile_apply(theta, &mut acc);
        acc
    }

    // The passes below linearize at the tape point: `gates` and `taped`
    // come from one `forward_taped` walk, so they take no `theta`. Each has
    // a single-vector form and a panel form over the same lane functions.

    /// Forward-mode derivative at the tape point: maps the input tangent in
    /// `dstate` to the output tangent, with phase tangent `dtheta`.
    pub(crate) fn jvp_in_place(
        &self,
        gates: &[C64],
        taped: &[C64],
        dstate: &mut CVector,
        dtheta: &[f64],
    ) {
        let mut at = 0;
        for (op, &gate) in self.ops.iter().zip(gates) {
            match *op {
                Op::Ps { port, param, .. } => {
                    let y = gate * taped[at];
                    dstate[port] = shifter_tangent(gate, y, dstate[port], dtheta[param]);
                }
                Op::Bs { port, .. } => {
                    (dstate[port], dstate[port + 1]) = rotate(gate, dstate[port], dstate[port + 1]);
                }
            }
            at += op.taped_len();
        }
    }

    /// [`MeshModule::jvp_in_place`] on every column of `dstate` at one
    /// shared tape; `dtheta` is param-major (`param_count × q`).
    #[inline(always)]
    pub(crate) fn jvp_panel(
        &self,
        gates: &[C64],
        taped: &[C64],
        dstate: &mut StatePanel,
        dtheta: &[f64],
    ) {
        let q = dstate.width();
        let mut at = 0;
        for (op, &gate) in self.ops.iter().zip(gates) {
            match *op {
                Op::Ps { port, param, .. } => {
                    let y = gate * taped[at];
                    let dtheta = &dtheta[param * q..][..q];
                    dstate.map_port(port, |c, d| shifter_tangent(gate, y, d, dtheta[c]));
                }
                Op::Bs { port, .. } => dstate.map_pair(port, |_, a, b| rotate(gate, a, b)),
            }
            at += op.taped_len();
        }
    }

    /// Reverse-mode derivative at the tape point: maps the output cotangent
    /// in `gstate` to the input cotangent and accumulates the phase
    /// cotangent into `grad_theta`.
    pub(crate) fn vjp_in_place(
        &self,
        gates: &[C64],
        taped: &[C64],
        gstate: &mut CVector,
        grad_theta: &mut [f64],
    ) {
        let mut at = taped.len();
        for (op, &gate) in self.ops.iter().zip(gates).rev() {
            at -= op.taped_len();
            match *op {
                Op::Ps { port, param, .. } => {
                    let (d, g) = shifter_cotangent(gate, gate * taped[at], gstate[port]);
                    grad_theta[param] += d;
                    gstate[port] = g;
                }
                Op::Bs { port, .. } => {
                    (gstate[port], gstate[port + 1]) =
                        rotate_back(gate, gstate[port], gstate[port + 1]);
                }
            }
        }
    }

    /// [`MeshModule::vjp_in_place`] on every column of `gstate` at one
    /// shared tape; `grad_theta` is param-major (`param_count × q`).
    #[inline(always)]
    pub(crate) fn vjp_panel(
        &self,
        gates: &[C64],
        taped: &[C64],
        gstate: &mut StatePanel,
        grad_theta: &mut [f64],
    ) {
        let q = gstate.width();
        let mut at = taped.len();
        for (op, &gate) in self.ops.iter().zip(gates).rev() {
            at -= op.taped_len();
            match *op {
                Op::Ps { port, param, .. } => {
                    let y = gate * taped[at];
                    let grad = &mut grad_theta[param * q..][..q];
                    gstate.map_port(port, |c, g| {
                        let (d, g) = shifter_cotangent(gate, y, g);
                        grad[c] += d;
                        g
                    });
                }
                Op::Bs { port, .. } => gstate.map_pair(port, |_, a, b| rotate_back(gate, a, b)),
            }
        }
    }

    /// Reverse-mode derivative with respect to this mesh's fabrication
    /// errors at the tape point: maps the output cotangent in `gstate` to
    /// the input cotangent and writes `∂ℓ/∂γ` of every splitter into
    /// `gamma` and `∂ℓ/∂attenuation`, `∂ℓ/∂phase` of every shifter into
    /// `attenuation` and `phase`, each in netlist order (the slots
    /// [`MeshModule::with_errors`] consumes).
    pub(crate) fn error_vjp(
        &self,
        gates: &[C64],
        taped: &[C64],
        gstate: &mut CVector,
        gamma: &mut [f64],
        attenuation: &mut [f64],
        phase: &mut [f64],
    ) {
        let (mut at, mut bs, mut ps) = (taped.len(), gamma.len(), phase.len());
        for (op, &gate) in self.ops.iter().zip(gates).rev() {
            at -= op.taped_len();
            match *op {
                Op::Bs { port, .. } => {
                    bs -= 1;
                    let dirs = splitter_error_dirs(gate, taped[at], taped[at + 1]);
                    let (a, b) = (gstate[port], gstate[port + 1]);
                    gamma[bs] = splitter_error_cotangent(dirs, a, b);
                    (gstate[port], gstate[port + 1]) = rotate_back(gate, a, b);
                }
                Op::Ps { port, zeta, .. } => {
                    ps -= 1;
                    let y = gate * taped[at];
                    let ([d0, d1], g) = shifter_error_cotangent(gate, y, zeta.abs(), gstate[port]);
                    attenuation[ps] = d0;
                    phase[ps] = d1;
                    gstate[port] = g;
                }
            }
        }
        debug_assert_eq!((at, bs, ps), (0, 0, 0), "error slots out of sync");
    }

    /// [`MeshModule::error_vjp`] on every column of `gstate` at one shared
    /// tape. Slot-major: column `c` of flat error slot `k` goes to
    /// `out[k·stride + c]`; this mesh's splitters, attenuations and phases
    /// end just before the flat slots `ends = [γ, attenuation, phase]`.
    #[inline(always)]
    pub(crate) fn error_vjp_panel(
        &self,
        gates: &[C64],
        taped: &[C64],
        gstate: &mut StatePanel,
        out: &mut [f64],
        stride: usize,
        ends: [usize; 3],
    ) {
        let q = gstate.width();
        let (mut at, [mut bs, mut att, mut ph]) = (taped.len(), ends);
        for (op, &gate) in self.ops.iter().zip(gates).rev() {
            at -= op.taped_len();
            match *op {
                Op::Bs { port, .. } => {
                    bs -= 1;
                    let dirs = splitter_error_dirs(gate, taped[at], taped[at + 1]);
                    let gamma = &mut out[bs * stride..][..q];
                    gstate.map_pair(port, |c, a, b| {
                        gamma[c] = splitter_error_cotangent(dirs, a, b);
                        rotate_back(gate, a, b)
                    });
                }
                Op::Ps { port, zeta, .. } => {
                    (att, ph) = (att - 1, ph - 1);
                    let (y, zeta_abs) = (gate * taped[at], zeta.abs());
                    let (head, tail) = out.split_at_mut(ph * stride);
                    let attenuation = &mut head[att * stride..][..q];
                    let phase = &mut tail[..q];
                    gstate.map_port(port, |c, g| {
                        let ([d0, d1], g) = shifter_error_cotangent(gate, y, zeta_abs, g);
                        attenuation[c] = d0;
                        phase[c] = d1;
                        g
                    });
                }
            }
        }
        debug_assert_eq!(at, 0, "error slots out of sync");
    }

    /// Rebuilds this mesh with fabrication errors taken from `cursor`
    /// (consumed in netlist order).
    ///
    /// # Errors
    ///
    /// Returns [`ErrorVectorError`] when the cursor runs out of error slots
    /// before the mesh is fully instantiated.
    pub fn with_errors(
        &self,
        cursor: &mut ErrorCursor<'_>,
    ) -> Result<MeshModule, ErrorVectorError> {
        let mut ops = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            ops.push(match *op {
                Op::Ps { port, param, .. } => Op::Ps {
                    port,
                    param,
                    zeta: cursor.next_zeta()?,
                },
                Op::Bs { port, .. } => Op::Bs {
                    port,
                    gamma: cursor.next_gamma()?,
                },
            });
        }
        Ok(MeshModule {
            dim: self.dim,
            ops,
            param_count: self.param_count,
            kind: self.kind,
        })
    }

    /// Appends this mesh's current error assignment to `out` in netlist
    /// order.
    pub fn collect_errors(&self, out: &mut ErrorVector) {
        for op in &self.ops {
            match *op {
                Op::Ps { zeta, .. } => {
                    out.attenuation.push(1.0 - zeta.abs());
                    out.phase.push(zeta.arg());
                }
                Op::Bs { gamma, .. } => out.gamma.push(gamma),
            }
        }
    }
}

fn push_mzi(ops: &mut Vec<Op>, port: usize, param: &mut usize) {
    // MZI = (PS, BS) × 2 on the upper arm of the pair.
    ops.push(Op::Ps {
        port,
        param: *param,
        zeta: C64::ONE,
    });
    ops.push(Op::Bs { port, gamma: 0.0 });
    ops.push(Op::Ps {
        port,
        param: *param + 1,
        zeta: C64::ONE,
    });
    ops.push(Op::Bs { port, gamma: 0.0 });
    *param += 2;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{ErrorModel, ErrorVector};
    use crate::module::Module;
    use photon_linalg::random::normal_cvector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_theta<R: Rng>(n: usize, rng: &mut R) -> Vec<f64> {
        (0..n)
            .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
            .collect()
    }

    #[test]
    fn clements_parameter_counts() {
        // Clements(8,8): 28 MZIs, 56 phases — matches the published counts.
        let full = MeshModule::clements(8, 8);
        assert_eq!(full.param_count(), 56);
        // Truncated Clements(8,4): 14 MZIs, 28 phases.
        let trunc = MeshModule::clements(8, 4);
        assert_eq!(trunc.param_count(), 28);
        // With PSdiag(8): 56 + 8 = 64 = 8² parameters, universal.
        assert_eq!(MeshModule::phase_diag(8).param_count(), 8);
    }

    #[test]
    fn reck_parameter_count() {
        let reck = MeshModule::reck(6);
        assert_eq!(reck.param_count(), 30); // 6·5/2 MZIs
        assert!(reck.is_layered());
    }

    /// The pinned serve finds phase `k`'s compile snapshot at index `k`
    /// of the mesh's snapshots, so each mesh must number its phases in op
    /// order, one shifter per phase.
    #[test]
    fn phases_are_numbered_in_op_order() {
        for mesh in [
            MeshModule::clements(5, 5),
            MeshModule::clements(6, 3),
            MeshModule::reck(5),
            MeshModule::phase_diag(4),
        ] {
            let params: Vec<usize> = mesh
                .ops()
                .iter()
                .filter_map(|op| match *op {
                    Op::Ps { param, .. } => Some(param),
                    Op::Bs { .. } => None,
                })
                .collect();
            assert_eq!(
                params,
                (0..mesh.param_count()).collect::<Vec<_>>(),
                "{}",
                mesh.name()
            );
        }
    }

    #[test]
    fn names() {
        assert_eq!(MeshModule::clements(8, 4).name(), "Clements(8,4)");
        assert_eq!(MeshModule::reck(4).name(), "Reck(4)");
        assert_eq!(MeshModule::phase_diag(3).name(), "PSdiag(3)");
    }

    #[test]
    fn ideal_mesh_is_unitary() {
        let mut rng = StdRng::seed_from_u64(11);
        for module in [
            MeshModule::clements(6, 6),
            MeshModule::clements(6, 3),
            MeshModule::reck(5),
            MeshModule::phase_diag(4),
        ] {
            let theta = random_theta(module.param_count(), &mut rng);
            let u = module.transfer_matrix(&theta);
            assert!(u.is_unitary(1e-10), "{} not unitary", module.name());
        }
    }

    #[test]
    fn mesh_with_errors_conserves_power_up_to_attenuation() {
        // γ errors keep the BS unitary; ζ attenuation can only lose power.
        let mut rng = StdRng::seed_from_u64(5);
        let ideal = MeshModule::clements(6, 6);
        let (n_bs, n_ps) = ideal.error_slots();
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(4.0), &mut rng);
        let mut cursor = ErrorCursor::new(&ev);
        let noisy = Module::Mesh(ideal.with_errors(&mut cursor).unwrap());
        let theta = random_theta(noisy.param_count(), &mut rng);
        let x = normal_cvector(6, &mut rng);
        let y = noisy.forward(&x, &theta);
        assert!(y.norm_sqr() <= x.norm_sqr() + 1e-12);
        assert!(y.norm_sqr() > 0.5 * x.norm_sqr()); // small errors, small loss
    }

    #[test]
    fn error_roundtrip_through_collect() {
        let mut rng = StdRng::seed_from_u64(8);
        let ideal = MeshModule::clements(4, 4);
        let (n_bs, n_ps) = ideal.error_slots();
        assert_eq!(n_bs, n_ps); // MZIs have equal numbers of each
        let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(1.0), &mut rng);
        let noisy = ideal.with_errors(&mut ErrorCursor::new(&ev)).unwrap();
        let mut collected = ErrorVector::default();
        noisy.collect_errors(&mut collected);
        let r = ev.rmse(&collected);
        assert!(r.gamma < 1e-12 && r.attenuation < 1e-12 && r.phase < 1e-12);
    }

    #[test]
    fn forward_tape_matches_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mesh = MeshModule::clements(5, 3);
        let m = Module::Mesh(mesh.clone());
        let theta = random_theta(m.param_count(), &mut rng);
        let x = normal_cvector(5, &mut rng);
        let y1 = m.forward(&x, &theta);
        let (y2, tape) = m.forward_tape(&x, &theta);
        assert_eq!((&y1 - &y2).max_abs(), 0.0);
        // One gate per op; one taped amplitude per shifter, two per splitter.
        let (n_bs, n_ps) = mesh.error_slots();
        assert_eq!(tape.gates.len(), mesh.ops().len());
        assert_eq!(tape.taped.len(), n_ps + 2 * n_bs);
    }

    #[test]
    fn jvp_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(21);
        let m = Module::Mesh(MeshModule::clements(4, 4));
        let theta = random_theta(m.param_count(), &mut rng);
        let x = normal_cvector(4, &mut rng);
        let dtheta: Vec<f64> = (0..m.param_count())
            .map(|_| rng.gen::<f64>() - 0.5)
            .collect();

        let (_, tape) = m.forward_tape(&x, &theta);
        let dy = m.jvp(&tape, &theta, &CVector::zeros(4), &dtheta);

        let eps = 1e-6;
        let theta_p: Vec<f64> = theta
            .iter()
            .zip(&dtheta)
            .map(|(t, d)| t + eps * d)
            .collect();
        let theta_m: Vec<f64> = theta
            .iter()
            .zip(&dtheta)
            .map(|(t, d)| t - eps * d)
            .collect();
        let fd = (&m.forward(&x, &theta_p) - &m.forward(&x, &theta_m)).scale_real(0.5 / eps);
        assert!((&dy - &fd).max_abs() < 1e-7);
    }

    #[test]
    fn vjp_is_adjoint_of_jvp() {
        let mut rng = StdRng::seed_from_u64(23);
        let m = Module::Mesh(MeshModule::clements(4, 2));
        let n = m.param_count();
        let theta = random_theta(n, &mut rng);
        let x = normal_cvector(4, &mut rng);
        let (_, tape) = m.forward_tape(&x, &theta);

        let dx = normal_cvector(4, &mut rng);
        let dtheta: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        let g = normal_cvector(4, &mut rng);

        let dy = m.jvp(&tape, &theta, &dx, &dtheta);
        let mut gtheta = vec![0.0; n];
        let gx = m.vjp(&tape, &theta, &g, &mut gtheta);

        let real_dot = |a: &CVector, b: &CVector| -> f64 {
            a.iter()
                .zip(b.iter())
                .map(|(u, v)| u.re * v.re + u.im * v.im)
                .sum()
        };
        let lhs = real_dot(&dy, &g);
        let rhs = real_dot(&dx, &gx) + dtheta.iter().zip(&gtheta).map(|(a, b)| a * b).sum::<f64>();
        assert!((lhs - rhs).abs() < 1e-10, "{lhs} vs {rhs}");
    }

    #[test]
    fn phase_diag_is_elementwise() {
        let m = Module::Mesh(MeshModule::phase_diag(3));
        assert!(!m.is_layered());
        let theta = [0.1, 0.2, 0.3];
        let x = CVector::from_real_slice(&[1.0, 1.0, 1.0]);
        let y = m.forward(&x, &theta);
        for k in 0..3 {
            assert!((y[k] - C64::cis(theta[k])).abs() < 1e-12);
        }
    }

    #[test]
    fn compile_matrix_matches_transfer_matrix() {
        let mut rng = StdRng::seed_from_u64(17);
        for module in [
            MeshModule::clements(6, 6),
            MeshModule::clements(6, 3),
            MeshModule::reck(5),
            MeshModule::phase_diag(4),
        ] {
            let (n_bs, n_ps) = module.error_slots();
            let ev = ErrorVector::sample(n_bs, n_ps, &ErrorModel::with_beta(2.0), &mut rng);
            let noisy = module.with_errors(&mut ErrorCursor::new(&ev)).unwrap();
            let theta = random_theta(noisy.param_count(), &mut rng);
            let compiled = noisy.compile_matrix(&theta);
            let reference = noisy.transfer_matrix(&theta);
            assert!(
                (&compiled - &reference).max_abs() < 1e-13,
                "{} compiled matrix diverges",
                module.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 waveguides")]
    fn clements_rejects_dim_1() {
        let _ = MeshModule::clements(1, 1);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn forward_rejects_wrong_input_dim() {
        let m = Module::Mesh(MeshModule::clements(4, 2));
        let theta = vec![0.0; m.param_count()];
        let _ = m.forward(&CVector::zeros(3), &theta);
    }
}
