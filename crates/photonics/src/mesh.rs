//! Linear photonic modules built from phase shifters and beam splitters:
//! Clements meshes (full and truncated), Reck triangles and diagonal phase
//! layers.

use photon_linalg::{CMatrix, CVector, C64};

use crate::error::{ErrorCursor, ErrorVector, ErrorVectorError};
use crate::module::{ModuleTape, PsSnapshot};
use crate::ops::Op;

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

    /// Applies the mesh to `x` with the gates recorded on `tape`: bitwise
    /// [`MeshModule::forward_into`] at the tape's parameters, with no trig.
    pub(crate) fn forward_gated_into(&self, tape: &ModuleTape, x: &CVector, out: &mut CVector) {
        debug_assert_eq!(tape.gates.len(), self.ops.len());
        out.copy_from(x);
        for (op, &gate) in self.ops.iter().zip(&tape.gates) {
            op.apply_gate(out, gate);
        }
    }

    /// Calls `f` with the mesh output for every op that `replace` maps to
    /// a replacement, in op order, each time with that one op swapped.
    ///
    /// `tape` must have been recorded at `theta` on this mesh. Each output
    /// is bitwise what the mesh with the replaced op computes on the tape's
    /// input: the walk restarts from the tape's state before the op,
    /// applies the replacement, and replays the later ops from their
    /// recorded gates. `state` is the working buffer.
    pub(crate) fn for_each_replaced_output(
        &self,
        tape: &ModuleTape,
        theta: &[f64],
        state: &mut CVector,
        mut replace: impl FnMut(&Op) -> Option<Op>,
        mut f: impl FnMut(&CVector),
    ) {
        debug_assert_eq!(tape.states.len(), self.ops.len() + 1);
        debug_assert_eq!(tape.gates.len(), self.ops.len());
        for (i, op) in self.ops.iter().enumerate() {
            let Some(replaced) = replace(op) else {
                continue;
            };
            state.copy_from(&tape.states[i]);
            replaced.apply(state, theta);
            for (later, &gate) in self.ops[i + 1..].iter().zip(&tape.gates[i + 1..]) {
                later.apply_gate(state, gate);
            }
            f(state);
        }
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

    /// Applies the mesh, recording every intermediate state and every op's
    /// gate on `tape` (see [`ModuleTape`]).
    pub fn forward_tape_into(
        &self,
        x: &CVector,
        theta: &[f64],
        out: &mut CVector,
        tape: &mut ModuleTape,
    ) {
        debug_assert_eq!(x.len(), self.dim, "input dimension mismatch");
        debug_assert_eq!(theta.len(), self.param_count, "parameter count mismatch");
        // Push-then-apply: each slot is seeded with a copy of its
        // predecessor and the op is applied in place, instead of mutating a
        // running state and cloning it per op.
        tape.truncate(self.ops.len() + 1);
        tape.record(0, x);
        tape.gates.clear();
        for (i, op) in self.ops.iter().enumerate() {
            let gate = op.gate(theta);
            tape.gates.push(gate);
            op.apply_gate(tape.advance(i), gate);
        }
        out.copy_from(tape.output());
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

    /// Like [`MeshModule::compile_apply`], but additionally records one
    /// [`PsSnapshot`] per phase shifter (prefix rows filled, suffix columns
    /// left empty for [`MeshModule::compile_suffix_probed`]), appended to
    /// `snaps` in op order. It premultiplies exactly the same arithmetic as
    /// `compile_apply`, so a probed compile is bitwise identical to a plain
    /// one.
    pub fn compile_apply_probed(
        &self,
        theta: &[f64],
        acc: &mut CMatrix,
        snaps: &mut Vec<PsSnapshot>,
    ) {
        debug_assert_eq!(theta.len(), self.param_count, "parameter count mismatch");
        debug_assert_eq!(acc.rows(), self.dim, "accumulator row mismatch");
        for op in &self.ops {
            if let Op::Ps { port, zeta, .. } = *op {
                snaps.push(PsSnapshot {
                    port,
                    zeta,
                    prefix: acc.row(port).to_vec(),
                    suffix: Vec::new(),
                });
            }
            op.apply_to_rows(acc, theta);
        }
    }

    /// Completes the suffix columns of this mesh's snapshots by walking the
    /// op list in reverse while postmultiplying onto `acc`.
    ///
    /// On entry `acc` must hold the product of every op applied *after* this
    /// mesh in the fused stage (identity for the last mesh); on exit it has
    /// absorbed this mesh too, ready for the preceding one. `snaps` is
    /// exactly the slice this mesh appended in
    /// [`MeshModule::compile_apply_probed`], still in op order.
    pub fn compile_suffix_probed(
        &self,
        theta: &[f64],
        acc: &mut CMatrix,
        snaps: &mut [PsSnapshot],
    ) {
        debug_assert_eq!(acc.cols(), self.dim, "suffix accumulator column mismatch");
        let mut k = snaps.len();
        for op in self.ops.iter().rev() {
            if let Op::Ps { port, .. } = *op {
                debug_assert!(k > 0, "snapshot/op walk out of sync");
                k -= 1;
                let snap = &mut snaps[k];
                debug_assert_eq!(snap.port, port, "snapshot/op walk out of sync");
                snap.suffix = acc.col(port).as_slice().to_vec();
            }
            op.apply_to_cols(acc, theta);
        }
        debug_assert_eq!(k, 0, "snapshot/op walk out of sync");
    }

    /// Compiles this mesh's dense transfer matrix at `theta` (errors are
    /// already baked into the op list).
    pub fn compile_matrix(&self, theta: &[f64]) -> CMatrix {
        let mut acc = CMatrix::identity(self.dim);
        self.compile_apply(theta, &mut acc);
        acc
    }

    // The tape's gates were evaluated at the recorded parameters, which are
    // the `theta` every caller linearizes at, so the passes below read them
    // and take no `theta`.

    /// Forward-mode derivative at the tape point: the output tangent for
    /// input tangent `dx` and phase tangent `dtheta`.
    pub fn jvp(&self, tape: &ModuleTape, dx: &CVector, dtheta: &[f64]) -> CVector {
        debug_assert_eq!(tape.states.len(), self.ops.len() + 1);
        debug_assert_eq!(tape.gates.len(), self.ops.len());
        let mut dstate = dx.clone();
        for ((op, pre), &gate) in self.ops.iter().zip(&tape.states).zip(&tape.gates) {
            op.jvp_gate(pre, &mut dstate, gate, dtheta);
        }
        dstate
    }

    /// Reverse-mode derivative at the tape point: consumes the output
    /// cotangent `gy`, returns the input cotangent and accumulates the phase
    /// cotangent into `grad_theta`.
    pub fn vjp(&self, tape: &ModuleTape, gy: &CVector, grad_theta: &mut [f64]) -> CVector {
        debug_assert_eq!(tape.states.len(), self.ops.len() + 1);
        debug_assert_eq!(tape.gates.len(), self.ops.len());
        let mut gstate = gy.clone();
        for ((op, pre), &gate) in self.ops.iter().zip(&tape.states).zip(&tape.gates).rev() {
            op.vjp_gate(pre, &mut gstate, gate, grad_theta);
        }
        gstate
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
        assert!((&y1 - &y2).max_abs() < 1e-14);
        assert_eq!(tape.states.len(), mesh.ops().len() + 1);
        assert!((tape.output() - &y1).max_abs() < 1e-14);
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
