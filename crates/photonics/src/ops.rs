//! Primitive circuit operations: phase shifters and beam splitters.
//!
//! A linear photonic module is a sequence of [`Op`]s acting on a complex
//! amplitude state. Each op supports forward application, forward-mode
//! differentiation (JVP) and reverse-mode differentiation (VJP); the VJP is
//! the exact real-adjoint of the JVP, so composing `vjp ∘ jvp` yields exact
//! Fisher-metric products.

use std::f64::consts::FRAC_PI_2;

use photon_linalg::{mzi_rotate, scale_slice, CMatrix, CVector, C64};

/// A primitive operation in a linear photonic module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Phase shifter on `port`: multiplies the amplitude by `ζ·e^{jθ}`,
    /// where `θ` is the module-local parameter at index `param` and `ζ` is
    /// the component's attenuation-phase error (`ζ = 1` when ideal).
    Ps {
        /// Waveguide index the shifter sits on.
        port: usize,
        /// Module-local index of the phase parameter driving this shifter.
        param: usize,
        /// Fabrication error factor `ζ`.
        zeta: C64,
    },
    /// Beam splitter coupling `port` and `port + 1` with transfer matrix
    /// `[[cos φ, j·sin φ], [j·sin φ, cos φ]]`, `φ = (π/2 + γ)/2`; `γ` is the
    /// splitting-angle error (`γ = 0` gives the ideal 50:50 splitter).
    Bs {
        /// Upper waveguide index of the coupled pair.
        port: usize,
        /// Splitting-angle error `γ` in radians.
        gamma: f64,
    },
}

impl Op {
    /// The op's *gate*: its trigonometry at parameters `theta`, packed in
    /// one complex number — the factor `ζ·e^{jθ}` for a phase shifter,
    /// `cos φ + j·sin φ` for a beam splitter.
    ///
    /// A gate depends only on the op and `theta`, so a forward tape records
    /// it once and every later pass over the tape (JVP, VJP, replays)
    /// reuses it instead of re-evaluating the trig. The gate-taking forms
    /// ([`Op::apply_gate`], [`Op::jvp_gate`], [`Op::vjp_gate`]) are the
    /// arithmetic; the θ-taking forms are `gate(θ)` followed by them.
    #[inline]
    pub fn gate(&self, theta: &[f64]) -> C64 {
        match *self {
            Op::Ps { param, zeta, .. } => zeta * C64::cis(theta[param]),
            Op::Bs { gamma, .. } => {
                let phi = (FRAC_PI_2 + gamma) / 2.0;
                C64::new(phi.cos(), phi.sin())
            }
        }
    }

    /// Applies the op to `state` in place using parameters `theta`
    /// (module-local indexing).
    #[inline]
    pub fn apply(&self, state: &mut CVector, theta: &[f64]) {
        self.apply_gate(state, self.gate(theta));
    }

    /// [`Op::apply`] with the op's [`Op::gate`] already evaluated.
    #[inline]
    pub fn apply_gate(&self, state: &mut CVector, gate: C64) {
        match *self {
            Op::Ps { port, .. } => {
                state[port] *= gate;
            }
            Op::Bs { port, .. } => {
                let (c, s) = (gate.re, gate.im);
                let a = state[port];
                let b = state[port + 1];
                state[port] = a.scale(c) + C64::new(-s * b.im, s * b.re);
                state[port + 1] = C64::new(-s * a.im, s * a.re) + b.scale(c);
            }
        }
    }

    /// Applies the op to every column of an accumulating transfer matrix at
    /// once, premultiplying the op's 2×2 (or 1×1) block onto `acc`.
    ///
    /// This is the compile-time dual of [`Op::apply`]: walking a module's
    /// op list over an identity-seeded `acc` builds the module's dense
    /// transfer matrix in `O(ops·N)` with the trig evaluated once per op
    /// instead of once per sample. Row-major `acc` makes each op touch one
    /// or two contiguous rows, serviced by the fused multi-RHS kernels.
    #[inline]
    pub fn apply_to_rows(&self, acc: &mut CMatrix, theta: &[f64]) {
        let gate = self.gate(theta);
        match *self {
            Op::Ps { port, .. } => scale_slice(acc.row_mut(port), gate),
            Op::Bs { port, .. } => {
                let (top, bot) = acc.rows_pair_mut(port);
                mzi_rotate(top, bot, gate.re, gate.im);
            }
        }
    }

    /// Applies the op from the *right*, postmultiplying the op's block onto
    /// `acc`: `acc ← acc · U_op`.
    ///
    /// This is the column-side dual of [`Op::apply_to_rows`], used by the
    /// incremental-update compiler to build suffix products `U_n···U_{i+1}`
    /// by walking the op list in reverse. A phase shifter scales column
    /// `port`; a beam splitter mixes columns `port` and `port + 1` (its 2×2
    /// block is symmetric, so the column coefficients equal the row ones).
    #[inline]
    pub fn apply_to_cols(&self, acc: &mut CMatrix, theta: &[f64]) {
        let n_rows = acc.rows();
        let n_cols = acc.cols();
        let gate = self.gate(theta);
        let data = acc.as_mut_slice();
        match *self {
            Op::Ps { port, .. } => {
                for r in 0..n_rows {
                    let v = &mut data[r * n_cols + port];
                    *v = gate * *v;
                }
            }
            Op::Bs { port, .. } => {
                let (c, s) = (gate.re, gate.im);
                for r in 0..n_rows {
                    let a = data[r * n_cols + port];
                    let b = data[r * n_cols + port + 1];
                    data[r * n_cols + port] = a.scale(c) + C64::new(-s * b.im, s * b.re);
                    data[r * n_cols + port + 1] = C64::new(-s * a.im, s * a.re) + b.scale(c);
                }
            }
        }
    }

    /// Forward-mode derivative: updates the tangent `dstate` in place.
    ///
    /// `pre` must be the state *before* this op was applied (from the
    /// forward tape) and `dtheta` the parameter tangent.
    #[inline]
    pub fn jvp(&self, pre: &CVector, dstate: &mut CVector, theta: &[f64], dtheta: &[f64]) {
        self.jvp_gate(pre, dstate, self.gate(theta), dtheta);
    }

    /// [`Op::jvp`] with the op's [`Op::gate`] already evaluated.
    #[inline]
    pub fn jvp_gate(&self, pre: &CVector, dstate: &mut CVector, gate: C64, dtheta: &[f64]) {
        match *self {
            Op::Ps { port, param, .. } => {
                // y = f·x  ⇒  dy = f·dx + j·dθ·f·x
                let y = gate * pre[port];
                dstate[port] = gate * dstate[port] + C64::new(-y.im, y.re).scale(dtheta[param]);
            }
            // A splitter is linear in the state, so the tangent takes the
            // forward step itself.
            Op::Bs { .. } => self.apply_gate(dstate, gate),
        }
    }

    /// Reverse-mode derivative: transforms the cotangent `gstate` in place
    /// (output cotangent → input cotangent) and accumulates the parameter
    /// cotangent into `grad_theta`.
    ///
    /// `pre` must be the state before this op (from the forward tape). The
    /// cotangent convention is `g = ∂ℓ/∂Re(y) + j·∂ℓ/∂Im(y)`; a linear op
    /// `y = U·x` therefore backpropagates as `g_x = Uᴴ·g_y`.
    #[inline]
    pub fn vjp(&self, pre: &CVector, gstate: &mut CVector, theta: &[f64], grad_theta: &mut [f64]) {
        self.vjp_gate(pre, gstate, self.gate(theta), grad_theta);
    }

    /// [`Op::vjp`] with the op's [`Op::gate`] already evaluated.
    #[inline]
    pub fn vjp_gate(&self, pre: &CVector, gstate: &mut CVector, gate: C64, grad_theta: &mut [f64]) {
        match *self {
            Op::Ps { port, param, .. } => {
                let g = gstate[port];
                // ∂ℓ/∂θ = ⟨j·y, g⟩_R = Im(conj(y)·g), y = f·x.
                let y = gate * pre[port];
                grad_theta[param] += (y.conj() * g).im;
                gstate[port] = gate.conj() * g;
            }
            Op::Bs { port, .. } => {
                let (c, s) = (gate.re, gate.im);
                let a = gstate[port];
                let b = gstate[port + 1];
                // Bᴴ = [[c, -j·s], [-j·s, c]]
                gstate[port] = a.scale(c) + C64::new(s * b.im, -s * b.re);
                gstate[port + 1] = C64::new(s * a.im, -s * a.re) + b.scale(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_linalg::CMatrix;

    fn state2(a: C64, b: C64) -> CVector {
        CVector::from_vec(vec![a, b])
    }

    #[test]
    fn ideal_bs_is_unitary_50_50() {
        let op = Op::Bs {
            port: 0,
            gamma: 0.0,
        };
        let mut e0 = state2(C64::ONE, C64::ZERO);
        op.apply(&mut e0, &[]);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((e0[0] - C64::from_real(s)).abs() < 1e-12);
        assert!((e0[1] - C64::new(0.0, s)).abs() < 1e-12);
        // Power conserved.
        assert!((e0.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bs_with_error_still_unitary() {
        let op = Op::Bs {
            port: 0,
            gamma: 0.2,
        };
        let mut x = state2(C64::new(0.3, -0.4), C64::new(0.1, 0.9));
        let p_in = x.norm_sqr();
        op.apply(&mut x, &[]);
        assert!((x.norm_sqr() - p_in).abs() < 1e-12);
    }

    #[test]
    fn ps_applies_phase_and_attenuation() {
        let zeta = C64::from_polar(0.9, 0.05);
        let op = Op::Ps {
            port: 1,
            param: 0,
            zeta,
        };
        let mut x = state2(C64::ONE, C64::ONE);
        op.apply(&mut x, &[0.7]);
        assert_eq!(x[0], C64::ONE);
        let expected = zeta * C64::cis(0.7);
        assert!((x[1] - expected).abs() < 1e-12);
        // Attenuation reduces power on that port.
        assert!((x[1].abs() - 0.9).abs() < 1e-12);
    }

    /// Finite-difference check of the JVP for a PS op.
    #[test]
    fn ps_jvp_matches_finite_difference() {
        let op = Op::Ps {
            port: 0,
            param: 0,
            zeta: C64::from_polar(0.95, -0.1),
        };
        let x = state2(C64::new(0.4, 0.3), C64::ZERO);
        let theta = [0.3];
        let eps = 1e-7;

        let mut y_plus = x.clone();
        op.apply(&mut y_plus, &[theta[0] + eps]);
        let mut y_minus = x.clone();
        op.apply(&mut y_minus, &[theta[0] - eps]);
        let fd = (&y_plus - &y_minus).scale_real(0.5 / eps);

        let mut dy = CVector::zeros(2);
        op.jvp(&x, &mut dy, &theta, &[1.0]);
        assert!((&dy - &fd).max_abs() < 1e-6);
    }

    /// The VJP must be the exact adjoint of the JVP under the real inner
    /// product `⟨u, v⟩ = Re(uᴴv)` extended with the parameter component.
    #[test]
    fn vjp_is_adjoint_of_jvp() {
        let ops = [
            Op::Ps {
                port: 0,
                param: 0,
                zeta: C64::from_polar(0.98, 0.02),
            },
            Op::Bs {
                port: 0,
                gamma: 0.15,
            },
        ];
        let theta = [0.4];
        let x = state2(C64::new(0.2, -0.7), C64::new(-0.5, 0.1));

        for op in ops {
            // Random-ish tangent and cotangent.
            let dx = state2(C64::new(0.3, 0.9), C64::new(-0.2, 0.4));
            let dtheta = [0.6];
            let g = state2(C64::new(-0.8, 0.1), C64::new(0.5, 0.5));

            let mut dy = dx.clone();
            op.jvp(&x, &mut dy, &theta, &dtheta);

            let mut gx = g.clone();
            let mut gtheta = [0.0];
            op.vjp(&x, &mut gx, &theta, &mut gtheta);

            // ⟨J(dx, dθ), g⟩ = ⟨(dx, dθ), Jᵀg⟩
            let lhs: f64 = dy
                .iter()
                .zip(g.iter())
                .map(|(a, b)| a.re * b.re + a.im * b.im)
                .sum();
            let rhs: f64 = dx
                .iter()
                .zip(gx.iter())
                .map(|(a, b)| a.re * b.re + a.im * b.im)
                .sum::<f64>()
                + dtheta[0] * gtheta[0];
            assert!((lhs - rhs).abs() < 1e-12, "op {op:?}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn bs_matches_reference_matrix() {
        let gamma = 0.1;
        let op = Op::Bs { port: 0, gamma };
        let phi = (FRAC_PI_2 + gamma) / 2.0;
        let reference = CMatrix::from_rows(&[
            vec![C64::from_real(phi.cos()), C64::new(0.0, phi.sin())],
            vec![C64::new(0.0, phi.sin()), C64::from_real(phi.cos())],
        ]);
        for basis in 0..2 {
            let mut x = CVector::basis(2, basis);
            op.apply(&mut x, &[]);
            let expected = reference.col(basis);
            assert!((&x - &expected).max_abs() < 1e-12);
        }
        assert!(reference.is_unitary(1e-12));
    }

    /// `apply_to_rows` on an identity-seeded matrix must reproduce the
    /// column-by-column basis push of `apply` exactly.
    #[test]
    fn apply_to_rows_matches_basis_push() {
        let ops = [
            Op::Ps {
                port: 1,
                param: 0,
                zeta: C64::from_polar(0.97, 0.1),
            },
            Op::Bs { port: 0, gamma: 0.2 },
            Op::Bs {
                port: 1,
                gamma: -0.1,
            },
            Op::Ps {
                port: 2,
                param: 1,
                zeta: C64::ONE,
            },
        ];
        let theta = [0.3, -1.1];
        let mut acc = CMatrix::identity(3);
        for op in &ops {
            op.apply_to_rows(&mut acc, &theta);
        }
        for basis in 0..3 {
            let mut x = CVector::basis(3, basis);
            for op in &ops {
                op.apply(&mut x, &theta);
            }
            let col = acc.col(basis);
            assert!((&x - &col).max_abs() < 1e-14, "basis column {basis}");
        }
    }

    /// Postmultiplying identity by the op list in *reverse* order builds the
    /// same product `U_n···U_1` as premultiplying in forward order, which is
    /// exactly the contract the suffix reverse walk relies on.
    #[test]
    fn apply_to_cols_reverse_walk_matches_row_walk() {
        let ops = [
            Op::Ps {
                port: 1,
                param: 0,
                zeta: C64::from_polar(0.97, 0.1),
            },
            Op::Bs { port: 0, gamma: 0.2 },
            Op::Bs {
                port: 1,
                gamma: -0.1,
            },
            Op::Ps {
                port: 2,
                param: 1,
                zeta: C64::ONE,
            },
        ];
        let theta = [0.3, -1.1];
        let mut rows_acc = CMatrix::identity(3);
        for op in &ops {
            op.apply_to_rows(&mut rows_acc, &theta);
        }
        let mut cols_acc = CMatrix::identity(3);
        for op in ops.iter().rev() {
            op.apply_to_cols(&mut cols_acc, &theta);
        }
        assert!((&rows_acc - &cols_acc).max_abs() < 1e-14);
    }
}
