//! Panels: many tangent or cotangent columns walked through one tape at
//! once.
//!
//! A derivative walk decodes every op of the network for a handful of
//! flops per column. A panel walk decodes each op once and runs its
//! arithmetic over all `q` columns of a [`StatePanel`], so the Fisher
//! products of `Q` directions and the `K` detector cotangents of a
//! calibration probe each share one op walk on one tape
//! ([`crate::Network::jvp_panel_into`], [`crate::Network::vjp_panel_into`],
//! [`crate::Network::error_vjp_panel_into`]).
//!
//! Every column takes exactly the single-vector walk's operations: the
//! scalar and panel loops call the same per-op lane functions (ops.rs,
//! modrelu.rs, electrooptic.rs), nothing fuses a multiply and an add, and
//! values that are the same for every column (a shifter's output at the
//! tape point, a modReLU element's modulus and slopes) are computed once
//! per op with the expressions the single walk uses.

use photon_linalg::{CVector, C64};

/// `width` complex columns on `dim` ports, stored structure-of-arrays:
/// port `p` owns one row of `width` real parts followed by one row of
/// `width` imaginary parts, so an op's lane loop runs over contiguous
/// lanes.
///
/// Column `c` is one state, tangent or cotangent vector. Parameter tangents
/// and gradients that go with a panel are param-major (`N × width`, entry
/// `k·width + c`).
///
/// # Examples
///
/// ```
/// use photon_linalg::{C64, CVector};
/// use photon_photonics::StatePanel;
///
/// let mut panel = StatePanel::zeros(3, 2);
/// panel.set_column(1, &CVector::from_vec(vec![C64::ONE, C64::I, C64::ZERO]));
/// assert_eq!(panel.get(1, 1), C64::I);
/// assert_eq!(panel.get(1, 0), C64::ZERO);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatePanel {
    dim: usize,
    width: usize,
    data: Vec<f64>,
}

impl StatePanel {
    /// A `dim × width` panel of `+0.0` entries.
    pub fn zeros(dim: usize, width: usize) -> Self {
        let mut panel = StatePanel::default();
        panel.reset(dim, width);
        panel
    }

    /// Reshapes to `dim × width` with every entry `+0.0`, keeping the
    /// allocation once it has grown to that size.
    pub fn reset(&mut self, dim: usize, width: usize) {
        self.dim = dim;
        self.width = width;
        self.data.clear();
        self.data.resize(2 * dim * width, 0.0);
    }

    /// Number of ports (rows of complex entries).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of columns `q`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The entry of column `lane` on `port`.
    ///
    /// # Panics
    ///
    /// Panics when `port` or `lane` is out of range.
    pub fn get(&self, port: usize, lane: usize) -> C64 {
        assert!(
            port < self.dim && lane < self.width,
            "panel index out of range"
        );
        let row = 2 * port * self.width;
        C64::new(self.data[row + lane], self.data[row + self.width + lane])
    }

    /// Sets the entry of column `lane` on `port`.
    ///
    /// # Panics
    ///
    /// Panics when `port` or `lane` is out of range.
    pub fn set(&mut self, port: usize, lane: usize, value: C64) {
        assert!(
            port < self.dim && lane < self.width,
            "panel index out of range"
        );
        let row = 2 * port * self.width;
        self.data[row + lane] = value.re;
        self.data[row + self.width + lane] = value.im;
    }

    /// Copies column `lane` into `out`, resized to `dim`.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn column_into(&self, lane: usize, out: &mut CVector) {
        out.resize_zeroed(self.dim);
        for (port, v) in out.iter_mut().enumerate() {
            *v = self.get(port, lane);
        }
    }

    /// Overwrites column `lane` with `values`.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range or `values.len() != dim`.
    pub fn set_column(&mut self, lane: usize, values: &CVector) {
        assert_eq!(values.len(), self.dim, "column length mismatch");
        for (port, &v) in values.iter().enumerate() {
            self.set(port, lane, v);
        }
    }

    /// Replaces every column's entry on `port` by `f(column, entry)`.
    #[inline(always)]
    pub(crate) fn map_port(&mut self, port: usize, mut f: impl FnMut(usize, C64) -> C64) {
        let q = self.width;
        let (re, im) = self.data[2 * port * q..][..2 * q].split_at_mut(q);
        for (c, (r, i)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            let v = f(c, C64::new(*r, *i));
            (*r, *i) = (v.re, v.im);
        }
    }

    /// Replaces every column's entries on ports `port` and `port + 1` by
    /// `f(column, upper entry, lower entry)`.
    #[inline(always)]
    pub(crate) fn map_pair(
        &mut self,
        port: usize,
        mut f: impl FnMut(usize, C64, C64) -> (C64, C64),
    ) {
        let q = self.width;
        let (upper, lower) = self.data[2 * port * q..][..4 * q].split_at_mut(2 * q);
        let (are, aim) = upper.split_at_mut(q);
        let (bre, bim) = lower.split_at_mut(q);
        let lanes = are
            .iter_mut()
            .zip(aim.iter_mut())
            .zip(bre.iter_mut().zip(bim.iter_mut()));
        for (c, ((ar, ai), (br, bi))) in lanes.enumerate() {
            let (a, b) = f(c, C64::new(*ar, *ai), C64::new(*br, *bi));
            (*ar, *ai, *br, *bi) = (a.re, a.im, b.re, b.im);
        }
    }
}
