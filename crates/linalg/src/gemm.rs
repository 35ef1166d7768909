//! Batched multi-RHS kernels: a packed `N×B` complex panel and the GEMM /
//! fused-rotation primitives that let one compiled mesh unitary be applied
//! to a whole mini-batch at once.
//!
//! The panel is **column-major**: column `b` (one sample's optical field)
//! is the contiguous slice `data[b*dim .. (b+1)*dim]`. The portable GEMM
//! pairs a contiguous row of the row-major [`CMatrix`] with a contiguous
//! panel column; the AVX2 GEMM computes four output rows at once from a
//! [`GemmMatrix`]'s transposed pack, broadcasting each panel entry.
//!
//! Determinism contract: every kernel in this module uses a fixed
//! per-element summation order that does not depend on blocking, panel
//! width, caller threading or kernel tier. Two calls with the same inputs
//! produce bitwise-identical outputs, which the worker-pool evaluation
//! layer relies on for pool-size invariance.

use crate::c64::C64;
use crate::cmatrix::CMatrix;
use crate::cvector::CVector;
use crate::kernel::{kernel_tier, KernelTier};

/// A packed `dim × batch` complex panel holding `batch` right-hand sides.
///
/// Column-major storage: column `b` is contiguous, so one sample's field is
/// a single slice. Buffers are reused across [`CPanel::resize`] calls so a
/// scratch panel allocates only on growth.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CPanel {
    dim: usize,
    batch: usize,
    data: Vec<C64>,
}

impl CPanel {
    /// Creates a zero-filled `dim × batch` panel.
    #[must_use]
    pub fn zeros(dim: usize, batch: usize) -> Self {
        Self {
            dim,
            batch,
            data: vec![C64::ZERO; dim * batch],
        }
    }

    /// Creates an empty panel; use [`CPanel::resize`] before filling it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reshapes to `dim × batch`, zero-filling the contents. Keeps the
    /// existing allocation whenever it is large enough.
    pub fn resize(&mut self, dim: usize, batch: usize) {
        self.dim = dim;
        self.batch = batch;
        self.data.clear();
        self.data.resize(dim * batch, C64::ZERO);
    }

    /// Number of rows (the optical dimension `N`).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of columns (the batch width `B`).
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Column `b` as a contiguous slice (one sample's field).
    ///
    /// # Panics
    ///
    /// Panics when `b >= self.batch()`.
    #[must_use]
    pub fn col(&self, b: usize) -> &[C64] {
        &self.data[b * self.dim..(b + 1) * self.dim]
    }

    /// Mutable column `b` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics when `b >= self.batch()`.
    pub fn col_mut(&mut self, b: usize) -> &mut [C64] {
        &mut self.data[b * self.dim..(b + 1) * self.dim]
    }

    /// Copies vector `v` into column `b`.
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != self.dim()` or `b >= self.batch()`.
    pub fn set_col(&mut self, b: usize, v: &CVector) {
        assert_eq!(v.len(), self.dim, "panel column length mismatch");
        self.col_mut(b).copy_from_slice(v.as_slice());
    }

    /// The whole panel as a flat column-major slice.
    #[must_use]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// The whole panel as a flat mutable column-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }
}

/// A complex matrix as [`gemm_into`] reads it: row-major for the portable
/// body, and a transposed re/im pack for the AVX2 body — rows in blocks of
/// four (the last zero-padded), each column of a block as its four real
/// then four imaginary parts. Only [`GemmMatrix::rebuild`] changes the
/// matrix, and it repacks, so packing is paid per rebuild, not per GEMM.
#[derive(Debug, Clone)]
pub struct GemmMatrix {
    matrix: CMatrix,
    pack: Vec<f64>,
}

impl GemmMatrix {
    /// Packs `matrix`.
    #[must_use]
    pub fn new(matrix: CMatrix) -> Self {
        let mut a = GemmMatrix {
            matrix,
            pack: Vec::new(),
        };
        a.repack();
        a
    }

    /// Changes the matrix in place through `f`, then repacks it.
    pub fn rebuild(&mut self, f: impl FnOnce(&mut CMatrix)) {
        f(&mut self.matrix);
        self.repack();
    }

    fn repack(&mut self) {
        let (m, n) = (self.matrix.rows(), self.matrix.cols());
        self.pack.clear();
        self.pack.resize(m.div_ceil(4) * 8 * n, 0.0);
        for r in 0..m {
            let base = r / 4 * 8 * n + r % 4;
            for (k, z) in self.matrix.row(r).iter().enumerate() {
                self.pack[base + 8 * k] = z.re;
                self.pack[base + 8 * k + 4] = z.im;
            }
        }
    }
}

/// 2×-unrolled complex dot product of two equal-length slices.
///
/// Two independent accumulators hide the multiply-add latency chain; the
/// split (evens into `acc0`, odds into `acc1`, combined once at the end) is
/// a fixed summation order, so the result is deterministic and independent
/// of any outer blocking.
/// The equal-length precondition is validated by the `gemm_into` shape
/// assert; per-element access is expressed through `chunks_exact`, whose
/// length guarantee lets the compiler elide bounds checks in the hot loop
/// (debug builds still verify the slice shapes below).
#[inline]
fn dot_unrolled(a: &[C64], x: &[C64]) -> C64 {
    debug_assert_eq!(a.len(), x.len());
    let n = a.len();
    let mut acc0 = C64::ZERO;
    let mut acc1 = C64::ZERO;
    for (pa, px) in a.chunks_exact(2).zip(x.chunks_exact(2)) {
        acc0 += pa[0] * px[0];
        acc1 += pa[1] * px[1];
    }
    if n % 2 == 1 {
        acc0 += a[n - 1] * x[n - 1];
    }
    acc0 + acc1
}

/// Multi-RHS complex GEMM: `y = a · x` with `x` and `y` packed panels.
/// Reshapes `y` to `a`'s row count × `x.batch()`.
///
/// Each output element is one row × column dot product in a fixed order —
/// even and odd terms in two accumulators, each product in `C64`'s `a · x`
/// operand order — so output values are bitwise-independent of how callers
/// partition the batch, and the AVX2 body (four output rows per vector,
/// read from the pack) gives the portable body's bits.
///
/// # Panics
///
/// Panics when `a`'s column count differs from `x.dim()`.
pub fn gemm_into(a: &GemmMatrix, x: &CPanel, y: &mut CPanel) {
    let (m, n) = (a.matrix.rows(), a.matrix.cols());
    assert_eq!(n, x.dim(), "gemm inner dimension mismatch");
    y.resize(m, x.batch());
    if n > 0 && kernel_tier() == KernelTier::Avx2 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the AVX2 tier is only selected on hosts with AVX2.
        unsafe {
            gemm_avx2(&a.pack, n, x, y);
        }
    } else {
        gemm_portable(&a.matrix, x, y);
    }
}

/// The portable body of [`gemm_into`], with `y` already shaped.
fn gemm_portable(a: &CMatrix, x: &CPanel, y: &mut CPanel) {
    for b in 0..x.batch() {
        let xc = x.col(b);
        for (r, out) in y.col_mut(b).iter_mut().enumerate() {
            *out = dot_unrolled(a.row(r), xc);
        }
    }
}

/// The AVX2 body of [`gemm_into`] over the pack of an `n`-column matrix,
/// with `y` already shaped: lane `l` of a block's accumulators is output
/// row `4·block + l`, and it takes exactly [`dot_unrolled`]'s operations.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(pack: &[f64], n: usize, x: &CPanel, y: &mut CPanel) {
    use std::arch::x86_64::*;
    for b in 0..x.batch() {
        let xc = x.col(b);
        for (a, out) in pack.chunks_exact(8 * n).zip(y.col_mut(b).chunks_mut(4)) {
            let (mut re0, mut im0) = (_mm256_setzero_pd(), _mm256_setzero_pd());
            let (mut re1, mut im1) = (re0, im0);
            for (ak, xk) in a.chunks_exact(16).zip(xc.chunks_exact(2)) {
                let (pr, pi) = mul4(&ak[..8], xk[0]);
                re0 = _mm256_add_pd(re0, pr);
                im0 = _mm256_add_pd(im0, pi);
                let (pr, pi) = mul4(&ak[8..], xk[1]);
                re1 = _mm256_add_pd(re1, pr);
                im1 = _mm256_add_pd(im1, pi);
            }
            if n % 2 == 1 {
                let (pr, pi) = mul4(&a[8 * (n - 1)..], xc[n - 1]);
                re0 = _mm256_add_pd(re0, pr);
                im0 = _mm256_add_pd(im0, pi);
            }
            let (mut re, mut im) = ([0.0; 4], [0.0; 4]);
            // SAFETY: each store writes the four f64 of a four-element array.
            unsafe {
                _mm256_storeu_pd(re.as_mut_ptr(), _mm256_add_pd(re0, re1));
                _mm256_storeu_pd(im.as_mut_ptr(), _mm256_add_pd(im0, im1));
            }
            for (o, (&re, &im)) in out.iter_mut().zip(re.iter().zip(&im)) {
                *o = C64::new(re, im);
            }
        }
    }
}

/// Four lanes of `C64`'s `a · x` for one packed column `a` (four real parts,
/// then four imaginary parts) and one `x`:
/// `(a.re·x.re − a.im·x.im, a.re·x.im + a.im·x.re)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn mul4(a: &[f64], x: C64) -> (std::arch::x86_64::__m256d, std::arch::x86_64::__m256d) {
    use std::arch::x86_64::*;
    let a = &a[..8];
    // SAFETY: `a` holds eight f64, the two four-lane loads read them.
    let (ar, ai) = unsafe {
        (
            _mm256_loadu_pd(a.as_ptr()),
            _mm256_loadu_pd(a[4..].as_ptr()),
        )
    };
    let (xr, xi) = (_mm256_set1_pd(x.re), _mm256_set1_pd(x.im));
    (
        _mm256_sub_pd(_mm256_mul_pd(ar, xr), _mm256_mul_pd(ai, xi)),
        _mm256_add_pd(_mm256_mul_pd(ar, xi), _mm256_mul_pd(ai, xr)),
    )
}

/// Scales every element of `row` by `f` — a phase-shifter applied across
/// all right-hand sides at once.
pub fn scale_slice(row: &mut [C64], f: C64) {
    for v in row.iter_mut() {
        *v = f * *v;
    }
}

/// Fused 2×2 MZI beam-splitter rotation applied across `B` right-hand
/// sides: for each column position `k`,
///
/// ```text
/// top[k] ← c·top[k] + i·s·bot[k]
/// bot[k] ← i·s·top[k] + c·bot[k]
/// ```
///
/// element for element the same arithmetic as the interpreted
/// single-sample op walk, so compiled and interpreted paths agree to
/// rounding.
///
/// # Panics
///
/// Panics when the slices differ in length.
pub fn mzi_rotate(top: &mut [C64], bot: &mut [C64], c: f64, s: f64) {
    assert_eq!(top.len(), bot.len(), "mzi_rotate slice length mismatch");
    for (t, b) in top.iter_mut().zip(bot.iter_mut()) {
        let a = *t;
        let d = *b;
        *t = a.scale(c) + C64::new(-s * d.im, s * d.re);
        *b = C64::new(-s * a.im, s * a.re) + d.scale(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> C64 {
        C64::new(re, im)
    }

    #[test]
    fn gemm_matches_mul_vec_per_column() {
        let a = CMatrix::from_fn(5, 5, |r, k| c((r * 5 + k) as f64 * 0.1, -(k as f64) * 0.3));
        let cols: Vec<CVector> = (0..7)
            .map(|b| CVector::from_fn(5, |k| c((b + k) as f64 * 0.2, (b as f64) - k as f64)))
            .collect();
        let mut x = CPanel::zeros(5, 7);
        for (b, v) in cols.iter().enumerate() {
            x.set_col(b, v);
        }
        let mut y = CPanel::new();
        gemm_into(&GemmMatrix::new(a.clone()), &x, &mut y);
        for (b, v) in cols.iter().enumerate() {
            let want = a.mul_vec(v).unwrap();
            for k in 0..5 {
                assert!((y.col(b)[k] - want[k]).abs() < 1e-12, "col {b} row {k}");
            }
        }
    }

    #[test]
    fn gemm_is_independent_of_batch_partition() {
        let a = GemmMatrix::new(CMatrix::from_fn(6, 6, |r, k| {
            c((r + 1) as f64 / (k + 2) as f64, 0.05 * k as f64)
        }));
        let mut wide = CPanel::zeros(6, 33);
        for b in 0..33 {
            for k in 0..6 {
                wide.col_mut(b)[k] = c((b * 6 + k) as f64 * 0.01, -(b as f64) * 0.02);
            }
        }
        let mut y_wide = CPanel::new();
        gemm_into(&a, &wide, &mut y_wide);
        // Re-run one column at a time; results must be bitwise identical.
        for b in 0..33 {
            let mut narrow = CPanel::zeros(6, 1);
            narrow.col_mut(0).copy_from_slice(wide.col(b));
            let mut y_narrow = CPanel::new();
            gemm_into(&a, &narrow, &mut y_narrow);
            assert_eq!(
                y_narrow.col(0),
                y_wide.col(b),
                "column {b} not bitwise equal"
            );
        }
    }

    /// An `m × n` matrix and an `n × batch` panel of assorted magnitudes
    /// and signs, signed zeros included.
    fn sweep_case(m: usize, n: usize, batch: usize) -> (GemmMatrix, CPanel) {
        let a = CMatrix::from_fn(m, n, |r, k| {
            let t = (r * 31 + k * 7) as f64;
            c(t.sin() * 10f64.powi((k % 5) as i32 - 2), -(t * 0.3).cos())
        });
        let mut x = CPanel::zeros(n, batch);
        for (i, z) in x.as_mut_slice().iter_mut().enumerate() {
            let t = i as f64 * 0.37;
            *z = if i % 11 == 3 {
                c(-0.0, 0.0)
            } else {
                c(t.cos(), (t * 1.7).sin() * 1e3)
            };
        }
        (GemmMatrix::new(a), x)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_body_matches_portable_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for m in (0..=11).chain([16, 17]) {
            for n in (1..=11).chain([16, 17]) {
                for batch in [1, 3] {
                    let (a, x) = sweep_case(m, n, batch);
                    let (mut want, mut got) = (CPanel::zeros(m, batch), CPanel::zeros(m, batch));
                    gemm_portable(&a.matrix, &x, &mut want);
                    // SAFETY: AVX2 was detected above.
                    unsafe { gemm_avx2(&a.pack, n, &x, &mut got) };
                    let bits = |p: &CPanel| -> Vec<[u64; 2]> {
                        p.as_slice()
                            .iter()
                            .map(|z| [z.re.to_bits(), z.im.to_bits()])
                            .collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "{m} x {n}, batch {batch}");
                }
            }
        }
    }

    #[test]
    fn rebuild_repacks() {
        let (mut a, x) = sweep_case(5, 3, 2);
        a.rebuild(|m| m.reset_identity(3));
        let mut y = CPanel::new();
        gemm_into(&a, &x, &mut y);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn mzi_rotate_preserves_power() {
        let mut top = vec![c(0.3, -0.4), c(1.0, 0.0), c(-0.2, 0.9)];
        let mut bot = vec![c(0.1, 0.7), c(0.0, -1.0), c(0.5, 0.5)];
        let before: f64 = top.iter().chain(bot.iter()).map(|z| z.norm_sqr()).sum();
        let phi = 0.37_f64;
        mzi_rotate(&mut top, &mut bot, phi.cos(), phi.sin());
        let after: f64 = top.iter().chain(bot.iter()).map(|z| z.norm_sqr()).sum();
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn panel_resize_reuses_and_zeroes() {
        let mut p = CPanel::zeros(4, 4);
        p.col_mut(2)[1] = c(3.0, 4.0);
        p.resize(3, 2);
        assert_eq!(p.dim(), 3);
        assert_eq!(p.batch(), 2);
        assert!(p.as_slice().iter().all(|z| *z == C64::ZERO));
    }
}
