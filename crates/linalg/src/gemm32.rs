//! Single-precision structure-of-arrays fast-path kernels.
//!
//! This is the opt-in f32 tier of the forward path: complex matrices and
//! panels are stored as split re/im planes ([`Matrix32`] row-major,
//! [`Panel32`] column-major), and [`gemm32_into`] multiplies them with a
//! runtime-dispatched microkernel — AVX2+FMA on x86-64, NEON on aarch64,
//! and a portable scalar loop that is the reference everywhere else.
//!
//! The kernel tier is detected once per process (see [`kernel_tier`]) and
//! can be forced to the scalar reference with `PHOTON_KERNEL=scalar`, which
//! is how CI exercises both paths. Within one process the tier is fixed, so
//! results remain pool-size deterministic; across tiers the results differ
//! only by f32 rounding, which the serving layer bounds at ≤1e-5 relative
//! loss error against the f64 oracle (see `DESIGN.md`).

use std::sync::OnceLock;

use crate::c64::C64;
use crate::gemm::CPanel;
use crate::cmatrix::CMatrix;

/// The SIMD capability tier selected for the f32 fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Portable scalar loop — the reference implementation.
    Scalar,
    /// 8-wide AVX2 + FMA on x86-64.
    Avx2Fma,
    /// 4-wide NEON on aarch64.
    Neon,
}

impl KernelTier {
    /// Stable lowercase name used in trace events and bench reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2Fma => "avx2-fma",
            KernelTier::Neon => "neon",
        }
    }
}

static TIER: OnceLock<KernelTier> = OnceLock::new();

/// Returns the kernel tier for this process, detecting it on first call.
///
/// Detection order: the `PHOTON_KERNEL=scalar` environment override wins,
/// then AVX2+FMA via `is_x86_feature_detected!`, then NEON (always present
/// on aarch64), then the scalar fallback. The result is cached in a
/// `OnceLock`, so every caller in the process sees the same tier.
pub fn kernel_tier() -> KernelTier {
    *TIER.get_or_init(detect_tier)
}

#[allow(unreachable_code)]
fn detect_tier() -> KernelTier {
    if std::env::var("PHOTON_KERNEL").as_deref() == Ok("scalar") {
        return KernelTier::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return KernelTier::Avx2Fma;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return KernelTier::Neon;
    }
    KernelTier::Scalar
}

/// A dense complex matrix in split-plane f32 form: `re` and `im` are each
/// row-major `rows × cols` planes, so one matrix row is two contiguous f32
/// slices — exactly what the 8-wide FMA inner loop wants to stream.
#[derive(Debug, Clone, Default)]
pub struct Matrix32 {
    rows: usize,
    cols: usize,
    re: Vec<f32>,
    im: Vec<f32>,
}

impl Matrix32 {
    /// Creates an empty matrix; fill it with [`Matrix32::copy_from_cmatrix`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Demotes a double-precision matrix into split f32 planes, reusing the
    /// existing allocation when large enough.
    pub fn copy_from_cmatrix(&mut self, a: &CMatrix) {
        self.rows = a.rows();
        self.cols = a.cols();
        let n = self.rows * self.cols;
        self.re.clear();
        self.im.clear();
        self.re.reserve(n);
        self.im.reserve(n);
        for z in a.as_slice() {
            self.re.push(z.re as f32);
            self.im.push(z.im as f32);
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` of the real plane as a contiguous slice.
    #[inline]
    #[must_use]
    pub fn row_re(&self, r: usize) -> &[f32] {
        &self.re[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` of the imaginary plane as a contiguous slice.
    #[inline]
    #[must_use]
    pub fn row_im(&self, r: usize) -> &[f32] {
        &self.im[r * self.cols..(r + 1) * self.cols]
    }
}

/// A packed `dim × batch` complex panel in split-plane f32 form. Like
/// [`CPanel`] it is column-major: column `b` of each plane is contiguous.
#[derive(Debug, Clone, Default)]
pub struct Panel32 {
    dim: usize,
    batch: usize,
    re: Vec<f32>,
    im: Vec<f32>,
}

impl Panel32 {
    /// Creates an empty panel; use [`Panel32::resize`] before filling it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reshapes to `dim × batch`, zero-filling. Reuses the allocation.
    pub fn resize(&mut self, dim: usize, batch: usize) {
        self.dim = dim;
        self.batch = batch;
        self.re.clear();
        self.im.clear();
        self.re.resize(dim * batch, 0.0);
        self.im.resize(dim * batch, 0.0);
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

    /// Column `b` of the real plane.
    #[inline]
    #[must_use]
    pub fn col_re(&self, b: usize) -> &[f32] {
        &self.re[b * self.dim..(b + 1) * self.dim]
    }

    /// Column `b` of the imaginary plane.
    #[inline]
    #[must_use]
    pub fn col_im(&self, b: usize) -> &[f32] {
        &self.im[b * self.dim..(b + 1) * self.dim]
    }

    /// Demotes one complex column into column `b` of the panel.
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != self.dim()` or `b >= self.batch()`.
    pub fn set_col_c64(&mut self, b: usize, v: &[C64]) {
        assert_eq!(v.len(), self.dim, "panel column length mismatch");
        let s = b * self.dim;
        for (k, z) in v.iter().enumerate() {
            self.re[s + k] = z.re as f32;
            self.im[s + k] = z.im as f32;
        }
    }

    /// Promotes column `b` back to complex doubles in `out`.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != self.dim()` or `b >= self.batch()`.
    pub fn col_to_c64(&self, b: usize, out: &mut [C64]) {
        assert_eq!(out.len(), self.dim, "panel column length mismatch");
        let s = b * self.dim;
        for (k, z) in out.iter_mut().enumerate() {
            *z = C64::new(f64::from(self.re[s + k]), f64::from(self.im[s + k]));
        }
    }

    /// Promotes this panel into an f64 panel.
    pub fn copy_to_cpanel(&self, p: &mut CPanel) {
        p.resize(self.dim, self.batch);
        for (k, z) in p.as_mut_slice().iter_mut().enumerate() {
            *z = C64::new(f64::from(self.re[k]), f64::from(self.im[k]));
        }
    }
}

/// Scalar reference for one complex dot product over split planes.
///
/// Slices are validated equal-length by the caller; the loop body is
/// written over `zip` iterators so the optimizer drops per-element bounds
/// checks without `unsafe`.
#[inline]
fn dot32_scalar(ar: &[f32], ai: &[f32], xr: &[f32], xi: &[f32]) -> (f32, f32) {
    debug_assert_eq!(ar.len(), xr.len());
    debug_assert_eq!(ai.len(), xi.len());
    let mut acc_re = 0.0f32;
    let mut acc_im = 0.0f32;
    for (((&wr, &wi), &vr), &vi) in ar.iter().zip(ai).zip(xr).zip(xi) {
        acc_re += wr * vr - wi * vi;
        acc_im += wr * vi + wi * vr;
    }
    (acc_re, acc_im)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot32_avx2(ar: &[f32], ai: &[f32], xr: &[f32], xi: &[f32]) -> (f32, f32) {
    use std::arch::x86_64::*;
    let n = ar.len();
    let mut vre = _mm256_setzero_ps();
    let mut vim = _mm256_setzero_ps();
    let mut k = 0;
    while k + 8 <= n {
        let wr = _mm256_loadu_ps(ar.as_ptr().add(k));
        let wi = _mm256_loadu_ps(ai.as_ptr().add(k));
        let vr = _mm256_loadu_ps(xr.as_ptr().add(k));
        let vi = _mm256_loadu_ps(xi.as_ptr().add(k));
        vre = _mm256_fmadd_ps(wr, vr, vre);
        vre = _mm256_fnmadd_ps(wi, vi, vre);
        vim = _mm256_fmadd_ps(wr, vi, vim);
        vim = _mm256_fmadd_ps(wi, vr, vim);
        k += 8;
    }
    let mut acc_re = hsum256(vre);
    let mut acc_im = hsum256(vim);
    while k < n {
        let (wr, wi, vr, vi) = (ar[k], ai[k], xr[k], xi[k]);
        acc_re += wr * vr - wi * vi;
        acc_im += wr * vi + wi * vr;
        k += 1;
    }
    (acc_re, acc_im)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum256(v: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps::<1>(v);
    let s = _mm_add_ps(lo, hi);
    let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
    _mm_cvtss_f32(s)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dot32_neon(ar: &[f32], ai: &[f32], xr: &[f32], xi: &[f32]) -> (f32, f32) {
    use std::arch::aarch64::*;
    let n = ar.len();
    let mut vre = vdupq_n_f32(0.0);
    let mut vim = vdupq_n_f32(0.0);
    let mut k = 0;
    while k + 4 <= n {
        let wr = vld1q_f32(ar.as_ptr().add(k));
        let wi = vld1q_f32(ai.as_ptr().add(k));
        let vr = vld1q_f32(xr.as_ptr().add(k));
        let vi = vld1q_f32(xi.as_ptr().add(k));
        vre = vfmaq_f32(vre, wr, vr);
        vre = vfmsq_f32(vre, wi, vi);
        vim = vfmaq_f32(vim, wr, vi);
        vim = vfmaq_f32(vim, wi, vr);
        k += 4;
    }
    let mut acc_re = vaddvq_f32(vre);
    let mut acc_im = vaddvq_f32(vim);
    while k < n {
        let (wr, wi, vr, vi) = (ar[k], ai[k], xr[k], xi[k]);
        acc_re += wr * vr - wi * vi;
        acc_im += wr * vi + wi * vr;
        k += 1;
    }
    (acc_re, acc_im)
}

/// Multi-RHS complex GEMM over split f32 planes: `y = a · x`, dispatched to
/// the process-wide [`kernel_tier`]. Reshapes `y` to `a.rows() × x.batch()`.
///
/// # Panics
///
/// Panics when `a.cols() != x.dim()`.
pub fn gemm32_into(a: &Matrix32, x: &Panel32, y: &mut Panel32) {
    assert_eq!(a.cols(), x.dim(), "gemm32 inner dimension mismatch");
    let tier = kernel_tier();
    let m = a.rows();
    let b_total = x.batch();
    y.resize(m, b_total);
    for b in 0..b_total {
        let xr = x.col_re(b);
        let xi = x.col_im(b);
        for r in 0..m {
            let (re, im) = match tier {
                KernelTier::Scalar => dot32_scalar(a.row_re(r), a.row_im(r), xr, xi),
                #[cfg(target_arch = "x86_64")]
                KernelTier::Avx2Fma => unsafe {
                    dot32_avx2(a.row_re(r), a.row_im(r), xr, xi)
                },
                #[cfg(target_arch = "aarch64")]
                KernelTier::Neon => unsafe { dot32_neon(a.row_re(r), a.row_im(r), xr, xi) },
                #[allow(unreachable_patterns)]
                _ => dot32_scalar(a.row_re(r), a.row_im(r), xr, xi),
            };
            let s = b * m;
            y.re[s + r] = re;
            y.im[s + r] = im;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_into;

    fn c(re: f64, im: f64) -> C64 {
        C64::new(re, im)
    }

    /// Demotes a whole f64 panel, column by column.
    fn demote(x: &CPanel) -> Panel32 {
        let mut x32 = Panel32::new();
        x32.resize(x.dim(), x.batch());
        for b in 0..x.batch() {
            x32.set_col_c64(b, x.col(b));
        }
        x32
    }

    fn dense_case(rows: usize, cols: usize, batch: usize) -> (CMatrix, CPanel) {
        let a = CMatrix::from_fn(rows, cols, |r, k| {
            c(
                ((r * cols + k) as f64).sin() * 0.5,
                ((r + 2 * k) as f64).cos() * 0.3,
            )
        });
        let mut x = CPanel::zeros(cols, batch);
        for b in 0..batch {
            for k in 0..cols {
                x.col_mut(b)[k] = c(
                    ((b * cols + k) as f64 * 0.7).cos(),
                    ((b + k) as f64 * 0.4).sin(),
                );
            }
        }
        (a, x)
    }

    #[test]
    fn gemm32_matches_f64_reference() {
        for &(rows, cols, batch) in &[(3usize, 3usize, 1usize), (8, 8, 5), (16, 16, 16), (7, 9, 3)]
        {
            let (a, x) = dense_case(rows, cols, batch);
            let mut y64 = CPanel::new();
            gemm_into(&a, &x, &mut y64);

            let mut a32 = Matrix32::new();
            a32.copy_from_cmatrix(&a);
            let x32 = demote(&x);
            let mut y32 = Panel32::new();
            gemm32_into(&a32, &x32, &mut y32);
            let mut y32p = CPanel::new();
            y32.copy_to_cpanel(&mut y32p);

            for b in 0..batch {
                for r in 0..rows {
                    let d = (y32p.col(b)[r] - y64.col(b)[r]).abs();
                    assert!(d < 1e-4, "({rows},{cols},{batch}) col {b} row {r}: {d}");
                }
            }
        }
    }

    #[test]
    fn dispatched_kernel_matches_scalar_reference() {
        let (a, x) = dense_case(16, 16, 9);
        let mut a32 = Matrix32::new();
        a32.copy_from_cmatrix(&a);
        let x32 = demote(&x);
        let mut y = Panel32::new();
        gemm32_into(&a32, &x32, &mut y);
        // Recompute with the portable scalar microkernel directly.
        for b in 0..x32.batch() {
            for r in 0..a32.rows() {
                let (re, im) =
                    dot32_scalar(a32.row_re(r), a32.row_im(r), x32.col_re(b), x32.col_im(b));
                let dr = (re - y.col_re(b)[r]).abs();
                let di = (im - y.col_im(b)[r]).abs();
                // SIMD lane-reduction order differs from the scalar loop, so
                // allow f32-rounding slack while requiring close agreement.
                assert!(dr < 1e-4 && di < 1e-4, "col {b} row {r}: {dr} {di}");
            }
        }
    }

    #[test]
    fn panel_roundtrip_and_resize() {
        let v = [c(0.5, -1.5), c(2.0, 0.25)];
        let mut p = Panel32::new();
        p.resize(2, 3);
        p.set_col_c64(1, &v);
        let mut out = [C64::ZERO; 2];
        p.col_to_c64(1, &mut out);
        assert_eq!(out[0], c(0.5, -1.5));
        assert_eq!(out[1], c(2.0, 0.25));
        p.resize(4, 1);
        assert!(p.col_re(0).iter().all(|&f| f == 0.0));
        assert!(p.col_im(0).iter().all(|&f| f == 0.0));
    }

    #[test]
    fn tier_name_is_stable() {
        let t = kernel_tier();
        assert!(["scalar", "avx2-fma", "neon"].contains(&t.name()));
        // Cached: second call returns the identical tier.
        assert_eq!(t, kernel_tier());
    }
}
