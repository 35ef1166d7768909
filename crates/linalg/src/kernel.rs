//! Runtime tier dispatch for the dense f64 kernels, and the register-tiled
//! symmetric rank-k update that [`RMatrix::gram`](crate::RMatrix::gram) and
//! [`RCholesky::new`](crate::RCholesky::new) share.
//!
//! Each kernel's AVX2 body computes its portable body's bits: every entry
//! takes the same operations in the same order, and the bodies enable
//! `avx2` only, never `fma`, so no multiply and add fuse into one rounding.

use std::sync::OnceLock;

/// The instruction-set tier the dense f64 kernels run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// The portable bodies, compiled for the target's baseline.
    Scalar,
    /// The same arithmetic four f64 lanes wide, on x86-64 hosts with AVX2.
    Avx2,
}

impl KernelTier {
    /// Stable lowercase name used in trace events and bench reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2 => "avx2",
        }
    }
}

static TIER: OnceLock<KernelTier> = OnceLock::new();

/// Returns the kernel tier for this process, detected once and cached: the
/// `PHOTON_KERNEL=scalar` override wins; otherwise an x86-64 host with AVX2
/// (`is_x86_feature_detected!`) runs the AVX2 bodies, any other the
/// portable ones.
pub fn kernel_tier() -> KernelTier {
    *TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if std::env::var("PHOTON_KERNEL").as_deref() != Ok("scalar")
            && std::arch::is_x86_feature_detected!("avx2")
        {
            return KernelTier::Avx2;
        }
        KernelTier::Scalar
    })
}

/// The symmetric rank-k update `out[i][j] ±= Σ_r p[r][i]·p[r][j]` (minus
/// when `SUB`) on rows `i0..i0 + I` and columns `js` of `out`, for the first
/// `depth` rows of `p`; both are row-major with `ld` columns. Each entry
/// takes its products one at a time in ascending `r` from its stored value,
/// so the bits are the textbook loop's whatever the tiling (`I × 8`, then
/// `I × 4`, then single columns) and however callers split `r`.
#[inline(always)]
pub(crate) fn syrk_band<const SUB: bool, const I: usize>(
    p: &[f64],
    ld: usize,
    depth: usize,
    out: &mut [f64],
    i0: usize,
    js: std::ops::Range<usize>,
) {
    let mut j = js.start;
    while j + 8 <= js.end {
        syrk_tile::<SUB, I, 8>(p, ld, depth, out, i0, j);
        j += 8;
    }
    if j + 4 <= js.end {
        syrk_tile::<SUB, I, 4>(p, ld, depth, out, i0, j);
        j += 4;
    }
    while j < js.end {
        syrk_tile::<SUB, I, 1>(p, ld, depth, out, i0, j);
        j += 1;
    }
}

/// The `I × J` register tile of [`syrk_band`] at `(i0, j0)`.
#[inline(always)]
fn syrk_tile<const SUB: bool, const I: usize, const J: usize>(
    p: &[f64],
    ld: usize,
    depth: usize,
    out: &mut [f64],
    i0: usize,
    j0: usize,
) {
    let mut acc = [[0.0f64; J]; I];
    for (ii, a) in acc.iter_mut().enumerate() {
        a.copy_from_slice(&out[(i0 + ii) * ld + j0..][..J]);
    }
    for row in p.chunks_exact(ld).take(depth) {
        let pi: &[f64; I] = row[i0..i0 + I].try_into().expect("tile rows in range");
        let pj: &[f64; J] = row[j0..j0 + J].try_into().expect("tile columns in range");
        for (a, &x) in acc.iter_mut().zip(pi) {
            for (v, &y) in a.iter_mut().zip(pj) {
                if SUB {
                    *v -= x * y;
                } else {
                    *v += x * y;
                }
            }
        }
    }
    for (ii, a) in acc.iter().enumerate() {
        out[(i0 + ii) * ld + j0..][..J].copy_from_slice(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_name_is_stable() {
        let t = kernel_tier();
        assert!(["scalar", "avx2"].contains(&t.name()));
        // Cached: second call returns the identical tier.
        assert_eq!(t, kernel_tier());
    }
}
