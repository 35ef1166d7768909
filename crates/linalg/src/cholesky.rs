//! Cholesky factorization of symmetric / Hermitian positive-definite
//! matrices, plus covariance-shaped Gaussian sampling.

use crate::error::{LinalgError, Result};
use crate::kernel::{kernel_tier, syrk_band, KernelTier};
use crate::rmatrix::RMatrix;
use crate::rvector::RVector;

/// Columns per panel of the blocked factorization.
const PANEL: usize = 32;

/// Cholesky factorization `A = L·Lᵀ` of a real symmetric positive-definite
/// matrix.
///
/// The factor is the standard device for sampling `N(0, Σ)`: draw
/// `r ~ N(0, I)` and return `L·r`.
///
/// # Examples
///
/// ```
/// use photon_linalg::{RMatrix, RVector, RCholesky};
///
/// let a = RMatrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
/// let chol = RCholesky::new(&a)?;
/// let x = chol.solve(&RVector::from_slice(&[8.0, 7.0]))?;
/// let b = a.mul_vec(&x)?;
/// assert!((b[0] - 8.0).abs() < 1e-10 && (b[1] - 7.0).abs() < 1e-10);
/// # Ok::<(), photon_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RCholesky {
    l: RMatrix,
}

impl Default for RCholesky {
    /// The factor of the empty `0 × 0` matrix, whose storage
    /// [`RCholesky::refactor_shifted`] grows on first use.
    fn default() -> Self {
        RCholesky {
            l: RMatrix::zeros(0, 0),
        }
    }
}

impl RCholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read. `L[i][j]` is
    /// `(a[i][j] − Σ_k L[i][k]·L[j][k]) / L[j][j]` and `L[j][j]²` is
    /// `a[j][j] − Σ_k L[j][k]²`, subtracting in ascending `k`: the
    /// one-column loop's bits, on either kernel tier. Blocked and
    /// right-looking in the factor's storage, each 32-column panel is
    /// subtracted from the trailing triangle by [`RMatrix::gram`]'s tile.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for non-square input,
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn new(a: &RMatrix) -> Result<Self> {
        Self::new_shifted(a, 0.0)
    }

    /// Factorizes `a + shift·I` without forming it: [`RCholesky::new`] of
    /// `a` after [`RMatrix::add_diagonal`], bit for bit. (A zero shift
    /// changes only a `-0.0` pivot, which fails either way.)
    ///
    /// # Errors
    ///
    /// As [`RCholesky::new`].
    pub fn new_shifted(a: &RMatrix, shift: f64) -> Result<Self> {
        let mut chol = RCholesky::default();
        chol.refactor_shifted(a, shift)?;
        Ok(chol)
    }

    /// Factorizes `a + shift·I` into this factor's storage: the bits of
    /// [`RCholesky::new_shifted`], reusing the allocation (the factor
    /// starts from zeros either way). After an error the factor's contents
    /// are unspecified until the next successful call.
    ///
    /// # Errors
    ///
    /// As [`RCholesky::new`].
    pub fn refactor_shifted(&mut self, a: &RMatrix, shift: f64) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let l = &mut self.l;
        l.resize_zeroed(n, n);
        for i in 0..n {
            l.row_mut(i)[..i].copy_from_slice(&a.row(i)[..i]);
            l[(i, i)] = a[(i, i)] + shift;
        }
        let factored = if kernel_tier() == KernelTier::Avx2 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the AVX2 tier is only selected on hosts with AVX2.
            unsafe {
                factor_avx2(l.as_mut_slice(), n)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("the AVX2 tier is x86-64 only")
        } else {
            factor_lower(l.as_mut_slice(), n)
        };
        factored.map_err(|_| LinalgError::NotPositiveDefinite)
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    pub fn factor(&self) -> &RMatrix {
        &self.l
    }

    /// Solves `A·x = b` by two triangular solves.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `b.len() != self.dim()`.
    pub fn solve(&self, b: &RVector) -> Result<RVector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("length {n}"),
                found: format!("length {}", b.len()),
            });
        }
        // L·y = b
        let mut y = b.clone();
        for i in 0..n {
            let mut acc = y[i];
            for k in 0..i {
                acc -= self.l[(i, k)] * y[k];
            }
            y[i] = acc / self.l[(i, i)];
        }
        // Lᵀ·x = y
        for i in (0..n).rev() {
            let mut acc = y[i];
            for k in i + 1..n {
                acc -= self.l[(k, i)] * y[k];
            }
            y[i] = acc / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Maps a standard-normal draw `r ~ N(0, I)` to `L·r ~ N(0, A)`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `r.len() != self.dim()`.
    pub fn sample_from_standard(&self, r: &RVector) -> Result<RVector> {
        if r.len() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("length {}", self.dim()),
                found: format!("length {}", r.len()),
            });
        }
        let n = self.dim();
        let mut out = RVector::zeros(n);
        for i in 0..n {
            let mut acc = 0.0;
            for k in 0..=i {
                acc += self.l[(i, k)] * r[k];
            }
            out[i] = acc;
        }
        Ok(out)
    }

    /// Log-determinant of `A`, computed as `2·Σ log Lᵢᵢ`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Factors the lower triangle of the row-major `n × n` matrix `l` in place
/// and clears its strict upper triangle; `Err(j)` names the first pivot
/// that is not positive and finite. Within a panel each column takes its
/// pivot, is divided by it and subtracts its products from the panel's
/// later columns; then the panel, packed transposed, is subtracted from the
/// trailing triangle in bands of four rows, whose last tiles also write a
/// few upper entries that nothing reads before they are cleared.
#[inline(always)]
fn factor_lower(l: &mut [f64], n: usize) -> std::result::Result<(), usize> {
    let mut pack = vec![0.0; if n > PANEL { PANEL * n } else { 0 }];
    let mut col = [0.0; PANEL];
    for j0 in (0..n).step_by(PANEL) {
        let j1 = (j0 + PANEL).min(n);
        for j in j0..j1 {
            let d = l[j * n + j];
            if d <= 0.0 || !d.is_finite() {
                return Err(j);
            }
            let dj = d.sqrt();
            l[j * n + j] = dj;
            // Row i's entry of column j is final once divided; it scales
            // column j's products on the row's later panel entries.
            for (i, row) in l.chunks_exact_mut(n).enumerate().skip(j + 1) {
                let x = row[j] / dj;
                row[j] = x;
                if i < j1 {
                    col[i - j0] = x;
                }
                let end = (i + 1).min(j1);
                for (v, &c) in row[j + 1..end].iter_mut().zip(&col[j + 1 - j0..]) {
                    *v -= x * c;
                }
            }
        }
        if j1 == n {
            break;
        }
        let depth = j1 - j0;
        for (k, packed) in pack.chunks_exact_mut(n).take(depth).enumerate() {
            for (i, p) in packed.iter_mut().enumerate().skip(j1) {
                *p = l[i * n + j0 + k];
            }
        }
        let mut i0 = j1;
        while i0 + 4 <= n {
            syrk_band::<true, 4>(&pack, n, depth, l, i0, j1..i0 + 4);
            i0 += 4;
        }
        for i in i0..n {
            syrk_band::<true, 1>(&pack, n, depth, l, i, j1..i + 1);
        }
    }
    for i in 0..n {
        l[i * n + i + 1..(i + 1) * n].fill(0.0);
    }
    Ok(())
}

/// [`factor_lower`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn factor_avx2(l: &mut [f64], n: usize) -> std::result::Result<(), usize> {
    factor_lower(l, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> RMatrix {
        RMatrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, -0.25],
            vec![0.5, -0.25, 2.0],
        ])
    }

    /// A symmetric `n × n` matrix `B·Bᵀ/n + shift·I` of assorted
    /// magnitudes.
    fn sweep_spd(n: usize, shift: f64) -> RMatrix {
        let b = RMatrix::from_fn(n, n, |r, c| ((r * 13 + c * 5) as f64).sin());
        let mut a = b.transpose().gram().scale(1.0 / n.max(1) as f64);
        a.add_diagonal(shift);
        a
    }

    /// The one-column-at-a-time loop: the factor, or the first pivot that
    /// is not positive and finite.
    fn textbook(a: &RMatrix) -> std::result::Result<Vec<f64>, usize> {
        let n = a.rows();
        let mut l = vec![0.0; n * n];
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[j * n + k] * l[j * n + k];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(j);
            }
            let dj = d.sqrt();
            l[j * n + j] = dj;
            for i in j + 1..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                l[i * n + j] = s / dj;
            }
        }
        Ok(l)
    }

    /// Both bodies on the lower triangle of `a`.
    #[cfg(target_arch = "x86_64")]
    fn both_bodies(a: &RMatrix) -> [(Vec<f64>, std::result::Result<(), usize>); 2] {
        let n = a.rows();
        let lower = || {
            let mut l = vec![0.0; n * n];
            for i in 0..n {
                l[i * n..i * n + i + 1].copy_from_slice(&a.row(i)[..=i]);
            }
            l
        };
        let (mut portable, mut avx2) = (lower(), lower());
        let p = factor_lower(&mut portable, n);
        // SAFETY: callers check for AVX2 first.
        let v = unsafe { factor_avx2(&mut avx2, n) };
        [(portable, p), (avx2, v)]
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_body_matches_portable_and_textbook_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for n in [0, 1, 2, 3, 4, 5, 7, 31, 32, 33, 36, 37, 63, 64, 65, 70, 101] {
            let a = sweep_spd(n, 0.5);
            let want = textbook(&a).expect("positive definite");
            for (l, result) in both_bodies(&a) {
                assert_eq!(result, Ok(()), "n = {n}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&l), bits(&want), "n = {n}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_body_fails_at_the_textbook_pivot() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // Positive definite but for one pivot past the first panels, which
        // a large subtraction makes negative; and a NaN pivot.
        for (n, bad) in [(70, 45), (101, 100), (9, 3)] {
            let mut a = sweep_spd(n, 0.5);
            a[(bad, bad)] = 1e-3;
            assert_eq!(textbook(&a).err(), Some(bad), "n = {n}");
            for (_, result) in both_bodies(&a) {
                assert_eq!(result, Err(bad), "n = {n}");
            }
            a[(bad, bad)] = f64::NAN;
            for (_, result) in both_bodies(&a) {
                assert_eq!(result, Err(bad), "n = {n}, NaN");
            }
        }
    }

    #[test]
    fn shifted_factor_matches_explicit_shift() {
        let a = sweep_spd(40, -0.05);
        let mut shifted = a.clone();
        shifted.add_diagonal(0.3);
        let want = RCholesky::new(&shifted).unwrap();
        let got = RCholesky::new_shifted(&a, 0.3).unwrap();
        assert_eq!(got.factor().as_slice(), want.factor().as_slice());
    }

    #[test]
    fn real_factor_reconstructs() {
        let a = spd3();
        let chol = RCholesky::new(&a).unwrap();
        let l = chol.factor();
        let recon = l.mul_mat(&l.transpose()).unwrap();
        assert!((&recon - &a).max_abs() < 1e-12);
    }

    #[test]
    fn real_solve_roundtrip() {
        let a = spd3();
        let chol = RCholesky::new(&a).unwrap();
        let x_true = RVector::from_slice(&[1.0, -2.0, 3.0]);
        let b = a.mul_vec(&x_true).unwrap();
        let x = chol.solve(&b).unwrap();
        assert!((&x - &x_true).max_abs() < 1e-10);
        assert!(chol.solve(&RVector::zeros(2)).is_err());
    }

    #[test]
    fn real_rejects_indefinite() {
        let a = RMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            RCholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
        assert!(RCholesky::new(&RMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn real_log_det_matches_lu() {
        let a = spd3();
        let chol = RCholesky::new(&a).unwrap();
        let det = a.det().unwrap();
        assert!((chol.log_det() - det.ln()).abs() < 1e-10);
    }

    #[test]
    fn sampling_covariance_shape() {
        // L·r with e_k recovers columns of L.
        let a = spd3();
        let chol = RCholesky::new(&a).unwrap();
        let e0 = RVector::basis(3, 0);
        let s = chol.sample_from_standard(&e0).unwrap();
        let l = chol.factor();
        assert!((s[0] - l[(0, 0)]).abs() < 1e-14);
        assert!((s[2] - l[(2, 0)]).abs() < 1e-14);
        assert!(chol.sample_from_standard(&RVector::zeros(2)).is_err());
    }
}
