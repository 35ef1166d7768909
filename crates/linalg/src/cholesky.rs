//! Cholesky factorization of symmetric / Hermitian positive-definite
//! matrices, plus covariance-shaped Gaussian sampling.

use crate::error::{LinalgError, Result};
use crate::rmatrix::RMatrix;
use crate::rvector::RVector;

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

impl RCholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for non-square input,
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn new(a: &RMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = RMatrix::zeros(n, n);
        for j in 0..n {
            // Rows up to j are final once row j takes its pivot; the rows
            // below receive column j.
            let (done, below) = l.as_mut_slice().split_at_mut((j + 1) * n);
            let lj = &mut done[j * n..(j + 1) * n];
            let mut d = a[(j, j)];
            for &v in &lj[..j] {
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite);
            }
            let dj = d.sqrt();
            lj[j] = dj;
            let lj = &lj[..j];
            // Four rows of column j at a time: four independent
            // subtraction chains, each in the one-row loop's order, hide
            // the add latency without changing a bit.
            let mut rows = below.chunks_exact_mut(n);
            let mut i = j + 1;
            while i + 4 <= n {
                let (r0, r1, r2, r3) = (
                    rows.next().expect("row in range"),
                    rows.next().expect("row in range"),
                    rows.next().expect("row in range"),
                    rows.next().expect("row in range"),
                );
                let mut s = [a[(i, j)], a[(i + 1, j)], a[(i + 2, j)], a[(i + 3, j)]];
                let (v0, v1, v2, v3) = (&r0[..j], &r1[..j], &r2[..j], &r3[..j]);
                for (k, &b) in lj.iter().enumerate() {
                    s[0] -= v0[k] * b;
                    s[1] -= v1[k] * b;
                    s[2] -= v2[k] * b;
                    s[3] -= v3[k] * b;
                }
                r0[j] = s[0] / dj;
                r1[j] = s[1] / dj;
                r2[j] = s[2] / dj;
                r3[j] = s[3] / dj;
                i += 4;
            }
            for (i, row) in (i..n).zip(rows) {
                let mut s = a[(i, j)];
                for (&v, &b) in row[..j].iter().zip(lj) {
                    s -= v * b;
                }
                row[j] = s / dj;
            }
        }
        Ok(RCholesky { l })
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
