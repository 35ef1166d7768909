//! LU decomposition with partial pivoting, for real matrices.

use crate::error::{LinalgError, Result};
use crate::rmatrix::RMatrix;
use crate::rvector::RVector;

/// LU factorization `P·A = L·U` of a square real matrix.
///
/// # Examples
///
/// ```
/// use photon_linalg::{RMatrix, RVector, RLu};
///
/// let a = RMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
/// let x = RLu::new(&a)?.solve(&RVector::from_slice(&[3.0, 5.0]))?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok::<(), photon_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RLu {
    lu: RMatrix,
    pivots: Vec<usize>,
    sign_flips: usize,
}

impl RLu {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for non-square input,
    /// [`LinalgError::Singular`] when a pivot vanishes to working precision.
    pub fn new(a: &RMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut pivots = Vec::with_capacity(n);
        let mut sign_flips = 0;
        let scale = a.max_abs().max(1.0);

        for k in 0..n {
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for r in k + 1..n {
                let v = lu[(r, k)].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best <= f64::EPSILON * scale * n as f64 {
                return Err(LinalgError::Singular);
            }
            if p != k {
                for c in 0..n {
                    let tmp = lu[(k, c)];
                    lu[(k, c)] = lu[(p, c)];
                    lu[(p, c)] = tmp;
                }
                sign_flips += 1;
            }
            pivots.push(p);

            let pivot_inv = 1.0 / lu[(k, k)];
            for r in k + 1..n {
                let factor = lu[(r, k)] * pivot_inv;
                lu[(r, k)] = factor;
                for c in k + 1..n {
                    let sub = factor * lu[(k, c)];
                    lu[(r, c)] -= sub;
                }
            }
        }
        Ok(RLu {
            lu,
            pivots,
            sign_flips,
        })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
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
        let mut x = b.clone();
        for (k, &p) in self.pivots.iter().enumerate() {
            if p != k {
                x.as_mut_slice().swap(k, p);
            }
        }
        for r in 1..n {
            let mut acc = x[r];
            for c in 0..r {
                acc -= self.lu[(r, c)] * x[c];
            }
            x[r] = acc;
        }
        for r in (0..n).rev() {
            let mut acc = x[r];
            for c in r + 1..n {
                acc -= self.lu[(r, c)] * x[c];
            }
            x[r] = acc / self.lu[(r, r)];
        }
        Ok(x)
    }

    /// Solves `A·X = B` column by column.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `b.rows() != self.dim()`.
    pub fn solve_mat(&self, b: &RMatrix) -> Result<RMatrix> {
        if b.rows() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{} rows", self.dim()),
                found: format!("{} rows", b.rows()),
            });
        }
        let mut out = RMatrix::zeros(b.rows(), b.cols());
        for c in 0..b.cols() {
            let x = self.solve(&b.col(c))?;
            out.set_col(c, &x);
        }
        Ok(out)
    }

    /// Matrix inverse `A⁻¹`.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (shape errors cannot occur here).
    pub fn inverse(&self) -> Result<RMatrix> {
        self.solve_mat(&RMatrix::identity(self.dim()))
    }

    /// Determinant of the factorized matrix.
    pub fn det(&self) -> f64 {
        let mut d = if self.sign_flips.is_multiple_of(2) { 1.0 } else { -1.0 };
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

impl RMatrix {
    /// Computes the inverse via LU factorization.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] or [`LinalgError::Singular`].
    pub fn inverse(&self) -> Result<RMatrix> {
        RLu::new(self)?.inverse()
    }

    /// Solves `self·x = b` via LU factorization.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`], [`LinalgError::Singular`], or shape errors.
    pub fn solve(&self, b: &RVector) -> Result<RVector> {
        RLu::new(self)?.solve(b)
    }

    /// Determinant via LU factorization; zero for singular matrices.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for non-square matrices.
    pub fn det(&self) -> Result<f64> {
        match RLu::new(self) {
            Ok(lu) => Ok(lu.det()),
            Err(LinalgError::Singular) => Ok(0.0),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_solve_roundtrip() {
        let a = RMatrix::from_rows(&[
            vec![4.0, -2.0, 1.0],
            vec![-2.0, 4.0, -2.0],
            vec![1.0, -2.0, 4.0],
        ]);
        let x_true = RVector::from_slice(&[1.0, -2.0, 0.5]);
        let b = a.mul_vec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        assert!((&x - &x_true).max_abs() < 1e-10);
    }

    #[test]
    fn real_inverse() {
        let a = RMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let inv = a.inverse().unwrap();
        let prod = a.mul_mat(&inv).unwrap();
        assert!((&prod - &RMatrix::identity(2)).max_abs() < 1e-12);
    }

    #[test]
    fn real_det() {
        let a = RMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert!((a.det().unwrap() + 2.0).abs() < 1e-12);
        let sing = RMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(sing.det().unwrap(), 0.0);
        assert!(matches!(sing.inverse(), Err(LinalgError::Singular)));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = RMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&RVector::from_slice(&[2.0, 3.0])).unwrap();
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
        assert!((a.det().unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_square_rejected() {
        let a = RMatrix::zeros(2, 3);
        assert!(matches!(RLu::new(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn solve_mat_identity_is_inverse() {
        let a = RMatrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 2.0]]);
        let lu = RLu::new(&a).unwrap();
        let inv = lu.solve_mat(&RMatrix::identity(2)).unwrap();
        assert!((&inv - &lu.inverse().unwrap()).max_abs() < 1e-14);
        assert!(lu.solve_mat(&RMatrix::zeros(3, 1)).is_err());
        assert!(lu.solve(&RVector::zeros(3)).is_err());
    }

    #[test]
    fn larger_random_like_system() {
        // Deterministic pseudo-random entries via a simple LCG.
        let n = 12;
        let mut state = 0x12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a = RMatrix::from_fn(n, n, |r, c| next() + if r == c { 4.0 } else { 0.0 });
        let x_true = RVector::from_fn(n, |i| (i as f64 * 0.37).sin());
        let b = a.mul_vec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        assert!((&x - &x_true).max_abs() < 1e-9);
    }
}
