//! Dense complex matrices (row-major).

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::c64::C64;
use crate::cvector::CVector;
use crate::error::{LinalgError, Result};
use crate::rmatrix::RMatrix;

/// A dense, row-major complex matrix.
///
/// The transfer matrix of any photonic linear module is a `CMatrix`; module
/// Jacobians `∂y/∂θ` are `M×N` `CMatrix` values.
///
/// # Examples
///
/// ```
/// use photon_linalg::{C64, CMatrix, CVector};
///
/// let u = CMatrix::identity(2);
/// let x = CVector::from_real_slice(&[1.0, 2.0]);
/// let y = u.mul_vec(&x).unwrap();
/// assert_eq!(y, x);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl CMatrix {
    /// Creates a zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at each entry.
    pub fn from_fn<F: FnMut(usize, usize) -> C64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        CMatrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<C64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        CMatrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Creates a diagonal matrix from a vector of diagonal entries.
    pub fn from_diagonal(diag: &CVector) -> Self {
        let n = diag.len();
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = diag[i];
        }
        m
    }

    /// Wraps a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        CMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` for square matrices.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Row-major storage view.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable row-major storage view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[C64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [C64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows adjacent rows `r` and `r + 1` as two mutable slices — the
    /// operand shape of a 2×2 MZI rotation applied across all columns.
    ///
    /// # Panics
    ///
    /// Panics when `r + 1 >= self.rows()`.
    #[inline]
    pub fn rows_pair_mut(&mut self, r: usize) -> (&mut [C64], &mut [C64]) {
        assert!(r + 1 < self.rows, "row pair out of bounds");
        let cols = self.cols;
        let (head, tail) = self.data.split_at_mut((r + 1) * cols);
        (&mut head[r * cols..], &mut tail[..cols])
    }

    /// Reshapes to the `n × n` identity in place, reusing the allocation
    /// whenever it is large enough.
    pub fn reset_identity(&mut self, n: usize) {
        self.rows = n;
        self.cols = n;
        self.data.clear();
        self.data.resize(n * n, C64::ZERO);
        for i in 0..n {
            self.data[i * n + i] = C64::ONE;
        }
    }

    /// Extracts column `c` as a vector.
    pub fn col(&self, c: usize) -> CVector {
        CVector::from_fn(self.rows, |r| self[(r, c)])
    }

    /// Overwrites column `c` with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn set_col(&mut self, c: usize, v: &CVector) {
        assert_eq!(v.len(), self.rows, "column length mismatch");
        for r in 0..self.rows {
            self[(r, c)] = v[r];
        }
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &CVector) -> Result<CVector> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("length {}", x.len()),
            });
        }
        let mut y = CVector::zeros(self.rows);
        for r in 0..self.rows {
            let mut acc = C64::ZERO;
            let row = self.row(r);
            for (a, b) in row.iter().zip(x.iter()) {
                acc += *a * *b;
            }
            y[r] = acc;
        }
        Ok(y)
    }

    /// Matrix product `A·B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `self.cols() != rhs.rows()`.
    pub fn mul_mat(&self, rhs: &CMatrix) -> Result<CMatrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{} rows", self.cols),
                found: format!("{} rows", rhs.rows),
            });
        }
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == C64::ZERO {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = &mut out.data[r * rhs.cols..(r + 1) * rhs.cols];
                for c in 0..rhs.cols {
                    out_row[c] += a * rhs_row[c];
                }
            }
        }
        Ok(out)
    }

    /// Transpose (no conjugation).
    pub fn transpose(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Conjugate transpose `Aᴴ`.
    pub fn adjoint(&self) -> CMatrix {
        CMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Element-wise conjugate `A*`.
    pub fn conj(&self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, s: C64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Scales every entry by a real factor.
    pub fn scale_real(&self, s: f64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Trace of a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn trace(&self) -> Result<C64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Frobenius norm `√(Σ|aᵢⱼ|²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum entry modulus.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Checks `‖AᴴA − I‖_∞ ≤ tol`: whether the matrix is unitary to tolerance.
    ///
    /// Non-square matrices are never unitary.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let gram = match self.adjoint().mul_mat(self) {
            Ok(g) => g,
            Err(_) => return false,
        };
        let mut max_dev: f64 = 0.0;
        for r in 0..self.rows {
            for c in 0..self.cols {
                let expected = if r == c { C64::ONE } else { C64::ZERO };
                max_dev = max_dev.max((gram[(r, c)] - expected).abs());
            }
        }
        max_dev <= tol
    }

    /// Checks `‖A − Aᴴ‖_∞ ≤ tol`: whether the matrix is Hermitian.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in r..self.cols {
                if (self[(r, c)] - self[(c, r)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Hermitian Gram matrix `AᴴA` (size `cols × cols`).
    pub fn gram(&self) -> CMatrix {
        // A direct loop halves the work relative to adjoint().mul_mat(self)
        // by exploiting Hermitian symmetry.
        let n = self.cols;
        let mut g = CMatrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let mut acc = C64::ZERO;
                for r in 0..self.rows {
                    acc += self[(r, i)].conj() * self[(r, j)];
                }
                g[(i, j)] = acc;
                g[(j, i)] = acc.conj();
            }
        }
        g
    }

    /// Entry-wise real parts as an [`RMatrix`].
    pub fn re(&self) -> RMatrix {
        RMatrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)].re)
    }

    /// Entry-wise imaginary parts as an [`RMatrix`].
    pub fn im(&self) -> RMatrix {
        RMatrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)].im)
    }

    /// Outer product `x·yᴴ`.
    pub fn outer(x: &CVector, y: &CVector) -> CMatrix {
        CMatrix::from_fn(x.len(), y.len(), |r, c| x[r] * y[c].conj())
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:>20}", format!("{}", self[(r, c)]))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Add<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix shape mismatch");
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch. Use [`CMatrix::mul_mat`] for the
    /// fallible form.
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        self.mul_mat(rhs).expect("matrix dimension mismatch in `*`")
    }
}

impl Mul<&CVector> for &CMatrix {
    type Output = CVector;
    /// # Panics
    ///
    /// Panics on dimension mismatch. Use [`CMatrix::mul_vec`] for the
    /// fallible form.
    fn mul(self, rhs: &CVector) -> CVector {
        self.mul_vec(rhs).expect("matrix-vector dimension mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &CMatrix, b: &CMatrix, tol: f64) -> bool {
        a.shape() == b.shape() && (a - b).max_abs() < tol
    }

    #[test]
    fn identity_and_indexing() {
        let id = CMatrix::identity(3);
        assert!(id.is_square());
        assert_eq!(id[(1, 1)], C64::ONE);
        assert_eq!(id[(0, 2)], C64::ZERO);
        assert_eq!(id.shape(), (3, 3));
        assert_eq!(id.trace().unwrap(), C64::from_real(3.0));
    }

    #[test]
    fn from_rows_and_diag() {
        let m = CMatrix::from_rows(&[vec![C64::ONE, C64::I], vec![C64::ZERO, C64::from_real(2.0)]]);
        assert_eq!(m[(0, 1)], C64::I);
        let d = CMatrix::from_diagonal(&CVector::from_real_slice(&[1.0, 2.0]));
        assert_eq!(d[(1, 1)], C64::from_real(2.0));
        assert_eq!(d[(0, 1)], C64::ZERO);
    }

    #[test]
    fn matvec_matmat() {
        let a = CMatrix::from_fn(2, 3, |r, c| C64::from_real((r * 3 + c) as f64));
        let x = CVector::from_real_slice(&[1.0, 1.0, 1.0]);
        let y = a.mul_vec(&x).unwrap();
        assert_eq!(y[0], C64::from_real(3.0)); // 0+1+2
        assert_eq!(y[1], C64::from_real(12.0)); // 3+4+5

        let b = CMatrix::identity(3);
        let ab = a.mul_mat(&b).unwrap();
        assert!(approx(&ab, &a, 1e-14));

        assert!(a.mul_vec(&CVector::zeros(2)).is_err());
        assert!(a.mul_mat(&CMatrix::identity(2)).is_err());
    }

    #[test]
    fn adjoint_properties() {
        let a = CMatrix::from_fn(2, 3, |r, c| C64::new(r as f64, c as f64));
        let ah = a.adjoint();
        assert_eq!(ah.shape(), (3, 2));
        assert_eq!(ah[(2, 1)], a[(1, 2)].conj());
        // (Aᴴ)ᴴ = A
        assert!(approx(&ah.adjoint(), &a, 1e-15));
        // transpose + conj = adjoint
        assert!(approx(&a.transpose().conj(), &ah, 1e-15));
    }

    #[test]
    fn gram_matches_adjoint_product() {
        let a = CMatrix::from_fn(4, 3, |r, c| C64::new((r + c) as f64, (r * c) as f64 * 0.1));
        let g = a.gram();
        let g2 = a.adjoint().mul_mat(&a).unwrap();
        assert!(approx(&g, &g2, 1e-12));
        assert!(g.is_hermitian(1e-12));
    }

    #[test]
    fn unitary_checks() {
        // A 2x2 beam-splitter-like unitary.
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let u = CMatrix::from_rows(&[
            vec![C64::from_real(s), C64::new(0.0, s)],
            vec![C64::new(0.0, s), C64::from_real(s)],
        ]);
        assert!(u.is_unitary(1e-12));
        assert!(!CMatrix::zeros(2, 2).is_unitary(1e-12));
        assert!(!CMatrix::zeros(2, 3).is_unitary(1e-12));
    }

    #[test]
    fn hermitian_check() {
        let h = CMatrix::from_rows(&[
            vec![C64::from_real(1.0), C64::new(0.0, 1.0)],
            vec![C64::new(0.0, -1.0), C64::from_real(2.0)],
        ]);
        assert!(h.is_hermitian(1e-15));
        let nh = CMatrix::from_rows(&[
            vec![C64::from_real(1.0), C64::new(0.0, 1.0)],
            vec![C64::new(0.0, 1.0), C64::from_real(2.0)],
        ]);
        assert!(!nh.is_hermitian(1e-15));
    }

    #[test]
    fn columns_and_rows() {
        let mut m = CMatrix::zeros(2, 2);
        m.set_col(1, &CVector::from_real_slice(&[5.0, 6.0]));
        assert_eq!(m.col(1)[1], C64::from_real(6.0));
        assert_eq!(m.row(0)[1], C64::from_real(5.0));
    }

    #[test]
    fn outer_product() {
        let x = CVector::from_vec(vec![C64::ONE, C64::I]);
        let y = CVector::from_vec(vec![C64::I]);
        let o = CMatrix::outer(&x, &y);
        assert_eq!(o.shape(), (2, 1));
        assert_eq!(o[(0, 0)], C64::I.conj()); // 1 * conj(i) = -i
        assert_eq!(o[(1, 0)], C64::ONE); // i * conj(i) = 1
    }

    #[test]
    fn norms_and_scaling() {
        let m = CMatrix::from_rows(&[vec![C64::from_real(3.0), C64::from_real(4.0)]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.scale_real(2.0)[(0, 1)], C64::from_real(8.0));
        assert_eq!(m.scale(C64::I)[(0, 0)], C64::new(0.0, 3.0));
    }

    #[test]
    fn trace_requires_square() {
        assert!(CMatrix::zeros(2, 3).trace().is_err());
    }

    #[test]
    fn re_im_split() {
        let m = CMatrix::from_fn(2, 2, |r, c| C64::new(r as f64, c as f64));
        assert_eq!(m.re()[(1, 0)], 1.0);
        assert_eq!(m.im()[(0, 1)], 1.0);
    }
}
