//! Dense real matrices (row-major).

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::error::{LinalgError, Result};
use crate::rvector::RVector;

/// Output rows [`RMatrix::gram`] accumulates per pass over the matrix: 16
/// rows of a 1 152-wide Gram are 147 KB, which stays in L2 while the rows
/// stream past.
const GRAM_BLOCK: usize = 16;

/// A dense, row-major real (`f64`) matrix.
///
/// Fisher information blocks, LCNG Gram matrices and CMA-ES covariances are
/// `RMatrix` values.
///
/// # Examples
///
/// ```
/// use photon_linalg::{RMatrix, RVector};
///
/// let a = RMatrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]);
/// let x = RVector::from_slice(&[1.0, 1.0]);
/// assert_eq!(a.mul_vec(&x).unwrap().as_slice(), &[2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl RMatrix {
    /// Creates a zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        RMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = RMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at each entry.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        RMatrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        RMatrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Creates a diagonal matrix from diagonal entries.
    pub fn from_diagonal(diag: &RVector) -> Self {
        let n = diag.len();
        let mut m = RMatrix::zeros(n, n);
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
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        RMatrix { rows, cols, data }
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
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major storage view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Extracts column `c` as a vector.
    pub fn col(&self, c: usize) -> RVector {
        RVector::from_fn(self.rows, |r| self[(r, c)])
    }

    /// Overwrites column `c` with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn set_col(&mut self, c: usize, v: &RVector) {
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
    pub fn mul_vec(&self, x: &RVector) -> Result<RVector> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {}", self.cols),
                found: format!("length {}", x.len()),
            });
        }
        let mut y = RVector::zeros(self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            y[r] = acc;
        }
        Ok(y)
    }

    /// Transposed matrix-vector product `Aᵀ·x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != self.rows()`.
    pub fn transpose_mul_vec(&self, x: &RVector) -> Result<RVector> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("vector of length {}", self.rows),
                found: format!("length {}", x.len()),
            });
        }
        let mut y = RVector::zeros(self.cols);
        for r in 0..self.rows {
            let xr = x[r];
            let row = self.row(r);
            for c in 0..self.cols {
                y[c] += row[c] * xr;
            }
        }
        Ok(y)
    }

    /// Matrix product `A·B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `self.cols() != rhs.rows()`.
    pub fn mul_mat(&self, rhs: &RMatrix) -> Result<RMatrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{} rows", self.cols),
                found: format!("{} rows", rhs.rows),
            });
        }
        let mut out = RMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
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

    /// Transpose.
    pub fn transpose(&self) -> RMatrix {
        RMatrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Scales every entry.
    pub fn scale(&self, s: f64) -> RMatrix {
        RMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * s).collect(),
        }
    }

    /// In-place `self += alpha · other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &RMatrix) {
        assert_eq!(self.shape(), other.shape(), "matrix shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Adds `alpha` to every diagonal entry (square only).
    ///
    /// # Panics
    ///
    /// Panics for non-square matrices.
    pub fn add_diagonal(&mut self, alpha: f64) {
        assert!(self.is_square(), "add_diagonal requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += alpha;
        }
    }

    /// Trace of a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    /// Checks `‖A − Aᵀ‖_∞ ≤ tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in r + 1..self.cols {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Symmetric Gram matrix `AᵀA` (size `cols × cols`).
    ///
    /// Entry `(i, j)` is `Σ_r A[r][i]·A[r][j]`, accumulated from `0.0` in
    /// ascending `r` — the textbook triple loop's order, bit for bit. The
    /// loop is blocked over output rows: each pass streams the rows of `A`
    /// once and adds their contributions to a block of 16 upper-triangle
    /// output rows, four rows of `A` per load of an output row. The inner loop runs over independent entries in contiguous
    /// memory (and vectorizes) instead of walking two columns of `A` at a
    /// row stride.
    pub fn gram(&self) -> RMatrix {
        let n = self.cols;
        let mut g = RMatrix::zeros(n, n);
        for i0 in (0..n).step_by(GRAM_BLOCK) {
            let block = i0..(i0 + GRAM_BLOCK).min(n);
            let mut quads = self.data.chunks_exact(4 * n);
            for quad in &mut quads {
                let rows: [&[f64]; 4] = std::array::from_fn(|q| &quad[q * n..(q + 1) * n]);
                for i in block.clone() {
                    let out = &mut g.data[i * n + i..(i + 1) * n];
                    let [x0, x1, x2, x3] = rows.map(|row| row[i]);
                    let [c0, c1, c2, c3] = rows.map(|row| &row[i..]);
                    // One add per row, in row order: each entry still
                    // accumulates its products one at a time, ascending r.
                    for (j, o) in out.iter_mut().enumerate() {
                        let mut v = *o;
                        v += x0 * c0[j];
                        v += x1 * c1[j];
                        v += x2 * c2[j];
                        v += x3 * c3[j];
                        *o = v;
                    }
                }
            }
            for row in quads.remainder().chunks_exact(n) {
                for i in block.clone() {
                    let a = row[i];
                    let out = &mut g.data[i * n + i..(i + 1) * n];
                    for (o, &b) in out.iter_mut().zip(&row[i..]) {
                        *o += a * b;
                    }
                }
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                g.data[j * n + i] = g.data[i * n + j];
            }
        }
        g
    }

    /// Outer product `x·yᵀ`.
    pub fn outer(x: &RVector, y: &RVector) -> RMatrix {
        RMatrix::from_fn(x.len(), y.len(), |r, c| x[r] * y[c])
    }

    /// Symmetrizes in place: `A ← (A + Aᵀ)/2`.
    ///
    /// # Panics
    ///
    /// Panics for non-square matrices.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        for r in 0..self.rows {
            for c in r + 1..self.cols {
                let avg = 0.5 * (self[(r, c)] + self[(c, r)]);
                self[(r, c)] = avg;
                self[(c, r)] = avg;
            }
        }
    }
}

impl Index<(usize, usize)> for RMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for RMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for RMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:>12.5}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Add<&RMatrix> for &RMatrix {
    type Output = RMatrix;
    fn add(self, rhs: &RMatrix) -> RMatrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix shape mismatch");
        RMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&RMatrix> for &RMatrix {
    type Output = RMatrix;
    fn sub(self, rhs: &RMatrix) -> RMatrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix shape mismatch");
        RMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<&RMatrix> for &RMatrix {
    type Output = RMatrix;
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch. Use [`RMatrix::mul_mat`] for the
    /// fallible form.
    fn mul(self, rhs: &RMatrix) -> RMatrix {
        self.mul_mat(rhs).expect("matrix dimension mismatch in `*`")
    }
}

impl Mul<&RVector> for &RMatrix {
    type Output = RVector;
    /// # Panics
    ///
    /// Panics on dimension mismatch. Use [`RMatrix::mul_vec`] for the
    /// fallible form.
    fn mul(self, rhs: &RVector) -> RVector {
        self.mul_vec(rhs).expect("matrix-vector dimension mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_trace() {
        let id = RMatrix::identity(4);
        assert_eq!(id.trace().unwrap(), 4.0);
        assert!(id.is_symmetric(0.0));
        assert!(RMatrix::zeros(2, 3).trace().is_err());
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let a = RMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let x = RVector::from_slice(&[1.0, 0.0, -1.0]);
        assert_eq!(a.mul_vec(&x).unwrap().as_slice(), &[-2.0, -2.0]);
        let y = RVector::from_slice(&[1.0, 1.0]);
        assert_eq!(
            a.transpose_mul_vec(&y).unwrap().as_slice(),
            &[5.0, 7.0, 9.0]
        );
        assert!(a.mul_vec(&RVector::zeros(2)).is_err());
        assert!(a.transpose_mul_vec(&RVector::zeros(3)).is_err());
    }

    #[test]
    fn matmul_assoc() {
        let a = RMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = RMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let c = RMatrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 2.0]]);
        let left = a.mul_mat(&b).unwrap().mul_mat(&c).unwrap();
        let right = a.mul_mat(&b.mul_mat(&c).unwrap()).unwrap();
        assert!((&left - &right).max_abs() < 1e-12);
        assert!(a.mul_mat(&RMatrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn gram_is_symmetric_psd_diag() {
        let a = RMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = a.gram();
        assert!(g.is_symmetric(1e-14));
        let g2 = a.transpose().mul_mat(&a).unwrap();
        assert!((&g - &g2).max_abs() < 1e-12);
        assert!(g[(0, 0)] >= 0.0 && g[(1, 1)] >= 0.0);
    }

    #[test]
    fn diagonal_helpers() {
        let mut m = RMatrix::from_diagonal(&RVector::from_slice(&[1.0, 2.0]));
        m.add_diagonal(0.5);
        assert_eq!(m[(0, 0)], 1.5);
        assert_eq!(m[(1, 1)], 2.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn symmetrize() {
        let mut m = RMatrix::from_rows(&[vec![1.0, 2.0], vec![4.0, 1.0]]);
        assert!(!m.is_symmetric(1e-12));
        m.symmetrize();
        assert!(m.is_symmetric(0.0));
        assert_eq!(m[(0, 1)], 3.0);
    }

    #[test]
    fn outer_and_axpy() {
        let x = RVector::from_slice(&[1.0, 2.0]);
        let y = RVector::from_slice(&[3.0, 4.0]);
        let o = RMatrix::outer(&x, &y);
        assert_eq!(o[(1, 0)], 6.0);
        let mut acc = RMatrix::zeros(2, 2);
        acc.axpy(2.0, &o);
        assert_eq!(acc[(1, 1)], 16.0);
    }

    #[test]
    fn columns() {
        let mut m = RMatrix::zeros(2, 3);
        m.set_col(2, &RVector::from_slice(&[7.0, 8.0]));
        assert_eq!(m.col(2).as_slice(), &[7.0, 8.0]);
        assert_eq!(m.row(1), &[0.0, 0.0, 8.0]);
    }

    #[test]
    fn norms() {
        let m = RMatrix::from_rows(&[vec![3.0, -4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.scale(0.5)[(0, 0)], 1.5);
    }
}
