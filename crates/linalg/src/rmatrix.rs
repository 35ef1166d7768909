//! Dense real matrices (row-major).

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::error::{LinalgError, Result};
use crate::kernel::{kernel_tier, syrk_band, KernelTier};
use crate::rvector::RVector;

/// Rows of `A` per pass of [`RMatrix::gram`], and output columns per sweep
/// of a pass: the 256 KB strip a sweep streams stays in L2.
const GRAM_ROWS: usize = 128;
const GRAM_COLS: usize = 256;

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

    /// Reshapes to `rows × cols` with every entry zero, reusing the
    /// allocation when possible.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Transpose.
    pub fn transpose(&self) -> RMatrix {
        let mut t = RMatrix::zeros(0, 0);
        self.transpose_into(&mut t);
        t
    }

    /// [`RMatrix::transpose`] into `out`, reshaped and reusing its
    /// allocation.
    pub fn transpose_into(&self, out: &mut RMatrix) {
        out.resize_zeroed(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
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
    /// ascending `r` — the textbook triple loop's order, bit for bit, on
    /// either kernel tier. The upper triangle is a register-tiled symmetric
    /// rank-k update over passes of 128 rows of `A`, each swept 256 output
    /// columns at a time and reloading the entries the last pass stored;
    /// the lower triangle is its mirror.
    pub fn gram(&self) -> RMatrix {
        let mut g = RMatrix::zeros(0, 0);
        self.gram_into(&mut g);
        g
    }

    /// [`RMatrix::gram`] into `out`, reshaped to `cols × cols` and zeroed
    /// first: the same bits, reusing `out`'s allocation.
    pub fn gram_into(&self, out: &mut RMatrix) {
        let n = self.cols;
        out.resize_zeroed(n, n);
        let g = &mut out.data;
        if kernel_tier() == KernelTier::Avx2 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the AVX2 tier is only selected on hosts with AVX2.
            unsafe {
                gram_avx2(&self.data, n, g);
            }
        } else {
            gram_upper(&self.data, n, g);
        }
        for i in 0..n {
            for j in i + 1..n {
                g[j * n + i] = g[i * n + j];
            }
        }
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

/// The upper triangle of `AᵀA` for the row-major `a` with `n` columns,
/// added into the zeroed `n × n` `g`: per column block, bands of four
/// output rows from the diagonal on. A band's first tile also fills a few
/// entries below the diagonal, with the values their mirrors get.
#[inline(always)]
fn gram_upper(a: &[f64], n: usize, g: &mut [f64]) {
    for pass in a.chunks((GRAM_ROWS * n).max(1)) {
        let depth = pass.len() / n;
        for j0 in (0..n).step_by(GRAM_COLS) {
            let j1 = (j0 + GRAM_COLS).min(n);
            let mut i0 = 0;
            while i0 + 4 <= n && i0 < j1 {
                syrk_band::<false, 4>(pass, n, depth, g, i0, i0.max(j0)..j1);
                i0 += 4;
            }
            for i in i0..j1 {
                syrk_band::<false, 1>(pass, n, depth, g, i, i.max(j0)..j1);
            }
        }
    }
}

/// [`gram_upper`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gram_avx2(a: &[f64], n: usize, g: &mut [f64]) {
    gram_upper(a, n, g);
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

    /// A `rows × cols` matrix of assorted magnitudes and signs.
    fn sweep_matrix(rows: usize, cols: usize) -> RMatrix {
        RMatrix::from_fn(rows, cols, |r, c| {
            let t = (r * 13 + c * 5) as f64;
            t.sin() * 10f64.powi((r + c) as i32 % 7 - 3)
        })
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gram_avx2_body_matches_portable_and_textbook_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let narrow = [0, 1, 5, 127, 128, 129, 261]
            .into_iter()
            .flat_map(|rows| [0, 1, 3, 4, 5, 8, 9, 12, 13, 14, 15, 17, 33].map(|c| (rows, c)));
        // Across the 256-column sweeps.
        let wide = [(1, 257), (129, 255), (129, 263)];
        for (rows, cols) in narrow.chain(wide) {
            let a = sweep_matrix(rows, cols);
            let mut want = vec![0.0; cols * cols];
            for i in 0..cols {
                for j in i..cols {
                    let mut acc = 0.0;
                    for r in 0..rows {
                        acc += a[(r, i)] * a[(r, j)];
                    }
                    want[i * cols + j] = acc;
                }
            }
            let (mut portable, mut avx2) = (vec![0.0; cols * cols], vec![0.0; cols * cols]);
            gram_upper(a.as_slice(), cols, &mut portable);
            // SAFETY: AVX2 was detected above.
            unsafe { gram_avx2(a.as_slice(), cols, &mut avx2) };
            for i in 0..cols {
                for j in i..cols {
                    let k = i * cols + j;
                    let shape = format!("{rows} x {cols} at ({i}, {j})");
                    assert_eq!(portable[k].to_bits(), want[k].to_bits(), "{shape}");
                    assert_eq!(avx2[k].to_bits(), want[k].to_bits(), "{shape}");
                }
            }
        }
    }

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
