//! Dense real vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use crate::error::{LinalgError, Result};

/// A dense, heap-allocated real (`f64`) vector.
///
/// Parameter vectors θ, gradients, perturbation directions and detector
/// powers are all `RVector`s.
///
/// # Examples
///
/// ```
/// use photon_linalg::RVector;
///
/// let g = RVector::from_slice(&[3.0, 4.0]);
/// assert!((g.norm() - 5.0).abs() < 1e-12);
/// assert_eq!(g.dot(&g).unwrap(), 25.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RVector {
    data: Vec<f64>,
}

impl RVector {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        RVector { data: vec![0.0; n] }
    }

    /// Creates a vector of ones of length `n`.
    pub fn ones(n: usize) -> Self {
        RVector { data: vec![1.0; n] }
    }

    /// Creates a vector by evaluating `f` at each index.
    pub fn from_fn<F: FnMut(usize) -> f64>(n: usize, f: F) -> Self {
        RVector {
            data: (0..n).map(f).collect(),
        }
    }

    /// Copies a slice.
    pub fn from_slice(xs: &[f64]) -> Self {
        RVector { data: xs.to_vec() }
    }

    /// Wraps an existing buffer.
    pub fn from_vec(data: Vec<f64>) -> Self {
        RVector { data }
    }

    /// Standard basis vector `e_i` of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn basis(n: usize, i: usize) -> Self {
        assert!(i < n, "basis index {i} out of range for length {n}");
        let mut v = RVector::zeros(n);
        v.data[i] = 1.0;
        v
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the vector has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns its storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Overwrites this vector with the contents of `src`, reusing the
    /// existing allocation whenever `src` fits in the current capacity.
    ///
    /// Buffer-reuse primitive of the zero-allocation forward paths: in
    /// steady state (same length every call) it performs no heap allocation.
    pub fn copy_from(&mut self, src: &RVector) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Sets every element to `value` without changing the length.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Resizes to length `n`, zero-filling and reusing the allocation when
    /// possible.
    pub fn resize_zeroed(&mut self, n: usize) {
        self.data.clear();
        self.data.resize(n, 0.0);
    }

    /// Iterator over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Mutable iterator over elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Inner product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when lengths differ.
    pub fn dot(&self, other: &RVector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("length {}", self.len()),
                found: format!("length {}", other.len()),
            });
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum())
    }

    /// Squared Euclidean norm.
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean, or 0 for the empty vector.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum element, or `-inf` for the empty vector.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum element, or `+inf` for the empty vector.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Index of the maximum element, or `None` for the empty vector.
    /// Ties resolve to the lowest index.
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for i in 1..self.data.len() {
            if self.data[i] > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Maximum absolute element, or 0 for the empty vector.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).fold(0.0, f64::max)
    }

    /// Scales every element.
    pub fn scale(&self, s: f64) -> RVector {
        RVector {
            data: self.data.iter().map(|&x| x * s).collect(),
        }
    }

    /// In-place `self += alpha · other`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &RVector) {
        assert_eq!(self.len(), other.len(), "axpy length mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Extracts `self[start..start+len]` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn subvector(&self, start: usize, len: usize) -> RVector {
        RVector {
            data: self.data[start..start + len].to_vec(),
        }
    }

    /// Overwrites `self[start..start+other.len()]` with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn set_subvector(&mut self, start: usize, other: &RVector) {
        self.data[start..start + other.len()].copy_from_slice(&other.data);
    }
}

impl Index<usize> for RVector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for RVector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl fmt::Display for RVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<f64> for RVector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        RVector {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for RVector {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl From<Vec<f64>> for RVector {
    fn from(data: Vec<f64>) -> Self {
        RVector { data }
    }
}

impl<'a> IntoIterator for &'a RVector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for RVector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

macro_rules! relementwise_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&RVector> for &RVector {
            type Output = RVector;
            fn $method(self, rhs: &RVector) -> RVector {
                assert_eq!(self.len(), rhs.len(), "vector length mismatch");
                RVector {
                    data: self
                        .data
                        .iter()
                        .zip(&rhs.data)
                        .map(|(a, b)| *a $op *b)
                        .collect(),
                }
            }
        }

        impl $trait<RVector> for RVector {
            type Output = RVector;
            fn $method(self, rhs: RVector) -> RVector {
                (&self).$method(&rhs)
            }
        }
    };
}

relementwise_binop!(Add, add, +);
relementwise_binop!(Sub, sub, -);

impl AddAssign<&RVector> for RVector {
    fn add_assign(&mut self, rhs: &RVector) {
        assert_eq!(self.len(), rhs.len(), "vector length mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
    }
}

impl SubAssign<&RVector> for RVector {
    fn sub_assign(&mut self, rhs: &RVector) {
        assert_eq!(self.len(), rhs.len(), "vector length mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= *b;
        }
    }
}

impl Mul<f64> for &RVector {
    type Output = RVector;
    fn mul(self, rhs: f64) -> RVector {
        self.scale(rhs)
    }
}

impl Neg for &RVector {
    type Output = RVector;
    fn neg(self) -> RVector {
        RVector {
            data: self.data.iter().map(|&x| -x).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        assert_eq!(RVector::zeros(3).sum(), 0.0);
        assert_eq!(RVector::ones(4).sum(), 4.0);
        let v = RVector::from_fn(3, |i| i as f64 * 2.0);
        assert_eq!(v[2], 4.0);
        assert_eq!(RVector::basis(3, 0)[0], 1.0);
    }

    #[test]
    fn stats() {
        let v = RVector::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(v.sum(), 2.0);
        assert!((v.mean() - 2.0 / 3.0).abs() < 1e-15);
        assert_eq!(v.max(), 3.0);
        assert_eq!(v.min(), -2.0);
        assert_eq!(v.argmax(), Some(2));
        assert_eq!(v.max_abs(), 3.0);
        assert_eq!(RVector::zeros(0).argmax(), None);
        assert_eq!(RVector::zeros(0).mean(), 0.0);
    }

    #[test]
    fn argmax_tie_breaks_low() {
        let v = RVector::from_slice(&[5.0, 5.0, 1.0]);
        assert_eq!(v.argmax(), Some(0));
    }

    #[test]
    fn dot_and_norm() {
        let a = RVector::from_slice(&[1.0, 2.0, 2.0]);
        assert_eq!(a.dot(&a).unwrap(), 9.0);
        assert_eq!(a.norm(), 3.0);
        assert!(a.dot(&RVector::zeros(2)).is_err());
    }

    #[test]
    fn arithmetic() {
        let a = RVector::from_slice(&[1.0, 2.0]);
        let b = RVector::from_slice(&[3.0, 4.0]);
        assert_eq!((&a + &b)[1], 6.0);
        assert_eq!((&b - &a)[0], 2.0);
        assert_eq!((&a * 2.0)[1], 4.0);
        assert_eq!((-&a)[0], -1.0);
        let mut c = a.clone();
        c.axpy(10.0, &b);
        assert_eq!(c[0], 31.0);
        c += &a;
        assert_eq!(c[0], 32.0);
        c -= &a;
        assert_eq!(c[0], 31.0);
    }

    #[test]
    fn subvector_ops() {
        let mut v = RVector::from_slice(&[0.0, 1.0, 2.0, 3.0]);
        let s = v.subvector(1, 2);
        assert_eq!(s.as_slice(), &[1.0, 2.0]);
        v.set_subvector(2, &RVector::from_slice(&[9.0, 9.0]));
        assert_eq!(v.as_slice(), &[0.0, 1.0, 9.0, 9.0]);
    }

    #[test]
    fn collect_and_iterate() {
        let v: RVector = (0..4).map(|i| i as f64).collect();
        assert_eq!(v.len(), 4);
        let doubled: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
        assert_eq!(doubled[3], 6.0);
        let mut w = RVector::zeros(0);
        w.extend(v.clone());
        assert_eq!(w, v);
    }
}
