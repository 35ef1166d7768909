//! Dense complex vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};


use crate::c64::C64;
use crate::error::{LinalgError, Result};
use crate::rvector::RVector;

/// A dense, heap-allocated complex vector.
///
/// `CVector` is the amplitude container of the photonic simulator: an optical
/// state on a `K`-port circuit is a `CVector` of length `K`.
///
/// # Examples
///
/// ```
/// use photon_linalg::{C64, CVector};
///
/// let x = CVector::from_fn(3, |i| C64::new(i as f64, 0.0));
/// assert_eq!(x.len(), 3);
/// assert_eq!(x[2], C64::new(2.0, 0.0));
/// assert!((x.norm() - 5.0f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CVector {
    data: Vec<C64>,
}

impl CVector {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        CVector {
            data: vec![C64::ZERO; n],
        }
    }

    /// Creates a vector by evaluating `f` at each index.
    pub fn from_fn<F: FnMut(usize) -> C64>(n: usize, f: F) -> Self {
        CVector {
            data: (0..n).map(f).collect(),
        }
    }

    /// Wraps an existing buffer.
    pub fn from_vec(data: Vec<C64>) -> Self {
        CVector { data }
    }

    /// Builds a complex vector from a slice of real values.
    pub fn from_real_slice(xs: &[f64]) -> Self {
        CVector {
            data: xs.iter().map(|&x| C64::from_real(x)).collect(),
        }
    }

    /// Standard basis vector `e_i` of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn basis(n: usize, i: usize) -> Self {
        assert!(i < n, "basis index {i} out of range for length {n}");
        let mut v = CVector::zeros(n);
        v.data[i] = C64::ONE;
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
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutable view of the underlying storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Consumes the vector and returns its storage.
    pub fn into_vec(self) -> Vec<C64> {
        self.data
    }

    /// Overwrites this vector with the contents of `src`, reusing the
    /// existing allocation whenever `src` fits in the current capacity.
    ///
    /// This is the buffer-reuse primitive of the zero-allocation forward
    /// paths: in steady state (same dimension every call) it performs no
    /// heap allocation.
    pub fn copy_from(&mut self, src: &CVector) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Overwrites this vector with the complex slice `src`, reusing the
    /// existing allocation when possible — the panel-column ↔ vector
    /// transfer primitive of the batched forward paths.
    pub fn copy_from_slice(&mut self, src: &[C64]) {
        self.data.clear();
        self.data.extend_from_slice(src);
    }

    /// Sets every element to `value` without changing the length.
    pub fn fill(&mut self, value: C64) {
        self.data.fill(value);
    }

    /// Resizes to length `n`, zero-filling and reusing the allocation when
    /// possible.
    pub fn resize_zeroed(&mut self, n: usize) {
        self.data.clear();
        self.data.resize(n, C64::ZERO);
    }

    /// Iterator over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, C64> {
        self.data.iter()
    }

    /// Mutable iterator over elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, C64> {
        self.data.iter_mut()
    }

    /// Hermitian inner product `⟨self, other⟩ = Σᵢ selfᵢ* · otherᵢ`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when lengths differ.
    pub fn dot(&self, other: &CVector) -> Result<C64> {
        if self.len() != other.len() {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("length {}", self.len()),
                found: format!("length {}", other.len()),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .fold(C64::ZERO, |acc, (a, b)| acc + a.conj() * *b))
    }

    /// Squared Euclidean norm `Σᵢ |selfᵢ|²` — total optical power.
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Per-element powers `|selfᵢ|²` as a real vector — what a photodetector
    /// array measures at the circuit output.
    pub fn powers(&self) -> RVector {
        RVector::from_vec(self.data.iter().map(|z| z.norm_sqr()).collect())
    }

    /// Element-wise conjugate.
    pub fn conj(&self) -> CVector {
        CVector {
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Scales every element by a complex factor.
    pub fn scale(&self, s: C64) -> CVector {
        CVector {
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Scales every element by a real factor.
    pub fn scale_real(&self, s: f64) -> CVector {
        CVector {
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// In-place `self += alpha · other` (complex axpy).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ; this is a hot-loop primitive and the caller
    /// is expected to have validated shapes.
    pub fn axpy(&mut self, alpha: C64, other: &CVector) {
        assert_eq!(self.len(), other.len(), "axpy length mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * *b;
        }
    }

    /// Returns a normalized copy (unit Euclidean norm).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] for the zero vector.
    pub fn normalized(&self) -> Result<CVector> {
        let n = self.norm();
        if n == 0.0 {
            return Err(LinalgError::InvalidArgument(
                "cannot normalize the zero vector".into(),
            ));
        }
        Ok(self.scale_real(1.0 / n))
    }

    /// Real parts as an [`RVector`].
    pub fn re(&self) -> RVector {
        RVector::from_vec(self.data.iter().map(|z| z.re).collect())
    }

    /// Imaginary parts as an [`RVector`].
    pub fn im(&self) -> RVector {
        RVector::from_vec(self.data.iter().map(|z| z.im).collect())
    }

    /// Maximum elementwise modulus, or 0 for the empty vector.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Extracts `self[start..start+len]` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn subvector(&self, start: usize, len: usize) -> CVector {
        CVector {
            data: self.data[start..start + len].to_vec(),
        }
    }
}

impl Index<usize> for CVector {
    type Output = C64;
    #[inline]
    fn index(&self, i: usize) -> &C64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for CVector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut C64 {
        &mut self.data[i]
    }
}

impl fmt::Display for CVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, z) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{z}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<C64> for CVector {
    fn from_iter<I: IntoIterator<Item = C64>>(iter: I) -> Self {
        CVector {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<C64> for CVector {
    fn extend<I: IntoIterator<Item = C64>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl From<Vec<C64>> for CVector {
    fn from(data: Vec<C64>) -> Self {
        CVector { data }
    }
}

impl<'a> IntoIterator for &'a CVector {
    type Item = &'a C64;
    type IntoIter = std::slice::Iter<'a, C64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for CVector {
    type Item = C64;
    type IntoIter = std::vec::IntoIter<C64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

macro_rules! elementwise_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&CVector> for &CVector {
            type Output = CVector;
            fn $method(self, rhs: &CVector) -> CVector {
                assert_eq!(self.len(), rhs.len(), "vector length mismatch");
                CVector {
                    data: self
                        .data
                        .iter()
                        .zip(&rhs.data)
                        .map(|(a, b)| *a $op *b)
                        .collect(),
                }
            }
        }

        impl $trait<CVector> for CVector {
            type Output = CVector;
            fn $method(self, rhs: CVector) -> CVector {
                (&self).$method(&rhs)
            }
        }
    };
}

elementwise_binop!(Add, add, +);
elementwise_binop!(Sub, sub, -);

impl AddAssign<&CVector> for CVector {
    fn add_assign(&mut self, rhs: &CVector) {
        assert_eq!(self.len(), rhs.len(), "vector length mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += *b;
        }
    }
}

impl SubAssign<&CVector> for CVector {
    fn sub_assign(&mut self, rhs: &CVector) {
        assert_eq!(self.len(), rhs.len(), "vector length mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= *b;
        }
    }
}

impl Mul<C64> for &CVector {
    type Output = CVector;
    fn mul(self, rhs: C64) -> CVector {
        self.scale(rhs)
    }
}

impl Mul<f64> for &CVector {
    type Output = CVector;
    fn mul(self, rhs: f64) -> CVector {
        self.scale_real(rhs)
    }
}

impl Neg for &CVector {
    type Output = CVector;
    fn neg(self) -> CVector {
        CVector {
            data: self.data.iter().map(|&z| -z).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let v = CVector::from_fn(4, |i| C64::new(i as f64, -(i as f64)));
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(v[3], C64::new(3.0, -3.0));
        let mut w = v.clone();
        w[0] = C64::ONE;
        assert_eq!(w[0], C64::ONE);
        assert!(CVector::zeros(0).is_empty());
    }

    #[test]
    fn basis_vectors() {
        let e1 = CVector::basis(3, 1);
        assert_eq!(e1[0], C64::ZERO);
        assert_eq!(e1[1], C64::ONE);
        assert_eq!(e1[2], C64::ZERO);
        assert!((e1.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        let _ = CVector::basis(2, 2);
    }

    #[test]
    fn hermitian_dot_is_conjugate_linear() {
        let a = CVector::from_vec(vec![C64::new(1.0, 1.0), C64::I]);
        let b = CVector::from_vec(vec![C64::ONE, C64::new(0.0, -2.0)]);
        let ab = a.dot(&b).unwrap();
        let ba = b.dot(&a).unwrap();
        assert!((ab - ba.conj()).abs() < 1e-12);
        // ⟨a, a⟩ = ‖a‖²
        let aa = a.dot(&a).unwrap();
        assert!((aa.re - a.norm_sqr()).abs() < 1e-12);
        assert!(aa.im.abs() < 1e-15);
    }

    #[test]
    fn dot_shape_mismatch_errors() {
        let a = CVector::zeros(2);
        let b = CVector::zeros(3);
        assert!(matches!(a.dot(&b), Err(LinalgError::ShapeMismatch { .. })));
    }

    #[test]
    fn powers_are_photodetector_readout() {
        let v = CVector::from_vec(vec![C64::new(3.0, 4.0), C64::I]);
        let p = v.powers();
        assert!((p[0] - 25.0).abs() < 1e-12);
        assert!((p[1] - 1.0).abs() < 1e-12);
        assert!((v.norm_sqr() - 26.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_axpy() {
        let a = CVector::from_real_slice(&[1.0, 2.0]);
        let b = CVector::from_real_slice(&[3.0, 5.0]);
        let s = &a + &b;
        assert_eq!(s[1], C64::from_real(7.0));
        let d = &b - &a;
        assert_eq!(d[0], C64::from_real(2.0));
        let mut c = a.clone();
        c.axpy(C64::from_real(2.0), &b);
        assert_eq!(c[0], C64::from_real(7.0));
        let n = -&a;
        assert_eq!(n[0], C64::from_real(-1.0));
        let mut acc = a.clone();
        acc += &b;
        assert_eq!(acc[1], C64::from_real(7.0));
        acc -= &b;
        assert_eq!(acc[1], C64::from_real(2.0));
    }

    #[test]
    fn normalize() {
        let v = CVector::from_vec(vec![C64::new(3.0, 0.0), C64::new(0.0, 4.0)]);
        let u = v.normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!(CVector::zeros(2).normalized().is_err());
    }

    #[test]
    fn re_im_split_roundtrip() {
        let v = CVector::from_vec(vec![C64::new(1.0, 2.0), C64::new(-3.0, 4.0)]);
        let re = v.re();
        let im = v.im();
        assert_eq!(re[1], -3.0);
        assert_eq!(im[1], 4.0);
    }

    #[test]
    fn iterators_and_collect() {
        let v: CVector = (0..3).map(|i| C64::from_real(i as f64)).collect();
        assert_eq!(v.len(), 3);
        let total: C64 = v.iter().copied().sum();
        assert_eq!(total, C64::from_real(3.0));
        let owned: Vec<C64> = v.clone().into_iter().collect();
        assert_eq!(owned.len(), 3);
        let mut w = CVector::zeros(0);
        w.extend(owned);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn subvector_and_max_abs() {
        let v = CVector::from_real_slice(&[1.0, -5.0, 2.0, 0.0]);
        let s = v.subvector(1, 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], C64::from_real(-5.0));
        assert!((v.max_abs() - 5.0).abs() < 1e-15);
        assert_eq!(CVector::zeros(0).max_abs(), 0.0);
    }
}
