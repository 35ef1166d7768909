//! Double-precision complex numbers.
//!
//! The crate ships its own complex type instead of depending on
//! `num-complex`: the photonic simulator needs only a small, fixed surface
//! (arithmetic, conjugation, polar forms) and keeping it local makes the
//! numeric stack fully auditable.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};


/// A complex number with `f64` real and imaginary parts.
///
/// `C64` is `Copy` and implements the full set of arithmetic operators,
/// including mixed `C64`/`f64` forms.
///
/// # Examples
///
/// ```
/// use photon_linalg::C64;
///
/// let a = C64::new(1.0, 2.0);
/// let b = C64::I;
/// assert_eq!(a * b, C64::new(-2.0, 1.0));
/// assert_eq!(a.conj(), C64::new(1.0, -2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// The additive identity, `0 + 0j`.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0j`.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1j`.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a purely real complex number.
    ///
    /// ```
    /// use photon_linalg::C64;
    /// assert_eq!(C64::from_real(3.0), C64::new(3.0, 0.0));
    /// ```
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r · e^{jφ}`.
    ///
    /// ```
    /// use photon_linalg::C64;
    /// let z = C64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z - C64::new(0.0, 2.0)).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, phi: f64) -> Self {
        C64 {
            re: r * phi.cos(),
            im: r * phi.sin(),
        }
    }

    /// Returns `e^{jφ}`, a unit-modulus phasor.
    ///
    /// This is the transfer function of an ideal phase shifter and appears
    /// throughout the photonic stage implementations.
    #[inline]
    pub fn cis(phi: f64) -> Self {
        C64 {
            re: phi.cos(),
            im: phi.sin(),
        }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared modulus `|z|²` — the optical *power* carried by an amplitude.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns NaN components when `z == 0`, matching IEEE float division.
    #[inline]
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        C64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        C64 {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Complex square root (principal branch).
    ///
    /// ```
    /// use photon_linalg::C64;
    /// let z = C64::new(-1.0, 0.0).sqrt();
    /// assert!((z - C64::I).abs() < 1e-12);
    /// ```
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let phi = self.arg();
        C64::from_polar(r.sqrt(), phi / 2.0)
    }

    /// Complex exponential `e^z`.
    pub fn exp(self) -> Self {
        C64::from_polar(self.re.exp(), self.im)
    }

    /// Returns `true` if either part is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns `true` if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        C64 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: C64) -> C64 {
        C64 {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        C64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w = z * w^-1 by definition
    fn div(self, rhs: C64) -> C64 {
        self * rhs.recip()
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Add<f64> for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: f64) -> C64 {
        C64 {
            re: self.re + rhs,
            im: self.im,
        }
    }
}

impl Sub<f64> for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: f64) -> C64 {
        C64 {
            re: self.re - rhs,
            im: self.im,
        }
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: f64) -> C64 {
        self.scale(rhs)
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline]
    fn div(self, rhs: f64) -> C64 {
        C64 {
            re: self.re / rhs,
            im: self.im / rhs,
        }
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        rhs.scale(self)
    }
}

impl Add<C64> for f64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        rhs + self
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: C64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl DivAssign for C64 {
    #[inline]
    fn div_assign(&mut self, rhs: C64) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: f64) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + b)
    }
}

impl Product for C64 {
    fn product<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ONE, |a, b| a * b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: C64, b: C64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn constructors_and_constants() {
        assert_eq!(C64::ZERO + C64::ONE, C64::ONE);
        assert_eq!(C64::I * C64::I, -C64::ONE);
        assert_eq!(C64::from(2.5), C64::new(2.5, 0.0));
        assert_eq!(C64::from_real(-1.0), C64::new(-1.0, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = C64::new(3.0, -4.0);
        let back = C64::from_polar(z.abs(), z.arg());
        assert!(close(z, back));
        assert!((z.abs() - 5.0).abs() < 1e-12);
        assert!((z.norm_sqr() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit_modulus() {
        for k in 0..32 {
            let phi = k as f64 * 0.3;
            assert!((C64::cis(phi).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn arithmetic_identities() {
        let a = C64::new(1.25, -0.5);
        let b = C64::new(-2.0, 3.5);
        assert!(close(a + b - b, a));
        assert!(close(a * b / b, a));
        assert!(close(a * a.recip(), C64::ONE));
        assert!(close(-(-a), a));
    }

    #[test]
    fn conjugation_rules() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(-0.5, 0.25);
        assert!(close((a * b).conj(), a.conj() * b.conj()));
        assert!(close((a + b).conj(), a.conj() + b.conj()));
        assert!(((a * a.conj()).re - a.norm_sqr()).abs() < 1e-12);
        assert!((a * a.conj()).im.abs() < 1e-15);
    }

    #[test]
    fn mixed_real_ops() {
        let a = C64::new(1.0, 2.0);
        assert_eq!(a * 2.0, C64::new(2.0, 4.0));
        assert_eq!(2.0 * a, C64::new(2.0, 4.0));
        assert_eq!(a + 1.0, C64::new(2.0, 2.0));
        assert_eq!(1.0 + a, C64::new(2.0, 2.0));
        assert_eq!(a - 1.0, C64::new(0.0, 2.0));
        assert_eq!(a / 2.0, C64::new(0.5, 1.0));
    }

    #[test]
    fn assign_ops() {
        let mut a = C64::new(1.0, 1.0);
        a += C64::ONE;
        assert_eq!(a, C64::new(2.0, 1.0));
        a -= C64::I;
        assert_eq!(a, C64::new(2.0, 0.0));
        a *= C64::I;
        assert_eq!(a, C64::new(0.0, 2.0));
        a /= C64::new(0.0, 2.0);
        assert!(close(a, C64::ONE));
        a *= 3.0;
        assert!(close(a, C64::new(3.0, 0.0)));
    }

    #[test]
    fn sqrt_and_exp() {
        let z = C64::new(0.0, 2.0);
        let s = z.sqrt();
        assert!(close(s * s, z));
        let e = C64::new(0.0, std::f64::consts::PI).exp();
        assert!(close(e, -C64::ONE));
    }

    #[test]
    fn sum_and_product() {
        let xs = [C64::ONE, C64::I, C64::new(2.0, 0.0)];
        let s: C64 = xs.iter().copied().sum();
        assert!(close(s, C64::new(3.0, 1.0)));
        let p: C64 = xs.iter().copied().product();
        assert!(close(p, C64::new(0.0, 2.0)));
    }

    #[test]
    fn nan_and_finite_checks() {
        assert!(C64::new(f64::NAN, 0.0).is_nan());
        assert!(!C64::ONE.is_nan());
        assert!(C64::ONE.is_finite());
        assert!(!C64::new(f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(C64::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(C64::new(1.0, -2.0).to_string(), "1-2j");
    }
}
