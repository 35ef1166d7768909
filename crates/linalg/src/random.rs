//! Random vectors, matrices and Haar-distributed unitaries.
//!
//! All generators take an explicit `&mut impl Rng`; nothing in this crate
//! ever touches global RNG state, so every experiment is reproducible from a
//! seed.

use rand::Rng;

use crate::c64::C64;
use crate::cholesky::RCholesky;
use crate::cmatrix::CMatrix;
use crate::cvector::CVector;
use crate::error::Result;
use crate::qr::CQr;
use crate::rvector::RVector;

/// Draws one standard-normal sample via the Box-Muller transform.
///
/// `rand` 0.8 does not bundle a normal distribution (that lives in
/// `rand_distr`, which is outside the approved dependency set), so the crate
/// carries its own tiny implementation.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use photon_linalg::random::standard_normal;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = standard_normal(&mut rng);
/// assert!(x.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box-Muller; u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Real vector with i.i.d. `N(0, 1)` entries.
pub fn normal_rvector<R: Rng + ?Sized>(n: usize, rng: &mut R) -> RVector {
    RVector::from_fn(n, |_| standard_normal(rng))
}

/// Complex vector with i.i.d. standard complex normal entries
/// (`E[|z|²] = 1`, real and imaginary parts each `N(0, 1/2)`).
pub fn normal_cvector<R: Rng + ?Sized>(n: usize, rng: &mut R) -> CVector {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    CVector::from_fn(n, |_| {
        C64::new(standard_normal(rng) * s, standard_normal(rng) * s)
    })
}

/// Complex Ginibre matrix: i.i.d. standard complex normal entries.
pub fn ginibre<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> CMatrix {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    CMatrix::from_fn(rows, cols, |_, _| {
        C64::new(standard_normal(rng) * s, standard_normal(rng) * s)
    })
}

/// Haar-distributed random `n × n` unitary matrix.
///
/// Implements the Mezzadri construction: QR-factorize a Ginibre matrix and
/// fix the phase ambiguity by normalizing with the phases of `diag(R)`, which
/// makes the distribution exactly Haar.
///
/// # Errors
///
/// [`crate::LinalgError::InvalidArgument`] when `n == 0`.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use photon_linalg::random::haar_unitary;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let u = haar_unitary(4, &mut rng)?;
/// assert!(u.is_unitary(1e-10));
/// # Ok::<(), photon_linalg::LinalgError>(())
/// ```
pub fn haar_unitary<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Result<CMatrix> {
    let g = ginibre(n, n, rng);
    let (q, r) = CQr::new(&g)?.into_parts();
    // Λ = diag(r_ii / |r_ii|); U = Q·Λ has Haar distribution.
    let mut u = q;
    for c in 0..n {
        let d = r[(c, c)];
        let phase = if d.abs() < f64::EPSILON {
            C64::ONE
        } else {
            d / d.abs()
        };
        for row in 0..n {
            u[(row, c)] *= phase;
        }
    }
    Ok(u)
}

/// Random unit-norm complex vector (uniform on the complex sphere).
pub fn random_unit_cvector<R: Rng + ?Sized>(n: usize, rng: &mut R) -> CVector {
    loop {
        let v = normal_cvector(n, rng);
        if let Ok(u) = v.normalized() {
            return u;
        }
    }
}

/// Samples `N(0, Σ)` given a pre-computed Cholesky factorization of Σ.
///
/// # Errors
///
/// Propagates shape errors from the factor application.
pub fn sample_gaussian<R: Rng + ?Sized>(chol: &RCholesky, rng: &mut R) -> Result<RVector> {
    let r = normal_rvector(chol.dim(), rng);
    chol.sample_from_standard(&r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmatrix::RMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let v = normal_rvector(n, &mut rng);
        let mean = v.mean();
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn complex_normal_power() {
        let mut rng = StdRng::seed_from_u64(1);
        let v = normal_cvector(10_000, &mut rng);
        let avg_power = v.norm_sqr() / 10_000.0;
        assert!((avg_power - 1.0).abs() < 0.05, "power {avg_power}");
    }

    #[test]
    fn haar_unitary_is_unitary() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1, 2, 5, 8] {
            let u = haar_unitary(n, &mut rng).unwrap();
            assert!(u.is_unitary(1e-9), "n={n}");
        }
        assert!(haar_unitary(0, &mut rng).is_err());
    }

    #[test]
    fn haar_preserves_norm() {
        let mut rng = StdRng::seed_from_u64(4);
        let u = haar_unitary(6, &mut rng).unwrap();
        let x = normal_cvector(6, &mut rng);
        let y = u.mul_vec(&x).unwrap();
        assert!((y.norm() - x.norm()).abs() < 1e-10);
    }

    #[test]
    fn seeded_generators_are_reproducible() {
        let a = {
            let mut rng = StdRng::seed_from_u64(99);
            haar_unitary(4, &mut rng).unwrap()
        };
        let b = {
            let mut rng = StdRng::seed_from_u64(99);
            haar_unitary(4, &mut rng).unwrap()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn unit_vector_is_unit() {
        let mut rng = StdRng::seed_from_u64(5);
        let v = random_unit_cvector(7, &mut rng);
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn covariance_sampling_matches_target() {
        // Empirical covariance of L·r should approach Σ.
        let sigma = RMatrix::from_rows(&[vec![2.0, 0.8], vec![0.8, 1.0]]);
        let chol = RCholesky::new(&sigma).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let n = 40_000;
        let mut acc = RMatrix::zeros(2, 2);
        for _ in 0..n {
            let s = sample_gaussian(&chol, &mut rng).unwrap();
            acc.axpy(1.0 / n as f64, &RMatrix::outer(&s, &s));
        }
        assert!((&acc - &sigma).max_abs() < 0.07, "emp cov {acc}");
    }
}
