//! Property-based tests of the algebraic identities `photon-linalg`
//! promises.

use proptest::prelude::*;

use photon_linalg::{
    hermitian_eig, symmetric_eig, CMatrix, CVector, LinalgError, RCholesky, RMatrix, RVector, C64,
};

fn arb_c64() -> impl Strategy<Value = C64> {
    (-2.0..2.0f64, -2.0..2.0f64).prop_map(|(re, im)| C64::new(re, im))
}

fn arb_cvec(n: usize) -> impl Strategy<Value = CVector> {
    proptest::collection::vec(arb_c64(), n).prop_map(CVector::from_vec)
}

fn arb_cmat(rows: usize, cols: usize) -> impl Strategy<Value = CMatrix> {
    proptest::collection::vec(arb_c64(), rows * cols)
        .prop_map(move |v| CMatrix::from_vec(rows, cols, v))
}

fn arb_rmat(rows: usize, cols: usize) -> impl Strategy<Value = RMatrix> {
    proptest::collection::vec(-2.0..2.0f64, rows * cols)
        .prop_map(move |v| RMatrix::from_vec(rows, cols, v))
}

fn bits(m: &RMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The textbook Gram loop: entry `(i, j)` accumulated from `0.0` over the
/// rows in order. `RMatrix::gram` must reproduce it bit for bit.
fn naive_gram(a: &RMatrix) -> RMatrix {
    let n = a.cols();
    let mut g = RMatrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            let mut acc = 0.0;
            for r in 0..a.rows() {
                acc += a[(r, i)] * a[(r, j)];
            }
            g[(i, j)] = acc;
            g[(j, i)] = acc;
        }
    }
    g
}

/// The one-row-at-a-time Cholesky loop, `None` where a pivot is not
/// positive. `RCholesky::new` must reproduce it bit for bit.
fn naive_cholesky(a: &RMatrix) -> Option<RMatrix> {
    let n = a.rows();
    let mut l = RMatrix::zeros(n, n);
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return None;
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        for i in j + 1..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / dj;
        }
    }
    Some(l)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Row counts from zero up, and column counts through several 4 × 8
    // register tiles and every column remainder, on the process's kernel
    // tier.
    #[test]
    fn blocked_gram_matches_naive_loop_bitwise(
        a in (0..11usize, 0..40usize).prop_flat_map(|(r, c)| arb_rmat(r, c)),
    ) {
        prop_assert_eq!(bits(&a.gram()), bits(&naive_gram(&a)));
    }

    // Sizes from 0 across the first 32-column panel boundary and the
    // four-row bands, on the process's kernel tier; a shift below the
    // smallest eigenvalue makes some inputs indefinite, and those must
    // still be rejected.
    #[test]
    fn blocked_cholesky_matches_naive_loop_bitwise(
        b in (0..71usize).prop_flat_map(|n| arb_rmat(n, n)),
        shift in -0.3..1.0f64,
    ) {
        let n = b.rows();
        let mut a = naive_gram(&b).scale(1.0 / (n.max(1) as f64));
        a.add_diagonal(shift);
        match (RCholesky::new(&a), naive_cholesky(&a)) {
            (Ok(chol), Some(l)) => prop_assert_eq!(bits(chol.factor()), bits(&l)),
            (Err(LinalgError::NotPositiveDefinite), None) => {}
            (got, want) => prop_assert!(
                false,
                "blocked {:?} vs naive {:?}",
                got.map(|c| c.factor().clone()),
                want
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn complex_field_axioms(a in arb_c64(), b in arb_c64(), c in arb_c64()) {
        let assoc = (a + b) + c - (a + (b + c));
        prop_assert!(assoc.abs() < 1e-12);
        let distr = a * (b + c) - (a * b + a * c);
        prop_assert!(distr.abs() < 1e-12);
        let comm = a * b - b * a;
        prop_assert!(comm.abs() < 1e-12);
        // |ab| = |a||b|
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-10);
    }

    #[test]
    fn conjugation_is_involutive_and_multiplicative(a in arb_c64(), b in arb_c64()) {
        prop_assert_eq!(a.conj().conj(), a);
        prop_assert!(((a * b).conj() - a.conj() * b.conj()).abs() < 1e-12);
    }

    #[test]
    fn hermitian_dot_cauchy_schwarz(x in arb_cvec(5), y in arb_cvec(5)) {
        let ip = x.dot(&y).unwrap().abs();
        prop_assert!(ip <= x.norm() * y.norm() + 1e-9);
    }

    #[test]
    fn adjoint_moves_inner_product(
        a in arb_cmat(3, 4),
        x in arb_cvec(4),
        y in arb_cvec(3),
    ) {
        // ⟨A·x, y⟩ = ⟨x, Aᴴ·y⟩
        let lhs = a.mul_vec(&x).unwrap().dot(&y).unwrap();
        let rhs = x.dot(&a.adjoint().mul_vec(&y).unwrap()).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn matmul_is_associative(
        a in arb_cmat(2, 3),
        b in arb_cmat(3, 4),
        c in arb_cmat(4, 2),
    ) {
        let left = a.mul_mat(&b).unwrap().mul_mat(&c).unwrap();
        let right = a.mul_mat(&b.mul_mat(&c).unwrap()).unwrap();
        prop_assert!((&left - &right).max_abs() < 1e-9);
    }

    #[test]
    fn transpose_reverses_products(a in arb_rmat(3, 4), b in arb_rmat(4, 2)) {
        // (AB)ᵀ = BᵀAᵀ
        let lhs = a.mul_mat(&b).unwrap().transpose();
        let rhs = b.transpose().mul_mat(&a.transpose()).unwrap();
        prop_assert!((&lhs - &rhs).max_abs() < 1e-10);
    }

    #[test]
    fn cholesky_solve_matches_lu_solve(
        vals in proptest::collection::vec(-1.0..1.0f64, 12),
        b in proptest::collection::vec(-1.0..1.0f64, 3),
    ) {
        let base = RMatrix::from_fn(4, 3, |r, c| vals[r * 3 + c]);
        let mut g = base.gram();
        g.add_diagonal(1.0);
        let bv = RVector::from_slice(&b);
        let x_chol = RCholesky::new(&g).unwrap().solve(&bv).unwrap();
        let x_lu = g.solve(&bv).unwrap();
        prop_assert!((&x_chol - &x_lu).max_abs() < 1e-8);
    }

    #[test]
    fn symmetric_eig_trace_and_det_invariants(
        vals in proptest::collection::vec(-1.0..1.0f64, 9),
    ) {
        let mut a = RMatrix::from_fn(3, 3, |r, c| vals[r * 3 + c]);
        a.symmetrize();
        let eig = symmetric_eig(&a).unwrap();
        // Trace = Σλ, det = Πλ.
        prop_assert!((eig.values.sum() - a.trace().unwrap()).abs() < 1e-8);
        let prod: f64 = eig.values.iter().product();
        prop_assert!((prod - a.det().unwrap()).abs() < 1e-7);
    }

    #[test]
    fn hermitian_eig_diagonalizes(
        vals in proptest::collection::vec(arb_c64(), 9),
    ) {
        let raw = CMatrix::from_vec(3, 3, vals);
        // Make Hermitian: H = (A + Aᴴ)/2.
        let h = (&raw + &raw.adjoint()).scale_real(0.5);
        let eig = hermitian_eig(&h).unwrap();
        // Vᴴ·H·V is diagonal with the eigenvalues.
        let d = eig
            .vectors
            .adjoint()
            .mul_mat(&h)
            .unwrap()
            .mul_mat(&eig.vectors)
            .unwrap();
        for r in 0..3 {
            for c in 0..3 {
                if r == c {
                    prop_assert!((d[(r, c)].re - eig.values[r]).abs() < 1e-7);
                    prop_assert!(d[(r, c)].im.abs() < 1e-7);
                } else {
                    prop_assert!(d[(r, c)].abs() < 1e-7);
                }
            }
        }
    }

    #[test]
    fn powers_sum_equals_norm_sqr(x in arb_cvec(6)) {
        prop_assert!((x.powers().sum() - x.norm_sqr()).abs() < 1e-10);
    }

    #[test]
    fn axpy_matches_operator_form(
        x in arb_cvec(5),
        y in arb_cvec(5),
        alpha in arb_c64(),
    ) {
        let mut a = x.clone();
        a.axpy(alpha, &y);
        let b = &x + &y.scale(alpha);
        prop_assert!((&a - &b).max_abs() < 1e-12);
    }
}
