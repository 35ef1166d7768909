//! # photon-linalg
//!
//! Self-contained dense linear algebra for the `photon-zo` workspace: the
//! numeric substrate beneath the optical-neural-network simulator, the LCNG
//! optimizer and the chip calibrator.
//!
//! The crate provides:
//!
//! - [`C64`]: double-precision complex scalars;
//! - [`CVector`] / [`RVector`]: dense complex / real vectors;
//! - [`CMatrix`] / [`RMatrix`]: dense row-major complex / real matrices;
//! - [`RLu`]: LU factorization with partial pivoting;
//! - [`RCholesky`]: Cholesky factorization of positive definite matrices
//!   (also the engine for `N(0, Σ)` sampling);
//! - [`CQr`]: Householder QR;
//! - [`symmetric_eig`] / [`hermitian_eig`]: Jacobi eigensolvers;
//! - [`CPanel`] / [`GemmMatrix`] / [`gemm_into`] / [`mzi_rotate`]: packed
//!   `N×B` multi-RHS panels and the complex GEMM / fused-rotation kernels
//!   behind the compiled batched forward paths;
//! - [`kernel_tier`]: the runtime tier of the three dense f64 kernels
//!   ([`gemm_into`], [`RMatrix::gram`], [`RCholesky::new`]), each of which
//!   runs an AVX2 body on x86-64 hosts that have it and a portable body
//!   elsewhere or under `PHOTON_KERNEL=scalar`, with the same bits either
//!   way;
//! - [`random`]: seeded Gaussian vectors, Ginibre matrices and Haar-random
//!   unitaries.
//!
//! Everything is written against explicit seeds and returns typed errors —
//! no global state, no panics on bad user input (hot-loop primitives that
//! assert shapes are documented as such).
//!
//! # Examples
//!
//! Build a random unitary, push an optical state through it, and verify that
//! power is conserved:
//!
//! ```
//! use rand::SeedableRng;
//! use photon_linalg::{random, CVector};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let u = random::haar_unitary(8, &mut rng)?;
//! let x = random::normal_cvector(8, &mut rng);
//! let y = u.mul_vec(&x)?;
//! assert!((y.norm_sqr() - x.norm_sqr()).abs() < 1e-10);
//! # Ok::<(), photon_linalg::LinalgError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod c64;
mod cholesky;
mod cmatrix;
mod cvector;
mod eig;
mod error;
mod gemm;
mod kernel;
mod lu;
mod qr;
mod rmatrix;
mod rvector;

pub mod random;

pub use c64::C64;
pub use cholesky::RCholesky;
pub use cmatrix::CMatrix;
pub use cvector::CVector;
pub use eig::{hermitian_eig, symmetric_eig, HermitianEig, SymmetricEig};
pub use error::{LinalgError, Result};
pub use gemm::{gemm_into, mzi_rotate, scale_slice, CPanel, GemmMatrix};
pub use kernel::{kernel_tier, KernelTier};
pub use lu::RLu;
pub use qr::CQr;
pub use rmatrix::RMatrix;
pub use rvector::RVector;
