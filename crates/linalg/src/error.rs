//! Error types for linear-algebra operations.

use std::error::Error;
use std::fmt;

/// Errors returned by fallible linear-algebra routines.
///
/// # Examples
///
/// ```
/// use photon_linalg::{LinalgError, RMatrix};
///
/// let singular = RMatrix::zeros(2, 2);
/// match singular.inverse() {
///     Err(LinalgError::Singular) => {}
///     other => panic!("expected singular, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of what was expected.
        expected: String,
        /// Human-readable description of what was found.
        found: String,
    },
    /// The matrix is singular to working precision.
    Singular,
    /// A matrix that must be square is not.
    NotSquare {
        /// Number of rows found.
        rows: usize,
        /// Number of columns found.
        cols: usize,
    },
    /// A matrix that must be (Hermitian) positive definite is not.
    NotPositiveDefinite,
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// An argument was invalid (e.g. zero dimension where nonzero required).
    InvalidArgument(String),
    /// An input contained a non-finite (NaN or infinite) value where only
    /// finite values are meaningful (e.g. entries of a normal-equation
    /// right-hand side assembled from physical measurements).
    NonFinite {
        /// Human-readable description of where the non-finite value appeared.
        context: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix must be square, found {rows}x{cols}")
            }
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            LinalgError::NonFinite { context } => {
                write!(f, "non-finite value in {context}")
            }
        }
    }
}

impl Error for LinalgError {}

/// Convenience alias for `Result<T, LinalgError>`.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = LinalgError::ShapeMismatch {
            expected: "3x3".into(),
            found: "2x3".into(),
        };
        let s = e.to_string();
        assert!(s.contains("3x3") && s.contains("2x3"));
        assert_eq!(
            LinalgError::Singular.to_string(),
            "matrix is singular to working precision"
        );
        assert!(LinalgError::NotSquare { rows: 2, cols: 3 }
            .to_string()
            .contains("2x3"));
        assert!(LinalgError::NoConvergence { iterations: 7 }
            .to_string()
            .contains('7'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<LinalgError>();
    }
}
