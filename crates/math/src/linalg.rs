//! Dense linear solvers: LU decomposition with partial pivoting, linear solves,
//! matrix inversion, and determinants for complex matrices.
//!
//! The factorization and the substitution are written once, against
//! [`MatrixStorage`]: the Padé matrix exponential ([`crate::expm::expm`])
//! runs them on whichever storage it exponentiates, and
//! [`LuDecomposition`] runs them on [`CMatrix`].

use crate::complex::C64;
use crate::matrix::{CMatrix, MatrixStorage};
use std::fmt;

/// Error type for the linear-algebra routines in this module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is numerically singular (a pivot fell below tolerance).
    Singular,
    /// The operation requires a square matrix.
    NotSquare,
    /// Right-hand side dimensions do not match the matrix.
    DimensionMismatch,
    /// The input has a NaN or infinite entry, or its 1-norm overflows.
    NonFinite,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NotSquare => write!(f, "operation requires a square matrix"),
            LinalgError::DimensionMismatch => write!(f, "dimension mismatch"),
            LinalgError::NonFinite => write!(f, "input has a non-finite entry or norm"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// LU decomposition with partial pivoting: `P A = L U`.
///
/// The factors are stored packed in a single matrix (unit lower-triangular `L`
/// below the diagonal, `U` on and above it) together with the row permutation.
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    lu: CMatrix,
    /// Row permutation: row `i` of `PA` is row `perm[i]` of `A`.
    perm: Vec<usize>,
    /// Parity of the permutation (+1 or -1), used for determinants.
    sign: f64,
}

impl LuDecomposition {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Singular`] when a pivot is (near) zero.
    pub fn new(a: &CMatrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare);
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..a.rows()).collect();
        let mut sign = 1.0;
        lu_factor(&mut lu, |col, pivot_row| {
            perm.swap(col, pivot_row);
            sign = -sign;
        })?;
        Ok(Self { lu, perm, sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_vec(&self, b: &[C64]) -> Result<Vec<C64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        let mut y = CMatrix::from_vec(n, 1, self.perm.iter().map(|&p| b[p]).collect());
        lu_substitute(&self.lu, &mut y);
        Ok(y.as_slice().to_vec())
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `B` has the wrong row count.
    pub fn solve_matrix(&self, b: &CMatrix) -> Result<CMatrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        let mut x = CMatrix::zeros(n, b.cols());
        for (r, &p) in self.perm.iter().enumerate() {
            for c in 0..b.cols() {
                x[(r, c)] = b[(p, c)];
            }
        }
        lu_substitute(&self.lu, &mut x);
        Ok(x)
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> C64 {
        let n = self.dim();
        let mut d = C64::real(self.sign);
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// Factors the square `lu` in place into `P·A = L·U` by Gaussian elimination
/// with partial pivoting: unit lower-triangular `L` below the diagonal, `U`
/// on and above it. The pivot of each column is the entry of largest modulus
/// (`hypot`) on or below the diagonal, the first one on a tie. Each row
/// exchange is applied to `lu` and reported as `on_swap(col, pivot_row)`, so
/// a caller can permute a right-hand side in step or record the permutation.
///
/// # Errors
///
/// Returns [`LinalgError::Singular`] when a pivot's modulus is below
/// `1e-300`; `lu` is then partly factored.
pub(crate) fn lu_factor<M: MatrixStorage>(
    lu: &mut M,
    mut on_swap: impl FnMut(usize, usize),
) -> Result<(), LinalgError> {
    let n = lu.rows();
    for col in 0..n {
        let mut pivot_row = col;
        let mut pivot_abs = lu.get(col, col).abs();
        for r in (col + 1)..n {
            let v = lu.get(r, col).abs();
            if v > pivot_abs {
                pivot_abs = v;
                pivot_row = r;
            }
        }
        if pivot_abs < 1e-300 {
            return Err(LinalgError::Singular);
        }
        if pivot_row != col {
            lu.swap_rows(col, pivot_row);
            on_swap(col, pivot_row);
        }
        let pivot_inv = lu.get(col, col).recip();
        for r in (col + 1)..n {
            let factor = lu.get(r, col) * pivot_inv;
            lu.set(r, col, factor);
            for c in (col + 1)..n {
                let sub = factor * lu.get(col, c);
                lu.set(r, c, lu.get(r, c) - sub);
            }
        }
    }
    Ok(())
}

/// Overwrites `b`, already permuted by the factorization's row exchanges,
/// with the solution `X` of `L·U·X = b`: forward substitution with the unit
/// lower triangle of a [`lu_factor`] result, then back substitution with its
/// upper triangle, one column at a time.
pub(crate) fn lu_substitute<M: MatrixStorage>(lu: &M, b: &mut M) {
    let n = lu.rows();
    for c in 0..b.cols() {
        for i in 0..n {
            for j in 0..i {
                let sub = lu.get(i, j) * b.get(j, c);
                b.set(i, c, b.get(i, c) - sub);
            }
        }
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                let sub = lu.get(i, j) * b.get(j, c);
                b.set(i, c, b.get(i, c) - sub);
            }
            b.set(i, c, b.get(i, c) / lu.get(i, i));
        }
    }
}

/// Solves `A x = b`.
///
/// # Errors
///
/// Propagates factorization errors; see [`LuDecomposition::new`].
pub fn solve(a: &CMatrix, b: &[C64]) -> Result<Vec<C64>, LinalgError> {
    LuDecomposition::new(a)?.solve_vec(b)
}

/// Solves `A X = B`.
///
/// # Errors
///
/// Propagates factorization errors; see [`LuDecomposition::new`].
pub fn solve_matrix(a: &CMatrix, b: &CMatrix) -> Result<CMatrix, LinalgError> {
    LuDecomposition::new(a)?.solve_matrix(b)
}

/// Computes the matrix inverse.
///
/// # Errors
///
/// Returns an error when the matrix is singular or not square.
pub fn inverse(a: &CMatrix) -> Result<CMatrix, LinalgError> {
    let n = a.rows();
    solve_matrix(a, &CMatrix::identity(n))
}

/// Determinant via LU decomposition.
///
/// # Errors
///
/// Returns an error when the matrix is not square. A singular matrix returns
/// `Ok(0)` only when the factorization succeeds before hitting a zero pivot;
/// otherwise [`LinalgError::Singular`] is reported.
pub fn det(a: &CMatrix) -> Result<C64, LinalgError> {
    match LuDecomposition::new(a) {
        Ok(lu) => Ok(lu.det()),
        Err(LinalgError::Singular) => Ok(C64::zero()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn test_matrix() -> CMatrix {
        CMatrix::from_rows(&[
            &[c64(2.0, 1.0), c64(0.0, -1.0), c64(3.0, 0.0)],
            &[c64(1.0, 0.0), c64(4.0, 2.0), c64(-1.0, 1.0)],
            &[c64(0.0, 2.0), c64(1.0, -1.0), c64(5.0, 0.0)],
        ])
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = test_matrix();
        let x_true = vec![c64(1.0, -1.0), c64(0.5, 2.0), c64(-2.0, 0.25)];
        let b = a.matvec(&x_true);
        let x = solve(&a, &b).expect("solvable");
        for (got, want) in x.iter().zip(x_true.iter()) {
            assert!(got.approx_eq(*want, 1e-10), "{got} vs {want}");
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = test_matrix();
        let inv = inverse(&a).expect("invertible");
        assert!(a.matmul(&inv).is_identity(1e-10));
        assert!(inv.matmul(&a).is_identity(1e-10));
    }

    #[test]
    fn determinant_of_identity_and_scaled() {
        let id = CMatrix::identity(4);
        assert!(det(&id).unwrap().approx_eq(C64::one(), 1e-12));
        let two_id = id.scale_re(2.0);
        assert!(det(&two_id).unwrap().approx_eq(c64(16.0, 0.0), 1e-12));
    }

    #[test]
    fn determinant_sign_under_row_swap() {
        // A permutation matrix swapping two rows has determinant -1.
        let p = CMatrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        assert!(det(&p).unwrap().approx_eq(c64(-1.0, 0.0), 1e-12));
    }

    #[test]
    fn singular_matrix_reports_zero_det_or_error() {
        let s = CMatrix::from_real(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        let d = det(&s).unwrap();
        assert!(d.abs() < 1e-10);
        assert_eq!(
            solve(&s, &[C64::one(), C64::one()]),
            Err(LinalgError::Singular)
        );
    }

    #[test]
    fn non_square_rejected() {
        let a = CMatrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NotSquare)
        ));
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = test_matrix();
        let b = CMatrix::from_rows(&[
            &[c64(1.0, 0.0), c64(0.0, 1.0)],
            &[c64(2.0, -1.0), c64(1.0, 1.0)],
            &[c64(0.0, 0.0), c64(3.0, 0.0)],
        ]);
        let x = solve_matrix(&a, &b).unwrap();
        assert!(a.matmul(&x).approx_eq(&b, 1e-10));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = test_matrix();
        let lu = LuDecomposition::new(&a).unwrap();
        assert_eq!(
            lu.solve_vec(&[C64::one(); 2]),
            Err(LinalgError::DimensionMismatch)
        );
    }
}
