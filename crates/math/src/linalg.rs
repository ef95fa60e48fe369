//! Dense LU factorization with partial pivoting and the matching forward and
//! back substitution, for complex matrices.
//!
//! Both are written once, against [`MatrixStorage`], and the Padé matrix
//! exponential ([`crate::expm::expm`]) runs them on whichever storage it
//! exponentiates.

use crate::matrix::MatrixStorage;
use std::fmt;

/// Error type for the linear-algebra routines of this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is numerically singular (a pivot fell below tolerance).
    Singular,
    /// The input has a NaN or infinite entry, or its 1-norm overflows.
    NonFinite,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NonFinite => write!(f, "input has a non-finite entry or norm"),
        }
    }
}

impl std::error::Error for LinalgError {}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, C64};
    use crate::matrix::CMatrix;

    fn test_matrix() -> CMatrix {
        CMatrix::from_rows(&[
            &[c64(2.0, 1.0), c64(0.0, -1.0), c64(3.0, 0.0)],
            &[c64(1.0, 0.0), c64(4.0, 2.0), c64(-1.0, 1.0)],
            &[c64(0.0, 2.0), c64(1.0, -1.0), c64(5.0, 0.0)],
        ])
    }

    /// Solves `A X = B` the way the Padé exponential does: factor, permuting
    /// the right-hand side in step, then substitute.
    fn lu_solve(a: &CMatrix, b: &CMatrix) -> Result<CMatrix, LinalgError> {
        let mut lu = a.clone();
        let mut x = b.clone();
        lu_factor(&mut lu, |col, pivot_row| x.swap_rows(col, pivot_row))?;
        lu_substitute(&lu, &mut x);
        Ok(x)
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = test_matrix();
        let x_true = vec![c64(1.0, -1.0), c64(0.5, 2.0), c64(-2.0, 0.25)];
        let b = CMatrix::from_vec(3, 1, a.matvec(&x_true));
        let x = lu_solve(&a, &b).expect("solvable");
        for (got, want) in x.as_slice().iter().zip(x_true.iter()) {
            assert!(got.approx_eq(*want, 1e-10), "{got} vs {want}");
        }
    }

    #[test]
    fn singular_pivot_is_an_error() {
        let s = CMatrix::from_real(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        let b = CMatrix::from_vec(2, 1, vec![C64::one(), C64::one()]);
        assert_eq!(lu_solve(&s, &b), Err(LinalgError::Singular));
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = test_matrix();
        let b = CMatrix::from_rows(&[
            &[c64(1.0, 0.0), c64(0.0, 1.0)],
            &[c64(2.0, -1.0), c64(1.0, 1.0)],
            &[c64(0.0, 0.0), c64(3.0, 0.0)],
        ]);
        let x = lu_solve(&a, &b).unwrap();
        assert!(a.matmul(&x).approx_eq(&b, 1e-10));
    }
}
