//! Matrix exponential via scaling-and-squaring with a diagonal Padé approximant.
//!
//! This is the standard Higham-style algorithm specialized for the matrices the
//! optimal-control unit produces (`-i·dt·H` for Hermitian `H`, dimension up to
//! `2^n` for small `n`). A convenience routine for the unitary propagator
//! `exp(-i·H·t)` is provided as well.

use crate::complex::C64;
use crate::linalg::{solve_matrix, LinalgError};
use crate::matrix::CMatrix;

/// Padé-13 numerator coefficients (same for the denominator with alternating
/// signs), as used by the classic scaling-and-squaring algorithm.
const PADE13: [f64; 14] = [
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
];

/// Reusable scratch for the matrix exponential: every intermediate of the
/// Padé(13) evaluation (`A`'s powers, the two polynomial accumulators, the
/// numerator/denominator) lives in this workspace, so a caller exponentiating
/// many same-dimension matrices — the per-step propagators of a GRAPE
/// iteration — reallocates nothing between calls
/// ([`expm_with`]/[`try_expm_with`]). A fresh workspace starts empty; buffers
/// are shaped on first use, and every matrix product of the evaluation
/// writes into one of them through [`CMatrix::matmul_into`].
#[derive(Debug, Default)]
pub struct ExpmWorkspace {
    scaled: CMatrix,
    a2: CMatrix,
    a4: CMatrix,
    a6: CMatrix,
    poly: CMatrix,
    tail: CMatrix,
    u: CMatrix,
    v: CMatrix,
    id: CMatrix,
    square: CMatrix,
}

impl ExpmWorkspace {
    /// An empty workspace (buffers are allocated lazily by the first call).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes the matrix exponential `e^A` of a square complex matrix.
///
/// Uses the Padé(13) approximant with scaling and squaring; the scaling factor
/// is chosen from the 1-norm of `A`.
///
/// # Panics
///
/// Panics if `a` is not square or if the internal linear solve fails (which can
/// only happen for inputs with non-finite entries).
///
/// # Examples
///
/// ```
/// use qcc_math::{expm, CMatrix};
/// let zero = CMatrix::zeros(4, 4);
/// assert!(expm(&zero).is_identity(1e-12));
/// ```
pub fn expm(a: &CMatrix) -> CMatrix {
    try_expm(a).expect("expm: non-finite input")
}

/// [`expm`] with an explicit scratch workspace — the allocation-free hot path
/// for repeated exponentials of same-dimension matrices.
///
/// # Panics
///
/// Panics under the same conditions as [`expm`].
pub fn expm_with(a: &CMatrix, ws: &mut ExpmWorkspace) -> CMatrix {
    try_expm_with(a, ws).expect("expm: non-finite input")
}

/// Fallible variant of [`expm`].
///
/// # Errors
///
/// Returns a [`LinalgError`] when the Padé denominator cannot be inverted,
/// which only happens for inputs containing NaN/Inf entries.
pub fn try_expm(a: &CMatrix) -> Result<CMatrix, LinalgError> {
    try_expm_with(a, &mut ExpmWorkspace::new())
}

/// Fallible variant of [`expm_with`].
///
/// # Errors
///
/// Returns a [`LinalgError`] when the Padé denominator cannot be inverted,
/// which only happens for inputs containing NaN/Inf entries.
pub fn try_expm_with(a: &CMatrix, ws: &mut ExpmWorkspace) -> Result<CMatrix, LinalgError> {
    assert!(a.is_square(), "expm requires a square matrix");
    let n = a.rows();
    let norm = a.one_norm();
    // theta_13 from Higham's analysis: below this 1-norm, Padé(13) alone is
    // accurate to double precision.
    let theta13 = 5.371920351148152;
    let mut squarings = 0u32;
    let a1: &CMatrix = if norm > theta13 {
        squarings = ((norm / theta13).log2().ceil()).max(0.0) as u32;
        ws.scaled
            .scale_into(a, C64::real(1.0 / (2f64.powi(squarings as i32))));
        &ws.scaled
    } else {
        a
    };

    a1.matmul_into(a1, &mut ws.a2);
    ws.a2.matmul_into(&ws.a2, &mut ws.a4);
    ws.a2.matmul_into(&ws.a4, &mut ws.a6);
    if ws.id.rows() != n {
        ws.id = CMatrix::identity(n);
    }

    let b = &PADE13;
    // U = A * (A6*(b13*A6 + b11*A4 + b9*A2) + b7*A6 + b5*A4 + b3*A2 + b1*I)
    ws.poly.scale_into(&ws.a6, C64::real(b[13]));
    ws.poly.add_scaled(&ws.a4, C64::real(b[11]));
    ws.poly.add_scaled(&ws.a2, C64::real(b[9]));
    ws.tail.scale_into(&ws.a6, C64::real(b[7]));
    ws.tail.add_scaled(&ws.a4, C64::real(b[5]));
    ws.tail.add_scaled(&ws.a2, C64::real(b[3]));
    ws.tail.add_scaled(&ws.id, C64::real(b[1]));
    ws.a6.matmul_into(&ws.poly, &mut ws.square);
    ws.square += &ws.tail;
    a1.matmul_into(&ws.square, &mut ws.u);

    // V = A6*(b12*A6 + b10*A4 + b8*A2) + b6*A6 + b4*A4 + b2*A2 + b0*I
    ws.poly.scale_into(&ws.a6, C64::real(b[12]));
    ws.poly.add_scaled(&ws.a4, C64::real(b[10]));
    ws.poly.add_scaled(&ws.a2, C64::real(b[8]));
    ws.tail.scale_into(&ws.a6, C64::real(b[6]));
    ws.tail.add_scaled(&ws.a4, C64::real(b[4]));
    ws.tail.add_scaled(&ws.a2, C64::real(b[2]));
    ws.tail.add_scaled(&ws.id, C64::real(b[0]));
    ws.a6.matmul_into(&ws.poly, &mut ws.v);
    ws.v += &ws.tail;

    // exp(A) ≈ (V - U)^{-1} (V + U): build V+U in `poly` and V-U in `tail`.
    ws.poly.copy_from(&ws.v);
    ws.poly += &ws.u;
    ws.tail.copy_from(&ws.v);
    ws.tail -= &ws.u;
    let mut result = solve_matrix(&ws.tail, &ws.poly)?;
    for _ in 0..squarings {
        result.matmul_into(&result, &mut ws.square);
        std::mem::swap(&mut result, &mut ws.square);
    }
    Ok(result)
}

/// Computes the unitary propagator `exp(-i·H·t)` for a Hermitian `H`.
///
/// `t` is in the same units as `1/H`; the caller is responsible for including
/// any `2π` factors.
///
/// # Panics
///
/// Panics if `h` is not square.
pub fn propagator(h: &CMatrix, t: f64) -> CMatrix {
    let a = h.scale(C64::new(0.0, -t));
    expm(&a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use std::f64::consts::PI;

    fn pauli_x() -> CMatrix {
        CMatrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
    }

    fn pauli_z() -> CMatrix {
        CMatrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0])
    }

    #[test]
    fn exp_of_zero_is_identity() {
        assert!(expm(&CMatrix::zeros(3, 3)).is_identity(1e-13));
    }

    #[test]
    fn exp_of_diagonal() {
        let d = CMatrix::diag(&[c64(1.0, 0.0), c64(0.0, PI), c64(-2.0, 0.5)]);
        let e = expm(&d);
        assert!(e[(0, 0)].approx_eq(c64(1.0f64.exp(), 0.0), 1e-10));
        assert!(e[(1, 1)].approx_eq(C64::cis(PI), 1e-10));
        assert!(e[(2, 2)].approx_eq(C64::new(-2.0, 0.5).exp(), 1e-10));
        assert!(e[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn rotation_about_x_axis() {
        // exp(-i θ/2 X) = cos(θ/2) I - i sin(θ/2) X
        let theta = 1.234;
        let u = propagator(&pauli_x(), theta / 2.0);
        let want = &CMatrix::identity(2).scale_re((theta / 2.0).cos())
            + &pauli_x().scale(C64::new(0.0, -(theta / 2.0).sin()));
        assert!(u.approx_eq(&want, 1e-12));
        assert!(u.is_unitary(1e-12));
    }

    #[test]
    fn propagator_of_hermitian_is_unitary() {
        // Random-ish Hermitian matrix built as A + A†.
        let a = CMatrix::from_rows(&[
            &[c64(0.3, 0.0), c64(1.2, -0.7), c64(-0.4, 0.1)],
            &[c64(1.2, 0.7), c64(-0.5, 0.0), c64(0.9, 0.3)],
            &[c64(-0.4, -0.1), c64(0.9, -0.3), c64(1.1, 0.0)],
        ]);
        assert!(a.is_hermitian(1e-12));
        let u = propagator(&a, 2.5);
        assert!(u.is_unitary(1e-10));
    }

    #[test]
    fn large_norm_uses_scaling_and_squaring() {
        let big = pauli_z().scale_re(40.0);
        let e = propagator(&big, 1.0);
        // exp(-i 40 Z) = diag(e^{-40i}, e^{40i})
        assert!(e[(0, 0)].approx_eq(C64::cis(-40.0), 1e-9));
        assert!(e[(1, 1)].approx_eq(C64::cis(40.0), 1e-9));
        assert!(e.is_unitary(1e-10));
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_calls_and_dimensions() {
        // One workspace exponentiating a stream of matrices — including a
        // dimension change and a large-norm input that exercises the
        // scaling-and-squaring path — must reproduce the fresh-workspace
        // results exactly.
        let inputs = vec![
            pauli_x().scale(c64(0.0, -0.4)),
            pauli_z().scale(c64(0.0, 37.0)), // large norm: squarings > 0
            CMatrix::from_rows(&[
                &[c64(0.3, 0.0), c64(1.2, -0.7), c64(-0.4, 0.1)],
                &[c64(1.2, 0.7), c64(-0.5, 0.0), c64(0.9, 0.3)],
                &[c64(-0.4, -0.1), c64(0.9, -0.3), c64(1.1, 0.0)],
            ])
            .scale(c64(0.0, -1.3)),
            pauli_x().scale(c64(0.0, 0.9)),
        ];
        let mut ws = ExpmWorkspace::new();
        for a in &inputs {
            let reused = expm_with(a, &mut ws);
            let fresh = expm(a);
            assert_eq!(reused.rows(), fresh.rows());
            for i in 0..reused.rows() {
                for j in 0..reused.cols() {
                    assert_eq!(
                        reused[(i, j)].re.to_bits(),
                        fresh[(i, j)].re.to_bits(),
                        "({i},{j}) re"
                    );
                    assert_eq!(
                        reused[(i, j)].im.to_bits(),
                        fresh[(i, j)].im.to_bits(),
                        "({i},{j}) im"
                    );
                }
            }
        }
    }

    #[test]
    fn additivity_for_commuting_matrices() {
        // exp(aZ) exp(bZ) = exp((a+b)Z)
        let a = pauli_z().scale(c64(0.0, 0.4));
        let b = pauli_z().scale(c64(0.0, -1.1));
        let lhs = expm(&a).matmul(&expm(&b));
        let rhs = expm(&(&a + &b));
        assert!(lhs.approx_eq(&rhs, 1e-11));
    }

    #[test]
    fn exp_x_pi_is_minus_identity_like() {
        // exp(-i π X / 2 * 2) = exp(-i π X) = -I (global phase -1)
        let u = propagator(&pauli_x(), PI);
        assert!(u.is_identity_up_to_phase(1e-9));
    }
}
