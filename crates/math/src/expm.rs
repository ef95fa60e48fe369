//! Matrix exponential via scaling-and-squaring with a diagonal Padé approximant.
//!
//! This is the standard Higham-style algorithm specialized for the matrices the
//! optimal-control unit produces (`-i·dt·H` for Hermitian `H`, dimension up to
//! `2^n` for small `n`). A convenience routine for the unitary propagator
//! `exp(-i·H·t)` is provided as well.
//!
//! The algorithm is written once, in [`expm_into`], against
//! [`MatrixStorage`], with its scratch in a reusable [`ExpmWorkspace`]: the
//! GRAPE step propagators call it on [`FixedMatrix`](crate::FixedMatrix)
//! storage. [`expm()`] runs it on a `FixedMatrix` copy when its input is
//! 2×2, 4×4 or 8×8 and on [`CMatrix`] otherwise; both give bit-identical
//! results, so the choice is invisible to callers.

use crate::complex::C64;
use crate::linalg::{lu_factor, lu_substitute, LinalgError};
use crate::matrix::{CMatrix, MatrixStorage};

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

/// Reusable scratch for the matrix exponential in storage `M`: every
/// intermediate of the Padé(13) evaluation (`A`'s powers, the two polynomial
/// accumulators, the numerator/denominator and its LU factors) lives in this
/// workspace, so a caller exponentiating many same-dimension matrices — the
/// per-step propagators of a GRAPE iteration — reallocates nothing between
/// calls of [`expm_into`]. A fresh [`CMatrix`] workspace starts empty and is
/// shaped on first use; a [`FixedMatrix`](crate::FixedMatrix) one holds no
/// heap storage at all.
#[derive(Debug, Default)]
pub struct ExpmWorkspace<M = CMatrix> {
    scaled: M,
    a2: M,
    a4: M,
    a6: M,
    poly: M,
    tail: M,
    u: M,
    square: M,
}

impl<M: MatrixStorage> ExpmWorkspace<M> {
    /// An empty workspace.
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
/// Panics if `a` is not square, and with the message
/// `"expm: non-finite input"` if an entry of `a` is NaN or infinite or its
/// 1-norm overflows (see [`try_expm`]).
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

/// Fallible variant of [`expm()`]. A 2×2, 4×4 or 8×8 input is exponentiated
/// on a [`FixedMatrix`](crate::FixedMatrix) copy (see
/// [`with_storage!`](crate::with_storage)), any other size on [`CMatrix`];
/// the results are bit-identical. For many same-size exponentials, call
/// [`expm_into`] with a reused workspace.
///
/// # Errors
///
/// Returns [`LinalgError::NonFinite`] at once, before any arithmetic, when
/// an entry of `a` is NaN or infinite or its 1-norm overflows, and
/// [`LinalgError::Singular`] when the Padé denominator cannot be factored.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn try_expm(a: &CMatrix) -> Result<CMatrix, LinalgError> {
    assert!(a.is_square(), "expm requires a square matrix");
    crate::with_storage!(a.rows(), M => {
        let mut out = M::default();
        expm_into(&M::from_cmatrix(a), &mut ExpmWorkspace::new(), &mut out)?;
        Ok(out.to_cmatrix())
    })
}

/// Writes `e^a` into `out`, with every intermediate in `ws`: the one body of
/// the Padé(13) scaling-and-squaring evaluation, for either storage.
///
/// # Errors
///
/// As [`try_expm`]; `out` is then unchanged.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn expm_into<M: MatrixStorage>(
    a: &M,
    ws: &mut ExpmWorkspace<M>,
    out: &mut M,
) -> Result<(), LinalgError> {
    assert_eq!(a.rows(), a.cols(), "expm requires a square matrix");
    // A non-finite norm would ask for unboundedly many squarings, and a NaN
    // entry would not even raise the norm (`f64::max` skips NaN).
    if !a.is_finite() {
        return Err(LinalgError::NonFinite);
    }
    let norm = a.one_norm();
    if !norm.is_finite() {
        return Err(LinalgError::NonFinite);
    }
    // theta_13 from Higham's analysis: below this 1-norm, Padé(13) alone is
    // accurate to double precision.
    let theta13 = 5.371920351148152;
    let mut squarings = 0u32;
    let a1: &M = if norm > theta13 {
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

    let b = &PADE13;
    // U = A * (A6*(b13*A6 + b11*A4 + b9*A2) + b7*A6 + b5*A4 + b3*A2 + b1*I)
    ws.poly.scale_into(&ws.a6, C64::real(b[13]));
    ws.poly.add_scaled(&ws.a4, C64::real(b[11]));
    ws.poly.add_scaled(&ws.a2, C64::real(b[9]));
    ws.tail.scale_into(&ws.a6, C64::real(b[7]));
    ws.tail.add_scaled(&ws.a4, C64::real(b[5]));
    ws.tail.add_scaled(&ws.a2, C64::real(b[3]));
    ws.tail.add_scaled_identity(C64::real(b[1]));
    ws.a6.matmul_into(&ws.poly, &mut ws.square);
    ws.square.add_from(&ws.tail);
    a1.matmul_into(&ws.square, &mut ws.u);

    // V = A6*(b12*A6 + b10*A4 + b8*A2) + b6*A6 + b4*A4 + b2*A2 + b0*I, in
    // `square`.
    ws.poly.scale_into(&ws.a6, C64::real(b[12]));
    ws.poly.add_scaled(&ws.a4, C64::real(b[10]));
    ws.poly.add_scaled(&ws.a2, C64::real(b[8]));
    ws.tail.scale_into(&ws.a6, C64::real(b[6]));
    ws.tail.add_scaled(&ws.a4, C64::real(b[4]));
    ws.tail.add_scaled(&ws.a2, C64::real(b[2]));
    ws.tail.add_scaled_identity(C64::real(b[0]));
    ws.a6.matmul_into(&ws.poly, &mut ws.square);
    ws.square.add_from(&ws.tail);

    // exp(A) ≈ (V - U)^{-1} (V + U): V+U in `poly`, V-U in `tail`, solved
    // in place with `poly`'s rows exchanged alongside the factorization's.
    ws.poly.copy_from(&ws.square);
    ws.poly.add_from(&ws.u);
    ws.tail.copy_from(&ws.square);
    ws.tail.sub_from(&ws.u);
    let (lu, rhs) = (&mut ws.tail, &mut ws.poly);
    lu_factor(lu, |col, pivot_row| rhs.swap_rows(col, pivot_row))?;
    lu_substitute(lu, rhs);
    for _ in 0..squarings {
        ws.poly.matmul_into(&ws.poly, &mut ws.square);
        std::mem::swap(&mut ws.poly, &mut ws.square);
    }
    out.copy_from(&ws.poly);
    Ok(())
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

/// The exponential as it stood before [`MatrixStorage`]: `CMatrix` only,
/// with its own LU factorization, permutation vector and per-column solve.
/// Frozen as the bit-identity reference for [`expm_into`] on both storages.
#[cfg(test)]
mod reference {
    use super::PADE13;
    use crate::complex::C64;
    use crate::linalg::LinalgError;
    use crate::matrix::CMatrix;

    fn one_norm(a: &CMatrix) -> f64 {
        let mut best = 0.0f64;
        for j in 0..a.cols() {
            let s: f64 = (0..a.rows()).map(|i| a[(i, j)].abs()).sum();
            best = best.max(s);
        }
        best
    }

    fn solve_matrix(a: &CMatrix, b: &CMatrix) -> Result<CMatrix, LinalgError> {
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            let mut pivot_row = col;
            let mut pivot_abs = lu[(col, col)].abs();
            for r in (col + 1)..n {
                let v = lu[(r, col)].abs();
                if v > pivot_abs {
                    pivot_abs = v;
                    pivot_row = r;
                }
            }
            if pivot_abs < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if pivot_row != col {
                for c in 0..n {
                    let tmp = lu[(col, c)];
                    lu[(col, c)] = lu[(pivot_row, c)];
                    lu[(pivot_row, c)] = tmp;
                }
                perm.swap(col, pivot_row);
            }
            let pivot = lu[(col, col)];
            let pivot_inv = pivot.recip();
            for r in (col + 1)..n {
                let factor = lu[(r, col)] * pivot_inv;
                lu[(r, col)] = factor;
                for c in (col + 1)..n {
                    let sub = factor * lu[(col, c)];
                    lu[(r, c)] -= sub;
                }
            }
        }
        let mut out = CMatrix::zeros(n, b.cols());
        for c in 0..b.cols() {
            let mut y: Vec<C64> = (0..n).map(|i| b[(perm[i], c)]).collect();
            for i in 0..n {
                for j in 0..i {
                    let sub = lu[(i, j)] * y[j];
                    y[i] -= sub;
                }
            }
            for i in (0..n).rev() {
                for j in (i + 1)..n {
                    let sub = lu[(i, j)] * y[j];
                    y[i] -= sub;
                }
                y[i] /= lu[(i, i)];
            }
            for r in 0..n {
                out[(r, c)] = y[r];
            }
        }
        Ok(out)
    }

    #[derive(Default)]
    struct ExpmWorkspace {
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

    pub(crate) fn try_expm(a: &CMatrix) -> Result<CMatrix, LinalgError> {
        try_expm_with(a, &mut ExpmWorkspace::default())
    }

    fn try_expm_with(a: &CMatrix, ws: &mut ExpmWorkspace) -> Result<CMatrix, LinalgError> {
        assert!(a.is_square(), "expm requires a square matrix");
        let n = a.rows();
        let norm = one_norm(a);
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

        ws.poly.scale_into(&ws.a6, C64::real(b[12]));
        ws.poly.add_scaled(&ws.a4, C64::real(b[10]));
        ws.poly.add_scaled(&ws.a2, C64::real(b[8]));
        ws.tail.scale_into(&ws.a6, C64::real(b[6]));
        ws.tail.add_scaled(&ws.a4, C64::real(b[4]));
        ws.tail.add_scaled(&ws.a2, C64::real(b[2]));
        ws.tail.add_scaled(&ws.id, C64::real(b[0]));
        ws.a6.matmul_into(&ws.poly, &mut ws.v);
        ws.v += &ws.tail;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::matrix::FixedMatrix;
    use crate::pauli;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::PI;

    /// Asserts that two matrices agree in shape and in every bit.
    fn assert_same_bits(got: &CMatrix, want: &CMatrix, what: &str) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{what}"
        );
        for (k, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                (g.re.to_bits(), g.im.to_bits()),
                (w.re.to_bits(), w.im.to_bits()),
                "{what}: entry {k}: {g} vs {w}"
            );
        }
    }

    /// `−i·2π·dt·H` for `H = Σ u_k H_k` over the controls of a fully coupled
    /// transmon register of `dim` = 2ⁿ levels (σx/2 and σy/2 drives up to
    /// 0.1 GHz, (XX+YY)/2 couplings up to 0.02 GHz), with about a quarter
    /// of the amplitudes exactly zero: a GRAPE step exponent.
    fn grape_step(rng: &mut StdRng, dim: usize) -> CMatrix {
        let n = dim.trailing_zeros() as usize;
        let mut controls = Vec::new();
        for q in 0..n {
            controls.push((pauli::sigma_x().scale_re(0.5).embed(n, &[q]), 0.1));
            controls.push((pauli::sigma_y().scale_re(0.5).embed(n, &[q]), 0.1));
        }
        let xy =
            &pauli::sigma_x().kron(&pauli::sigma_x()) + &pauli::sigma_y().kron(&pauli::sigma_y());
        for a in 0..n {
            for b in (a + 1)..n {
                controls.push((xy.scale_re(0.5).embed(n, &[a, b]), 0.02));
            }
        }
        let mut h = CMatrix::zeros(dim, dim);
        for (op, limit) in &controls {
            if rng.gen_range(0..4) != 0 {
                h += &op.scale_re(rng.gen_range(-1.0..1.0) * limit);
            }
        }
        let dt = rng.gen_range(0.1..2.0);
        h.scale(C64::new(0.0, -2.0 * PI * dt))
    }

    /// A dense random matrix whose 1-norm is far above θ₁₃, so `expm`
    /// scales and squares.
    fn large_norm(rng: &mut StdRng, dim: usize) -> CMatrix {
        let scale = rng.gen_range(6.0..400.0);
        crate::random_complex_matrix(rng, dim, dim).scale_re(scale)
    }

    /// A random matrix with about a third of its entries exactly `±0.0` in
    /// both parts, signs drawn independently, at a norm on either side of
    /// θ₁₃.
    fn signed_zeros(rng: &mut StdRng, dim: usize) -> CMatrix {
        let scale = rng.gen_range(0.1..20.0);
        let mut m = crate::random_complex_matrix(rng, dim, dim).scale_re(scale);
        for z in m.as_mut_slice() {
            if rng.gen_range(0..3) == 0 {
                let sign = |neg: bool| if neg { -0.0 } else { 0.0 };
                *z = C64::new(sign(rng.gen_bool(0.5)), sign(rng.gen_bool(0.5)));
            }
        }
        m
    }

    fn inputs(seed: u64, dim: usize) -> [(CMatrix, &'static str); 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        [
            (grape_step(&mut rng, dim), "GRAPE step"),
            (large_norm(&mut rng, dim), "large norm"),
            (signed_zeros(&mut rng, dim), "signed zeros"),
        ]
    }

    fn fixed_kernels_match<const N: usize>(seed: u64) {
        let [(a, _), (b, _), (c, _)] = inputs(seed, N);
        let [(fa, fb), (fc, _)] = [(&a, &b), (&c, &c)].map(|(x, y)| {
            (
                FixedMatrix::<N>::from_cmatrix(x),
                FixedMatrix::<N>::from_cmatrix(y),
            )
        });
        let mut fixed = FixedMatrix::<N>::default();
        let mut dense = CMatrix::default();
        for (x, y, fx, fy) in [(&a, &b, &fa, &fb), (&b, &c, &fb, &fc), (&c, &c, &fc, &fc)] {
            fx.matmul_into(fy, &mut fixed);
            x.matmul_into(y, &mut dense);
            assert_same_bits(&fixed.to_cmatrix(), &dense, "product");
        }
        let s = C64::real(-182.0);
        fixed.scale_into(&fc, s);
        dense.scale_into(&c, s);
        assert_same_bits(&fixed.to_cmatrix(), &dense, "scale");
        fixed.add_scaled(&fa, s);
        dense.add_scaled(&a, s);
        assert_same_bits(&fixed.to_cmatrix(), &dense, "add_scaled");
        let (fixed_inner, dense_inner) = (fc.hs_inner(&fa), c.hs_inner(&a));
        assert_eq!(
            (fixed_inner.re.to_bits(), fixed_inner.im.to_bits()),
            (dense_inner.re.to_bits(), dense_inner.im.to_bits())
        );
        assert_eq!(fc.one_norm().to_bits(), c.one_norm().to_bits());
    }

    fn fixed_expm_matches_reference<const N: usize>(seed: u64) {
        for (a, what) in inputs(seed, N) {
            let want = reference::try_expm(&a).expect("finite input");
            let mut fixed = FixedMatrix::<N>::default();
            expm_into(
                &FixedMatrix::from_cmatrix(&a),
                &mut ExpmWorkspace::new(),
                &mut fixed,
            )
            .expect("finite input");
            assert_same_bits(&fixed.to_cmatrix(), &want, what);
            let mut dense = CMatrix::default();
            expm_into(&a, &mut ExpmWorkspace::new(), &mut dense).expect("finite input");
            assert_same_bits(&dense, &want, what);
            assert_same_bits(&expm(&a), &want, what);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every `FixedMatrix` kernel the exponential uses matches
        /// `CMatrix`'s bit for bit.
        #[test]
        fn fixed_kernels_match_cmatrix_bit_for_bit(seed in 0u64..1_000_000) {
            fixed_kernels_match::<2>(seed);
            fixed_kernels_match::<4>(seed);
            fixed_kernels_match::<8>(seed);
        }

        /// The one Padé body, on `FixedMatrix` and on `CMatrix`, matches the
        /// frozen reference bit for bit on GRAPE step exponents,
        /// scaling-and-squaring inputs and signed-zero-heavy inputs.
        #[test]
        fn expm_matches_the_frozen_reference_bit_for_bit(seed in 0u64..1_000_000) {
            fixed_expm_matches_reference::<2>(seed);
            fixed_expm_matches_reference::<4>(seed);
            fixed_expm_matches_reference::<8>(seed);
            // Sizes without a fixed path run the same body on `CMatrix`.
            let mut rng = StdRng::seed_from_u64(seed);
            for dim in [3, 16] {
                for a in [large_norm(&mut rng, dim), signed_zeros(&mut rng, dim)] {
                    let want = reference::try_expm(&a).expect("finite input");
                    assert_same_bits(&expm(&a), &want, "CMatrix path");
                }
            }
        }
    }

    #[test]
    fn non_finite_input_is_an_error_at_once() {
        for dim in [2, 3, 4] {
            for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                for (r, c, imaginary) in [(0, 0, false), (dim - 1, 0, true)] {
                    let mut a = CMatrix::identity(dim).scale_re(0.3);
                    a[(r, c)] = if imaginary {
                        C64::new(0.0, bad)
                    } else {
                        C64::real(bad)
                    };
                    assert_eq!(
                        try_expm(&a),
                        Err(LinalgError::NonFinite),
                        "{dim}×{dim} {bad}"
                    );
                    let panic = std::panic::catch_unwind(|| expm(&a)).expect_err("expm panics");
                    let message = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .unwrap_or_default();
                    assert!(message.starts_with("expm: non-finite input"), "{message}");
                }
            }
        }
        // Finite entries whose 1-norm overflows are refused the same way.
        let huge = CMatrix::from_real(2, 2, &[f64::MAX; 4]);
        assert_eq!(try_expm(&huge), Err(LinalgError::NonFinite));
    }

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
        // results exactly, on either storage.
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
        let mut dense_ws = ExpmWorkspace::new();
        let mut fixed_ws = ExpmWorkspace::<FixedMatrix<2>>::new();
        let (mut dense, mut fixed) = (CMatrix::default(), FixedMatrix::default());
        for a in &inputs {
            let fresh = expm(a);
            expm_into(a, &mut dense_ws, &mut dense).expect("finite input");
            assert_same_bits(&dense, &fresh, "reused CMatrix workspace");
            if a.rows() == 2 {
                let a = FixedMatrix::from_cmatrix(a);
                expm_into(&a, &mut fixed_ws, &mut fixed).expect("finite input");
                assert_same_bits(&fixed.to_cmatrix(), &fresh, "reused fixed workspace");
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
