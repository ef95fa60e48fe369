//! Fidelity and distance measures between unitaries and states.
//!
//! These definitions match the ones used by GRAPE-style optimal control: the
//! target functional is the phase-insensitive gate fidelity
//! `F = |tr(U_target† U)|² / d²`.

use crate::complex::C64;
use crate::matrix::CMatrix;

/// Phase-insensitive gate (process) fidelity between two unitaries.
///
/// `F = |tr(A† B)|² / d²` — equal to 1 exactly when `A` and `B` agree up to a
/// global phase.
///
/// # Panics
///
/// Panics if the matrices are not square or their dimensions differ.
pub fn gate_fidelity(a: &CMatrix, b: &CMatrix) -> f64 {
    assert!(
        a.is_square() && b.is_square(),
        "fidelity of non-square matrices"
    );
    assert_eq!(a.rows(), b.rows(), "dimension mismatch");
    let d = a.rows() as f64;
    let overlap: C64 = a.hs_inner(b);
    overlap.norm_sqr() / (d * d)
}

/// Gate infidelity `1 - F`.
pub fn gate_infidelity(a: &CMatrix, b: &CMatrix) -> f64 {
    1.0 - gate_fidelity(a, b)
}

/// Average gate fidelity for a d-dimensional system,
/// `F_avg = (d·F_pro + 1) / (d + 1)` where `F_pro` is [`gate_fidelity`].
pub fn average_gate_fidelity(a: &CMatrix, b: &CMatrix) -> f64 {
    let d = a.rows() as f64;
    (d * gate_fidelity(a, b) + 1.0) / (d + 1.0)
}

/// Squared overlap `|⟨a|b⟩|²` between two pure states.
///
/// # Panics
///
/// Panics if the state vectors have different lengths.
pub fn state_fidelity(a: &[C64], b: &[C64]) -> f64 {
    assert_eq!(a.len(), b.len(), "state dimension mismatch");
    let overlap: C64 = a.iter().zip(b.iter()).map(|(x, y)| x.conj() * *y).sum();
    overlap.norm_sqr()
}

/// Frobenius distance `‖A - B‖_F`.
pub fn frobenius_distance(a: &CMatrix, b: &CMatrix) -> f64 {
    (a - b).frobenius_norm()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::expm::propagator;

    fn pauli_x() -> CMatrix {
        CMatrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
    }

    #[test]
    fn identical_unitaries_have_unit_fidelity() {
        let x = pauli_x();
        assert!((gate_fidelity(&x, &x) - 1.0).abs() < 1e-14);
        assert!(gate_infidelity(&x, &x).abs() < 1e-14);
    }

    #[test]
    fn global_phase_ignored() {
        let x = pauli_x();
        let phased = x.scale(C64::cis(2.13));
        assert!((gate_fidelity(&x, &phased) - 1.0).abs() < 1e-13);
    }

    #[test]
    fn orthogonal_gates_have_low_fidelity() {
        let x = pauli_x();
        let id = CMatrix::identity(2);
        // tr(X† I) = 0
        assert!(gate_fidelity(&x, &id) < 1e-14);
        assert!((average_gate_fidelity(&x, &id) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_continuity_under_small_rotation() {
        let id = CMatrix::identity(2);
        let slightly = propagator(&pauli_x(), 0.01);
        let f = gate_fidelity(&id, &slightly);
        assert!(f > 0.9999 && f <= 1.0);
    }

    #[test]
    fn state_fidelity_basics() {
        let zero = vec![C64::one(), C64::zero()];
        let one = vec![C64::zero(), C64::one()];
        let plus = vec![c64(1.0 / 2f64.sqrt(), 0.0), c64(1.0 / 2f64.sqrt(), 0.0)];
        assert!((state_fidelity(&zero, &zero) - 1.0).abs() < 1e-14);
        assert!(state_fidelity(&zero, &one) < 1e-14);
        assert!((state_fidelity(&zero, &plus) - 0.5).abs() < 1e-14);
    }

    #[test]
    fn frobenius_distance_zero_iff_equal() {
        let x = pauli_x();
        assert!(frobenius_distance(&x, &x) < 1e-15);
        assert!(frobenius_distance(&x, &CMatrix::identity(2)) > 1.0);
    }
}
