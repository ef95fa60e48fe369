//! Commutation analysis between instructions.
//!
//! The paper's front-end removes false dependences from the gate dependence
//! graph by detecting commuting gates (§3.3.1, Table 2). Two mechanisms are
//! provided here:
//!
//! * a fast per-qubit classification ([`commute_structural`]) following the
//!   commutation-group idea of §3.3.2 — two gates commute when, on every
//!   shared qubit, their single-qubit actions commute (diagonal-with-diagonal,
//!   X-with-X, …), and
//! * the exact check ([`commute_exact`]) that explicitly compares `A·B` with
//!   `B·A` on the joint support, which is what the paper says its frontend
//!   does ("resolved by explicitly checking the equality of unitary operators
//!   ÂB̂ and B̂Â").

use crate::circuit::{sequence_unitary, Instruction};
use qcc_math::CMatrix;

/// Tolerance used when comparing unitaries entry-wise.
pub const COMMUTE_TOL: f64 = 1e-9;

/// Fast, conservative structural commutation check.
///
/// Returns `true` only when the gates certainly commute:
/// * they share no qubits, or
/// * on every shared qubit, the per-qubit axis actions commute.
///
/// This never reports a false positive for the gate set of this crate, but may
/// miss exotic commutations (which [`commute_exact`] will catch).
pub fn commute_structural(a: &Instruction, b: &Instruction) -> bool {
    let shared = a.shared_qubits(b);
    if shared.is_empty() {
        return true;
    }
    shared.iter().all(|&q| {
        let pa = a.position_of(q).expect("shared qubit in a");
        let pb = b.position_of(q).expect("shared qubit in b");
        a.gate.axis_on(pa).commutes_with(b.gate.axis_on(pb))
    })
}

/// Exact commutation check by comparing the two products on the joint support.
///
/// The joint support is the union of the qubits of both instructions (at most
/// four qubits for flattened circuits), so the dense comparison is cheap.
pub fn commute_exact(a: &Instruction, b: &Instruction) -> bool {
    let shared = a.shared_qubits(b);
    if shared.is_empty() {
        return true;
    }
    let (ma, mb) = joint_matrices(a, b);
    let ab = ma.matmul(&mb);
    let ba = mb.matmul(&ma);
    ab.approx_eq(&ba, COMMUTE_TOL)
}

/// Combined check: the cheap structural test first, then the exact unitary
/// comparison as a fallback.
pub fn commute(a: &Instruction, b: &Instruction) -> bool {
    commute_structural(a, b) || commute_exact(a, b)
}

/// Embeds both instructions on their joint qubit support and returns the two
/// matrices (in the same local ordering).
pub fn joint_matrices(a: &Instruction, b: &Instruction) -> (CMatrix, CMatrix) {
    let mut support: Vec<usize> = a.qubits.clone();
    for &q in &b.qubits {
        if !support.contains(&q) {
            support.push(q);
        }
    }
    support.sort_unstable();
    let local = |inst: &Instruction| -> Vec<usize> {
        inst.qubits
            .iter()
            .map(|q| {
                support
                    .iter()
                    .position(|s| s == q)
                    .expect("qubit in support")
            })
            .collect()
    };
    let n = support.len();
    let ma = a.gate.matrix().embed(n, &local(a));
    let mb = b.gate.matrix().embed(n, &local(b));
    (ma, mb)
}

/// Whether an instruction is diagonal in the computational basis.
pub fn is_diagonal(inst: &Instruction) -> bool {
    inst.gate.is_diagonal()
}

/// Whether a *sequence* of instructions implements a diagonal unitary on its
/// joint support (e.g. the CNOT–Rz–CNOT blocks of §4.2), verified by building
/// the product matrix.
///
/// Returns `false` for sequences spanning more than `max_qubits` qubits (the
/// paper restricts diagonal-block detection to 2-qubit-wide blocks to preserve
/// parallelism).
pub fn sequence_is_diagonal(instructions: &[&Instruction], max_qubits: usize) -> bool {
    if instructions.is_empty() {
        return true;
    }
    let mut support: Vec<usize> = Vec::new();
    for inst in instructions {
        for &q in &inst.qubits {
            if !support.contains(&q) {
                support.push(q);
            }
        }
    }
    if support.len() > max_qubits {
        return false;
    }
    support.sort_unstable();
    sequence_unitary(instructions.iter().copied(), &support).is_diagonal(COMMUTE_TOL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    fn inst(gate: Gate, qubits: &[usize]) -> Instruction {
        Instruction::new(gate, qubits.to_vec())
    }

    // ------- Table 2 of the paper -------

    #[test]
    fn disjoint_gates_commute() {
        let a = inst(Gate::H, &[0]);
        let b = inst(Gate::Cnot, &[1, 2]);
        assert!(commute_structural(&a, &b));
        assert!(commute_exact(&a, &b));
    }

    #[test]
    fn rz_commutes_with_cnot_control() {
        let rz = inst(Gate::Rz(0.7), &[0]);
        let cnot = inst(Gate::Cnot, &[0, 1]);
        assert!(commute(&rz, &cnot));
        assert!(commute_structural(&rz, &cnot));
        assert!(commute_exact(&rz, &cnot));
    }

    #[test]
    fn rz_does_not_commute_with_cnot_target() {
        let rz = inst(Gate::Rz(0.7), &[1]);
        let cnot = inst(Gate::Cnot, &[0, 1]);
        assert!(!commute(&rz, &cnot));
    }

    #[test]
    fn diagonal_gates_commute() {
        let a = inst(Gate::Rzz(0.4), &[0, 1]);
        let b = inst(Gate::Rzz(1.9), &[1, 2]);
        assert!(commute(&a, &b));
        let cz1 = inst(Gate::Cz, &[0, 1]);
        let cz2 = inst(Gate::CPhase(0.3), &[0, 1]);
        assert!(commute(&cz1, &cz2));
    }

    #[test]
    fn cnots_with_disjoint_controls_sharing_target_commute() {
        // Table 2, bottom-right: CNOTs with different controls and the same
        // target commute.
        let a = inst(Gate::Cnot, &[0, 2]);
        let b = inst(Gate::Cnot, &[1, 2]);
        assert!(commute(&a, &b));
        assert!(commute_structural(&a, &b));
    }

    #[test]
    fn cnots_sharing_control_commute() {
        let a = inst(Gate::Cnot, &[0, 1]);
        let b = inst(Gate::Cnot, &[0, 2]);
        assert!(commute(&a, &b));
    }

    // ------- Negative cases and exact-check fallbacks -------

    #[test]
    fn sequential_cnots_in_chain_do_not_commute() {
        let a = inst(Gate::Cnot, &[0, 1]);
        let b = inst(Gate::Cnot, &[1, 2]);
        assert!(!commute(&a, &b));
    }

    #[test]
    fn x_does_not_commute_with_h() {
        let a = inst(Gate::X, &[0]);
        let b = inst(Gate::H, &[0]);
        assert!(!commute(&a, &b));
    }

    #[test]
    fn x_commutes_with_cnot_target() {
        let x = inst(Gate::X, &[1]);
        let cnot = inst(Gate::Cnot, &[0, 1]);
        assert!(commute(&x, &cnot));
    }

    #[test]
    fn structural_matches_exact_on_standard_pairs() {
        let gates: Vec<Instruction> = vec![
            inst(Gate::H, &[0]),
            inst(Gate::Rz(0.3), &[0]),
            inst(Gate::Rx(0.9), &[1]),
            inst(Gate::Cnot, &[0, 1]),
            inst(Gate::Cnot, &[1, 0]),
            inst(Gate::Cz, &[0, 1]),
            inst(Gate::Rzz(1.2), &[0, 1]),
            inst(Gate::Swap, &[0, 1]),
            inst(Gate::T, &[1]),
            inst(Gate::X, &[0]),
        ];
        for a in &gates {
            for b in &gates {
                // The structural test must never claim commutation that the
                // exact check refutes.
                if commute_structural(a, b) {
                    assert!(commute_exact(a, b), "structural false positive: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn diagonal_sequence_detection() {
        let c1 = inst(Gate::Cnot, &[0, 1]);
        let rz = inst(Gate::Rz(0.8), &[1]);
        let c2 = inst(Gate::Cnot, &[0, 1]);
        assert!(sequence_is_diagonal(&[&c1, &rz, &c2], 2));
        // A bare CNOT is not diagonal.
        assert!(!sequence_is_diagonal(&[&c1], 2));
        // Width restriction.
        let c3 = inst(Gate::Cnot, &[1, 2]);
        assert!(!sequence_is_diagonal(&[&c1, &c3, &c1, &c3], 2));
    }

    #[test]
    fn diagonal_instruction_flag() {
        assert!(is_diagonal(&inst(Gate::Rzz(0.3), &[0, 1])));
        assert!(is_diagonal(&inst(Gate::T, &[0])));
        assert!(!is_diagonal(&inst(Gate::Cnot, &[0, 1])));
    }
}
