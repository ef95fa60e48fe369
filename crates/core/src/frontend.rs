//! Compiler front-end: flattening and commutativity detection.
//!
//! The front-end lowers the input circuit to 1-/2-qubit gates (module
//! flattening, §3.3), wraps every gate in an [`AggregateInstruction`], and
//! contracts runs of gates that implement *diagonal* unitaries on a 2-qubit
//! support into single block instructions (§4.2). Those blocks — the
//! CNOT–Rz–CNOT structures of QAOA, Ising and UCCSD circuits — commute with
//! each other, which is what gives the commutativity-aware scheduler its
//! freedom (Fig. 6b).

use crate::instr::{AggregateInstruction, InstructionOrigin};
use qcc_ir::{commute, decompose, Circuit, Instruction};

/// Flattens a circuit to 1-/2-qubit gates and wraps each gate in its own
/// [`AggregateInstruction`].
pub fn lower(circuit: &Circuit) -> Vec<AggregateInstruction> {
    decompose::flatten(circuit)
        .instructions()
        .iter()
        .cloned()
        .map(AggregateInstruction::from_gate)
        .collect()
}

/// Maximum number of gates searched when growing one diagonal block, following
/// the paper's observation that such blocks are "typically no longer than 10
/// gates".
pub const MAX_BLOCK_GATES: usize = 10;

/// Detects diagonal blocks of width ≤ 2 and contracts them.
///
/// The scan looks, for every ordered qubit pair, at maximal runs of
/// consecutive instructions (in the order restricted to that pair) whose
/// product is diagonal; a run of length ≥ 2 is contracted into a single
/// [`InstructionOrigin::DiagonalBlock`] instruction. Instructions acting on
/// other qubits in between do not break a run (they commute trivially with
/// gates confined to the pair).
pub fn detect_diagonal_blocks(instrs: &[AggregateInstruction]) -> Vec<AggregateInstruction> {
    let mut result: Vec<AggregateInstruction> = Vec::new();
    let mut consumed = vec![false; instrs.len()];
    let mut i = 0usize;
    while i < instrs.len() {
        if consumed[i] {
            i += 1;
            continue;
        }
        let seed = &instrs[i];
        // Only start a block at a 2-qubit, single-gate instruction.
        if seed.width() != 2 || seed.gate_count() != 1 {
            result.push(seed.clone());
            consumed[i] = true;
            i += 1;
            continue;
        }
        let pair = seed.qubits.clone();
        // Collect the indices of the following instructions that stay within
        // the pair, stopping at the first instruction that touches exactly one
        // of the pair's qubits together with an outside qubit (that is a real
        // dependence that must not be reordered across).
        let mut window: Vec<usize> = vec![i];
        let mut j = i + 1;
        while j < instrs.len() && window.len() < MAX_BLOCK_GATES {
            if consumed[j] {
                j += 1;
                continue;
            }
            let other = &instrs[j];
            let touches_pair = other.qubits.iter().any(|q| pair.contains(q));
            let inside_pair = other.qubits.iter().all(|q| pair.contains(q));
            if !touches_pair {
                j += 1;
                continue;
            }
            if inside_pair && other.gate_count() == 1 {
                window.push(j);
                j += 1;
            } else {
                break;
            }
        }
        // Find the longest prefix of the window whose product is diagonal and
        // contains at least 2 gates.
        let mut best_len = 0usize;
        for len in (2..=window.len()).rev() {
            let gates: Vec<&Instruction> = window[..len]
                .iter()
                .map(|&k| &instrs[k].constituents[0])
                .collect();
            if commute::sequence_is_diagonal(&gates, 2) {
                best_len = len;
                break;
            }
        }
        if best_len >= 2 {
            let gates: Vec<Instruction> = window[..best_len]
                .iter()
                .map(|&k| instrs[k].constituents[0].clone())
                .collect();
            for &k in &window[..best_len] {
                consumed[k] = true;
            }
            result.push(AggregateInstruction::from_gates(
                gates,
                InstructionOrigin::DiagonalBlock,
            ));
        } else {
            result.push(seed.clone());
            consumed[i] = true;
        }
        i += 1;
    }
    result
}

/// Full front-end: flatten, then detect diagonal blocks.
pub fn run(circuit: &Circuit) -> Vec<AggregateInstruction> {
    detect_diagonal_blocks(&lower(circuit))
}

/// Reconstructs a plain circuit from an instruction list (used by verification
/// and by round-trip tests).
pub fn to_circuit(instrs: &[AggregateInstruction], n_qubits: usize) -> Circuit {
    let mut c = Circuit::new(n_qubits);
    for agg in instrs {
        for inst in &agg.constituents {
            c.push_instruction(inst.clone());
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_ir::Gate;

    fn qaoa_like_circuit() -> Circuit {
        // H layer, two CNOT-Rz-CNOT blocks sharing qubit 1, Rx layer.
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.push(Gate::H, &[q]);
        }
        c.push(Gate::Cnot, &[0, 1]);
        c.push(Gate::Rz(0.7), &[1]);
        c.push(Gate::Cnot, &[0, 1]);
        c.push(Gate::Cnot, &[1, 2]);
        c.push(Gate::Rz(0.7), &[2]);
        c.push(Gate::Cnot, &[1, 2]);
        for q in 0..3 {
            c.push(Gate::Rx(1.3), &[q]);
        }
        c
    }

    #[test]
    fn lower_flattens_toffoli() {
        let mut c = Circuit::new(3);
        c.push(Gate::Toffoli, &[0, 1, 2]);
        let instrs = lower(&c);
        assert!(instrs.iter().all(|i| i.width() <= 2));
        assert!(instrs.len() > 10);
    }

    #[test]
    fn detects_cnot_rz_cnot_blocks() {
        let instrs = lower(&qaoa_like_circuit());
        let detected = detect_diagonal_blocks(&instrs);
        let blocks: Vec<&AggregateInstruction> = detected
            .iter()
            .filter(|i| i.origin == InstructionOrigin::DiagonalBlock)
            .collect();
        assert_eq!(blocks.len(), 2, "{detected:?}");
        for b in &blocks {
            assert_eq!(b.gate_count(), 3);
            assert!(b.is_diagonal());
        }
        // 6 single-qubit gates survive unmerged.
        assert_eq!(detected.len(), 6 + 2);
    }

    #[test]
    fn detection_preserves_semantics() {
        let circuit = qaoa_like_circuit();
        let detected = run(&circuit);
        let rebuilt = to_circuit(&detected, circuit.n_qubits());
        assert!(rebuilt
            .unitary()
            .approx_eq_up_to_phase(&circuit.unitary(), 1e-9));
    }

    #[test]
    fn non_diagonal_runs_are_left_alone() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot, &[0, 1]);
        c.push(Gate::H, &[1]);
        c.push(Gate::Cnot, &[0, 1]);
        let detected = run(&c);
        assert!(detected
            .iter()
            .all(|i| i.origin != InstructionOrigin::DiagonalBlock));
        assert_eq!(detected.len(), 3);
    }

    #[test]
    fn longer_diagonal_chains_are_contracted() {
        // CNOT Rz CNOT Rz(q0) CZ — all on the same pair, product diagonal.
        let mut c = Circuit::new(2);
        c.push(Gate::Cnot, &[0, 1]);
        c.push(Gate::Rz(0.3), &[1]);
        c.push(Gate::Cnot, &[0, 1]);
        c.push(Gate::Rz(-0.2), &[0]);
        c.push(Gate::Cz, &[0, 1]);
        let detected = run(&c);
        assert_eq!(detected.len(), 1);
        assert_eq!(detected[0].gate_count(), 5);
        assert!(detected[0].is_diagonal());
    }

    #[test]
    fn interleaved_gates_on_other_qubits_do_not_break_blocks() {
        let mut c = Circuit::new(4);
        c.push(Gate::Cnot, &[0, 1]);
        c.push(Gate::H, &[3]); // unrelated
        c.push(Gate::Rz(0.4), &[1]);
        c.push(Gate::X, &[2]); // unrelated
        c.push(Gate::Cnot, &[0, 1]);
        let detected = run(&c);
        let blocks: Vec<_> = detected
            .iter()
            .filter(|i| i.origin == InstructionOrigin::DiagonalBlock)
            .collect();
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].gate_count(), 3);
        // Semantics preserved (the reordering only moves commuting gates).
        let rebuilt = to_circuit(&detected, 4);
        assert!(rebuilt.unitary().approx_eq_up_to_phase(&c.unitary(), 1e-9));
    }

    #[test]
    fn gate_crossing_the_pair_boundary_stops_the_block() {
        // The CNOT(1,2) in the middle shares qubit 1 with the pair (0,1) and
        // must not be jumped over.
        let mut c = Circuit::new(3);
        c.push(Gate::Cnot, &[0, 1]);
        c.push(Gate::Cnot, &[1, 2]);
        c.push(Gate::Rz(0.4), &[1]);
        c.push(Gate::Cnot, &[0, 1]);
        let detected = run(&c);
        assert!(detected
            .iter()
            .all(|i| i.origin != InstructionOrigin::DiagonalBlock));
        let rebuilt = to_circuit(&detected, 3);
        assert!(rebuilt.unitary().approx_eq_up_to_phase(&c.unitary(), 1e-9));
    }
}
