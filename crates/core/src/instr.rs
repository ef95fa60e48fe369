//! Aggregated instructions — the compiler's unit of pulse generation.
//!
//! An [`AggregateInstruction`] wraps an ordered list of constituent logical
//! gates acting on a small set of qubits. The compiler starts with one
//! instruction per gate, contracts diagonal blocks during commutativity
//! detection (§4.2), and grows instructions further during the aggregation
//! pass (§4.3). The optimal-control unit ultimately compiles each instruction
//! into a single pulse.

use qcc_ir::{commute, sequence_unitary, Gate, Instruction};
use qcc_math::CMatrix;
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::fmt;

/// How an instruction came to exist — used for reporting and for pricing under
/// the different compilation strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstructionOrigin {
    /// A single logical gate from the input circuit.
    Single,
    /// A SWAP inserted by the router.
    RoutingSwap,
    /// A diagonal block contracted by commutativity detection.
    DiagonalBlock,
    /// A multi-gate aggregate produced by the aggregation pass.
    Aggregated,
    /// A pattern rewritten by the hand-optimization baseline.
    HandOptimized,
}

/// A (possibly aggregated) instruction: an ordered gate sequence on a small
/// qubit support, treated by the backend as a single pulse-generation unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateInstruction {
    /// Constituent gates in program order.
    pub constituents: Vec<Instruction>,
    /// Sorted list of qubits the instruction touches.
    pub qubits: Vec<usize>,
    /// Provenance of the instruction.
    pub origin: InstructionOrigin,
}

impl AggregateInstruction {
    /// Wraps a single gate.
    pub fn from_gate(inst: Instruction) -> Self {
        let mut qubits = inst.qubits.clone();
        qubits.sort_unstable();
        Self {
            constituents: vec![inst],
            qubits,
            origin: InstructionOrigin::Single,
        }
    }

    /// Builds an instruction from a gate sequence.
    ///
    /// # Panics
    ///
    /// Panics if `constituents` is empty.
    pub fn from_gates(constituents: Vec<Instruction>, origin: InstructionOrigin) -> Self {
        assert!(!constituents.is_empty(), "empty aggregated instruction");
        let mut qubits: Vec<usize> = Vec::new();
        for inst in &constituents {
            for &q in &inst.qubits {
                if !qubits.contains(&q) {
                    qubits.push(q);
                }
            }
        }
        qubits.sort_unstable();
        Self {
            constituents,
            qubits,
            origin,
        }
    }

    /// A routing SWAP between two physical qubits.
    pub fn routing_swap(a: usize, b: usize) -> Self {
        let mut s = Self::from_gate(Instruction::new(Gate::Swap, vec![a, b]));
        s.origin = InstructionOrigin::RoutingSwap;
        s
    }

    /// Number of qubits (the paper's "instruction width").
    pub fn width(&self) -> usize {
        self.qubits.len()
    }

    /// Number of constituent gates.
    pub fn gate_count(&self) -> usize {
        self.constituents.len()
    }

    /// Whether the instruction touches qubit `q`.
    pub fn acts_on(&self, q: usize) -> bool {
        self.qubits.contains(&q)
    }

    /// Qubits shared with another instruction.
    pub fn shared_qubits(&self, other: &AggregateInstruction) -> Vec<usize> {
        self.qubits
            .iter()
            .copied()
            .filter(|q| other.acts_on(*q))
            .collect()
    }

    /// Merges two instructions: `self` followed by `other`.
    pub fn merge(&self, other: &AggregateInstruction) -> AggregateInstruction {
        let mut constituents = self.constituents.clone();
        constituents.extend(other.constituents.iter().cloned());
        AggregateInstruction::from_gates(constituents, InstructionOrigin::Aggregated)
    }

    /// Remaps every qubit index through `mapping` (logical → physical).
    pub fn remap(&self, mapping: &[usize]) -> AggregateInstruction {
        let constituents = self
            .constituents
            .iter()
            .map(|i| Instruction::new(i.gate, i.qubits.iter().map(|&q| mapping[q]).collect()))
            .collect();
        AggregateInstruction::from_gates(constituents, self.origin)
    }

    /// The unitary implemented on the instruction's local (sorted) support.
    ///
    /// # Panics
    ///
    /// Panics for instructions wider than 10 qubits.
    pub fn local_unitary(&self) -> CMatrix {
        assert!(
            self.width() <= 10,
            "instruction too wide for a dense unitary"
        );
        sequence_unitary(&self.constituents, &self.qubits)
    }

    /// Whether the instruction is known to implement a diagonal unitary.
    ///
    /// Conservative past four qubits: an instruction wider than that counts
    /// as diagonal only when every constituent gate is, even if the product
    /// of non-diagonal gates happens to be diagonal.
    pub fn is_diagonal(&self) -> bool {
        LocalUnitary::default().is_diagonal(self)
    }

    /// Whether two instructions commute. Disjoint instructions always commute;
    /// otherwise the structural per-constituent check is tried first and the
    /// exact unitary comparison is used as a fallback for supports of up to
    /// four qubits.
    pub fn commutes_with(&self, other: &AggregateInstruction) -> bool {
        commutes(
            self,
            &LocalUnitary::default(),
            other,
            &LocalUnitary::default(),
        )
    }

    /// A compact label for displays (e.g. `G3[q2,q3]`).
    pub fn label(&self, index: usize) -> String {
        let qs: Vec<String> = self.qubits.iter().map(|q| q.to_string()).collect();
        format!("G{}[q{}]", index, qs.join(",q"))
    }
}

/// The local unitary and diagonal flag of one instruction shape, each built
/// on first use. Both depend only on the instruction's gates with qubits
/// ranked in its support, so one cache serves every instruction of a shape
/// (CLS keeps one per shape for a whole commutation-group build).
#[derive(Debug, Default)]
pub(crate) struct LocalUnitary {
    unitary: OnceCell<CMatrix>,
    diagonal: OnceCell<bool>,
}

impl LocalUnitary {
    /// [`AggregateInstruction::local_unitary`] of `inst`.
    fn unitary(&self, inst: &AggregateInstruction) -> &CMatrix {
        self.unitary.get_or_init(|| inst.local_unitary())
    }

    /// [`AggregateInstruction::is_diagonal`] of `inst`.
    fn is_diagonal(&self, inst: &AggregateInstruction) -> bool {
        *self.diagonal.get_or_init(|| {
            inst.constituents.iter().all(|i| i.gate.is_diagonal())
                || (inst.width() <= 4 && self.unitary(inst).is_diagonal(1e-9))
        })
    }
}

/// [`AggregateInstruction::commutes_with`], with each instruction's local
/// unitary and diagonal flag taken from (and built into) its cache. The
/// dense check embeds the two local unitaries onto the joint support and
/// compares both products at `1e-9`.
pub(crate) fn commutes(
    a: &AggregateInstruction,
    ua: &LocalUnitary,
    b: &AggregateInstruction,
    ub: &LocalUnitary,
) -> bool {
    if a.shared_qubits(b).is_empty() {
        return true;
    }
    // Structural: every constituent pair commutes structurally.
    let structural = a.constituents.iter().all(|x| {
        b.constituents
            .iter()
            .all(|y| commute::commute_structural(x, y))
    });
    if structural {
        return true;
    }
    // Both diagonal ⇒ commute.
    if ua.is_diagonal(a) && ub.is_diagonal(b) {
        return true;
    }
    // Exact check on the joint support when small enough.
    let mut support = a.qubits.clone();
    for &q in &b.qubits {
        if !support.contains(&q) {
            support.push(q);
        }
    }
    if support.len() > 4 {
        return false;
    }
    support.sort_unstable();
    let n = support.len();
    let embed = |inst: &AggregateInstruction, u: &LocalUnitary| {
        let ranks: Vec<usize> = inst
            .qubits
            .iter()
            .map(|q| support.binary_search(q).expect("in support"))
            .collect();
        u.unitary(inst).embed(n, &ranks)
    };
    let (ma, mb) = (embed(a, ua), embed(b, ub));
    ma.matmul(&mb).approx_eq(&mb.matmul(&ma), 1e-9)
}

impl fmt::Display for AggregateInstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let gates: Vec<String> = self.constituents.iter().map(|i| i.to_string()).collect();
        write!(f, "[{}]", gates.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_math::pauli;

    fn gate(g: Gate, qs: &[usize]) -> Instruction {
        Instruction::new(g, qs.to_vec())
    }

    #[test]
    fn from_gate_and_width() {
        let a = AggregateInstruction::from_gate(gate(Gate::Cnot, &[3, 1]));
        assert_eq!(a.qubits, vec![1, 3]);
        assert_eq!(a.width(), 2);
        assert_eq!(a.gate_count(), 1);
        assert_eq!(a.origin, InstructionOrigin::Single);
    }

    #[test]
    fn merge_unions_qubits_and_orders_gates() {
        let a = AggregateInstruction::from_gate(gate(Gate::H, &[0]));
        let b = AggregateInstruction::from_gate(gate(Gate::Cnot, &[0, 1]));
        let m = a.merge(&b);
        assert_eq!(m.qubits, vec![0, 1]);
        assert_eq!(m.gate_count(), 2);
        assert_eq!(m.origin, InstructionOrigin::Aggregated);
        assert_eq!(m.constituents[0].gate, Gate::H);
    }

    #[test]
    fn local_unitary_of_diagonal_block() {
        let block = AggregateInstruction::from_gates(
            vec![
                gate(Gate::Cnot, &[2, 5]),
                gate(Gate::Rz(0.9), &[5]),
                gate(Gate::Cnot, &[2, 5]),
            ],
            InstructionOrigin::DiagonalBlock,
        );
        assert_eq!(block.qubits, vec![2, 5]);
        assert!(block.is_diagonal());
        assert!(block
            .local_unitary()
            .approx_eq(&pauli::zz_rotation(0.9), 1e-12));
    }

    #[test]
    fn merge_preserves_unitary_composition() {
        let a = AggregateInstruction::from_gate(gate(Gate::H, &[0]));
        let b = AggregateInstruction::from_gate(gate(Gate::Cnot, &[0, 1]));
        let m = a.merge(&b);
        // U_m = CNOT · (H ⊗ I)
        let want = pauli::cnot().matmul(&pauli::hadamard().kron(&CMatrix::identity(2)));
        assert!(m.local_unitary().approx_eq(&want, 1e-12));
    }

    #[test]
    fn commutation_between_aggregates() {
        let zz1 = AggregateInstruction::from_gates(
            vec![
                gate(Gate::Cnot, &[0, 1]),
                gate(Gate::Rz(0.4), &[1]),
                gate(Gate::Cnot, &[0, 1]),
            ],
            InstructionOrigin::DiagonalBlock,
        );
        let zz2 = AggregateInstruction::from_gates(
            vec![
                gate(Gate::Cnot, &[1, 2]),
                gate(Gate::Rz(1.4), &[2]),
                gate(Gate::Cnot, &[1, 2]),
            ],
            InstructionOrigin::DiagonalBlock,
        );
        // Diagonal blocks sharing a qubit commute (Fig. 6b of the paper).
        assert!(zz1.commutes_with(&zz2));
        // A Hadamard on the shared qubit does not commute with the block.
        let h = AggregateInstruction::from_gate(gate(Gate::H, &[1]));
        assert!(!zz1.commutes_with(&h));
        // Disjoint instructions trivially commute.
        let far = AggregateInstruction::from_gate(gate(Gate::X, &[7]));
        assert!(zz1.commutes_with(&far));
    }

    #[test]
    fn constituent_cnots_do_not_commute_with_each_other() {
        // The gates inside a block do not commute even though the blocks do —
        // the observation at the heart of §3.3.1.
        let c01 = AggregateInstruction::from_gate(gate(Gate::Cnot, &[0, 1]));
        let c12 = AggregateInstruction::from_gate(gate(Gate::Cnot, &[1, 2]));
        assert!(!c01.commutes_with(&c12));
    }

    #[test]
    fn remap_changes_qubits() {
        let a = AggregateInstruction::from_gates(
            vec![gate(Gate::Cnot, &[0, 1]), gate(Gate::Rz(0.3), &[1])],
            InstructionOrigin::Aggregated,
        );
        let r = a.remap(&[5, 2, 0]);
        assert_eq!(r.qubits, vec![2, 5]);
        assert_eq!(r.constituents[0].qubits, vec![5, 2]);
    }

    #[test]
    fn routing_swap_origin() {
        let s = AggregateInstruction::routing_swap(2, 3);
        assert_eq!(s.origin, InstructionOrigin::RoutingSwap);
        assert_eq!(s.qubits, vec![2, 3]);
        assert!(!s.is_diagonal());
    }

    #[test]
    fn labels_are_readable() {
        let a = AggregateInstruction::from_gate(gate(Gate::Cnot, &[0, 1]));
        assert_eq!(a.label(3), "G3[q0,q1]");
        assert!(!format!("{a}").is_empty());
    }
}
