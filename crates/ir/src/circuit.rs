//! Quantum circuits: ordered lists of gate instructions on named qubits.

use crate::bytes::{ByteCursor, DecodeError};
use crate::gate::Gate;
use qcc_math::CMatrix;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A gate applied to specific qubits.
///
/// Qubits are dense indices `0..n_qubits` of the owning [`Circuit`]. The
/// ordering of `qubits` matters (e.g. control first for CNOT).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instruction {
    /// The logical gate.
    pub gate: Gate,
    /// Target qubits, in gate-defined order.
    pub qubits: Vec<usize>,
}

impl Instruction {
    /// Creates an instruction, checking the arity.
    ///
    /// # Panics
    ///
    /// Panics if the number of qubits does not match the gate arity or if a
    /// qubit repeats.
    pub fn new(gate: Gate, qubits: Vec<usize>) -> Self {
        assert_eq!(
            gate.arity(),
            qubits.len(),
            "gate {gate} expects {} qubits, got {}",
            gate.arity(),
            qubits.len()
        );
        for (i, q) in qubits.iter().enumerate() {
            assert!(
                !qubits[..i].contains(q),
                "instruction {gate} has duplicate qubit {q}"
            );
        }
        Self { gate, qubits }
    }

    /// Whether the instruction touches qubit `q`.
    pub fn acts_on(&self, q: usize) -> bool {
        self.qubits.contains(&q)
    }

    /// Position of qubit `q` within the instruction's operand list.
    pub fn position_of(&self, q: usize) -> Option<usize> {
        self.qubits.iter().position(|&x| x == q)
    }

    /// Qubits shared with another instruction.
    pub fn shared_qubits(&self, other: &Instruction) -> Vec<usize> {
        self.qubits
            .iter()
            .copied()
            .filter(|q| other.acts_on(*q))
            .collect()
    }

    /// Appends an injective byte encoding of the instruction to `out`: the
    /// gate's encoding ([`Gate::encode_into`]) followed by the operand count
    /// and each qubit index, little-endian. Concatenating instruction
    /// encodings yields a prefix-free stream, so two gate *sequences* encode
    /// identically only when they are identical — the property cache keys and
    /// circuit fingerprints need.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.gate.encode_into(out);
        out.push(self.qubits.len() as u8);
        for &q in &self.qubits {
            out.extend_from_slice(&(q as u64).to_le_bytes());
        }
    }

    /// Decodes one instruction from a byte stream written by
    /// [`encode_into`](Self::encode_into) — the exact inverse. The arity and
    /// duplicate-qubit invariants enforced (by panic) in
    /// [`Instruction::new`] are re-checked here as [`DecodeError`]s, so a
    /// corrupted snapshot degrades to a failed load, never a crash or an
    /// ill-formed instruction.
    pub fn decode_from(cursor: &mut ByteCursor<'_>) -> Result<Self, DecodeError> {
        let gate = Gate::decode_from(cursor)?;
        let count_offset = cursor.offset();
        let count = cursor.u8("instruction qubit count")? as usize;
        if count != gate.arity() {
            return Err(DecodeError {
                what: "instruction qubit count (arity mismatch)",
                offset: count_offset,
            });
        }
        let mut qubits = Vec::with_capacity(count);
        for _ in 0..count {
            let q_offset = cursor.offset();
            let q = cursor.u64("instruction qubit index")?;
            let q = usize::try_from(q).map_err(|_| DecodeError {
                what: "instruction qubit index (out of range)",
                offset: q_offset,
            })?;
            if qubits.contains(&q) {
                return Err(DecodeError {
                    what: "instruction qubit index (duplicate)",
                    offset: q_offset,
                });
            }
            qubits.push(q);
        }
        Ok(Self { gate, qubits })
    }
}

/// The unitary of `instructions`, applied in order, on the register whose
/// qubit `r` (big-endian, as in [`CMatrix::embed`]) is `support[r]`.
///
/// Each gate is applied in place with [`CMatrix::apply_gate`], so the result
/// is bit-for-bit the product of the embedded gate matrices.
///
/// # Panics
///
/// Panics if an instruction acts on a qubit outside `support`.
pub fn sequence_unitary<'a>(
    instructions: impl IntoIterator<Item = &'a Instruction>,
    support: &[usize],
) -> CMatrix {
    let mut u = CMatrix::identity(1 << support.len());
    let (mut local, mut rows) = (Vec::new(), Vec::new());
    for inst in instructions {
        local.clear();
        local.extend(inst.qubits.iter().map(|q| {
            support
                .iter()
                .position(|s| s == q)
                .expect("instruction acts within the support")
        }));
        u.apply_gate(&inst.gate.matrix(), &local, &mut rows);
    }
    u
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.gate)?;
        write!(f, " ")?;
        let qs: Vec<String> = self.qubits.iter().map(|q| format!("q{q}")).collect();
        write!(f, "{}", qs.join(","))
    }
}

/// A quantum circuit over `n_qubits` qubits.
///
/// # Examples
///
/// ```
/// use qcc_ir::{Circuit, Gate};
/// let mut c = Circuit::new(2);
/// c.push(Gate::H, &[0]);
/// c.push(Gate::Cnot, &[0, 1]);
/// assert_eq!(c.len(), 2);
/// assert_eq!(c.depth(), 2);
/// assert_eq!(c.two_qubit_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Circuit {
    n_qubits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// Creates an empty circuit on `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Self {
            n_qubits,
            instructions: Vec::new(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` when the circuit contains no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instruction list.
    #[inline]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range or the arity is wrong.
    pub fn push(&mut self, gate: Gate, qubits: &[usize]) -> &mut Self {
        for q in qubits {
            assert!(*q < self.n_qubits, "qubit {q} out of range");
        }
        self.instructions
            .push(Instruction::new(gate, qubits.to_vec()));
        self
    }

    /// Appends an existing instruction.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index is out of range.
    pub fn push_instruction(&mut self, inst: Instruction) -> &mut Self {
        for q in &inst.qubits {
            assert!(*q < self.n_qubits, "qubit {q} out of range");
        }
        self.instructions.push(inst);
        self
    }

    /// Appends every instruction of `other` (which must have the same width).
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        assert_eq!(self.n_qubits, other.n_qubits, "circuit width mismatch");
        self.instructions.extend(other.instructions.iter().cloned());
        self
    }

    /// The inverse circuit (reversed order, each gate daggered).
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::new(self.n_qubits);
        for inst in self.instructions.iter().rev() {
            inv.push(inst.gate.dagger(), &inst.qubits);
        }
        inv
    }

    /// Circuit depth counting every instruction as one time step.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for inst in &self.instructions {
            let start = inst.qubits.iter().map(|&q| level[q]).max().unwrap_or(0);
            let end = start + 1;
            for &q in &inst.qubits {
                level[q] = end;
            }
            depth = depth.max(end);
        }
        depth
    }

    /// Weighted depth (critical path) where each instruction's duration is
    /// given by `cost`.
    pub fn weighted_depth<F: Fn(&Instruction) -> f64>(&self, cost: F) -> f64 {
        let mut level = vec![0.0f64; self.n_qubits];
        let mut depth = 0.0f64;
        for inst in &self.instructions {
            let start = inst.qubits.iter().map(|&q| level[q]).fold(0.0f64, f64::max);
            let end = start + cost(inst);
            for &q in &inst.qubits {
                level[q] = end;
            }
            depth = depth.max(end);
        }
        depth
    }

    /// Total number of two-qubit instructions.
    pub fn two_qubit_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.qubits.len() == 2)
            .count()
    }

    /// Histogram of gate names.
    pub fn gate_counts(&self) -> HashMap<&'static str, usize> {
        let mut counts = HashMap::new();
        for inst in &self.instructions {
            *counts.entry(inst.gate.name()).or_insert(0) += 1;
        }
        counts
    }

    /// Builds the full `2^n × 2^n` unitary of the circuit.
    ///
    /// Only intended for small circuits (n ≤ 12 or so); larger requests panic
    /// to avoid accidental exponential blow-ups.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than 12 qubits.
    pub fn unitary(&self) -> CMatrix {
        assert!(
            self.n_qubits <= 12,
            "refusing to build a dense unitary for {} qubits",
            self.n_qubits
        );
        let register: Vec<usize> = (0..self.n_qubits).collect();
        sequence_unitary(&self.instructions, &register)
    }

    /// Returns a copy with any `is_identity` gates removed.
    pub fn without_identities(&self) -> Circuit {
        let mut c = Circuit::new(self.n_qubits);
        for inst in &self.instructions {
            if !inst.gate.is_identity() {
                c.push_instruction(inst.clone());
            }
        }
        c
    }

    /// The list of qubits that are actually touched by at least one gate.
    pub fn active_qubits(&self) -> Vec<usize> {
        let mut used = vec![false; self.n_qubits];
        for inst in &self.instructions {
            for &q in &inst.qubits {
                used[q] = true;
            }
        }
        (0..self.n_qubits).filter(|&q| used[q]).collect()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Circuit({} qubits, {} gates)", self.n_qubits, self.len())?;
        for inst in &self.instructions {
            writeln!(f, "  {inst}")?;
        }
        Ok(())
    }
}

impl FromIterator<Instruction> for Circuit {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        let insts: Vec<Instruction> = iter.into_iter().collect();
        let n = insts
            .iter()
            .flat_map(|i| i.qubits.iter().copied())
            .max()
            .map_or(0, |m| m + 1);
        let mut c = Circuit::new(n);
        for i in insts {
            c.push_instruction(i);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_math::pauli;

    fn bell_circuit() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cnot, &[0, 1]);
        c
    }

    #[test]
    fn instruction_encoding_is_injective() {
        let encode = |insts: &[Instruction]| {
            let mut key = Vec::new();
            for inst in insts {
                inst.encode_into(&mut key);
            }
            key
        };
        // Gate order matters (X·H vs H·X), nearby angles differ bit-wise, and
        // the same gate on different qubits keys separately.
        let xh = [
            Instruction::new(Gate::X, vec![0]),
            Instruction::new(Gate::H, vec![0]),
        ];
        let hx = [
            Instruction::new(Gate::H, vec![0]),
            Instruction::new(Gate::X, vec![0]),
        ];
        assert_ne!(encode(&xh), encode(&hx));
        assert_ne!(
            encode(&[Instruction::new(Gate::Rz(0.40001), vec![0])]),
            encode(&[Instruction::new(Gate::Rz(0.40004), vec![0])])
        );
        assert_ne!(
            encode(&[Instruction::new(Gate::Rz(0.4), vec![0])]),
            encode(&[Instruction::new(Gate::Rx(0.4), vec![0])])
        );
        assert_ne!(
            encode(&[Instruction::new(Gate::Cnot, vec![0, 1])]),
            encode(&[Instruction::new(Gate::Cnot, vec![1, 0])])
        );
        // Identical sequences encode identically.
        assert_eq!(encode(&xh), encode(&xh));
    }

    #[test]
    fn instruction_decoding_inverts_encoding() {
        let all = [
            Instruction::new(Gate::I, vec![3]),
            Instruction::new(Gate::X, vec![0]),
            Instruction::new(Gate::Y, vec![1]),
            Instruction::new(Gate::Z, vec![2]),
            Instruction::new(Gate::H, vec![0]),
            Instruction::new(Gate::S, vec![4]),
            Instruction::new(Gate::Sdg, vec![5]),
            Instruction::new(Gate::T, vec![6]),
            Instruction::new(Gate::Tdg, vec![7]),
            Instruction::new(Gate::Rx(0.25), vec![0]),
            Instruction::new(Gate::Ry(-1.5), vec![1]),
            Instruction::new(Gate::Rz(1e-300), vec![2]),
            Instruction::new(Gate::Phase(-0.0), vec![3]),
            Instruction::new(Gate::Cnot, vec![0, 1]),
            Instruction::new(Gate::Cz, vec![2, 3]),
            Instruction::new(Gate::CPhase(0.125), vec![1, 0]),
            Instruction::new(Gate::Swap, vec![4, 2]),
            Instruction::new(Gate::ISwap, vec![0, 5]),
            Instruction::new(Gate::SqrtISwap, vec![6, 1]),
            Instruction::new(Gate::Rzz(2.5), vec![3, 0]),
            Instruction::new(Gate::Rxy(-0.75), vec![0, 2]),
            Instruction::new(Gate::Toffoli, vec![0, 1, 2]),
            Instruction::new(Gate::Fredkin, vec![2, 1, 0]),
        ];
        let mut buf = Vec::new();
        for inst in &all {
            inst.encode_into(&mut buf);
        }
        let mut cur = ByteCursor::new(&buf);
        for inst in &all {
            let decoded = Instruction::decode_from(&mut cur).expect("round trip");
            assert_eq!(&decoded, inst);
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn instruction_decoding_rejects_malformed_streams() {
        // Unknown gate tag.
        let mut cur = ByteCursor::new(&[0xff]);
        assert!(Instruction::decode_from(&mut cur).is_err());
        // Arity mismatch: CNOT (tag 13) claiming one operand.
        let mut buf = vec![13u8, 1];
        buf.extend_from_slice(&0u64.to_le_bytes());
        let mut cur = ByteCursor::new(&buf);
        assert!(Instruction::decode_from(&mut cur).is_err());
        // Duplicate operand: CNOT on (q1, q1).
        let mut buf = vec![13u8, 2];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        let mut cur = ByteCursor::new(&buf);
        let err = Instruction::decode_from(&mut cur).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
        // Every strict prefix of a valid encoding is rejected.
        let mut full = Vec::new();
        Instruction::new(Gate::Rzz(0.5), vec![0, 3]).encode_into(&mut full);
        for cut in 0..full.len() {
            let mut cur = ByteCursor::new(&full[..cut]);
            assert!(Instruction::decode_from(&mut cur).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn push_and_counts() {
        let c = bell_circuit();
        assert_eq!(c.len(), 2);
        assert_eq!(c.depth(), 2);
        assert_eq!(c.two_qubit_count(), 1);
        assert_eq!(c.gate_counts()["h"], 1);
        assert_eq!(c.active_qubits(), vec![0, 1]);
    }

    #[test]
    fn depth_accounts_for_parallel_gates() {
        let mut c = Circuit::new(4);
        c.push(Gate::H, &[0]);
        c.push(Gate::H, &[1]);
        c.push(Gate::H, &[2]);
        c.push(Gate::H, &[3]);
        assert_eq!(c.depth(), 1);
        c.push(Gate::Cnot, &[0, 1]);
        c.push(Gate::Cnot, &[2, 3]);
        assert_eq!(c.depth(), 2);
        c.push(Gate::Cnot, &[1, 2]);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn weighted_depth_uses_costs() {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::H, &[1]);
        c.push(Gate::Cnot, &[0, 1]);
        let d = c.weighted_depth(|i| if i.qubits.len() == 2 { 10.0 } else { 1.0 });
        assert!((d - 11.0).abs() < 1e-12);
    }

    #[test]
    fn unitary_of_bell_circuit() {
        let c = bell_circuit();
        let u = c.unitary();
        // Column 0 should be the Bell state (|00> + |11>)/√2.
        let inv_sqrt2 = 1.0 / 2f64.sqrt();
        assert!((u[(0, 0)].re - inv_sqrt2).abs() < 1e-12);
        assert!((u[(3, 0)].re - inv_sqrt2).abs() < 1e-12);
        assert!(u[(1, 0)].abs() < 1e-12);
        assert!(u.is_unitary(1e-12));
    }

    #[test]
    fn inverse_cancels_circuit() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::Rz(0.8), &[1]);
        c.push(Gate::Cnot, &[0, 2]);
        c.push(Gate::Rzz(1.1), &[1, 2]);
        c.push(Gate::T, &[2]);
        let mut full = c.clone();
        full.extend(&c.inverse());
        assert!(full.unitary().is_identity_up_to_phase(1e-10));
    }

    #[test]
    fn circuit_unitary_matches_kron_for_disjoint_gates() {
        let mut c = Circuit::new(2);
        c.push(Gate::X, &[0]);
        c.push(Gate::H, &[1]);
        let want = pauli::sigma_x().kron(&pauli::hadamard());
        assert!(c.unitary().approx_eq(&want, 1e-12));
    }

    #[test]
    fn without_identities_removes_only_identities() {
        let mut c = Circuit::new(2);
        c.push(Gate::I, &[0]);
        c.push(Gate::Rz(0.0), &[1]);
        c.push(Gate::X, &[0]);
        assert_eq!(c.without_identities().len(), 1);
    }

    #[test]
    fn from_iterator_builds_circuit() {
        let c: Circuit = vec![
            Instruction::new(Gate::H, vec![0]),
            Instruction::new(Gate::Cnot, vec![0, 2]),
        ]
        .into_iter()
        .collect();
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_qubit_panics() {
        let mut c = Circuit::new(2);
        c.push(Gate::X, &[5]);
    }

    #[test]
    #[should_panic]
    fn duplicate_qubit_panics() {
        Instruction::new(Gate::Cnot, vec![1, 1]);
    }
}
