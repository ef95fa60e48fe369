//! Property-based tests for the IR layer: random circuits keep their semantics
//! through QASM round-trips, commuting swaps, and flattening.

use proptest::prelude::*;
use qcc_ir::{commute, decompose, qasm, Circuit, Gate};

/// Strategy producing a random gate on a register of `n` qubits.
fn arb_instruction(n: usize) -> impl Strategy<Value = (Gate, Vec<usize>)> {
    let single = (0usize..8, 0..n, -3.0f64..3.0).prop_map(|(kind, q, theta)| {
        let gate = match kind {
            0 => Gate::H,
            1 => Gate::X,
            2 => Gate::T,
            3 => Gate::S,
            4 => Gate::Rx(theta),
            5 => Gate::Ry(theta),
            6 => Gate::Rz(theta),
            _ => Gate::Phase(theta),
        };
        (gate, vec![q])
    });
    let double = (0usize..5, 0..n, 0..n, -3.0f64..3.0).prop_filter_map(
        "distinct qubits",
        |(kind, a, b, theta)| {
            if a == b {
                return None;
            }
            let gate = match kind {
                0 => Gate::Cnot,
                1 => Gate::Cz,
                2 => Gate::Swap,
                3 => Gate::Rzz(theta),
                _ => Gate::CPhase(theta),
            };
            Some((gate, vec![a, b]))
        },
    );
    prop_oneof![single, double]
}

fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_instruction(n), 1..max_len).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for (g, qs) in gates {
            c.push(g, &qs);
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// QASM round-trips preserve the circuit exactly.
    #[test]
    fn qasm_roundtrip_preserves_semantics(c in arb_circuit(4, 12)) {
        let text = qasm::write(&c);
        let parsed = qasm::parse(&text).expect("reparse");
        prop_assert_eq!(parsed.len(), c.len());
        prop_assert!(parsed.unitary().approx_eq(&c.unitary(), 1e-9));
    }

    /// Swapping two adjacent instructions that the structural check says
    /// commute never changes the circuit unitary.
    #[test]
    fn structural_commutation_is_sound(c in arb_circuit(4, 12), idx in 0usize..20) {
        let insts = c.instructions();
        if insts.len() < 2 {
            return Ok(());
        }
        let i = idx % (insts.len() - 1);
        let a = &insts[i];
        let b = &insts[i + 1];
        if commute::commute_structural(a, b) {
            let mut swapped = Circuit::new(c.n_qubits());
            for (k, inst) in insts.iter().enumerate() {
                if k == i {
                    swapped.push_instruction(insts[i + 1].clone());
                } else if k == i + 1 {
                    swapped.push_instruction(insts[i].clone());
                } else {
                    swapped.push_instruction(inst.clone());
                }
            }
            prop_assert!(swapped.unitary().approx_eq(&c.unitary(), 1e-9));
        }
    }

    /// The exact commutation check agrees with a direct comparison of the two
    /// full-register orderings.
    #[test]
    fn exact_commutation_matches_full_register(c in arb_circuit(3, 6)) {
        let insts = c.instructions();
        if insts.len() < 2 {
            return Ok(());
        }
        let a = &insts[0];
        let b = &insts[1];
        let n = c.n_qubits();
        let ma = a.gate.matrix().embed(n, &a.qubits);
        let mb = b.gate.matrix().embed(n, &b.qubits);
        let full_commute = ma.matmul(&mb).approx_eq(&mb.matmul(&ma), 1e-9);
        prop_assert_eq!(commute::commute_exact(a, b), full_commute);
    }

    /// Flattening (Toffoli decomposition) preserves the unitary up to phase.
    #[test]
    fn flatten_preserves_unitary(a in 0usize..3, b in 0usize..3, t in 0usize..3) {
        if a == b || b == t || a == t {
            return Ok(());
        }
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[a]);
        c.push(Gate::Toffoli, &[a, b, t]);
        c.push(Gate::Rz(0.4), &[t]);
        let flat = decompose::flatten(&c);
        prop_assert!(flat.instructions().iter().all(|i| i.qubits.len() <= 2));
        prop_assert!(flat.unitary().approx_eq_up_to_phase(&c.unitary(), 1e-9));
    }

    /// Circuit inverse composes to the identity.
    #[test]
    fn inverse_composes_to_identity(c in arb_circuit(3, 10)) {
        let mut full = c.clone();
        full.extend(&c.inverse());
        prop_assert!(full.unitary().is_identity_up_to_phase(1e-8));
    }

    /// Depth never exceeds the instruction count and is at least
    /// ceil(len / n_qubits) for non-empty circuits.
    #[test]
    fn depth_bounds(c in arb_circuit(4, 16)) {
        let d = c.depth();
        prop_assert!(d <= c.len());
        prop_assert!(d >= 1);
    }

    /// Instruction byte encodings decode back bit-identically (the snapshot
    /// format is layered over this encoding), and the concatenated stream is
    /// self-delimiting: decoding consumes exactly the bytes written.
    #[test]
    fn instruction_encoding_round_trips(c in arb_circuit(5, 14)) {
        let mut buf = Vec::new();
        for inst in c.instructions() {
            inst.encode_into(&mut buf);
        }
        let mut cur = qcc_ir::ByteCursor::new(&buf);
        for inst in c.instructions() {
            let decoded = qcc_ir::Instruction::decode_from(&mut cur).expect("round trip");
            // Bit-identity: the decoded instruction re-encodes to the same bytes.
            let (mut a, mut b) = (Vec::new(), Vec::new());
            decoded.encode_into(&mut a);
            inst.encode_into(&mut b);
            prop_assert_eq!(a, b);
            prop_assert_eq!(&decoded.qubits, &inst.qubits);
        }
        prop_assert!(cur.is_empty());
    }
}
