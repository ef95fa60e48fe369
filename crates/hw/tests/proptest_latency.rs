//! Property tests for `CalibratedLatencyModel::aggregate_latency`: the price
//! of an aggregate is a pure function of its gates, so it must come out
//! bit-identical across repeated calls and under any relabelling of its
//! qubits — no float sum may depend on hash-map iteration order.

use proptest::prelude::*;
use qcc_hw::{CalibratedLatencyModel, LatencyModel};
use qcc_ir::{Gate, Instruction};

/// Calls per case; each call builds fresh hash maps with fresh seeds.
const REPEATS: usize = 50;

/// One qubit (0) in three `Rzz` pairs — the smallest shape whose per-qubit
/// load sums three floats, where the summation order can change the bits —
/// plus a few random extra gates on up to `n` qubits.
fn aggregate(hub_angles: &[f64], extras: &[(usize, usize, f64)], n: usize) -> Vec<Instruction> {
    let mut gates: Vec<Instruction> = hub_angles
        .iter()
        .enumerate()
        .map(|(i, &theta)| Instruction::new(Gate::Rzz(theta), vec![0, i + 1]))
        .collect();
    for &(a, b, theta) in extras {
        let (a, b) = (a % n, b % n);
        if a == b {
            gates.push(Instruction::new(Gate::Rx(theta), vec![a]));
        } else {
            gates.push(Instruction::new(Gate::Rzz(theta), vec![a, b]));
        }
    }
    gates
}

/// The permutation that sorts `keys`: a uniformly random relabelling when
/// the keys are random.
fn permutation(keys: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&i, &j| keys[i].total_cmp(&keys[j]));
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aggregate_latency_bits_survive_repeats_and_relabelling(
        n in 4usize..9,
        hub_angles in prop::collection::vec(0.05f64..3.1, 3..4),
        extras in prop::collection::vec((0usize..64, 0usize..64, 0.05f64..3.1), 0..6),
        keys in prop::collection::vec(0.0f64..1.0, 8..9),
    ) {
        let model = CalibratedLatencyModel::asplos19();
        let gates = aggregate(&hub_angles, &extras, n);
        let reference = model.aggregate_latency(&gates).to_bits();
        for call in 0..REPEATS {
            prop_assert!(
                model.aggregate_latency(&gates).to_bits() == reference,
                "call {} of {:?} changed the bits", call, gates
            );
        }
        let relabel = permutation(&keys[..n]);
        let relabelled: Vec<Instruction> = gates
            .iter()
            .map(|g| {
                let qubits = g.qubits.iter().map(|&q| relabel[q]).collect();
                Instruction::new(g.gate, qubits)
            })
            .collect();
        prop_assert!(
            model.aggregate_latency(&relabelled).to_bits() == reference,
            "relabelling {:?} by {:?} changed the bits", gates, relabel
        );
    }
}
