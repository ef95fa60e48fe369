//! Independent output check with the state-vector simulator.
//!
//! A compiled output acts on physical qubits: logical qubit `l` starts on
//! `initial_layout[l]` and ends on `final_layout[l]`, and routing SWAPs may
//! pass through physical qubits that hold no logical qubit ("spare" qubits).
//! The check simulates only the physical qubits the output touches,
//! relabelled densely, starts every spare qubit in |0⟩, and compares
//! against the input circuit simulated on its own register:
//!
//! 1. draw a seeded random state ψ of the logical register;
//! 2. reference: C·ψ on the logical register;
//! 3. compiled: place ψ on the initial positions (spares in |0⟩), apply
//!    every constituent gate of the output in order;
//! 4. expect C·ψ on the final positions with every free position in |0⟩,
//!    equal up to a global phase.
//!
//! A random state separates two unitaries that differ by more than a
//! global phase with probability one, so a single state suffices. Nothing
//! here calls the compiler's own verifier, which treats spare qubits as
//! fixed and rejects correct grid compiles.

use qcc_core::CompilationResult;
use qcc_ir::{Circuit, Instruction};
use qcc_math::C64;
use qcc_sim::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Widest physical register the check simulates.
pub const MAX_QUBITS: usize = 16;

/// Largest simulation the check runs, in gate-amplitude updates
/// (constituent gates × 2^qubits); larger outputs are counted as skipped.
pub const MAX_WORK: usize = 1 << 26;

/// Largest allowed `1 - |⟨expected|actual⟩|`.
const TOLERANCE: f64 = 1e-9;

/// Outcome of checking one output.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The output implements the input circuit.
    Verified,
    /// The output is too large to simulate.
    Skipped,
    /// The output does not implement the input circuit.
    Rejected(String),
}

/// Checks that `result` implements `circuit` (see the module docs).
pub fn check(circuit: &Circuit, result: &CompilationResult) -> Verdict {
    let n = circuit.n_qubits();
    let (initial, last) = (
        &result.initial_layout.physical,
        &result.final_layout.physical,
    );
    if initial.len() != n || last.len() != n {
        return Verdict::Rejected(format!(
            "layouts cover {}/{} qubits, circuit has {n}",
            initial.len(),
            last.len()
        ));
    }
    let gates: Vec<&Instruction> = result
        .instructions
        .iter()
        .flat_map(|inst| inst.constituents.iter())
        .collect();
    let mut touched: Vec<usize> = gates
        .iter()
        .flat_map(|g| g.qubits.iter().copied())
        .chain(initial.iter().copied())
        .chain(last.iter().copied())
        .collect();
    touched.sort_unstable();
    touched.dedup();
    let m = touched.len();
    if m > MAX_QUBITS || (gates.len() + circuit.len()).saturating_mul(1 << m) > MAX_WORK {
        return Verdict::Skipped;
    }
    let dense = |p: usize| {
        touched
            .binary_search(&p)
            .expect("every physical qubit is in the touched set")
    };
    let start: Vec<usize> = initial.iter().map(|&p| dense(p)).collect();
    let end: Vec<usize> = last.iter().map(|&p| dense(p)).collect();
    if distinct(&start) < n || distinct(&end) < n {
        return Verdict::Rejected("a layout maps two logical qubits to one".into());
    }

    let psi = random_state(n, result.total_latency_ns.to_bits());
    let mut reference = psi.clone();
    reference.apply_circuit(circuit);

    let mut actual = StateVector::from_amplitudes(embed(psi.amplitudes(), n, m, &start));
    for gate in gates {
        let qubits: Vec<usize> = gate.qubits.iter().map(|&p| dense(p)).collect();
        actual.apply_instruction(&Instruction::new(gate.gate, qubits));
    }
    let expected = StateVector::from_amplitudes(embed(reference.amplitudes(), n, m, &end));
    let overlap = expected.inner(&actual).abs();
    if 1.0 - overlap <= TOLERANCE {
        Verdict::Verified
    } else {
        Verdict::Rejected(format!("state overlap {overlap:.12} < 1"))
    }
}

fn distinct(qubits: &[usize]) -> usize {
    let mut sorted = qubits.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// A normalized random state of `n` qubits drawn from `seed`.
fn random_state(n: usize, seed: u64) -> StateVector {
    let mut rng = StdRng::seed_from_u64(seed);
    let amplitudes = (0..1usize << n)
        .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect();
    StateVector::from_amplitudes(amplitudes)
}

/// Places the amplitudes of an `n`-qubit register on an `m`-qubit register,
/// logical qubit `l` on position `positions[l]`, every other position |0⟩.
/// Indices are big-endian, as in [`StateVector`]: qubit 0 is the most
/// significant bit.
fn embed(amplitudes: &[C64], n: usize, m: usize, positions: &[usize]) -> Vec<C64> {
    let mut out = vec![C64::zero(); 1 << m];
    for (basis, &amp) in amplitudes.iter().enumerate() {
        let mut index = 0usize;
        for (l, &p) in positions.iter().enumerate() {
            if (basis >> (n - 1 - l)) & 1 == 1 {
                index |= 1 << (m - 1 - p);
            }
        }
        out[index] = amp;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_core::{CompileService, CompilerOptions, Strategy};
    use qcc_hw::Device;
    use qcc_ir::Gate;
    use qcc_workloads::{standard_suite, suite::by_name, SuiteScale};

    /// Reduced MAXCUT-reg4 on a 12-qubit grid: routing moves spare qubits.
    fn grid_compile(strategy: Strategy) -> (Circuit, CompilationResult) {
        let suite = standard_suite(SuiteScale::Reduced, crate::SUITE_SEED);
        let circuit = by_name(&suite, "MAXCUT-reg4").expect("in suite").circuit;
        let device = Device::transmon_grid(12);
        let result = CompileService::new(&device)
            .with_threads(2)
            .compile(&circuit, &CompilerOptions::strategy(strategy))
            .expect("grid fits the circuit");
        (circuit, result)
    }

    fn moves_a_spare_qubit(result: &CompilationResult) -> bool {
        let initial = &result.initial_layout.physical;
        result
            .instructions
            .iter()
            .flat_map(|inst| inst.constituents.iter())
            .any(|g| g.gate == Gate::Swap && g.qubits.iter().any(|q| !initial.contains(q)))
    }

    #[test]
    fn accepts_correct_grid_compiles_whose_routing_moved_a_spare_qubit() {
        let mut moved = 0;
        for strategy in Strategy::all() {
            let (circuit, result) = grid_compile(strategy);
            moved += usize::from(moves_a_spare_qubit(&result));
            assert_eq!(check(&circuit, &result), Verdict::Verified, "{strategy}");
        }
        assert!(moved > 0, "no compile routed through a spare qubit");
    }

    #[test]
    fn rejects_a_single_perturbed_gate_angle() {
        let (circuit, mut result) = grid_compile(Strategy::ClsAggregation);
        let gate = result
            .instructions
            .iter_mut()
            .flat_map(|inst| inst.constituents.iter_mut())
            .find(|g| matches!(g.gate, Gate::Rx(_) | Gate::Rz(_) | Gate::Rzz(_)))
            .expect("QAOA output has rotations");
        gate.gate = match gate.gate {
            Gate::Rx(t) => Gate::Rx(t + 0.1),
            Gate::Rz(t) => Gate::Rz(t + 0.1),
            Gate::Rzz(t) => Gate::Rzz(t + 0.1),
            _ => unreachable!("matched a rotation above"),
        };
        assert!(matches!(check(&circuit, &result), Verdict::Rejected(_)));
    }

    #[test]
    fn rejects_a_wrong_final_layout() {
        let (circuit, mut result) = grid_compile(Strategy::Cls);
        result.final_layout.physical.swap(0, 1);
        assert!(matches!(check(&circuit, &result), Verdict::Rejected(_)));
    }

    #[test]
    fn skips_outputs_wider_than_the_simulator_limit() {
        let mut circuit = Circuit::new(MAX_QUBITS + 1);
        for q in 0..MAX_QUBITS {
            circuit.push(Gate::Cnot, &[q, q + 1]);
        }
        let device = Device::transmon_line(MAX_QUBITS + 1);
        let result = CompileService::new(&device)
            .compile(&circuit, &CompilerOptions::strategy(Strategy::IsaBaseline))
            .expect("line fits the circuit");
        assert_eq!(check(&circuit, &result), Verdict::Skipped);
    }
}
