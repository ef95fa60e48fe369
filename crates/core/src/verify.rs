//! Verification of compiled programs (§3.6).
//!
//! Two levels of checking mirror the paper's procedure:
//!
//! 1. **Circuit-level**: the compiled instruction stream implements the same
//!    unitary as the input circuit, up to the qubit relabelling introduced by
//!    the mapper (checked by state-vector simulation for programs small
//!    enough to simulate).
//! 2. **Pulse-level**: a sample of aggregated instructions is handed to the
//!    optimal-control unit and the resulting pulses are re-simulated and
//!    compared against the instruction unitaries ("we sample 10 aggregated
//!    instructions for each benchmark to verify that the control pulses of all
//!    instructions produce the correct unitary").

use crate::instr::AggregateInstruction;
use crate::pipeline::CompilationResult;
use qcc_control::{verify_pulse, GrapeLatencyModel, TransmonSystem};
use qcc_hw::ControlLimits;
use qcc_ir::{Circuit, Instruction};
use qcc_math::C64;
use qcc_sim::StateVector;
use std::fmt;

/// Widest register [`verify_compilation`] simulates: the physical qubits a
/// program touches, or the input circuit's qubits if there are more.
const MAX_QUBITS: usize = 16;

/// Largest `1 − |⟨expected|actual⟩|` accepted as equivalent.
const TOLERANCE: f64 = 1e-9;

/// Seed of the random input state.
const STATE_SEED: u64 = 0x5eed;

/// Outcome of circuit-level verification.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitVerification {
    /// Whether the compiled program matches the input circuit.
    pub equivalent: bool,
    /// `1 − |⟨expected|actual⟩|` for the simulated input state (see
    /// [`verify_compilation`]): 0 for a correct program, up to 1 for one
    /// whose output is orthogonal to the expected state.
    pub max_deviation: f64,
}

/// Why [`verify_compilation`] could not check a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The program needs a wider register than the state-vector check
    /// simulates (use sampling-based pulse verification instead).
    TooLarge {
        /// Qubits the check would simulate.
        qubits: usize,
        /// The most it simulates.
        limit: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::TooLarge { qubits, limit } => write!(
                f,
                "circuit-level verification simulates at most {limit} qubits, this program needs {qubits}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies that a compilation result implements the input circuit.
///
/// The compiled program acts on physical qubits: logical qubit `l` starts on
/// `initial_layout[l]` and ends on `final_layout[l]`, and routing SWAPs may
/// move physical qubits that hold no logical qubit ("spare" qubits). The
/// check simulates only the physical qubits the program touches, relabelled
/// densely:
///
/// 1. draw a seeded random state ψ of the logical register;
/// 2. expected: the input circuit applied to ψ, placed on the final
///    positions, every other position in |0⟩;
/// 3. actual: ψ on the initial positions, every spare qubit in |0⟩, then
///    every constituent gate of the program in order;
/// 4. equivalent when `1 − |⟨expected|actual⟩|` is within rounding of 0.
///
/// A random state separates two unitaries that differ by more than a global
/// phase with probability one, so a single state suffices. A layout that
/// does not put each logical qubit on its own physical qubit is reported as
/// not equivalent, with deviation 1.
///
/// # Errors
///
/// [`VerifyError::TooLarge`] when the program touches more than 16 physical
/// qubits or the circuit has more than 16 qubits.
pub fn verify_compilation(
    circuit: &Circuit,
    result: &CompilationResult,
) -> Result<CircuitVerification, VerifyError> {
    let n = circuit.n_qubits();
    let (initial, last) = (
        &result.initial_layout.physical,
        &result.final_layout.physical,
    );
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
    if m.max(n) > MAX_QUBITS {
        return Err(VerifyError::TooLarge {
            qubits: m.max(n),
            limit: MAX_QUBITS,
        });
    }
    let dense = |p: &usize| {
        touched
            .binary_search(p)
            .expect("every physical qubit is in the touched set")
    };
    let start: Vec<usize> = initial.iter().map(dense).collect();
    let end: Vec<usize> = last.iter().map(dense).collect();
    if start.len() != n || end.len() != n || !all_distinct(&start) || !all_distinct(&end) {
        return Ok(CircuitVerification {
            equivalent: false,
            max_deviation: 1.0,
        });
    }

    let psi = random_state(n, STATE_SEED);
    let mut reference = psi.clone();
    reference.apply_circuit(circuit);

    let mut actual = StateVector::from_amplitudes(embed(psi.amplitudes(), n, m, &start));
    for gate in gates {
        let qubits = gate.qubits.iter().map(dense).collect();
        actual.apply_instruction(&Instruction::new(gate.gate, qubits));
    }
    let expected = StateVector::from_amplitudes(embed(reference.amplitudes(), n, m, &end));
    let max_deviation = 1.0 - expected.inner(&actual).abs();
    Ok(CircuitVerification {
        equivalent: max_deviation <= TOLERANCE,
        max_deviation,
    })
}

fn all_distinct(qubits: &[usize]) -> bool {
    let mut sorted = qubits.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).all(|w| w[0] != w[1])
}

/// A normalized random state of `n` qubits drawn from `seed` with
/// SplitMix64, each amplitude's parts uniform in [-1, 1) before
/// normalization.
fn random_state(n: usize, mut seed: u64) -> StateVector {
    let mut uniform = || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let amplitudes = (0..1usize << n)
        .map(|_| C64::new(uniform(), uniform()))
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

/// Outcome of pulse-level verification of one instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionPulseCheck {
    /// Index of the instruction in the compiled program.
    pub instruction_index: usize,
    /// Width of the instruction.
    pub width: usize,
    /// Fidelity of the optimized pulse against the instruction unitary.
    pub fidelity: f64,
    /// Whether the fidelity cleared the threshold.
    pub passed: bool,
    /// Pulse duration found by the optimal-control unit (ns).
    pub duration_ns: f64,
}

/// Samples up to `sample_count` multi-gate instructions from a compilation
/// result, runs the optimal-control unit on each, and verifies the resulting
/// pulses against the instruction unitaries.
///
/// Instructions wider than the control unit's limit are skipped (the paper
/// likewise only optimizes instructions the control unit can handle).
pub fn verify_sampled_pulses(
    result: &CompilationResult,
    control: &GrapeLatencyModel,
    limits: ControlLimits,
    sample_count: usize,
    fidelity_threshold: f64,
) -> Vec<InstructionPulseCheck> {
    let mut checks = Vec::new();
    let candidates: Vec<(usize, &AggregateInstruction)> = result
        .instructions
        .iter()
        .enumerate()
        .filter(|(_, inst)| inst.gate_count() > 1 || inst.width() >= 2)
        .collect();
    // Deterministic spread over the candidate list.
    let step = (candidates.len() / sample_count.max(1)).max(1);
    for (idx, inst) in candidates.into_iter().step_by(step).take(sample_count) {
        let Some((duration, grape_result)) = control.optimize_instruction(&inst.constituents)
        else {
            continue;
        };
        let (target, support) = GrapeLatencyModel::target_unitary(&inst.constituents);
        let system = TransmonSystem::fully_coupled(support.len(), limits);
        let verification = verify_pulse(&system, &grape_result, &target, fidelity_threshold);
        checks.push(InstructionPulseCheck {
            instruction_index: idx,
            width: inst.width(),
            fidelity: verification.fidelity,
            passed: verification.passed,
            duration_ns: duration,
        });
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Compiler, CompilerOptions, Strategy};
    use qcc_hw::{CalibratedLatencyModel, Device, Topology};
    use qcc_ir::Gate;

    fn small_qaoa() -> Circuit {
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.push(Gate::H, &[q]);
        }
        for &(a, b) in &[(0usize, 1usize), (1, 2), (0, 2)] {
            c.push(Gate::Cnot, &[a, b]);
            c.push(Gate::Rz(0.8), &[b]);
            c.push(Gate::Cnot, &[a, b]);
        }
        for q in 0..3 {
            c.push(Gate::Rx(0.4), &[q]);
        }
        c
    }

    #[test]
    fn every_strategy_preserves_the_qaoa_unitary() {
        let circuit = small_qaoa();
        let device = Device::transmon(Topology::Linear(3));
        let model = CalibratedLatencyModel::asplos19();
        let compiler = Compiler::new(&device, &model);
        for strategy in Strategy::all() {
            let result = compiler.compile(&circuit, &CompilerOptions::strategy(strategy));
            let check = verify_compilation(&circuit, &result).expect("3 qubits simulate");
            assert!(
                check.equivalent,
                "{strategy:?} broke the circuit (deviation {})",
                check.max_deviation
            );
        }
    }

    #[test]
    fn verification_catches_a_corrupted_program() {
        let circuit = small_qaoa();
        let device = Device::transmon(Topology::Linear(3));
        let model = CalibratedLatencyModel::asplos19();
        let compiler = Compiler::new(&device, &model);
        let mut result = compiler.compile(&circuit, &CompilerOptions::strategy(Strategy::Cls));
        // Corrupt the program by dropping an instruction.
        result.instructions.pop();
        let check = verify_compilation(&circuit, &result).expect("3 qubits simulate");
        assert!(!check.equivalent);
        assert!(check.max_deviation > 1e-3);
    }

    #[test]
    fn sampled_pulse_verification_passes_on_small_instructions() {
        let circuit = small_qaoa();
        let device = Device::transmon(Topology::Linear(3));
        let model = CalibratedLatencyModel::asplos19();
        let compiler = Compiler::new(&device, &model);
        let result = compiler.compile(
            &circuit,
            &CompilerOptions {
                strategy: Strategy::ClsAggregation,
                aggregation: crate::aggregate::AggregationOptions::with_width(2),
            },
        );
        let control = GrapeLatencyModel::fast_two_qubit();
        let checks = verify_sampled_pulses(&result, &control, ControlLimits::asplos19(), 2, 0.95);
        assert!(!checks.is_empty());
        for check in &checks {
            assert!(
                check.passed,
                "pulse for instruction {} only reached fidelity {}",
                check.instruction_index, check.fidelity
            );
        }
    }
}
