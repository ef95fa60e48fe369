//! Workspace-wiring smoke tests.
//!
//! These guard the Cargo manifests themselves: every sub-crate must be
//! reachable through the umbrella crate's re-exports, and the full pipeline
//! must run for **every** `Strategy` variant on a small device. A manifest
//! regression (dropped dependency, renamed crate, broken re-export) fails
//! here loudly instead of surfacing as a confusing downstream error.

use qcc::compiler::{compile_with_default_model, verify_compilation, CompilerOptions, Strategy};
use qcc::hw::Device;
use qcc::ir::{Circuit, Gate};

/// A small circuit with commuting diagonal blocks so every strategy has
/// something to schedule, aggregate, and hand-optimize.
fn small_workload() -> Circuit {
    let mut c = Circuit::new(3);
    for q in 0..3 {
        c.push(Gate::H, &[q]);
    }
    for &(a, b) in &[(0usize, 1usize), (1, 2), (0, 2)] {
        c.push(Gate::Cnot, &[a, b]);
        c.push(Gate::Rz(0.73), &[b]);
        c.push(Gate::Cnot, &[a, b]);
    }
    for q in 0..3 {
        c.push(Gate::Rx(0.41), &[q]);
    }
    c
}

#[test]
fn every_strategy_compiles_on_a_small_device() {
    let circuit = small_workload();
    let device = Device::transmon_line(3);
    for strategy in Strategy::all() {
        let result =
            compile_with_default_model(&circuit, &device, &CompilerOptions::strategy(strategy));
        assert_eq!(result.strategy, strategy, "strategy echoed back");
        assert!(
            result.total_latency_ns > 0.0,
            "{}: latency must be positive",
            strategy.name()
        );
        assert!(
            !result.instructions.is_empty(),
            "{}: instruction stream must be non-empty",
            strategy.name()
        );
        assert_eq!(
            result.latencies.len(),
            result.instructions.len(),
            "{}: one latency per instruction",
            strategy.name()
        );
    }
}

#[test]
fn every_strategy_preserves_circuit_semantics() {
    let circuit = small_workload();
    let device = Device::transmon_line(3);
    for strategy in Strategy::all() {
        let result =
            compile_with_default_model(&circuit, &device, &CompilerOptions::strategy(strategy));
        let check = verify_compilation(&circuit, &result).expect("3 qubits simulate");
        assert!(
            check.equivalent,
            "{}: compiled program must be semantically equivalent (max deviation {})",
            strategy.name(),
            check.max_deviation
        );
    }
}

#[test]
fn aggregation_beats_the_isa_baseline_on_the_smoke_workload() {
    let circuit = small_workload();
    let device = Device::transmon_line(3);
    let baseline = compile_with_default_model(
        &circuit,
        &device,
        &CompilerOptions::strategy(Strategy::IsaBaseline),
    );
    let aggregated = compile_with_default_model(
        &circuit,
        &device,
        &CompilerOptions::strategy(Strategy::ClsAggregation),
    );
    assert!(
        aggregated.total_latency_ns < baseline.total_latency_ns,
        "aggregation ({} ns) should beat the baseline ({} ns)",
        aggregated.total_latency_ns,
        baseline.total_latency_ns
    );
}

#[test]
fn umbrella_reexports_reach_every_subcrate() {
    // One cheap call into each re-exported sub-crate; a missing manifest
    // dependency or broken `pub use` breaks this test at compile time.
    let _ = qcc::math::CMatrix::identity(2);
    let _ = qcc::graph::Graph::new(2);
    let _ = qcc::ir::Circuit::new(1);
    let _ = qcc::sim::StateVector::zero(1);
    let _ = qcc::hw::Device::transmon_line(2);
    let _ = qcc::control::GrapeConfig::fast();
    let _ = qcc::workloads::qaoa::paper_triangle_example();
    let _ = qcc::compiler::Strategy::all();
}
