//! The batch front door: `Compiler::compile_batch` / `CompileService` must be
//! deterministic under the thread-pool fan-out — batch results at 2, 4 and 8
//! threads are bit-identical to compiling each circuit serially — and must
//! share the latency cache so every distinct GRAPE key is solved exactly once
//! for the whole batch. A circuit whose compile panics fails its own slot and
//! no other.

mod common;

use qcc::compiler::{
    AggregationOptions, CompileError, CompileService, Compiler, CompilerOptions, Strategy,
};
use qcc::control::GrapeLatencyModel;
use qcc::hw::{CalibratedLatencyModel, Device};
use qcc::ir::Circuit;
use qcc::workloads::{ising, qaoa};

fn batch_workloads(n: usize) -> Vec<Circuit> {
    vec![
        qaoa::maxcut_line(n),
        ising::ising_chain(n),
        qaoa::maxcut_reg4(n, 11),
        qaoa::maxcut_line(n), // duplicate on purpose: cache reuse across batch entries
        ising::ising_chain(n),
    ]
}

#[test]
fn batched_compilation_matches_per_circuit_serial_compiles() {
    let circuits = batch_workloads(8);
    let device = Device::transmon_grid(8);
    let model = CalibratedLatencyModel::new(device.limits);
    let serial = Compiler::new(&device, &model).with_threads(1);
    for strategy in Strategy::all() {
        let options = CompilerOptions::strategy(strategy);
        let references: Vec<_> = circuits
            .iter()
            .map(|c| serial.compile(c, &options))
            .collect();
        for threads in [2, 4, 8] {
            let batched = Compiler::new(&device, &model)
                .with_threads(threads)
                .compile_batch(&circuits, &options);
            assert_eq!(batched.len(), circuits.len());

            for (i, (result, reference)) in batched.iter().zip(&references).enumerate() {
                let batch_result = result.as_ref().expect("batch entry compiled");
                assert_eq!(
                    batch_result.total_latency_ns.to_bits(),
                    reference.total_latency_ns.to_bits(),
                    "{strategy:?}: batch entry {i} at {threads} threads drifted from the serial compile"
                );
                assert_eq!(batch_result.latencies.len(), reference.latencies.len());
                for (a, b) in batch_result.latencies.iter().zip(&reference.latencies) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{strategy:?}: entry {i}");
                }
                assert_eq!(batch_result.swap_count, reference.swap_count);
            }
        }
    }
}

#[test]
fn batch_shares_the_grape_cache_with_exactly_one_solve_per_key() {
    // Four copies of the paper's triangle: whatever instruction keys the first
    // compile prices, the other three must reuse — across batch entries and
    // across the 4-way thread fan-out.
    let circuits: Vec<Circuit> = (0..4).map(|_| qaoa::paper_triangle_example()).collect();
    let device = Device::transmon_line(3);
    let options = CompilerOptions {
        strategy: Strategy::ClsAggregation,
        aggregation: AggregationOptions::with_width(2),
    };

    let model = GrapeLatencyModel::fast_two_qubit();
    let batched = Compiler::new(&device, &model)
        .with_threads(4)
        .compile_batch(&circuits, &options);
    assert!(batched.iter().all(|r| r.is_ok()));
    assert_eq!(
        model.solve_count(),
        model.cached_entries(),
        "every GRAPE key must be solved exactly once for the whole batch"
    );

    // And the batch answers match a fresh serial compile.
    let serial_model = GrapeLatencyModel::fast_two_qubit();
    let reference = Compiler::new(&device, &serial_model)
        .with_threads(1)
        .compile(&circuits[0], &options);
    for (i, result) in batched.iter().enumerate() {
        let r = result.as_ref().unwrap();
        assert_eq!(
            r.total_latency_ns.to_bits(),
            reference.total_latency_ns.to_bits(),
            "batch entry {i}"
        );
    }
    // The serial run re-solved the same distinct keys the batch solved once.
    assert_eq!(serial_model.solve_count(), model.solve_count());
}

#[test]
fn batch_reports_per_circuit_errors_without_failing_the_rest() {
    let device = Device::transmon_line(3);
    let service = CompileService::new(&device).with_threads(4);
    let circuits = vec![
        qaoa::paper_triangle_example(), // fits
        Circuit::new(6),                // needs 6 qubits: fails
        qaoa::maxcut_line(3),           // fits
    ];
    let results = service.compile_batch(&circuits, &CompilerOptions::strategy(Strategy::Cls));
    assert_eq!(results.len(), 3);
    assert!(results[0].is_ok());
    assert_eq!(
        results[1].as_ref().unwrap_err(),
        &CompileError::DeviceTooSmall {
            needed: 6,
            available: 3
        }
    );
    assert!(results[2].is_ok());
}

#[test]
fn batch_reports_carry_per_pass_timing() {
    let device = Device::transmon_grid(8);
    let service = CompileService::new(&device).with_threads(4);
    let results = service.compile_batch(
        &batch_workloads(8),
        &CompilerOptions::strategy(Strategy::ClsAggregation),
    );
    for result in results {
        let r = result.unwrap();
        assert_eq!(
            r.reports.iter().map(|p| p.pass).collect::<Vec<_>>(),
            Strategy::ClsAggregation.pipeline().pass_names()
        );
        assert!(r.total_pass_time() > std::time::Duration::ZERO);
    }
}

#[test]
fn a_panicking_compile_fails_only_its_own_batch_slot() {
    let device = Device::transmon_line(4);
    let circuits = vec![
        qaoa::paper_triangle_example(),
        common::poisoned(&ising::ising_chain(4)),
        qaoa::maxcut_line(4),
    ];
    let options = CompilerOptions::strategy(Strategy::ClsAggregation);
    let reference_model = CalibratedLatencyModel::new(device.limits);
    let serial = Compiler::new(&device, &reference_model).with_threads(1);
    let model = common::PoisonedModel(CalibratedLatencyModel::new(device.limits));
    for threads in [1, 2] {
        let via_compiler = Compiler::new(&device, &model)
            .with_threads(threads)
            .compile_batch(&circuits, &options);
        let service = CompileService::with_model(&device, Box::new(&model)).with_threads(threads);
        let via_service = service.compile_batch(&circuits, &options);
        let stats = service.compile_cache_stats();
        assert_eq!((stats.submitted, stats.completed), (3, 3));
        for (front_door, results) in [("compiler", via_compiler), ("service", via_service)] {
            assert_eq!(results.len(), circuits.len());
            match &results[1] {
                Err(CompileError::Panicked { message }) => {
                    assert!(message.contains("marker gate"), "{message}")
                }
                other => panic!("{front_door} at {threads} threads: {other:?}"),
            }
            for i in [0, 2] {
                let got = results[i].as_ref().expect("healthy slot compiles");
                let want = serial.try_compile(&circuits[i], &options).unwrap();
                assert_eq!(
                    got.total_latency_ns.to_bits(),
                    want.total_latency_ns.to_bits(),
                    "{front_door} at {threads} threads: slot {i} drifted from its serial compile"
                );
                assert_eq!(got.instructions, want.instructions);
                for (a, b) in got.latencies.iter().zip(&want.latencies) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{front_door}: slot {i}");
                }
            }
        }
    }
}
