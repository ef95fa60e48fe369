//! The partitioned-compilation subsystem, pinned against whole-circuit
//! compilation: `k = 1` (and every non-aggregating strategy at any `k`) must
//! be **bit-identical**, aggregating strategies at `k ∈ {2, 4}` must preserve
//! the constituent-gate multiset — and, without a post-aggregation reordering
//! pass, the per-qubit gate order — while `ClsAggregation` stays semantically
//! equivalent under the simulator with a bounded makespan. GRAPE solves stay
//! exactly-once across concurrent region compiles, and partitioned requests
//! get their own compile-cache keys.

use proptest::prelude::*;
use qcc::compiler::{
    persist, verify_compilation, CompilationResult, CompileService, Compiler, CompilerOptions,
    PartitionOptions, Strategy,
};
use qcc::control::GrapeLatencyModel;
use qcc::hw::{CalibratedLatencyModel, Device};
use qcc::ir::{Circuit, Gate, Instruction};
use qcc::workloads::{ising, qaoa};
use std::collections::HashMap;

fn workloads() -> Vec<(&'static str, Circuit)> {
    vec![
        ("QAOA-triangle", qaoa::paper_triangle_example()),
        ("MAXCUT-reg4-8", qaoa::maxcut_reg4(8, 7)),
        ("Ising-chain-8", ising::ising_chain(8)),
    ]
}

fn compile_both(
    circuit: &Circuit,
    strategy: Strategy,
    k: usize,
) -> (CompilationResult, CompilationResult) {
    compile_both_on(
        Device::transmon_grid(circuit.n_qubits()),
        circuit,
        strategy,
        k,
    )
}

fn compile_both_on(
    device: Device,
    circuit: &Circuit,
    strategy: Strategy,
    k: usize,
) -> (CompilationResult, CompilationResult) {
    let model = CalibratedLatencyModel::new(device.limits);
    let compiler = Compiler::new(&device, &model);
    let options = CompilerOptions::strategy(strategy);
    let whole = compiler.compile(circuit, &options);
    let part = compiler
        .compile_partitioned(circuit, &options, &PartitionOptions::new(k))
        .expect("partitioned compile succeeds");
    (whole, part)
}

/// Bit-level equality via the canonical codec, with the fields that
/// legitimately differ between the two pipelines stripped: per-pass reports
/// (the partitioned recipe has a "partition" pass where the whole recipe has
/// "aggregation") and the partition telemetry itself.
fn artifact_bits(r: &CompilationResult) -> Vec<u8> {
    let mut stripped = r.clone();
    stripped.reports.clear();
    stripped.partition = None;
    let mut bytes = Vec::new();
    persist::encode_result(&stripped, &mut bytes);
    bytes
}

fn instruction_bytes(inst: &Instruction) -> Vec<u8> {
    let mut bytes = Vec::new();
    inst.encode_into(&mut bytes);
    bytes
}

/// The constituent-gate multiset of the final program (sorted encodings).
fn gate_multiset(r: &CompilationResult) -> Vec<Vec<u8>> {
    let mut gates: Vec<Vec<u8>> = r
        .instructions
        .iter()
        .flat_map(|i| i.constituents.iter())
        .map(instruction_bytes)
        .collect();
    gates.sort();
    gates
}

/// Per-physical-qubit sequence of constituent gates, in stream order.
fn per_qubit_order(r: &CompilationResult) -> HashMap<usize, Vec<Vec<u8>>> {
    let mut order: HashMap<usize, Vec<Vec<u8>>> = HashMap::new();
    for agg in &r.instructions {
        for inst in &agg.constituents {
            for &q in &inst.qubits {
                order.entry(q).or_default().push(instruction_bytes(inst));
            }
        }
    }
    order
}

#[test]
fn k1_is_bit_identical_to_whole_compile_for_every_strategy() {
    for (name, circuit) in workloads() {
        for strategy in Strategy::all() {
            let (whole, part) = compile_both(&circuit, strategy, 1);
            assert_eq!(
                artifact_bits(&whole),
                artifact_bits(&part),
                "{name}/{strategy}: k=1 must be bit-identical"
            );
            let summary = part.partition.expect("partitioned result has telemetry");
            assert_eq!(summary.requested_regions, 1);
            assert_eq!(summary.regions.len(), 1);
            assert_eq!(summary.cut_instructions, 0);
            assert_eq!(summary.cut_weight, 0.0);
        }
    }
}

#[test]
fn non_aggregating_strategies_are_bit_identical_at_every_k() {
    // Without aggregation there is nothing to parallelize per region: the
    // partition pass is telemetry-only and must not perturb the stream.
    for (name, circuit) in workloads() {
        for strategy in [
            Strategy::IsaBaseline,
            Strategy::Cls,
            Strategy::ClsHandOptimized,
        ] {
            for k in [2usize, 4] {
                let (whole, part) = compile_both(&circuit, strategy, k);
                assert_eq!(
                    artifact_bits(&whole),
                    artifact_bits(&part),
                    "{name}/{strategy}: k={k} must be bit-identical"
                );
            }
        }
    }
}

#[test]
fn aggregation_only_preserves_multiset_and_per_qubit_order_at_k2_k4() {
    for (name, circuit) in workloads() {
        for k in [2usize, 4] {
            let (whole, part) = compile_both(&circuit, Strategy::AggregationOnly, k);
            assert_eq!(
                gate_multiset(&whole),
                gate_multiset(&part),
                "{name}: k={k} gate multiset drifted"
            );
            assert_eq!(
                per_qubit_order(&whole),
                per_qubit_order(&part),
                "{name}: k={k} per-qubit gate order drifted"
            );
            let summary = part.partition.expect("partitioned result has telemetry");
            assert_eq!(summary.requested_regions, k);
            assert!(!summary.regions.is_empty() && summary.regions.len() <= k);
            // Region qubit sets are disjoint and cover (at least) the
            // circuit's qubits — the plan spans the whole device.
            let mut all: Vec<usize> = summary
                .regions
                .iter()
                .flat_map(|r| r.qubits.iter().copied())
                .collect();
            let total = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), total, "{name}: k={k} regions must be disjoint");
            assert!(
                all.len() >= circuit.n_qubits(),
                "{name}: k={k} regions must cover"
            );
        }
    }
}

#[test]
fn cls_aggregation_is_semantically_equivalent_at_k2_k4() {
    // Line devices: the simulator check needs every physical qubit used (a
    // grid's spare corner qubit breaks its permutation alignment — a
    // pre-existing verifier limitation unrelated to partitioning).
    for (name, circuit) in workloads() {
        let line = || Device::transmon_line(circuit.n_qubits());
        let isa = compile_both_on(line(), &circuit, Strategy::IsaBaseline, 1).0;
        let (whole, _) = compile_both_on(line(), &circuit, Strategy::ClsAggregation, 1);
        for k in [2usize, 4] {
            let (_, part) = compile_both_on(line(), &circuit, Strategy::ClsAggregation, k);
            assert_eq!(
                gate_multiset(&whole),
                gate_multiset(&part),
                "{name}: k={k} gate multiset drifted"
            );
            let check = verify_compilation(&circuit, &part);
            assert!(
                check.equivalent,
                "{name}: k={k} not equivalent (max deviation {})",
                check.max_deviation
            );
            // Partitioning trades some aggregation scope (merges cannot cross
            // cut barriers) for parallelism; the makespan must stay within a
            // modest factor of the whole-circuit compile and must never
            // regress past the unaggregated baseline.
            let bound = (whole.total_latency_ns * 1.6).max(isa.total_latency_ns * 1.05);
            assert!(
                part.total_latency_ns <= bound,
                "{name}: k={k} makespan {} exceeds bound {bound} (whole {}, isa {})",
                part.total_latency_ns,
                whole.total_latency_ns,
                isa.total_latency_ns
            );
        }
    }
}

#[test]
fn grape_solves_stay_exactly_once_across_concurrent_region_compiles() {
    let circuit = qaoa::maxcut_reg4(6, 3);
    let device = Device::transmon_grid(6);
    let options = CompilerOptions::strategy(Strategy::ClsAggregation);
    let model = GrapeLatencyModel::fast_two_qubit();
    let compiler = Compiler::new(&device, &model).with_threads(8);
    let first = compiler
        .compile_partitioned(&circuit, &options, &PartitionOptions::new(2))
        .expect("partitioned compile succeeds");
    assert!(first.partition.is_some());
    assert_eq!(
        model.solve_count(),
        model.cached_entries(),
        "concurrent region compiles duplicated GRAPE solves"
    );
    let solves = model.solve_count();
    // Replaying the same request prices the same physical-index instruction
    // bytes — every key is already cached, zero new solves.
    compiler
        .compile_partitioned(&circuit, &options, &PartitionOptions::new(2))
        .expect("partitioned compile succeeds");
    assert_eq!(
        model.solve_count(),
        solves,
        "replay must be pure cache hits"
    );
    // Other region cuts and the whole-circuit compile explore different
    // merge candidates (new keys are fine) but still never solve one twice.
    compiler
        .compile_partitioned(&circuit, &options, &PartitionOptions::new(4))
        .expect("partitioned compile succeeds");
    let whole = compiler.compile(&circuit, &options);
    assert_eq!(
        model.solve_count(),
        model.cached_entries(),
        "cross-k compiles duplicated GRAPE solves"
    );
    assert_eq!(gate_multiset(&whole), gate_multiset(&first));
}

#[test]
fn service_counts_and_caches_partitioned_requests_under_their_own_keys() {
    let circuit = qaoa::paper_triangle_example();
    let device = Device::transmon_grid(3);
    let service = CompileService::new(&device);
    let options = CompilerOptions::strategy(Strategy::ClsAggregation);
    let partition = PartitionOptions::new(2);

    let first = service
        .compile_partitioned(&circuit, &options, &partition)
        .expect("partitioned compile succeeds");
    let regions = first.partition.as_ref().expect("telemetry").regions.len();
    let replay = service
        .compile_partitioned(&circuit, &options, &partition)
        .expect("cache hit");
    assert_eq!(artifact_bits(&first), artifact_bits(&replay));

    // A whole-circuit request for the same circuit must not read the
    // partitioned entry (nor vice versa): distinct keys, so a fresh miss.
    let whole = service.compile(&circuit, &options).expect("compile");
    assert!(whole.partition.is_none());

    let stats = service.compile_cache_stats();
    assert_eq!(stats.partitioned, 2, "both partitioned requests counted");
    assert_eq!(stats.partition_regions, regions, "hit did not recompile");
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 2, "partitioned and whole keys are distinct");
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.completed, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random circuits, every k: partition→stitch must preserve the per-qubit
    /// gate order and the gate multiset of the whole-circuit compile.
    #[test]
    fn random_circuits_preserve_per_qubit_order_through_partition_and_stitch(
        n in 2usize..7,
        k in 1usize..5,
        ops in prop::collection::vec((0u8..4, 0usize..64, 1usize..64), 1..40),
    ) {
        let mut circuit = Circuit::new(n);
        for (op, a, b) in ops {
            let a = a % n;
            match op {
                0 => {
                    circuit.push(Gate::H, &[a]);
                }
                1 => {
                    circuit.push(Gate::X, &[a]);
                }
                2 => {
                    circuit.push(Gate::Rz(0.3), &[a]);
                }
                _ => {
                    let b = (a + b % (n - 1) + 1) % n;
                    circuit.push(Gate::Cnot, &[a, b]);
                }
            }
        }
        let (whole, part) = compile_both(&circuit, Strategy::AggregationOnly, k);
        prop_assert_eq!(gate_multiset(&whole), gate_multiset(&part));
        prop_assert_eq!(per_qubit_order(&whole), per_qubit_order(&part));
    }
}
