//! The speculative-parallel aggregation search must be a pure wall-clock
//! optimization: its committed merges, output stream, statistics, and prices
//! are pinned bit-identical to the serial search at every thread count, for
//! both the analytic calibrated model and the real GRAPE optimal-control
//! unit. The batched solve API underneath is pinned exactly-once per unique
//! key under an 8-thread hammer, and the `QCC_THREADS=1` fast path is pinned
//! to run entirely inline on the calling thread.

use qcc::compiler::{aggregate, frontend, AggregationOptions, Compiler, CompilerOptions, Strategy};
use qcc::control::GrapeLatencyModel;
use qcc::hw::{CalibratedLatencyModel, Device, LatencyModel};
use qcc::ir::{Circuit, Instruction};
use qcc::workloads::{ising, qaoa};
use std::sync::Mutex;
use threadpool::ThreadPool;

/// Calibrated pricing that declares itself expensive: the speculative loop
/// only engages for `parallel_pricing()` models, so the calibrated
/// equivalence pins drive it through this wrapper — cheap, deterministic
/// prices with the speculative control flow fully exercised.
struct ParallelCalibrated(CalibratedLatencyModel);

impl LatencyModel for ParallelCalibrated {
    fn isa_gate_latency(&self, inst: &Instruction) -> f64 {
        self.0.isa_gate_latency(inst)
    }

    fn aggregate_latency(&self, constituents: &[Instruction]) -> f64 {
        self.0.aggregate_latency(constituents)
    }

    fn parallel_pricing(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "parallel-calibrated"
    }
}

#[test]
fn speculative_search_matches_serial_bit_for_bit_on_calibrated_workloads() {
    let workloads: Vec<(&str, Circuit)> = vec![
        ("MAXCUT-line-8", qaoa::maxcut_line(8)),
        ("MAXCUT-reg4-8", qaoa::maxcut_reg4(8, 11)),
        ("Ising-chain-8", ising::ising_chain(8)),
    ];
    let model = ParallelCalibrated(CalibratedLatencyModel::asplos19());
    for (name, circuit) in &workloads {
        let instrs = frontend::run(circuit);
        for options in [
            AggregationOptions::default(),
            AggregationOptions::with_width(3),
        ] {
            let (serial_out, serial_stats) =
                aggregate::run_with_pool(&instrs, &model, &options, &ThreadPool::new(1));
            for threads in [4usize, 8] {
                let (out, stats) =
                    aggregate::run_with_pool(&instrs, &model, &options, &ThreadPool::new(threads));
                assert_eq!(
                    out, serial_out,
                    "{name}: stream drifted at {threads} threads"
                );
                assert_eq!(
                    stats, serial_stats,
                    "{name}: stats drifted at {threads} threads"
                );
                assert_eq!(
                    stats.makespan_after.to_bits(),
                    serial_stats.makespan_after.to_bits(),
                    "{name}: makespan bits drifted at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn speculative_search_matches_serial_through_the_grape_unit() {
    // The full compile pipeline on the paper's triangle, GRAPE-priced: the
    // 4- and 8-thread compiles speculate inside the aggregation pass and must
    // still reproduce the single-threaded result bit for bit.
    let circuit = qaoa::paper_triangle_example();
    let device = Device::transmon_line(3);
    let options = CompilerOptions {
        strategy: Strategy::ClsAggregation,
        aggregation: AggregationOptions::with_width(2),
    };
    let serial_model = GrapeLatencyModel::fast_two_qubit();
    let reference = Compiler::new(&device, &serial_model)
        .with_threads(1)
        .compile(&circuit, &options);

    for threads in [4usize, 8] {
        let model = GrapeLatencyModel::fast_two_qubit();
        let result = Compiler::new(&device, &model)
            .with_threads(threads)
            .compile(&circuit, &options);
        assert_eq!(
            result.total_latency_ns.to_bits(),
            reference.total_latency_ns.to_bits(),
            "{threads} threads"
        );
        assert_eq!(result.instructions, reference.instructions);
        assert_eq!(result.latencies.len(), reference.latencies.len());
        for (a, b) in result.latencies.iter().zip(&reference.latencies) {
            assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
        }
        assert_eq!(result.aggregation, reference.aggregation);
        // Speculation may price extra candidates, but never the same key
        // twice.
        assert_eq!(
            model.solve_count(),
            model.cached_entries(),
            "{threads} threads: duplicated GRAPE solves"
        );
    }
}

#[test]
fn batch_solve_is_exactly_once_per_unique_key_under_the_8_thread_hammer() {
    let inst = |gate, qubits: &[usize]| Instruction::new(gate, qubits.to_vec());
    use qcc::ir::Gate;
    let workload: Vec<Vec<Instruction>> = vec![
        vec![inst(Gate::X, &[0])],
        vec![inst(Gate::H, &[1])],
        vec![inst(Gate::X, &[0]), inst(Gate::H, &[0])],
        vec![inst(Gate::H, &[0]), inst(Gate::X, &[0])],
        vec![inst(Gate::Rz(0.4), &[2])],
        vec![inst(Gate::X, &[0])], // in-batch duplicate
        vec![inst(Gate::X, &[4])], // the same shape at another placement
    ];
    let queries: Vec<&[Instruction]> = workload.iter().map(|c| c.as_slice()).collect();
    let unique_keys = 5;

    let reference = GrapeLatencyModel::fast_two_qubit();
    let expected: Vec<f64> = workload
        .iter()
        .map(|c| reference.aggregate_latency(c))
        .collect();
    assert_eq!(reference.solve_count(), unique_keys);

    // Eight threads hammer one shared model with the same batch, each fanning
    // its own misses over a pool: every distinct key must be solved exactly
    // once across all of them, and every caller sees bit-identical prices.
    let model = GrapeLatencyModel::fast_two_qubit();
    let runs: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| model.aggregate_latency_batch(&queries, &ThreadPool::new(2))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch thread panicked"))
            .collect()
    });
    for run in &runs {
        for (got, want) in run.iter().zip(&expected) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }
    assert_eq!(model.solve_count(), unique_keys, "duplicated GRAPE solves");
    assert_eq!(model.cached_entries(), unique_keys);
}

#[test]
fn pass_reports_attribute_grape_solves_per_pass() {
    let circuit = qaoa::paper_triangle_example();
    let device = Device::transmon_line(3);
    let model = GrapeLatencyModel::fast_two_qubit();
    let result = Compiler::new(&device, &model).with_threads(1).compile(
        &circuit,
        &CompilerOptions {
            strategy: Strategy::ClsAggregation,
            aggregation: AggregationOptions::with_width(2),
        },
    );
    // An instrumented model yields a pricing delta on every report.
    assert!(result.reports.iter().all(|r| r.pricing.is_some()));
    // Passes that never touch the model report zero activity…
    let flatten = result.report("flatten").unwrap().pricing.unwrap();
    assert_eq!((flatten.queries, flatten.solves), (0, 0));
    // …aggregation does the pricing work…
    let agg = result.report("aggregation").unwrap().pricing.unwrap();
    assert!(agg.queries > 0 && agg.solves > 0);
    // …final-cls re-prices the aggregated stream purely from cache…
    let final_cls = result.report("final-cls").unwrap().pricing.unwrap();
    assert!(final_cls.queries > 0);
    assert_eq!(final_cls.solves, 0);
    assert_eq!(final_cls.cache_hits(), final_cls.queries);
    // …and the price pass is a no-op after final-cls already priced.
    let price = result.report("price").unwrap().pricing.unwrap();
    assert_eq!(price.queries, 0);
    // Per-pass solve deltas account for every solve the model performed.
    let total: usize = result
        .reports
        .iter()
        .map(|r| r.pricing.unwrap().solves)
        .sum();
    assert_eq!(total, model.solve_count());
}

/// Wrapper model recording which thread answered each pricing query —
/// the probe for the `QCC_THREADS=1` inline fast path.
struct RecordingModel {
    inner: CalibratedLatencyModel,
    threads_seen: Mutex<Vec<std::thread::ThreadId>>,
}

impl RecordingModel {
    fn new() -> Self {
        Self {
            inner: CalibratedLatencyModel::asplos19(),
            threads_seen: Mutex::new(Vec::new()),
        }
    }
}

impl LatencyModel for RecordingModel {
    fn isa_gate_latency(&self, inst: &Instruction) -> f64 {
        self.inner.isa_gate_latency(inst)
    }

    fn aggregate_latency(&self, constituents: &[Instruction]) -> f64 {
        self.threads_seen
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        self.inner.aggregate_latency(constituents)
    }

    // Declare pricing expensive so any spawn-happy code path would fan out.
    fn parallel_pricing(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "recording"
    }
}

#[test]
fn single_thread_budget_runs_the_search_inline_without_spawning() {
    let circuit = qaoa::maxcut_line(8);
    let instrs = frontend::run(&circuit);
    let options = AggregationOptions::default();
    let caller = std::thread::current().id();

    // The aggregation search with a one-thread pool: every model query must
    // happen on the calling thread, and the output must equal the
    // poolless serial entry point.
    let recording = RecordingModel::new();
    let (out, stats) = aggregate::run_with_pool(&instrs, &recording, &options, &ThreadPool::new(1));
    let queries = recording.threads_seen.lock().unwrap().clone();
    assert!(!queries.is_empty());
    assert!(
        queries.iter().all(|&id| id == caller),
        "1-thread search spawned worker threads"
    );
    let (ref_out, ref_stats) =
        aggregate::run(&instrs, &CalibratedLatencyModel::asplos19(), &options);
    assert_eq!(out, ref_out);
    assert_eq!(stats, ref_stats);

    // Same for the batch API: a pool of one prices inline.
    let recording = RecordingModel::new();
    let queries_in: Vec<&[Instruction]> =
        instrs.iter().map(|i| i.constituents.as_slice()).collect();
    recording.aggregate_latency_batch(&queries_in, &ThreadPool::new(1));
    let seen = recording.threads_seen.lock().unwrap();
    assert_eq!(seen.len(), queries_in.len());
    assert!(
        seen.iter().all(|&id| id == caller),
        "1-thread batch pricing spawned worker threads"
    );
}
