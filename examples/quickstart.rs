//! Quick start: compile the paper's worked QAOA example (§3.1 / Fig. 4) with
//! every strategy through the serving front door, stream the per-pass
//! progress of the full flow, and show where the GRAPE solves land in the
//! per-pass timing breakdown.
//!
//! Run with `cargo run --release --example quickstart`.

use qcc::compiler::{
    AggregationOptions, CompileService, CompilerOptions, PassProgress, ServeConfig, Strategy,
    SubmitOptions,
};
use qcc::control::GrapeLatencyModel;
use qcc::hw::Device;
use qcc::workloads::qaoa;
use threadpool::mpmc;

fn main() {
    let circuit = qaoa::paper_triangle_example();
    println!(
        "Input circuit: {} qubits, {} gates",
        circuit.n_qubits(),
        circuit.len()
    );

    let device = Device::transmon_line(3);
    let service = CompileService::new(&device);

    // One serving session sweeps every strategy: submit all five requests up
    // front (they stream through the staged pass pipeline concurrently), then
    // claim the results in strategy order. The full flow also streams one
    // progress event per pass into a bounded channel.
    let (progress_tx, progress_rx) = mpmc::bounded::<PassProgress>(32);
    let results = service.serve(ServeConfig::default(), |handle| {
        let tickets: Vec<_> = Strategy::all()
            .iter()
            .map(|&strategy| {
                let submit = if strategy == Strategy::ClsAggregation {
                    SubmitOptions::default().progress(progress_tx.clone())
                } else {
                    SubmitOptions::default()
                };
                handle
                    .submit(&circuit, &CompilerOptions::strategy(strategy), submit)
                    .expect("default queue has room for five requests")
            })
            .collect();
        tickets
            .into_iter()
            .map(|t| handle.wait(t).expect("line device fits the example"))
            .collect::<Vec<_>>()
    });
    drop(progress_tx);

    let mut baseline = 0.0;
    println!(
        "\n{:<18} {:>12} {:>10} {:>10}",
        "strategy", "latency (ns)", "instrs", "speedup"
    );
    for (strategy, result) in Strategy::all().iter().zip(&results) {
        if *strategy == Strategy::IsaBaseline {
            baseline = result.total_latency_ns;
        }
        println!(
            "{:<18} {:>12.1} {:>10} {:>9.2}x",
            strategy.name(),
            result.total_latency_ns,
            result.instructions.len(),
            baseline / result.total_latency_ns
        );
    }

    // The streamed per-pass progress of the full flow: instruction counts
    // after each pass of the preset recipe, plus wall-clock timing, delivered
    // while the request was in flight.
    println!(
        "\nStreamed pass progress of {}:",
        Strategy::ClsAggregation.name()
    );
    for event in progress_rx.drain() {
        let report = event.report;
        println!(
            "  {:<24} {:>4} instrs {:>4} gates  {:>9.1?}",
            report.pass, report.instructions, report.gates, report.wall_time
        );
    }

    // The same compile priced by the real GRAPE optimal-control unit: the
    // per-pass reports now attribute the solves (and cache hits) to the pass
    // that triggered them, so the timing breakdown shows where they land. The
    // service borrows the model, so its counters stay readable out here.
    let grape = GrapeLatencyModel::fast_two_qubit();
    let grape_service = CompileService::with_model(&device, Box::new(&grape));
    // Persistent cache tier: when QCC_CACHE_DIR names a directory, warm-start
    // the GRAPE and result caches from it before compiling and snapshot them
    // back afterwards — a second run of this example then re-solves nothing.
    let cache_dir = qcc::compiler::cache_dir_from_env();
    if let Some(dir) = &cache_dir {
        let loaded = grape_service.warm_start_or_cold(dir);
        println!(
            "\nWarm start from {}: {loaded} cached records",
            dir.display()
        );
    }
    let grape_result = grape_service
        .compile(
            &circuit,
            &CompilerOptions {
                strategy: Strategy::ClsAggregation,
                aggregation: AggregationOptions::with_width(2),
            },
        )
        .expect("line device fits the example");
    println!(
        "\nGRAPE-priced pipeline ({} solves, {} ns total):",
        grape.solve_count(),
        grape_result.total_latency_ns.round()
    );
    for report in &grape_result.reports {
        let pricing = report
            .pricing
            .map(|p| format!("{:>3} solves {:>3} cache hits", p.solves, p.cache_hits()))
            .unwrap_or_default();
        println!(
            "  {:<24} {:>4} instrs  {:>9.1?}  {pricing}",
            report.pass, report.instructions, report.wall_time
        );
    }
    println!("GRAPE solves this run: {}", grape.solve_count());
    if let Some(dir) = &cache_dir {
        let written = grape_service
            .snapshot_to(dir)
            .expect("QCC_CACHE_DIR is writable");
        println!("Snapshot: {written} records -> {}", dir.display());
    }

    // Verify that the full flow preserved the circuit semantics.
    let full = &results[Strategy::all()
        .iter()
        .position(|&s| s == Strategy::ClsAggregation)
        .expect("full flow is in the sweep")];
    let check =
        qcc::compiler::verify_compilation(&circuit, full).expect("the triangle example simulates");
    println!(
        "\nSemantic verification of CLS+Aggregation: {}",
        if check.equivalent {
            "equivalent"
        } else {
            "MISMATCH"
        }
    );

    // Service telemetry: cache activity plus the request counters of the
    // serving session above.
    let stats = service.compile_cache_stats();
    println!(
        "\nService telemetry: {} submitted, {} completed, {} rejected, \
         {} deadline-expired; cache {} hits / {} misses / {} entries",
        stats.submitted,
        stats.completed,
        stats.rejected,
        stats.deadline_expired,
        stats.hits,
        stats.misses,
        stats.entries
    );
}
