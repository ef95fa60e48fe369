//! Compile a slice of the Table 3 benchmark suite under the ISA baseline, CLS
//! and CLS+Aggregation and report normalized latencies plus SWAP counts — a
//! small-scale version of the Fig. 9 experiment suited to a laptop.
//!
//! Run with `cargo run --release --example benchmark_sweep`. Defaults to the
//! reduced-size suite; set `QCC_BENCH_SCALE=full` for the paper's full sizes
//! (any other value is a startup error).

use qcc::compiler::{
    AggregationOptions, CompileService, CompilerOptions, Priority, ServeConfig, Strategy,
    SubmitOptions,
};
use qcc::workloads::{standard_suite, SuiteScale};

fn main() {
    let scale = SuiteScale::parse_env(
        std::env::var("QCC_BENCH_SCALE").ok().as_deref(),
        SuiteScale::Reduced,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    // The classic ISA / CLS / CLS+Aggregation sweep. The baseline compiles
    // too, so the other columns can be normalized to it.
    let reported = [Strategy::Cls, Strategy::ClsAggregation];

    let suite = standard_suite(scale, 7);
    print!(
        "{:<16} {:>7} {:>7} {:>9}",
        "benchmark", "qubits", "gates", "ISA(ns)"
    );
    for s in &reported {
        print!(" {:>16}", s.name());
    }
    println!(" {:>6}", "swaps");

    for bench in &suite {
        let device = qcc::hw::Device::transmon_grid(bench.circuit.n_qubits());
        let service = CompileService::new(&device);
        // One serving session per benchmark: the latency-defining baseline
        // goes in as interactive traffic, the sweep strategies as batch — all
        // stream through the staged pass pipeline concurrently.
        let (isa, swept) = service.serve(ServeConfig::default(), |handle| {
            let isa_ticket = handle
                .submit(
                    &bench.circuit,
                    &CompilerOptions::strategy(Strategy::IsaBaseline),
                    SubmitOptions::default().priority(Priority::Interactive),
                )
                .expect("default queue has room");
            let sweep_tickets: Vec<_> = reported
                .iter()
                .map(|&strategy| {
                    handle
                        .submit(
                            &bench.circuit,
                            &CompilerOptions {
                                strategy,
                                aggregation: AggregationOptions::with_width(10),
                            },
                            SubmitOptions::default().priority(Priority::Batch),
                        )
                        .expect("default queue has room")
                })
                .collect();
            let isa = handle.wait(isa_ticket).expect("device sized for benchmark");
            let swept: Vec<_> = sweep_tickets
                .into_iter()
                .map(|t| handle.wait(t).expect("device sized for benchmark"))
                .collect();
            (isa, swept)
        });
        print!(
            "{:<16} {:>7} {:>7} {:>9.0}",
            bench.name,
            bench.n_qubits(),
            bench.gate_count(),
            isa.total_latency_ns,
        );
        let mut swaps = isa.swap_count;
        for r in &swept {
            swaps = r.swap_count;
            print!(" {:>16.3}", r.total_latency_ns / isa.total_latency_ns);
        }
        println!(" {:>6}", swaps);
    }
    println!("\nLower is better (normalized to the gate-based ISA baseline).");
}
