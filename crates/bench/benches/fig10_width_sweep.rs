//! Figure 10: normalized latency versus allowed instruction width for
//! parallel applications (QAOA, Ising) and serialized applications
//! (square-root, UCCSD), including the latency band of the most/least
//! optimized instruction on the critical path.

use qcc_bench::{banner, render_table, scale_from_env};
use qcc_core::{AggregationOptions, Compiler, CompilerOptions, Strategy};
use qcc_hw::{CalibratedLatencyModel, Device};
use qcc_workloads::{standard_suite, SuiteScale};

fn main() {
    banner(
        "Figure 10 — allowed instruction width vs normalized latency",
        "Fig. 10",
    );
    let scale = scale_from_env();
    let suite = standard_suite(scale, 2019);
    // Three parallel and three serial applications, as in the figure.
    let selected = [
        "MAXCUT-reg4",
        "Ising-n30",
        "MAXCUT-line",
        "square-root-n3",
        "square-root-n4",
        "UCCSD-n6",
    ];
    let widths: Vec<usize> = if scale == SuiteScale::Full {
        vec![2, 3, 4, 6, 8, 10]
    } else {
        vec![2, 4, 10]
    };

    for name in selected {
        let Some(bench) = suite.iter().find(|b| b.name == name) else {
            continue;
        };
        let device = Device::transmon_grid(bench.circuit.n_qubits());
        let model = CalibratedLatencyModel::new(device.limits);
        let compiler = Compiler::new(&device, &model);
        let baseline = compiler
            .compile(
                &bench.circuit,
                &CompilerOptions::strategy(Strategy::IsaBaseline),
            )
            .total_latency_ns;

        let mut rows = Vec::new();
        for &w in &widths {
            let options = CompilerOptions {
                strategy: Strategy::ClsAggregation,
                aggregation: AggregationOptions::with_width(w),
            };
            let r = compiler.compile(&bench.circuit, &options);
            let (band_min, band_max) = r.critical_path_latency_band().unwrap_or((0.0, 0.0));
            rows.push(vec![
                format!("{w}"),
                format!("{:.3}", r.total_latency_ns / baseline),
                format!("{:.1}", band_min),
                format!("{:.1}", band_max),
                format!(
                    "{}",
                    r.instructions.iter().map(|i| i.width()).max().unwrap_or(0)
                ),
            ]);
        }
        println!("\n{name}  (ISA baseline {baseline:.1} ns)");
        println!(
            "{}",
            render_table(
                &[
                    "width limit",
                    "normalized latency",
                    "min instr on CP (ns)",
                    "max instr on CP (ns)",
                    "widest instr"
                ],
                &rows
            )
        );
    }
    println!("\nExpected shape: parallel apps (top) saturate at small widths; serialized apps keep improving as the width limit grows.");
}
