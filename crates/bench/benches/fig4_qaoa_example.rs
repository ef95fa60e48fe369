//! Figure 4: the worked QAOA MAXCUT-triangle example — gate-based vs
//! aggregated compilation, including the pulse shapes of one aggregated
//! instruction (Fig. 4c/4d) produced by the real GRAPE unit.

use qcc_bench::{banner, render_table};
use qcc_control::{GrapeConfig, GrapeLatencyModel};
use qcc_core::{Compiler, CompilerOptions, Strategy};
use qcc_hw::{CalibratedLatencyModel, Device};
use qcc_workloads::qaoa;

fn main() {
    banner(
        "Figure 4 — QAOA triangle: gate-based vs aggregated compilation",
        "Fig. 4 and §3.1",
    );

    let circuit = qaoa::paper_triangle_example();
    let device = Device::transmon_line(3);
    let model = CalibratedLatencyModel::new(device.limits);
    let compiler = Compiler::new(&device, &model);

    let mut rows = Vec::new();
    let mut baseline = 0.0;
    let mut aggregated = 0.0;
    for strategy in [Strategy::IsaBaseline, Strategy::ClsAggregation] {
        let r = compiler.compile(&circuit, &CompilerOptions::strategy(strategy));
        if strategy == Strategy::IsaBaseline {
            baseline = r.total_latency_ns;
        } else {
            aggregated = r.total_latency_ns;
        }
        rows.push(vec![
            strategy.name().to_string(),
            format!("{}", r.instructions.len()),
            format!("{}", r.swap_count),
            format!("{:.1}", r.total_latency_ns),
        ]);
    }
    println!(
        "{}",
        render_table(&["scheme", "instructions", "swaps", "latency (ns)"], &rows)
    );
    println!(
        "Speedup: {:.2}x   (paper: 381.9 ns -> 128.3 ns, 2.97x)\n",
        baseline / aggregated
    );

    // Pulse shapes for the largest aggregated instruction (the paper's G3).
    let r = compiler.compile(
        &circuit,
        &CompilerOptions::strategy(Strategy::ClsAggregation),
    );
    let largest = r
        .instructions
        .iter()
        .filter(|i| i.gate_count() > 1)
        .max_by_key(|i| i.gate_count());
    let Some(inst) = largest else {
        println!("(no multi-gate aggregate found)");
        return;
    };
    let control = GrapeLatencyModel::new(device.limits, GrapeConfig::fast(), inst.width());
    let (duration, result) = control
        .optimize_instruction(&inst.constituents)
        .expect("a model sized to the aggregate's width admits it");
    println!(
        "Optimized pulse for the largest {}-qubit aggregate ({} gates): {:.1} ns, fidelity {:.4}",
        inst.width(),
        inst.gate_count(),
        duration,
        result.fidelity
    );
    println!("Pulse program (CSV, one column per control field — cf. Fig. 4d):");
    println!("{}", result.pulse.to_csv());
}
