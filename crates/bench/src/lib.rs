//! # qcc-bench
//!
//! Shared harness code for the experiment benches that regenerate the paper's
//! tables and figures. Each `benches/*.rs` target is a `harness = false`
//! binary that prints one table/figure as text; `cargo bench --workspace`
//! therefore reproduces the whole evaluation.
//!
//! Set `QCC_BENCH_SCALE=reduced` to run every experiment on scaled-down
//! benchmark instances (useful for smoke tests); the default is the paper's
//! full sizes. Performance is measured by the separate `perfbench` package,
//! not here.

#![warn(missing_docs)]

use qcc_core::{AggregationOptions, CompileService, CompilerOptions, Strategy};
use qcc_hw::Device;
use qcc_ir::Circuit;
use qcc_workloads::SuiteScale;

/// Reads the benchmark scale from the `QCC_BENCH_SCALE` environment variable
/// (`full`, or `reduced`/`small`, case-insensitive; unset/empty defaults to
/// the paper's full sizes).
///
/// # Panics
///
/// Panics with a message naming the offending value when the variable is set
/// to anything else — a typo'd scale must be a loud startup error, not a
/// silent full-size (or wrong-size) run.
pub fn scale_from_env() -> SuiteScale {
    SuiteScale::parse_env(
        std::env::var("QCC_BENCH_SCALE").ok().as_deref(),
        SuiteScale::Full,
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// Compiles a circuit with one strategy on a grid device sized for it, using
/// the default calibrated latency model via [`CompileService`], and returns
/// the total pulse latency in ns.
pub fn latency_for(circuit: &Circuit, strategy: Strategy, width: usize) -> f64 {
    let device = Device::transmon_grid(circuit.n_qubits());
    let service = CompileService::new(&device);
    let options = CompilerOptions {
        strategy,
        aggregation: AggregationOptions::with_width(width),
    };
    service
        .compile(circuit, &options)
        .expect("grid device sized for the circuit")
        .total_latency_ns
}

/// Geometric mean of a slice of positive numbers.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Prints a standard experiment banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{title}");
    println!("(reproduces {paper_ref} of Shi et al., ASPLOS 2019)");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn table_renders_all_rows() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["bb".into(), "2.5".into()],
            ],
        );
        assert_eq!(t.lines().count(), 4);
        assert!(t.contains("bb"));
    }

    #[test]
    fn latency_helper_produces_positive_latency() {
        let circuit = qcc_workloads::qaoa::paper_triangle_example();
        let isa = latency_for(&circuit, Strategy::IsaBaseline, 10);
        let agg = latency_for(&circuit, Strategy::ClsAggregation, 10);
        assert!(isa > 0.0 && agg > 0.0);
        assert!(agg < isa);
    }
}
