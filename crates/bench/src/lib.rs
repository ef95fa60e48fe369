//! # qcc-bench
//!
//! Shared harness code for the experiment benches that regenerate the paper's
//! tables and figures. Each `benches/*.rs` target is a `harness = false`
//! binary that prints one table/figure as text; `cargo bench --workspace`
//! therefore reproduces the whole evaluation.
//!
//! Set `QCC_BENCH_SCALE=reduced` to run every experiment on scaled-down
//! benchmark instances (useful for smoke tests); the default is the paper's
//! full sizes. Set `QCC_STRATEGY=<name>` (e.g. `cls+aggregation`, see
//! [`Strategy`]'s `FromStr` impl) to restrict the strategy-sweep experiments
//! to one strategy — the ISA baseline is always kept for normalization. Set
//! `QCC_BENCH_JSON=<path>` to additionally write the per-strategy compile
//! wall-clock timings as machine-readable JSON ([`write_bench_json`]) — the
//! artifact CI uploads to track the performance trajectory.

#![warn(missing_docs)]

use qcc_core::{AggregationOptions, CompileService, CompilerOptions, Strategy};
use qcc_hw::Device;
use qcc_ir::Circuit;
use qcc_workloads::{Benchmark, SuiteScale};
use std::sync::Mutex;
use std::time::Instant;

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

/// Strategies selected by the `QCC_STRATEGY` environment variable.
///
/// Unset (or empty): every strategy, in [`Strategy::all`] order. Set to a
/// parseable strategy name: the ISA baseline (kept so normalized latencies
/// stay meaningful) followed by the chosen strategy — single-strategy runs
/// then need no code edits.
///
/// # Panics
///
/// Panics with a message naming the offending value when the variable is set
/// to an unknown strategy name.
pub fn strategies_from_env() -> Vec<Strategy> {
    strategies_from(std::env::var("QCC_STRATEGY").ok().as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

/// Pure parsing unit behind [`strategies_from_env`]: `None` or an
/// empty/whitespace value selects every strategy; otherwise the value must
/// parse as a strategy name ([`Strategy`]'s `FromStr`), and the error names
/// the offending value.
pub fn strategies_from(value: Option<&str>) -> Result<Vec<Strategy>, String> {
    let Some(raw) = value else {
        return Ok(Strategy::all().to_vec());
    };
    if raw.trim().is_empty() {
        return Ok(Strategy::all().to_vec());
    }
    let chosen: Strategy = raw
        .parse()
        .map_err(|e| format!("invalid QCC_STRATEGY value '{raw}': {e}"))?;
    if chosen == Strategy::IsaBaseline {
        Ok(vec![chosen])
    } else {
        Ok(vec![Strategy::IsaBaseline, chosen])
    }
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

/// Latencies of the selected strategies ([`strategies_from_env`]) for one
/// benchmark, in selection order. Each compile's wall-clock time is recorded
/// for the machine-readable bench log ([`write_bench_json`]).
pub fn all_strategy_latencies(bench: &Benchmark, width: usize) -> Vec<(Strategy, f64)> {
    strategies_from_env()
        .into_iter()
        .map(|s| {
            let started = Instant::now();
            let latency = latency_for(&bench.circuit, s, width);
            record_compile_timing(&bench.name, s, started.elapsed().as_secs_f64());
            (s, latency)
        })
        .collect()
}

/// One recorded compile-timing sample of the bench harness.
#[derive(Debug, Clone)]
pub struct CompileTiming {
    /// Benchmark instance name (e.g. `MAXCUT-line-20`).
    pub benchmark: String,
    /// Strategy compiled.
    pub strategy: Strategy,
    /// Compile wall-clock time in seconds.
    pub compile_seconds: f64,
}

static TIMINGS: Mutex<Vec<CompileTiming>> = Mutex::new(Vec::new());

/// Records one compile wall-clock sample for the machine-readable bench log.
/// Harness helpers call this automatically; experiment mains that compile
/// directly can record their own samples.
pub fn record_compile_timing(benchmark: &str, strategy: Strategy, compile_seconds: f64) {
    TIMINGS
        .lock()
        .expect("timing log poisoned")
        .push(CompileTiming {
            benchmark: benchmark.to_string(),
            strategy,
            compile_seconds,
        });
}

/// Writes every timing recorded so far as JSON to the path in the
/// `QCC_BENCH_JSON` environment variable and clears the log; no-op when the
/// variable is unset or empty. The format is one object per sample:
///
/// ```json
/// {"experiment":"fig9_latency","scale":"reduced","threads":8,
///  "timings":[{"benchmark":"MAXCUT-line-20","strategy":"ISA","compile_seconds":0.0123}]}
/// ```
///
/// CI runs the Fig. 9 smoke with this set and uploads the file as an
/// artifact, seeding a machine-readable performance trajectory across
/// commits.
pub fn write_bench_json(experiment: &str) {
    let Ok(path) = std::env::var("QCC_BENCH_JSON") else {
        return;
    };
    if path.trim().is_empty() {
        return;
    }
    write_bench_json_to(experiment, &path);
}

/// [`write_bench_json`] to an explicit path, bypassing the environment
/// variable (and therefore safe to call from tests, which must not mutate
/// the process environment while sibling test threads read it).
pub fn write_bench_json_to(experiment: &str, path: &str) {
    let timings = std::mem::take(&mut *TIMINGS.lock().expect("timing log poisoned"));
    let scale = match scale_from_env() {
        SuiteScale::Reduced => "reduced",
        _ => "full",
    };
    let mut json = String::with_capacity(timings.len() * 96 + 128);
    json.push_str(&format!(
        "{{\"experiment\":{},\"scale\":\"{scale}\",\"threads\":{},\"timings\":[",
        json_string(experiment),
        threadpool::default_parallelism(),
    ));
    for (i, t) in timings.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"benchmark\":{},\"strategy\":{},\"compile_seconds\":{:.9}}}",
            json_string(&t.benchmark),
            json_string(t.strategy.name()),
            t.compile_seconds,
        ));
    }
    json.push_str("]}\n");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("QCC_BENCH_JSON: failed to write {path}: {e}");
    } else {
        eprintln!("bench timings written to {path} ({experiment})");
    }
}

/// Minimal JSON string rendering (quotes, backslashes, and control bytes —
/// the vendored serde stand-in has no serializer).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
    fn bench_json_round_trips_recorded_timings() {
        let path = std::env::temp_dir().join("qcc_bench_json_test.json");
        record_compile_timing("MAXCUT-line-4", Strategy::IsaBaseline, 0.125);
        record_compile_timing("Ising-chain-4", Strategy::ClsAggregation, 0.5);
        // The explicit-path variant: tests must not set_var while sibling
        // test threads getenv (a libc-level data race).
        write_bench_json_to("unit-test", path.to_str().unwrap());
        let written = std::fs::read_to_string(&path).expect("bench json written");
        let _ = std::fs::remove_file(&path);
        assert!(written.contains("\"experiment\":\"unit-test\""));
        assert!(written.contains("\"benchmark\":\"MAXCUT-line-4\""));
        assert!(written.contains("\"strategy\":\"CLS+Aggregation\""));
        assert!(written.contains("\"compile_seconds\":0.125"));
        assert!(written.contains("\"compile_seconds\":0.125000000}"));
        assert!(written.contains("\"threads\":"));
        // The log drains on write: a second write emits no stale samples.
        assert!(TIMINGS.lock().unwrap().is_empty());
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\u000ay\"");
    }

    #[test]
    fn strategy_env_parsing_selects_and_rejects() {
        // Pure-function tests: mutating the real environment would race with
        // sibling test threads reading it (a libc-level hazard).
        assert_eq!(strategies_from(None), Ok(Strategy::all().to_vec()));
        assert_eq!(strategies_from(Some("")), Ok(Strategy::all().to_vec()));
        assert_eq!(strategies_from(Some("  ")), Ok(Strategy::all().to_vec()));
        assert_eq!(
            strategies_from(Some("cls+aggregation")),
            Ok(vec![Strategy::IsaBaseline, Strategy::ClsAggregation])
        );
        // The baseline is not duplicated when chosen explicitly.
        assert_eq!(
            strategies_from(Some("isa")),
            Ok(vec![Strategy::IsaBaseline])
        );
        for bad in ["clsx", "aggregation+cls", "42"] {
            let err = strategies_from(Some(bad)).unwrap_err();
            assert!(err.contains("QCC_STRATEGY"), "{err}");
            assert!(err.contains(bad), "error must name the value: {err}");
        }
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
