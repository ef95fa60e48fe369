//! Measurement plumbing shared by the workloads: process CPU and memory
//! readings, percentiles, the output ledger (digest, repeat check, Fig. 9
//! speedup) and the result line the benchmark ends with.

use qcc_core::{
    AggregateInstruction, CompilationResult, CompileService, CompilerOptions, Layout, Strategy,
};
use qcc_hw::Device;
use qcc_ir::Circuit;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: every metric is a measured number.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name, value, unit));
    }
}

/// Operations attempted and failed over a run (`fail_frac` is their ratio).
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Fails the run unless `ok`: a check over operations already counted.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("check failed: {what}");
            self.failed += 1;
        }
    }
}

/// The last line of standard output: correctness verdict, operation counts
/// and the metrics.
pub fn result_line(outcome: Outcome, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// User plus system CPU time of this process, all threads (live and
/// exited) included, in USER_HZ ticks (100 per second on Linux).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // The command name (field 2) is parenthesized and may contain spaces;
    // the numbered fields resume after the last ')'. utime and stime are
    // fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> u64 { fields[i].parse().expect("numeric stat field") };
    ticks(11) + ticks(12)
}

/// Wall seconds, CPU seconds and per-request milliseconds of every timed
/// pass of a run. A run repeats one pass over the same requests and reports
/// medians over the whole run: the median pass for wall and CPU time, and
/// request-time percentiles over every request of every pass. On a shared
/// host, contention from other tenants comes and goes within seconds; the
/// median of many passes follows the typical pass, where the fastest pass
/// depends on whether the run caught a quiet moment.
#[derive(Default)]
pub struct Passes {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    requests: Vec<f64>,
    per_pass: usize,
}

impl Passes {
    /// Times one pass.
    pub fn time<T>(&mut self, pass: impl FnOnce() -> T) -> T {
        let ticks = cpu_ticks();
        let (out, wall) = timed(pass);
        self.wall.push(wall);
        self.cpu.push((cpu_ticks() - ticks) as f64 / 100.0);
        out
    }

    /// Adds the per-request milliseconds of the pass just timed.
    pub fn requests(&mut self, ms: Vec<f64>) {
        self.per_pass = ms.len();
        self.requests.extend(ms);
    }

    /// Whether to time another pass: always until [`MIN_PASSES`], then while
    /// one more pass of the mean length brings the timed total closer to
    /// `seconds` than stopping does. The timed phase so lasts about
    /// `seconds` on a fast or a slow host alike.
    pub fn another(&self, seconds: u64) -> bool {
        let done: f64 = self.wall.iter().sum();
        let mean = done / self.wall.len().max(1) as f64;
        self.wall.len() < MIN_PASSES || done + mean / 2.0 <= seconds as f64
    }

    /// Median wall seconds of a pass.
    pub fn wall_s(&self) -> f64 {
        median(&self.wall)
    }

    /// Median CPU seconds of a pass.
    pub fn cpu_s(&self) -> f64 {
        median(&self.cpu)
    }

    /// The `p` percentile of request times over every pass.
    pub fn request_ms(&self, p: f64) -> f64 {
        percentile(&self.requests, p)
    }

    /// Requests per pass and passes, for the sample-count line.
    pub fn sample_counts(&self) -> (usize, usize) {
        (self.per_pass, self.wall.len())
    }
}

/// Passes every run times however long they take, so that no median rests
/// on a single pass.
const MIN_PASSES: usize = 2;

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The `p` percentile (`p` in 0..=1) of `samples`, linearly interpolated
/// between the two nearest ranks (rank `p·(n−1)`, counting from 0).
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// Median of `samples` (the mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Runs `f` and returns its value with the elapsed wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Runs the set-up `f` `repeats` times, keeping the last product and the
/// median set-up time.
pub fn repeated_setup<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let (out, secs) = timed(&mut f);
        times.push(secs);
        last = Some(out);
    }
    (last.expect("at least one set-up ran"), median(&times))
}

/// FNV-1a 64-bit hash.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Identity of one compile request: strategy plus the circuit's gates.
pub fn request_key(circuit: &Circuit, strategy: Strategy) -> Vec<u8> {
    let mut key = Vec::with_capacity(16 + circuit.len() * 20);
    key.extend_from_slice(strategy.name().as_bytes());
    key.push(0);
    key.extend_from_slice(&(circuit.n_qubits() as u64).to_le_bytes());
    for inst in circuit.instructions() {
        inst.encode_into(&mut key);
    }
    key
}

/// Hash of one compiled output: latency bits, instruction streams and
/// layouts.
pub fn output_hash(
    instructions: &[AggregateInstruction],
    latencies: &[f64],
    makespan: f64,
    initial: &Layout,
    last: &Layout,
) -> u64 {
    let mut bytes = Vec::with_capacity(instructions.len() * 48);
    bytes.extend_from_slice(&makespan.to_bits().to_le_bytes());
    for latency in latencies {
        bytes.extend_from_slice(&latency.to_bits().to_le_bytes());
    }
    for inst in instructions {
        bytes.extend_from_slice(&(inst.constituents.len() as u64).to_le_bytes());
        for gate in &inst.constituents {
            gate.encode_into(&mut bytes);
        }
    }
    for layout in [initial, last] {
        for &p in &layout.physical {
            bytes.extend_from_slice(&(p as u64).to_le_bytes());
        }
    }
    fnv64(&bytes)
}

/// Hash of a [`CompilationResult`] (see [`output_hash`]).
pub fn result_hash(result: &CompilationResult) -> u64 {
    output_hash(
        &result.instructions,
        &result.latencies,
        result.total_latency_ns,
        &result.initial_layout,
        &result.final_layout,
    )
}

/// ISA makespans through a cache-less service with the analytic model. ISA
/// pricing is per-gate table arithmetic under every model, GRAPE included,
/// so this is each workload's Fig. 9 baseline.
pub fn isa_makespan(device: &Device) -> impl FnMut(&Circuit) -> f64 + '_ {
    let isa = CompileService::new(device)
        .with_threads(crate::THREADS)
        .with_compile_cache(0);
    move |circuit| {
        isa.compile(circuit, &CompilerOptions::strategy(Strategy::IsaBaseline))
            .expect("the device fits every workload circuit")
            .total_latency_ns
    }
}

/// Every distinct output of a run, keyed by request, with the hash of the
/// first compile of each key.
#[derive(Default)]
pub struct Ledger {
    /// Request key → (hash of its first compile, index into `outputs`).
    first: BTreeMap<Vec<u8>, (u64, usize)>,
    /// The distinct outputs, for the simulator check and the speedup.
    pub outputs: Vec<(Circuit, CompilationResult)>,
}

impl Ledger {
    /// Records one served result. Returns `false` when the key was seen
    /// before and this result is not bit-identical to its first compile.
    pub fn record(&mut self, circuit: &Circuit, result: CompilationResult) -> bool {
        let key = request_key(circuit, result.strategy);
        let hash = result_hash(&result);
        match self.first.get(&key) {
            Some(&(first, _)) => first == hash,
            None => {
                self.first.insert(key, (hash, self.outputs.len()));
                self.outputs.push((circuit.clone(), result));
                true
            }
        }
    }

    /// Whether `hash` equals the first compile of the request.
    pub fn matches(&self, circuit: &Circuit, strategy: Strategy, hash: u64) -> bool {
        self.first
            .get(&request_key(circuit, strategy))
            .is_some_and(|&(first, _)| first == hash)
    }

    /// Makespan of the first compile of the request, if it was recorded.
    pub fn makespan(&self, circuit: &Circuit, strategy: Strategy) -> Option<f64> {
        let &(_, index) = self.first.get(&request_key(circuit, strategy))?;
        Some(self.outputs[index].1.total_latency_ns)
    }

    /// Digest of every distinct output, independent of request order.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.first.len() * 16);
        for (key, (hash, _)) in &self.first {
            bytes.extend_from_slice(&fnv64(key).to_le_bytes());
            bytes.extend_from_slice(&hash.to_le_bytes());
        }
        fnv64(&bytes)
    }

    /// Instructions left after the aggregation pass, over the distinct
    /// outputs that ran it.
    pub fn aggregation_out(&self) -> usize {
        self.outputs
            .iter()
            .filter_map(|(_, r)| r.report("aggregation"))
            .map(|report| report.instructions)
            .sum()
    }

    /// Routing SWAPs over the distinct outputs.
    pub fn route_swaps(&self) -> usize {
        self.outputs.iter().map(|(_, r)| r.swap_count).sum()
    }

    /// Fig. 9 speedup: geometric mean over the distinct circuits compiled
    /// under CLS+Aggregation of the ISA makespan (from `isa_makespan`) over
    /// the aggregated makespan.
    pub fn speedup_vs_isa(&self, mut isa_makespan: impl FnMut(&Circuit) -> f64) -> f64 {
        let mut logs: Vec<f64> = self
            .outputs
            .iter()
            .filter(|(_, r)| r.strategy == Strategy::ClsAggregation)
            .map(|(c, r)| (isa_makespan(c) / r.total_latency_ns).ln())
            .collect();
        assert!(!logs.is_empty(), "no aggregated outputs to compare");
        // Sum in value order, so the last bits do not depend on the order
        // requests arrived in.
        logs.sort_by(f64::total_cmp);
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }

    /// The line every run prints before its result: the exact quantities a
    /// later count-based claim may rest on.
    pub fn determinism_line(&self, speedup: f64, queries: usize, solves: usize) -> String {
        format!(
            "determinism: digest={:016x} outputs={} speedup_vs_isa={speedup} \
             aggregation_out={} route_swaps={} queries={queries} solves={solves}",
            self.digest(),
            self.outputs.len(),
            self.aggregation_out(),
            self.route_swaps()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentiles() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&samples), 3.0);
        assert!((percentile(&samples, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 1.0), 5.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut metrics = Metrics::default();
        metrics.put("wall_s", 1.25, "s");
        metrics.put("pass.final-cls_ms", 0.5, "ms");
        let line = result_line(
            Outcome {
                attempted: 3,
                failed: 0,
            },
            &metrics,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"pass.final-cls_ms\": {\"value\": 0.5, \
             \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn passes_fill_the_requested_seconds() {
        let mut passes = Passes::default();
        passes.wall = vec![0.4];
        assert!(passes.another(1), "fewer than the minimum");
        passes.wall = vec![0.4, 0.4];
        assert!(
            passes.another(1),
            "a third pass ends at 1.2 s, nearer 1 s than 0.8 s"
        );
        passes.wall = vec![0.4, 0.4, 0.4];
        assert!(
            !passes.another(1),
            "a fourth pass ends at 1.6 s, farther than 1.2 s"
        );
        passes.wall = vec![5.0, 5.0];
        assert!(!passes.another(1), "the minimum already overran");
    }

    #[test]
    fn process_readings_are_positive() {
        let mut passes = Passes::default();
        passes.time(|| (0..1_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(passes.cpu_s() >= 0.0 && passes.wall_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
