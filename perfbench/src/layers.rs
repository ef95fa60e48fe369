//! The two metric sets a run reports: end-to-end ([`Run`], untraced runs)
//! and per-layer ([`Layers`], traced runs).

use crate::check::{check, Verdict};
use crate::measure::{peak_rss_mb, Ledger, Metrics, Outcome, Passes};
use crate::probes;
use crate::trace::{Pricing, Recorder};
use qcc_core::PassReport;
use std::collections::BTreeMap;

/// End-to-end measurements of one untraced timed phase.
pub struct Run {
    pub setup_s: f64,
    pub passes: Passes,
    pub speedup: f64,
    /// GRAPE pricing queries and solves of one pass (zero for the analytic
    /// model).
    pub queries: usize,
    pub solves: usize,
}

impl Run {
    /// Every end-to-end metric, with the request sample count printed.
    pub fn report(&self) -> Metrics {
        let (per_pass, passes) = self.passes.sample_counts();
        println!("requests: {per_pass} samples per pass, {passes} passes");
        let mut m = Metrics::default();
        m.put("setup_s", self.setup_s, "s");
        m.put("wall_s", self.passes.wall_s(), "s");
        m.put("cpu_s", self.passes.cpu_s(), "s");
        m.put("req_p50_ms", self.passes.request_ms(0.5), "ms");
        m.put("req_p90_ms", self.passes.request_ms(0.9), "ms");
        m.put("speedup_vs_isa", self.speedup, "x");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m
    }
}

/// Pass names as the pipeline reports them, with their metric names.
const PASSES: [(&str, &str); 8] = [
    ("flatten", "pass.flatten_ms"),
    ("commutativity-detection", "pass.detect_ms"),
    ("cls", "pass.cls_ms"),
    ("route", "pass.route_ms"),
    ("aggregation", "pass.aggregation_ms"),
    ("final-cls", "pass.final-cls_ms"),
    ("price", "pass.price_ms"),
    ("schedule", "pass.schedule_ms"),
];

/// Serve-engine and result-cache measurements (`serve-mix` only).
#[derive(Default)]
pub struct Service {
    pub hit_ratio: f64,
    pub hit_us: f64,
    pub miss_ms: f64,
    pub queue_wait_ms: f64,
    pub one_shot_inserts: usize,
}

/// Staged batch-engine measurements (`fullscale-batch` only).
#[derive(Default)]
pub struct Batch {
    pub pass_busy_s: f64,
    pub overlap: f64,
}

/// Snapshot and warm-start measurements (`grape-warm` only).
#[derive(Default)]
pub struct Persist {
    pub snapshot_ms: f64,
    pub load_ms: f64,
    pub records: usize,
    pub bytes: u64,
}

/// Per-layer measurements of one traced run. Layers a workload does not
/// reach report zero.
#[derive(Default)]
pub struct Layers {
    pass_ns: BTreeMap<&'static str, u64>,
    aggregation_out: usize,
    route_swaps: usize,
    pricing: Pricing,
    grape_queries: usize,
    pub service: Service,
    pub batch: Batch,
    pub persist: Persist,
    verified: usize,
    skipped: usize,
    pub trace_overhead: f64,
}

impl Layers {
    /// Checks every distinct output with the simulator; a rejected output
    /// fails the run.
    pub fn check(&mut self, ledger: &Ledger, outcome: &mut Outcome) {
        for (circuit, result) in &ledger.outputs {
            match check(circuit, result) {
                Verdict::Verified => self.verified += 1,
                Verdict::Skipped => self.skipped += 1,
                Verdict::Rejected(why) => outcome.require(
                    false,
                    &format!("{} output rejected: {why}", result.strategy),
                ),
            }
        }
        println!(
            "checked: {} verified, {} skipped",
            self.verified, self.skipped
        );
    }

    /// Pass self times from the recorder's pass spans (pricing excluded),
    /// plus every pricing call. `grape_queries` is the query count the model
    /// itself reported (zero for the analytic model).
    pub fn spans(&mut self, recorder: &Recorder, grape_queries: usize) {
        let own = recorder.self_ns_by_name();
        for (pass, _) in PASSES {
            self.pass_ns
                .insert(pass, own.get(pass).copied().unwrap_or(0));
        }
        self.pricing = recorder.pricing_total();
        self.grape_queries = grape_queries;
    }

    /// Pass times from results' [`PassReport`]s (inclusive of the pricing
    /// calls made inside the pass), plus every pricing call.
    pub fn reports<'a>(
        &mut self,
        reports: impl Iterator<Item = &'a PassReport>,
        recorder: &Recorder,
        grape_queries: usize,
    ) {
        for report in reports {
            *self.pass_ns.entry(report.pass).or_insert(0) += report.wall_time.as_nanos() as u64;
        }
        self.pricing = recorder.pricing_total();
        self.grape_queries = grape_queries;
    }

    /// Output-size counts over the distinct outputs.
    pub fn outputs(&mut self, ledger: &Ledger) {
        self.aggregation_out = ledger.aggregation_out();
        self.route_swaps = ledger.route_swaps();
    }

    /// Runs the kernel and GRAPE probes, writes the spans out and returns
    /// every per-layer metric.
    pub fn finish(self, recorder: &Recorder, workload: &str, seed: u64) -> Metrics {
        let path = crate::scratch_dir("trace").join(format!("{workload}-seed{seed}.jsonl"));
        if let Err(e) = recorder.write_jsonl(&path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
        let kernels = probes::kernels();
        let grape = probes::grape();

        let mut m = Metrics::default();
        for (pass, name) in PASSES {
            let ns = self.pass_ns.get(pass).copied().unwrap_or(0);
            m.put(name, ns as f64 / 1e6, "ms");
        }
        m.put("pass.aggregation_out", self.aggregation_out as f64, "count");
        m.put("pass.route_swaps", self.route_swaps as f64, "count");

        let p = &self.pricing;
        m.put("pricing.queries", p.queries as f64, "count");
        m.put("pricing.grape_queries", self.grape_queries as f64, "count");
        m.put("pricing.solves", p.solves as f64, "count");
        let hit_ratio = if p.queries == 0 {
            0.0
        } else {
            1.0 - p.solves as f64 / p.queries as f64
        };
        m.put("pricing.hit_ratio", hit_ratio, "ratio");
        m.put("pricing.busy_ms", p.busy_ns as f64 / 1e6, "ms");
        m.put("pricing.solve_ms", p.solve_ns as f64 / 1e6, "ms");
        let nosolve_us = if p.nosolve_queries == 0 {
            0.0
        } else {
            p.nosolve_ns as f64 / p.nosolve_queries as f64 / 1e3
        };
        m.put("pricing.nosolve_us", nosolve_us, "us");

        m.put("grape.solve_1q_ms", grape.solve_1q_ms, "ms");
        m.put("grape.solve_2q_ms", grape.solve_2q_ms, "ms");
        m.put("grape.iterations", grape.iterations as f64, "count");
        m.put("math.matmul_2x2_ns", kernels.matmul_2x2_ns, "ns");
        m.put("math.matmul_4x4_ns", kernels.matmul_4x4_ns, "ns");
        m.put("math.expm_2x2_ns", kernels.expm_2x2_ns, "ns");
        m.put("math.expm_4x4_ns", kernels.expm_4x4_ns, "ns");

        let s = &self.service;
        m.put("service.hit_ratio", s.hit_ratio, "ratio");
        m.put("service.hit_us", s.hit_us, "us");
        m.put("service.miss_ms", s.miss_ms, "ms");
        m.put("service.queue_wait_ms", s.queue_wait_ms, "ms");
        m.put(
            "service.one_shot_inserts",
            s.one_shot_inserts as f64,
            "count",
        );

        m.put("batch.pass_busy_s", self.batch.pass_busy_s, "s");
        m.put("batch.overlap", self.batch.overlap, "ratio");

        let d = &self.persist;
        m.put("persist.snapshot_ms", d.snapshot_ms, "ms");
        m.put("persist.load_ms", d.load_ms, "ms");
        m.put("persist.records", d.records as f64, "count");
        m.put("persist.bytes", d.bytes as f64, "bytes");

        m.put("check.verified", self.verified as f64, "count");
        m.put("check.skipped", self.skipped as f64, "count");
        m.put("trace.overhead", self.trace_overhead, "ratio");
        m
    }
}
