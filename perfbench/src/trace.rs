//! Spans for the traced run, recorded from the benchmark's own code around
//! calls into the library, plus the forwarding [`TracedModel`] that times
//! every pricing call.
//!
//! A span has a name, start, end, parent span and request id. Spans live in
//! memory and are written out once, when the run ends. Pricing calls are not
//! kept one by one (a warm run makes hundreds of thousands): each is folded
//! into the innermost span open on the calling thread as a child interval
//! (count, queries, solves, busy time). The pass thread issues its pricing
//! calls one at a time, so these intervals never overlap each other or a
//! child span, and a span's self time is its duration minus its child spans
//! and its folded pricing time. Pricing calls made on threads with no open
//! span (inside the serve and batch engines) are folded into one orphan
//! total.

use qcc_hw::{LatencyModel, PersistentCache, PricingStats};
use qcc_ir::Instruction;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use threadpool::ThreadPool;

/// Pricing calls folded into one span.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Pricing {
    /// Calls into the model (single and batched).
    pub calls: u64,
    /// Queries those calls carried.
    pub queries: u64,
    /// Solves the model reported during those calls.
    pub solves: u64,
    /// Time inside all calls.
    pub busy_ns: u64,
    /// Time inside calls that solved at least one query.
    pub solve_ns: u64,
    /// Queries carried by calls that solved nothing.
    pub nosolve_queries: u64,
    /// Time inside calls that solved nothing.
    pub nosolve_ns: u64,
}

impl Pricing {
    fn add_call(&mut self, queries: u64, solves: u64, ns: u64) {
        self.calls += 1;
        self.queries += queries;
        self.solves += solves;
        self.busy_ns += ns;
        if solves > 0 {
            self.solve_ns += ns;
        } else {
            self.nosolve_queries += queries;
            self.nosolve_ns += ns;
        }
    }

    /// Sums two tallies.
    pub fn merge(&mut self, other: &Pricing) {
        self.calls += other.calls;
        self.queries += other.queries;
        self.solves += other.solves;
        self.busy_ns += other.busy_ns;
        self.solve_ns += other.solve_ns;
        self.nosolve_queries += other.nosolve_queries;
        self.nosolve_ns += other.nosolve_ns;
    }
}

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Pricing calls made while this was the innermost span on its thread.
    pub pricing: Pricing,
}

struct Frame {
    id: usize,
    parent: Option<usize>,
    request: u64,
    name: &'static str,
    start: Instant,
    pricing: Pricing,
}

thread_local! {
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span store of one traced run.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    orphan: Mutex<Pricing>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            orphan: Mutex::new(Pricing::default()),
        }
    }
}

impl Recorder {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span, child of the innermost span open on this
    /// thread.
    pub fn scope<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().map(|frame| frame.id);
            open.push(Frame {
                id,
                parent,
                request,
                name,
                start: Instant::now(),
                pricing: Pricing::default(),
            });
        });
        let out = f();
        let end = Instant::now();
        let frame = OPEN
            .with(|open| open.borrow_mut().pop())
            .expect("span stack is balanced");
        self.push(Span {
            id: frame.id,
            parent: frame.parent,
            request: frame.request,
            name: frame.name,
            start_ns: self.ns(frame.start),
            end_ns: self.ns(end),
            pricing: frame.pricing,
        });
        out
    }

    /// Records a top-level span timed by the caller, e.g. a request from
    /// submit to result.
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: None,
            request,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            pricing: Pricing::default(),
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    fn pricing_call(&self, queries: u64, solves: u64, ns: u64) {
        let folded = OPEN.with(|open| match open.borrow_mut().last_mut() {
            Some(frame) => {
                frame.pricing.add_call(queries, solves, ns);
                true
            }
            None => false,
        });
        if !folded {
            self.orphan
                .lock()
                .expect("orphan tally poisoned")
                .add_call(queries, solves, ns);
        }
    }

    /// Every pricing call of the run, folded or orphan.
    pub fn pricing_total(&self) -> Pricing {
        let mut total = *self.orphan.lock().expect("orphan tally poisoned");
        for span in self.spans.lock().expect("span store poisoned").iter() {
            total.merge(&span.pricing);
        }
        total
    }

    /// Self time in nanoseconds summed per span name: each span's duration
    /// minus the union of its child spans and its folded pricing time.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for span in spans.iter() {
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            let covered = union_ns(&mut intervals, span.start_ns, span.end_ns);
            let own = (span.end_ns - span.start_ns).saturating_sub(covered + span.pricing.busy_ns);
            *out.entry(span.name).or_insert(0) += own;
        }
        out
    }

    /// Durations of the spans named `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span store poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"pricing_calls\": {}, \
                 \"pricing_queries\": {}, \"pricing_solves\": {}, \"pricing_ns\": {}}}",
                s.id,
                s.request,
                s.name,
                s.start_ns,
                s.end_ns,
                s.pricing.calls,
                s.pricing.queries,
                s.pricing.solves,
                s.pricing.busy_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// A latency model that forwards every trait method to `inner` and times
/// each pricing call into a [`Recorder`]. Results, solve counts, cache
/// fingerprints and the model name are the bare model's.
pub struct TracedModel<'r, M> {
    inner: M,
    recorder: &'r Recorder,
}

impl<'r, M: LatencyModel> TracedModel<'r, M> {
    pub fn new(inner: M, recorder: &'r Recorder) -> Self {
        Self { inner, recorder }
    }

    fn priced<R>(&self, queries: usize, call: impl FnOnce() -> R) -> R {
        let before = self.inner.pricing_stats();
        let started = Instant::now();
        let out = call();
        let ns = started.elapsed().as_nanos() as u64;
        let solves = match (before, self.inner.pricing_stats()) {
            (Some(before), Some(after)) => after.delta_since(&before).solves,
            _ => 0,
        };
        self.recorder
            .pricing_call(queries as u64, solves as u64, ns);
        out
    }
}

impl<M: LatencyModel> LatencyModel for TracedModel<'_, M> {
    fn isa_gate_latency(&self, inst: &Instruction) -> f64 {
        // Per-gate ISA costs are table arithmetic, not pricing queries;
        // timing each would cost more than the call.
        self.inner.isa_gate_latency(inst)
    }

    fn aggregate_latency(&self, constituents: &[Instruction]) -> f64 {
        self.priced(1, || self.inner.aggregate_latency(constituents))
    }

    fn aggregate_latency_batch(&self, queries: &[&[Instruction]], pool: &ThreadPool) -> Vec<f64> {
        self.priced(queries.len(), || {
            self.inner.aggregate_latency_batch(queries, pool)
        })
    }

    fn parallel_pricing(&self) -> bool {
        self.inner.parallel_pricing()
    }

    fn pricing_stats(&self) -> Option<PricingStats> {
        self.inner.pricing_stats()
    }

    fn persistent_cache(&self) -> Option<&dyn PersistentCache> {
        self.inner.persistent_cache()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::result_hash;
    use qcc_control::GrapeLatencyModel;
    use qcc_core::{CompileService, CompilerOptions, Strategy};
    use qcc_hw::{CalibratedLatencyModel, Device, PersistError};
    use qcc_ir::Gate;
    use qcc_workloads::{standard_suite, suite::by_name, SuiteScale};

    /// Inner model that answers each trait method with a distinct value, so
    /// a method the wrapper does not forward shows as a default answer.
    struct Marked(CalibratedLatencyModel);

    impl PersistentCache for Marked {
        fn snapshot_kind(&self) -> &'static str {
            "marked"
        }
        fn snapshot_fingerprint(&self) -> Vec<u8> {
            vec![7]
        }
        fn snapshot_to(&self, _: &Path) -> Result<usize, PersistError> {
            Ok(3)
        }
        fn warm_start_from(&self, _: &Path) -> Result<usize, PersistError> {
            Ok(4)
        }
    }

    impl LatencyModel for Marked {
        fn isa_gate_latency(&self, inst: &Instruction) -> f64 {
            self.0.isa_gate_latency(inst) + 1.0
        }
        fn aggregate_latency(&self, constituents: &[Instruction]) -> f64 {
            self.0.aggregate_latency(constituents) + 2.0
        }
        fn aggregate_latency_batch(&self, queries: &[&[Instruction]], _: &ThreadPool) -> Vec<f64> {
            vec![-1.0; queries.len()]
        }
        fn parallel_pricing(&self) -> bool {
            true
        }
        fn pricing_stats(&self) -> Option<PricingStats> {
            Some(PricingStats {
                queries: 5,
                solves: 6,
            })
        }
        fn persistent_cache(&self) -> Option<&dyn PersistentCache> {
            Some(self)
        }
        fn name(&self) -> &'static str {
            "marked"
        }
    }

    #[test]
    fn wrapper_forwards_every_trait_method() {
        let recorder = Recorder::default();
        let bare = Marked(CalibratedLatencyModel::asplos19());
        let traced = TracedModel::new(Marked(CalibratedLatencyModel::asplos19()), &recorder);
        let inst = Instruction::new(Gate::Cnot, vec![0, 1]);
        let query: &[Instruction] = std::slice::from_ref(&inst);
        let pool = ThreadPool::new(2);
        assert_eq!(traced.isa_gate_latency(&inst), bare.isa_gate_latency(&inst));
        assert_eq!(
            traced.aggregate_latency(query),
            bare.aggregate_latency(query)
        );
        assert_eq!(
            traced.aggregate_latency_batch(&[query, query], &pool),
            bare.aggregate_latency_batch(&[query, query], &pool)
        );
        assert_eq!(traced.parallel_pricing(), bare.parallel_pricing());
        assert_eq!(traced.pricing_stats(), bare.pricing_stats());
        let cache = traced.persistent_cache().expect("forwarded");
        assert_eq!(cache.snapshot_kind(), "marked");
        assert_eq!(cache.snapshot_fingerprint(), vec![7]);
        assert_eq!(traced.name(), bare.name());
        let total = recorder.pricing_total();
        assert_eq!((total.calls, total.queries), (2, 3));
    }

    #[test]
    fn traced_grape_cold_request_equals_the_bare_model() {
        let suite = standard_suite(SuiteScale::Reduced, crate::SUITE_SEED);
        let circuit = by_name(&suite, "MAXCUT-line").expect("in suite").circuit;
        let device = Device::transmon_grid(15);
        let options = CompilerOptions::strategy(Strategy::ClsAggregation);

        let bare = GrapeLatencyModel::fast_two_qubit();
        let bare_service = CompileService::with_model(&device, Box::new(&bare))
            .with_threads(2)
            .with_compile_cache(0);
        let expected = bare_service.compile(&circuit, &options).expect("fits");

        let recorder = Recorder::default();
        let inner = GrapeLatencyModel::fast_two_qubit();
        let traced = TracedModel::new(&inner, &recorder);
        let traced_service = CompileService::with_model(&device, Box::new(&traced))
            .with_threads(2)
            .with_compile_cache(0);
        let actual = traced_service.compile(&circuit, &options).expect("fits");

        assert_eq!(result_hash(&actual), result_hash(&expected));
        assert_eq!(inner.pricing_stats(), bare.pricing_stats());
        assert!(inner.solve_count() > 0);
        assert_eq!(
            recorder.pricing_total().solves as usize,
            inner.solve_count()
        );
        assert_eq!(
            recorder.pricing_total().queries as usize,
            inner.pricing_stats().expect("instrumented").queries
        );
        assert_eq!(
            traced.persistent_cache().map(|c| c.snapshot_fingerprint()),
            bare.persistent_cache().map(|c| c.snapshot_fingerprint())
        );
        assert_eq!(
            traced_service.model_snapshot_path(Path::new("d")),
            bare_service.model_snapshot_path(Path::new("d"))
        );
        assert_eq!(
            traced_service.result_snapshot_path(Path::new("d")),
            bare_service.result_snapshot_path(Path::new("d"))
        );
    }

    #[test]
    fn self_time_excludes_children_and_pricing() {
        let recorder = Recorder::default();
        let model = TracedModel::new(CalibratedLatencyModel::asplos19(), &recorder);
        let inst = [Instruction::new(Gate::H, vec![0])];
        recorder.scope("request", 0, || {
            recorder.scope("pass", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                model.aggregate_latency(&inst);
            });
        });
        let own = recorder.self_ns_by_name();
        let request = recorder.durations_ns("request")[0];
        let pass = recorder.durations_ns("pass")[0];
        assert!(pass >= 2_000_000);
        assert!(own["request"] <= request - pass);
        assert_eq!(
            own["pass"] + recorder.pricing_total().busy_ns,
            pass,
            "pass self time plus its pricing is its duration"
        );
    }

    #[test]
    fn union_clips_and_merges_overlaps() {
        let mut intervals = vec![(5, 10), (0, 3), (8, 14), (20, 30)];
        assert_eq!(union_ns(&mut intervals, 2, 25), 1 + 9 + 5);
    }
}
