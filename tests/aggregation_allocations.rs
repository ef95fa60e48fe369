//! An allocation budget for the aggregation search.
//!
//! The merge loop prices several candidates for every merge it commits, so
//! anything it allocates per candidate (a materialized merged instruction, a
//! hash map per pricing query) grows with the candidates. What the search has
//! to build grows only with its input and its commits: its own copy of the
//! stream, and one merged instruction per commit. The budget below is stated
//! in those terms.
//!
//! The allocator counts per thread, so the other tests of this binary, which
//! run on their own threads, do not disturb the count.

use qcc::compiler::aggregate::{self, AggregationOptions};
use qcc::compiler::frontend;
use qcc::hw::{CalibratedLatencyModel, LatencyModel};
use qcc::ir::Instruction;
use qcc::workloads::grover;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Allocator calls that obtained memory on this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` of the calling thread.
struct CountingAllocator;

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// The calibrated model, counting its pricing queries.
struct CountingModel {
    inner: CalibratedLatencyModel,
    queries: AtomicUsize,
}

impl LatencyModel for CountingModel {
    fn isa_gate_latency(&self, inst: &Instruction) -> f64 {
        self.inner.isa_gate_latency(inst)
    }

    fn aggregate_latency(&self, constituents: &[Instruction]) -> f64 {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.inner.aggregate_latency(constituents)
    }

    fn name(&self) -> &'static str {
        "counting"
    }
}

#[test]
fn the_merge_search_allocates_per_commit_not_per_candidate() {
    // Table 3's square-root search at 3 input bits (the reduced-scale
    // `square-root-n5`): 2,071 gates.
    let stream = frontend::run(&grover::square_root_benchmark(3));
    let gates: usize = stream.iter().map(|i| i.gate_count()).sum();
    let model = CountingModel {
        inner: CalibratedLatencyModel::asplos19(),
        queries: AtomicUsize::new(0),
    };

    let before = allocations();
    let (out, stats) = aggregate::run(&stream, &model, &AggregationOptions::default());
    let allocated = allocations() - before;
    let queries = model.queries.load(Ordering::Relaxed);

    assert_eq!(out.iter().map(|i| i.gate_count()).sum::<usize>(), gates);
    // The budget only tells per-commit from per-candidate work if most
    // candidates are rejected.
    assert!(
        queries > stream.len() + 2 * stats.merges,
        "{queries} queries for {} instructions and {} merges",
        stream.len(),
        stats.merges
    );
    let budget = 4 * (gates + stats.merges);
    assert!(
        allocated <= budget,
        "{allocated} allocations for {gates} gates, {} merges and {queries} pricing \
         queries; the budget is 4 × (gates + merges) = {budget}",
        stats.merges
    );
}
