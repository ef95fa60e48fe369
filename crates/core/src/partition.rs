//! Partitioned compilation: cut wide circuits into weakly coupled regions,
//! compile the regions in parallel, and stitch the schedules at the seams.
//!
//! The paper's pipeline treats every circuit as one serial unit of work, so a
//! wide QAOA instance monopolizes a single pass sequence no matter how many
//! cores are available. This module turns the width dimension into
//! parallelism:
//!
//! 1. the **routed** instruction stream is lifted into a qubit-interaction
//!    graph with gate-count edge weights ([`crate::mapping::interaction_graph`]);
//! 2. [`qcc_graph::partition::k_way_partition`] cuts the physical qubits into
//!    `k` weakly coupled **regions**, and the instructions straddling two or
//!    more regions become the explicit **cut set**;
//! 3. each region's interior instructions are compiled **in parallel** on the
//!    compiler's thread pool — the normal aggregation machinery runs per
//!    region, against the shared latency model, so the GRAPE cache is reused
//!    across regions and solves stay exactly-once;
//! 4. the region streams and the cut-set instructions are **stitched** back
//!    into one program in dependency order, and the final ASAP schedule over
//!    the stitched stream accounts for the cross-cut serialization.
//!
//! # Correctness model
//!
//! Region qubits keep their **physical indices** — region instruction bytes
//! are identical to what a whole-circuit compile prices, so latency-cache
//! entries (GRAPE solves included) are shared verbatim between partitioned and
//! whole compiles. Each cut instruction acts as a hard barrier for every
//! region it touches: a region's interior stream is split into *segments* at
//! its barriers and aggregation runs per segment, so no merge can ever hop
//! over an unseen cross-region dependence. Stitching emits segments and cut
//! instructions in the order of their first routed position, which provably
//! reproduces the routed stream's per-qubit gate order (aggregation itself
//! preserves per-qubit constituent order: a legal merge crosses only
//! instructions disjoint from the moved instruction's qubits).
//!
//! Consequences, pinned by `tests/partitioned_compile.rs`:
//!
//! * `k = 1` is one region with no cut set — the partitioned pipeline is
//!   **bit-identical** to the whole-circuit pipeline (instructions, latencies,
//!   schedule, makespan).
//! * For every strategy, the partitioned output has the **identical
//!   constituent-gate multiset** as the whole compile (routing is shared, so
//!   even the SWAPs match).
//! * For strategies without a post-aggregation reordering pass (everything
//!   except `ClsAggregation`), the **per-qubit gate order** is identical to
//!   the whole compile at every `k`. Under `ClsAggregation` the final CLS
//!   reordering sees differently-granular aggregates, so the per-qubit order
//!   may differ by legal commutations — semantic equivalence is pinned by the
//!   simulator instead.
//!
//! # Entry points
//!
//! * [`Compiler::compile_partitioned`](crate::Compiler::compile_partitioned) /
//!   [`Strategy::partitioned_pipeline`](crate::Strategy::partitioned_pipeline)
//!   — the library surface;
//! * [`CompileService::compile_partitioned`](crate::CompileService::compile_partitioned)
//!   — the serving surface (cached, counted in
//!   [`CompileCacheStats`](crate::CompileCacheStats));
//! * [`PartitionPass`] — the composable pass for custom
//!   [`PipelineBuilder`](crate::PipelineBuilder) orders.

use crate::aggregate::{self, AggregationStats};
use crate::instr::AggregateInstruction;
use crate::mapping;
use crate::passes::{CompileError, Pass, PassContext, PassState};
use qcc_graph::partition as graph_partition;
use std::time::{Duration, Instant};
use threadpool::ThreadPool;

/// Options of a partitioned compilation: how many regions to cut the circuit
/// into. `regions = 1` degenerates to the whole-circuit pipeline
/// (bit-identically); `regions = 0` is treated as 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionOptions {
    /// Number of regions to cut the qubit-interaction graph into (`k`).
    pub regions: usize,
}

impl Default for PartitionOptions {
    fn default() -> Self {
        Self { regions: 2 }
    }
}

impl PartitionOptions {
    /// Options cutting the circuit into `regions` regions.
    pub fn new(regions: usize) -> Self {
        Self { regions }
    }
}

/// Telemetry of one compiled region: its qubit set (the sub-device view), the
/// shape of its compiled stream, and how long its parallel compile took.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionTelemetry {
    /// Sorted physical qubits the region owns.
    pub qubits: Vec<usize>,
    /// Instructions the region contributed to the stitched stream.
    pub instructions: usize,
    /// Constituent gates in those instructions.
    pub gates: usize,
    /// Wall-clock time of the region's compile (its slice of the parallel
    /// fan-out).
    pub wall_time: Duration,
}

/// Telemetry of one partitioned compilation, attached to
/// [`CompilationResult::partition`](crate::CompilationResult) and summarized
/// in [`CompileCacheStats`](crate::CompileCacheStats).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSummary {
    /// The `k` the caller asked for (actual regions can be fewer when the
    /// circuit has fewer qubits).
    pub requested_regions: usize,
    /// One entry per non-empty region, in stitch order.
    pub regions: Vec<RegionTelemetry>,
    /// Total interaction-graph weight of edges crossing region boundaries —
    /// the coupling the cut set has to serialize.
    pub cut_weight: f64,
    /// Number of boundary instructions in the cut set.
    pub cut_instructions: usize,
    /// Wall-clock time of the stitch (merging region streams with the cut
    /// set) — the overhead partitioning adds after the parallel fan-out.
    pub stitch_wall_time: Duration,
}

/// How a routed instruction stream decomposes into regions and a cut set.
///
/// Built by [`PartitionPlan::of`]; the pass and the tests share it.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Sorted physical qubits of each (non-empty) region.
    pub region_qubits: Vec<Vec<usize>>,
    /// Per region: its interior instruction positions, split into segments at
    /// every cut instruction touching the region (the hard barriers no merge
    /// may cross). Segments are non-empty and in stream order.
    pub segments: Vec<Vec<Vec<usize>>>,
    /// Positions of the cut-set (boundary) instructions, in stream order.
    pub cut: Vec<usize>,
    /// Total interaction-graph weight crossing region boundaries.
    pub cut_weight: f64,
}

impl PartitionPlan {
    /// Plans a `k`-way partition of a routed instruction stream over
    /// `n_qubits` physical qubits. Total: `k = 0` is treated as 1, `k` larger
    /// than the qubit count simply yields fewer (non-empty) regions, and an
    /// empty stream yields regions with no segments.
    pub fn of(instrs: &[AggregateInstruction], n_qubits: usize, k: usize) -> Self {
        let k = k.max(1);
        let g = mapping::interaction_graph(instrs, n_qubits);
        let mut region_qubits: Vec<Vec<usize>> = graph_partition::k_way_partition(&g, k)
            .into_iter()
            .filter(|p| !p.is_empty())
            .collect();
        if region_qubits.is_empty() {
            // Zero-qubit circuit: keep one (empty) region so the plan always
            // has somewhere to put instructions.
            region_qubits.push(Vec::new());
        }
        for part in &mut region_qubits {
            part.sort_unstable();
        }
        let cut_weight = graph_partition::k_way_cut_weight(&g, &region_qubits);
        let mut region_of = vec![0usize; n_qubits];
        for (r, part) in region_qubits.iter().enumerate() {
            for &q in part {
                region_of[q] = r;
            }
        }
        let mut segments: Vec<Vec<Vec<usize>>> =
            region_qubits.iter().map(|_| vec![Vec::new()]).collect();
        let mut cut = Vec::new();
        for (pos, inst) in instrs.iter().enumerate() {
            let home = inst.qubits.first().map_or(0, |&q| region_of[q]);
            if inst.qubits.iter().all(|&q| region_of[q] == home) {
                segments[home]
                    .last_mut()
                    .expect("segments start non-empty")
                    .push(pos);
            } else {
                cut.push(pos);
                let mut touched: Vec<usize> = inst.qubits.iter().map(|&q| region_of[q]).collect();
                touched.sort_unstable();
                touched.dedup();
                for r in touched {
                    // Barrier: close the region's open segment so later
                    // interior instructions can never merge across the cut.
                    if !segments[r]
                        .last()
                        .expect("segments start non-empty")
                        .is_empty()
                    {
                        segments[r].push(Vec::new());
                    }
                }
            }
        }
        for region in &mut segments {
            region.retain(|s| !s.is_empty());
        }
        Self {
            region_qubits,
            segments,
            cut,
            cut_weight,
        }
    }

    /// Number of (non-empty) regions.
    pub fn regions(&self) -> usize {
        self.region_qubits.len()
    }
}

/// One region's compiled contribution, keyed for the stitch.
struct RegionStream {
    /// `(first routed position of the segment, its compiled instructions)`.
    outputs: Vec<(usize, Vec<AggregateInstruction>)>,
    stats: AggregationStats,
    instructions: usize,
    gates: usize,
    wall_time: Duration,
}

/// The partitioned-compilation pass: plans the regions, compiles them in
/// parallel, and stitches the streams (see the [module docs](self)).
///
/// In a recipe the pass replaces [`Aggregate`](crate::passes::Aggregate):
/// under an aggregating strategy each region's segments aggregate in parallel
/// over the context pool and the stitched stream replaces the state's
/// instructions. Under a non-aggregating strategy the stream is left
/// untouched (partitioning has nothing to parallelize — pricing is cheap
/// arithmetic) and the pass only records the partition telemetry, so the
/// result stays bit-identical to the whole-circuit pipeline at every `k`.
/// [`Strategy::partitioned_pipeline`](crate::Strategy::partitioned_pipeline)
/// assembles the canonical recipe around it.
#[derive(Debug, Clone, Default)]
pub struct PartitionPass {
    options: PartitionOptions,
}

impl PartitionPass {
    /// A pass cutting the circuit per the given options.
    pub fn new(options: PartitionOptions) -> Self {
        Self { options }
    }
}

impl Pass for PartitionPass {
    fn name(&self) -> &'static str {
        "partition"
    }

    fn run(&self, state: &mut PassState, ctx: &PassContext) -> Result<(), CompileError> {
        // The stream is routed (physical indices), so the plan spans the
        // device's qubits, not just the circuit's logical ones.
        let n_qubits = ctx.device.n_qubits().max(ctx.circuit.n_qubits());
        let plan = PartitionPlan::of(&state.instructions, n_qubits, self.options.regions);
        let aggregating = ctx.options.strategy.pulse_per_instruction();
        let instrs = &state.instructions;
        let region_indices: Vec<usize> = (0..plan.regions()).collect();
        let streams: Vec<RegionStream> = ctx.pool.parallel_map(&region_indices, |&r| {
            let started = Instant::now();
            let mut outputs = Vec::with_capacity(plan.segments[r].len());
            let mut stats = AggregationStats::default();
            for segment in &plan.segments[r] {
                let seg_instrs: Vec<AggregateInstruction> =
                    segment.iter().map(|&p| instrs[p].clone()).collect();
                let merged = if aggregating {
                    // Region-level parallelism is the win; each segment's
                    // search runs serially inside its worker. The serial and
                    // speculative searches are pinned bit-identical, so the
                    // output does not depend on this choice.
                    let (mut merged, seg_stats) = aggregate::run_with_pool(
                        &seg_instrs,
                        ctx.model,
                        &ctx.options.aggregation,
                        &ThreadPool::serial(),
                    );
                    aggregate::finalize_origins(&mut merged);
                    stats.merges += seg_stats.merges;
                    stats.passes += seg_stats.passes;
                    stats.makespan_before += seg_stats.makespan_before;
                    stats.makespan_after += seg_stats.makespan_after;
                    merged
                } else {
                    seg_instrs
                };
                outputs.push((segment[0], merged));
            }
            let instructions: usize = outputs.iter().map(|(_, o)| o.len()).sum();
            let gates: usize = outputs
                .iter()
                .flat_map(|(_, o)| o.iter())
                .map(|i| i.gate_count())
                .sum();
            RegionStream {
                outputs,
                stats,
                instructions,
                gates,
                wall_time: started.elapsed(),
            }
        });

        // Stitch: segments carry the routed position of their first
        // instruction, cut instructions carry their own. Emitting in
        // ascending key order places every segment strictly between the
        // barriers that delimit it, so the routed stream's per-qubit order is
        // reproduced exactly (keys are distinct routed positions).
        let stitch_started = Instant::now();
        let mut items: Vec<(usize, Vec<AggregateInstruction>)> = Vec::new();
        for stream in &streams {
            items.extend(stream.outputs.iter().cloned());
        }
        for &pos in &plan.cut {
            items.push((pos, vec![instrs[pos].clone()]));
        }
        items.sort_by_key(|&(key, _)| key);
        let stitched: Vec<AggregateInstruction> =
            items.into_iter().flat_map(|(_, out)| out).collect();
        let stitch_wall_time = stitch_started.elapsed();

        let regions = plan
            .region_qubits
            .iter()
            .zip(&streams)
            .map(|(qubits, stream)| RegionTelemetry {
                qubits: qubits.clone(),
                instructions: stream.instructions,
                gates: stream.gates,
                wall_time: stream.wall_time,
            })
            .collect();
        state.partition = Some(PartitionSummary {
            requested_regions: self.options.regions.max(1),
            regions,
            cut_weight: plan.cut_weight,
            cut_instructions: plan.cut.len(),
            stitch_wall_time,
        });
        if aggregating {
            let mut stats = AggregationStats::default();
            for stream in &streams {
                stats.merges += stream.stats.merges;
                stats.passes += stream.stats.passes;
                stats.makespan_before += stream.stats.makespan_before;
                stats.makespan_after += stream.stats.makespan_after;
            }
            state.instructions = stitched;
            state.aggregation = stats;
            state.invalidate_derived();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_ir::{Gate, Instruction};

    fn single(g: Gate, qs: &[usize]) -> AggregateInstruction {
        AggregateInstruction::from_gate(Instruction::new(g, qs.to_vec()))
    }

    /// Two CNOT chains on {0,1,2} and {3,4,5} bridged by one CNOT.
    fn bridged_stream() -> Vec<AggregateInstruction> {
        vec![
            single(Gate::Cnot, &[0, 1]),
            single(Gate::Cnot, &[1, 2]),
            single(Gate::Cnot, &[3, 4]),
            single(Gate::Cnot, &[4, 5]),
            single(Gate::Cnot, &[2, 3]), // the bridge
            single(Gate::Cnot, &[0, 1]),
            single(Gate::Cnot, &[4, 5]),
        ]
    }

    #[test]
    fn plan_finds_the_bridge_cut() {
        let plan = PartitionPlan::of(&bridged_stream(), 6, 2);
        assert_eq!(plan.regions(), 2);
        assert_eq!(plan.cut, vec![4], "only the bridge crosses regions");
        assert!((plan.cut_weight - 1.0).abs() < 1e-9);
        let mut all: Vec<usize> = plan.region_qubits.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn cut_instructions_split_segments_on_both_sides() {
        let plan = PartitionPlan::of(&bridged_stream(), 6, 2);
        // Both regions touch the bridge, so both have two segments: before
        // and after position 4.
        for (r, segments) in plan.segments.iter().enumerate() {
            assert_eq!(segments.len(), 2, "region {r}: {segments:?}");
            assert!(segments[0].iter().all(|&p| p < 4), "region {r}");
            assert!(segments[1].iter().all(|&p| p > 4), "region {r}");
        }
        // Every position lands in exactly one segment or the cut.
        let mut all: Vec<usize> = plan
            .segments
            .iter()
            .flatten()
            .flatten()
            .copied()
            .chain(plan.cut.iter().copied())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn plan_is_total_over_degenerate_inputs() {
        // k = 0 behaves like k = 1.
        let plan = PartitionPlan::of(&bridged_stream(), 6, 0);
        assert_eq!(plan.regions(), 1);
        assert!(plan.cut.is_empty());
        assert_eq!(plan.cut_weight, 0.0);
        // k far beyond the qubit count: at most one region per qubit.
        let plan = PartitionPlan::of(&bridged_stream(), 6, 64);
        assert!(plan.regions() <= 6);
        // Empty stream.
        let plan = PartitionPlan::of(&[], 4, 2);
        assert!(plan.cut.is_empty());
        assert!(plan.segments.iter().all(|s| s.is_empty()));
        // Zero qubits.
        let plan = PartitionPlan::of(&[], 0, 3);
        assert_eq!(plan.regions(), 1);
    }
}
