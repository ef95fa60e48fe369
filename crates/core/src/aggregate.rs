//! Instruction aggregation (§4.1, §4.3).
//!
//! After mapping and routing, the compiler grows multi-qubit aggregated
//! instructions by repeatedly merging *adjacent* instructions (parent/child on
//! every qubit path they share, with no interposed instruction touching either
//! side's qubits) when the action is **monotonic** — it does not lengthen the
//! circuit's critical path — and the latency model predicts a pulse-time
//! saving. The loop iterates with the latency model (the optimal-control unit
//! or its calibrated stand-in) until no more profitable monotonic actions
//! exist, the fixed-point structure the paper describes.
//!
//! # Incremental merge checks
//!
//! A scan pass checks candidates far more often than it commits one (on
//! paper-scale circuits about four in five checks reject), so a check costs
//! about as much as what the merge would change, never a full reschedule:
//!
//! * **Stable keys.** Instructions are addressed by their input index. A merge
//!   of `j` into `i` replaces `i` and drops `j`, so the live keys in ascending
//!   order are the program order. An order vector of live keys gives
//!   positions (scan position, search window), and each qubit keeps the sorted
//!   list of live keys touching it, answering previous- and next-user queries
//!   by binary search. The stream is edited only when a merge is accepted.
//! * **The exact check is a forward scan from `i`.** The merged instruction
//!   starts at the latest free time of its qubits before `i` (nothing between
//!   `i` and `j` touches them). From `j` on, the scan runs the ASAP recurrence
//!   over the tentative stream (merged instruction at `i`, `j` dropped) and
//!   tracks the qubits whose free time differs from the old stream's. It
//!   rejects as soon as a finish passes `makespan + 1e-9`, and accepts once
//!   that set is empty: every later instruction then schedules as before. The
//!   scan applies the same `max` and `+` to the same inputs as
//!   [`asap_schedule`], so every value equals the full recompute bit for bit.
//! * **Early rejection.** Take any instruction `k` after `j`. Its tail, the
//!   longest path from `k` to the end, is unchanged by the merge: paths only
//!   run forward, and nothing between `i` and `j` touches `j`'s qubits, so no
//!   path from `k` meets `i` or `j`. In exact arithmetic, a new start later
//!   than `k`'s ALAP latest start therefore lengthens the circuit. In floating
//!   point each ASAP or ALAP recurrence over `n` live instructions rounds by
//!   at most `n·2⁻⁵³·makespan` (`max` and `min` are exact), and the argument
//!   crosses three of them. The scan rejects early only when the excess is
//!   above `1e-9 + 16·n·ε·makespan` (ε = `f64::EPSILON` = 2⁻⁵²); nearer ties
//!   fall through to the exact scan.
//! * **Latest starts are refreshed only where they are read.** The slack
//!   filter and the early rejection read them only at positions after the
//!   scan position, and a slack is computed on read from latest start and
//!   start. A commit that changes the makespan recomputes latest starts for
//!   positions `≥ i`. Any other commit leaves them exact after `i`, because
//!   the backward recurrence from the end down to `i` sees the same
//!   instructions and deadlines; only the starts the scan moved change. Each
//!   scan pass starts with a full refresh.
//!
//! # Speculative pricing
//!
//! The merge loop commits actions strictly in scan order — each action depends
//! on the schedule produced by the previous one — but the expensive part of a
//! step is *pricing* a candidate with the latency model, and candidate pricing
//! is side-effect free. [`run_with_pool`] therefore evaluates **speculatively
//! in parallel**: it collects the lookahead window of legal merge candidates
//! the serial scan would examine next, prices them in one batched model call
//! ([`LatencyModel::aggregate_latency_batch`]) across the pool, and then
//! replays the serial accept/reject decisions in scan order, committing
//! exactly the candidate the serial loop would have committed. The output is
//! provably bit-identical to the serial search; only wall-clock changes.
//! Speculation beyond the committed candidate can price merges the serial
//! loop never reaches — those solves land in the model's compute-once cache,
//! where later rounds usually reuse them.

use crate::instr::{AggregateInstruction, InstructionOrigin};
use crate::schedule::asap_schedule;
use qcc_hw::LatencyModel;
use qcc_ir::Instruction;
use serde::{Deserialize, Serialize};
use threadpool::ThreadPool;

/// Speculative candidates collected per pool thread and priced in one batched
/// model call. One per thread keeps every worker busy during a round while
/// bounding wasted solves (candidates past the committed merge) to at most
/// `threads - 1` per commit — and those land in the model's cache, where
/// later rounds usually reuse them.
const SPECULATION_PER_THREAD: usize = 1;

/// Options of the aggregation pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregationOptions {
    /// Maximum instruction width in qubits (the paper uses up to 10, bounded by
    /// the scalability of the optimal-control unit).
    pub max_width: usize,
    /// Maximum number of constituent gates per aggregated instruction.
    pub max_gates: usize,
    /// Safety cap on the number of merge actions (defaults to "unlimited":
    /// aggregation naturally stops when no monotonic action remains).
    pub max_merges: usize,
    /// Require every merge to strictly reduce the predicted pulse time of the
    /// pair (in addition to being monotonic).
    pub require_local_gain: bool,
    /// How far ahead (in list positions) to look for a merge partner. Partners
    /// are the *first* later instruction sharing a qubit, which in routed
    /// programs is almost always nearby; the window bounds the scan cost on
    /// very large circuits.
    pub search_window: usize,
}

impl Default for AggregationOptions {
    fn default() -> Self {
        Self {
            max_width: 10,
            max_gates: 96,
            max_merges: usize::MAX,
            require_local_gain: true,
            search_window: 64,
        }
    }
}

impl AggregationOptions {
    /// Options with a specific width limit (used for the Fig. 10 sweep).
    pub fn with_width(max_width: usize) -> Self {
        Self {
            max_width,
            ..Self::default()
        }
    }
}

/// Statistics reported by the aggregation pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct AggregationStats {
    /// Number of merge actions performed.
    pub merges: usize,
    /// Number of scan passes executed.
    pub passes: usize,
    /// Makespan before aggregation (ns).
    pub makespan_before: f64,
    /// Makespan after aggregation (ns).
    pub makespan_after: f64,
}

/// Runs the aggregation loop on a routed instruction sequence.
///
/// Merging instruction `j` into instruction `i < j` is allowed when
/// (action space, §4.1):
/// * they share at least one qubit,
/// * no instruction between them touches any qubit of either (`i` is the
///   parent of `j` on every shared path, and moving `j`'s gates up to `i`
///   only crosses trivially-commuting instructions),
/// * the union width and gate count respect the configured limits,
///
/// and it is performed when it is *monotonic* (§4.3): the rescheduled circuit
/// is no longer than before, decided exactly by the incremental forward scan
/// of the module docs (bit-identical to recomputing the makespan).
pub fn run(
    instrs: &[AggregateInstruction],
    model: &dyn LatencyModel,
    options: &AggregationOptions,
) -> (Vec<AggregateInstruction>, AggregationStats) {
    run_with_pool(instrs, model, options, &ThreadPool::serial())
}

/// [`run`] with an explicit thread pool.
///
/// The initial latency vectoring (one independent model query per routed
/// instruction) and the candidate pricing inside the merge loop both go
/// through [`LatencyModel::aggregate_latency_batch`] on the pool. With more
/// than one thread and a model that declares pricing expensive
/// ([`parallel_pricing`](LatencyModel::parallel_pricing)), the merge loop
/// runs the speculative-parallel search (see the module docs): candidates
/// are priced concurrently, commits replay the serial decision order, and
/// the result is bit-identical to the serial search. With a pool of one
/// thread (e.g. `QCC_THREADS=1`) or a cheap analytic model, the original
/// serial loop runs inline — no candidate collection, no batching, no
/// spawns.
pub fn run_with_pool(
    instrs: &[AggregateInstruction],
    model: &dyn LatencyModel,
    options: &AggregationOptions,
    pool: &ThreadPool,
) -> (Vec<AggregateInstruction>, AggregationStats) {
    // Latencies are maintained incrementally: only the instruction produced by
    // a merge is re-priced, so the model is queried O(instructions + merges)
    // times rather than O(instructions · merges).
    let latencies: Vec<f64> = {
        let queries: Vec<&[Instruction]> =
            instrs.iter().map(|i| i.constituents.as_slice()).collect();
        model.aggregate_latency_batch(&queries, pool)
    };
    let mut state = SearchState::new(instrs, latencies);
    let mut stats = AggregationStats {
        makespan_before: state.makespan,
        ..Default::default()
    };

    // Speculation only pays when a pricing query is expensive enough to fan
    // out: with one thread, or a model whose queries are cheap arithmetic
    // (`parallel_pricing() == false`, where the batch prices serially
    // anyway), the discarded lookahead candidates would be pure overhead —
    // run the original serial loop inline instead.
    if pool.threads() <= 1 || !model.parallel_pricing() {
        merge_loop_serial(&mut state, model, options, &mut stats);
    } else {
        merge_loop_speculative(&mut state, model, options, pool, &mut stats);
    }

    stats.makespan_after = state.makespan;
    (state.into_stream(), stats)
}

/// Per-qubit scratch of one exact check: the qubit's free time in the
/// tentative stream, valid when `epoch` is the current check's, and whether
/// it differs from the old stream's free time at the same point.
#[derive(Debug, Clone, Copy, Default)]
struct ScanQubit {
    free: f64,
    epoch: u64,
    differs: bool,
}

/// The schedule record of one key.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    /// ASAP start in the current stream (0 once dead).
    start: f64,
    /// Price (0 once dead).
    lat: f64,
    /// ALAP latest start; exact at positions after the last commit of the
    /// running pass.
    latest: f64,
    /// The key's sorted qubits are `qubits[first..first + width]`.
    first: u32,
    width: u32,
}

impl Node {
    fn finish(&self) -> f64 {
        self.start + self.lat
    }
}

/// What an accepted exact check hands to [`SearchState::commit`].
struct Accepted {
    /// Start of the merged instruction.
    start: f64,
    /// Latest finish among the instructions whose start moved (the merged
    /// one included).
    moved_max: f64,
    /// Whether an instruction that ended at the old makespan moved or
    /// vanished.
    moved_makespan: bool,
}

/// Mutable state of the merge search, addressed by stable keys (input
/// indices; see the module docs). Frozen between commits — which is what
/// makes speculative pricing safe.
struct SearchState {
    /// Instructions by key; `None` once merged into an earlier one.
    insts: Vec<Option<AggregateInstruction>>,
    /// Schedule record of every key.
    nodes: Vec<Node>,
    /// Qubit lists of every key, back to back; a merge appends its union.
    qubits: Vec<u32>,
    /// Live keys in program order (ascending); a position indexes this.
    order: Vec<u32>,
    /// Per qubit: the live keys touching it, ascending.
    users: Vec<Vec<u32>>,
    /// Makespan of the current stream.
    makespan: f64,
    /// Per-qubit scratch of the exact check and of the ALAP refresh.
    scan: Vec<ScanQubit>,
    deadline: Vec<f64>,
    epoch: u64,
    /// Starts the running exact check overwrote, to restore on rejection.
    undo: Vec<(u32, f64)>,
}

fn key(k: usize) -> u32 {
    u32::try_from(k).expect("aggregation addresses at most 2^32 keys or qubits")
}

impl SearchState {
    fn new(instrs: &[AggregateInstruction], lat: Vec<f64>) -> Self {
        let n_qubits = instrs
            .iter()
            .flat_map(|i| i.qubits.iter().copied())
            .max()
            .map_or(0, |m| m + 1);
        let schedule = asap_schedule(instrs, &lat);
        let mut users = vec![Vec::new(); n_qubits];
        let mut nodes = Vec::with_capacity(instrs.len());
        let mut qubits = Vec::new();
        for (k, inst) in instrs.iter().enumerate() {
            nodes.push(Node {
                start: schedule.entries[k].start,
                lat: lat[k],
                latest: 0.0,
                first: key(qubits.len()),
                width: key(inst.qubits.len()),
            });
            for &q in &inst.qubits {
                qubits.push(key(q));
                users[q].push(key(k));
            }
        }
        Self {
            insts: instrs.iter().cloned().map(Some).collect(),
            nodes,
            qubits,
            order: (0..instrs.len()).map(key).collect(),
            users,
            makespan: schedule.makespan,
            scan: vec![ScanQubit::default(); n_qubits],
            deadline: vec![0.0; n_qubits],
            epoch: 0,
            undo: Vec::new(),
        }
    }

    /// The live instructions in program order.
    fn into_stream(self) -> Vec<AggregateInstruction> {
        self.insts.into_iter().flatten().collect()
    }

    fn inst(&self, k: usize) -> &AggregateInstruction {
        self.insts[k].as_ref().expect("live key")
    }

    fn qubits_of(&self, k: usize) -> &[u32] {
        let node = &self.nodes[k];
        &self.qubits[node.first as usize..][..node.width as usize]
    }

    fn acts_on(&self, k: usize, q: usize) -> bool {
        self.qubits_of(k).contains(&key(q))
    }

    /// The last live key before `k` touching qubit `q`.
    fn prev_user(&self, q: usize, k: usize) -> Option<usize> {
        let list = &self.users[q];
        let before = list.partition_point(|&u| (u as usize) < k);
        before.checked_sub(1).map(|at| list[at] as usize)
    }

    /// The first live key after `k` touching qubit `q`.
    fn next_user(&self, q: usize, k: usize) -> Option<usize> {
        let list = &self.users[q];
        let after = list.partition_point(|&u| (u as usize) <= k);
        list.get(after).map(|&u| u as usize)
    }

    /// Recomputes ALAP latest starts for positions `from..` with the same
    /// backward recurrence as [`alap_slacks`](crate::schedule::alap_slacks).
    fn refresh_latest(&mut self, from: usize) {
        self.deadline.fill(self.makespan);
        for &k in self.order[from..].iter().rev() {
            let node = &mut self.nodes[k as usize];
            let qs = &self.qubits[node.first as usize..][..node.width as usize];
            let deadline = qs
                .iter()
                .map(|&q| self.deadline[q as usize])
                .fold(f64::INFINITY, f64::min);
            let latest = deadline - node.lat;
            node.latest = latest;
            for &q in qs {
                self.deadline[q as usize] = latest;
            }
        }
    }

    /// The serial scan's merge candidate at position `p`, if any: the first
    /// later instruction within the search window sharing a qubit, provided
    /// the merge passes every model-free legality check (no interposed
    /// dependence, width and gate-count limits). Returns the partner's
    /// position and the merged instruction. Prices nothing, mutates nothing.
    fn legal_candidate(
        &self,
        p: usize,
        options: &AggregationOptions,
    ) -> Option<(usize, AggregateInstruction)> {
        let i = self.order[p] as usize;
        let i_qubits = self.qubits_of(i);
        // Partner: the first later instruction sharing a qubit with i, taken
        // only when it lies within the window.
        let j = i_qubits
            .iter()
            .filter_map(|&q| self.next_user(q as usize, i))
            .min()?;
        let pj = p + 1 + self.order[p + 1..].partition_point(|&k| (k as usize) < j);
        if pj - p > options.search_window {
            return None;
        }

        // No instruction between i and j may touch any qubit of j (they
        // already touch none of i's qubits, or one of them would have been
        // the partner).
        let j_qubits = self.qubits_of(j);
        if j_qubits
            .iter()
            .any(|&q| self.prev_user(q as usize, j).is_some_and(|prev| prev > i))
        {
            return None;
        }

        // Width / size limits.
        let width = i_qubits.len() + j_qubits.iter().filter(|q| !i_qubits.contains(q)).count();
        let (a, b) = (self.inst(i), self.inst(j));
        if width > options.max_width || a.gate_count() + b.gate_count() > options.max_gates {
            return None;
        }
        Some((pj, a.merge(b)))
    }

    /// Replays the serial accept/reject decision for one priced candidate:
    /// local-gain threshold, conservative slack filter, then the exact
    /// monotonicity check. Returns `true` when the merge was committed (state
    /// mutated), `false` when rejected (state untouched).
    fn try_commit(
        &mut self,
        pi: usize,
        pj: usize,
        merged: AggregateInstruction,
        lat_merged: f64,
        options: &AggregationOptions,
    ) -> bool {
        let (i, j) = (self.order[pi] as usize, self.order[pj] as usize);
        let (node_i, node_j) = (self.nodes[i], self.nodes[j]);
        let local_gain = node_i.lat + node_j.lat - lat_merged;
        if options.require_local_gain && local_gain <= 1e-9 {
            return false;
        }

        // Fast conservative filter before paying for an exact check: the
        // merged instruction runs from i's start for lat_merged; every qubit it
        // occupies longer than before must have that much slack in its next
        // user.
        let finish_merged = node_i.start + lat_merged;
        if finish_merged > self.makespan + 1e-9 {
            return false;
        }
        for &q in &merged.qubits {
            let prev_release = if self.acts_on(j, q) {
                node_j.finish()
            } else {
                node_i.finish()
            };
            let delay = finish_merged - prev_release;
            if delay <= 1e-9 {
                continue;
            }
            if let Some(k) = self.next_user(q, j) {
                let slack = (self.nodes[k].latest - self.nodes[k].start).max(0.0);
                if delay > slack + 1e-9 {
                    return false;
                }
            }
        }

        match self.reschedule(pi, pj, &merged.qubits, lat_merged) {
            Some(accepted) => {
                self.commit(pi, pj, merged, lat_merged, accepted);
                true
            }
            None => false,
        }
    }

    /// The exact monotonicity check of merging the instruction at position
    /// `pj` into the one at `pi`: the forward scan of the module docs over the
    /// tentative stream. When the makespan stays within `makespan + 1e-9`, it
    /// leaves the moved starts written and returns what the commit needs;
    /// when it grows, it restores every start and returns `None`.
    fn reschedule(
        &mut self,
        pi: usize,
        pj: usize,
        merged_qubits: &[usize],
        lat_merged: f64,
    ) -> Option<Accepted> {
        let (i, j) = (self.order[pi] as usize, self.order[pj] as usize);
        let (finish_i, finish_j) = (self.nodes[i].finish(), self.nodes[j].finish());
        let makespan = self.makespan;
        let limit = makespan + 1e-9;
        // Nothing between i and j touches a merged qubit, so the merged
        // instruction sees the free times before i.
        let start_merged = merged_qubits
            .iter()
            .map(|&q| self.prev_user(q, i).map_or(0.0, |p| self.nodes[p].finish()))
            .fold(0.0f64, f64::max);
        let finish_merged = start_merged + lat_merged;
        if finish_merged > limit {
            return None;
        }
        let mut accepted = Accepted {
            start: start_merged,
            moved_max: finish_merged,
            moved_makespan: finish_i == makespan || finish_j == makespan,
        };
        self.epoch += 1;
        let epoch = self.epoch;
        let mut differing = 0usize;
        for &q in merged_qubits {
            // Past j, the old stream's free time is j's finish on j's qubits
            // and i's finish on the rest.
            let old = if self.acts_on(j, q) {
                finish_j
            } else {
                finish_i
            };
            let differs = finish_merged != old;
            differing += differs as usize;
            self.scan[q] = ScanQubit {
                free: finish_merged,
                epoch,
                differs,
            };
        }

        let reject_margin = 1e-9 + 16.0 * self.order.len() as f64 * f64::EPSILON * makespan;
        let Self {
            nodes,
            qubits,
            order,
            users,
            scan,
            undo,
            ..
        } = self;
        undo.clear();
        for &k in &order[pj + 1..] {
            if differing == 0 {
                break;
            }
            let node = nodes[k as usize];
            let qs = &qubits[node.first as usize..][..node.width as usize];
            let mut start = 0.0f64;
            for &q in qs {
                let s = &mut scan[q as usize];
                if s.epoch != epoch {
                    // First visit of a qubit the merge has not touched: its
                    // free time is the old stream's.
                    let list = &users[q as usize];
                    let before = list.partition_point(|&u| u < k);
                    let free = before
                        .checked_sub(1)
                        .map_or(0.0, |at| nodes[list[at] as usize].finish());
                    *s = ScanQubit {
                        free,
                        epoch,
                        differs: false,
                    };
                }
                start = start.max(s.free);
            }
            let finish = start + node.lat;
            if finish > limit || start > node.latest + reject_margin {
                for &(k, start) in undo.iter().rev() {
                    nodes[k as usize].start = start;
                }
                return None;
            }
            let old_finish = node.finish();
            if start != node.start {
                undo.push((k, node.start));
                nodes[k as usize].start = start;
                accepted.moved_max = accepted.moved_max.max(finish);
                accepted.moved_makespan |= old_finish == makespan;
            }
            let differs = finish != old_finish;
            for &q in qs {
                let s = &mut scan[q as usize];
                differing = differing + differs as usize - s.differs as usize;
                s.differs = differs;
                s.free = finish;
            }
        }
        Some(accepted)
    }

    /// Applies an accepted merge of the instruction at position `pj` into the
    /// one at `pi`; [`reschedule`](Self::reschedule) already wrote the starts
    /// it moved.
    fn commit(
        &mut self,
        pi: usize,
        pj: usize,
        merged: AggregateInstruction,
        lat_merged: f64,
        accepted: Accepted,
    ) {
        let (i, j) = (self.order[pi] as usize, self.order[pj] as usize);
        // j's qubit lists: on a shared qubit j directly follows i and leaves;
        // elsewhere i takes j's place (its predecessor there precedes i).
        let j_node = self.nodes[j];
        for &q in &self.qubits[j_node.first as usize..][..j_node.width as usize] {
            let list = &mut self.users[q as usize];
            let at = list.binary_search(&key(j)).expect("j uses its qubits");
            let i_node = &self.nodes[i];
            if self.qubits[i_node.first as usize..][..i_node.width as usize].contains(&q) {
                list.remove(at);
            } else {
                list[at] = key(i);
            }
        }
        self.nodes[i] = Node {
            start: accepted.start,
            lat: lat_merged,
            latest: self.nodes[i].latest,
            first: key(self.qubits.len()),
            width: key(merged.qubits.len()),
        };
        self.nodes[j] = Node::default();
        self.qubits.extend(merged.qubits.iter().map(|&q| key(q)));
        self.insts[i] = Some(merged);
        self.insts[j] = None;
        self.order.remove(pj);

        // The new makespan is the old one unless an instruction that ended at
        // it moved or vanished; only then is a full max needed.
        let old_makespan = self.makespan;
        let makespan = if accepted.moved_makespan {
            self.nodes.iter().map(Node::finish).fold(0.0f64, f64::max)
        } else {
            old_makespan.max(accepted.moved_max)
        };
        if makespan.to_bits() != old_makespan.to_bits() {
            self.makespan = makespan;
            self.refresh_latest(pi);
        }
    }
}

/// The original sequential merge loop: scan, price one candidate at a time,
/// commit or advance. Runs when the pool has a single thread, so the
/// `QCC_THREADS=1` path has zero speculation or batching overhead and prices
/// candidates in exactly the historical order.
fn merge_loop_serial(
    state: &mut SearchState,
    model: &dyn LatencyModel,
    options: &AggregationOptions,
    stats: &mut AggregationStats,
) {
    loop {
        stats.passes += 1;
        state.refresh_latest(0);
        let mut performed = false;

        let mut p = 0usize;
        while p < state.order.len() {
            let Some((pj, merged)) = state.legal_candidate(p, options) else {
                p += 1;
                continue;
            };
            let lat_merged = model.aggregate_latency(&merged.constituents);
            if state.try_commit(p, pj, merged, lat_merged, options) {
                stats.merges += 1;
                performed = true;
                if stats.merges >= options.max_merges {
                    break;
                }
                // Stay at position p: the merged instruction may merge again
                // with its next partner.
            } else {
                p += 1;
            }
        }

        if !performed || stats.merges >= options.max_merges {
            break;
        }
    }
}

/// The speculative-parallel merge loop. Each round collects the window of
/// legal candidates the serial scan would price next — all against the same
/// frozen state, since nothing mutates between commits — prices them in one
/// batched model call across the pool, and replays the serial accept/reject
/// decisions in scan order. The first accepted candidate is committed and the
/// rest of the window is discarded (their prices stay in the model's cache);
/// the scan resumes at the committed position, exactly as the serial loop
/// does. Commits therefore happen in the identical order with identical
/// prices, making the output bit-identical to [`merge_loop_serial`].
fn merge_loop_speculative(
    state: &mut SearchState,
    model: &dyn LatencyModel,
    options: &AggregationOptions,
    pool: &ThreadPool,
    stats: &mut AggregationStats,
) {
    let window = pool.threads().saturating_mul(SPECULATION_PER_THREAD).max(1);
    loop {
        stats.passes += 1;
        state.refresh_latest(0);
        let mut performed = false;

        let mut p = 0usize;
        while p < state.order.len() {
            // Collect the next `window` candidates of the frozen state,
            // remembering where the scan stopped.
            let mut candidates: Vec<(usize, usize, AggregateInstruction)> =
                Vec::with_capacity(window);
            let mut pos = p;
            while pos < state.order.len() && candidates.len() < window {
                if let Some((pj, merged)) = state.legal_candidate(pos, options) {
                    candidates.push((pos, pj, merged));
                }
                pos += 1;
            }
            if candidates.is_empty() {
                // Scan exhausted with nothing to price; the pass is over.
                break;
            }

            let prices: Vec<f64> = {
                let queries: Vec<&[Instruction]> = candidates
                    .iter()
                    .map(|(_, _, merged)| merged.constituents.as_slice())
                    .collect();
                model.aggregate_latency_batch(&queries, pool)
            };

            let mut committed = None;
            for ((ci, cj, merged), &lat_merged) in candidates.into_iter().zip(&prices) {
                if state.try_commit(ci, cj, merged, lat_merged, options) {
                    committed = Some(ci);
                    break;
                }
            }
            match committed {
                Some(ci) => {
                    stats.merges += 1;
                    performed = true;
                    if stats.merges >= options.max_merges {
                        break;
                    }
                    // Stay at the committed position — the merged instruction
                    // may merge again — and re-speculate against the new state.
                    p = ci;
                }
                // Every candidate rejected with the state unchanged: the
                // serial scan would now be past the last collected position.
                None => p = pos,
            }
        }

        if !performed || stats.merges >= options.max_merges {
            break;
        }
    }
}

/// Marks every multi-gate instruction produced by the pass as `Aggregated`
/// (single-gate instructions keep their origin). Mostly useful for reporting.
pub fn finalize_origins(instrs: &mut [AggregateInstruction]) {
    for inst in instrs.iter_mut() {
        if inst.gate_count() > 1 && inst.origin == InstructionOrigin::Single {
            inst.origin = InstructionOrigin::Aggregated;
        }
    }
}

/// The merge search as it was before the incremental check, kept as the
/// reference the incremental one is tested against: every exact check
/// applies the merge in place, rebuilds the whole ASAP schedule and reverts
/// on rejection, and every commit reruns ALAP over the whole stream.
#[cfg(test)]
mod reference {
    use super::{AggregationOptions, AggregationStats};
    use crate::instr::AggregateInstruction;
    use crate::schedule::{alap_slacks, asap_schedule, Schedule};
    use qcc_hw::LatencyModel;

    struct SearchState {
        current: Vec<AggregateInstruction>,
        latencies: Vec<f64>,
        schedule: Schedule,
        slacks: Vec<f64>,
    }

    fn legal_candidate(
        current: &[AggregateInstruction],
        i: usize,
        options: &AggregationOptions,
    ) -> Option<(usize, AggregateInstruction)> {
        let n = current.len();
        let mut partner = None;
        for j in (i + 1)..n.min(i + 1 + options.search_window) {
            if !current[i].shared_qubits(&current[j]).is_empty() {
                partner = Some(j);
                break;
            }
        }
        let j = partner?;
        let b_qubits = &current[j].qubits;
        if current[(i + 1)..j]
            .iter()
            .any(|k| k.qubits.iter().any(|q| b_qubits.contains(q)))
        {
            return None;
        }
        let mut union = current[i].qubits.clone();
        for q in b_qubits {
            if !union.contains(q) {
                union.push(*q);
            }
        }
        if union.len() > options.max_width
            || current[i].gate_count() + current[j].gate_count() > options.max_gates
        {
            return None;
        }
        Some((j, current[i].merge(&current[j])))
    }

    fn try_commit(
        state: &mut SearchState,
        i: usize,
        j: usize,
        merged: AggregateInstruction,
        lat_merged: f64,
        options: &AggregationOptions,
    ) -> bool {
        let SearchState {
            current,
            latencies,
            schedule,
            slacks,
        } = state;
        let local_gain = latencies[i] + latencies[j] - lat_merged;
        if options.require_local_gain && local_gain <= 1e-9 {
            return false;
        }
        let finish_merged = schedule.entries[i].start + lat_merged;
        if finish_merged > schedule.makespan + 1e-9 {
            return false;
        }
        for &q in &merged.qubits {
            let prev_release = if current[j].acts_on(q) {
                schedule.entries[j].finish()
            } else {
                schedule.entries[i].finish()
            };
            let delay = finish_merged - prev_release;
            if delay <= 1e-9 {
                continue;
            }
            let next_user = current
                .iter()
                .enumerate()
                .skip(j + 1)
                .find(|(_, inst)| inst.acts_on(q));
            if let Some((k, _)) = next_user {
                if delay > slacks[k] + 1e-9 {
                    return false;
                }
            }
        }
        let saved_i = std::mem::replace(&mut current[i], merged);
        let saved_j = current.remove(j);
        let saved_lat_i = latencies[i];
        let saved_lat_j = latencies.remove(j);
        latencies[i] = lat_merged;
        let new_schedule = asap_schedule(current, latencies);
        if new_schedule.makespan > schedule.makespan + 1e-9 {
            latencies[i] = saved_lat_i;
            latencies.insert(j, saved_lat_j);
            current[i] = saved_i;
            current.insert(j, saved_j);
            return false;
        }
        *schedule = new_schedule;
        *slacks = alap_slacks(current, latencies, schedule);
        true
    }

    /// The serial merge loop over the full-recompute check.
    pub(super) fn run(
        instrs: &[AggregateInstruction],
        model: &dyn LatencyModel,
        options: &AggregationOptions,
    ) -> (Vec<AggregateInstruction>, AggregationStats) {
        let current = instrs.to_vec();
        let latencies: Vec<f64> = current
            .iter()
            .map(|i| model.aggregate_latency(&i.constituents))
            .collect();
        let schedule = asap_schedule(&current, &latencies);
        let slacks = alap_slacks(&current, &latencies, &schedule);
        let mut stats = AggregationStats {
            makespan_before: schedule.makespan,
            ..Default::default()
        };
        let mut state = SearchState {
            current,
            latencies,
            schedule,
            slacks,
        };
        loop {
            stats.passes += 1;
            let mut performed = false;
            let mut i = 0usize;
            while i < state.current.len() {
                let Some((j, merged)) = legal_candidate(&state.current, i, options) else {
                    i += 1;
                    continue;
                };
                let lat_merged = model.aggregate_latency(&merged.constituents);
                if try_commit(&mut state, i, j, merged, lat_merged, options) {
                    stats.merges += 1;
                    performed = true;
                    if stats.merges >= options.max_merges {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            if !performed || stats.merges >= options.max_merges {
                break;
            }
        }
        stats.makespan_after = state.schedule.makespan;
        (state.current, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;
    use proptest::prelude::*;
    use qcc_hw::CalibratedLatencyModel;
    use qcc_ir::{Circuit, Gate, Instruction};

    fn single(g: Gate, qs: &[usize]) -> AggregateInstruction {
        AggregateInstruction::from_gate(Instruction::new(g, qs.to_vec()))
    }

    #[test]
    fn serial_chain_is_aggregated() {
        // A strictly serial chain on 2 qubits should collapse into one
        // instruction (within the width limit).
        let instrs = vec![
            single(Gate::H, &[0]),
            single(Gate::Cnot, &[0, 1]),
            single(Gate::Rz(0.8), &[1]),
            single(Gate::Cnot, &[0, 1]),
            single(Gate::H, &[0]),
        ];
        let model = CalibratedLatencyModel::asplos19();
        let (out, stats) = run(&instrs, &model, &AggregationOptions::default());
        assert!(out.len() < instrs.len());
        assert!(stats.merges >= 2);
        assert!(stats.makespan_after < stats.makespan_before);
        // Semantics preserved.
        let before = frontend::to_circuit(&instrs, 2).unitary();
        let after = frontend::to_circuit(&out, 2).unitary();
        assert!(after.approx_eq_up_to_phase(&before, 1e-9));
    }

    #[test]
    fn width_limit_is_respected() {
        let instrs: Vec<AggregateInstruction> =
            (0..5).map(|i| single(Gate::Cnot, &[i, i + 1])).collect();
        let model = CalibratedLatencyModel::asplos19();
        let options = AggregationOptions::with_width(3);
        let (out, _) = run(&instrs, &model, &options);
        assert!(out.iter().all(|i| i.width() <= 3), "{out:?}");
    }

    #[test]
    fn aggregation_never_increases_makespan() {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.push(Gate::H, &[q]);
        }
        for i in 0..3 {
            c.push(Gate::Cnot, &[i, i + 1]);
            c.push(Gate::Rz(0.5), &[i + 1]);
            c.push(Gate::Cnot, &[i, i + 1]);
        }
        let instrs = frontend::run(&c);
        let model = CalibratedLatencyModel::asplos19();
        let (_, stats) = run(&instrs, &model, &AggregationOptions::default());
        assert!(stats.makespan_after <= stats.makespan_before + 1e-9);
        assert!(stats.makespan_after < stats.makespan_before);
    }

    #[test]
    fn merging_preserves_semantics_with_interleaved_instructions() {
        // An unrelated gate sits between two mergeable instructions; merging
        // hops over it, which is only legal because it shares no qubits.
        let instrs = vec![
            single(Gate::Cnot, &[0, 1]),
            single(Gate::Rx(0.9), &[3]),
            single(Gate::Rz(0.4), &[1]),
            single(Gate::Cnot, &[0, 1]),
        ];
        let model = CalibratedLatencyModel::asplos19();
        let (out, stats) = run(&instrs, &model, &AggregationOptions::default());
        assert!(stats.merges >= 1);
        let before = frontend::to_circuit(&instrs, 4).unitary();
        let after = frontend::to_circuit(&out, 4).unitary();
        assert!(after.approx_eq_up_to_phase(&before, 1e-9));
    }

    #[test]
    fn merge_never_hops_over_a_dependence() {
        // Rz on qubit 2 sits between CNOT(0,1) and CNOT(1,2): the direct merge
        // of the two CNOTs is forbidden (it would move CNOT(1,2) before the
        // Rz). The pass may instead absorb the Rz into the second CNOT first,
        // which keeps the original gate order — either way the unitary must be
        // exactly preserved, including the non-commuting Rz/CNOT pair.
        let instrs = vec![
            single(Gate::Cnot, &[0, 1]),
            single(Gate::Rz(0.7), &[2]),
            single(Gate::Cnot, &[1, 2]),
        ];
        let model = CalibratedLatencyModel::asplos19();
        let (out, _) = run(&instrs, &model, &AggregationOptions::default());
        let before = frontend::to_circuit(&instrs, 3).unitary();
        let after = frontend::to_circuit(&out, 3).unitary();
        assert!(after.approx_eq_up_to_phase(&before, 1e-9));
        // The flattened gate order must keep the Rz before the second CNOT.
        let flat: Vec<&Instruction> = out.iter().flat_map(|i| i.constituents.iter()).collect();
        let rz_pos = flat.iter().position(|g| g.gate == Gate::Rz(0.7)).unwrap();
        let second_cnot_pos = flat
            .iter()
            .rposition(|g| g.gate == Gate::Cnot && g.qubits == vec![1, 2])
            .unwrap();
        assert!(rz_pos < second_cnot_pos);
    }

    #[test]
    fn parallel_structure_is_not_serialized() {
        // Two independent 2-qubit chains: merging across them is impossible
        // (no shared qubits), and aggregation must keep them parallel.
        let instrs = vec![
            single(Gate::Cnot, &[0, 1]),
            single(Gate::Cnot, &[2, 3]),
            single(Gate::Rz(0.4), &[1]),
            single(Gate::Rz(0.4), &[3]),
        ];
        let model = CalibratedLatencyModel::asplos19();
        let (out, stats) = run(&instrs, &model, &AggregationOptions::default());
        for inst in &out {
            assert!(
                !(inst.acts_on(0) && inst.acts_on(2)),
                "chains were merged: {inst}"
            );
        }
        assert!(stats.makespan_after <= stats.makespan_before + 1e-9);
    }

    #[test]
    fn no_gain_no_merge_when_required() {
        let instrs = vec![single(Gate::Rz(0.0), &[0]), single(Gate::Rz(0.0), &[0])];
        let model = CalibratedLatencyModel::asplos19();
        let (out, stats) = run(&instrs, &model, &AggregationOptions::default());
        assert_eq!(stats.merges, 0);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn gate_count_is_always_preserved() {
        let mut c = Circuit::new(5);
        for q in 0..5 {
            c.push(Gate::H, &[q]);
        }
        for i in 0..4 {
            c.push(Gate::Cnot, &[i, i + 1]);
            c.push(Gate::Rz(0.2 * i as f64 + 0.1), &[i + 1]);
            c.push(Gate::Cnot, &[i, i + 1]);
        }
        for q in 0..5 {
            c.push(Gate::Rx(1.0), &[q]);
        }
        let instrs = frontend::run(&c);
        let gates_before: usize = instrs.iter().map(|i| i.gate_count()).sum();
        let model = CalibratedLatencyModel::asplos19();
        let (out, _) = run(&instrs, &model, &AggregationOptions::default());
        let gates_after: usize = out.iter().map(|i| i.gate_count()).sum();
        assert_eq!(gates_before, gates_after);
    }

    #[test]
    fn max_merges_caps_the_loop() {
        let instrs: Vec<AggregateInstruction> =
            (0..6).map(|_| single(Gate::Cnot, &[0, 1])).collect();
        let model = CalibratedLatencyModel::asplos19();
        let options = AggregationOptions {
            max_merges: 2,
            ..AggregationOptions::default()
        };
        let (_, stats) = run(&instrs, &model, &options);
        assert_eq!(stats.merges, 2);
    }

    /// Prices every instruction alike, so equal finish times — exact ties in
    /// the monotonicity check — are common.
    struct ConstantModel;

    impl LatencyModel for ConstantModel {
        fn isa_gate_latency(&self, _: &Instruction) -> f64 {
            20.0
        }

        fn aggregate_latency(&self, _: &[Instruction]) -> f64 {
            20.0
        }

        fn name(&self) -> &'static str {
            "constant"
        }
    }

    /// Declares any model's pricing expensive, so a multi-thread pool runs
    /// the speculative loop.
    struct Speculative<'a>(&'a dyn LatencyModel);

    impl LatencyModel for Speculative<'_> {
        fn isa_gate_latency(&self, inst: &Instruction) -> f64 {
            self.0.isa_gate_latency(inst)
        }

        fn aggregate_latency(&self, constituents: &[Instruction]) -> f64 {
            self.0.aggregate_latency(constituents)
        }

        fn parallel_pricing(&self) -> bool {
            true
        }

        fn name(&self) -> &'static str {
            "speculative"
        }
    }

    /// One random gate: `(arity, kind, qubit seeds, angle)`.
    type GatePick = (usize, usize, (usize, usize, usize), f64);

    /// A random stream of 1–3-qubit gates on `n` qubits, one instruction per
    /// gate.
    fn random_stream(n: usize, gates: &[GatePick]) -> Vec<AggregateInstruction> {
        gates
            .iter()
            .map(|&(arity, kind, (a, b, c), theta)| {
                let arity = arity.min(n);
                let mut qs = vec![a % n];
                for seed in [b, c].into_iter().take(arity - 1) {
                    let mut q = seed % n;
                    while qs.contains(&q) {
                        q = (q + 1) % n;
                    }
                    qs.push(q);
                }
                let gate = match (arity, kind) {
                    (1, 0) => Gate::H,
                    (1, 1) => Gate::Rz(theta),
                    (1, 2) => Gate::Rx(theta),
                    (1, _) => Gate::T,
                    (2, 0) => Gate::Cnot,
                    (2, 1) => Gate::Rzz(theta),
                    (2, 2) => Gate::Cz,
                    (2, _) => Gate::Swap,
                    _ => Gate::Toffoli,
                };
                single(gate, &qs)
            })
            .collect()
    }

    fn assert_matches_reference(
        instrs: &[AggregateInstruction],
        model: &dyn LatencyModel,
        options: &AggregationOptions,
    ) -> TestCaseResult {
        let (want, want_stats) = reference::run(instrs, model, options);
        let runs = [
            run(instrs, model, options),
            run_with_pool(instrs, &Speculative(model), options, &ThreadPool::new(3)),
        ];
        for (out, stats) in runs {
            prop_assert_eq!(&out, &want);
            prop_assert_eq!(
                (stats.merges, stats.passes),
                (want_stats.merges, want_stats.passes)
            );
            prop_assert_eq!(
                stats.makespan_before.to_bits(),
                want_stats.makespan_before.to_bits()
            );
            prop_assert_eq!(
                stats.makespan_after.to_bits(),
                want_stats.makespan_after.to_bits()
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn incremental_search_matches_the_full_recompute_reference(
            n in 2usize..9,
            gates in prop::collection::vec(
                (1usize..4, 0usize..4, (0usize..64, 0usize..64, 0usize..64), 0.05f64..3.1),
                1..81,
            ),
            max_width in 1usize..7,
            search_window in 0usize..40,
            local_gain in 0usize..2,
            max_merges in 0usize..60,
        ) {
            let options = AggregationOptions {
                max_width,
                search_window,
                require_local_gain: local_gain == 1,
                max_merges: if max_merges == 0 { usize::MAX } else { max_merges },
                ..AggregationOptions::default()
            };
            let instrs = random_stream(n, &gates);
            assert_matches_reference(&instrs, &CalibratedLatencyModel::asplos19(), &options)?;
            assert_matches_reference(&instrs, &ConstantModel, &options)?;
        }
    }
}
