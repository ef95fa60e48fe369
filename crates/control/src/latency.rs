//! The GRAPE-backed latency model and pulse verification.
//!
//! This is the "optimal control unit" of the paper's backend (§3.5): given an
//! aggregated instruction (a list of constituent gates on a handful of
//! qubits), it builds the target unitary, searches for the shortest pulse that
//! implements it to a target fidelity, and reports that duration as the
//! instruction latency. Instructions wider than `max_qubits` fall back to the
//! analytic calibrated model, matching the paper's observation that numerical
//! optimal control does not scale past ~10 qubits (§2.5).
//!
//! Solves are cached by instruction *shape*: every input of a solve depends
//! only on the instruction relabelled onto its sorted support, where each
//! qubit becomes its rank, so `CNOT(3,7)` and `CNOT(0,1)` share one solve.

use crate::grape::{GrapeConfig, GrapeOptimizer, GrapeResult};
use crate::hamiltonian::TransmonSystem;
use parking_lot::Mutex;
use qcc_hw::persist::SnapshotWriter;
use qcc_hw::{CalibratedLatencyModel, ControlLimits, LatencyModel, PersistError, PricingStats};
use qcc_ir::{sequence_unitary, ByteCursor, DecodeError, Instruction};
use qcc_math::{gate_fidelity, CMatrix};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use threadpool::ThreadPool;

/// Number of independently locked shards in the latency cache. Concurrent
/// pricing threads only contend when their keys hash to the same shard, so a
/// modest power of two comfortably covers the pool sizes we run.
const CACHE_SHARDS: usize = 16;

/// Snapshot kind tag for the GRAPE solve cache (see [`qcc_hw::persist`]).
pub const GRAPE_SNAPSHOT_KIND: &str = "grape-latency-cache";

/// One shard: canonical byte keys to their compute-once latency slots.
type CacheShard = HashMap<Vec<u8>, Arc<OnceLock<f64>>>;

/// A sharded, compute-once latency cache.
///
/// Each key hashes (with the deterministic [`std::hash::DefaultHasher`]) to
/// one of [`CACHE_SHARDS`] shards, each guarded by its own `parking_lot`
/// mutex. The shard map stores one [`OnceLock`] slot per key: the shard lock
/// is only held long enough to fetch-or-insert the slot, and the expensive
/// GRAPE solve runs inside `OnceLock::get_or_init` *outside* any shard lock.
/// Concurrent callers of the same key block on the slot — not the shard — so
/// every key is solved exactly once and other keys keep flowing.
struct ShardedLatencyCache {
    shards: Vec<Mutex<CacheShard>>,
}

impl ShardedLatencyCache {
    fn new() -> Self {
        Self {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// Fetches the compute-once slot for `key`, inserting an empty one if the
    /// key is new. Occupied entries take the fast path: one lock, a probe
    /// with the borrowed key, one clone — no allocation.
    fn slot(&self, key: &[u8]) -> Arc<OnceLock<f64>> {
        let mut hasher = std::hash::DefaultHasher::new();
        key.hash(&mut hasher);
        let mut shard = self.shards[hasher.finish() as usize % CACHE_SHARDS].lock();
        if let Some(slot) = shard.get(key) {
            return slot.clone();
        }
        shard.entry(key.to_vec()).or_default().clone()
    }

    /// Number of cached keys across all shards (including in-flight solves).
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Every *settled* entry — keys whose solve has completed. In-flight
    /// slots are skipped: a snapshot taken mid-compile simply omits them.
    fn settled_entries(&self) -> Vec<(Vec<u8>, f64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (key, slot) in shard.lock().iter() {
                if let Some(&v) = slot.get() {
                    out.push((key.clone(), v));
                }
            }
        }
        out
    }

    /// Seeds `key` with `value` unless the key already has a slot (occupied
    /// or in-flight) — a warm start never overwrites live state.
    fn seed(&self, key: &[u8], value: f64) {
        let _ = self.slot(key).set(value);
    }
}

thread_local! {
    /// This thread's key buffer and qubit-support scratch, reused by every
    /// lookup so that a cache hit allocates nothing.
    static KEY_SCRATCH: RefCell<(Vec<u8>, Vec<usize>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Fills `support` with the sorted, deduplicated qubits of `constituents`.
fn sorted_support(constituents: &[Instruction], support: &mut Vec<usize>) {
    support.clear();
    for inst in constituents {
        for &q in &inst.qubits {
            if !support.contains(&q) {
                support.push(q);
            }
        }
    }
    support.sort_unstable();
}

/// Rank of `q` in a sorted `support` that contains it.
fn rank(support: &[usize], q: usize) -> usize {
    support.binary_search(&q).expect("qubit in support")
}

/// The canonical form of an instruction list: the same gates in the same
/// order, with every qubit replaced by its rank in the list's sorted
/// support. This is the placement a cache miss solves.
fn canonical_form(constituents: &[Instruction]) -> Vec<Instruction> {
    let mut support = Vec::new();
    sorted_support(constituents, &mut support);
    constituents
        .iter()
        .map(|inst| Instruction {
            gate: inst.gate,
            qubits: inst.qubits.iter().map(|&q| rank(&support, q)).collect(),
        })
        .collect()
}

/// One snapshot record: the key's length, the key, and the latency's bits.
fn record_payload(key: &[u8], latency: f64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(key.len() + 16);
    payload.extend_from_slice(&(key.len() as u64).to_le_bytes());
    payload.extend_from_slice(key);
    payload.extend_from_slice(&latency.to_bits().to_le_bytes());
    payload
}

/// Latency model that runs the GRAPE optimal-control unit for small
/// instructions and falls back to the calibrated analytic model for larger
/// ones.
pub struct GrapeLatencyModel {
    limits: ControlLimits,
    grape: GrapeConfig,
    fallback: CalibratedLatencyModel,
    /// Widest instruction (in qubits) optimized numerically.
    max_qubits: usize,
    /// Bisection rounds in the minimal-time search.
    refinement_rounds: usize,
    /// Solve cache keyed by instruction shape (see
    /// [`cache_key`](Self::cache_key)).
    cache: ShardedLatencyCache,
    /// Byte encoding of everything that parameterizes a solve besides the
    /// instruction list itself. Each model owns its cache, so the keys leave
    /// it out; it names and guards this model's snapshot files, so a model
    /// with a different calibration never loads them.
    fingerprint: Vec<u8>,
    /// Number of pricing computations actually performed (cache misses).
    solves: AtomicUsize,
    /// Number of pricing queries answered (single and batched, hits included).
    queries: AtomicUsize,
}

impl std::fmt::Debug for GrapeLatencyModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrapeLatencyModel")
            .field("max_qubits", &self.max_qubits)
            .field("refinement_rounds", &self.refinement_rounds)
            .finish()
    }
}

impl GrapeLatencyModel {
    /// Creates the model.
    pub fn new(limits: ControlLimits, grape: GrapeConfig, max_qubits: usize) -> Self {
        let refinement_rounds = 3;
        Self {
            fallback: CalibratedLatencyModel::new(limits),
            fingerprint: Self::solver_fingerprint(&limits, &grape, max_qubits, refinement_rounds),
            limits,
            grape,
            max_qubits,
            refinement_rounds,
            cache: ShardedLatencyCache::new(),
            solves: AtomicUsize::new(0),
            queries: AtomicUsize::new(0),
        }
    }

    /// Byte encoding of the solver configuration: control limits, every
    /// [`GrapeConfig`] field, the numeric-width cutoff, and the bisection
    /// depth. Two models that could return different latencies for the same
    /// instruction list get different fingerprints, so neither loads the
    /// other's snapshots.
    fn solver_fingerprint(
        limits: &ControlLimits,
        grape: &GrapeConfig,
        max_qubits: usize,
        refinement_rounds: usize,
    ) -> Vec<u8> {
        let mut fingerprint = Vec::with_capacity(104);
        limits.encode_into(&mut fingerprint);
        fingerprint.extend_from_slice(&(grape.max_iterations as u64).to_le_bytes());
        for v in [
            grape.target_fidelity,
            grape.learning_rate,
            grape.dt,
            grape.init_scale,
        ] {
            fingerprint.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        fingerprint.extend_from_slice(&grape.seed.to_le_bytes());
        fingerprint.extend_from_slice(&(max_qubits as u64).to_le_bytes());
        fingerprint.extend_from_slice(&(refinement_rounds as u64).to_le_bytes());
        fingerprint
    }

    /// Model with the paper's control limits and a fast GRAPE profile, limited
    /// to two-qubit instructions (suitable for tests and the Table 1 bench).
    pub fn fast_two_qubit() -> Self {
        Self::new(ControlLimits::asplos19(), GrapeConfig::fast(), 2)
    }

    /// Writes the cache key of an instruction list into `key`, using
    /// `support` as scratch: the byte encoding ([`Instruction::encode_into`])
    /// of its canonical form, where every qubit is replaced by its rank in
    /// the list's sorted support. An order-preserving relabel changes no
    /// input of a solve — [`target_unitary`](Self::target_unitary) works on
    /// the sorted support, the system sees only the width, and the
    /// calibrated guess and fallback ignore labels — so one key stands for
    /// every placement of a shape: `CNOT(3,7)` keys as `CNOT(0,1)`. The
    /// relabel keeps operand order (`CNOT(7,3)` keys as `CNOT(1,0)`) and gate
    /// order: constituent gates do not commute in general, so `[X(0); H(0)]`
    /// and `[H(0); X(0)]` are different target unitaries and must price
    /// independently. Angles enter as raw `f64::to_bits` patterns, so nearby
    /// rotation angles never share a key.
    fn cache_key(constituents: &[Instruction], support: &mut Vec<usize>, key: &mut Vec<u8>) {
        sorted_support(constituents, support);
        key.clear();
        for inst in constituents {
            inst.gate.encode_into(key);
            key.push(inst.qubits.len() as u8);
            for &q in &inst.qubits {
                key.extend_from_slice(&(rank(support, q) as u64).to_le_bytes());
            }
        }
    }

    /// The compute-once slot of `constituents`, keyed in this thread's
    /// reused buffer.
    fn slot(&self, constituents: &[Instruction]) -> Arc<OnceLock<f64>> {
        KEY_SCRATCH.with_borrow_mut(|(key, support)| {
            Self::cache_key(constituents, support, key);
            self.cache.slot(key)
        })
    }

    /// One actual pricing computation (a cache miss) for the canonical form
    /// of `constituents`, so the latency is a function of the key alone: the
    /// optimal-control search, or the calibrated fallback when the
    /// instruction is too wide or the search did not converge.
    fn solve_uncached(&self, constituents: &[Instruction]) -> f64 {
        self.solves.fetch_add(1, Ordering::Relaxed);
        let canonical = canonical_form(constituents);
        match self.optimize_instruction(&canonical) {
            Some((t_best, result)) if result.converged => t_best,
            _ => self.fallback.aggregate_latency(&canonical),
        }
    }

    /// Number of distinct instruction shapes in the cache: one shape placed
    /// on several qubit sets counts once. Shapes whose first solve is still
    /// in flight are counted (the compute-once slot is inserted before the
    /// solve completes), so during a concurrent compile this may transiently
    /// exceed [`solve_count`](Self::solve_count).
    pub fn cached_entries(&self) -> usize {
        self.cache.len()
    }

    /// Number of pricing computations performed (cache misses). Under
    /// concurrent pricing this equals the number of distinct instruction
    /// shapes seen — each is solved exactly once, whichever placement or
    /// thread reaches it first.
    pub fn solve_count(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }

    /// Serializes every settled cache entry to `path` (atomic
    /// write-temp-then-rename; see [`qcc_hw::persist`]). The snapshot is
    /// namespaced by this model's solver fingerprint — control limits, full
    /// GRAPE configuration, width cutoff, bisection depth — so a model with
    /// *any* different calibration will refuse to load it. Returns the number
    /// of entries written. In-flight solves are skipped; records are sorted
    /// by key so identical cache contents always produce identical files.
    pub fn snapshot_to(&self, path: &std::path::Path) -> Result<usize, PersistError> {
        let mut entries = self.cache.settled_entries();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut writer = SnapshotWriter::new(GRAPE_SNAPSHOT_KIND, &self.fingerprint);
        for (key, value) in &entries {
            writer.record(&record_payload(key, *value));
        }
        let count = writer.len();
        qcc_hw::persist::write_atomic(path, &writer.finish())?;
        Ok(count)
    }

    /// Warm-starts the solve cache from a snapshot written by
    /// [`snapshot_to`](Self::snapshot_to). Returns the number of entries
    /// loaded. Strict by design: a corrupt, truncated, foreign-version, or
    /// differently-calibrated snapshot is rejected with a [`PersistError`]
    /// naming the mismatch, and so is a record whose key is not canonical
    /// (its qubits are not exactly the ranks `0..k`), which could never hit.
    /// A rejected load leaves the cache exactly as it was — callers that
    /// prefer a silent cold start match on the error themselves. Loaded
    /// entries do not count as solves or queries, so
    /// [`solve_count`](Self::solve_count) still reports only this process's
    /// work — the warm-start tests pin it at zero.
    pub fn warm_start_from(&self, path: &std::path::Path) -> Result<usize, PersistError> {
        let records = qcc_hw::persist::load_records(path, GRAPE_SNAPSHOT_KIND, &self.fingerprint)?;
        let malformed = |what, offset| PersistError::Malformed {
            detail: DecodeError { what, offset },
        };
        // Validate every record before touching the cache: a load is
        // all-or-nothing.
        let mut entries = Vec::with_capacity(records.len());
        let (mut canonical, mut support) = (Vec::new(), Vec::new());
        for payload in &records {
            let mut cur = ByteCursor::new(payload);
            let key_len = cur
                .len("grape record key length")
                .map_err(|detail| PersistError::Malformed { detail })?;
            let key_offset = cur.offset();
            let key = cur
                .bytes(key_len, "grape record key")
                .map_err(|detail| PersistError::Malformed { detail })?;
            // The key must be a well-formed instruction stream and already
            // its own cache key — the checksum guards against corruption,
            // this guards against a confused writer or a hand-edited file.
            let mut check = ByteCursor::new(key);
            let mut constituents = Vec::new();
            while !check.is_empty() {
                constituents.push(
                    Instruction::decode_from(&mut check)
                        .map_err(|detail| PersistError::Malformed { detail })?,
                );
            }
            Self::cache_key(&constituents, &mut support, &mut canonical);
            if canonical != key {
                return Err(malformed(
                    "grape record key (qubits are not the ranks 0..k)",
                    key_offset,
                ));
            }
            let value = cur
                .f64("grape record latency")
                .map_err(|detail| PersistError::Malformed { detail })?;
            if !cur.is_empty() {
                return Err(malformed("grape record (trailing bytes)", cur.offset()));
            }
            entries.push((key, value));
        }
        let count = entries.len();
        for (key, value) in entries {
            self.cache.seed(key, value);
        }
        Ok(count)
    }

    /// Builds the target unitary of an instruction list on its (sorted) local
    /// qubit support, together with that support.
    pub fn target_unitary(constituents: &[Instruction]) -> (CMatrix, Vec<usize>) {
        let mut support = Vec::new();
        sorted_support(constituents, &mut support);
        (sequence_unitary(constituents, &support), support)
    }

    /// Runs the full optimal-control pipeline for one instruction, returning
    /// the pulse duration and the GRAPE result. Returns `None`, without
    /// building the target, for an instruction wider than the model's limit.
    pub fn optimize_instruction(&self, constituents: &[Instruction]) -> Option<(f64, GrapeResult)> {
        let mut support = Vec::new();
        sorted_support(constituents, &mut support);
        if support.is_empty() || support.len() > self.max_qubits {
            return None;
        }
        let target = sequence_unitary(constituents, &support);
        let system = TransmonSystem::fully_coupled(support.len(), self.limits);
        let optimizer = GrapeOptimizer::new(self.grape.clone());
        let guess = self
            .fallback
            .aggregate_latency(constituents)
            .max(2.0 * self.grape.dt);
        let (t_best, result) =
            optimizer.minimize_time(&system, &target, guess, self.refinement_rounds);
        Some((t_best, result))
    }
}

impl LatencyModel for GrapeLatencyModel {
    fn isa_gate_latency(&self, inst: &Instruction) -> f64 {
        self.fallback.isa_gate_latency(inst)
    }

    fn aggregate_latency(&self, constituents: &[Instruction]) -> f64 {
        self.queries.fetch_add(1, Ordering::Relaxed);
        *self
            .slot(constituents)
            .get_or_init(|| self.solve_uncached(constituents))
    }

    /// Batched pricing that dedups against the sharded cache before touching
    /// the pool: every query fetches its compute-once slot first, already
    /// solved keys (and duplicates within the batch, which share one slot
    /// allocation) are answered for free, and only the *unique* misses fan
    /// out over `pool` — one GRAPE solve per distinct key, exactly-once under
    /// any concurrency via the existing [`OnceLock`] slots. Values are
    /// bit-identical to sequential
    /// [`aggregate_latency`](LatencyModel::aggregate_latency) calls: same
    /// keys, same slots, same deterministic solves of each key's canonical
    /// form.
    fn aggregate_latency_batch(&self, queries: &[&[Instruction]], pool: &ThreadPool) -> Vec<f64> {
        self.queries.fetch_add(queries.len(), Ordering::Relaxed);
        let slots: Vec<Arc<OnceLock<f64>>> = queries.iter().map(|q| self.slot(q)).collect();
        // Unique unsolved keys, in first-occurrence order. Duplicate queries
        // resolve to the same slot allocation, so pointer identity dedups
        // without re-deriving the keys.
        let mut seen = HashSet::new();
        let misses: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.get().is_none() && seen.insert(Arc::as_ptr(slot)))
            .map(|(i, _)| i)
            .collect();
        if !misses.is_empty() {
            pool.parallel_map(&misses, |&i| {
                slot_value(&slots[i], || self.solve_uncached(queries[i]))
            });
        }
        // Collect in input order. Slots we fanned out above are initialized;
        // a slot observed occupied before the fan-out may still be mid-solve
        // in a concurrent caller, in which case get_or_init blocks on it (the
        // closure never runs twice for one slot — exactly-once holds).
        slots
            .iter()
            .zip(queries)
            .map(|(slot, q)| slot_value(slot, || self.solve_uncached(q)))
            .collect()
    }

    /// GRAPE solves take milliseconds each — always worth fanning out.
    fn parallel_pricing(&self) -> bool {
        true
    }

    fn pricing_stats(&self) -> Option<PricingStats> {
        Some(PricingStats {
            queries: self.queries.load(Ordering::Relaxed),
            solves: self.solves.load(Ordering::Relaxed),
        })
    }

    fn persistent_cache(&self) -> Option<&dyn qcc_hw::PersistentCache> {
        Some(self)
    }

    fn name(&self) -> &'static str {
        "grape-xy"
    }
}

/// The GRAPE solve cache is the workspace's most expensive state — this is
/// the snapshot/warm-start surface front doors reach through
/// [`LatencyModel::persistent_cache`]. Delegates to the inherent
/// [`snapshot_to`](GrapeLatencyModel::snapshot_to) /
/// [`warm_start_from`](GrapeLatencyModel::warm_start_from) methods.
impl qcc_hw::PersistentCache for GrapeLatencyModel {
    fn snapshot_kind(&self) -> &'static str {
        GRAPE_SNAPSHOT_KIND
    }

    fn snapshot_fingerprint(&self) -> Vec<u8> {
        self.fingerprint.clone()
    }

    fn snapshot_to(&self, path: &std::path::Path) -> Result<usize, PersistError> {
        GrapeLatencyModel::snapshot_to(self, path)
    }

    fn warm_start_from(&self, path: &std::path::Path) -> Result<usize, PersistError> {
        GrapeLatencyModel::warm_start_from(self, path)
    }
}

/// Reads a compute-once slot, running `solve` (exactly once across all
/// threads) when the slot is still empty.
fn slot_value(slot: &OnceLock<f64>, solve: impl FnOnce() -> f64) -> f64 {
    *slot.get_or_init(solve)
}

/// Outcome of verifying one pulse against its target unitary (§3.6).
#[derive(Debug, Clone, PartialEq)]
pub struct PulseVerification {
    /// Gate fidelity between the pulse propagator and the target unitary.
    pub fidelity: f64,
    /// Whether the fidelity exceeds the verification threshold.
    pub passed: bool,
    /// Pulse duration in ns.
    pub duration_ns: f64,
}

/// Verifies a GRAPE result against a target unitary by re-simulating the pulse
/// with the piecewise-constant propagator (the role QuTiP plays in the paper).
pub fn verify_pulse(
    system: &TransmonSystem,
    result: &GrapeResult,
    target: &CMatrix,
    threshold: f64,
) -> PulseVerification {
    let u = result.pulse.propagator(system);
    let fidelity = gate_fidelity(&u, target);
    PulseVerification {
        fidelity,
        passed: fidelity >= threshold,
        duration_ns: result.pulse.duration(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grape::optimize_pulse;
    use qcc_ir::Gate;
    use qcc_math::pauli;

    fn inst(gate: Gate, qubits: &[usize]) -> Instruction {
        Instruction::new(gate, qubits.to_vec())
    }

    /// A unique temp path for snapshot tests (no tempfile dependency).
    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "qcc-grape-snap-{}-{}.qccsnap",
            tag,
            std::process::id()
        ))
    }

    #[test]
    fn snapshot_round_trip_restores_latencies_without_solves() {
        let writer = GrapeLatencyModel::fast_two_qubit();
        let queries: Vec<Vec<Instruction>> = vec![
            vec![inst(Gate::X, &[0])],
            vec![inst(Gate::H, &[0]), inst(Gate::Rz(0.3), &[0])],
            vec![inst(Gate::Cnot, &[0, 1])],
        ];
        let expected: Vec<f64> = queries
            .iter()
            .map(|q| writer.aggregate_latency(q))
            .collect();
        assert_eq!(writer.solve_count(), 3);

        let path = scratch("roundtrip");
        assert_eq!(writer.snapshot_to(&path).unwrap(), 3);

        // A fresh, identically configured model warm-starts to the same
        // answers with zero new solves, bit-identically.
        let reader = GrapeLatencyModel::fast_two_qubit();
        assert_eq!(reader.warm_start_from(&path).unwrap(), 3);
        assert_eq!(reader.solve_count(), 0);
        assert_eq!(reader.cached_entries(), 3);
        for (q, want) in queries.iter().zip(&expected) {
            assert_eq!(reader.aggregate_latency(q).to_bits(), want.to_bits());
        }
        assert_eq!(reader.solve_count(), 0, "warm cache must answer everything");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn snapshots_are_deterministic_bytes() {
        let a = GrapeLatencyModel::fast_two_qubit();
        let b = GrapeLatencyModel::fast_two_qubit();
        // Prime the two caches in different orders; the sorted snapshot must
        // come out byte-identical.
        let q1 = [inst(Gate::X, &[0])];
        let q2 = [inst(Gate::Cnot, &[0, 1])];
        a.aggregate_latency(&q1);
        a.aggregate_latency(&q2);
        b.aggregate_latency(&q2);
        b.aggregate_latency(&q1);
        let (pa, pb) = (scratch("det-a"), scratch("det-b"));
        a.snapshot_to(&pa).unwrap();
        b.snapshot_to(&pb).unwrap();
        assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        std::fs::remove_file(&pa).unwrap();
        std::fs::remove_file(&pb).unwrap();
    }

    #[test]
    fn stale_calibration_snapshot_is_rejected_naming_the_mismatch() {
        let writer = GrapeLatencyModel::fast_two_qubit();
        writer.aggregate_latency(&[inst(Gate::X, &[0])]);
        let path = scratch("stale");
        writer.snapshot_to(&path).unwrap();

        // Same gates, different device calibration: the solver fingerprint
        // differs, so the cached pulse durations would be *wrong* here.
        let recalibrated = GrapeLatencyModel::new(
            ControlLimits::asplos19().scaled_drives(2.0),
            GrapeConfig::fast(),
            2,
        );
        let err = recalibrated.warm_start_from(&path).unwrap_err();
        assert!(
            matches!(err, PersistError::FingerprintMismatch { .. }),
            "expected FingerprintMismatch, got {err}"
        );
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        // The rejected load left the cache cold.
        assert_eq!(recalibrated.cached_entries(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_rejected_and_cache_untouched() {
        let writer = GrapeLatencyModel::fast_two_qubit();
        writer.aggregate_latency(&[inst(Gate::X, &[0])]);
        let path = scratch("corrupt");
        writer.snapshot_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let reader = GrapeLatencyModel::fast_two_qubit();
        assert!(reader.warm_start_from(&path).is_err());
        assert_eq!(reader.cached_entries(), 0);
        // Cold start still works and prices correctly.
        let t = reader.aggregate_latency(&[inst(Gate::X, &[0])]);
        assert!(t.is_finite() && t > 0.0);
        assert_eq!(reader.solve_count(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_canonical_snapshot_record_is_rejected_and_cache_untouched() {
        // A record keyed on raw qubit indices would load but never hit. Write
        // one after a canonical record, under the reader's own fingerprint,
        // so only the key itself is wrong.
        let reader = GrapeLatencyModel::fast_two_qubit();
        let fingerprint = qcc_hw::PersistentCache::snapshot_fingerprint(&reader);
        let mut writer = SnapshotWriter::new(GRAPE_SNAPSHOT_KIND, &fingerprint);
        for qubits in [[0, 1], [4, 7]] {
            let mut key = Vec::new();
            inst(Gate::Cnot, &qubits).encode_into(&mut key);
            writer.record(&record_payload(&key, 25.0));
        }
        let path = scratch("non-canonical");
        qcc_hw::persist::write_atomic(&path, &writer.finish()).unwrap();

        let err = reader.warm_start_from(&path).unwrap_err();
        assert!(
            matches!(err, PersistError::Malformed { .. }),
            "expected Malformed, got {err}"
        );
        assert!(err.to_string().contains("ranks"), "{err}");
        assert_eq!(reader.cached_entries(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn warm_start_never_overwrites_live_entries() {
        let writer = GrapeLatencyModel::fast_two_qubit();
        let q = [inst(Gate::X, &[0])];
        let t = writer.aggregate_latency(&q);
        let path = scratch("no-clobber");
        writer.snapshot_to(&path).unwrap();

        let reader = GrapeLatencyModel::fast_two_qubit();
        let live = reader.aggregate_latency(&q);
        assert_eq!(live.to_bits(), t.to_bits());
        reader.warm_start_from(&path).unwrap();
        assert_eq!(reader.aggregate_latency(&q).to_bits(), live.to_bits());
        assert_eq!(reader.cached_entries(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn target_unitary_uses_local_support() {
        let (u, support) = GrapeLatencyModel::target_unitary(&[
            inst(Gate::Cnot, &[4, 7]),
            inst(Gate::Rz(0.5), &[7]),
            inst(Gate::Cnot, &[4, 7]),
        ]);
        assert_eq!(support, vec![4, 7]);
        assert_eq!(u.rows(), 4);
        assert!(u.approx_eq(&pauli::zz_rotation(0.5), 1e-12));

        // A reversed CNOT after an Rx on its control: bit-for-bit the
        // product of the embedded gate matrices.
        let (u, support) = GrapeLatencyModel::target_unitary(&[
            inst(Gate::Rx(0.3), &[7]),
            inst(Gate::Cnot, &[7, 3]),
        ]);
        assert_eq!(support, vec![3, 7]);
        let want = pauli::cnot()
            .embed(2, &[1, 0])
            .matmul(&pauli::rx(0.3).embed(2, &[1]));
        let bits = |m: &CMatrix| -> Vec<(u64, u64)> {
            m.as_slice()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        assert_eq!(bits(&u), bits(&want));
    }

    #[test]
    fn grape_latency_close_to_theoretical_for_x_gate() {
        let model = GrapeLatencyModel::fast_two_qubit();
        let t = model.aggregate_latency(&[inst(Gate::X, &[3])]);
        // A π rotation at the 0.1 GHz drive limit takes 5 ns; the search should
        // land somewhere in the low single digits (it cannot beat ~5 ns but may
        // stop early near the guess).
        assert!(t > 1.0 && t < 12.0, "X-gate pulse duration {t} ns");
        // Cached second query returns the same value.
        assert_eq!(t, model.aggregate_latency(&[inst(Gate::X, &[3])]));
    }

    #[test]
    fn wide_instructions_fall_back_to_calibrated_model() {
        let model = GrapeLatencyModel::fast_two_qubit();
        let constituents = vec![
            inst(Gate::Cnot, &[0, 1]),
            inst(Gate::Cnot, &[1, 2]),
            inst(Gate::Cnot, &[2, 3]),
        ];
        let grape_t = model.aggregate_latency(&constituents);
        let calib = CalibratedLatencyModel::asplos19().aggregate_latency(&constituents);
        assert!((grape_t - calib).abs() < 1e-9);

        // A 10-qubit CNOT–Rz ladder is priced by the fallback without a
        // 1024 × 1024 target being built first.
        let ladder: Vec<Instruction> = (0..9)
            .flat_map(|q| [inst(Gate::Cnot, &[q, q + 1]), inst(Gate::Rz(0.2), &[q + 1])])
            .collect();
        let grape_t = model.aggregate_latency(&ladder);
        let calib = CalibratedLatencyModel::asplos19().aggregate_latency(&ladder);
        assert_eq!(grape_t.to_bits(), calib.to_bits());
    }

    #[test]
    fn isa_latency_delegates_to_calibrated_model() {
        let model = GrapeLatencyModel::fast_two_qubit();
        let calib = CalibratedLatencyModel::asplos19();
        let cnot = inst(Gate::Cnot, &[0, 1]);
        assert!((model.isa_gate_latency(&cnot) - calib.isa_gate_latency(&cnot)).abs() < 1e-12);
        assert_eq!(model.name(), "grape-xy");
    }

    /// The cache key of `constituents`, built in fresh buffers.
    fn key_of(constituents: &[Instruction]) -> Vec<u8> {
        let (mut key, mut support) = (Vec::new(), Vec::new());
        GrapeLatencyModel::cache_key(constituents, &mut support, &mut key);
        key
    }

    #[test]
    fn cache_key_preserves_gate_order() {
        // X·H ≠ H·X: the two orders are different target unitaries and must
        // not collide in the cache (the old key sorted constituents).
        let xh = [inst(Gate::X, &[0]), inst(Gate::H, &[0])];
        let hx = [inst(Gate::H, &[0]), inst(Gate::X, &[0])];
        assert_ne!(key_of(&xh), key_of(&hx));
        let (u_xh, _) = GrapeLatencyModel::target_unitary(&xh);
        let (u_hx, _) = GrapeLatencyModel::target_unitary(&hx);
        assert!(!u_xh.approx_eq_up_to_phase(&u_hx, 1e-9));

        // Rotation angles that differ in any bit must key separately (the
        // byte key embeds the raw f64 bit pattern).
        assert_ne!(
            key_of(&[inst(Gate::Rz(0.40001), &[0])]),
            key_of(&[inst(Gate::Rz(0.40004), &[0])])
        );

        // The key relabels each qubit to its rank in the sorted support: one
        // placement keys like another, and the key is the instruction
        // encoding of the relabelled list. It relabels without sorting, so
        // operand order survives.
        let cnot_37 = key_of(&[inst(Gate::Cnot, &[3, 7])]);
        assert_eq!(cnot_37, key_of(&[inst(Gate::Cnot, &[0, 1])]));
        assert_ne!(cnot_37, key_of(&[inst(Gate::Cnot, &[7, 3])]));
        let mut encoded = Vec::new();
        inst(Gate::Cnot, &[0, 1]).encode_into(&mut encoded);
        assert_eq!(cnot_37, encoded);

        let model = GrapeLatencyModel::fast_two_qubit();
        let t_xh = model.aggregate_latency(&xh);
        let t_hx = model.aggregate_latency(&hx);
        assert_eq!(model.cached_entries(), 2, "orders must price independently");
        assert_eq!(model.solve_count(), 2);
        assert!(t_xh > 0.0 && t_hx > 0.0);
        // Re-querying either order hits its own cached entry.
        assert_eq!(t_xh, model.aggregate_latency(&xh));
        assert_eq!(t_hx, model.aggregate_latency(&hx));
        assert_eq!(model.solve_count(), 2);
    }

    #[test]
    fn each_shape_is_solved_once_whatever_its_placement() {
        let zz = |a, b| {
            vec![
                inst(Gate::Cnot, &[a, b]),
                inst(Gate::Rz(0.5), &[b]),
                inst(Gate::Cnot, &[a, b]),
            ]
        };
        let workload: Vec<Vec<Instruction>> = vec![
            zz(0, 1),
            zz(3, 7),
            zz(5, 9),
            vec![inst(Gate::X, &[0])],
            vec![inst(Gate::X, &[4])],
            vec![inst(Gate::X, &[11])],
        ];
        // What a key per placement gave: each placement solved as given,
        // by a model that has seen nothing else.
        let expected: Vec<u64> = workload
            .iter()
            .map(|q| {
                let fresh = GrapeLatencyModel::fast_two_qubit();
                let t = match fresh.optimize_instruction(q) {
                    Some((t_best, result)) if result.converged => t_best,
                    _ => fresh.fallback.aggregate_latency(q),
                };
                t.to_bits()
            })
            .collect();

        let shared = GrapeLatencyModel::fast_two_qubit();
        for (q, want) in workload.iter().zip(&expected) {
            assert_eq!(shared.aggregate_latency(q).to_bits(), *want, "{q:?}");
        }
        assert_eq!(shared.solve_count(), 2, "one solve per shape");
        assert_eq!(shared.cached_entries(), 2);

        let queries: Vec<&[Instruction]> = workload.iter().map(|c| c.as_slice()).collect();
        for threads in [1, 4] {
            let model = GrapeLatencyModel::fast_two_qubit();
            let got = model.aggregate_latency_batch(&queries, &ThreadPool::new(threads));
            for (g, want) in got.iter().zip(&expected) {
                assert_eq!(g.to_bits(), *want, "{threads} threads");
            }
            assert_eq!(model.solve_count(), 2, "{threads} threads");
        }
    }

    #[test]
    fn snapshot_fingerprints_diverge_across_solver_configurations() {
        // Two models that could price the same instruction differently —
        // different control limits, or different GRAPE settings — must never
        // share a snapshot fingerprint, or a snapshot written by one would
        // warm-start the other with the wrong latencies.
        let fingerprint = |m: &GrapeLatencyModel| qcc_hw::PersistentCache::snapshot_fingerprint(m);
        let base = GrapeLatencyModel::fast_two_qubit();
        let fast_limits = GrapeLatencyModel::new(
            ControlLimits::asplos19().scaled_drives(2.0),
            GrapeConfig::fast(),
            2,
        );
        let deeper = {
            let mut cfg = GrapeConfig::fast();
            cfg.max_iterations += 1;
            GrapeLatencyModel::new(ControlLimits::asplos19(), cfg, 2)
        };
        let wider = GrapeLatencyModel::new(ControlLimits::asplos19(), GrapeConfig::fast(), 3);
        assert_ne!(fingerprint(&base), fingerprint(&fast_limits));
        assert_ne!(fingerprint(&base), fingerprint(&deeper));
        assert_ne!(fingerprint(&base), fingerprint(&wider));
        // Identically configured models agree — the fingerprint is a pure
        // function of configuration, so snapshots load across runs.
        assert_eq!(
            fingerprint(&base),
            fingerprint(&GrapeLatencyModel::fast_two_qubit())
        );
    }

    #[test]
    fn concurrent_pricing_is_compute_once_and_deterministic() {
        // Hammer one model from 8 threads over a shared workload: the priced
        // latencies must be bit-identical to a single-threaded run, and every
        // distinct key must be solved exactly once despite the contention.
        let workload: Vec<Vec<Instruction>> = vec![
            vec![inst(Gate::X, &[0])],
            vec![inst(Gate::H, &[1])],
            vec![inst(Gate::X, &[0]), inst(Gate::H, &[0])],
            vec![inst(Gate::H, &[0]), inst(Gate::X, &[0])],
            vec![inst(Gate::Rz(0.4), &[2])],
            // Duplicate of the first key: must not trigger a second solve.
            vec![inst(Gate::X, &[0])],
        ];
        let reference = GrapeLatencyModel::fast_two_qubit();
        let expected: Vec<f64> = workload
            .iter()
            .map(|c| reference.aggregate_latency(c))
            .collect();
        let unique_keys = 5;
        assert_eq!(reference.solve_count(), unique_keys);

        let model = GrapeLatencyModel::fast_two_qubit();
        let runs: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        workload
                            .iter()
                            .map(|c| model.aggregate_latency(c))
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pricing thread panicked"))
                .collect()
        });
        for run in &runs {
            for (got, want) in run.iter().zip(expected.iter()) {
                assert_eq!(got.to_bits(), want.to_bits(), "{got} != {want}");
            }
        }
        assert_eq!(model.solve_count(), unique_keys, "duplicated GRAPE solves");
        assert_eq!(model.cached_entries(), unique_keys);
    }

    #[test]
    fn batch_pricing_dedups_and_matches_single_queries() {
        let workload: Vec<Vec<Instruction>> = vec![
            vec![inst(Gate::X, &[0])],
            vec![inst(Gate::H, &[1])],
            vec![inst(Gate::X, &[0]), inst(Gate::H, &[0])],
            vec![inst(Gate::X, &[0])], // duplicate within the batch
            vec![inst(Gate::Rz(0.4), &[2])],
        ];
        let queries: Vec<&[Instruction]> = workload.iter().map(|c| c.as_slice()).collect();
        let reference = GrapeLatencyModel::fast_two_qubit();
        let expected: Vec<f64> = workload
            .iter()
            .map(|c| reference.aggregate_latency(c))
            .collect();
        assert_eq!(reference.solve_count(), 4, "4 unique keys");

        for threads in [1, 4] {
            let model = GrapeLatencyModel::fast_two_qubit();
            let got = model.aggregate_latency_batch(&queries, &ThreadPool::new(threads));
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.to_bits(), e.to_bits(), "{threads} threads");
            }
            // The in-batch duplicate is priced by one solve.
            assert_eq!(model.solve_count(), 4, "{threads} threads");
            assert_eq!(model.cached_entries(), 4);
            // Re-batching is all cache hits: queries grow, solves do not.
            let again = model.aggregate_latency_batch(&queries, &ThreadPool::new(threads));
            assert_eq!(model.solve_count(), 4);
            for (g, e) in again.iter().zip(&expected) {
                assert_eq!(g.to_bits(), e.to_bits());
            }
            let stats = model.pricing_stats().expect("grape model is instrumented");
            assert_eq!(stats.queries, 2 * workload.len());
            assert_eq!(stats.solves, 4);
            assert_eq!(stats.cache_hits(), 2 * workload.len() - 4);
        }
    }

    #[test]
    fn pulse_verification_passes_for_converged_result() {
        let sys = TransmonSystem::new(1, &[], ControlLimits::asplos19());
        let target = pauli::sigma_x();
        let result = optimize_pulse(&sys, &target, 8.0, GrapeConfig::fast());
        let verification = verify_pulse(&sys, &result, &target, 0.98);
        assert!(verification.passed, "fidelity {}", verification.fidelity);
        assert!((verification.duration_ns - result.pulse.duration()).abs() < 1e-12);
        // Verifying against a wrong target fails.
        let wrong = verify_pulse(&sys, &result, &pauli::sigma_z(), 0.9);
        assert!(!wrong.passed);
    }
}
