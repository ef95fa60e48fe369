//! The GRAPE-backed latency model and pulse verification.
//!
//! This is the "optimal control unit" of the paper's backend (§3.5): given an
//! aggregated instruction (a list of constituent gates on a handful of
//! qubits), it builds the target unitary, searches for the shortest pulse that
//! implements it to a target fidelity, and reports that duration as the
//! instruction latency. Instructions wider than `max_qubits` fall back to the
//! analytic calibrated model, matching the paper's observation that numerical
//! optimal control does not scale past ~10 qubits (§2.5).

use crate::grape::{GrapeConfig, GrapeOptimizer, GrapeResult};
use crate::hamiltonian::TransmonSystem;
use parking_lot::Mutex;
use qcc_hw::persist::SnapshotWriter;
use qcc_hw::{CalibratedLatencyModel, ControlLimits, LatencyModel, PersistError, PricingStats};
use qcc_ir::{ByteCursor, Instruction};
use qcc_math::{gate_fidelity, CMatrix};
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

/// A sharded, compute-once latency cache.
///
/// Each key hashes (with the deterministic [`std::hash::DefaultHasher`]) to
/// one of [`CACHE_SHARDS`] shards, each guarded by its own `parking_lot`
/// mutex. The shard map stores one [`OnceLock`] slot per key: the shard lock
/// is only held long enough to fetch-or-insert the slot, and the expensive
/// GRAPE solve runs inside `OnceLock::get_or_init` *outside* any shard lock.
/// Concurrent callers of the same key block on the slot — not the shard — so
/// every key is solved exactly once and other keys keep flowing.
/// One shard: byte keys to their compute-once latency slots.
type CacheShard = HashMap<Vec<u8>, Arc<OnceLock<f64>>>;

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
    /// key is new (occupied entries take the fast path: one lock, one clone).
    fn slot(&self, key: Vec<u8>) -> Arc<OnceLock<f64>> {
        let mut hasher = std::hash::DefaultHasher::new();
        key.hash(&mut hasher);
        let shard = &self.shards[hasher.finish() as usize % CACHE_SHARDS];
        shard.lock().entry(key).or_default().clone()
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
    fn seed(&self, key: Vec<u8>, value: f64) {
        let slot = self.slot(key);
        let _ = slot.set(value);
    }
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
    cache: ShardedLatencyCache,
    /// Byte encoding of everything that parameterizes a solve besides the
    /// instruction list itself — prefixed to every cache key so models with
    /// different calibrations never alias (see [`cache_key`](Self::cache_key)).
    key_prefix: Vec<u8>,
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
            key_prefix: Self::solver_prefix(&limits, &grape, max_qubits, refinement_rounds),
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
    /// instruction list get different prefixes, so their cache entries and
    /// snapshots never collide.
    fn solver_prefix(
        limits: &ControlLimits,
        grape: &GrapeConfig,
        max_qubits: usize,
        refinement_rounds: usize,
    ) -> Vec<u8> {
        let mut prefix = Vec::with_capacity(96);
        limits.encode_into(&mut prefix);
        prefix.extend_from_slice(&(grape.max_iterations as u64).to_le_bytes());
        for v in [
            grape.target_fidelity,
            grape.learning_rate,
            grape.dt,
            grape.init_scale,
        ] {
            prefix.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        prefix.extend_from_slice(&grape.seed.to_le_bytes());
        prefix.extend_from_slice(&(max_qubits as u64).to_le_bytes());
        prefix.extend_from_slice(&(refinement_rounds as u64).to_le_bytes());
        prefix
    }

    /// Model with the paper's control limits and a fast GRAPE profile, limited
    /// to two-qubit instructions (suitable for tests and the Table 1 bench).
    pub fn fast_two_qubit() -> Self {
        Self::new(ControlLimits::asplos19(), GrapeConfig::fast(), 2)
    }

    /// Cache key of an instruction list. Gate order is preserved: constituent
    /// gates do not commute in general, so `[X(0); H(0)]` and `[H(0); X(0)]`
    /// are different target unitaries and must price independently. The key is
    /// this model's solver prefix (control limits + full GRAPE configuration —
    /// the solver-identity part of the key) followed by the injective byte
    /// encoding of the sequence ([`Instruction::encode_into`]): variant tags,
    /// raw `f64::to_bits` angle bit patterns, and qubit indices — nearby
    /// rotation angles never share a key, and building it allocates one small
    /// `Vec<u8>` instead of the per-gate `format!` strings of the old
    /// `Debug`-rendered key.
    fn cache_key(&self, constituents: &[Instruction]) -> Vec<u8> {
        // ~18 bytes per encoded gate (tag + angle bits + two qubit indices).
        let mut key = Vec::with_capacity(self.key_prefix.len() + constituents.len() * 20);
        key.extend_from_slice(&self.key_prefix);
        for inst in constituents {
            inst.encode_into(&mut key);
        }
        key
    }

    /// One actual pricing computation for `constituents` (a cache miss):
    /// the optimal-control search, or the calibrated fallback when the
    /// instruction is too wide or the search did not converge.
    fn solve_uncached(&self, constituents: &[Instruction]) -> f64 {
        self.solves.fetch_add(1, Ordering::Relaxed);
        match self.optimize_instruction(constituents) {
            Some((t_best, result)) if result.converged => t_best,
            _ => self.fallback.aggregate_latency(constituents),
        }
    }

    /// Number of distinct instruction keys in the cache. Keys whose first
    /// solve is still in flight are counted (the compute-once slot is
    /// inserted before the solve completes), so during a concurrent compile
    /// this may transiently exceed [`solve_count`](Self::solve_count).
    pub fn cached_entries(&self) -> usize {
        self.cache.len()
    }

    /// Number of pricing computations performed (cache misses). Under
    /// concurrent pricing this equals the number of distinct keys seen — each
    /// key is solved exactly once.
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
        let mut writer = SnapshotWriter::new(GRAPE_SNAPSHOT_KIND, &self.key_prefix);
        for (key, value) in &entries {
            // Keys are prefix + instruction stream; the prefix doubles as the
            // snapshot fingerprint, so only the suffix goes in the record.
            let suffix = &key[self.key_prefix.len()..];
            let mut payload = Vec::with_capacity(suffix.len() + 16);
            payload.extend_from_slice(&(suffix.len() as u64).to_le_bytes());
            payload.extend_from_slice(suffix);
            payload.extend_from_slice(&value.to_bits().to_le_bytes());
            writer.record(&payload);
        }
        let count = writer.len();
        qcc_hw::persist::write_atomic(path, &writer.finish())?;
        Ok(count)
    }

    /// Warm-starts the solve cache from a snapshot written by
    /// [`snapshot_to`](Self::snapshot_to). Returns the number of entries
    /// loaded. Strict by design: a corrupt, truncated, foreign-version, or
    /// differently-calibrated snapshot is rejected with a [`PersistError`]
    /// naming the mismatch, and the cache is left exactly as it was — callers
    /// that prefer a silent cold start match on the error themselves. Loaded
    /// entries do not count as solves or queries, so
    /// [`solve_count`](Self::solve_count) still reports only this process's
    /// work — the warm-start tests pin it at zero.
    pub fn warm_start_from(&self, path: &std::path::Path) -> Result<usize, PersistError> {
        let records = qcc_hw::persist::load_records(path, GRAPE_SNAPSHOT_KIND, &self.key_prefix)?;
        // Validate every record before touching the cache: a load is
        // all-or-nothing.
        let mut entries = Vec::with_capacity(records.len());
        for payload in &records {
            let mut cur = ByteCursor::new(payload);
            let suffix_len = cur
                .len("grape record key length")
                .map_err(|detail| PersistError::Malformed { detail })?;
            let suffix = cur
                .bytes(suffix_len, "grape record key")
                .map_err(|detail| PersistError::Malformed { detail })?;
            // The key suffix must be a well-formed instruction stream — the
            // checksum guards against corruption, this guards against a
            // confused writer.
            let mut check = ByteCursor::new(suffix);
            while !check.is_empty() {
                Instruction::decode_from(&mut check)
                    .map_err(|detail| PersistError::Malformed { detail })?;
            }
            let value = cur
                .f64("grape record latency")
                .map_err(|detail| PersistError::Malformed { detail })?;
            if !cur.is_empty() {
                return Err(PersistError::Malformed {
                    detail: qcc_ir::DecodeError {
                        what: "grape record (trailing bytes)",
                        offset: cur.offset(),
                    },
                });
            }
            let mut key = Vec::with_capacity(self.key_prefix.len() + suffix.len());
            key.extend_from_slice(&self.key_prefix);
            key.extend_from_slice(suffix);
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
        let mut support: Vec<usize> = Vec::new();
        for inst in constituents {
            for &q in &inst.qubits {
                if !support.contains(&q) {
                    support.push(q);
                }
            }
        }
        support.sort_unstable();
        let n = support.len().max(1);
        let dim = 1usize << n;
        let mut u = CMatrix::identity(dim);
        for inst in constituents {
            let local: Vec<usize> = inst
                .qubits
                .iter()
                .map(|q| {
                    support
                        .iter()
                        .position(|s| s == q)
                        .expect("qubit in support")
                })
                .collect();
            u = inst.gate.matrix().embed(n, &local).matmul(&u);
        }
        (u, support)
    }

    /// Runs the full optimal-control pipeline for one instruction, returning
    /// the pulse duration and the GRAPE result.
    pub fn optimize_instruction(&self, constituents: &[Instruction]) -> Option<(f64, GrapeResult)> {
        let (target, support) = Self::target_unitary(constituents);
        if support.is_empty() || support.len() > self.max_qubits {
            return None;
        }
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
        let slot = self.cache.slot(self.cache_key(constituents));
        *slot.get_or_init(|| self.solve_uncached(constituents))
    }

    /// Batched pricing that dedups against the sharded cache before touching
    /// the pool: every query fetches its compute-once slot first, already
    /// solved keys (and duplicates within the batch, which share one slot
    /// allocation) are answered for free, and only the *unique* misses fan
    /// out over `pool` — one GRAPE solve per distinct key, exactly-once under
    /// any concurrency via the existing [`OnceLock`] slots. Values are
    /// bit-identical to sequential
    /// [`aggregate_latency`](LatencyModel::aggregate_latency) calls: same
    /// keys, same slots, same deterministic solves.
    fn aggregate_latency_batch(&self, queries: &[&[Instruction]], pool: &ThreadPool) -> Vec<f64> {
        self.queries.fetch_add(queries.len(), Ordering::Relaxed);
        let slots: Vec<Arc<OnceLock<f64>>> = queries
            .iter()
            .map(|q| self.cache.slot(self.cache_key(q)))
            .collect();
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
        self.key_prefix.clone()
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
    }

    #[test]
    fn isa_latency_delegates_to_calibrated_model() {
        let model = GrapeLatencyModel::fast_two_qubit();
        let calib = CalibratedLatencyModel::asplos19();
        let cnot = inst(Gate::Cnot, &[0, 1]);
        assert!((model.isa_gate_latency(&cnot) - calib.isa_gate_latency(&cnot)).abs() < 1e-12);
        assert_eq!(model.name(), "grape-xy");
    }

    #[test]
    fn cache_key_preserves_gate_order() {
        // X·H ≠ H·X: the two orders are different target unitaries and must
        // not collide in the cache (the old key sorted constituents).
        let xh = [inst(Gate::X, &[0]), inst(Gate::H, &[0])];
        let hx = [inst(Gate::H, &[0]), inst(Gate::X, &[0])];
        let keyer = GrapeLatencyModel::fast_two_qubit();
        assert_ne!(keyer.cache_key(&xh), keyer.cache_key(&hx));
        let (u_xh, _) = GrapeLatencyModel::target_unitary(&xh);
        let (u_hx, _) = GrapeLatencyModel::target_unitary(&hx);
        assert!(!u_xh.approx_eq_up_to_phase(&u_hx, 1e-9));

        // Rotation angles that differ in any bit must key separately (the
        // byte key embeds the raw f64 bit pattern).
        assert_ne!(
            keyer.cache_key(&[inst(Gate::Rz(0.40001), &[0])]),
            keyer.cache_key(&[inst(Gate::Rz(0.40004), &[0])])
        );

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
    fn cache_keys_diverge_across_solver_configurations() {
        // Two models that could price the same instruction differently —
        // different control limits, or different GRAPE settings — must never
        // share a key, or a snapshot written by one would warm-start the
        // other with the wrong latencies.
        let query = [inst(Gate::X, &[0]), inst(Gate::H, &[0])];
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
        assert_ne!(base.cache_key(&query), fast_limits.cache_key(&query));
        assert_ne!(base.cache_key(&query), deeper.cache_key(&query));
        assert_ne!(base.cache_key(&query), wider.cache_key(&query));
        // Identically configured models agree — the prefix is a pure function
        // of configuration, so persistent caches can share keys across runs.
        assert_eq!(
            base.cache_key(&query),
            GrapeLatencyModel::fast_two_qubit().cache_key(&query)
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
