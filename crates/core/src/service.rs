//! The serving front door: an owning [`CompileService`] around the borrowing
//! [`Compiler`] with a bounded compile-result cache, plus the shared
//! default-model cache behind [`compile_with_default_model`].
//!
//! Streaming (async-style) serving — bounded admission queue, priorities,
//! deadlines, per-pass progress — lives in the [`queue`] submodule and is
//! entered through [`CompileService::serve`].

pub mod queue;

use crate::passes::{catch_panic, CompileError};
use crate::persist::{self, COMPILE_SNAPSHOT_KIND};
use crate::pipeline::{CompilationResult, Compiler, CompilerOptions};
use qcc_hw::persist::{fnv64, hex16, SnapshotWriter, SNAPSHOT_EXTENSION};
use qcc_hw::{CalibratedLatencyModel, ControlLimits, Device, LatencyModel, PersistError};
use qcc_ir::{ByteCursor, Circuit, DecodeError};
use queue::{ServeConfig, ServeHandle};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use threadpool::ThreadPool;

/// Default capacity (in cached results) of the service's compile cache.
pub const DEFAULT_COMPILE_CACHE_CAPACITY: usize = 64;

/// Size of the SHiP signature counter table (a power of two; signatures are
/// hashed into it). 1024 two-bit-ish counters cover far more distinct request
/// signatures than any bounded result cache holds.
const SHCT_SIZE: usize = 1024;

/// Saturation ceiling of one signature counter.
const SHCT_MAX: u8 = 7;

/// Eviction policy of the service's compile-result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Signature-based Hit Predictor (SHiP-style) insertion: each request
    /// signature — the FNV-1a hash of the (service fingerprint, circuit,
    /// strategy, aggregation options) cache key — has a saturating reuse
    /// counter, trained by observed outcomes (hit ⇒ increment, evicted
    /// without reuse ⇒ decrement). New entries whose signature has never
    /// shown reuse are inserted *at the eviction position*, so a stream of
    /// one-shot fillers churns through a single slot instead of flushing the
    /// hot working set; predicted-reuse entries insert at MRU as usual.
    #[default]
    Ship,
    /// Plain least-recently-used insertion/eviction (every insert at MRU) —
    /// the pre-SHiP behavior, kept for comparison benches and regression
    /// tests.
    PlainLru,
}

/// Summary of the service's compile-cache and request-queue activity, for
/// telemetry and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileCacheStats {
    /// Requests answered from the cache.
    pub hits: usize,
    /// Requests that had to compile.
    pub misses: usize,
    /// Results currently cached.
    pub entries: usize,
    /// Requests accepted by the service (cache hits included), across both
    /// the synchronous entry points and serving sessions.
    pub submitted: usize,
    /// Requests that ran to completion (successful compiles, cache hits, and
    /// compile errors alike). Deadline-cancelled requests count under
    /// [`deadline_expired`](Self::deadline_expired) instead, so the terminal
    /// outcomes of admitted requests partition as
    /// `submitted == completed + deadline_expired` once a session drains.
    pub completed: usize,
    /// Requests rejected with [`queue::ServiceError::QueueFull`] because the
    /// bounded admission queue was at capacity.
    pub rejected: usize,
    /// Requests cancelled mid-pipeline because their deadline lapsed.
    pub deadline_expired: usize,
    /// Inserts whose signature predicted reuse (placed at MRU). Always zero
    /// under [`CachePolicy::PlainLru`].
    pub predicted_reuse: usize,
    /// Inserts whose signature predicted no reuse (placed at the eviction
    /// position). Always zero under [`CachePolicy::PlainLru`].
    pub predicted_one_shot: usize,
    /// Signature counters currently holding a positive reuse prediction —
    /// the footprint of what the predictor has learned.
    pub trained_signatures: usize,
}

/// Lifetime request counters of one service, shared by the synchronous entry
/// points and every serving session.
#[derive(Default)]
struct ServiceCounters {
    submitted: AtomicUsize,
    completed: AtomicUsize,
    rejected: AtomicUsize,
    deadline_expired: AtomicUsize,
}

/// One cached result plus the metadata the SHiP predictor trains on.
struct CacheEntry {
    result: Arc<CompilationResult>,
    /// SHiP signature of the request key (FNV-1a 64 of the key bytes).
    signature: u64,
    /// Whether the entry has been hit since insertion — the outcome bit that
    /// trains the signature counter at eviction time.
    referenced: bool,
}

/// A bounded cache of compilation results keyed by the request fingerprint
/// (service identity + circuit byte encoding + strategy recipe + aggregation
/// options). Compilation is deterministic, so serving a cached clone is
/// indistinguishable from recompiling — repeated batch traffic skips the
/// whole pipeline.
///
/// Under the default [`CachePolicy::Ship`], eviction is reuse-predicted: see
/// the policy docs. The recency list plus the signature counter table are
/// both guarded by one mutex, so training and eviction decisions are
/// race-free.
struct CompileCache {
    capacity: usize,
    policy: CachePolicy,
    entries: Mutex<CacheEntries>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

#[derive(Default)]
struct CacheEntries {
    map: HashMap<Vec<u8>, CacheEntry>,
    /// Keys in least-recently-used-first order (front = next victim).
    lru: VecDeque<Vec<u8>>,
    /// SHiP signature counter table, indexed by `signature % SHCT_SIZE`.
    /// Zero-initialized: a signature predicts reuse only after at least one
    /// observed hit.
    shct: Vec<u8>,
    /// Lifetime count of inserts predicted to be reused.
    predicted_reuse: usize,
    /// Lifetime count of inserts predicted to be one-shot.
    predicted_one_shot: usize,
}

impl CacheEntries {
    fn counter(&mut self, signature: u64) -> &mut u8 {
        if self.shct.is_empty() {
            self.shct = vec![0; SHCT_SIZE];
        }
        &mut self.shct[(signature as usize) % SHCT_SIZE]
    }
}

/// The SHiP signature of a request key.
fn ship_signature(key: &[u8]) -> u64 {
    fnv64(key)
}

impl CompileCache {
    fn new(capacity: usize, policy: CachePolicy) -> Self {
        Self {
            capacity,
            policy,
            entries: Mutex::new(CacheEntries::default()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn get(&self, key: &[u8]) -> Option<Arc<CompilationResult>> {
        let mut entries = self.entries.lock().expect("compile cache poisoned");
        match entries.map.get_mut(key) {
            Some(entry) => {
                let result = entry.result.clone();
                let signature = entry.signature;
                entry.referenced = true;
                if self.policy == CachePolicy::Ship {
                    // Observed reuse: this signature earns a stronger
                    // keep-prediction for its future inserts.
                    let counter = entries.counter(signature);
                    *counter = (*counter + 1).min(SHCT_MAX);
                }
                // Touch: move the key to the most-recently-used end.
                if let Some(pos) = entries.lru.iter().position(|k| k == key) {
                    let k = entries.lru.remove(pos).expect("position just found");
                    entries.lru.push_back(k);
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(result)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, key: Vec<u8>, result: Arc<CompilationResult>) {
        let mut entries = self.entries.lock().expect("compile cache poisoned");
        let signature = ship_signature(&key);
        if let Some(existing) = entries.map.get_mut(&key) {
            existing.result = result;
            return;
        }
        match self.policy {
            CachePolicy::Ship => {
                // Evict *before* inserting, so the placement of the new entry
                // (front for predicted one-shots) survives the insert — the
                // victim is always the current front, and an unreferenced
                // victim votes its signature down.
                while entries.map.len() >= self.capacity {
                    let Some(victim_key) = entries.lru.pop_front() else {
                        break;
                    };
                    if let Some(victim) = entries.map.remove(&victim_key) {
                        if !victim.referenced {
                            let counter = entries.counter(victim.signature);
                            *counter = counter.saturating_sub(1);
                        }
                    }
                }
                let predicted_reuse = *entries.counter(signature) > 0;
                if predicted_reuse {
                    entries.predicted_reuse += 1;
                    entries.lru.push_back(key.clone());
                } else {
                    entries.predicted_one_shot += 1;
                    entries.lru.push_front(key.clone());
                }
                entries.map.insert(
                    key,
                    CacheEntry {
                        result,
                        signature,
                        referenced: false,
                    },
                );
            }
            CachePolicy::PlainLru => {
                entries.lru.push_back(key.clone());
                entries.map.insert(
                    key,
                    CacheEntry {
                        result,
                        signature,
                        referenced: false,
                    },
                );
                while entries.map.len() > self.capacity {
                    let Some(oldest) = entries.lru.pop_front() else {
                        break;
                    };
                    entries.map.remove(&oldest);
                }
            }
        }
    }

    /// Seeds one entry from a snapshot: placed at MRU in load order, outcome
    /// bit clear, no predictor training and no hit/miss accounting. Loading
    /// respects the capacity bound by evicting silently (callers feed
    /// most-recent-last, so the survivors are the most recent entries).
    fn seed(&self, key: Vec<u8>, result: Arc<CompilationResult>) {
        let mut entries = self.entries.lock().expect("compile cache poisoned");
        let signature = ship_signature(&key);
        if entries.map.contains_key(&key) {
            return;
        }
        entries.lru.push_back(key.clone());
        entries.map.insert(
            key,
            CacheEntry {
                result,
                signature,
                referenced: false,
            },
        );
        while entries.map.len() > self.capacity {
            let Some(oldest) = entries.lru.pop_front() else {
                break;
            };
            entries.map.remove(&oldest);
        }
    }

    /// Every cached (key, result) pair in least-recently-used-first order —
    /// the order snapshots are written in, so a warm start (which seeds in
    /// file order) reproduces the recency order.
    fn entries_lru_first(&self) -> Vec<(Vec<u8>, Arc<CompilationResult>)> {
        let entries = self.entries.lock().expect("compile cache poisoned");
        entries
            .lru
            .iter()
            .filter_map(|k| entries.map.get(k).map(|e| (k.clone(), e.result.clone())))
            .collect()
    }

    fn stats(&self) -> CompileCacheStats {
        let entries = self.entries.lock().expect("compile cache poisoned");
        CompileCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: entries.map.len(),
            predicted_reuse: entries.predicted_reuse,
            predicted_one_shot: entries.predicted_one_shot,
            trained_signatures: entries.shct.iter().filter(|&&c| c > 0).count(),
            ..CompileCacheStats::default()
        }
    }
}

/// Injective fingerprint of one compile request: the identity of the service
/// answering it (`target` — device encoding plus model name, length-prefixed
/// so the key stream stays prefix-free), the circuit's byte encoding, and
/// every option that can change the output (strategy recipe, aggregation
/// limits). The same circuit on two targets is therefore two keys.
fn request_fingerprint(target: &[u8], circuit: &Circuit, options: &CompilerOptions) -> Vec<u8> {
    let mut key = Vec::with_capacity(target.len() + circuit.len() * 20 + 72);
    key.extend_from_slice(&(target.len() as u64).to_le_bytes());
    key.extend_from_slice(target);
    key.extend_from_slice(&(circuit.n_qubits() as u64).to_le_bytes());
    for inst in circuit.instructions() {
        inst.encode_into(&mut key);
    }
    // Strategy names are unique per variant; terminate to keep the stream
    // prefix-free against the options that follow.
    key.extend_from_slice(options.strategy.name().as_bytes());
    key.push(0);
    let agg = &options.aggregation;
    key.extend_from_slice(&(agg.max_width as u64).to_le_bytes());
    key.extend_from_slice(&(agg.max_gates as u64).to_le_bytes());
    key.extend_from_slice(&(agg.max_merges as u64).to_le_bytes());
    key.push(agg.require_local_gain as u8);
    key.extend_from_slice(&(agg.search_window as u64).to_le_bytes());
    key
}

/// An owning compilation service: device reference, latency model, and thread
/// pool bundled behind one front door.
///
/// [`Compiler`] borrows its model, which is the right shape for benchmarks
/// that manage model lifetimes themselves but awkward for serving: a caller
/// that just wants "compile these circuits on this device" should not have to
/// keep a model alive alongside the compiler. `CompileService` owns the model
/// (constructed **once**, so model-internal caches — e.g. the sharded GRAPE
/// latency cache — stay warm across requests) and exposes the batch and
/// single-circuit entry points.
///
/// On top of the model's latency cache the service keeps a **bounded compile
/// cache**: results keyed by (circuit fingerprint, strategy recipe,
/// aggregation options), LRU-evicted past
/// [`DEFAULT_COMPILE_CACHE_CAPACITY`] entries (tune or disable with
/// [`with_compile_cache`](Self::with_compile_cache)). Compilation is
/// deterministic, so repeated traffic — the common shape of batch serving —
/// skips recompilation entirely and receives bit-identical results.
/// Within one [`compile_batch`](Self::compile_batch) call, duplicate
/// circuits compile once and share the result.
///
/// ```
/// use qcc_core::{CompileService, CompilerOptions, Strategy};
/// use qcc_hw::Device;
/// use qcc_ir::{Circuit, Gate};
///
/// let device = Device::transmon_line(2);
/// let service = CompileService::new(&device);
/// let mut circuit = Circuit::new(2);
/// circuit.push(Gate::H, &[0]);
/// circuit.push(Gate::Cnot, &[0, 1]);
/// let batch = vec![circuit.clone(), circuit];
/// let results = service.compile_batch(&batch, &CompilerOptions::strategy(Strategy::Cls));
/// assert_eq!(results.len(), 2);
/// assert!(results.iter().all(|r| r.is_ok()));
/// // The duplicate was served from one compile.
/// assert_eq!(service.compile_cache_stats().entries, 1);
/// ```
pub struct CompileService<'d> {
    device: &'d Device,
    model: Box<dyn LatencyModel + 'd>,
    pool: ThreadPool,
    cache: CompileCache,
    counters: ServiceCounters,
    /// Identity bytes of the compilation target (device encoding plus model
    /// name), prefixed to every compile-cache key and naming the result
    /// snapshot file.
    fingerprint: Vec<u8>,
}

impl<'d> CompileService<'d> {
    /// A service over the device with the default [`CalibratedLatencyModel`]
    /// for its control limits. The model is built here, once, and serves every
    /// subsequent compile.
    pub fn new(device: &'d Device) -> Self {
        Self::with_model(device, Box::new(CalibratedLatencyModel::new(device.limits)))
    }

    /// A service using a caller-supplied latency model (e.g. the GRAPE
    /// optimal-control unit).
    pub fn with_model(device: &'d Device, model: Box<dyn LatencyModel + 'd>) -> Self {
        // The service is identified by its device encoding + model name.
        let mut fingerprint = Vec::with_capacity(64);
        device.encode_into(&mut fingerprint);
        fingerprint.extend_from_slice(model.name().as_bytes());
        Self {
            device,
            model,
            pool: ThreadPool::with_default_parallelism(),
            cache: CompileCache::new(DEFAULT_COMPILE_CACHE_CAPACITY, CachePolicy::default()),
            counters: ServiceCounters::default(),
            fingerprint,
        }
    }

    /// The cache key of one request against this service's target: service
    /// fingerprint + circuit encoding + options (see [`request_fingerprint`]).
    pub(crate) fn request_key(&self, circuit: &Circuit, options: &CompilerOptions) -> Vec<u8> {
        request_fingerprint(&self.fingerprint, circuit, options)
    }

    /// Sets the number of threads used for batch fan-out and parallel pricing
    /// (1 = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = ThreadPool::new(threads);
        self
    }

    /// Sets the compile-cache capacity in cached results (`0` disables
    /// result caching entirely), discarding anything cached so far. Keeps
    /// the current eviction policy.
    pub fn with_compile_cache(mut self, capacity: usize) -> Self {
        self.cache = CompileCache::new(capacity, self.cache.policy);
        self
    }

    /// Sets both the compile-cache capacity and its eviction policy (see
    /// [`CachePolicy`]), discarding anything cached so far. The default is
    /// [`CachePolicy::Ship`]; [`CachePolicy::PlainLru`] exists for
    /// comparison benches and regression tests.
    pub fn with_compile_cache_policy(mut self, capacity: usize, policy: CachePolicy) -> Self {
        self.cache = CompileCache::new(capacity, policy);
        self
    }

    /// The compile cache's eviction policy.
    pub fn cache_policy(&self) -> CachePolicy {
        self.cache.policy
    }

    /// The fingerprint namespace of this service's persistent result cache:
    /// the compile-key fingerprint (device and model identity) extended with
    /// the latency model's own solver fingerprint when it has a persistent
    /// cache. The extension matters: two services can share a device and
    /// model *name* (hence identical compile-cache key prefixes) while
    /// running differently-configured solvers — their result snapshots must
    /// not interchange.
    fn persist_namespace(&self) -> Vec<u8> {
        let mut namespace = self.fingerprint.clone();
        if let Some(pc) = self.model.persistent_cache() {
            namespace.extend_from_slice(&pc.snapshot_fingerprint());
        }
        namespace
    }

    /// File name of one cache's snapshot inside a snapshot directory:
    /// `<kind>-<hex16(fnv64(namespace))>.qccsnap`. The hash keeps distinct
    /// targets (and distinct solver configurations) in distinct files, so
    /// several services can share one directory.
    fn snapshot_file(dir: &Path, kind: &str, namespace: &[u8]) -> PathBuf {
        dir.join(format!(
            "{kind}-{}.{SNAPSHOT_EXTENSION}",
            hex16(fnv64(namespace))
        ))
    }

    /// Path of this service's compile-result snapshot inside `dir`.
    pub fn result_snapshot_path(&self, dir: &Path) -> PathBuf {
        Self::snapshot_file(dir, COMPILE_SNAPSHOT_KIND, &self.persist_namespace())
    }

    /// Path of the latency model's solve-cache snapshot inside `dir`, when
    /// the model has a persistent cache.
    pub fn model_snapshot_path(&self, dir: &Path) -> Option<PathBuf> {
        self.model
            .persistent_cache()
            .map(|pc| Self::snapshot_file(dir, pc.snapshot_kind(), &pc.snapshot_fingerprint()))
    }

    /// Snapshots this service's persistent caches into `dir` (one file per
    /// cache, atomic write-temp-then-rename): the latency model's solve cache
    /// when the model has one, and the compile-result cache. Returns the
    /// total number of records written. Cached compile *errors* are never
    /// stored (only successful results are cached), and in-flight model
    /// solves are skipped.
    pub fn snapshot_to(&self, dir: &Path) -> Result<usize, PersistError> {
        let mut written = 0;
        if let (Some(pc), Some(path)) =
            (self.model.persistent_cache(), self.model_snapshot_path(dir))
        {
            written += pc.snapshot_to(&path)?;
        }
        let namespace = self.persist_namespace();
        let mut writer = SnapshotWriter::new(COMPILE_SNAPSHOT_KIND, &namespace);
        for (key, result) in self.cache.entries_lru_first() {
            let mut payload = Vec::with_capacity(key.len() + 256);
            payload.extend_from_slice(&(key.len() as u64).to_le_bytes());
            payload.extend_from_slice(&key);
            persist::encode_result(&result, &mut payload);
            writer.record(&payload);
        }
        written += writer.len();
        persist::write_atomic(&self.result_snapshot_path(dir), &writer.finish())?;
        Ok(written)
    }

    /// Warm-starts this service's caches from snapshots in `dir`, strictly:
    /// present-but-bad files (corrupt, truncated, foreign format version,
    /// or written under a different device/calibration fingerprint) are
    /// rejected with a [`PersistError`] naming the mismatch. *Missing* files
    /// are not an error — they are an ordinary cold start and contribute
    /// zero records. Returns the number of records loaded. Loaded results
    /// are bit-identical to what the writing process computed (the codec
    /// round-trips floats by bit pattern), and loading performs no solves
    /// and no predictor training.
    pub fn warm_start_from(&self, dir: &Path) -> Result<usize, PersistError> {
        let mut loaded = 0;
        if let (Some(pc), Some(path)) =
            (self.model.persistent_cache(), self.model_snapshot_path(dir))
        {
            if path.exists() {
                loaded += pc.warm_start_from(&path)?;
            }
        }
        let result_path = self.result_snapshot_path(dir);
        if result_path.exists() {
            let namespace = self.persist_namespace();
            let records = persist::load_records(&result_path, COMPILE_SNAPSHOT_KIND, &namespace)?;
            // Decode everything before seeding anything: a load is
            // all-or-nothing.
            let mut entries = Vec::with_capacity(records.len());
            for payload in &records {
                let mut cur = ByteCursor::new(payload);
                let key_len = cur
                    .len("compile record key length")
                    .map_err(|detail| PersistError::Malformed { detail })?;
                let key = cur
                    .bytes(key_len, "compile record key")
                    .map_err(|detail| PersistError::Malformed { detail })?
                    .to_vec();
                let result = persist::decode_result(&mut cur)
                    .map_err(|detail| PersistError::Malformed { detail })?;
                if !cur.is_empty() {
                    return Err(PersistError::Malformed {
                        detail: DecodeError {
                            what: "compile record (trailing bytes)",
                            offset: cur.offset(),
                        },
                    });
                }
                entries.push((key, result));
            }
            if self.cache.enabled() {
                for (key, result) in entries {
                    self.cache.seed(key, Arc::new(result));
                    loaded += 1;
                }
            }
        }
        Ok(loaded)
    }

    /// Boot-path warm start: like [`warm_start_from`](Self::warm_start_from)
    /// but degrading every failure — bad files included — to a cold start,
    /// never a panic and never a wrong result. Returns the number of records
    /// loaded (zero on any rejection).
    pub fn warm_start_or_cold(&self, dir: &Path) -> usize {
        self.warm_start_from(dir).unwrap_or(0)
    }

    /// Hit/miss/entry counts of the compile cache, plus the service's
    /// lifetime request counters (submitted/completed/rejected/
    /// deadline-expired across every entry point and serving session).
    pub fn compile_cache_stats(&self) -> CompileCacheStats {
        let mut stats = self.cache.stats();
        stats.submitted = self.counters.submitted.load(Ordering::Relaxed);
        stats.completed = self.counters.completed.load(Ordering::Relaxed);
        stats.rejected = self.counters.rejected.load(Ordering::Relaxed);
        stats.deadline_expired = self.counters.deadline_expired.load(Ordering::Relaxed);
        stats
    }

    /// The device this service compiles for.
    pub fn device(&self) -> &Device {
        self.device
    }

    /// A borrowing [`Compiler`] over this service's device, model, and pool —
    /// for APIs the service does not mirror (custom pipelines via
    /// [`Compiler::run_pipeline`], strategy comparisons).
    pub fn compiler(&self) -> Compiler<'_> {
        Compiler::new(self.device, self.model.as_ref()).with_threads(self.pool.threads())
    }

    /// Compiles one circuit, serving a cached result when the identical
    /// request (circuit + options) was compiled before. A panic inside the
    /// compiler (a pass or the latency model) fails only this request with
    /// [`CompileError::Panicked`], and the request still counts as completed.
    pub fn compile(
        &self,
        circuit: &Circuit,
        options: &CompilerOptions,
    ) -> Result<CompilationResult, CompileError> {
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let compile = || catch_panic(|| self.compiler().try_compile(circuit, options));
        if !self.cache.enabled() {
            let result = compile();
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
            return result;
        }
        let key = self.request_key(circuit, options);
        if let Some(hit) = self.cache.get(&key) {
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
            return Ok((*hit).clone());
        }
        let result = compile();
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        let result = result?;
        self.cache.insert(key, Arc::new(result.clone()));
        Ok(result)
    }

    /// Opens a streaming serving session: stage workers spin up, `f` receives
    /// a [`ServeHandle`] to submit/poll/wait requests asynchronously, and
    /// every accepted request is drained before `serve` returns `f`'s result.
    /// See [`queue`] for the full API (priorities, deadlines, backpressure,
    /// per-pass progress).
    pub fn serve<R>(&self, config: ServeConfig, f: impl FnOnce(&ServeHandle<'_, 'd>) -> R) -> R {
        queue::serve(self, config, f)
    }

    /// Compiles a batch of circuits; see [`Compiler::compile_batch`] for the
    /// determinism and thread-budget guarantees (including the shared-cache
    /// warm-up).
    ///
    /// Requests already in the compile cache are answered without compiling,
    /// and duplicate circuits within the batch compile once — both receive
    /// results bit-identical to a fresh compile, because compilation is
    /// deterministic. Per-circuit errors are reported in place, exactly as
    /// [`Compiler::compile_batch`] does.
    pub fn compile_batch(
        &self,
        circuits: &[Circuit],
        options: &CompilerOptions,
    ) -> Vec<Result<CompilationResult, CompileError>> {
        self.counters
            .submitted
            .fetch_add(circuits.len(), Ordering::Relaxed);
        let keys: Vec<Vec<u8>> = circuits
            .iter()
            .map(|c| self.request_key(c, options))
            .collect();
        let mut out: Vec<Option<Result<CompilationResult, CompileError>>> =
            vec![None; circuits.len()];
        // Resolve cache hits; assign every remaining distinct fingerprint one
        // representative index to compile.
        let mut representative: HashMap<&[u8], usize> = HashMap::new();
        let mut to_compile: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if self.cache.enabled() {
                if let Some(hit) = self.cache.get(key) {
                    out[i] = Some(Ok((*hit).clone()));
                    continue;
                }
            }
            if !representative.contains_key(key.as_slice()) {
                representative.insert(key, i);
                to_compile.push(i);
            }
        }
        let unique: Vec<Circuit> = to_compile.iter().map(|&i| circuits[i].clone()).collect();
        let compiled = self.compiler().compile_batch(&unique, options);
        for (&i, result) in to_compile.iter().zip(compiled) {
            if self.cache.enabled() {
                if let Ok(r) = &result {
                    self.cache.insert(keys[i].clone(), Arc::new(r.clone()));
                }
            }
            out[i] = Some(result);
        }
        // Duplicates copy their representative's result.
        for i in 0..circuits.len() {
            if out[i].is_none() {
                out[i] = out[representative[keys[i].as_slice()]].clone();
            }
        }
        self.counters
            .completed
            .fetch_add(circuits.len(), Ordering::Relaxed);
        out.into_iter()
            .map(|r| r.expect("every batch entry resolved"))
            .collect()
    }
}

/// Process-wide cache of default calibrated models, one per distinct
/// [`ControlLimits`]. Entries are leaked intentionally: a process sees a
/// handful of distinct limit sets at most, and `'static` references let every
/// call share one model instead of constructing a fresh one.
fn shared_default_model(limits: ControlLimits) -> &'static CalibratedLatencyModel {
    static MODELS: Mutex<Vec<(ControlLimits, &'static CalibratedLatencyModel)>> =
        Mutex::new(Vec::new());
    let mut models = MODELS.lock().expect("default-model cache poisoned");
    if let Some((_, model)) = models.iter().find(|(l, _)| *l == limits) {
        return model;
    }
    let model: &'static CalibratedLatencyModel =
        Box::leak(Box::new(CalibratedLatencyModel::new(limits)));
    models.push((limits, model));
    model
}

/// Compiles with the default calibrated latency model — the historical
/// convenience entry point for examples and benchmarks.
///
/// The model is served from a process-wide cache keyed by the device's control
/// limits, so repeated calls share one model instance instead of constructing
/// a fresh `CalibratedLatencyModel` per call (the pre-pipeline behavior).
///
/// # Migration
///
/// New code should prefer one of the pass-pipeline front doors:
/// [`CompileService::new`] when you want an owning handle that also serves
/// batches ([`CompileService::compile_batch`]), or [`Compiler::new`] with an
/// explicit model when you manage model lifetimes yourself (required for the
/// GRAPE model, whose cache instrumentation you may want to inspect). This
/// function remains for single-shot convenience and compiles exactly like
/// `CompileService::new(device).compile(..)`.
///
/// # Panics
///
/// Panics if the circuit needs more qubits than the device provides (it wraps
/// [`Compiler::compile`]).
pub fn compile_with_default_model(
    circuit: &Circuit,
    device: &Device,
    options: &CompilerOptions,
) -> CompilationResult {
    let model = shared_default_model(device.limits);
    Compiler::new(device, model).compile(circuit, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Strategy;
    use qcc_ir::Gate;

    fn toy() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cnot, &[0, 1]);
        c.push(Gate::Rz(0.5), &[1]);
        c.push(Gate::Cnot, &[0, 1]);
        c
    }

    #[test]
    fn result_snapshot_file_names_are_stable() {
        // Golden name: the result-snapshot namespace is the service
        // fingerprint (device encoding + model name), and snapshots written
        // by earlier builds are found under this name. A change here strands
        // every existing snapshot: revert it, or bump
        // `qcc_hw::persist::FORMAT_VERSION` deliberately.
        let device = Device::transmon_line(3);
        let dir = Path::new("snapshots");
        assert_eq!(
            CompileService::new(&device).result_snapshot_path(dir),
            dir.join("compile-result-cache-e092319c4185f950.qccsnap")
        );
    }

    #[test]
    fn shared_default_model_is_cached_per_limits() {
        let a = shared_default_model(ControlLimits::asplos19());
        let b = shared_default_model(ControlLimits::asplos19());
        assert!(std::ptr::eq(a, b), "same limits must share one model");
    }

    #[test]
    fn service_matches_the_borrowing_compiler() {
        let device = Device::transmon_line(2);
        let service = CompileService::new(&device);
        let options = CompilerOptions::strategy(Strategy::ClsAggregation);
        let via_service = service.compile(&toy(), &options).unwrap();
        let via_fn = compile_with_default_model(&toy(), &device, &options);
        assert_eq!(
            via_service.total_latency_ns.to_bits(),
            via_fn.total_latency_ns.to_bits()
        );
    }

    #[test]
    fn service_rejects_oversized_circuits_gracefully() {
        let device = Device::transmon_line(2);
        let service = CompileService::new(&device);
        let big = Circuit::new(5);
        let err = service
            .compile(&big, &CompilerOptions::strategy(Strategy::IsaBaseline))
            .unwrap_err();
        assert_eq!(
            err,
            CompileError::DeviceTooSmall {
                needed: 5,
                available: 2
            }
        );
    }

    #[test]
    fn empty_batch_returns_no_results() {
        let device = Device::transmon_line(2);
        let service = CompileService::new(&device);
        assert!(service
            .compile_batch(&[], &CompilerOptions::default())
            .is_empty());
    }

    #[test]
    fn repeated_compiles_hit_the_compile_cache_bit_identically() {
        let device = Device::transmon_line(2);
        let service = CompileService::new(&device);
        let options = CompilerOptions::strategy(Strategy::ClsAggregation);
        let first = service.compile(&toy(), &options).unwrap();
        let second = service.compile(&toy(), &options).unwrap();
        assert_eq!(
            first.total_latency_ns.to_bits(),
            second.total_latency_ns.to_bits()
        );
        assert_eq!(first.instructions, second.instructions);
        let stats = service.compile_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

        // Different options are a different request.
        let other = service
            .compile(&toy(), &CompilerOptions::strategy(Strategy::Cls))
            .unwrap();
        assert!(other.total_latency_ns > 0.0);
        let stats = service.compile_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    fn compile_cache_capacity_bounds_entries_and_zero_disables() {
        let device = Device::transmon_line(3);
        // Pin both policies on the same request stream [k1, k2, k3, k1] at
        // capacity 2 — the divergence is exactly the SHiP win.
        //
        // PlainLru (the pre-SHiP behavior): every insert at MRU, so k3
        // evicts k1 and the final k1 misses again.
        let service =
            CompileService::new(&device).with_compile_cache_policy(2, CachePolicy::PlainLru);
        let compile_n = |service: &CompileService, n: usize| {
            let mut c = Circuit::new(3);
            for q in 0..n {
                c.push(Gate::H, &[q]);
            }
            service
                .compile(&c, &CompilerOptions::strategy(Strategy::IsaBaseline))
                .unwrap();
        };
        for n in [1usize, 2, 3, 1] {
            compile_n(&service, n);
        }
        let stats = service.compile_cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 4);
        assert_eq!((stats.predicted_reuse, stats.predicted_one_shot), (0, 0));

        // Ship (the default): untrained signatures insert at the eviction
        // position, so k3 churns through the front slot — k2 is the victim
        // and the final k1 request hits.
        let service = CompileService::new(&device).with_compile_cache(2);
        assert_eq!(service.cache_policy(), CachePolicy::Ship);
        for n in [1usize, 2, 3, 1] {
            compile_n(&service, n);
        }
        let stats = service.compile_cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.predicted_one_shot, 3);
        // The k1 hit trained its signature.
        assert_eq!(stats.trained_signatures, 1);

        let disabled = CompileService::new(&device).with_compile_cache(0);
        disabled
            .compile(&toy(), &CompilerOptions::default())
            .unwrap();
        disabled
            .compile(&toy(), &CompilerOptions::default())
            .unwrap();
        let stats = disabled.compile_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn batch_dedups_duplicates_and_serves_cache_hits() {
        let device = Device::transmon_line(2);
        let service = CompileService::new(&device);
        let options = CompilerOptions::strategy(Strategy::ClsAggregation);
        let batch = vec![toy(), toy(), toy()];
        let results = service.compile_batch(&batch, &options);
        assert_eq!(results.len(), 3);
        let bits: Vec<u64> = results
            .iter()
            .map(|r| r.as_ref().unwrap().total_latency_ns.to_bits())
            .collect();
        assert!(bits.windows(2).all(|w| w[0] == w[1]));
        // One compile for three identical requests…
        assert_eq!(service.compile_cache_stats().entries, 1);
        // …and a repeat batch is pure cache hits.
        let before = service.compile_cache_stats().hits;
        let again = service.compile_batch(&batch, &options);
        assert_eq!(service.compile_cache_stats().hits, before + 3);
        assert_eq!(
            again[0].as_ref().unwrap().total_latency_ns.to_bits(),
            bits[0]
        );
        // Matches a fresh uncached compile bit-for-bit.
        let fresh = CompileService::new(&device)
            .with_compile_cache(0)
            .compile(&toy(), &options)
            .unwrap();
        assert_eq!(fresh.total_latency_ns.to_bits(), bits[0]);
    }
}
