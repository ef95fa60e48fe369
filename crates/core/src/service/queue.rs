//! The asynchronous serving queue: staged pass execution behind a bounded,
//! priority-aware admission queue.
//!
//! [`CompileService::serve`] opens a *serving session*: a set of stage
//! workers (scoped threads — no global registry, no `'static` executor) that
//! stream accepted requests through their strategy's pass pipeline while the
//! caller keeps submitting. The session hands the caller a [`ServeHandle`]
//! with an async-style API:
//!
//! * [`ServeHandle::submit`] enqueues one compile request and returns a
//!   [`Ticket`] immediately — or [`ServiceError::QueueFull`] when the bounded
//!   admission queue is at capacity (**backpressure**: the queue never grows
//!   without bound, callers shed or retry).
//! * [`ServeHandle::poll`] checks a ticket without blocking;
//!   [`ServeHandle::wait`] blocks until the result is ready. Each ticket's
//!   result is claimed exactly once.
//! * [`SubmitOptions`] selects a [`Priority`] class (`Interactive` requests
//!   are always admitted before `Batch` ones; FIFO within a class), an
//!   optional **deadline** (checked between passes — an expired request is
//!   cancelled mid-pipeline and completes with
//!   [`ServiceError::DeadlineExpired`] instead of hogging the stages), and an
//!   optional progress channel that streams one [`PassProgress`] per executed
//!   pass.
//!
//! # Execution model
//!
//! Every accepted request carries its own pipeline (its strategy's recipe)
//! and a cursor. Workers always prefer the **deepest** in-flight stage over
//! admitting new work — draining the pipe before refilling it, which bounds
//! in-flight memory and finishes near-done requests first — and each stage's
//! input queue is bounded: when a hand-off queue is full, the worker keeps
//! the job and runs the next pass itself instead of blocking (stage
//! coupling), so backpressure can never deadlock the worker set. Passes are
//! executed through the same [`Pipeline::run_pass`] as the serial driver,
//! which makes staged output **bit-identical** to [`Compiler::try_compile`]
//! for every strategy — pinned by `tests/staged_service.rs`. A pass or model
//! that panics fails only its own request, with [`CompileError::Panicked`];
//! the worker keeps serving.
//!
//! Results served from the service's compile cache complete at submit time
//! without occupying queue capacity. Session telemetry (submitted, completed,
//! rejected, deadline-expired counts) accumulates on the owning service and
//! is reported by [`CompileService::compile_cache_stats`].
//!
//! [`Compiler::try_compile`]: crate::pipeline::Compiler::try_compile
//!
//! # Example
//!
//! ```
//! use qcc_core::service::queue::{Priority, ServeConfig, SubmitOptions};
//! use qcc_core::{CompileService, CompilerOptions, Strategy};
//! use qcc_hw::Device;
//! use qcc_ir::{Circuit, Gate};
//!
//! let device = Device::transmon_line(2);
//! let service = CompileService::new(&device);
//! let mut circuit = Circuit::new(2);
//! circuit.push(Gate::H, &[0]);
//! circuit.push(Gate::Cnot, &[0, 1]);
//!
//! let result = service.serve(ServeConfig::default(), |handle| {
//!     let ticket = handle
//!         .submit(
//!             &circuit,
//!             &CompilerOptions::strategy(Strategy::Cls),
//!             SubmitOptions::default().priority(Priority::Interactive),
//!         )
//!         .expect("queue has room");
//!     handle.wait(ticket)
//! });
//! assert!(result.unwrap().total_latency_ns > 0.0);
//! ```

use crate::passes::{catch_panic, CompileError, PassContext, PassState, Pipeline};
use crate::pipeline::{finish, CompilationResult, CompilerOptions};
use crate::service::CompileService;
use qcc_ir::Circuit;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use threadpool::{mpmc, ThreadPool};

/// Default capacity of each stage's bounded hand-off queue. Small on
/// purpose: each queued entry holds a full instruction stream, and a deep
/// queue only hides backpressure without adding overlap.
pub const DEFAULT_STAGE_CAPACITY: usize = 4;

/// Priority class of a request: which admission queue it waits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive traffic: always admitted before any queued batch
    /// request (FIFO among interactive requests).
    #[default]
    Interactive,
    /// Throughput traffic: admitted only when no interactive request waits.
    Batch,
}

/// Per-request submission options: priority class, optional deadline, and an
/// optional per-pass progress stream. Construct with
/// [`default()`](Default::default) and the builder methods.
#[derive(Default, Clone)]
pub struct SubmitOptions {
    priority: Priority,
    deadline: Option<Duration>,
    progress: Option<mpmc::Sender<PassProgress>>,
}

impl SubmitOptions {
    /// Sets the priority class (default: [`Priority::Interactive`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Gives the request a deadline relative to submission. The deadline is
    /// checked before every pass: once it lapses, remaining passes are
    /// cancelled and the request completes with
    /// [`ServiceError::DeadlineExpired`].
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Streams one [`PassProgress`] per executed pass into `sender`.
    /// Progress is lossy by design: a full channel drops the event rather
    /// than stalling the stage worker.
    pub fn progress(mut self, sender: mpmc::Sender<PassProgress>) -> Self {
        self.progress = Some(sender);
        self
    }
}

impl fmt::Debug for SubmitOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubmitOptions")
            .field("priority", &self.priority)
            .field("deadline", &self.deadline)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

/// One streamed progress event: the request's ticket plus the report of the
/// pass that just finished (the final event of a request carries its last
/// pass, e.g. `"schedule"`).
#[derive(Debug, Clone)]
pub struct PassProgress {
    /// The request this event belongs to.
    pub ticket: Ticket,
    /// Report of the pass that just ran.
    pub report: crate::passes::PassReport,
}

/// Claim check for a submitted request, redeemed with [`ServeHandle::poll`]
/// or [`ServeHandle::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Error surface of the serving queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded admission queue is at capacity; the request was rejected
    /// (backpressure). Retry later or shed the request.
    QueueFull,
    /// The request's deadline lapsed before its pipeline finished; remaining
    /// passes were cancelled.
    DeadlineExpired,
    /// The compilation itself failed — a panicking pass or model included,
    /// as [`CompileError::Panicked`].
    Compile(CompileError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull => write!(f, "admission queue full, request rejected"),
            ServiceError::DeadlineExpired => {
                write!(f, "deadline expired before compilation finished")
            }
            ServiceError::Compile(e) => write!(f, "compilation failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CompileError> for ServiceError {
    fn from(e: CompileError) -> Self {
        ServiceError::Compile(e)
    }
}

/// Configuration of one serving session ([`CompileService::serve`]).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Capacity of the bounded admission queue (both priority classes
    /// combined). A submit beyond this returns [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Capacity of each stage's bounded hand-off queue. When a stage's queue
    /// is full, the upstream worker runs the next pass itself instead of
    /// queueing (backpressure without blocking).
    pub stage_capacity: usize,
    /// Number of stage worker threads; `0` means the service's thread-pool
    /// size.
    pub workers: usize,
    /// Starts the session with admission paused ([`ServeHandle::resume`]
    /// opens it) — accepted requests queue but none enters the pipeline.
    /// Deterministic-by-construction setup for tests and for pre-loading a
    /// batch before processing starts.
    pub start_paused: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            stage_capacity: DEFAULT_STAGE_CAPACITY,
            workers: 0,
            start_paused: false,
        }
    }
}

/// One in-flight request: its own pipeline (the strategy's recipe), the
/// typed state threaded through the stages, and a cursor marking the next
/// pass to run.
struct Job {
    ticket: u64,
    circuit: Circuit,
    options: CompilerOptions,
    pipeline: Pipeline,
    state: PassState,
    cursor: usize,
    deadline: Option<Instant>,
    progress: Option<mpmc::Sender<PassProgress>>,
    cache_key: Option<Vec<u8>>,
}

/// Engine state behind one mutex: the two admission queues, the per-stage
/// hand-off queues, and the completed-result map.
struct EngineState {
    interactive: VecDeque<Job>,
    batch: VecDeque<Job>,
    /// `stages[i]` holds jobs whose next pass is index `i` of their own
    /// pipeline; grown on demand to the longest submitted recipe.
    stages: Vec<VecDeque<Job>>,
    completed: HashMap<u64, Result<CompilationResult, ServiceError>>,
    /// Requests accepted but not yet completed (queued, staged, or running).
    outstanding: usize,
    next_ticket: u64,
    paused: bool,
    closed: bool,
}

struct Engine {
    state: Mutex<EngineState>,
    /// Signals workers: work available, or shutdown.
    work: Condvar,
    /// Signals waiters: a result completed.
    done: Condvar,
    queue_capacity: usize,
    stage_capacity: usize,
}

impl Engine {
    fn new(config: &ServeConfig) -> Self {
        Self {
            state: Mutex::new(EngineState {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                stages: Vec::new(),
                completed: HashMap::new(),
                outstanding: 0,
                next_ticket: 0,
                paused: config.start_paused,
                closed: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            stage_capacity: config.stage_capacity.max(1),
        }
    }

    fn complete(
        &self,
        st: &mut EngineState,
        ticket: u64,
        result: Result<CompilationResult, ServiceError>,
    ) {
        st.completed.insert(ticket, result);
        st.outstanding -= 1;
        self.done.notify_all();
        // outstanding hitting zero is what lets drained workers exit.
        self.work.notify_all();
    }
}

/// Pops the job closest to completion: deepest non-empty stage first, then —
/// unless paused — the admission queues (interactive before batch).
fn take_next(st: &mut EngineState) -> Option<Job> {
    for stage in st.stages.iter_mut().rev() {
        if let Some(job) = stage.pop_front() {
            return Some(job);
        }
    }
    if st.paused {
        return None;
    }
    st.interactive.pop_front().or_else(|| st.batch.pop_front())
}

/// Caller-side handle of one serving session; see the [module docs](self)
/// for the API walk-through.
pub struct ServeHandle<'a, 'd> {
    service: &'a CompileService<'d>,
    engine: &'a Engine,
}

impl<'a, 'd> ServeHandle<'a, 'd> {
    /// Submits one compile request, returning its [`Ticket`] — or
    /// [`ServiceError::QueueFull`] when the admission queue is at capacity.
    ///
    /// A request answered by the service's compile cache completes
    /// immediately (bit-identical by determinism) without consuming queue
    /// capacity.
    pub fn submit(
        &self,
        circuit: &Circuit,
        options: &CompilerOptions,
        submit: SubmitOptions,
    ) -> Result<Ticket, ServiceError> {
        let cache_key = if self.service.cache.enabled() {
            Some(self.service.request_key(circuit, options))
        } else {
            None
        };
        let mut st = self.engine.state.lock().expect("serve engine poisoned");
        if let Some(key) = &cache_key {
            if let Some(hit) = self.service.cache.get(key) {
                let ticket = st.next_ticket;
                st.next_ticket += 1;
                self.service
                    .counters
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                self.service
                    .counters
                    .completed
                    .fetch_add(1, Ordering::Relaxed);
                st.completed.insert(ticket, Ok((*hit).clone()));
                self.engine.done.notify_all();
                return Ok(Ticket(ticket));
            }
        }
        if st.interactive.len() + st.batch.len() >= self.engine.queue_capacity {
            self.service
                .counters
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::QueueFull);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        self.service
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let pipeline = options.strategy.pipeline();
        if st.stages.len() < pipeline.len() {
            st.stages.resize_with(pipeline.len(), VecDeque::new);
        }
        let job = Job {
            ticket,
            circuit: circuit.clone(),
            options: options.clone(),
            pipeline,
            state: PassState::default(),
            cursor: 0,
            deadline: submit.deadline.map(|d| Instant::now() + d),
            progress: submit.progress,
            cache_key,
        };
        match submit.priority {
            Priority::Interactive => st.interactive.push_back(job),
            Priority::Batch => st.batch.push_back(job),
        }
        st.outstanding += 1;
        self.engine.work.notify_one();
        Ok(Ticket(ticket))
    }

    /// Claims a finished result without blocking; `None` while the request
    /// is still queued or in flight. A result is claimed exactly once —
    /// after a `Some`, further polls of the same ticket return `None`.
    pub fn poll(&self, ticket: Ticket) -> Option<Result<CompilationResult, ServiceError>> {
        self.engine
            .state
            .lock()
            .expect("serve engine poisoned")
            .completed
            .remove(&ticket.0)
    }

    /// Blocks until the request finishes and claims its result.
    ///
    /// Waiting on a ticket whose result was already claimed (or that this
    /// session never issued) would block forever; tickets are meant to be
    /// redeemed exactly once.
    pub fn wait(&self, ticket: Ticket) -> Result<CompilationResult, ServiceError> {
        let mut st = self.engine.state.lock().expect("serve engine poisoned");
        loop {
            if let Some(result) = st.completed.remove(&ticket.0) {
                return result;
            }
            st = self.engine.done.wait(st).expect("serve engine poisoned");
        }
    }

    /// Pauses admission: accepted requests keep queueing, in-flight requests
    /// keep draining, but nothing new enters the pipeline until
    /// [`resume`](Self::resume).
    pub fn pause(&self) {
        self.engine
            .state
            .lock()
            .expect("serve engine poisoned")
            .paused = true;
    }

    /// Reopens admission after [`pause`](Self::pause) (or a
    /// [`ServeConfig::start_paused`] start).
    pub fn resume(&self) {
        self.engine
            .state
            .lock()
            .expect("serve engine poisoned")
            .paused = false;
        self.engine.work.notify_all();
    }

    /// Number of requests currently queued or in flight.
    pub fn outstanding(&self) -> usize {
        self.engine
            .state
            .lock()
            .expect("serve engine poisoned")
            .outstanding
    }
}

/// Runs one serving session: spawns the stage workers, hands the caller a
/// [`ServeHandle`], and — after the closure returns — drains every accepted
/// request before returning (admission is re-opened for the drain if the
/// session was left paused).
pub(crate) fn serve<'d, R>(
    service: &CompileService<'d>,
    config: ServeConfig,
    f: impl FnOnce(&ServeHandle<'_, 'd>) -> R,
) -> R {
    let workers = if config.workers == 0 {
        service.pool.threads()
    } else {
        config.workers
    };
    let engine = Engine::new(&config);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| worker_loop(service, &engine));
        }
        let handle = ServeHandle {
            service,
            engine: &engine,
        };
        let out = f(&handle);
        {
            let mut st = engine.state.lock().expect("serve engine poisoned");
            st.closed = true;
            // Accepted work is always honored: un-pause for the final drain.
            st.paused = false;
        }
        engine.work.notify_all();
        out
    })
}

/// Stage worker: repeatedly claims the deepest available job and advances it.
fn worker_loop(service: &CompileService<'_>, engine: &Engine) {
    loop {
        let job = {
            let mut st = engine.state.lock().expect("serve engine poisoned");
            loop {
                if let Some(job) = take_next(&mut st) {
                    break job;
                }
                if st.closed && st.outstanding == 0 {
                    return;
                }
                st = engine.work.wait(st).expect("serve engine poisoned");
            }
        };
        advance(service, engine, job);
    }
}

/// Advances one job: runs passes from its cursor until it completes, fails,
/// expires, or hands off to a stage queue with room.
fn advance(service: &CompileService<'_>, engine: &Engine, mut job: Job) {
    loop {
        // Deadline gate between passes: cancel instead of burning stages.
        if let Some(deadline) = job.deadline {
            if Instant::now() > deadline {
                service
                    .counters
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                let mut st = engine.state.lock().expect("serve engine poisoned");
                engine.complete(&mut st, job.ticket, Err(ServiceError::DeadlineExpired));
                return;
            }
        }
        if job.cursor == job.pipeline.len() {
            let result = finish(job.state, job.options.strategy, job.circuit.n_qubits());
            if let (Some(key), Ok(r)) = (&job.cache_key, &result) {
                service
                    .cache
                    .insert(key.clone(), std::sync::Arc::new(r.clone()));
            }
            service.counters.completed.fetch_add(1, Ordering::Relaxed);
            let mut st = engine.state.lock().expect("serve engine poisoned");
            engine.complete(&mut st, job.ticket, result.map_err(ServiceError::from));
            return;
        }
        // Stage workers provide the parallelism; each pass runs with a
        // serial pricing pool (results are bit-identical either way).
        let ctx = PassContext::new(
            &job.circuit,
            service.device,
            service.model.as_ref(),
            &job.options,
            ThreadPool::serial(),
        );
        // A panicking pass or model fails this ticket only; the worker lives
        // on to serve the rest of the session.
        let ran = catch_panic(|| job.pipeline.run_pass(job.cursor, &mut job.state, &ctx));
        if let Err(e) = ran {
            service.counters.completed.fetch_add(1, Ordering::Relaxed);
            let mut st = engine.state.lock().expect("serve engine poisoned");
            engine.complete(&mut st, job.ticket, Err(ServiceError::Compile(e)));
            return;
        }
        if let Some(progress) = &job.progress {
            let report = job.state.reports.last().expect("run_pass pushed a report");
            // Lossy on purpose: a slow consumer must not stall the stage.
            let _ = progress.try_send(PassProgress {
                ticket: Ticket(job.ticket),
                report: report.clone(),
            });
        }
        job.cursor += 1;
        if job.cursor < job.pipeline.len() {
            let mut st = engine.state.lock().expect("serve engine poisoned");
            if st.stages[job.cursor].len() < engine.stage_capacity {
                st.stages[job.cursor].push_back(job);
                engine.work.notify_one();
                return;
            }
            // Downstream stage full: keep the job and run the next pass
            // inline — backpressure without blocking (and without deadlock).
        }
    }
}
