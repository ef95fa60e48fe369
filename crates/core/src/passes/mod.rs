//! The composable pass-pipeline API.
//!
//! A compilation is an ordered sequence of [`Pass`]es driven over a shared
//! [`PassState`] (the instruction stream plus everything derived from it) with
//! a read-only [`PassContext`] (device, latency model, options, thread pool).
//! The built-in passes mirror the stages of the paper's Fig. 5 flow:
//!
//! | pass | name | effect on the state |
//! |---|---|---|
//! | [`Flatten`] | `flatten` | lowers the circuit to 1-/2-qubit instructions |
//! | [`DetectDiagonalBlocks`] | `commutativity-detection` | contracts CNOT–Rz–CNOT structures (§3.3.1) |
//! | [`HandOptimize`] | `hand-optimization` | applies the mechanical iSWAP rewrites |
//! | [`Cls`] | `cls` | commutativity-aware logical scheduling (§3.3.2) |
//! | [`Route`] | `route` | maps to physical qubits and inserts SWAPs (§3.4.1) |
//! | [`Aggregate`] | `aggregation` | merges instructions monotonically (§4.3) |
//! | [`FinalCls`] | `final-cls` | reschedules the aggregated instructions (§3.4.2) |
//! | [`Price`] | `price` | fills in per-instruction latencies |
//! | [`AsapSchedule`] | `schedule` | builds the final ASAP schedule |
//!
//! [`Strategy`](crate::pipeline::Strategy) presets are recipes over these
//! passes (see [`Strategy::pipeline`](crate::pipeline::Strategy::pipeline));
//! custom orders are assembled with [`PipelineBuilder`] and run through
//! [`Compiler::run_pipeline`](crate::pipeline::Compiler::run_pipeline).
//!
//! # Example: a custom pipeline the `Strategy` presets cannot express
//!
//! Aggregation *without* routing — score the pure aggregation benefit on
//! logical qubits, before any SWAP insertion (no preset flag combination
//! produces this):
//!
//! ```
//! use qcc_core::passes::{
//!     Aggregate, AsapSchedule, DetectDiagonalBlocks, Flatten, PipelineBuilder, Price,
//! };
//! use qcc_core::pipeline::{Compiler, CompilerOptions};
//! use qcc_hw::{CalibratedLatencyModel, Device};
//! use qcc_ir::{Circuit, Gate};
//!
//! let mut circuit = Circuit::new(3);
//! for &(a, b) in &[(0usize, 1usize), (1, 2), (0, 2)] {
//!     circuit.push(Gate::Cnot, &[a, b]);
//!     circuit.push(Gate::Rz(0.9), &[b]);
//!     circuit.push(Gate::Cnot, &[a, b]);
//! }
//!
//! let pipeline = PipelineBuilder::new()
//!     .add(Flatten)
//!     .add(DetectDiagonalBlocks)
//!     .add(Aggregate)
//!     .add(Price::per_instruction())
//!     .add(AsapSchedule)
//!     .build();
//! assert_eq!(
//!     pipeline.pass_names(),
//!     ["flatten", "commutativity-detection", "aggregation", "price", "schedule"]
//! );
//!
//! let device = Device::transmon_line(3);
//! let model = CalibratedLatencyModel::new(device.limits);
//! let compiler = Compiler::new(&device, &model);
//! let result = compiler
//!     .run_pipeline(&pipeline, &circuit, &CompilerOptions::default())
//!     .unwrap();
//! // No routing ran: nothing inserted SWAPs and the layout is the identity.
//! assert_eq!(result.swap_count, 0);
//! assert!(result.total_latency_ns > 0.0);
//! ```

mod aggregate;
mod cls;
mod detect;
mod flatten;
mod handopt;
mod price;
mod route;
mod schedule;

pub use aggregate::Aggregate;
pub use cls::{Cls, FinalCls};
pub use detect::DetectDiagonalBlocks;
pub use flatten::Flatten;
pub use handopt::HandOptimize;
pub use price::Price;
pub use route::Route;
pub use schedule::AsapSchedule;

use crate::aggregate::AggregationStats;
use crate::instr::AggregateInstruction;
use crate::mapping::Layout;
use crate::pipeline::CompilerOptions;
use crate::schedule::Schedule;
use qcc_hw::{Device, LatencyModel, PricingStats};
use qcc_ir::Circuit;
use std::fmt;
use std::time::{Duration, Instant};

/// Error produced by a pass or by the pipeline driver.
///
/// The built-in `Strategy` recipes never fail on a device large enough for the
/// circuit; errors surface for undersized devices, for custom pipelines
/// assembled in an order that leaves the state incomplete (e.g. scheduling
/// before pricing), and for a pass or latency model that panics inside a
/// batch or serving session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The device has fewer physical qubits than the circuit needs.
    DeviceTooSmall {
        /// Qubits the circuit requires.
        needed: usize,
        /// Qubits the device provides.
        available: usize,
    },
    /// A pass required per-instruction latencies that no earlier pass
    /// produced. Add a [`Price`] (or [`FinalCls`]) pass before it.
    MissingLatencies {
        /// Name of the pass that needed the latencies.
        pass: &'static str,
    },
    /// The pipeline finished without producing a required artifact (the named
    /// pass never ran).
    IncompletePipeline {
        /// Name of the missing stage (`"price"` or `"schedule"`).
        missing: &'static str,
    },
    /// A pass or the latency model panicked. Batches and serving sessions
    /// catch the panic at the request boundary, so it fails this request
    /// only.
    Panicked {
        /// The panic message.
        message: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::DeviceTooSmall { needed, available } => {
                write!(f, "device has {available} qubits, program needs {needed}")
            }
            CompileError::MissingLatencies { pass } => {
                write!(
                    f,
                    "pass '{pass}' needs per-instruction latencies; run a pricing pass first"
                )
            }
            CompileError::IncompletePipeline { missing } => {
                write!(f, "pipeline finished without a '{missing}' stage")
            }
            CompileError::Panicked { message } => write!(f, "compilation panicked: {message}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Runs `f`, turning a panic inside it into [`CompileError::Panicked`]: the
/// request boundary of batches and serving sessions, so one poisoned request
/// fails alone instead of taking its batch or worker down with it.
pub(crate) fn catch_panic<T>(
    f: impl FnOnce() -> Result<T, CompileError>,
) -> Result<T, CompileError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(CompileError::Panicked { message })
    })
}

/// How gates are priced when instructions are *not* compiled into single
/// optimized pulses: the cost of an instruction is the sum of its constituent
/// gate pulses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatePricing {
    /// Standard per-gate ISA pulse costs.
    Isa,
    /// Hand-tuned gate pulses for iSWAP architectures ([39, 48]).
    HandOptimized,
}

/// Read-only context shared by every pass of one compilation: the input
/// circuit, the target device, the latency model, the options, and the thread
/// pool for the embarrassingly-parallel pricing loops.
pub struct PassContext<'a> {
    /// The circuit being compiled.
    pub circuit: &'a Circuit,
    /// The target device.
    pub device: &'a Device,
    /// The latency oracle pricing instructions.
    pub model: &'a dyn LatencyModel,
    /// Compilation options (strategy tag, aggregation limits).
    pub options: &'a CompilerOptions,
    /// The full thread pool of the owning compiler.
    pub pool: threadpool::ThreadPool,
    pricing_pool: threadpool::ThreadPool,
    backend_fingerprint: &'a [u8],
}

impl<'a> PassContext<'a> {
    /// Builds the context for one compilation.
    pub fn new(
        circuit: &'a Circuit,
        device: &'a Device,
        model: &'a dyn LatencyModel,
        options: &'a CompilerOptions,
        pool: threadpool::ThreadPool,
    ) -> Self {
        // Fan per-instruction pricing out over the pool only when the model
        // says a single query is expensive (GRAPE solves); for cheap analytic
        // models the scoped thread spawns would cost more than the loop.
        let pricing_pool = if model.parallel_pricing() {
            pool
        } else {
            threadpool::ThreadPool::serial()
        };
        Self {
            circuit,
            device,
            model,
            options,
            pool,
            pricing_pool,
            backend_fingerprint: &[],
        }
    }

    /// Attaches caller-chosen identity bytes to this context. Nothing in the
    /// library reads the value: every compiler and service builds its
    /// contexts without one, so they carry an empty fingerprint.
    pub fn with_backend_fingerprint(mut self, fingerprint: &'a [u8]) -> Self {
        self.backend_fingerprint = fingerprint;
        self
    }

    /// The bytes set by
    /// [`with_backend_fingerprint`](Self::with_backend_fingerprint), empty by
    /// default.
    pub fn backend_fingerprint(&self) -> &[u8] {
        self.backend_fingerprint
    }

    /// The pool pricing passes should fan out over: the compiler's pool when
    /// the model declares pricing expensive, a serial pool otherwise.
    pub fn pricing_pool(&self) -> &threadpool::ThreadPool {
        &self.pricing_pool
    }

    /// Gate-based price of one instruction (the cost of its constituents as
    /// individual pulses) under the given pricing mode.
    pub fn gate_latency(&self, inst: &AggregateInstruction, pricing: GatePricing) -> f64 {
        match pricing {
            GatePricing::HandOptimized => {
                crate::handopt::hand_latency(inst, self.model, &self.device.limits)
            }
            GatePricing::Isa => inst
                .constituents
                .iter()
                .map(|g| self.model.isa_gate_latency(g))
                .sum(),
        }
    }
}

/// Mutable state threaded through the passes of one compilation.
#[derive(Debug, Default)]
pub struct PassState {
    /// The instruction stream (logical qubits until [`Route`] runs, physical
    /// after).
    pub instructions: Vec<AggregateInstruction>,
    /// Per-instruction latencies in ns, aligned with `instructions`; set by a
    /// pricing pass ([`Price`] or [`FinalCls`]).
    pub latencies: Option<Vec<f64>>,
    /// The final ASAP schedule; set by [`AsapSchedule`].
    pub schedule: Option<Schedule>,
    /// Routing SWAPs inserted so far.
    pub swap_count: usize,
    /// Initial qubit layout; set by [`Route`].
    pub initial_layout: Option<Layout>,
    /// Final qubit layout after routing SWAPs; set by [`Route`].
    pub final_layout: Option<Layout>,
    /// Aggregation statistics; set by [`Aggregate`].
    pub aggregation: AggregationStats,
    /// One report per executed pass, in execution order.
    pub reports: Vec<PassReport>,
}

impl PassState {
    /// Total constituent gates currently in the stream.
    pub fn gate_count(&self) -> usize {
        self.instructions.iter().map(|i| i.gate_count()).sum()
    }

    /// Drops artifacts derived from the instruction stream (latencies,
    /// schedule). Every pass that mutates `instructions` without updating
    /// those artifacts itself must call this, so stale prices from an earlier
    /// pricing pass can never be applied to a reordered or rewritten stream —
    /// a later [`Price`]/[`AsapSchedule`] then recomputes them.
    pub fn invalidate_derived(&mut self) {
        self.latencies = None;
        self.schedule = None;
    }

    /// The latencies, or an error naming the pass that needed them.
    pub fn require_latencies(&self, pass: &'static str) -> Result<&[f64], CompileError> {
        self.latencies
            .as_deref()
            .ok_or(CompileError::MissingLatencies { pass })
    }
}

/// Resolves a pass name read from a serialized [`PassReport`] back to the
/// `&'static str` the in-tree pass of that name uses, or `None` for a name no
/// pass in this build claims (a snapshot from a diverged build — the decoder
/// rejects it rather than inventing an interned string).
pub fn intern_pass_name(name: &str) -> Option<&'static str> {
    const KNOWN: [&str; 9] = [
        "flatten",
        "commutativity-detection",
        "hand-optimization",
        "cls",
        "route",
        "aggregation",
        "final-cls",
        "price",
        "schedule",
    ];
    KNOWN.iter().find(|&&k| k == name).copied()
}

/// Report of one executed pass: the shape of the instruction stream after it
/// ran, and how long it took (the material of Fig. 6, plus serving telemetry).
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// Pass name ([`Pass::name`]).
    pub pass: &'static str,
    /// Number of instructions after the pass.
    pub instructions: usize,
    /// Number of constituent gates after the pass.
    pub gates: usize,
    /// Wall-clock time the pass took.
    pub wall_time: Duration,
    /// Latency-model pricing activity attributable to this pass — queries
    /// answered and actual solves (cache misses) performed while it ran —
    /// when the model instruments its cache
    /// ([`LatencyModel::pricing_stats`]); `None` for uninstrumented models
    /// like the analytic calibrated one. This is where GRAPE solve time
    /// lands in the timing breakdown.
    pub pricing: Option<PricingStats>,
}

/// One stage of the compilation pipeline.
///
/// A pass reads the [`PassContext`], transforms the [`PassState`], and either
/// succeeds or aborts the compilation with a [`CompileError`]. Passes must be
/// deterministic: given the same state and context they must produce the same
/// result regardless of thread count (the pool only distributes *independent*
/// pricing queries).
pub trait Pass: Send + Sync {
    /// Stable name of the pass, used in [`PassReport`]s and error messages.
    fn name(&self) -> &'static str;

    /// Runs the pass over the state.
    fn run(&self, state: &mut PassState, ctx: &PassContext) -> Result<(), CompileError>;
}

/// An immutable, runnable sequence of passes.
///
/// Built from a [`PipelineBuilder`] or a
/// [`Strategy`](crate::pipeline::Strategy) preset; run via
/// [`Compiler::run_pipeline`](crate::pipeline::Compiler::run_pipeline) (or
/// directly with [`Pipeline::run`] when you want the raw [`PassState`]).
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// Starts building a pipeline.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::new()
    }

    /// The names of the passes, in execution order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Number of passes in the pipeline.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the pipeline contains no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Drives every pass over a fresh state, recording a [`PassReport`] (with
    /// wall-clock timing) per pass.
    pub fn run(&self, ctx: &PassContext) -> Result<PassState, CompileError> {
        let mut state = PassState::default();
        for index in 0..self.passes.len() {
            self.run_pass(index, &mut state, ctx)?;
        }
        Ok(state)
    }

    /// Runs the single pass at `index` over `state`, recording its
    /// [`PassReport`] exactly as [`run`](Self::run) does.
    ///
    /// This is the unit of work of the staged serve engine (the
    /// [`service::queue`](crate::service::queue) workers): driving the passes
    /// one index at a time through this method is semantically identical to
    /// one `run` call, so staged output is bit-identical to serial output by
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn run_pass(
        &self,
        index: usize,
        state: &mut PassState,
        ctx: &PassContext,
    ) -> Result<(), CompileError> {
        let pass = &self.passes[index];
        let before = ctx.model.pricing_stats();
        let started = Instant::now();
        pass.run(state, ctx)?;
        let wall_time = started.elapsed();
        // Counter deltas around the pass attribute solve activity to it.
        // (Under concurrent compiles against one shared model the deltas
        // include the other compiles' activity — they are serving
        // telemetry, not an exact per-pass ledger.)
        let pricing = ctx
            .model
            .pricing_stats()
            .map(|after| after.delta_since(&before.unwrap_or_default()));
        state.reports.push(PassReport {
            pass: pass.name(),
            instructions: state.instructions.len(),
            gates: state.gate_count(),
            wall_time,
            pricing,
        });
        Ok(())
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Pipeline").field(&self.pass_names()).finish()
    }
}

/// Builder assembling a [`Pipeline`] pass by pass.
#[derive(Default)]
pub struct PipelineBuilder {
    passes: Vec<Box<dyn Pass>>,
}

impl PipelineBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pass.
    #[allow(clippy::should_implement_trait)] // builder-style append, not ops::Add
    pub fn add(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Appends an already-boxed pass (useful when assembling dynamically).
    pub fn add_boxed(mut self, pass: Box<dyn Pass>) -> Self {
        self.passes.push(pass);
        self
    }

    /// Finishes the pipeline.
    pub fn build(self) -> Pipeline {
        Pipeline {
            passes: self.passes,
        }
    }
}

impl fmt::Debug for PipelineBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&'static str> = self.passes.iter().map(|p| p.name()).collect();
        f.debug_tuple("PipelineBuilder").field(&names).finish()
    }
}
