//! # qcc-core
//!
//! The aggregated-instruction quantum compiler — a from-scratch implementation
//! of *Optimized Compilation of Aggregated Instructions for Realistic Quantum
//! Computers* (Shi et al., ASPLOS 2019).
//!
//! The pipeline mirrors the right-hand side of the paper's Fig. 5:
//!
//! 1. [`frontend`] — flattening to the 1-/2-qubit virtual ISA and detection of
//!    commuting diagonal blocks (CNOT–Rz–CNOT structures, §3.3.1/§4.2);
//! 2. [`cls`] — commutativity-aware logical scheduling (Algorithm 1, §3.3.2);
//! 3. [`mapping`] — qubit placement by recursive interaction-graph bisection
//!    and SWAP insertion for nearest-neighbour devices (§3.4.1);
//! 4. [`aggregate`] — monotonic-action instruction aggregation iterating with a
//!    latency model / the optimal-control unit (§4.1, §4.3);
//! 5. [`pipeline`] — the strategy matrix of the evaluation (ISA baseline, CLS,
//!    Aggregation, CLS+Aggregation, CLS+hand-optimization);
//! 6. [`verify`] — circuit-level and pulse-level verification (§3.6).
//!
//! Each stage is exposed as a composable [`passes::Pass`]; a [`Strategy`] is a
//! preset recipe over those passes ([`Strategy::pipeline`]), custom orders are
//! assembled with [`passes::PipelineBuilder`], and batches of circuits go
//! through the [`CompileService`] front door (or [`Compiler::compile_batch`]).
//!
//! ## Example
//!
//! ```
//! use qcc_core::{compile_with_default_model, CompilerOptions, Strategy};
//! use qcc_hw::Device;
//! use qcc_ir::{Circuit, Gate};
//!
//! // A toy QAOA-style block.
//! let mut circuit = Circuit::new(2);
//! circuit.push(Gate::H, &[0]);
//! circuit.push(Gate::Cnot, &[0, 1]);
//! circuit.push(Gate::Rz(1.2), &[1]);
//! circuit.push(Gate::Cnot, &[0, 1]);
//!
//! let device = Device::transmon_line(2);
//! let baseline = compile_with_default_model(
//!     &circuit, &device, &CompilerOptions::strategy(Strategy::IsaBaseline));
//! let aggregated = compile_with_default_model(
//!     &circuit, &device, &CompilerOptions::strategy(Strategy::ClsAggregation));
//! assert!(aggregated.total_latency_ns < baseline.total_latency_ns);
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod cls;
pub mod frontend;
pub mod handopt;
pub mod instr;
pub mod mapping;
pub mod passes;
pub mod persist;
pub mod pipeline;
pub mod schedule;
pub mod service;
pub mod verify;

pub use aggregate::{AggregationOptions, AggregationStats};
pub use instr::{AggregateInstruction, InstructionOrigin};
pub use mapping::Layout;
pub use passes::{
    CompileError, GatePricing, Pass, PassContext, PassReport, PassState, Pipeline, PipelineBuilder,
};
// Re-exported so `PassReport::pricing` consumers need no direct qcc-hw dep.
pub use persist::{cache_dir_from, cache_dir_from_env, decode_result, encode_result};
pub use pipeline::{
    CompilationResult, Compiler, CompilerOptions, ParseStrategyError, Strategy, StrategyComparison,
};
pub use qcc_hw::{PersistError, PersistentCache, PricingStats};
pub use schedule::{asap_schedule, Schedule, ScheduledInstruction};
pub use service::queue::{
    PassProgress, Priority, ServeConfig, ServeHandle, ServiceError, SubmitOptions, Ticket,
    DEFAULT_STAGE_CAPACITY,
};
pub use service::{
    compile_with_default_model, CachePolicy, CompileCacheStats, CompileService,
    DEFAULT_COMPILE_CACHE_CAPACITY,
};
pub use verify::{verify_compilation, verify_sampled_pulses, CircuitVerification, VerifyError};
