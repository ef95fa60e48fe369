//! # qcc — aggregated-instruction quantum compiler
//!
//! Umbrella crate re-exporting the whole workspace: a from-scratch Rust
//! reproduction of *Optimized Compilation of Aggregated Instructions for
//! Realistic Quantum Computers* (Shi et al., ASPLOS 2019).
//!
//! The sub-crates are re-exported under short module names:
//!
//! * [`math`] — dense complex linear algebra (matrices, expm, fidelities);
//! * [`graph`] — matchings, recursive-bisection partitioning, graph generators;
//! * [`ir`] — gates, circuits, QASM, commutation analysis;
//! * [`sim`] — state-vector simulation (verification);
//! * [`hw`] — device topologies, control limits, latency models;
//! * [`control`] — the GRAPE optimal-control unit;
//! * [`compiler`] — the aggregated-instruction compilation pipeline itself: a
//!   composable pass pipeline (`compiler::passes`), `Strategy` preset recipes,
//!   and the batch `CompileService` front door;
//! * [`workloads`] — the Table 3 benchmark generators.
//!
//! ## Quick start
//!
//! ```
//! use qcc::compiler::{compile_with_default_model, CompilerOptions, Strategy};
//! use qcc::hw::Device;
//! use qcc::workloads::qaoa;
//!
//! let circuit = qaoa::paper_triangle_example();
//! let device = Device::transmon_line(3);
//! let baseline = compile_with_default_model(
//!     &circuit, &device, &CompilerOptions::strategy(Strategy::IsaBaseline));
//! let aggregated = compile_with_default_model(
//!     &circuit, &device, &CompilerOptions::strategy(Strategy::ClsAggregation));
//! assert!(aggregated.total_latency_ns < baseline.total_latency_ns);
//! ```

#![warn(missing_docs)]

pub use qcc_control as control;
pub use qcc_core as compiler;
pub use qcc_graph as graph;
pub use qcc_hw as hw;
pub use qcc_ir as ir;
pub use qcc_math as math;
pub use qcc_sim as sim;
pub use qcc_workloads as workloads;
