//! # qcc-hw
//!
//! Hardware models for the aggregated-instruction quantum compiler: physical
//! qubit topologies, superconducting control-field limits (the paper's §5.1
//! settings), physical gate sets per platform (Appendix A), and the latency
//! models that score compiled schedules.
//!
//! ## Example
//!
//! ```
//! use qcc_hw::{Device, Topology, CalibratedLatencyModel, LatencyModel};
//! use qcc_ir::{Gate, Instruction};
//!
//! let device = Device::transmon_grid(30);
//! assert!(device.n_qubits() >= 30);
//!
//! let model = CalibratedLatencyModel::asplos19();
//! let cnot = Instruction::new(Gate::Cnot, vec![0, 1]);
//! assert!(model.isa_gate_latency(&cnot) > 20.0);
//! ```

#![warn(missing_docs)]

pub mod device;
pub mod latency;
pub mod persist;
pub mod topology;

pub use device::{ControlLimits, Device, InteractionType};
pub use latency::{
    interaction_area, CalibratedLatencyModel, GateTimeTable, LatencyModel, PricingStats,
};
pub use persist::{PersistError, PersistentCache};
pub use topology::Topology;
