//! # qcc-sim
//!
//! Verification backend for the aggregated-instruction compiler: a dense
//! state-vector simulator for circuits, which checks a compiled program
//! against its source. With the pulse propagator of `qcc-control`
//! (`PulseProgram::propagator`) it plays the role the QuTiP simulator plays
//! in the paper's toolflow (§3.6).
//!
//! ## Example
//!
//! ```
//! use qcc_ir::{Circuit, Gate};
//! use qcc_sim::StateVector;
//!
//! let mut circuit = Circuit::new(2);
//! circuit.push(Gate::H, &[0]);
//! circuit.push(Gate::Cnot, &[0, 1]);
//! let state = StateVector::zero(2).evolved(&circuit);
//! assert!((state.probabilities()[3] - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod statevector;

pub use statevector::StateVector;
