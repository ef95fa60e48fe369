//! # qcc-ir
//!
//! The logical quantum intermediate representation of the aggregated-
//! instruction compiler: gates with exact unitaries, circuits, an OpenQASM 2.0
//! subset parser/writer, standard decompositions, Pauli-string rotations and
//! commutation analysis.
//!
//! This crate corresponds to the "QASM / logical assembly" level of the paper's
//! toolflow (Fig. 1, Fig. 5): everything above it (programs) lowers into
//! [`Circuit`]s of 1- and 2-qubit [`Gate`]s, and everything below it (the
//! scheduler, mapper, aggregator and optimal-control unit) consumes them.
//!
//! ## Example
//!
//! ```
//! use qcc_ir::{Circuit, Gate, commute};
//!
//! // The CNOT–Rz–CNOT block of a QAOA circuit is a diagonal unitary …
//! let mut block = Circuit::new(2);
//! block.push(Gate::Cnot, &[0, 1]);
//! block.push(Gate::Rz(0.8), &[1]);
//! block.push(Gate::Cnot, &[0, 1]);
//! let instructions: Vec<_> = block.instructions().iter().collect();
//! assert!(commute::sequence_is_diagonal(&instructions, 2));
//! ```

#![warn(missing_docs)]

pub mod bytes;
pub mod circuit;
pub mod commute;
pub mod decompose;
pub mod gate;
pub mod pauli_rotation;
pub mod qasm;

pub use bytes::{ByteCursor, DecodeError};
pub use circuit::{sequence_unitary, Circuit, Instruction};
pub use commute::{commute as gates_commute, commute_exact, commute_structural};
pub use gate::{AxisAction, Gate};
pub use pauli_rotation::{PauliOp, PauliRotation, PauliString};
pub use qasm::{parse as parse_qasm, write as write_qasm, QasmError};
