//! # qcc-math
//!
//! Dense complex linear-algebra substrate for the aggregated-instruction
//! quantum compiler. Everything the upper layers need — complex scalars,
//! matrices, LU solves, the Padé matrix exponential, fidelities, Pauli algebra
//! and random unitaries — is implemented here from scratch so the workspace has
//! no external linear-algebra dependency.
//!
//! The crate is deliberately sized for the regime of the ASPLOS'19 paper this
//! workspace reproduces: unitaries of at most ten qubits (1024×1024), dense
//! storage, `f64` precision. Every product is the one scalar loop of
//! [`CMatrix::matmul_into`], or [`CMatrix::apply_gate`] for a gate applied to
//! a running product in the same arithmetic order. Its hot caller is the
//! optimal-control unit, whose products stay at 8×8 or below for every GRAPE
//! model in the workspace (none covers more than three qubits); it goes
//! through an [`ExpmWorkspace`] that reuses the buffers across calls.
//!
//! ## Example
//!
//! ```
//! use qcc_math::{pauli, expm, gate_fidelity};
//!
//! // A π/2 rotation about X, built two ways.
//! let direct = pauli::rx(std::f64::consts::FRAC_PI_2);
//! let via_expm = expm::propagator(&pauli::sigma_x(), std::f64::consts::FRAC_PI_4);
//! assert!(gate_fidelity(&direct, &via_expm) > 1.0 - 1e-12);
//! ```

#![warn(missing_docs)]

pub mod complex;
pub mod expm;
pub mod fidelity;
pub mod linalg;
pub mod matrix;
pub mod pauli;
pub mod random;

pub use complex::{c64, C64};
pub use expm::{expm, expm_with, propagator, try_expm, try_expm_with, ExpmWorkspace};
pub use fidelity::{
    average_gate_fidelity, frobenius_distance, gate_fidelity, gate_infidelity, state_fidelity,
};
pub use linalg::{det, inverse, solve, solve_matrix, LinalgError, LuDecomposition};
pub use matrix::CMatrix;
pub use random::{random_complex_matrix, random_hermitian, random_unitary};
