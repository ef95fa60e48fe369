//! Control Hamiltonians for superconducting transmon systems with XY coupling.
//!
//! The model follows §5.1 of the paper: every qubit has independent x and y
//! microwave drives (limit `5·µ_max`), and every coupled pair has a tunable
//! XY (flip-flop) interaction `(XX + YY)/2` with drive limit `µ_max`.
//! Operating below the transmon anharmonicity keeps leakage negligible, so the
//! system is modelled in the computational subspace.

use qcc_hw::ControlLimits;
use qcc_math::{expm_into, pauli, CMatrix, ExpmWorkspace, MatrixStorage, C64};
use serde::{Deserialize, Serialize};

/// Identifies one control field of a [`TransmonSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlKind {
    /// X drive on a single qubit.
    DriveX(usize),
    /// Y drive on a single qubit.
    DriveY(usize),
    /// XY coupling between two qubits.
    Coupling(usize, usize),
}

impl ControlKind {
    /// Label in the style of the paper's pulse plots (µxi, µix, µxx+yy, …).
    pub fn label(&self) -> String {
        match self {
            ControlKind::DriveX(q) => format!("mu_x[{q}]"),
            ControlKind::DriveY(q) => format!("mu_y[{q}]"),
            ControlKind::Coupling(a, b) => format!("mu_xx+yy[{a},{b}]"),
        }
    }
}

/// A small transmon system: qubits, coupling edges, drift and control
/// operators, and per-control amplitude limits.
#[derive(Debug, Clone)]
pub struct TransmonSystem {
    n_qubits: usize,
    controls: Vec<(ControlKind, CMatrix, f64)>,
    drift: CMatrix,
    limits: ControlLimits,
}

impl TransmonSystem {
    /// Builds the system for `n_qubits` qubits coupled along `edges`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero or larger than 10 (the scalability limit of
    /// the optimal-control unit, §2.5), or if an edge references an unknown
    /// qubit.
    pub fn new(n_qubits: usize, edges: &[(usize, usize)], limits: ControlLimits) -> Self {
        assert!(n_qubits >= 1, "need at least one qubit");
        assert!(
            n_qubits <= 10,
            "optimal control is limited to 10 qubits (got {n_qubits})"
        );
        let dim = 1usize << n_qubits;
        let mut controls = Vec::new();
        for q in 0..n_qubits {
            let sx = pauli::sigma_x().scale_re(0.5).embed(n_qubits, &[q]);
            let sy = pauli::sigma_y().scale_re(0.5).embed(n_qubits, &[q]);
            controls.push((ControlKind::DriveX(q), sx, limits.one_qubit_max_ghz));
            controls.push((ControlKind::DriveY(q), sy, limits.one_qubit_max_ghz));
        }
        for &(a, b) in edges {
            assert!(a < n_qubits && b < n_qubits && a != b, "bad coupling edge");
            let xx = pauli::sigma_x().kron(&pauli::sigma_x());
            let yy = pauli::sigma_y().kron(&pauli::sigma_y());
            let coupling = (&xx + &yy).scale_re(0.5).embed(n_qubits, &[a, b]);
            controls.push((
                ControlKind::Coupling(a, b),
                coupling,
                limits.two_qubit_max_ghz,
            ));
        }
        Self {
            n_qubits,
            controls,
            drift: CMatrix::zeros(dim, dim),
            limits,
        }
    }

    /// System for a fully connected register of `n_qubits` (every pair
    /// coupled). Convenient for aggregated instructions whose qubits are all
    /// mutually adjacent after mapping.
    pub fn fully_coupled(n_qubits: usize, limits: ControlLimits) -> Self {
        let mut edges = Vec::new();
        for a in 0..n_qubits {
            for b in (a + 1)..n_qubits {
                edges.push((a, b));
            }
        }
        Self::new(n_qubits, &edges, limits)
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Hilbert-space dimension.
    pub fn dim(&self) -> usize {
        1usize << self.n_qubits
    }

    /// Number of control fields.
    pub fn n_controls(&self) -> usize {
        self.controls.len()
    }

    /// Drift Hamiltonian (zero in the rotating frame used here).
    pub fn drift(&self) -> &CMatrix {
        &self.drift
    }

    /// Control operators with their identities and amplitude limits.
    pub fn controls(&self) -> &[(ControlKind, CMatrix, f64)] {
        &self.controls
    }

    /// Amplitude limit of control `k` in GHz.
    pub fn limit(&self, k: usize) -> f64 {
        self.controls[k].2
    }

    /// The control limits the system was built with.
    pub fn control_limits(&self) -> &ControlLimits {
        &self.limits
    }

    /// Total Hamiltonian for a vector of control amplitudes (GHz).
    ///
    /// # Panics
    ///
    /// Panics if `amplitudes.len() != n_controls()`.
    pub fn hamiltonian(&self, amplitudes: &[f64]) -> CMatrix {
        let mut h = CMatrix::default();
        let controls = self.controls.iter().map(|(_, op, _)| op);
        hamiltonian_into(&self.drift, controls, amplitudes, &mut h);
        h
    }
}

/// Writes `H = drift + Σ_k u_k·H_k` into `h`, skipping zero amplitudes: the
/// one body of the step Hamiltonian, for either storage.
///
/// # Panics
///
/// Panics if the amplitude and control counts differ.
fn hamiltonian_into<'a, M: MatrixStorage + 'a>(
    drift: &M,
    controls: impl ExactSizeIterator<Item = &'a M>,
    amplitudes: &[f64],
    h: &mut M,
) {
    assert_eq!(amplitudes.len(), controls.len(), "amplitude count");
    h.copy_from(drift);
    for (u, op) in amplitudes.iter().zip(controls) {
        if *u != 0.0 {
            h.add_scaled(op, C64::real(*u));
        }
    }
}

/// A [`TransmonSystem`]'s drift and control operators in storage `M`, with
/// the buffers of one step propagator `exp(-i·2π·dt·H(u))`: the one
/// step-propagator routine, shared by GRAPE and
/// [`PulseProgram::propagator`](crate::PulseProgram::propagator).
#[derive(Debug)]
pub(crate) struct StepPropagator<M> {
    drift: M,
    controls: Vec<M>,
    h: M,
    exponent: M,
    expm: ExpmWorkspace<M>,
}

impl<M: MatrixStorage> StepPropagator<M> {
    /// Copies `system`'s operators into storage `M`.
    ///
    /// # Panics
    ///
    /// Panics if `M` cannot hold `system.dim()`.
    pub(crate) fn new(system: &TransmonSystem) -> Self {
        Self {
            drift: M::from_cmatrix(&system.drift),
            controls: system
                .controls
                .iter()
                .map(|(_, op, _)| M::from_cmatrix(op))
                .collect(),
            h: M::default(),
            exponent: M::default(),
            expm: ExpmWorkspace::new(),
        }
    }

    /// The control operators, in the system's order.
    pub(crate) fn controls(&self) -> &[M] {
        &self.controls
    }

    /// Writes the step propagator `exp(-i·2π·dt·H(u))` for the amplitudes
    /// `u` into `out`, where `two_pi_dt` is `2π·dt`.
    ///
    /// # Panics
    ///
    /// Panics if the amplitude count is wrong or an amplitude is not finite.
    pub(crate) fn propagator_into(&mut self, amplitudes: &[f64], two_pi_dt: f64, out: &mut M) {
        hamiltonian_into(&self.drift, self.controls.iter(), amplitudes, &mut self.h);
        self.exponent.scale_into(&self.h, C64::new(0.0, -two_pi_dt));
        expm_into(&self.exponent, &mut self.expm, out).expect("expm: non-finite input");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_counts() {
        let sys = TransmonSystem::new(3, &[(0, 1), (1, 2)], ControlLimits::asplos19());
        // 2 drives per qubit + 1 coupling per edge.
        assert_eq!(sys.n_controls(), 3 * 2 + 2);
        assert_eq!(sys.dim(), 8);
        assert_eq!(sys.n_qubits(), 3);
    }

    #[test]
    fn limits_match_paper_settings() {
        let sys = TransmonSystem::new(2, &[(0, 1)], ControlLimits::asplos19());
        let one_q_limits: Vec<f64> = sys
            .controls()
            .iter()
            .filter(|(k, _, _)| matches!(k, ControlKind::DriveX(_) | ControlKind::DriveY(_)))
            .map(|(_, _, l)| *l)
            .collect();
        let coupling_limits: Vec<f64> = sys
            .controls()
            .iter()
            .filter(|(k, _, _)| matches!(k, ControlKind::Coupling(_, _)))
            .map(|(_, _, l)| *l)
            .collect();
        assert!(one_q_limits.iter().all(|&l| (l - 0.1).abs() < 1e-12));
        assert!(coupling_limits.iter().all(|&l| (l - 0.02).abs() < 1e-12));
    }

    #[test]
    fn hamiltonian_is_hermitian() {
        let sys = TransmonSystem::fully_coupled(2, ControlLimits::asplos19());
        let amps: Vec<f64> = (0..sys.n_controls())
            .map(|k| 0.01 * (k as f64 + 1.0))
            .collect();
        let h = sys.hamiltonian(&amps);
        assert!(h.is_hermitian(1e-12));
    }

    #[test]
    fn control_labels_are_unique() {
        let sys = TransmonSystem::fully_coupled(3, ControlLimits::asplos19());
        let labels: std::collections::HashSet<String> =
            sys.controls().iter().map(|(k, _, _)| k.label()).collect();
        assert_eq!(labels.len(), sys.n_controls());
    }

    #[test]
    #[should_panic]
    fn too_many_qubits_rejected() {
        TransmonSystem::new(11, &[], ControlLimits::asplos19());
    }
}
