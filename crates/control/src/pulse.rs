//! Piecewise-constant pulse programs.

use crate::hamiltonian::{ControlKind, StepPropagator, TransmonSystem};
use qcc_math::{with_storage, CMatrix, MatrixStorage};
use serde::{Deserialize, Serialize};

/// A pulse program: amplitudes (GHz) for every control field over a sequence
/// of equal time steps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PulseProgram {
    /// Time-step duration in ns.
    pub dt: f64,
    /// Control labels, one per column.
    pub labels: Vec<String>,
    /// Amplitude limits per control, GHz.
    pub limits: Vec<f64>,
    /// `amplitudes[step][control]` in GHz.
    pub amplitudes: Vec<Vec<f64>>,
}

impl PulseProgram {
    /// Creates an all-zero pulse for the given system.
    pub fn zeros(system: &TransmonSystem, n_steps: usize, dt: f64) -> Self {
        Self {
            dt,
            labels: system
                .controls()
                .iter()
                .map(|(k, _, _)| k.label())
                .collect(),
            limits: system.controls().iter().map(|(_, _, l)| *l).collect(),
            amplitudes: vec![vec![0.0; system.n_controls()]; n_steps],
        }
    }

    /// Number of time steps.
    pub fn n_steps(&self) -> usize {
        self.amplitudes.len()
    }

    /// Number of control fields.
    pub fn n_controls(&self) -> usize {
        self.limits.len()
    }

    /// Total duration in ns.
    pub fn duration(&self) -> f64 {
        self.dt * self.n_steps() as f64
    }

    /// Clamps every amplitude to its control's limit.
    pub fn clip_to_limits(&mut self) {
        for step in &mut self.amplitudes {
            for (u, &lim) in step.iter_mut().zip(self.limits.iter()) {
                *u = u.clamp(-lim, lim);
            }
        }
    }

    /// Maximum absolute amplitude over the whole program, per control.
    pub fn peak_amplitudes(&self) -> Vec<f64> {
        let mut peaks = vec![0.0f64; self.n_controls()];
        for step in &self.amplitudes {
            for (p, u) in peaks.iter_mut().zip(step.iter()) {
                *p = p.max(u.abs());
            }
        }
        peaks
    }

    /// Whether every sample respects its amplitude limit (within `tol`).
    pub fn respects_limits(&self, tol: f64) -> bool {
        self.peak_amplitudes()
            .iter()
            .zip(self.limits.iter())
            .all(|(p, l)| *p <= *l + tol)
    }

    /// The exact propagator `U_N ⋯ U_2·U_1` generated by this pulse on the
    /// given system, where `U_j = exp(-i·2π·dt·H(u_j))`: the `2π` turns
    /// amplitudes in GHz and times in ns into phase. This is how pulses are
    /// verified against their target unitaries (§3.6).
    ///
    /// # Panics
    ///
    /// Panics if a step's amplitude count differs from the system's control
    /// count.
    pub fn propagator(&self, system: &TransmonSystem) -> CMatrix {
        with_storage!(system.dim(), M => self.propagator_in::<M>(system))
    }

    /// [`propagator`](Self::propagator) in storage `M`, multiplying each
    /// step onto the running product from the identity.
    fn propagator_in<M: MatrixStorage>(&self, system: &TransmonSystem) -> CMatrix {
        let mut steps = StepPropagator::<M>::new(system);
        let two_pi_dt = 2.0 * std::f64::consts::PI * self.dt;
        let mut u = M::identity(system.dim());
        let (mut step, mut next) = (M::default(), M::default());
        for amplitudes in &self.amplitudes {
            steps.propagator_into(amplitudes, two_pi_dt, &mut step);
            step.matmul_into(&u, &mut next);
            std::mem::swap(&mut u, &mut next);
        }
        u.to_cmatrix()
    }

    /// Serializes the pulse as CSV (`time_ns,label1,label2,…`) for plotting,
    /// mirroring the pulse plots of Fig. 4(c)/(d).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("time_ns");
        for l in &self.labels {
            out.push(',');
            out.push_str(l);
        }
        out.push('\n');
        for (i, step) in self.amplitudes.iter().enumerate() {
            out.push_str(&format!("{:.3}", i as f64 * self.dt));
            for u in step {
                out.push_str(&format!(",{u:.6}"));
            }
            out.push('\n');
        }
        out
    }

    /// Index of the control with the given kind label, if present.
    pub fn control_index(&self, kind: &ControlKind) -> Option<usize> {
        let label = kind.label();
        self.labels.iter().position(|l| *l == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_hw::ControlLimits;
    use qcc_math::{gate_fidelity, pauli};
    use std::f64::consts::PI;

    fn two_qubit_system() -> TransmonSystem {
        TransmonSystem::new(2, &[(0, 1)], ControlLimits::asplos19())
    }

    #[test]
    fn zero_pulse_shape() {
        let sys = two_qubit_system();
        let p = PulseProgram::zeros(&sys, 20, 0.5);
        assert_eq!(p.n_steps(), 20);
        assert_eq!(p.n_controls(), 5);
        assert!((p.duration() - 10.0).abs() < 1e-12);
        assert!(p.respects_limits(0.0));
        assert!(p.propagator(&sys).is_identity(1e-12));
    }

    #[test]
    fn constant_x_drive_produces_rotation() {
        // Driving σx/2 with amplitude Ω for time t rotates by θ = 2π·Ω·t.
        let sys = TransmonSystem::new(1, &[], ControlLimits::asplos19());
        let omega = 0.1; // GHz
        let t_total = 2.5; // ns -> θ = 2π·0.25 = π/2
        let steps = 50;
        let mut p = PulseProgram::zeros(&sys, steps, t_total / steps as f64);
        let x = p.control_index(&ControlKind::DriveX(0)).expect("x drive");
        for step in &mut p.amplitudes {
            step[x] = omega;
        }
        let want = pauli::rx(2.0 * PI * omega * t_total);
        assert!(gate_fidelity(&p.propagator(&sys), &want) > 1.0 - 1e-9);
    }

    #[test]
    fn xy_coupling_produces_iswap() {
        // H = u·(XX+YY)/2, with ∫u dt = 1/4 (in cycles) giving iSWAP.
        let sys = two_qubit_system();
        let u_max = 0.02; // GHz, the paper's two-qubit drive limit
        let t_total = 12.5; // ns ⇒ 2π·0.02·12.5 = π/2 rotation of the XY block
        let steps = 100;
        let mut p = PulseProgram::zeros(&sys, steps, t_total / steps as f64);
        let xy = p
            .control_index(&ControlKind::Coupling(0, 1))
            .expect("coupling");
        // A negative drive of the XY term generates iSWAP (a positive one
        // generates iSWAP†); either way the magnitude stays within the limit.
        for step in &mut p.amplitudes {
            step[xy] = -u_max;
        }
        let fid = gate_fidelity(&p.propagator(&sys), &pauli::iswap());
        assert!(fid > 1.0 - 1e-6, "fidelity {fid}");
    }

    #[test]
    fn propagator_is_unitary_for_random_pulse() {
        for n_qubits in 1..=4 {
            let sys = TransmonSystem::fully_coupled(n_qubits, ControlLimits::asplos19());
            let mut p = PulseProgram::zeros(&sys, 20, 0.5);
            for (i, step) in p.amplitudes.iter_mut().enumerate() {
                for (k, u) in step.iter_mut().enumerate() {
                    *u = 0.05 * (((i + k) % 5) as f64 - 2.0);
                }
            }
            assert!(p.propagator(&sys).is_unitary(1e-9), "{n_qubits} qubits");
        }
    }

    #[test]
    #[should_panic(expected = "amplitude count")]
    fn mismatched_amplitudes_panic() {
        let sys = TransmonSystem::new(1, &[], ControlLimits::asplos19());
        let mut p = PulseProgram::zeros(&sys, 3, 0.5);
        p.amplitudes[1].push(0.1);
        p.propagator(&sys);
    }

    #[test]
    fn clipping_enforces_limits() {
        let sys = two_qubit_system();
        let mut p = PulseProgram::zeros(&sys, 5, 0.5);
        for step in &mut p.amplitudes {
            for u in step.iter_mut() {
                *u = 10.0;
            }
        }
        assert!(!p.respects_limits(1e-9));
        p.clip_to_limits();
        assert!(p.respects_limits(1e-9));
        let peaks = p.peak_amplitudes();
        assert!((peaks[0] - 0.1).abs() < 1e-12); // single-qubit drive limit
        assert!((peaks[4] - 0.02).abs() < 1e-12); // coupling limit
    }

    #[test]
    fn csv_contains_all_columns() {
        let sys = two_qubit_system();
        let p = PulseProgram::zeros(&sys, 3, 1.0);
        let csv = p.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.contains("mu_x[0]"));
        assert!(header.contains("mu_xx+yy[0,1]"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn control_index_lookup() {
        let sys = two_qubit_system();
        let p = PulseProgram::zeros(&sys, 1, 1.0);
        assert_eq!(p.control_index(&ControlKind::DriveX(0)), Some(0));
        assert_eq!(p.control_index(&ControlKind::Coupling(0, 1)), Some(4));
        assert_eq!(p.control_index(&ControlKind::Coupling(1, 0)), None);
    }
}
