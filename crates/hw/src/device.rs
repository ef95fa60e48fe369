//! Device models: control-field limits and physical gate sets for the quantum
//! information-processing platforms listed in Appendix A of the paper.

use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// The native two-qubit interaction of a platform (Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InteractionType {
    /// XY (flip-flop) interaction — capacitively coupled transmons; the native
    /// gate is iSWAP. This is the platform the paper evaluates.
    Xy,
    /// ZZ interaction — Josephson flux qubits, NMR; native gate CPhase.
    Zz,
    /// Heisenberg exchange — quantum dots; native gate √SWAP.
    Heisenberg,
    /// Dipole-chain interaction — trapped ions; native gates XX / geometric
    /// phase gates.
    DipoleChain,
}

impl InteractionType {
    /// Canonical name of the native two-qubit gate.
    pub fn native_gate_name(self) -> &'static str {
        match self {
            InteractionType::Xy => "iswap",
            InteractionType::Zz => "cphase",
            InteractionType::Heisenberg => "sqrt_swap",
            InteractionType::DipoleChain => "xx",
        }
    }
}

/// Control-field limits and pulse bookkeeping constants for a device.
///
/// The defaults follow §5.1 of the paper: a two-qubit XY drive limit of
/// `µ_max = 0.02 GHz` and single-qubit drives five times stronger, which keeps
/// transmon leakage low without modelling the third level explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlLimits {
    /// Maximum two-qubit coupling drive amplitude in GHz.
    pub two_qubit_max_ghz: f64,
    /// Maximum single-qubit drive amplitude in GHz.
    pub one_qubit_max_ghz: f64,
    /// Fixed per-instruction pulse overhead in ns (rise/fall, AWG context
    /// switching). Gate-based compilation pays this per gate; aggregated
    /// compilation pays it once per aggregated instruction — one of the two
    /// sources of speedup in the paper's cost structure.
    pub instruction_overhead_ns: f64,
    /// Fraction of single-qubit rotation time that cannot be hidden under the
    /// two-qubit interaction inside an optimized pulse (0 = fully absorbed,
    /// 1 = fully serialized).
    pub single_qubit_overlap: f64,
    /// Time discretization used when emitting pulse programs, ns.
    pub pulse_dt_ns: f64,
}

impl Default for ControlLimits {
    fn default() -> Self {
        Self {
            two_qubit_max_ghz: 0.02,
            one_qubit_max_ghz: 0.10,
            instruction_overhead_ns: 4.0,
            single_qubit_overlap: 0.4,
            pulse_dt_ns: 0.5,
        }
    }
}

impl ControlLimits {
    /// Limits matching the paper's §5.1 settings (same as `Default`).
    pub fn asplos19() -> Self {
        Self::default()
    }

    /// These limits with both drive amplitudes scaled by `factor` — the
    /// one-knob way to model a faster (`factor > 1`) or slower (`factor < 1`)
    /// calibration of the same platform. Overheads and discretization are
    /// left untouched: they are properties of the control electronics, not of
    /// the drive strength.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not a positive finite number.
    pub fn scaled_drives(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "drive scale factor must be positive and finite, got {factor}"
        );
        Self {
            two_qubit_max_ghz: self.two_qubit_max_ghz * factor,
            one_qubit_max_ghz: self.one_qubit_max_ghz * factor,
            ..self
        }
    }

    /// Appends an injective byte encoding of these limits (the raw
    /// `f64::to_bits` patterns of every field) to `out` — the limits' part of
    /// a device fingerprint. Limits differing in any bit encode differently.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [
            self.two_qubit_max_ghz,
            self.one_qubit_max_ghz,
            self.instruction_overhead_ns,
            self.single_qubit_overlap,
            self.pulse_dt_ns,
        ] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Time in ns needed to accumulate `area` radians of two-qubit interaction
    /// phase at the maximum coupling drive.
    pub fn two_qubit_time(&self, area: f64) -> f64 {
        area / (2.0 * std::f64::consts::PI * self.two_qubit_max_ghz)
    }

    /// Time in ns needed for a single-qubit rotation of `angle` radians at the
    /// maximum single-qubit drive.
    pub fn one_qubit_time(&self, angle: f64) -> f64 {
        angle / (2.0 * std::f64::consts::PI * self.one_qubit_max_ghz)
    }
}

/// A complete device description: topology, interaction type and control
/// limits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Physical connectivity.
    pub topology: Topology,
    /// Native interaction Hamiltonian class.
    pub interaction: InteractionType,
    /// Control-field limits.
    pub limits: ControlLimits,
}

impl Device {
    /// A superconducting transmon device with XY coupling on the given
    /// topology and explicit control limits (every calibration is spelled
    /// out, nothing is implicitly the paper's).
    pub fn transmon_with(topology: Topology, limits: ControlLimits) -> Self {
        Self {
            topology,
            interaction: InteractionType::Xy,
            limits,
        }
    }

    /// A superconducting transmon device with XY coupling on the given
    /// topology, using the paper's control limits.
    ///
    /// **Deprecated by doc**: this constructor hardcodes
    /// [`ControlLimits::asplos19`], which silently pins every device built
    /// through it to one calibration. Prefer [`transmon_with`](Self::transmon_with)
    /// (and pass `ControlLimits::asplos19()` explicitly when that really is
    /// the calibration you mean).
    pub fn transmon(topology: Topology) -> Self {
        Self::transmon_with(topology, ControlLimits::asplos19())
    }

    /// A transmon grid sized for `n` program qubits.
    ///
    /// **Deprecated by doc**: hardcodes [`ControlLimits::asplos19`]; prefer
    /// [`transmon_with`](Self::transmon_with) with
    /// [`Topology::near_square_grid`] rather than copy-pasting a device just
    /// to change its limits.
    pub fn transmon_grid(n: usize) -> Self {
        Self::transmon(Topology::near_square_grid(n))
    }

    /// A transmon line (the topology of the paper's worked QAOA example).
    ///
    /// **Deprecated by doc**: hardcodes [`ControlLimits::asplos19`]; prefer
    /// [`transmon_with`](Self::transmon_with) with [`Topology::Linear`].
    pub fn transmon_line(n: usize) -> Self {
        Self::transmon(Topology::Linear(n))
    }

    /// Number of physical qubits.
    pub fn n_qubits(&self) -> usize {
        self.topology.n_qubits()
    }

    /// Appends an injective byte encoding of the device — topology variant
    /// and dimensions, interaction class, control limits — to `out`. This is
    /// the device's part of a compile service's fingerprint: two devices that
    /// could price or route any circuit differently encode differently.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match &self.topology {
            Topology::Linear(n) => {
                out.push(0);
                out.extend_from_slice(&(*n as u64).to_le_bytes());
            }
            Topology::Grid { rows, cols } => {
                out.push(1);
                out.extend_from_slice(&(*rows as u64).to_le_bytes());
                out.extend_from_slice(&(*cols as u64).to_le_bytes());
            }
            Topology::AllToAll(n) => {
                out.push(2);
                out.extend_from_slice(&(*n as u64).to_le_bytes());
            }
        }
        out.push(match self.interaction {
            InteractionType::Xy => 0,
            InteractionType::Zz => 1,
            InteractionType::Heisenberg => 2,
            InteractionType::DipoleChain => 3,
        });
        self.limits.encode_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_limits_match_paper() {
        let l = ControlLimits::asplos19();
        assert!((l.two_qubit_max_ghz - 0.02).abs() < 1e-12);
        assert!((l.one_qubit_max_ghz - 0.10).abs() < 1e-12);
        assert!((l.one_qubit_max_ghz / l.two_qubit_max_ghz - 5.0).abs() < 1e-9);
    }

    #[test]
    fn interaction_time_scales_inversely_with_drive() {
        let l = ControlLimits::asplos19();
        // A π/2 XY area (one iSWAP) at 0.02 GHz takes 12.5 ns.
        assert!((l.two_qubit_time(std::f64::consts::FRAC_PI_2) - 12.5).abs() < 1e-9);
        // A π single-qubit rotation at 0.1 GHz takes 5 ns.
        assert!((l.one_qubit_time(std::f64::consts::PI) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn device_constructors() {
        let d = Device::transmon_grid(30);
        assert!(d.n_qubits() >= 30);
        assert_eq!(d.interaction, InteractionType::Xy);
        assert_eq!(d.interaction.native_gate_name(), "iswap");
        let line = Device::transmon_line(3);
        assert_eq!(line.n_qubits(), 3);
        assert_eq!(line.topology, Topology::Linear(3));
    }

    #[test]
    fn transmon_with_carries_explicit_limits() {
        let limits = ControlLimits::asplos19().scaled_drives(2.0);
        let d = Device::transmon_with(Topology::Linear(4), limits);
        assert_eq!(d.topology, Topology::Linear(4));
        assert_eq!(d.interaction, InteractionType::Xy);
        assert!((d.limits.two_qubit_max_ghz - 0.04).abs() < 1e-12);
        assert!((d.limits.one_qubit_max_ghz - 0.20).abs() < 1e-12);
        // The implicit constructor is the explicit one at the paper's limits.
        assert_eq!(
            Device::transmon(Topology::Linear(4)),
            Device::transmon_with(Topology::Linear(4), ControlLimits::asplos19())
        );
    }

    #[test]
    fn scaled_drives_leaves_overheads_alone() {
        let base = ControlLimits::asplos19();
        let fast = base.scaled_drives(1.5);
        assert!((fast.two_qubit_max_ghz - base.two_qubit_max_ghz * 1.5).abs() < 1e-15);
        assert!((fast.one_qubit_max_ghz - base.one_qubit_max_ghz * 1.5).abs() < 1e-15);
        assert_eq!(fast.instruction_overhead_ns, base.instruction_overhead_ns);
        assert_eq!(fast.single_qubit_overlap, base.single_qubit_overlap);
        assert_eq!(fast.pulse_dt_ns, base.pulse_dt_ns);
        // Faster drives mean shorter interaction times, proportionally.
        let area = std::f64::consts::FRAC_PI_2;
        assert!((fast.two_qubit_time(area) - base.two_qubit_time(area) / 1.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "drive scale factor must be positive and finite")]
    fn scaled_drives_rejects_nonpositive_factor() {
        ControlLimits::asplos19().scaled_drives(0.0);
    }

    #[test]
    fn device_encodings_are_distinct() {
        let encode = |d: &Device| {
            let mut out = Vec::new();
            d.encode_into(&mut out);
            out
        };
        let line = Device::transmon_line(4);
        let grid = Device::transmon_grid(4);
        let fast_line = Device::transmon_with(
            Topology::Linear(4),
            ControlLimits::asplos19().scaled_drives(2.0),
        );
        // Same device encodes identically; any distinguishing detail —
        // topology shape or limits — changes the bytes.
        assert_eq!(encode(&line), encode(&Device::transmon_line(4)));
        assert_ne!(encode(&line), encode(&grid));
        assert_ne!(encode(&line), encode(&fast_line));
        assert_ne!(encode(&line), encode(&Device::transmon_line(5)));
        // Grid dims are length-prefixed by variant tag, so 1x4 != linear-4.
        let grid_1x4 = Device::transmon(Topology::Grid { rows: 1, cols: 4 });
        assert_ne!(encode(&line), encode(&grid_1x4));
    }
}
