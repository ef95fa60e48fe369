//! A latency model that panics on one marker gate, shared by the batch and
//! serving tests: a stand-in for a model bug that only one request trips.

use qcc::hw::{CalibratedLatencyModel, LatencyModel};
use qcc::ir::{Circuit, Gate, Instruction};

/// The gate whose pricing panics.
pub const MARKER: Gate = Gate::Rz(0.123);

/// The calibrated model, except that pricing an aggregate containing
/// [`MARKER`] panics. It opts into parallel pricing, so batch warm-ups price
/// through it as well.
pub struct PoisonedModel(pub CalibratedLatencyModel);

impl LatencyModel for PoisonedModel {
    fn isa_gate_latency(&self, inst: &Instruction) -> f64 {
        self.0.isa_gate_latency(inst)
    }

    fn aggregate_latency(&self, constituents: &[Instruction]) -> f64 {
        assert!(
            constituents.iter().all(|i| i.gate != MARKER),
            "poisoned model asked to price the marker gate"
        );
        self.0.aggregate_latency(constituents)
    }

    fn parallel_pricing(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "poisoned"
    }
}

/// `circuit` with the marker gate appended on qubit 0.
pub fn poisoned(circuit: &Circuit) -> Circuit {
    let mut c = circuit.clone();
    c.push(MARKER, &[0]);
    c
}
