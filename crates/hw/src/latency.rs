//! Pulse-latency models.
//!
//! Every compilation strategy in this workspace is scored by the simulated
//! duration of its control pulses, exactly as in the paper's evaluation. Two
//! backends implement the [`LatencyModel`] trait:
//!
//! * the [`CalibratedLatencyModel`] defined here — an analytic model based on
//!   interaction-area lower bounds under XY coupling, used for the large
//!   benchmark circuits and inside the aggregation loop, and
//! * `GrapeLatencyModel` in the `qcc-control` crate — the real optimal-control
//!   unit, which numerically searches for the shortest pulse achieving a target
//!   fidelity (practical for instructions of up to ~3 qubits).
//!
//! The analytic model captures the three effects that give aggregated
//! instructions their advantage (§2.4, §4.3 of the paper):
//!
//! 1. a fixed per-*instruction* overhead that gate-based compilation pays per
//!    *gate*;
//! 2. single-qubit rotations that an optimized pulse largely absorbs into the
//!    two-qubit interaction instead of serializing them as separate layers;
//! 3. diagonal blocks (CNOT–Rz–CNOT) that the detection pass turns into direct
//!    ZZ rotations needing far less interaction area than two CNOTs.

use crate::device::ControlLimits;
use qcc_ir::{Gate, Instruction};
use std::collections::HashMap;
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};
use threadpool::ThreadPool;

/// Cumulative pricing-activity counters of an instrumented latency model:
/// how many `aggregate_latency` queries it has answered (single and batched)
/// and how many of those required an actual solve (cache misses). Compilation
/// passes snapshot these before/after running to attribute solves per pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PricingStats {
    /// Total aggregate-latency queries answered.
    pub queries: usize,
    /// Queries that performed an actual pricing computation (cache misses).
    pub solves: usize,
}

impl PricingStats {
    /// Queries served from a cache instead of solving (`queries - solves`).
    pub fn cache_hits(&self) -> usize {
        self.queries.saturating_sub(self.solves)
    }

    /// Component-wise `self - earlier`: the activity between two snapshots.
    pub fn delta_since(&self, earlier: &PricingStats) -> PricingStats {
        PricingStats {
            queries: self.queries.saturating_sub(earlier.queries),
            solves: self.solves.saturating_sub(earlier.solves),
        }
    }
}

/// Latency oracle used by the scheduler and the instruction-aggregation loop.
pub trait LatencyModel: Send + Sync {
    /// Latency in ns of one gate compiled in isolation through the standard
    /// gate-based (ISA) path: fixed decomposition into native pulses with its
    /// own per-gate overhead.
    fn isa_gate_latency(&self, inst: &Instruction) -> f64;

    /// Latency in ns of a single aggregated instruction implementing the whole
    /// constituent gate sequence as one optimized pulse.
    fn aggregate_latency(&self, constituents: &[Instruction]) -> f64;

    /// Prices a whole batch of aggregated instructions, returning one latency
    /// per query in input order.
    ///
    /// Must return exactly the values a sequential loop of
    /// [`aggregate_latency`](Self::aggregate_latency) calls would — callers
    /// (the speculative aggregation search, the pricing passes, the batch
    /// front door) rely on that for bit-identical parallel compilation. The
    /// default fans the independent queries over `pool` when the model opts
    /// into [`parallel_pricing`](Self::parallel_pricing) and prices serially
    /// on the calling thread otherwise (a pool of one never spawns). Cached
    /// models override this to dedup repeated keys and solve only the unique
    /// misses concurrently.
    fn aggregate_latency_batch(&self, queries: &[&[Instruction]], pool: &ThreadPool) -> Vec<f64> {
        if self.parallel_pricing() && pool.threads() > 1 {
            pool.parallel_map(queries, |q| self.aggregate_latency(q))
        } else {
            queries.iter().map(|q| self.aggregate_latency(q)).collect()
        }
    }

    /// Whether one `aggregate_latency` query is expensive enough (e.g. a
    /// numerical optimal-control solve) that independent queries are worth
    /// fanning out over threads. Cheap analytic models keep the default
    /// `false`, so callers skip the thread-spawn overhead and price serially.
    fn parallel_pricing(&self) -> bool {
        false
    }

    /// Cumulative pricing counters, for models that instrument their cache
    /// (e.g. the GRAPE model). Uninstrumented models return `None` and pass
    /// reports simply omit the pricing column.
    fn pricing_stats(&self) -> Option<PricingStats> {
        None
    }

    /// The model's persistent cache tier, if it has one (e.g. the GRAPE
    /// model's solve cache). Front doors use this to snapshot/warm-start a
    /// model's expensive state across restarts without knowing its concrete
    /// type. Analytic models have nothing worth persisting and keep the
    /// default `None`.
    fn persistent_cache(&self) -> Option<&dyn crate::persist::PersistentCache> {
        None
    }

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// A reference forwards every method (the provided ones included, so a
/// referenced model keeps its own `parallel_pricing`/`pricing_stats`
/// overrides). This lets an owning front door like a compile service borrow a
/// caller-owned, instrumented model — e.g. `Box::new(&grape_model)` — while
/// the caller retains access to its counters.
impl<M: LatencyModel + ?Sized> LatencyModel for &M {
    fn isa_gate_latency(&self, inst: &Instruction) -> f64 {
        (**self).isa_gate_latency(inst)
    }

    fn aggregate_latency(&self, constituents: &[Instruction]) -> f64 {
        (**self).aggregate_latency(constituents)
    }

    fn aggregate_latency_batch(&self, queries: &[&[Instruction]], pool: &ThreadPool) -> Vec<f64> {
        (**self).aggregate_latency_batch(queries, pool)
    }

    fn parallel_pricing(&self) -> bool {
        (**self).parallel_pricing()
    }

    fn pricing_stats(&self) -> Option<PricingStats> {
        (**self).pricing_stats()
    }

    fn persistent_cache(&self) -> Option<&dyn crate::persist::PersistentCache> {
        (**self).persistent_cache()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Two-qubit interaction "area" (radians of XY-drive phase, `2π·∫|u|dt`)
/// needed to realize a gate on an XY-coupled device.
///
/// iSWAP needs π/2; a CNOT/CZ needs two iSWAP-equivalents (π); a SWAP needs
/// three (3π/2); a partial ZZ rotation needs π/2 plus an angle-dependent part;
/// unknown two-qubit unitaries are budgeted at the SWAP-class worst case.
pub fn interaction_area(gate: &Gate) -> f64 {
    match gate {
        Gate::ISwap => FRAC_PI_2,
        Gate::SqrtISwap => FRAC_PI_4,
        Gate::Rxy(t) => principal_angle(*t) / 2.0,
        Gate::Cnot | Gate::Cz => PI,
        Gate::CPhase(t) | Gate::Rzz(t) => FRAC_PI_2 + principal_angle(*t) / 2.0,
        Gate::Swap => 1.5 * PI,
        // Three-qubit gates are flattened before reaching the backend, but give
        // them a sane budget anyway (6 CNOTs worth on two edges).
        Gate::Toffoli | Gate::Fredkin => 3.0 * PI,
        _ => 0.0,
    }
}

/// Number of single-qubit dressing layers the standard decomposition of a
/// two-qubit ISA gate inserts around the native iSWAP pulses.
fn isa_dressing_layers(gate: &Gate) -> f64 {
    match gate {
        Gate::ISwap | Gate::SqrtISwap | Gate::Rxy(_) => 0.0,
        Gate::Cnot | Gate::Cz | Gate::CPhase(_) => 3.0,
        Gate::Rzz(_) => 2.0,
        Gate::Swap => 2.0,
        _ => 0.0,
    }
}

fn principal_angle(theta: f64) -> f64 {
    let t = theta.rem_euclid(2.0 * PI);
    if t > PI {
        2.0 * PI - t
    } else {
        t
    }
}

/// Analytic latency model calibrated to the paper's control limits.
#[derive(Debug, Clone)]
pub struct CalibratedLatencyModel {
    limits: ControlLimits,
}

impl CalibratedLatencyModel {
    /// Creates the model from explicit control limits.
    pub fn new(limits: ControlLimits) -> Self {
        Self { limits }
    }

    /// Model with the paper's §5.1 parameters.
    pub fn asplos19() -> Self {
        Self::new(ControlLimits::asplos19())
    }

    /// The control limits backing the model.
    pub fn limits(&self) -> &ControlLimits {
        &self.limits
    }
}

impl Default for CalibratedLatencyModel {
    fn default() -> Self {
        Self::asplos19()
    }
}

impl LatencyModel for CalibratedLatencyModel {
    fn isa_gate_latency(&self, inst: &Instruction) -> f64 {
        let l = &self.limits;
        let gate = &inst.gate;
        if gate.is_identity() {
            return 0.0;
        }
        match inst.qubits.len() {
            1 => l.instruction_overhead_ns + l.one_qubit_time(gate.rotation_angle()),
            2 => {
                l.instruction_overhead_ns
                    + l.two_qubit_time(interaction_area(gate))
                    + isa_dressing_layers(gate) * l.one_qubit_time(FRAC_PI_2)
            }
            _ => {
                // Flattened circuits never reach here; budget generously.
                l.instruction_overhead_ns
                    + l.two_qubit_time(interaction_area(gate))
                    + 6.0 * l.one_qubit_time(FRAC_PI_2)
            }
        }
    }

    fn aggregate_latency(&self, constituents: &[Instruction]) -> f64 {
        let l = &self.limits;
        if constituents.iter().all(|i| i.gate.is_identity()) {
            return 0.0;
        }
        // Interaction area per qubit *pair*. Whatever two-qubit gates an
        // aggregate accumulates on one pair, their product is still a single
        // two-qubit unitary, which an optimal pulse implements with at most
        // three iSWAP-equivalents of interaction (the SWAP-class worst case);
        // the per-pair area is therefore capped at 3π/2. This is the main
        // mechanism by which optimized aggregate pulses beat concatenated
        // per-gate pulses on serial circuits (§6.2 of the paper).
        const PAIR_AREA_CAP: f64 = 1.5 * PI;
        let mut pair_area: HashMap<(usize, usize), f64> = HashMap::new();
        let mut one_q_area: HashMap<usize, f64> = HashMap::new();
        for inst in constituents {
            if inst.gate.is_identity() {
                continue;
            }
            match inst.qubits.len() {
                1 => {
                    *one_q_area.entry(inst.qubits[0]).or_insert(0.0) += inst.gate.rotation_angle();
                }
                _ => {
                    let a = inst.qubits[0].min(inst.qubits[1]);
                    let b = inst.qubits[0].max(inst.qubits[1]);
                    let entry = pair_area.entry((a, b)).or_insert(0.0);
                    *entry = (*entry + interaction_area(&inst.gate)).min(PAIR_AREA_CAP);
                }
            }
        }
        // Per-qubit load: areas of pairs sharing a qubit serialize, disjoint
        // pairs run concurrently. Each qubit's pair times are summed in
        // ascending order, so the float sum depends neither on hash-map
        // iteration order nor on the qubit labels.
        let mut pair_times: Vec<(usize, f64)> = Vec::with_capacity(2 * pair_area.len());
        for (&(a, b), &area) in &pair_area {
            let t = l.two_qubit_time(area);
            pair_times.push((a, t));
            pair_times.push((b, t));
        }
        pair_times.sort_unstable_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
        let t_interaction = pair_times
            .chunk_by(|x, y| x.0 == y.0)
            .map(|qubit| qubit.iter().fold(0.0, |load, &(_, t)| load + t))
            .fold(0.0f64, f64::max);
        // Single-qubit rotations on one qubit similarly compose to a single
        // rotation of angle at most π between entangling segments; cap the
        // per-qubit single-qubit content accordingly.
        let t_single = one_q_area
            .values()
            .map(|&angle| l.one_qubit_time(angle.min(PI)))
            .fold(0.0f64, f64::max);
        // Single-qubit work largely overlaps with the interaction inside an
        // optimized pulse; only a fraction remains on the critical path.
        l.instruction_overhead_ns + t_interaction + l.single_qubit_overlap * t_single
    }

    fn name(&self) -> &'static str {
        "calibrated-xy"
    }
}

/// The per-gate pulse-duration table in the style of Table 1 of the paper,
/// computed from a latency model for the standard ISA gates.
#[derive(Debug, Clone, PartialEq)]
pub struct GateTimeTable {
    /// `(label, duration_ns)` rows.
    pub rows: Vec<(String, f64)>,
}

impl GateTimeTable {
    /// Builds the table for the common ISA gates using the supplied model and
    /// the worked example's angles (γ = 5.67 for Rz, β = 1.26 for Rx).
    pub fn standard<M: LatencyModel + ?Sized>(model: &M) -> Self {
        let entries: Vec<(&str, Instruction)> = vec![
            ("CNOT", Instruction::new(Gate::Cnot, vec![0, 1])),
            ("SWAP", Instruction::new(Gate::Swap, vec![0, 1])),
            ("H", Instruction::new(Gate::H, vec![0])),
            ("Rz(5.67)", Instruction::new(Gate::Rz(5.67), vec![0])),
            ("Rx(1.26)", Instruction::new(Gate::Rx(1.26), vec![0])),
            ("iSWAP", Instruction::new(Gate::ISwap, vec![0, 1])),
            ("CZ", Instruction::new(Gate::Cz, vec![0, 1])),
            ("ZZ(5.67)", Instruction::new(Gate::Rzz(5.67), vec![0, 1])),
        ];
        let rows = entries
            .into_iter()
            .map(|(label, inst)| (label.to_string(), model.isa_gate_latency(&inst)))
            .collect();
        Self { rows }
    }

    /// Looks up a row by label.
    pub fn get(&self, label: &str) -> Option<f64> {
        self.rows.iter().find(|(l, _)| l == label).map(|(_, t)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(gate: Gate, qubits: &[usize]) -> Instruction {
        Instruction::new(gate, qubits.to_vec())
    }

    #[test]
    fn isa_gate_times_have_the_papers_ordering() {
        let m = CalibratedLatencyModel::asplos19();
        let t_cnot = m.isa_gate_latency(&inst(Gate::Cnot, &[0, 1]));
        let t_swap = m.isa_gate_latency(&inst(Gate::Swap, &[0, 1]));
        let t_h = m.isa_gate_latency(&inst(Gate::H, &[0]));
        let t_rz = m.isa_gate_latency(&inst(Gate::Rz(5.67), &[0]));
        let t_rx = m.isa_gate_latency(&inst(Gate::Rx(1.26), &[0]));
        // Same ordering as Table 1: SWAP > CNOT >> H > Rz(5.67) ~ Rx(1.26).
        assert!(t_swap > t_cnot);
        assert!(t_cnot > 3.0 * t_h);
        assert!(t_h > t_rx);
        assert!(t_rz < t_h);
        // Two-qubit gates land in the tens of nanoseconds, single-qubit below ~15.
        assert!(t_cnot > 25.0 && t_cnot < 60.0, "CNOT {t_cnot}");
        assert!(t_swap > 35.0 && t_swap < 70.0, "SWAP {t_swap}");
        assert!(t_h < 15.0);
    }

    #[test]
    fn identity_costs_nothing() {
        let m = CalibratedLatencyModel::asplos19();
        assert_eq!(m.isa_gate_latency(&inst(Gate::I, &[0])), 0.0);
        assert_eq!(m.isa_gate_latency(&inst(Gate::Rz(0.0), &[0])), 0.0);
        assert_eq!(m.aggregate_latency(&[inst(Gate::I, &[0])]), 0.0);
    }

    #[test]
    fn aggregate_never_slower_than_sum_of_parts() {
        let m = CalibratedLatencyModel::asplos19();
        let parts = vec![
            inst(Gate::Cnot, &[0, 1]),
            inst(Gate::Rz(1.1), &[1]),
            inst(Gate::Cnot, &[0, 1]),
            inst(Gate::H, &[0]),
            inst(Gate::Cnot, &[1, 2]),
        ];
        let individual: f64 = parts.iter().map(|i| m.isa_gate_latency(i)).sum();
        let merged = m.aggregate_latency(&parts);
        assert!(merged < individual, "merged {merged} vs sum {individual}");
    }

    #[test]
    fn aggregate_latency_is_subadditive() {
        let m = CalibratedLatencyModel::asplos19();
        let a = vec![inst(Gate::Cnot, &[0, 1]), inst(Gate::Rz(0.4), &[1])];
        let b = vec![inst(Gate::Cnot, &[1, 2]), inst(Gate::H, &[2])];
        let together: Vec<Instruction> = a.iter().chain(b.iter()).cloned().collect();
        assert!(
            m.aggregate_latency(&together)
                <= m.aggregate_latency(&a) + m.aggregate_latency(&b) + 1e-9
        );
    }

    #[test]
    fn diagonal_block_cheaper_than_cnot_rz_cnot() {
        let m = CalibratedLatencyModel::asplos19();
        // The detected diagonal instruction (a single Rzz) …
        let detected = m.aggregate_latency(&[inst(Gate::Rzz(1.3), &[0, 1])]);
        // … versus aggregating the raw CNOT–Rz–CNOT constituents …
        let raw = m.aggregate_latency(&[
            inst(Gate::Cnot, &[0, 1]),
            inst(Gate::Rz(1.3), &[1]),
            inst(Gate::Cnot, &[0, 1]),
        ]);
        // … versus the gate-based path.
        let isa: f64 = [
            inst(Gate::Cnot, &[0, 1]),
            inst(Gate::Rz(1.3), &[1]),
            inst(Gate::Cnot, &[0, 1]),
        ]
        .iter()
        .map(|i| m.isa_gate_latency(i))
        .sum();
        assert!(detected < raw);
        assert!(raw < isa);
        assert!(isa / detected > 3.0, "speedup {}", isa / detected);
    }

    #[test]
    fn disjoint_edges_run_in_parallel_inside_an_aggregate() {
        let m = CalibratedLatencyModel::asplos19();
        let serial = m.aggregate_latency(&[inst(Gate::Cnot, &[0, 1]), inst(Gate::Cnot, &[1, 2])]);
        let parallel = m.aggregate_latency(&[inst(Gate::Cnot, &[0, 1]), inst(Gate::Cnot, &[2, 3])]);
        assert!(parallel < serial);
    }

    #[test]
    fn interaction_areas_match_known_gate_costs() {
        assert!((interaction_area(&Gate::ISwap) - FRAC_PI_2).abs() < 1e-12);
        assert!((interaction_area(&Gate::Cnot) - PI).abs() < 1e-12);
        assert!((interaction_area(&Gate::Swap) - 1.5 * PI).abs() < 1e-12);
        assert!(interaction_area(&Gate::Rzz(0.2)) < interaction_area(&Gate::Cnot));
        assert!(interaction_area(&Gate::H).abs() < 1e-12);
    }

    #[test]
    fn default_batch_pricing_matches_sequential_queries() {
        let m = CalibratedLatencyModel::asplos19();
        let a = vec![inst(Gate::Cnot, &[0, 1]), inst(Gate::Rz(0.4), &[1])];
        let b = vec![inst(Gate::H, &[2])];
        let c = vec![inst(Gate::Cnot, &[0, 1]), inst(Gate::Rz(0.4), &[1])]; // dup of a
        let queries: Vec<&[Instruction]> = vec![&a, &b, &c];
        let expected: Vec<f64> = queries.iter().map(|q| m.aggregate_latency(q)).collect();
        // Analytic model: the default impl prices serially regardless of pool.
        for pool in [ThreadPool::serial(), ThreadPool::new(4)] {
            let got = m.aggregate_latency_batch(&queries, &pool);
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.to_bits(), e.to_bits());
            }
        }
        assert!(m.pricing_stats().is_none());
    }

    #[test]
    fn pricing_stats_delta_and_hits() {
        let a = PricingStats {
            queries: 10,
            solves: 4,
        };
        let b = PricingStats {
            queries: 25,
            solves: 7,
        };
        assert_eq!(a.cache_hits(), 6);
        let d = b.delta_since(&a);
        assert_eq!(
            d,
            PricingStats {
                queries: 15,
                solves: 3
            }
        );
        assert_eq!(d.cache_hits(), 12);
    }

    #[test]
    fn gate_time_table_contains_standard_rows() {
        let m = CalibratedLatencyModel::asplos19();
        let table = GateTimeTable::standard(&m);
        assert!(table.get("CNOT").unwrap() > 20.0);
        assert!(table.get("SWAP").unwrap() > table.get("CNOT").unwrap());
        assert!(table.get("H").unwrap() < 15.0);
        assert!(table.get("nonexistent").is_none());
        assert_eq!(table.rows.len(), 8);
    }
}
