//! Cross-crate integration tests: the full pipeline on the paper's worked
//! example and on small instances of every benchmark family.

use qcc::compiler::{
    verify_compilation, AggregationOptions, Compiler, CompilerOptions, Strategy, VerifyError,
};
use qcc::hw::{CalibratedLatencyModel, Device};
use qcc::ir::{Circuit, Gate};
use qcc::workloads::{ising, qaoa, qft, uccsd};

fn compile(circuit: &Circuit, strategy: Strategy) -> qcc::compiler::CompilationResult {
    let device = Device::transmon_grid(circuit.n_qubits());
    let model = CalibratedLatencyModel::new(device.limits);
    let compiler = Compiler::new(&device, &model);
    compiler.compile(
        circuit,
        &CompilerOptions {
            strategy,
            aggregation: AggregationOptions::default(),
        },
    )
}

#[test]
fn qaoa_triangle_matches_paper_shape() {
    // The worked example of §3.1: gate-based vs aggregated compilation should
    // differ by roughly the paper's 2.97x (we accept anything ≥ 2x).
    let circuit = qaoa::paper_triangle_example();
    let device = Device::transmon_line(3);
    let model = CalibratedLatencyModel::new(device.limits);
    let compiler = Compiler::new(&device, &model);
    let isa = compiler
        .compile(&circuit, &CompilerOptions::strategy(Strategy::IsaBaseline))
        .total_latency_ns;
    let agg = compiler
        .compile(
            &circuit,
            &CompilerOptions::strategy(Strategy::ClsAggregation),
        )
        .total_latency_ns;
    assert!(isa > 200.0 && isa < 800.0, "ISA latency {isa} ns");
    assert!(agg < isa / 2.0, "aggregated {agg} vs ISA {isa}");
}

#[test]
fn strategy_ordering_holds_on_every_small_benchmark() {
    // CLS+Aggregation must never lose to the ISA baseline, and CLS alone must
    // never lose either (it only reorders commuting instructions).
    let circuits = vec![
        qaoa::maxcut_line(8),
        ising::ising_chain(8),
        uccsd::uccsd_benchmark(4),
        qft::qft(6),
    ];
    for circuit in circuits {
        let isa = compile(&circuit, Strategy::IsaBaseline).total_latency_ns;
        let cls = compile(&circuit, Strategy::Cls).total_latency_ns;
        let agg = compile(&circuit, Strategy::ClsAggregation).total_latency_ns;
        // CLS may perturb routing slightly (it optimizes parallelism, not SWAP
        // count — §3.3.2), so allow a few percent of slack on small circuits.
        assert!(cls <= isa * 1.05, "CLS {cls} > ISA {isa}");
        assert!(agg <= cls * 1.05, "CLS+Agg {agg} > CLS {cls}");
        assert!(
            agg < 0.8 * isa,
            "aggregation should clearly beat the baseline: {agg} vs {isa}"
        );
    }
}

#[test]
fn compilation_preserves_semantics_for_all_strategies() {
    // Line devices exercise routing SWAPs; on the grids routing also moves
    // physical qubits that hold no logical qubit.
    let on_line = |circuit: Circuit| {
        let device = Device::transmon_line(circuit.n_qubits());
        (circuit, device)
    };
    let cases = vec![
        on_line(qaoa::maxcut_line(5)),
        on_line(ising::ising_chain(5)),
        on_line(uccsd::uccsd_benchmark(4)),
        on_line(qft::qft(4)),
        (qaoa::maxcut_reg4(8, 7), Device::transmon_grid(9)),
        (ising::ising_chain(7), Device::transmon_grid(9)),
        (qaoa::maxcut_line(6), Device::transmon_grid(12)),
    ];
    for (circuit, device) in cases {
        for strategy in Strategy::all() {
            let model = CalibratedLatencyModel::new(device.limits);
            let compiler = Compiler::new(&device, &model);
            let result = compiler.compile(&circuit, &CompilerOptions::strategy(strategy));
            let check = verify_compilation(&circuit, &result).expect("small enough to simulate");
            assert!(
                check.equivalent,
                "{strategy:?} corrupted a {}-qubit circuit on {} physical qubits (deviation {:.3e})",
                circuit.n_qubits(),
                device.n_qubits(),
                check.max_deviation
            );
        }
    }
}

#[test]
fn programs_wider_than_the_simulator_are_a_typed_verify_error() {
    let mut circuit = Circuit::new(17);
    for q in 0..16 {
        circuit.push(Gate::Cnot, &[q, q + 1]);
    }
    let device = Device::transmon_line(17);
    let model = CalibratedLatencyModel::new(device.limits);
    let result = Compiler::new(&device, &model)
        .compile(&circuit, &CompilerOptions::strategy(Strategy::IsaBaseline));
    assert_eq!(
        verify_compilation(&circuit, &result),
        Err(VerifyError::TooLarge {
            qubits: 17,
            limit: 16
        })
    );
}

#[test]
fn commutative_workloads_benefit_from_cls_serial_ones_do_not() {
    // MAXCUT (highly commutative) must gain from CLS alone; UCCSD (serial,
    // non-commutative) must not gain appreciably — §6.1 of the paper.
    let maxcut = qaoa::maxcut_line(10);
    let isa = compile(&maxcut, Strategy::IsaBaseline).total_latency_ns;
    let cls = compile(&maxcut, Strategy::Cls).total_latency_ns;
    assert!(
        cls < 0.8 * isa,
        "CLS gained too little on MAXCUT: {cls} vs {isa}"
    );

    let uccsd = uccsd::uccsd_benchmark(4);
    let isa_u = compile(&uccsd, Strategy::IsaBaseline).total_latency_ns;
    let cls_u = compile(&uccsd, Strategy::Cls).total_latency_ns;
    assert!(
        cls_u > 0.9 * isa_u,
        "CLS should barely help UCCSD: {cls_u} vs {isa_u}"
    );
}

#[test]
fn wider_instruction_limits_help_serial_circuits() {
    // Fig. 10's qualitative claim: a serialized application keeps improving as
    // the allowed instruction width grows.
    let circuit = uccsd::uccsd_benchmark(4);
    let device = Device::transmon_grid(circuit.n_qubits());
    let model = CalibratedLatencyModel::new(device.limits);
    let compiler = Compiler::new(&device, &model);
    let lat = |width: usize| {
        compiler
            .compile(
                &circuit,
                &CompilerOptions {
                    strategy: Strategy::ClsAggregation,
                    aggregation: AggregationOptions::with_width(width),
                },
            )
            .total_latency_ns
    };
    let w2 = lat(2);
    let w4 = lat(4);
    assert!(
        w4 <= w2 + 1e-6,
        "width 4 ({w4}) should not be slower than width 2 ({w2})"
    );
    assert!(
        w4 < 0.95 * w2,
        "a serial circuit should keep gaining with width: {w4} vs {w2}"
    );
}

#[test]
fn swap_heavy_circuits_gain_more_from_aggregation() {
    // Fig. 11's qualitative claim, on a single workload: the same QAOA circuit
    // routed on a line (many SWAPs) gains more from aggregation relative to
    // CLS than when routed on an all-to-all device (no SWAPs).
    let circuit = qaoa::maxcut_reg4(8, 11);
    let ratio = |device: Device| {
        let model = CalibratedLatencyModel::new(device.limits);
        let compiler = Compiler::new(&device, &model);
        let cls = compiler
            .compile(&circuit, &CompilerOptions::strategy(Strategy::Cls))
            .total_latency_ns;
        let agg = compiler
            .compile(
                &circuit,
                &CompilerOptions::strategy(Strategy::ClsAggregation),
            )
            .total_latency_ns;
        agg / cls
    };
    let line = ratio(Device::transmon_line(8));
    let full = ratio(Device::transmon(qcc::hw::Topology::AllToAll(8)));
    assert!(
        line <= full + 0.05,
        "low-locality (line) ratio {line} should not exceed all-to-all ratio {full}"
    );
}
