//! Criterion micro-benchmarks of the optimal-control unit: a full one-qubit
//! Hadamard and a full two-qubit iSWAP pulse optimization.

use criterion::{criterion_group, criterion_main, Criterion};
use qcc_control::{optimize_pulse, GrapeConfig, TransmonSystem};
use qcc_hw::ControlLimits;
use qcc_math::pauli;

fn bench_single_qubit_grape(c: &mut Criterion) {
    let system = TransmonSystem::new(1, &[], ControlLimits::asplos19());
    let target = pauli::hadamard();
    let config = GrapeConfig {
        max_iterations: 60,
        ..GrapeConfig::fast()
    };
    c.bench_function("grape: 1-qubit Hadamard (60 iters)", |b| {
        b.iter(|| optimize_pulse(&system, &target, 10.0, config.clone()))
    });
}

fn bench_two_qubit_grape(c: &mut Criterion) {
    let system = TransmonSystem::new(2, &[(0, 1)], ControlLimits::asplos19());
    let target = pauli::iswap();
    let config = GrapeConfig {
        max_iterations: 40,
        dt: 1.0,
        ..GrapeConfig::fast()
    };
    c.bench_function("grape: 2-qubit iSWAP (40 iters)", |b| {
        b.iter(|| optimize_pulse(&system, &target, 20.0, config.clone()))
    });
}

criterion_group!(
    name = grape;
    config = Criterion::default().sample_size(10);
    targets = bench_single_qubit_grape, bench_two_qubit_grape
);
criterion_main!(grape);
