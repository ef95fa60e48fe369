//! Probes run only in traced runs: the numeric kernels at the sizes GRAPE
//! uses (2×2 for one qubit, 4×4 for two) and the GRAPE minimum-time search
//! on fixed one- and two-qubit targets.

use crate::measure::{median, timed};
use qcc_control::{GrapeConfig, GrapeOptimizer, TransmonSystem};
use qcc_hw::{CalibratedLatencyModel, ControlLimits, LatencyModel};
use qcc_ir::{Gate, Instruction};
use qcc_math::{expm, CMatrix, C64};
use std::hint::black_box;

/// Timed batches per kernel probe; the probe reports their median.
const BATCHES: usize = 11;

/// Repetitions of the GRAPE probe set; each target reports its median.
const GRAPE_REPEATS: usize = 3;

/// Bisection rounds of the minimum-time search, as the GRAPE latency model
/// runs it.
const REFINEMENT_ROUNDS: usize = 3;

/// Nanoseconds per call of the numeric kernels.
pub struct Kernels {
    pub matmul_2x2_ns: f64,
    pub matmul_4x4_ns: f64,
    pub expm_2x2_ns: f64,
    pub expm_4x4_ns: f64,
}

/// A fixed, dense `n`×`n` generator shaped like GRAPE's step exponent
/// `-i·H·dt` (anti-Hermitian, unit-order entries).
fn generator(n: usize) -> CMatrix {
    let mut m = CMatrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            let (a, b) = ((r * n + c) as f64 * 0.37).sin_cos();
            let h = if r == c {
                C64::new(a, 0.0)
            } else {
                C64::new(a, b)
            };
            m[(r, c)] = h;
        }
    }
    // H = (M + M†)/2 is Hermitian; -i·H·dt with dt = 0.5 ns.
    let h = (&m + &m.dagger()).scale_re(0.5);
    h.scale(C64::new(0.0, -0.5))
}

/// Median nanoseconds per call of `f` over [`BATCHES`] batches of `calls`.
fn per_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let ((), secs) = timed(|| {
                for _ in 0..calls {
                    f();
                }
            });
            secs * 1e9 / calls as f64
        })
        .collect();
    median(&samples)
}

/// Probes `CMatrix::matmul` and `expm`.
pub fn kernels() -> Kernels {
    let (a2, a4) = (generator(2), generator(4));
    let (b2, b4) = (expm(&a2), expm(&a4));
    Kernels {
        matmul_2x2_ns: per_call_ns(50_000, || {
            black_box(black_box(&a2).matmul(black_box(&b2)));
        }),
        matmul_4x4_ns: per_call_ns(20_000, || {
            black_box(black_box(&a4).matmul(black_box(&b4)));
        }),
        expm_2x2_ns: per_call_ns(10_000, || {
            black_box(expm(black_box(&a2)));
        }),
        expm_4x4_ns: per_call_ns(4_000, || {
            black_box(expm(black_box(&a4)));
        }),
    }
}

/// GRAPE minimum-time search measurements.
pub struct Grape {
    pub solve_1q_ms: f64,
    pub solve_2q_ms: f64,
    /// Gradient iterations of the four searches' best pulses (exact).
    pub iterations: usize,
}

/// Probes `GrapeOptimizer::minimize_time` on X and H (one qubit) and CNOT
/// and ZZ(0.9) (two qubits), each on a fully coupled transmon register and
/// seeded from the analytic latency, as the GRAPE latency model seeds it.
pub fn grape() -> Grape {
    let limits = ControlLimits::asplos19();
    let config = GrapeConfig::fast();
    let dt = config.dt;
    let optimizer = GrapeOptimizer::new(config);
    let guess_model = CalibratedLatencyModel::new(limits);
    let targets = [
        (Gate::X, vec![0]),
        (Gate::H, vec![0]),
        (Gate::Cnot, vec![0, 1]),
        (Gate::Rzz(0.9), vec![0, 1]),
    ];
    let mut times_ms = vec![Vec::new(); targets.len()];
    let mut iterations = Vec::new();
    for _ in 0..GRAPE_REPEATS {
        let mut total = 0;
        for (i, (gate, qubits)) in targets.iter().enumerate() {
            let system = TransmonSystem::fully_coupled(qubits.len(), limits);
            let inst = Instruction::new(*gate, qubits.clone());
            let guess = guess_model
                .aggregate_latency(std::slice::from_ref(&inst))
                .max(2.0 * dt);
            let ((_, result), secs) = timed(|| {
                optimizer.minimize_time(&system, &gate.matrix(), guess, REFINEMENT_ROUNDS)
            });
            times_ms[i].push(secs * 1e3);
            total += result.iterations;
        }
        iterations.push(total);
    }
    assert!(
        iterations.windows(2).all(|w| w[0] == w[1]),
        "seeded GRAPE searches repeat exactly: {iterations:?}"
    );
    let med = |i: usize| median(&times_ms[i]);
    Grape {
        solve_1q_ms: (med(0) + med(1)) / 2.0,
        solve_2q_ms: (med(2) + med(3)) / 2.0,
        iterations: iterations[0],
    }
}
