//! `fullscale-batch`: the paper-scale Table-3 suite through
//! `Compiler::compile_batch`, once per Fig. 9 strategy, priced by the
//! analytic model (no GRAPE, no result cache).

use crate::layers::{self, Layers, Run};
use crate::measure::{repeated_setup, result_hash, timed, Ledger, Metrics, Outcome, Passes};
use crate::trace::{Recorder, TracedModel};
use crate::{SUITE_SEED, THREADS};
use qcc_core::{CompilationResult, CompileError, Compiler, CompilerOptions, Strategy};
use qcc_hw::{CalibratedLatencyModel, Device, LatencyModel};
use qcc_ir::Circuit;
use qcc_workloads::{standard_suite, SuiteScale};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The Fig. 9 lane: baseline, scheduling only, and the full flow.
const STRATEGIES: [Strategy; 3] = [
    Strategy::IsaBaseline,
    Strategy::Cls,
    Strategy::ClsAggregation,
];

/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 25;

/// Warms code paths, the allocator and the batch engine's threads with the
/// cheapest strategy of the lane.
fn warm_up(device: &Device, circuits: &[Circuit]) {
    let model = CalibratedLatencyModel::new(device.limits);
    let compiler = Compiler::new(device, &model).with_threads(THREADS);
    for result in
        compiler.compile_batch(circuits, &CompilerOptions::strategy(Strategy::IsaBaseline))
    {
        result.expect("the grid fits the suite");
    }
}

type Batch = Vec<Result<CompilationResult, CompileError>>;

/// One `compile_batch` call per strategy. Returns the results and the
/// milliseconds each call took.
fn run_batches(compiler: &Compiler<'_>, circuits: &[Circuit]) -> (Vec<Batch>, Vec<f64>) {
    STRATEGIES
        .iter()
        .map(|&strategy| {
            let (batch, secs) =
                timed(|| compiler.compile_batch(circuits, &CompilerOptions::strategy(strategy)));
            (batch, secs * 1e3)
        })
        .unzip()
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> (Outcome, Metrics) {
    let mut outcome = Outcome::default();
    let ((circuits, device), setup_s) = repeated_setup(SETUPS, || {
        let mut circuits: Vec<Circuit> = standard_suite(SuiteScale::Full, SUITE_SEED)
            .into_iter()
            .map(|b| b.circuit)
            .collect();
        circuits.shuffle(&mut StdRng::seed_from_u64(seed));
        // 8×8 grid: the widest circuit has 60 qubits.
        let device = Device::transmon_grid(60);
        warm_up(&device, &circuits);
        (circuits, device)
    });
    let (model, model_s) = timed(|| CalibratedLatencyModel::new(device.limits));
    let setup_s = setup_s + model_s;
    let compiler = Compiler::new(&device, &model).with_threads(THREADS);

    let mut ledger = Ledger::default();
    let mut passes = Passes::default();
    while passes.another(seconds) {
        let (batches, batch_ms) = passes.time(|| run_batches(&compiler, &circuits));
        passes.requests(batch_ms);
        for (strategy, batch) in STRATEGIES.iter().zip(batches) {
            for (circuit, result) in circuits.iter().zip(batch) {
                outcome.count(
                    result.is_ok_and(|r| r.strategy == *strategy && ledger.record(circuit, r)),
                );
            }
        }
    }
    let speedup = ledger.speedup_vs_isa(|circuit| {
        ledger
            .makespan(circuit, Strategy::IsaBaseline)
            .expect("the ISA batch compiled every circuit")
    });

    let run = Run {
        setup_s,
        passes,
        speedup,
        queries: 0,
        solves: 0,
    };
    let mut layers = Layers::default();
    layers.check(&ledger, &mut outcome);
    println!("{}", ledger.determinism_line(run.speedup, 0, 0));
    if !trace {
        return (outcome, run.report());
    }

    let recorder = Recorder::default();
    let traced = TracedModel::new(&model, &recorder);
    let traced_compiler = Compiler::new(&device, &traced).with_threads(THREADS);
    let (batches, traced_wall) = timed(|| {
        STRATEGIES
            .iter()
            .enumerate()
            .map(|(i, &strategy)| {
                recorder.scope("batch", i as u64, || {
                    traced_compiler.compile_batch(&circuits, &CompilerOptions::strategy(strategy))
                })
            })
            .collect::<Vec<Batch>>()
    });
    let mut reports = Vec::new();
    for (strategy, batch) in STRATEGIES.iter().zip(&batches) {
        for (circuit, result) in circuits.iter().zip(batch) {
            outcome.count(result.as_ref().is_ok_and(|r| {
                reports.extend(r.reports.iter().cloned());
                ledger.matches(circuit, *strategy, result_hash(r))
            }));
        }
    }
    let pass_busy_s: f64 = reports.iter().map(|r| r.wall_time.as_secs_f64()).sum();
    let batch_s: f64 = recorder.durations_ns("batch").iter().sum::<u64>() as f64 / 1e9;
    layers.batch = layers::Batch {
        pass_busy_s,
        overlap: pass_busy_s / batch_s,
    };
    layers.reports(
        reports.iter(),
        &recorder,
        traced.pricing_stats().map_or(0, |s| s.queries),
    );
    layers.outputs(&ledger);
    layers.trace_overhead = traced_wall / run.passes.wall_s() - 1.0;
    (outcome, layers.finish(&recorder, "fullscale-batch", seed))
}
