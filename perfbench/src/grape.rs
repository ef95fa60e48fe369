//! The two GRAPE-priced workloads: `grape-cold` (every pricing query
//! reaches a fresh solve cache) and `grape-warm` (the same requests answered
//! from a snapshot-loaded cache, zero solves).

use crate::layers::{self, Layers, Run};
use crate::measure::{
    isa_makespan, output_hash, repeated_setup, timed, Ledger, Metrics, Outcome, Passes,
};
use crate::trace::{Recorder, TracedModel};
use crate::{SUITE_SEED, THREADS};
use qcc_control::GrapeLatencyModel;
use qcc_core::{CompileService, CompilerOptions, Layout, PassContext, PassState, Strategy};
use qcc_hw::{Device, LatencyModel};
use qcc_ir::Circuit;
use qcc_workloads::{standard_suite, suite::by_name, SuiteScale};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// The reduced-scale Table-3 circuits both GRAPE workloads compile.
pub const LIST: [&str; 7] = [
    "MAXCUT-line",
    "MAXCUT-reg4",
    "MAXCUT-cluster",
    "Ising-n15",
    "Ising-n30",
    "Ising-n60",
    "UCCSD-n4",
];

/// Rounds of the list per `grape-warm` pass.
const WARM_ROUNDS: usize = 150;

/// Worker threads of both GRAPE workloads' services: one, not
/// [`THREADS`]. At two, every parallel map of a compile spawns and joins
/// its own scoped threads, thousands a second in a warm pass, and on a
/// shared 2-vCPU host the pass time then followed the host's scheduling of
/// those threads more than the compiler's own work.
pub const GRAPE_THREADS: usize = 1;

/// Set-ups per `grape-cold` run; the reported set-up time is their median.
const COLD_SETUPS: usize = 25;

fn options() -> CompilerOptions {
    CompilerOptions::strategy(Strategy::ClsAggregation)
}

/// The list, in list order.
pub fn list() -> Vec<Circuit> {
    let suite = standard_suite(SuiteScale::Reduced, SUITE_SEED);
    LIST.iter()
        .map(|name| {
            by_name(&suite, name)
                .expect("list names suite circuits")
                .circuit
        })
        .collect()
}

/// The 4×4 transmon grid both GRAPE workloads target.
fn device() -> Device {
    Device::transmon_grid(15)
}

/// A cache-less service over a borrowed model, pinned to [`GRAPE_THREADS`].
fn service<'d>(device: &'d Device, model: &'d dyn LatencyModel) -> CompileService<'d> {
    CompileService::with_model(device, Box::new(model))
        .with_threads(GRAPE_THREADS)
        .with_compile_cache(0)
}

/// Warms code paths and the allocator with an analytically priced
/// CLS+Aggregation compile of `circuits` on a throwaway cache-less service,
/// leaving every GRAPE and result cache untouched.
pub fn warm_up(device: &Device, circuits: &[Circuit]) {
    let warm = CompileService::new(device)
        .with_threads(THREADS)
        .with_compile_cache(0);
    for circuit in circuits {
        warm.compile(circuit, &options())
            .expect("the grid fits every listed circuit");
    }
}

/// One round that requests every circuit of the list once, in list order.
fn in_order(circuits: &[Circuit]) -> Vec<Vec<usize>> {
    vec![(0..circuits.len()).collect()]
}

/// Compiles the circuits `rounds` names through `service`, one request at
/// a time, checking each result against the first compile of its key.
/// Returns the per-request milliseconds.
fn compile_rounds(
    service: &CompileService<'_>,
    circuits: &[Circuit],
    rounds: &[Vec<usize>],
    ledger: &mut Ledger,
    outcome: &mut Outcome,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(rounds.len() * circuits.len());
    for &i in rounds.iter().flatten() {
        let (result, secs) = timed(|| service.compile(&circuits[i], &options()));
        latencies.push(secs * 1e3);
        outcome.count(result.is_ok_and(|result| ledger.record(&circuits[i], result)));
    }
    latencies
}

/// Compiles `circuit` exactly as `CompileService::compile` does with the
/// result cache off (`Compiler::try_compile`: the strategy's pipeline over
/// one `PassContext`), one span per pass, and returns the output hash.
fn traced_compile(
    recorder: &Recorder,
    device: &Device,
    model: &dyn LatencyModel,
    fingerprint: &[u8],
    circuit: &Circuit,
    request: u64,
) -> Option<u64> {
    let options = options();
    let pipeline = options.strategy.pipeline();
    let names = pipeline.pass_names();
    recorder.scope("request", request, || {
        let ctx = PassContext::new(
            circuit,
            device,
            model,
            &options,
            threadpool::ThreadPool::new(GRAPE_THREADS),
        )
        .with_backend_fingerprint(fingerprint);
        let mut state = PassState::default();
        for (index, name) in names.iter().enumerate() {
            recorder
                .scope(name, request, || pipeline.run_pass(index, &mut state, &ctx))
                .ok()?;
        }
        let identity = || Layout::identity(circuit.n_qubits());
        Some(output_hash(
            &state.instructions,
            state.latencies.as_deref()?,
            state.schedule.as_ref()?.makespan,
            &state.initial_layout.unwrap_or_else(identity),
            &state.final_layout.unwrap_or_else(identity),
        ))
    })
}

/// Replays `rounds` through [`traced_compile`] over `model`, counting a
/// request as failed unless it reproduces the ledger's output. Returns the
/// traced wall seconds.
fn traced_phase(
    recorder: &Recorder,
    device: &Device,
    model: &dyn LatencyModel,
    circuits: &[Circuit],
    rounds: &[Vec<usize>],
    ledger: &Ledger,
    outcome: &mut Outcome,
) -> f64 {
    // `CompileService::with_model` identifies its target by the device
    // encoding plus the model name; the wrapper forwards the name.
    let mut fingerprint = Vec::new();
    device.encode_into(&mut fingerprint);
    fingerprint.extend_from_slice(model.name().as_bytes());
    let started = Instant::now();
    for (request, &i) in rounds.iter().flatten().enumerate() {
        let hash = traced_compile(
            recorder,
            device,
            model,
            &fingerprint,
            &circuits[i],
            request as u64,
        );
        outcome
            .count(hash.is_some_and(|h| ledger.matches(&circuits[i], Strategy::ClsAggregation, h)));
    }
    started.elapsed().as_secs_f64()
}

/// `grape-cold`: one closed-loop client compiles the list under
/// CLS+Aggregation through a service sharing one fresh
/// `GrapeLatencyModel::fast_two_qubit()`. Each timed pass gets a fresh
/// model, so every pass solves every key once.
///
/// The requests and their order are fixed; `seed` only names the trace
/// file. The first request to meet a GRAPE key pays its solve, so
/// reordering would move solve time between requests and make the
/// per-request percentiles a function of the seed rather than of the
/// compiler.
pub fn cold(seed: u64, seconds: u64, trace: bool) -> (Outcome, Metrics) {
    let mut outcome = Outcome::default();
    let ((circuits, device), setup_s) = repeated_setup(COLD_SETUPS, || {
        let circuits = list();
        let device = device();
        warm_up(&device, &circuits);
        // Each pass builds its own fresh model and service; build one here
        // so their cost is part of the set-up.
        let model = GrapeLatencyModel::fast_two_qubit();
        drop(service(&device, &model));
        (circuits, device)
    });

    let rounds = in_order(&circuits);
    let mut ledger = Ledger::default();
    let mut passes = Passes::default();
    let mut stats = Vec::new();
    while passes.another(seconds) {
        let model = GrapeLatencyModel::fast_two_qubit();
        let service = service(&device, &model);
        let ms =
            passes.time(|| compile_rounds(&service, &circuits, &rounds, &mut ledger, &mut outcome));
        passes.requests(ms);
        stats.push(model.pricing_stats().expect("GRAPE model is instrumented"));
    }
    outcome.require(
        stats.windows(2).all(|w| w[0] == w[1]),
        "cold passes priced differently",
    );
    let run = Run {
        setup_s,
        passes,
        speedup: ledger.speedup_vs_isa(isa_makespan(&device)),
        queries: stats[0].queries,
        solves: stats[0].solves,
    };
    let mut layers = Layers::default();
    layers.check(&ledger, &mut outcome);
    println!(
        "{}",
        ledger.determinism_line(run.speedup, run.queries, run.solves)
    );
    if !trace {
        return (outcome, run.report());
    }

    let recorder = Recorder::default();
    let fresh = GrapeLatencyModel::fast_two_qubit();
    let traced = TracedModel::new(&fresh, &recorder);
    let traced_wall = traced_phase(
        &recorder,
        &device,
        &traced,
        &circuits,
        &rounds,
        &ledger,
        &mut outcome,
    );
    let traced_stats = fresh.pricing_stats().expect("GRAPE model is instrumented");
    outcome.require(
        traced_stats == stats[0],
        "traced pricing counts differ from the untraced passes",
    );
    layers.spans(&recorder, traced_stats.queries);
    layers.outputs(&ledger);
    layers.trace_overhead = traced_wall / run.passes.wall_s() - 1.0;
    (outcome, layers.finish(&recorder, "grape-cold", seed))
}

/// Snapshot-directory size in bytes.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `grape-warm`: the set-up cold-solves the list, snapshots the service and
/// boots a fresh service and model from the snapshot; each timed pass then
/// recompiles the list for [`WARM_ROUNDS`] rounds, each round in an order
/// drawn from `seed`, and must solve nothing.
pub fn warm(seed: u64, seconds: u64, trace: bool) -> (Outcome, Metrics) {
    let mut outcome = Outcome::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let snapshot_dir = crate::scratch_dir("snapshot");
    let mut ledger = Ledger::default();
    let mut layers = Layers::default();

    // Set-up, once: its cold solve alone runs for seconds.
    let setup_started = Instant::now();
    let circuits = list();
    let device = device();
    let cold_model = GrapeLatencyModel::fast_two_qubit();
    let cold_service = service(&device, &cold_model);
    compile_rounds(
        &cold_service,
        &circuits,
        &in_order(&circuits),
        &mut ledger,
        &mut outcome,
    );
    let (written, snapshot_s) = timed(|| cold_service.snapshot_to(&snapshot_dir));
    let model = GrapeLatencyModel::fast_two_qubit();
    let warm_service = service(&device, &model);
    let (loaded, load_s) = timed(|| warm_service.warm_start_from(&snapshot_dir));
    let setup_s = setup_started.elapsed().as_secs_f64();
    let (written, loaded) = (written.unwrap_or(0), loaded.unwrap_or(0));
    outcome.require(
        written > 0 && loaded == written,
        "the warm service did not load every snapshot record",
    );
    layers.persist = layers::Persist {
        snapshot_ms: snapshot_s * 1e3,
        load_ms: load_s * 1e3,
        records: written,
        bytes: dir_bytes(&snapshot_dir),
    };
    // Best effort: the directory only ever holds this run's snapshot.
    let _ = std::fs::remove_dir_all(&snapshot_dir);

    // Each round is a fresh permutation of the list, as indices.
    let mut draw_rounds = || -> Vec<Vec<usize>> {
        (0..WARM_ROUNDS)
            .map(|_| {
                let mut round: Vec<usize> = (0..circuits.len()).collect();
                round.shuffle(&mut rng);
                round
            })
            .collect()
    };
    let mut passes = Passes::default();
    let mut stats = Vec::new();
    while passes.another(seconds) {
        let rounds = draw_rounds();
        let before = model.pricing_stats().expect("GRAPE model is instrumented");
        let ms = passes
            .time(|| compile_rounds(&warm_service, &circuits, &rounds, &mut ledger, &mut outcome));
        passes.requests(ms);
        let after = model.pricing_stats().expect("GRAPE model is instrumented");
        stats.push(after.delta_since(&before));
    }
    // A warm phase that solves is not warm: the workload is invalid.
    outcome.require(
        stats
            .iter()
            .all(|s| s.solves == 0 && s.queries == stats[0].queries),
        "a warm pass solved GRAPE keys or priced differently",
    );
    let stats = stats[0];

    let run = Run {
        setup_s,
        passes,
        speedup: ledger.speedup_vs_isa(isa_makespan(&device)),
        queries: stats.queries,
        solves: stats.solves,
    };
    layers.check(&ledger, &mut outcome);
    println!(
        "{}",
        ledger.determinism_line(run.speedup, run.queries, run.solves)
    );
    if !trace {
        return (outcome, run.report());
    }

    let recorder = Recorder::default();
    let traced = TracedModel::new(&model, &recorder);
    let rounds = draw_rounds();
    let before = model.pricing_stats().expect("GRAPE model is instrumented");
    let traced_wall = traced_phase(
        &recorder,
        &device,
        &traced,
        &circuits,
        &rounds,
        &ledger,
        &mut outcome,
    );
    let traced_stats = model
        .pricing_stats()
        .expect("GRAPE model is instrumented")
        .delta_since(&before);
    outcome.require(
        traced_stats == stats,
        "the traced warm pass priced differently from the untraced passes",
    );
    layers.spans(&recorder, traced_stats.queries);
    layers.outputs(&ledger);
    layers.trace_overhead = traced_wall / run.passes.wall_s() - 1.0;
    (outcome, layers.finish(&recorder, "grape-warm", seed))
}
