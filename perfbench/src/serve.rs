//! `serve-mix`: two closed-loop clients against one `CompileService::serve`
//! session on a 4×4 grid with the analytic model and the default result
//! cache (64 entries, SHiP). The seeded stream mixes a hot set of Table-3
//! circuits, smaller than the cache, with one-shot circuits drawn fresh for
//! each request, far more than the cache holds.

use crate::layers::{self, Layers, Run};
use crate::measure::{
    isa_makespan, median, repeated_setup, result_hash, timed, Ledger, Metrics, Outcome, Passes,
};
use crate::trace::{Recorder, TracedModel};
use crate::{grape, THREADS};
use qcc_core::{
    CompilationResult, CompileService, CompilerOptions, PassProgress, ServeConfig, ServiceError,
    Strategy, SubmitOptions, Ticket,
};
use qcc_graph::generators::random_regular_graph;
use qcc_hw::{CalibratedLatencyModel, Device};
use qcc_ir::Circuit;
use qcc_workloads::ising::{ising_circuit, IsingParams};
use qcc_workloads::qaoa::{maxcut_circuit, QaoaAngles};
use qcc_workloads::uccsd::uccsd_circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;
use threadpool::mpmc;

/// Share of requests drawn from the hot set; every other request is a
/// one-shot circuit.
const HOT_SHARE: f64 = 0.3;

/// Closed-loop clients; each submits, then waits for its result.
const CLIENTS: usize = 2;

/// Requests in the stream. Each timed pass serves the whole stream through
/// a fresh service (cold result cache).
const STREAM_REQUESTS: usize = 1800;

/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 25;

/// The request stream: circuits (hot set first) and, per request, the
/// circuit's index and strategy. Request `i` belongs to client
/// `i % CLIENTS`.
struct Stream {
    circuits: Vec<Circuit>,
    requests: Vec<(usize, Strategy)>,
}

/// A one-shot circuit: QAOA MAXCUT on a fresh random regular graph, an
/// Ising chain, or a UCCSD ansatz, all with random angles. They are narrow
/// (at most 9 qubits) and deep, so a compile costs milliseconds while the
/// simulator check of its output stays cheaper than the compile.
fn one_shot(rng: &mut StdRng) -> Circuit {
    match rng.gen_range(0..10u32) {
        0..=3 => {
            let n = rng.gen_range(6..=8usize);
            let degree = if n % 2 == 0 && rng.gen_bool(0.5) {
                3
            } else {
                4
            };
            let graph = random_regular_graph(rng, n, degree);
            let angles: Vec<QaoaAngles> = (0..rng.gen_range(2..=4usize))
                .map(|_| QaoaAngles {
                    gamma: rng.gen_range(0.1..3.0),
                    beta: rng.gen_range(0.1..1.5),
                })
                .collect();
            maxcut_circuit(&graph, &angles)
        }
        4..=6 => ising_circuit(&IsingParams {
            n_spins: rng.gen_range(6..=9usize),
            steps: rng.gen_range(3..=8usize),
            zz_angle: rng.gen_range(0.1..1.5),
            x_angle: rng.gen_range(0.1..1.5),
            periodic: rng.gen_bool(0.5),
        }),
        _ => uccsd_circuit(4, 2, rng.gen_range(0.05..0.6)),
    }
}

fn stream(seed: u64) -> Stream {
    // The hot set: the GRAPE workloads' list of reduced Table-3 circuits,
    // 7 circuits against the 64-entry cache.
    let mut circuits = grape::list();
    let hot = circuits.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let requests = (0..STREAM_REQUESTS)
        .map(|_| {
            if rng.gen_bool(HOT_SHARE) {
                (rng.gen_range(0..hot), Strategy::ClsAggregation)
            } else {
                circuits.push(one_shot(&mut rng));
                let strategy = match rng.gen_range(0..10u32) {
                    0 => Strategy::IsaBaseline,
                    1 => Strategy::Cls,
                    _ => Strategy::ClsAggregation,
                };
                (circuits.len() - 1, strategy)
            }
        })
        .collect();
    Stream { circuits, requests }
}

/// One request as its client saw it.
struct Served {
    request: usize,
    submitted: Instant,
    finished: Instant,
    ticket: Option<Ticket>,
    result: Result<CompilationResult, ServiceError>,
}

/// Runs the stream through one serving session, each client on its own
/// thread. With `progress`, every request streams its pass events there.
fn serve_stream(
    service: &CompileService<'_>,
    stream: &Stream,
    progress: Option<&mpmc::Sender<PassProgress>>,
) -> Vec<Served> {
    service.serve(ServeConfig::default(), |handle| {
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    scope.spawn(move || {
                        let mut served = Vec::new();
                        for request in (client..stream.requests.len()).step_by(CLIENTS) {
                            let (circuit, strategy) = stream.requests[request];
                            let mut submit = SubmitOptions::default();
                            if let Some(progress) = progress {
                                submit = submit.progress(progress.clone());
                            }
                            let submitted = Instant::now();
                            let outcome = handle.submit(
                                &stream.circuits[circuit],
                                &CompilerOptions::strategy(strategy),
                                submit,
                            );
                            let (ticket, result) = match outcome {
                                Ok(ticket) => (Some(ticket), handle.wait(ticket)),
                                Err(rejected) => (None, Err(rejected)),
                            };
                            served.push(Served {
                                request,
                                submitted,
                                finished: Instant::now(),
                                ticket,
                                result,
                            });
                        }
                        served
                    })
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|client| client.join().expect("client thread panicked"))
                .collect()
        })
    })
}

/// Records every served result in request order; a failed or non-identical
/// repeat counts as a failed request.
fn record(stream: &Stream, served: &mut [Served], ledger: &mut Ledger, outcome: &mut Outcome) {
    served.sort_by_key(|s| s.request);
    for s in served.iter() {
        let circuit = &stream.circuits[stream.requests[s.request].0];
        outcome.count(match &s.result {
            Ok(result) => ledger.record(circuit, result.clone()),
            Err(_) => false,
        });
    }
}

fn service(device: &Device) -> CompileService<'_> {
    CompileService::new(device).with_threads(THREADS)
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> (Outcome, Metrics) {
    let mut outcome = Outcome::default();
    let ((stream, device), setup_s) = repeated_setup(SETUPS, || {
        let stream = stream(seed);
        let device = Device::transmon_grid(15);
        // Warm code paths and the allocator with the hot set, leaving the
        // measured cache empty.
        grape::warm_up(&device, &stream.circuits[..grape::LIST.len()]);
        // Each pass builds its own service (a cold result cache); build
        // one here so its cost is part of the set-up.
        drop(service(&device));
        (stream, device)
    });

    let mut ledger = Ledger::default();
    let mut passes = Passes::default();
    while passes.another(seconds) {
        let service = service(&device);
        let mut served = passes.time(|| serve_stream(&service, &stream, None));
        passes.requests(
            served
                .iter()
                .map(|s| (s.finished - s.submitted).as_secs_f64() * 1e3)
                .collect(),
        );
        record(&stream, &mut served, &mut ledger, &mut outcome);
    }

    let run = Run {
        setup_s,
        passes,
        speedup: ledger.speedup_vs_isa(isa_makespan(&device)),
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
    let traced = CompileService::with_model(
        &device,
        Box::new(TracedModel::new(
            CalibratedLatencyModel::new(device.limits),
            &recorder,
        )),
    )
    .with_threads(THREADS);
    let (sender, receiver) = mpmc::bounded::<PassProgress>(1 << 16);
    let ((served, events), traced_wall) = timed(|| {
        std::thread::scope(|scope| {
            let collector = scope.spawn(move || {
                let mut events: HashMap<Ticket, Vec<(PassProgress, Instant)>> = HashMap::new();
                while let Ok(event) = receiver.recv() {
                    events
                        .entry(event.ticket)
                        .or_default()
                        .push((event, Instant::now()));
                }
                events
            });
            let served = serve_stream(&traced, &stream, Some(&sender));
            drop(sender);
            (served, collector.join().expect("collector thread panicked"))
        })
    });

    let (mut hit_us, mut miss_ms, mut waits_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut reports = Vec::new();
    for s in &served {
        let circuit = &stream.circuits[stream.requests[s.request].0];
        let Ok(result) = &s.result else {
            outcome.count(false);
            continue;
        };
        outcome.count(ledger.matches(circuit, result.strategy, result_hash(result)));
        let latency = (s.finished - s.submitted).as_secs_f64();
        recorder.record("request", s.request as u64, s.submitted, s.finished);
        // A cache hit completes at submit and runs no pass.
        match s.ticket.and_then(|t| events.get(&t)) {
            None => hit_us.push(latency * 1e6),
            Some(pass_events) => {
                miss_ms.push(latency * 1e3);
                let (first, arrived) = &pass_events[0];
                let waited = (*arrived - s.submitted).saturating_sub(first.report.wall_time);
                waits_ms.push(waited.as_secs_f64() * 1e3);
                reports.extend(result.reports.iter().cloned());
            }
        }
    }
    let stats = traced.compile_cache_stats();
    let or_zero = |samples: &[f64]| {
        if samples.is_empty() {
            0.0
        } else {
            median(samples)
        }
    };
    layers.service = layers::Service {
        hit_ratio: stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        hit_us: or_zero(&hit_us),
        miss_ms: or_zero(&miss_ms),
        queue_wait_ms: or_zero(&waits_ms),
        one_shot_inserts: stats.predicted_one_shot,
    };
    layers.reports(reports.iter(), &recorder, 0);
    layers.outputs(&ledger);
    layers.trace_overhead = traced_wall / run.passes.wall_s() - 1.0;
    (outcome, layers.finish(&recorder, "serve-mix", seed))
}
