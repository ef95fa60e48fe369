//! The staged serving layer: `CompileService::serve` must produce results
//! bit-identical to the serial compiler for every strategy and worker count,
//! enforce backpressure (`QueueFull`) on a bounded admission queue, cancel
//! deadline-expired requests between passes, admit interactive requests ahead
//! of batch ones, stream per-pass progress, keep GRAPE solves exactly-once
//! across a serving session, and fail only the request whose model panics.

mod common;

use qcc::compiler::{
    AggregationOptions, CompileError, CompileService, Compiler, CompilerOptions, PassProgress,
    Priority, ServeConfig, ServiceError, Strategy, SubmitOptions, DEFAULT_STAGE_CAPACITY,
};
use qcc::control::GrapeLatencyModel;
use qcc::hw::{CalibratedLatencyModel, Device};
use qcc::ir::Circuit;
use qcc::workloads::{ising, qaoa};
use std::time::Duration;
use threadpool::mpmc;

fn serve_workloads(n: usize) -> Vec<Circuit> {
    vec![
        qaoa::maxcut_line(n),
        ising::ising_chain(n),
        qaoa::maxcut_reg4(n, 11),
        ising::ising_chain(n - 1),
    ]
}

#[test]
fn served_results_are_bit_identical_to_serial_for_every_strategy_and_worker_count() {
    let circuits = serve_workloads(6);
    let device = Device::transmon_grid(6);
    let model = CalibratedLatencyModel::new(device.limits);
    let serial = Compiler::new(&device, &model).with_threads(1);
    for strategy in Strategy::all() {
        let options = CompilerOptions::strategy(strategy);
        let references: Vec<_> = circuits
            .iter()
            .map(|c| serial.compile(c, &options))
            .collect();
        // Capacity 1 forces constant backpressure through every stage.
        for (workers, stage_capacity) in [
            (1usize, DEFAULT_STAGE_CAPACITY),
            (4, DEFAULT_STAGE_CAPACITY),
            (8, DEFAULT_STAGE_CAPACITY),
            (8, 1),
        ] {
            // Cache disabled: every request must really flow through the
            // staged pipeline.
            let service = CompileService::new(&device).with_compile_cache(0);
            let config = ServeConfig {
                workers,
                stage_capacity,
                ..ServeConfig::default()
            };
            let served = service.serve(config, |handle| {
                let tickets: Vec<_> = circuits
                    .iter()
                    .map(|c| {
                        handle
                            .submit(c, &options, SubmitOptions::default())
                            .expect("default queue has room")
                    })
                    .collect();
                tickets
                    .into_iter()
                    .map(|t| handle.wait(t).expect("compile succeeds"))
                    .collect::<Vec<_>>()
            });
            for (i, (got, reference)) in served.iter().zip(&references).enumerate() {
                assert_eq!(
                    got.total_latency_ns.to_bits(),
                    reference.total_latency_ns.to_bits(),
                    "{strategy:?}: request {i} at {workers} workers, stage capacity \
                     {stage_capacity} drifted from serial"
                );
                assert_eq!(got.instructions, reference.instructions);
                assert_eq!(got.latencies.len(), reference.latencies.len());
                for (a, b) in got.latencies.iter().zip(&reference.latencies) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{strategy:?}: request {i}");
                }
                assert_eq!(got.swap_count, reference.swap_count);
            }
        }
    }
}

#[test]
fn full_admission_queue_rejects_with_backpressure() {
    let device = Device::transmon_grid(4);
    let service = CompileService::new(&device).with_compile_cache(0);
    let options = CompilerOptions::strategy(Strategy::Cls);
    let a = qaoa::maxcut_line(4);
    let b = ising::ising_chain(4);
    let c = qaoa::maxcut_line(3);
    // A paused session with a size-1 queue: the first submit occupies the
    // only slot (no worker drains it), so the second must be rejected.
    let config = ServeConfig {
        queue_capacity: 1,
        workers: 1,
        start_paused: true,
        ..ServeConfig::default()
    };
    service.serve(config, |handle| {
        let first = handle
            .submit(&a, &options, SubmitOptions::default())
            .expect("first submit fits the queue");
        let rejected = handle.submit(&b, &options, SubmitOptions::default());
        assert_eq!(rejected.unwrap_err(), ServiceError::QueueFull);
        let also_rejected = handle.submit(
            &c,
            &options,
            SubmitOptions::default().priority(Priority::Batch),
        );
        assert_eq!(also_rejected.unwrap_err(), ServiceError::QueueFull);
        // Backpressure is transient: once the queue drains, submits succeed.
        handle.resume();
        assert!(handle.wait(first).is_ok());
        let retried = handle
            .submit(&b, &options, SubmitOptions::default())
            .expect("queue drained, submit fits again");
        assert!(handle.wait(retried).is_ok());
    });
    let stats = service.compile_cache_stats();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.completed, 2);
}

#[test]
fn expired_deadlines_cancel_requests_between_passes() {
    let device = Device::transmon_grid(4);
    let service = CompileService::new(&device).with_compile_cache(0);
    let options = CompilerOptions::strategy(Strategy::ClsAggregation);
    let circuit = qaoa::maxcut_line(4);
    let config = ServeConfig {
        workers: 1,
        start_paused: true,
        ..ServeConfig::default()
    };
    let (expired, fine) = service.serve(config, |handle| {
        // Submitted while paused with a deadline that lapses before any
        // worker touches it: the first (admission-time) deadline gate — the
        // same check that runs between every pair of passes — cancels it.
        let doomed = handle
            .submit(
                &circuit,
                &options,
                SubmitOptions::default().deadline(Duration::from_millis(1)),
            )
            .expect("queue has room");
        let relaxed = handle
            .submit(
                &circuit,
                &options,
                SubmitOptions::default().deadline(Duration::from_secs(3600)),
            )
            .expect("queue has room");
        std::thread::sleep(Duration::from_millis(20));
        handle.resume();
        (handle.wait(doomed), handle.wait(relaxed))
    });
    assert_eq!(expired.unwrap_err(), ServiceError::DeadlineExpired);
    assert!(fine.is_ok(), "a generous deadline must not cancel anything");
    let stats = service.compile_cache_stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.submitted, 2);
    // Terminal outcomes partition: the cancelled request counts under
    // deadline_expired, the finished one under completed.
    assert_eq!(stats.completed, 1);
}

#[test]
fn interactive_requests_are_admitted_before_queued_batch_work() {
    let device = Device::transmon_grid(5);
    let service = CompileService::new(&device).with_compile_cache(0);
    let options = CompilerOptions::strategy(Strategy::Cls);
    let config = ServeConfig {
        workers: 1,
        start_paused: true,
        ..ServeConfig::default()
    };
    // One progress channel for every request: with a single worker, events
    // arrive in execution order.
    let (tx, rx) = mpmc::bounded::<PassProgress>(64);
    let urgent = service.serve(config, |handle| {
        // Queue three batch requests first, then one interactive request.
        // With admission paused nothing has started, so on resume the single
        // worker must pick the interactive one first.
        let batch: Vec<_> = (3..6)
            .map(|n| {
                handle
                    .submit(
                        &ising::ising_chain(n),
                        &options,
                        SubmitOptions::default()
                            .priority(Priority::Batch)
                            .progress(tx.clone()),
                    )
                    .expect("queue has room")
            })
            .collect();
        let urgent = handle
            .submit(
                &qaoa::maxcut_line(5),
                &options,
                SubmitOptions::default()
                    .priority(Priority::Interactive)
                    .progress(tx.clone()),
            )
            .expect("queue has room");
        handle.resume();
        for t in &batch {
            assert!(handle.wait(*t).is_ok());
        }
        assert!(handle.wait(urgent).is_ok());
        urgent
    });
    let order: Vec<_> = rx.drain().into_iter().map(|e| e.ticket).collect();
    let passes = options.strategy.pipeline().len();
    assert_eq!(
        order.len(),
        4 * passes,
        "one event per pass of every request"
    );
    assert!(
        order[..passes].iter().all(|&t| t == urgent),
        "the interactive request must run every pass before any batch request: {order:?}"
    );
}

#[test]
fn progress_streams_one_report_per_pass_in_recipe_order() {
    let device = Device::transmon_grid(4);
    let service = CompileService::new(&device).with_compile_cache(0);
    let strategy = Strategy::ClsAggregation;
    let options = CompilerOptions::strategy(strategy);
    let circuit = qaoa::maxcut_line(4);
    let expected = strategy.pipeline().pass_names();
    let (tx, rx) = mpmc::bounded::<PassProgress>(64);
    let ticket = service.serve(ServeConfig::default(), |handle| {
        let ticket = handle
            .submit(&circuit, &options, SubmitOptions::default().progress(tx))
            .expect("queue has room");
        handle.wait(ticket).expect("compile succeeds");
        ticket
    });
    let events = rx.drain();
    assert_eq!(
        events.iter().map(|e| e.report.pass).collect::<Vec<_>>(),
        expected,
        "one progress event per pass, in recipe order"
    );
    assert!(events.iter().all(|e| e.ticket == ticket));
}

#[test]
fn serving_sessions_keep_grape_solves_exactly_once() {
    let circuits: Vec<Circuit> = (0..4).map(|_| qaoa::paper_triangle_example()).collect();
    let device = Device::transmon_line(3);
    let options = CompilerOptions {
        strategy: Strategy::ClsAggregation,
        aggregation: AggregationOptions::with_width(2),
    };
    let model = GrapeLatencyModel::fast_two_qubit();
    // Borrow the model into the service so its solve counters stay readable.
    let service = CompileService::with_model(&device, Box::new(&model)).with_compile_cache(0);
    let served = service.serve(ServeConfig::default(), |handle| {
        let tickets: Vec<_> = circuits
            .iter()
            .map(|c| {
                handle
                    .submit(c, &options, SubmitOptions::default())
                    .expect("queue has room")
            })
            .collect();
        tickets
            .into_iter()
            .map(|t| handle.wait(t).expect("compile succeeds"))
            .collect::<Vec<_>>()
    });
    assert_eq!(
        model.solve_count(),
        model.cached_entries(),
        "every GRAPE key must be solved exactly once across the session"
    );
    let reference_model = GrapeLatencyModel::fast_two_qubit();
    let reference = Compiler::new(&device, &reference_model)
        .with_threads(1)
        .compile(&circuits[0], &options);
    for (i, r) in served.iter().enumerate() {
        assert_eq!(
            r.total_latency_ns.to_bits(),
            reference.total_latency_ns.to_bits(),
            "served request {i} drifted from the serial compile"
        );
    }
}

#[test]
fn service_batch_counts_every_request_including_cache_hits() {
    let circuits = serve_workloads(6);
    let device = Device::transmon_grid(6);
    let service = CompileService::new(&device).with_threads(4);
    let options = CompilerOptions::strategy(Strategy::ClsAggregation);
    let results = service.compile_batch(&circuits, &options);
    assert!(results.iter().all(|r| r.is_ok()));
    let stats = service.compile_cache_stats();
    assert_eq!(stats.submitted, circuits.len());
    assert_eq!(stats.completed, circuits.len());
    assert_eq!(stats.rejected, 0);
    // A repeat batch is answered from the compile cache but still counted.
    let again = service.compile_batch(&circuits, &options);
    assert!(again.iter().all(|r| r.is_ok()));
    let stats = service.compile_cache_stats();
    assert_eq!(stats.submitted, 2 * circuits.len());
    assert_eq!(stats.completed, 2 * circuits.len());
}

#[test]
fn a_panicking_model_fails_its_ticket_and_the_worker_keeps_serving() {
    let options = CompilerOptions::strategy(Strategy::ClsAggregation);
    let healthy = qaoa::maxcut_line(4);
    let poisoned = common::poisoned(&ising::ising_chain(4));
    // The session runs on its own thread so a hang fails this test at the
    // timeout instead of stalling the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let session = {
        let healthy = healthy.clone();
        let options = options.clone();
        std::thread::spawn(move || {
            let device = Device::transmon_line(4);
            let model = common::PoisonedModel(CalibratedLatencyModel::new(device.limits));
            let service =
                CompileService::with_model(&device, Box::new(model)).with_compile_cache(0);
            let config = ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            };
            let outcomes = service.serve(config, |handle| {
                let bad = handle
                    .submit(&poisoned, &options, SubmitOptions::default())
                    .expect("queue has room");
                let good = handle
                    .submit(&healthy, &options, SubmitOptions::default())
                    .expect("queue has room");
                (handle.wait(bad), handle.wait(good))
            });
            let _ = tx.send((outcomes, service.compile_cache_stats()));
        })
    };
    let ((bad, good), stats) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the serving session hung after a model panic");
    session.join().expect("session thread finished");
    match bad {
        Err(ServiceError::Compile(CompileError::Panicked { message })) => {
            assert!(message.contains("marker gate"), "{message}")
        }
        other => panic!("expected a panicked compile, got {other:?}"),
    }
    let device = Device::transmon_line(4);
    let model = CalibratedLatencyModel::new(device.limits);
    let reference = Compiler::new(&device, &model)
        .with_threads(1)
        .try_compile(&healthy, &options)
        .unwrap();
    let good = good.expect("the healthy request compiles after the panic");
    assert_eq!(
        good.total_latency_ns.to_bits(),
        reference.total_latency_ns.to_bits()
    );
    assert_eq!(good.instructions, reference.instructions);
    for (a, b) in good.latencies.iter().zip(&reference.latencies) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!((stats.submitted, stats.completed), (2, 2));
}

#[test]
fn a_panicking_model_fails_only_its_synchronous_request() {
    // The synchronous front door contains a panic like the serve workers do:
    // the request fails with `Panicked` and still counts as completed.
    let device = Device::transmon_line(4);
    let model = common::PoisonedModel(CalibratedLatencyModel::new(device.limits));
    let service = CompileService::with_model(&device, Box::new(model));
    let options = CompilerOptions::strategy(Strategy::ClsAggregation);
    let poisoned = common::poisoned(&ising::ising_chain(4));
    match service.compile(&poisoned, &options) {
        Err(CompileError::Panicked { message }) => {
            assert!(message.contains("marker gate"), "{message}")
        }
        other => panic!("expected a panicked compile, got {other:?}"),
    }
    let stats = service.compile_cache_stats();
    assert_eq!((stats.submitted, stats.completed), (1, 1));
}
