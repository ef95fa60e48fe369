//! The persistent cache tier, end to end: compile → snapshot → fresh service
//! warm-start must perform **zero** new GRAPE solves and return bit-identical
//! `CompilationResult`s, across two distinct service fingerprints with no
//! cross-lane aliasing — while corrupt, truncated, or mismatched snapshots
//! degrade to a cold start, never a panic and never a wrong latency.

use qcc::compiler::persist;
use qcc::compiler::{CompilationResult, CompileService, CompilerOptions, Strategy};
use qcc::control::GrapeLatencyModel;
use qcc::hw::{ControlLimits, Device, Topology};
use qcc::ir::{ByteCursor, Circuit, Gate};

/// A fresh scratch snapshot directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("qcc-persist-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn triangle() -> Circuit {
    let mut c = Circuit::new(2);
    c.push(Gate::H, &[0]);
    c.push(Gate::Cnot, &[0, 1]);
    c.push(Gate::Rz(0.5), &[1]);
    c.push(Gate::Cnot, &[0, 1]);
    c
}

fn second_circuit() -> Circuit {
    let mut c = Circuit::new(2);
    c.push(Gate::X, &[0]);
    c.push(Gate::H, &[1]);
    c.push(Gate::Cnot, &[1, 0]);
    c
}

/// Bit-level equality of two results via the canonical codec: every float by
/// bit pattern, every instruction, report, and layout byte-for-byte.
fn result_bits(r: &CompilationResult) -> Vec<u8> {
    let mut bytes = Vec::new();
    persist::encode_result(r, &mut bytes);
    bytes
}

/// Like [`result_bits`] but with the per-pass telemetry reports stripped:
/// wall-clock timings and per-pass solve counters legitimately differ when a
/// result is *recomputed* rather than served from cache. Everything the
/// compilation actually produced — instructions, latencies, schedule, layouts,
/// aggregate stats — must still match bit for bit.
fn artifact_bits(r: &CompilationResult) -> Vec<u8> {
    let mut stripped = r.clone();
    stripped.reports.clear();
    result_bits(&stripped)
}

#[test]
fn warm_started_service_recompiles_with_zero_grape_solves_bit_identically() {
    let dir = scratch_dir("warm");
    let device = Device::transmon_line(2);
    let options = CompilerOptions::strategy(Strategy::ClsAggregation);
    let circuits = [triangle(), second_circuit()];

    // First process: compile, snapshot.
    let grape = GrapeLatencyModel::fast_two_qubit();
    let service = CompileService::with_model(&device, Box::new(&grape)).with_threads(1);
    let originals: Vec<CompilationResult> = circuits
        .iter()
        .map(|c| service.compile(c, &options).unwrap())
        .collect();
    let solves_first_run = grape.solve_count();
    assert!(solves_first_run > 0, "GRAPE priced the first run");
    let written = service.snapshot_to(&dir).unwrap();
    assert!(written > 0);
    drop(service);
    drop(grape);

    // "Restart": a fresh model and service warm-start from the directory.
    let grape = GrapeLatencyModel::fast_two_qubit();
    let service = CompileService::with_model(&device, Box::new(&grape)).with_threads(1);
    let loaded = service.warm_start_from(&dir).unwrap();
    assert_eq!(loaded, written, "every record loads back");
    // (a) zero new GRAPE solves …
    let warm: Vec<CompilationResult> = circuits
        .iter()
        .map(|c| service.compile(c, &options).unwrap())
        .collect();
    assert_eq!(grape.solve_count(), 0, "warm start must re-solve nothing");
    // … via pure compile-cache hits …
    let stats = service.compile_cache_stats();
    assert_eq!((stats.hits, stats.misses), (2, 0));
    // … and (b) bit-identical results.
    for (orig, re) in originals.iter().zip(&warm) {
        assert_eq!(result_bits(orig), result_bits(re));
    }

    // Even with the compile-result cache disabled, the warm GRAPE cache alone
    // reprices the whole pipeline without one new solve, bit-identically.
    let grape2 = GrapeLatencyModel::fast_two_qubit();
    let uncached = CompileService::with_model(&device, Box::new(&grape2))
        .with_threads(1)
        .with_compile_cache(0);
    uncached.warm_start_from(&dir).unwrap();
    let recompiled = uncached.compile(&triangle(), &options).unwrap();
    assert_eq!(grape2.solve_count(), 0);
    assert_eq!(artifact_bits(&originals[0]), artifact_bits(&recompiled));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_backend_fingerprints_never_alias_in_one_snapshot_dir() {
    let dir = scratch_dir("two-targets");
    let options = CompilerOptions::strategy(Strategy::ClsAggregation);
    let line = Device::transmon_line(2);
    let grid = Device::transmon_with(
        Topology::Linear(2),
        ControlLimits::asplos19().scaled_drives(1.5),
    );

    let grape_a = GrapeLatencyModel::fast_two_qubit();
    let grape_b = GrapeLatencyModel::new(
        ControlLimits::asplos19().scaled_drives(1.5),
        qcc::control::GrapeConfig::fast(),
        2,
    );
    let lane_a = CompileService::with_model(&line, Box::new(&grape_a)).with_threads(1);
    let lane_b = CompileService::with_model(&grid, Box::new(&grape_b)).with_threads(1);
    let result_a = lane_a.compile(&triangle(), &options).unwrap();
    let result_b = lane_b.compile(&triangle(), &options).unwrap();
    // Distinct calibrations genuinely price differently (the aliasing hazard
    // is real, not hypothetical).
    assert_ne!(
        result_a.total_latency_ns.to_bits(),
        result_b.total_latency_ns.to_bits()
    );
    // Both lanes snapshot into the *same* directory: four distinct files.
    lane_a.snapshot_to(&dir).unwrap();
    lane_b.snapshot_to(&dir).unwrap();
    assert_ne!(
        lane_a.result_snapshot_path(&dir),
        lane_b.result_snapshot_path(&dir)
    );
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(files, 4, "two lanes, two files each");

    // Fresh lanes warm-start from the shared directory: each gets its own
    // entries back, zero solves, and lane A's results never leak into lane B.
    let fresh_a = GrapeLatencyModel::fast_two_qubit();
    let fresh_b = GrapeLatencyModel::new(
        ControlLimits::asplos19().scaled_drives(1.5),
        qcc::control::GrapeConfig::fast(),
        2,
    );
    let warm_a = CompileService::with_model(&line, Box::new(&fresh_a)).with_threads(1);
    let warm_b = CompileService::with_model(&grid, Box::new(&fresh_b)).with_threads(1);
    warm_a.warm_start_from(&dir).unwrap();
    warm_b.warm_start_from(&dir).unwrap();
    let re_a = warm_a.compile(&triangle(), &options).unwrap();
    let re_b = warm_b.compile(&triangle(), &options).unwrap();
    assert_eq!(fresh_a.solve_count(), 0);
    assert_eq!(fresh_b.solve_count(), 0);
    assert_eq!(result_bits(&result_a), result_bits(&re_a));
    assert_eq!(result_bits(&result_b), result_bits(&re_b));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn result_codec_round_trips_every_field_bit_identically() {
    let device = Device::transmon_line(2);
    let grape = GrapeLatencyModel::fast_two_qubit();
    let service = CompileService::with_model(&device, Box::new(&grape)).with_threads(1);
    for strategy in Strategy::all() {
        let result = service
            .compile(&triangle(), &CompilerOptions::strategy(strategy))
            .unwrap();
        let mut bytes = Vec::new();
        persist::encode_result(&result, &mut bytes);
        let mut cur = ByteCursor::new(&bytes);
        let decoded = persist::decode_result(&mut cur).unwrap();
        assert!(cur.is_empty(), "codec is self-delimiting");
        // Re-encoding the decoded result reproduces the bytes exactly —
        // fields round-trip bit-for-bit (floats by bit pattern, pass names
        // interned, wall times at nanosecond precision).
        assert_eq!(result_bits(&decoded), bytes);
        assert_eq!(decoded.strategy, result.strategy);
        assert_eq!(decoded.instructions, result.instructions);
        assert_eq!(
            decoded.total_latency_ns.to_bits(),
            result.total_latency_ns.to_bits()
        );
        assert_eq!(decoded.reports, result.reports);
        assert_eq!(decoded.initial_layout, result.initial_layout);
        assert_eq!(decoded.final_layout, result.final_layout);
        // Truncation never panics and never yields a result.
        for cut in 0..bytes.len() {
            let mut cur = ByteCursor::new(&bytes[..cut]);
            assert!(persist::decode_result(&mut cur).is_err(), "prefix {cut}");
        }
    }
}

#[test]
fn corrupt_or_truncated_snapshots_degrade_to_cold_start() {
    let dir = scratch_dir("corrupt");
    let device = Device::transmon_line(2);
    let options = CompilerOptions::strategy(Strategy::ClsAggregation);

    let grape = GrapeLatencyModel::fast_two_qubit();
    let service = CompileService::with_model(&device, Box::new(&grape)).with_threads(1);
    let original = service.compile(&triangle(), &options).unwrap();
    service.snapshot_to(&dir).unwrap();
    let result_path = service.result_snapshot_path(&dir);
    let model_path = service.model_snapshot_path(&dir).unwrap();

    // Corrupt one byte in the middle of each file.
    for path in [&result_path, &model_path] {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(path, &bytes).unwrap();
    }
    let grape2 = GrapeLatencyModel::fast_two_qubit();
    let cold = CompileService::with_model(&device, Box::new(&grape2)).with_threads(1);
    // Strict API rejects; boot API degrades to zero records, no panic.
    assert!(cold.warm_start_from(&dir).is_err());
    assert_eq!(cold.warm_start_or_cold(&dir), 0);
    assert_eq!(cold.compile_cache_stats().entries, 0);
    // The cold service still compiles correctly — and identically.
    let recomputed = cold.compile(&triangle(), &options).unwrap();
    assert!(grape2.solve_count() > 0, "cold start re-solves");
    assert_eq!(artifact_bits(&original), artifact_bits(&recomputed));

    // Truncated files: every strict prefix of the result snapshot fails the
    // load and leaves the service cold.
    let grape3 = GrapeLatencyModel::fast_two_qubit();
    let service3 = CompileService::with_model(&device, Box::new(&grape3)).with_threads(1);
    service3.compile(&triangle(), &options).unwrap();
    service3.snapshot_to(&dir).unwrap();
    let full = std::fs::read(&result_path).unwrap();
    for cut in [0, 1, full.len() / 2, full.len() - 1] {
        std::fs::write(&result_path, &full[..cut]).unwrap();
        let grape4 = GrapeLatencyModel::fast_two_qubit();
        let s = CompileService::with_model(&device, Box::new(&grape4)).with_threads(1);
        assert_eq!(s.warm_start_or_cold(&dir), 0, "truncated at {cut}");
        assert_eq!(s.compile_cache_stats().entries, 0);
    }

    // A missing directory is an ordinary cold start too.
    let empty = scratch_dir("never-written");
    let s = CompileService::new(&device);
    assert_eq!(s.warm_start_or_cold(&empty), 0);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshots_from_a_different_calibration_are_rejected_by_name() {
    let dir = scratch_dir("stale");
    let device = Device::transmon_line(2);
    let options = CompilerOptions::strategy(Strategy::ClsAggregation);

    let grape = GrapeLatencyModel::fast_two_qubit();
    let service = CompileService::with_model(&device, Box::new(&grape)).with_threads(1);
    service.compile(&triangle(), &options).unwrap();
    service.snapshot_to(&dir).unwrap();

    // Same device, same model *name*, different GRAPE calibration: the model
    // snapshot file lands at a different fingerprint-hashed name, so the
    // stale-read hazard is the *result* snapshot — rename the old one into
    // the new service's expected path to simulate a stale deployment.
    let grape_recal = GrapeLatencyModel::new(
        ControlLimits::asplos19(),
        qcc::control::GrapeConfig {
            max_iterations: 40,
            ..qcc::control::GrapeConfig::fast()
        },
        2,
    );
    let recal = CompileService::with_model(&device, Box::new(&grape_recal)).with_threads(1);
    std::fs::rename(
        service.result_snapshot_path(&dir),
        recal.result_snapshot_path(&dir),
    )
    .unwrap();
    let err = recal.warm_start_from(&dir).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("fingerprint mismatch"), "{msg}");
    assert_eq!(recal.compile_cache_stats().entries, 0);
    // The boot path degrades the same rejection to a cold start.
    assert_eq!(recal.warm_start_or_cold(&dir), 0);

    std::fs::remove_dir_all(&dir).unwrap();
}
