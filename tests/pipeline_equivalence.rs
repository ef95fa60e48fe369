//! Bit-exact equivalence of the pass-pipeline compiler with the pre-refactor
//! monolithic `Compiler::compile`.
//!
//! The golden values below were captured from the monolith (single-threaded,
//! calibrated model) **before** the pass-pipeline refactor, for every
//! `Strategy` on the QAOA and Ising workloads of the paper's evaluation. The
//! refactored driver must reproduce them bit for bit: `total_bits` is the raw
//! IEEE-754 representation of `total_latency_ns`, and the two hashes are
//! FNV-1a over the bit patterns of the per-instruction latency vector and of
//! the `(index, start, duration)` triples of the final schedule.
//!
//! The `square_root_n3` rows pin one paper-scale circuit (Table 3's
//! square-root search at 3 input bits, 2,071 gates, on a 60-qubit grid). They
//! were captured before the aggregation merge check and CLS became
//! incremental, and on this circuit the merge check accepts, rejects early
//! and falls through to the exact scan, so all three outcomes stay pinned.

use qcc::compiler::{AggregationOptions, Compiler, CompilerOptions, Strategy};
use qcc::hw::{CalibratedLatencyModel, Device};
use qcc::ir::Circuit;
use qcc::workloads::{grover, ising, qaoa};

struct Golden {
    instructions: usize,
    swaps: usize,
    total_bits: u64,
    latency_hash: u64,
    schedule_hash: u64,
}

fn fnv1a(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn workloads() -> Vec<(&'static str, Circuit, Device)> {
    vec![
        (
            "qaoa_triangle",
            qaoa::paper_triangle_example(),
            Device::transmon_line(3),
        ),
        (
            "qaoa_maxcut_line_8",
            qaoa::maxcut_line(8),
            Device::transmon_grid(8),
        ),
        (
            "ising_chain_8",
            ising::ising_chain(8),
            Device::transmon_grid(8),
        ),
        (
            "square_root_n3",
            grover::square_root_benchmark(3),
            Device::transmon_grid(60),
        ),
    ]
}

#[rustfmt::skip]
fn golden() -> Vec<(&'static str, Strategy, Golden)> {
    vec![
        ("qaoa_triangle", Strategy::IsaBaseline, Golden { instructions: 17, swaps: 2, total_bits: 0x40755eedf68e8b65, latency_hash: 0xb8a8baa1495f213a, schedule_hash: 0xce6543020416514f }),
        ("qaoa_triangle", Strategy::Cls, Golden { instructions: 11, swaps: 2, total_bits: 0x40755eedf68e8b65, latency_hash: 0xf454accef8fd7128, schedule_hash: 0x4c20e90093ec1797 }),
        ("qaoa_triangle", Strategy::AggregationOnly, Golden { instructions: 7, swaps: 2, total_bits: 0x4056a54dc9463088, latency_hash: 0xe63f306a5dd1ce76, schedule_hash: 0xbb027fbf72afb0ef }),
        ("qaoa_triangle", Strategy::ClsAggregation, Golden { instructions: 7, swaps: 2, total_bits: 0x4056a54dc9463088, latency_hash: 0xe63f306a5dd1ce76, schedule_hash: 0xbb027fbf72afb0ef }),
        ("qaoa_triangle", Strategy::ClsHandOptimized, Golden { instructions: 11, swaps: 2, total_bits: 0x406d35a57a60415d, latency_hash: 0x7fc0c3c6f955278b, schedule_hash: 0x9cb650aeee5ed884 }),
        ("qaoa_maxcut_line_8", Strategy::IsaBaseline, Golden { instructions: 39, swaps: 2, total_bits: 0x40846eb1accc9fd3, latency_hash: 0x101815ff518fdb1b, schedule_hash: 0xf527ff3129b78af0 }),
        ("qaoa_maxcut_line_8", Strategy::Cls, Golden { instructions: 28, swaps: 5, total_bits: 0x40817b45a7a89c3b, latency_hash: 0x09783735bd30248e, schedule_hash: 0x2bff890e82ef9b30 }),
        ("qaoa_maxcut_line_8", Strategy::AggregationOnly, Golden { instructions: 17, swaps: 2, total_bits: 0x405fec52080eb53b, latency_hash: 0x9f89dcd53344612a, schedule_hash: 0x029dfef9d2b31d92 }),
        ("qaoa_maxcut_line_8", Strategy::ClsAggregation, Golden { instructions: 17, swaps: 2, total_bits: 0x405fec52080eb53b, latency_hash: 0x9f89dcd53344612a, schedule_hash: 0x029dfef9d2b31d92 }),
        ("qaoa_maxcut_line_8", Strategy::ClsHandOptimized, Golden { instructions: 28, swaps: 5, total_bits: 0x4079f111ad7dff81, latency_hash: 0xab3e39fb4a44a205, schedule_hash: 0x42728e2946bed552 }),
        ("ising_chain_8", Strategy::IsaBaseline, Golden { instructions: 74, swaps: 8, total_bits: 0x408806948dd29995, latency_hash: 0xdae4b3ddd84d58ad, schedule_hash: 0xeaccbc2c6b583fae }),
        ("ising_chain_8", Strategy::Cls, Golden { instructions: 46, swaps: 8, total_bits: 0x408806948dd29995, latency_hash: 0x6e2902e1812ac109, schedule_hash: 0x5716e64a18d280da }),
        ("ising_chain_8", Strategy::AggregationOnly, Golden { instructions: 19, swaps: 8, total_bits: 0x407c2418cedd79aa, latency_hash: 0x3ed56ff164eed1e0, schedule_hash: 0x7d0750e7fb4d4698 }),
        ("ising_chain_8", Strategy::ClsAggregation, Golden { instructions: 19, swaps: 8, total_bits: 0x407c2418cedd79aa, latency_hash: 0x3757a0c5f3034ad8, schedule_hash: 0x0e0f1846806f49f4 }),
        ("ising_chain_8", Strategy::ClsHandOptimized, Golden { instructions: 46, swaps: 8, total_bits: 0x40813553cbc1142b, latency_hash: 0xdac4445a79622795, schedule_hash: 0x4a4c2535d75f2cb1 }),
        ("square_root_n3", Strategy::Cls, Golden { instructions: 2346, swaps: 683, total_bits: 0x40e8252000000000, latency_hash: 0x47f4fe19580bbe58, schedule_hash: 0xa134a10455481a81 }),
        ("square_root_n3", Strategy::ClsAggregation, Golden { instructions: 1034, swaps: 744, total_bits: 0x40daaca000000000, latency_hash: 0x380847f63c4972bf, schedule_hash: 0x4f65e7e8083a58b3 }),
    ]
}

#[test]
fn every_strategy_reproduces_the_pre_refactor_monolith_bit_for_bit() {
    let workloads = workloads();
    for (name, strategy, expected) in golden() {
        let (_, circuit, device) = workloads
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("workload listed");
        let model = CalibratedLatencyModel::new(device.limits);
        let compiler = Compiler::new(device, &model).with_threads(1);
        let r = compiler.compile(
            circuit,
            &CompilerOptions {
                strategy,
                aggregation: AggregationOptions::default(),
            },
        );
        assert_eq!(
            r.instructions.len(),
            expected.instructions,
            "{name}/{strategy:?}: instruction count"
        );
        assert_eq!(r.swap_count, expected.swaps, "{name}/{strategy:?}: swaps");
        assert_eq!(
            r.total_latency_ns.to_bits(),
            expected.total_bits,
            "{name}/{strategy:?}: total latency {} != {}",
            r.total_latency_ns,
            f64::from_bits(expected.total_bits)
        );
        assert_eq!(
            fnv1a(r.latencies.iter().map(|l| l.to_bits())),
            expected.latency_hash,
            "{name}/{strategy:?}: per-instruction latency vector drifted"
        );
        assert_eq!(
            fnv1a(r.schedule.entries.iter().flat_map(|e| [
                e.index as u64,
                e.start.to_bits(),
                e.duration.to_bits()
            ])),
            expected.schedule_hash,
            "{name}/{strategy:?}: final schedule drifted"
        );
    }
}

#[test]
fn parallel_pipeline_matches_the_pinned_golden_values() {
    // The same pins must hold with the pricing fan-out enabled: thread count
    // must never leak into results.
    let workloads = workloads();
    for (name, strategy, expected) in golden() {
        let (_, circuit, device) = workloads
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("workload listed");
        let model = CalibratedLatencyModel::new(device.limits);
        let compiler = Compiler::new(device, &model).with_threads(8);
        let r = compiler.compile(
            circuit,
            &CompilerOptions {
                strategy,
                aggregation: AggregationOptions::default(),
            },
        );
        assert_eq!(
            r.total_latency_ns.to_bits(),
            expected.total_bits,
            "{name}/{strategy:?} (8 threads)"
        );
        assert_eq!(
            fnv1a(r.latencies.iter().map(|l| l.to_bits())),
            expected.latency_hash,
            "{name}/{strategy:?} (8 threads)"
        );
    }
}
