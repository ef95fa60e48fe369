//! Serialization for the persistent cache tier.
//!
//! The container format — versioned header, length-prefixed checksummed
//! records, atomic write-temp-then-rename — lives in [`qcc_hw::persist`] and
//! is re-exported here; this module adds the [`CompilationResult`] codec the
//! [`CompileService`](crate::CompileService) result cache spills through, and
//! the strict `QCC_CACHE_DIR` environment parsing used by examples and
//! benches.
//!
//! # Snapshot lifecycle
//!
//! A service snapshots into a *directory*, one file per cache:
//! `grape-latency-cache-<hex16>.qccsnap` for the latency model's solve cache
//! (when the model has one) and `compile-results-<hex16>.qccsnap` for the
//! compile-result cache. The hex token is the FNV-1a 64 hash of each cache's
//! own fingerprint namespace — device and model identity plus, for the
//! result cache, the model's solver fingerprint — so services for different
//! targets can share one directory without aliasing. Loads are strict underneath
//! ([`PersistError`] naming any mismatch) with degrade-to-cold wrappers on
//! top: a missing, corrupt, truncated, foreign-version, or
//! differently-calibrated snapshot simply leaves the cache empty. See the
//! [`qcc_hw::persist`] module docs for the byte-level format and the version
//! policy.
//!
//! The codec is layered on the same injective little-endian `encode_into`
//! encodings the cache keys use: integers little-endian, floats as raw
//! `f64::to_bits` patterns (bit-exact round-trips, NaN included),
//! instructions via [`Instruction::encode_into`]. Decoding is total: any
//! malformed stream returns a [`DecodeError`], never panics, and
//! [`decode_result`] rejects trailing bytes so a record either round-trips
//! bit-identically or fails loudly.

use crate::aggregate::AggregationStats;
use crate::instr::{AggregateInstruction, InstructionOrigin};
use crate::mapping::Layout;
use crate::passes::{intern_pass_name, PassReport};
use crate::pipeline::{CompilationResult, Strategy};
use crate::schedule::{Schedule, ScheduledInstruction};
use qcc_hw::PricingStats;
use qcc_ir::{ByteCursor, DecodeError, Instruction};
use std::path::PathBuf;
use std::time::Duration;

pub use qcc_hw::persist::{
    fnv64, hex16, load_records, parse, write_atomic, PersistentCache, SnapshotWriter,
    FORMAT_VERSION, MAGIC, SNAPSHOT_EXTENSION,
};
pub use qcc_hw::PersistError;

/// Snapshot kind tag of the compile-result cache (see [`qcc_hw::persist`]).
pub const COMPILE_SNAPSHOT_KIND: &str = "compile-result-cache";

fn strategy_tag(s: Strategy) -> u8 {
    match s {
        Strategy::IsaBaseline => 0,
        Strategy::Cls => 1,
        Strategy::AggregationOnly => 2,
        Strategy::ClsAggregation => 3,
        Strategy::ClsHandOptimized => 4,
    }
}

fn strategy_from_tag(tag: u8, offset: usize) -> Result<Strategy, DecodeError> {
    Ok(match tag {
        0 => Strategy::IsaBaseline,
        1 => Strategy::Cls,
        2 => Strategy::AggregationOnly,
        3 => Strategy::ClsAggregation,
        4 => Strategy::ClsHandOptimized,
        _ => {
            return Err(DecodeError {
                what: "strategy tag",
                offset,
            })
        }
    })
}

fn origin_tag(o: InstructionOrigin) -> u8 {
    match o {
        InstructionOrigin::Single => 0,
        InstructionOrigin::RoutingSwap => 1,
        InstructionOrigin::DiagonalBlock => 2,
        InstructionOrigin::Aggregated => 3,
        InstructionOrigin::HandOptimized => 4,
    }
}

fn origin_from_tag(tag: u8, offset: usize) -> Result<InstructionOrigin, DecodeError> {
    Ok(match tag {
        0 => InstructionOrigin::Single,
        1 => InstructionOrigin::RoutingSwap,
        2 => InstructionOrigin::DiagonalBlock,
        3 => InstructionOrigin::Aggregated,
        4 => InstructionOrigin::HandOptimized,
        _ => {
            return Err(DecodeError {
                what: "instruction origin tag",
                offset,
            })
        }
    })
}

fn push_usize(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn encode_aggregate(inst: &AggregateInstruction, out: &mut Vec<u8>) {
    push_usize(out, inst.constituents.len());
    for c in &inst.constituents {
        c.encode_into(out);
    }
    push_usize(out, inst.qubits.len());
    for &q in &inst.qubits {
        push_usize(out, q);
    }
    out.push(origin_tag(inst.origin));
}

fn decode_aggregate(cur: &mut ByteCursor<'_>) -> Result<AggregateInstruction, DecodeError> {
    let n_constituents = cur.len("aggregate constituent count")?;
    let mut constituents = Vec::with_capacity(n_constituents.min(1024));
    for _ in 0..n_constituents {
        constituents.push(Instruction::decode_from(cur)?);
    }
    let n_qubits = cur.len("aggregate qubit count")?;
    let mut qubits = Vec::with_capacity(n_qubits.min(1024));
    for _ in 0..n_qubits {
        qubits.push(cur.len("aggregate qubit index")?);
    }
    let tag_offset = cur.offset();
    let origin = origin_from_tag(cur.u8("instruction origin tag")?, tag_offset)?;
    Ok(AggregateInstruction {
        constituents,
        qubits,
        origin,
    })
}

fn encode_layout(layout: &Layout, out: &mut Vec<u8>) {
    push_usize(out, layout.physical.len());
    for &p in &layout.physical {
        push_usize(out, p);
    }
}

fn decode_layout(cur: &mut ByteCursor<'_>) -> Result<Layout, DecodeError> {
    let n = cur.len("layout length")?;
    let mut physical = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        physical.push(cur.len("layout physical index")?);
    }
    Ok(Layout { physical })
}

/// Appends the bespoke binary encoding of a [`CompilationResult`] to `out`.
///
/// Every field round-trips bit-identically through [`decode_result`]: floats
/// as raw bit patterns, pass wall-clock times at full nanosecond precision,
/// pricing deltas intact. The encoding is self-delimiting, so results can be
/// concatenated (the snapshot container stores one per record anyway).
pub fn encode_result(result: &CompilationResult, out: &mut Vec<u8>) {
    out.push(strategy_tag(result.strategy));
    push_usize(out, result.instructions.len());
    for inst in &result.instructions {
        encode_aggregate(inst, out);
    }
    push_usize(out, result.latencies.len());
    for &l in &result.latencies {
        push_f64(out, l);
    }
    push_usize(out, result.schedule.entries.len());
    for e in &result.schedule.entries {
        push_usize(out, e.index);
        push_f64(out, e.start);
        push_f64(out, e.duration);
    }
    push_f64(out, result.schedule.makespan);
    push_f64(out, result.total_latency_ns);
    push_usize(out, result.swap_count);
    push_usize(out, result.aggregation.merges);
    push_usize(out, result.aggregation.passes);
    push_f64(out, result.aggregation.makespan_before);
    push_f64(out, result.aggregation.makespan_after);
    push_usize(out, result.reports.len());
    for r in &result.reports {
        push_usize(out, r.pass.len());
        out.extend_from_slice(r.pass.as_bytes());
        push_usize(out, r.instructions);
        push_usize(out, r.gates);
        // Pass wall times fit u64 nanoseconds for ~584 years.
        out.extend_from_slice(&(r.wall_time.as_nanos() as u64).to_le_bytes());
        match &r.pricing {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                push_usize(out, p.queries);
                push_usize(out, p.solves);
            }
        }
    }
    encode_layout(&result.initial_layout, out);
    encode_layout(&result.final_layout, out);
}

/// Decodes one [`CompilationResult`] written by [`encode_result`], consuming
/// exactly its bytes from `cur`. Any truncation, foreign tag, or unknown pass
/// name is a [`DecodeError`] — the decoder never panics and never returns a
/// partially-read result.
pub fn decode_result(cur: &mut ByteCursor<'_>) -> Result<CompilationResult, DecodeError> {
    let tag_offset = cur.offset();
    let strategy = strategy_from_tag(cur.u8("strategy tag")?, tag_offset)?;
    let n_instructions = cur.len("instruction count")?;
    let mut instructions = Vec::with_capacity(n_instructions.min(4096));
    for _ in 0..n_instructions {
        instructions.push(decode_aggregate(cur)?);
    }
    let n_latencies = cur.len("latency count")?;
    let mut latencies = Vec::with_capacity(n_latencies.min(4096));
    for _ in 0..n_latencies {
        latencies.push(cur.f64("latency value")?);
    }
    let n_entries = cur.len("schedule entry count")?;
    let mut entries = Vec::with_capacity(n_entries.min(4096));
    for _ in 0..n_entries {
        entries.push(ScheduledInstruction {
            index: cur.len("schedule entry index")?,
            start: cur.f64("schedule entry start")?,
            duration: cur.f64("schedule entry duration")?,
        });
    }
    let makespan = cur.f64("schedule makespan")?;
    let total_latency_ns = cur.f64("total latency")?;
    let swap_count = cur.len("swap count")?;
    let aggregation = AggregationStats {
        merges: cur.len("aggregation merges")?,
        passes: cur.len("aggregation passes")?,
        makespan_before: cur.f64("aggregation makespan before")?,
        makespan_after: cur.f64("aggregation makespan after")?,
    };
    let n_reports = cur.len("report count")?;
    let mut reports = Vec::with_capacity(n_reports.min(64));
    for _ in 0..n_reports {
        let name_len = cur.len("pass name length")?;
        let name_offset = cur.offset();
        let name_bytes = cur.bytes(name_len, "pass name")?;
        let name = std::str::from_utf8(name_bytes).map_err(|_| DecodeError {
            what: "pass name (invalid utf-8)",
            offset: name_offset,
        })?;
        let pass = intern_pass_name(name).ok_or(DecodeError {
            what: "pass name (unknown pass)",
            offset: name_offset,
        })?;
        let instructions = cur.len("pass instruction count")?;
        let gates = cur.len("pass gate count")?;
        let wall_time = Duration::from_nanos(cur.u64("pass wall time")?);
        let pricing_offset = cur.offset();
        let pricing = match cur.u8("pricing flag")? {
            0 => None,
            1 => Some(PricingStats {
                queries: cur.len("pricing queries")?,
                solves: cur.len("pricing solves")?,
            }),
            _ => {
                return Err(DecodeError {
                    what: "pricing flag",
                    offset: pricing_offset,
                })
            }
        };
        reports.push(PassReport {
            pass,
            instructions,
            gates,
            wall_time,
            pricing,
        });
    }
    let initial_layout = decode_layout(cur)?;
    let final_layout = decode_layout(cur)?;
    Ok(CompilationResult {
        strategy,
        instructions,
        latencies,
        schedule: Schedule { entries, makespan },
        total_latency_ns,
        swap_count,
        aggregation,
        reports,
        initial_layout,
        final_layout,
    })
}

/// Parses a `QCC_CACHE_DIR`-style value into a snapshot directory. Strict:
/// `None`/unset means "persistence off" (`Ok(None)`), but a *set* value must
/// be non-empty, non-whitespace, and must not name an existing
/// non-directory, with errors naming the offending value.
pub fn cache_dir_from(value: Option<&str>) -> Result<Option<PathBuf>, String> {
    let Some(raw) = value else {
        return Ok(None);
    };
    if raw.trim().is_empty() {
        return Err(format!(
            "QCC_CACHE_DIR must name a directory, got empty value {raw:?}"
        ));
    }
    let path = PathBuf::from(raw);
    if path.exists() && !path.is_dir() {
        return Err(format!(
            "QCC_CACHE_DIR must name a directory, but {raw:?} is a file"
        ));
    }
    Ok(Some(path))
}

/// Reads `QCC_CACHE_DIR` through [`cache_dir_from`].
///
/// # Panics
///
/// Panics with the offending value when the variable is set but invalid —
/// a misconfigured cache dir should fail loudly at boot, not silently run
/// cold forever.
pub fn cache_dir_from_env() -> Option<PathBuf> {
    let value = std::env::var("QCC_CACHE_DIR").ok();
    cache_dir_from(value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_dir_parsing_is_strict_and_names_the_value() {
        assert_eq!(cache_dir_from(None), Ok(None));
        assert_eq!(
            cache_dir_from(Some("/tmp/qcc-cache")),
            Ok(Some(PathBuf::from("/tmp/qcc-cache")))
        );
        let err = cache_dir_from(Some("")).unwrap_err();
        assert!(
            err.contains("QCC_CACHE_DIR") && err.contains("\"\""),
            "{err}"
        );
        let err = cache_dir_from(Some("   ")).unwrap_err();
        assert!(err.contains("\"   \""), "{err}");
        // An existing regular file is not a usable cache directory.
        let file = std::env::temp_dir().join(format!("qcc-cachedir-{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let err = cache_dir_from(Some(file.to_str().unwrap())).unwrap_err();
        assert!(err.contains("is a file"), "{err}");
        std::fs::remove_file(&file).unwrap();
    }

    #[test]
    fn unknown_pass_names_are_rejected() {
        assert_eq!(crate::passes::intern_pass_name("route"), Some("route"));
        assert_eq!(crate::passes::intern_pass_name("not-a-pass"), None);
    }
}
