//! Layer-attributed compile benchmark for the qcc workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Four workloads, each loading one layer of the compiler hardest (see
//! `README.md` in this directory for the rationale and the layer table):
//!
//! * `grape-cold` — GRAPE-priced compiles against a fresh solve cache;
//! * `grape-warm` — the same compiles against a snapshot-loaded cache;
//! * `fullscale-batch` — the paper-scale suite through the batch engine;
//! * `serve-mix` — a hot set plus one-shot circuits through a serve session.
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) repeats the timed phase with spans and probes and prints the
//! per-layer metrics. Every run checks its outputs with the state-vector
//! simulator, prints a determinism line, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod check;
mod fullscale;
mod grape;
mod layers;
mod measure;
mod probes;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Worker threads of the `fullscale-batch` compiler and the `serve-mix`
/// service (the GRAPE workloads run on [`grape::GRAPE_THREADS`]). Pinned
/// rather than read from the host, so the request stream and the
/// speculative aggregation search are the same everywhere.
pub const THREADS: usize = 2;

/// Seed of the Table-3 suite's random graphs (MAXCUT-reg4, MAXCUT-cluster).
/// Fixed, so every workload and every run compiles the same Table-3
/// instances; `--seed` varies only what each workload draws from it.
pub const SUITE_SEED: u64 = 2019;

/// The seed the benchmark is tuned on. The held-out seed named in `USAGE`
/// is kept out of tuning, to check that a claimed gain also holds on inputs
/// it was not developed against.
const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 4] = ["grape-cold", "grape-warm", "fullscale-batch", "serve-mix"];

const USAGE: &str =
    "usage: perfbench --workload <grape-cold|grape-warm|fullscale-batch|serve-mix> \
                     [--seed <n> (default 1; held-out seed 20190413)] [--seconds <n>] \
                     [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload '{}'", parsed.workload));
    }
    Ok(parsed)
}

/// A directory under the working directory for files a run leaves behind
/// (span traces) or removes again (snapshots): `.perfbench/<kind>`.
pub fn scratch_dir(kind: &str) -> PathBuf {
    PathBuf::from(".perfbench").join(format!("{kind}-{}", std::process::id()))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = if args.workload.starts_with("grape") {
        grape::GRAPE_THREADS
    } else {
        THREADS
    };
    println!(
        "workload={} seed={} seconds={} trace={} threads={threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (outcome, metrics) = match args.workload.as_str() {
        "grape-cold" => grape::cold(args.seed, args.seconds, args.trace),
        "grape-warm" => grape::warm(args.seed, args.seconds, args.trace),
        "fullscale-batch" => fullscale::run(args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    println!("{}", measure::result_line(outcome, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse(&[
            "--workload",
            "serve-mix",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(args.workload, "serve-mix");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12, true));
        let args = parse(&["--workload", "grape-cold"]).expect("defaults");
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (DEFAULT_SEED, 10, false)
        );
    }

    #[test]
    fn rejects_bad_arguments_naming_them() {
        for (args, named) in [
            (&["--workload", "nope"][..], "nope"),
            (&["--workload", "serve-mix", "--seed", "x"][..], "x"),
            (&["--workload", "serve-mix", "--trace", "2"][..], "2"),
            (&["--workload", "serve-mix", "--bogus", "1"][..], "--bogus"),
            (&["--workload"][..], "--workload"),
        ] {
            let err = parse(args).err().expect("rejected");
            assert!(err.contains(named), "{err}");
        }
    }
}
