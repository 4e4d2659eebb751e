//! `perfbench` — the repository benchmark: end-to-end and per-layer
//! metrics of the iC2mpi platform on both clocks (host and virtual).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hex_bsp|battlefield_dynamic|hex_out_of_core|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation measures one workload in its own process:
//!
//! 1. **Set-up**, timed several times (`setup_s`, median): generate the
//!    graph and program, run the static partitioner.
//! 2. **Oracle**, untimed: `seq::run_sequential` and
//!    `seq::sequential_cost` once.
//! 3. **Timed runs** for `--seconds` (at least three): `try_run` on the
//!    precomputed partition (`run_s`, `peak_rss_mib`, medians). Every run
//!    must match the oracle exactly and repeat the first run's virtual
//!    time and counters bit-for-bit; any miss fails the invocation.
//! 4. With `--trace 1`, one **traced pass**: host spans around generate,
//!    partition, `NodeStore::build`, `rebuild_lists`, `try_run` (with
//!    `RunConfig::with_tracing`) and the oracle check; per-rank virtual
//!    phase seconds and the imbalance ratio from `timeline_json`.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). Every metric is also printed above it as
//! `metric <name> = <value> <unit>`. `--workload all` runs each workload
//! in a child process and merges their metrics as `<workload>/<name>`.

mod measure;
mod workloads;

use measure::Opts;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: perfbench --workload <hex_bsp|battlefield_dynamic|hex_out_of_core|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        opts: Opts {
            seed: 1,
            seconds: 20.0,
            trace: false,
        },
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" || workloads::NAMES.contains(&value.as_str()) => {
                args.workload = value
            }
            "--workload" => return Err(bad(&"unknown workload")),
            "--seed" => args.opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.opts.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.opts.seconds >= 0.0 && args.opts.seconds <= 3600.0) {
                    return Err(bad(&"must be between 0 and 3600"));
                }
            }
            "--trace" => {
                args.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args.opts);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload, args.opts.seed, args.opts.seconds, args.opts.trace as u8
    );
    let out = workloads::run(&args.workload, &args.opts);
    for note in &out.notes {
        println!("{note}");
    }
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!(
        "metric failed_frac = {} ratio",
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!("runs attempted={} failed={}", out.attempted, out.failed);
    for p in &out.problems {
        eprintln!("FAIL: {p}");
    }
    let reported = if args.opts.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let correct = out.problems.is_empty() && !reported.is_empty();
    println!(
        "{}",
        result_json(
            correct,
            out.attempted,
            out.failed,
            reported
                .iter()
                .map(|m| (m.name.to_string(), m.value, m.unit.to_string()))
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in its own child process (so peak memory never
/// carries over between them), pass their output through, and finish with
/// one merged result line.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut merged: Vec<(String, f64, String)> = Vec::new();
    for name in workloads::NAMES {
        let child = Command::new(&exe)
            .args(["--workload", name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let output = match child {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: cannot run {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        correct &= output.status.success();
        let stdout = String::from_utf8_lossy(&output.stdout);
        for line in stdout.lines() {
            println!("{line}");
            if let Some(rest) = line.strip_prefix("runs attempted=") {
                let mut counts = rest
                    .split(" failed=")
                    .map(|n| n.parse::<u64>().unwrap_or(0));
                attempted += counts.next().unwrap_or(0);
                failed += counts.next().unwrap_or(0);
            } else if let Some((metric, value, unit)) = parse_metric_line(line) {
                merged.push((format!("{name}/{metric}"), value, unit.to_string()));
            }
        }
    }
    println!(
        "{}",
        result_json(correct, attempted, failed, merged.into_iter())
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parse a `metric <name> = <value> <unit>` line printed by a child.
fn parse_metric_line(line: &str) -> Option<(&str, f64, &str)> {
    let mut it = line.strip_prefix("metric ")?.split_whitespace();
    let name = it.next()?;
    let value = it.nth(1)?.parse().ok()?;
    Some((name, value, it.next()?))
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (String, f64, String)>,
) -> String {
    let body: Vec<String> = metrics
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a non-finite value is a bug the
            // driver should see as a missing metric, not a parse error.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
