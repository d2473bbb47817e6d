//! `pypm_benchmark` — the repository's benchmark.
//!
//! ```text
//! pypm_benchmark --workload W --seed N --seconds S --trace 0|1
//!     One run of one workload. The last line of standard output is the
//!     result: the end-to-end metrics untraced, the per-layer metrics
//!     traced. Also writes benchmark/results/W.json, or W.trace.json
//!     and W.spans.json.
//! pypm_benchmark all [--seed N] [--seconds S]
//!     Every workload, untraced then traced, each in its own process;
//!     prints every end-to-end metric by name with its unit.
//! pypm_benchmark check [--seed N]
//!     Every workload's counted ops only: are the outputs correct?
//! pypm_benchmark expected
//!     Regenerates benchmark/expected.json on the reference machine.
//! ```
//!
//! Run from the repository root; `benchmark/run.sh` builds and does so.
//! The harness touches the product only through the measured surface
//! listed in `benchmark/README.md`.

mod cold;
mod expect;
mod inputs;
mod json;
mod metrics;
mod outcome;
mod probes;
mod serve;
mod stats;
mod trace;
mod util;
mod yardstick;

use expect::{Expected, DEFAULT_SEED};
use inputs::{cold_programs, serve_keys, Program, ServeKey};
use metrics::{END_TO_END, WORKLOADS};
use outcome::Outcome;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use yardstick::Sensitivity;

const RESULTS_DIR: &str = "benchmark/results";
/// What `all` measures for when `--seconds` is not given: `run_seconds`
/// of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// Ops that open the timed phase of each workload (shared equally by
/// the connections when serving): the ops program-made counts are taken
/// over, and the point at which the serving process's peak memory is
/// read.
fn counted_ops(workload: &str) -> usize {
    match workload {
        "cold_deep_restart" => 20,
        "cold_deep_incremental" => 50,
        "serve_miss" => 1_600,
        _ => 5_000,
    }
}

/// Closed-loop callers of the `serve_*` workloads. Enough to keep the
/// server's one worker saturated on this two-core box: with one or two,
/// a request mostly measures how long the VM takes to wake a sleeping
/// core (`serve_hit` p50 read anywhere from 15 to 115 µs between runs);
/// saturated, it measures the server's work per request. `serve_miss`
/// stays at four so that its connections, a quarter of a cycle apart,
/// never come within a cache's length (16) of each other's keys.
fn serve_connections(workload: &str) -> usize {
    match workload {
        "serve_miss" => 4,
        _ => 8,
    }
}

/// Fitted over six sets of ten runs. A compile that sweeps the whole
/// graph over and over (restart, and the served default) slows as the
/// yardstick does; an incremental one works where it last rewrote; a
/// cache hit is mostly system calls, but the set-up that primes the
/// cache compiles every key once.
fn sensitivity(workload: &str) -> Sensitivity {
    let (op, setup) = match workload {
        "cold_deep_restart" | "serve_miss" => (1.0, 1.0),
        "cold_deep_incremental" => (0.7, 0.7),
        _ => (0.5, 1.0),
    };
    Sensitivity { op, setup }
}

/// `serve_miss` stops at this many requests over all connections. The server
/// keeps about 30 kB per compiled request and is never trimmed, and its
/// latency depends on how many it has compiled: near 14 000 it stalls
/// for half a second, near 27 600 for three. Under a time limit alone,
/// a faster server would reach those and read slower; with the count
/// fixed, every run measures the same stretch of the server's life.
const SERVE_MISS_MOST: usize = 16_000;

#[derive(Debug)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                parsed.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                let seconds: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v} is not a number"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {v} is outside 0..=600"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v} is neither 0 nor 1")),
                }
            }
            "all" | "check" | "expected" if parsed.command.is_none() => {
                parsed.command = Some(arg.clone());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// `pypmc` is built into the directory this binary is in.
fn pypmc_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let pypmc = exe.with_file_name("pypmc");
    if pypmc.is_file() {
        Ok(pypmc)
    } else {
        Err(format!(
            "{} is missing: build it with `cargo build --release --bin pypmc` into the same \
             target directory (benchmark/run.sh does)",
            pypmc.display()
        ))
    }
}

fn run_workload(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut outcome = run_plan(workload, seed, seconds, trace)?;
    if trace {
        probes::cli_cold_start(&pypmc_path()?, &mut outcome.layer)?;
    }
    Ok(outcome)
}

fn run_plan(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let expected = Expected::load()?;
    let counted = counted_ops(workload);
    match workload {
        "cold_deep_restart" | "cold_deep_incremental" => {
            let labels: Vec<String> = cold_programs(seed).iter().map(Program::label).collect();
            let from_file = if seed == expected.seed {
                Some(Expected::outputs_for(&expected.cold, &labels)?)
            } else {
                None
            };
            cold::run(&cold::ColdPlan {
                policy: if workload == "cold_deep_restart" {
                    "restart"
                } else {
                    "incremental"
                },
                make_programs: &|| cold_programs(seed),
                counted,
                seconds,
                sensitivity: sensitivity(workload),
                trace,
                expected: from_file.as_deref(),
                seed,
            })
        }
        "serve_miss" | "serve_hit" => {
            let labels: Vec<String> = serve_keys().iter().map(ServeKey::label).collect();
            let outputs = Expected::outputs_for(&expected.serve, &labels)?;
            let connections = serve_connections(workload);
            serve::run(&serve::ServePlan {
                hit: workload == "serve_hit",
                connections,
                pypmc: &pypmc_path()?,
                seed,
                counted: counted / connections,
                most: if workload == "serve_miss" {
                    SERVE_MISS_MOST
                } else {
                    usize::MAX
                },
                seconds,
                sensitivity: sensitivity(workload),
                trace,
                expected: &outputs,
            })
        }
        other => Err(format!(
            "unknown workload {other} (want {})",
            WORKLOADS.join("|")
        )),
    }
}

fn write_results(
    workload: &str,
    args: &Args,
    seconds: f64,
    outcome: &Outcome,
) -> Result<(), String> {
    let write = |name: String, text: String| {
        let path = Path::new(RESULTS_DIR).join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    std::fs::create_dir_all(RESULTS_DIR)
        .map_err(|e| format!("cannot create {RESULTS_DIR}: {e}"))?;
    let file = outcome.result_file(workload, args.seed, seconds, args.trace);
    if args.trace {
        write(format!("{workload}.trace.json"), file)?;
        write(format!("{workload}.spans.json"), outcome.spans_file())
    } else {
        write(format!("{workload}.json"), file)
    }
}

/// One run, as the driver asks for it.
fn run_one(args: &Args) -> Result<bool, String> {
    let workload = args.workload.as_deref().ok_or("--workload is required")?;
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let outcome = run_workload(workload, args.seed, seconds, args.trace)?;
    for failure in outcome.failures.iter().take(20) {
        eprintln!("pypm_benchmark: {workload}: {failure}");
    }
    let n = outcome.op_ms.len();
    if stats::samples_beyond(n.max(1), 90.0) < 10 {
        eprintln!("pypm_benchmark: {workload}: {n} samples leave fewer than ten beyond op_p90_ms");
    }
    write_results(workload, args, seconds, &outcome)?;
    println!("{}", outcome.result_line(args.trace));
    Ok(outcome.correct())
}

/// Runs this executable on one workload and returns its result line.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() && last.is_empty() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    json::parse(last).map_err(|e| format!("{workload} printed no result line: {e}"))
}

/// `all` and `check`: each workload in a process of its own, so that
/// peak memory is the workload's.
fn run_every(args: &Args, check_only: bool) -> Result<bool, String> {
    let seconds = if check_only {
        0.0
    } else {
        args.seconds.unwrap_or(DEFAULT_SECONDS)
    };
    let mut all_correct = true;
    for workload in WORKLOADS {
        let line = child_run(workload, args.seed, seconds, false)?;
        let correct = line.get("correct") == Some(&json::Value::Bool(true));
        let attempted = line.num("attempted").unwrap_or(0.0);
        let failed = line.num("failed").unwrap_or(0.0);
        all_correct &= correct;
        println!("{workload}  (seed {}, {seconds} s)", args.seed);
        println!(
            "  {:<18} {:>14}        ({failed} of {attempted} ops){}",
            "failed_share",
            failed / attempted.max(1.0),
            if correct { "" } else { "   INCORRECT" }
        );
        if check_only {
            continue;
        }
        let metrics = line.get("metrics").ok_or("result line lacks metrics")?;
        for m in END_TO_END {
            let value = metrics
                .get(m.name)
                .and_then(|v| v.num("value"))
                .ok_or_else(|| format!("{workload} did not report {}", m.name))?;
            println!(
                "  {:<18} {value:>14.4} {:<6} ({} is better)",
                m.name, m.unit, m.better
            );
        }
        let traced = child_run(workload, args.seed, seconds, true)?;
        all_correct &= traced.get("correct") == Some(&json::Value::Bool(true));
        let overhead = traced
            .get("metrics")
            .and_then(|m| m.get("pypm-benchmark.trace_overhead"))
            .and_then(|v| v.num("value"))
            .unwrap_or(0.0);
        println!(
            "  {:<18} {overhead:>14.4} ratio  (traced run)",
            "trace_overhead"
        );
    }
    if !check_only {
        println!("results: {RESULTS_DIR}/<workload>.json, .trace.json, .spans.json");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match args.command.as_deref() {
        None => run_one(&args),
        Some("expected") => {
            let text = expect::generate()?;
            std::fs::write(expect::EXPECTED_PATH, text)
                .map_err(|e| format!("cannot write {}: {e}", expect::EXPECTED_PATH))?;
            println!("wrote {}", expect::EXPECTED_PATH);
            Ok(true)
        }
        Some(command) => run_every(&args, command == "check"),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pypm_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "serve_hit",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_hit"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(20.0), true));
        assert!(a.command.is_none());
        let all = args(&["all", "--seed", "3"]).unwrap();
        assert_eq!(all.command.as_deref(), Some("all"));
        assert_eq!(all.seed, 3);
        assert_eq!(args(&[]).unwrap().seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds", "inf"],
            &["--trace", "2"],
            &["--frobnicate"],
            &["all", "check"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} parsed");
        }
    }
}
