//! `qrank-benchmark`: the benchmark of record.
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one
//!   workload once in this process and prints, as the last line of
//!   standard output, one JSON object with `correct`, `attempted`,
//!   `failed` and `metrics` (end-to-end with `--trace 0`, per-layer
//!   with `--trace 1`). Exit code 1 when a check failed.
//! * Without `--workload` it runs every workload twice — plain, then
//!   traced — each in a fresh child process, prints every metric by
//!   name with its unit, and exits non-zero if any check failed.

use std::process::{Command, ExitCode};

use qrank_benchmark::metrics::{parse_result_line, result_line, END_TO_END, PER_LAYER};
use qrank_benchmark::{run, sys, RunConfig, Workload, DEFAULT_SCALE};

const USAGE: &str = "usage: qrank-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--scale X]\n  workloads: batch_cold batch_rank \
                     refresh_durable serve_point serve_mixed_refresh";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        scale: DEFAULT_SCALE,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let in_range = |v: f64, max: f64| v > 0.0 && v <= max;
    if !in_range(args.seconds, 60.0) || !in_range(args.scale, 4.0) {
        return Err("--seconds must be in (0, 60] and --scale in (0, 4]".into());
    }
    Ok(args)
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let outcome = run(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
    });
    let facts: Vec<String> = outcome
        .facts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    eprintln!(
        "{} seed={} trace={} {}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        facts.join(" ")
    );
    for (d, v) in &outcome.metrics {
        eprintln!("  {:<28} {v:>16.6} {}", d.name, d.unit);
    }
    // every pass, so that a noisy host shows: the metrics fold these by
    // their best decile
    let walls: Vec<String> = outcome
        .passes
        .iter()
        .map(|p| format!("{:.3}", p.wall_s))
        .collect();
    eprintln!("  pass wall_s: {}", walls.join(" "));
    for f in &outcome.failures {
        eprintln!("  FAILED CHECK: {f}");
    }
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, plain then traced, each in a fresh process so that
/// `peak_rss_mb` is the workload's own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "qrank benchmark of record: seed {} scale {} seconds {} nproc {} thread_budget {}",
        args.seed,
        args.scale,
        args.seconds,
        sys::nproc(),
        qrank_rank::thread_budget()
    );
    println!(
        "rustc: {} | commit: {}",
        tool_version("rustc", &["--version"]),
        tool_version("git", &["rev-parse", "HEAD"])
    );
    let mut all_ok = true;
    for workload in Workload::ALL {
        for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--scale", &args.scale.to_string()])
                .output();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    println!("{} trace={trace}: could not run: {e}", workload.name());
                    all_ok = false;
                    continue;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            let parsed = stdout.lines().last().and_then(parse_result_line);
            let Some(result) = parsed else {
                println!("{} trace={trace}: no result line", workload.name());
                print!("{}", String::from_utf8_lossy(&out.stderr));
                all_ok = false;
                continue;
            };
            let kind = if trace == "0" {
                "end-to-end"
            } else {
                "per-layer"
            };
            println!(
                "\n{} ({kind}): correct={} attempted={} failed={}",
                workload.name(),
                result.correct,
                result.attempted,
                result.failed
            );
            for d in table {
                // a layer the workload does not exercise reads 0; leave
                // it out of the human-readable table
                match result.value(d.name) {
                    Some(v) if v != 0.0 || trace == "0" => {
                        println!("  {:<28} {v:>16.6} {}", d.name, d.unit);
                    }
                    _ => {}
                }
            }
            if !result.correct || !out.status.success() {
                all_ok = false;
                for line in String::from_utf8_lossy(&out.stderr).lines() {
                    if line.contains("FAILED CHECK") {
                        println!("{line}");
                    }
                }
            }
        }
    }
    println!(
        "\n{}",
        if all_ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // the program runs on its library defaults, as users get them
    std::env::remove_var("QRANK_THREADS");
    std::env::remove_var("QRANK_OBS");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}
