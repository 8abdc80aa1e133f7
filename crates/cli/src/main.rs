//! `qrank` — command-line interface to the qrank workspace.
//!
//! ```text
//! qrank generate  --model ba --nodes 10000 --out web.edges
//! qrank pagerank  --graph web.edges --top 10
//! qrank stats     --graph web.edges
//! qrank simulate  --months 8 --out series.bin --truth truth.tsv
//! qrank estimate  --series series.bin --c 1.0 --out quality.tsv
//! qrank model     --figure 1
//! ```
//!
//! Every subcommand prints `--help`-style usage on bad arguments; exit
//! code is 0 on success, 2 on usage errors, 1 on runtime failures.

mod args;
mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
qrank <command> [options]

commands:
  generate   write a synthetic web graph as an edge list
  pagerank   compute PageRank (or HITS/in-degree) scores for a graph
  stats      structural summary of a graph (degrees, power law)
  simulate   run the agent-based web simulator and crawl snapshots
  estimate   estimate page quality from a snapshot series
  serve      run the quality-score TCP service over a snapshot series
  bench-load load-test a running serve instance, report JSON latencies
  obs-dump   dump an observability snapshot from a server or pipeline run
  trace      scrape request traces and SLO status from a traced server
  model      print the user-visitation model curves (paper figures 1-3)
  cohort     analytic popularity-vs-quality bias diagnostics
  wal        inspect, verify, or compact a serve durability directory

run `qrank <command> --help` for per-command options.
set QRANK_OBS=1 to enable in-process tracing and metrics collection.";

fn main() -> ExitCode {
    qrank_obs::init_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "generate" => commands::generate::run(rest),
        "pagerank" => commands::pagerank::run(rest),
        "stats" => commands::stats::run(rest),
        "simulate" => commands::simulate::run(rest),
        "estimate" => commands::estimate::run(rest),
        "serve" => commands::serve::run(rest),
        "bench-load" => commands::bench_load::run(rest),
        "obs-dump" => commands::obs_dump::run(rest),
        "trace" => commands::trace::run(rest),
        "model" => commands::model::run(rest),
        "cohort" => commands::cohort::run(rest),
        "wal" => commands::wal::run(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(args::CliError::Usage(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        Err(args::CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
