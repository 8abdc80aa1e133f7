//! `qrank bench-load` — drive load against a running `qrank serve`
//! instance (or a self-hosted one) and report throughput and latency
//! percentiles as JSON.

use std::sync::Arc;

use qrank_graph::io::decode_series;
use qrank_serve::{
    run_load, serve, LoadConfig, RefreshConfig, RefreshEngine, ServerConfig, ShardedStore,
};

use crate::args::{parse, write_output, CliError};

const USAGE: &str = "\
qrank bench-load --addr <host:port> [options]
qrank bench-load --series <file> [options]

options:
  --addr HOST:PORT   server to load (required unless --series is given)
  --series FILE      self-hosted mode: seed an in-process server from this
                     snapshot series (from `qrank simulate`) on an
                     ephemeral port, load it, then shut it down
  --connections N    concurrent connections (default 4)
  --requests N       requests per connection (default 2500)
  --pipeline N       requests in flight per connection (default 8)
  --topk-every N     every Nth request is a topk (default 10; 0 = never)
  --topk-k K         k used for topk requests (default 10)
  --max-page N       sample score pages from 0..N (default 1000)
  --seed S           sampling seed (default 42)
  --timeout-ms MS    per-socket read/write timeout; a wedged server is a
                     typed error, not a hang (default 10000; 0 = block)
  --max-retries N    retry attempts per shed (`overloaded`) response,
                     honoring the server's retry_after_ms hint
                     (default 3; 0 = count sheds without retrying)
  --out FILE         write the JSON report to FILE (default stdout)

the report includes total requests, error count, elapsed seconds,
throughput (req/s), and mean/p50/p99 latency in microseconds.
percentiles are linearly interpolated between the sorted per-request
samples (not snapped to a bucket upper bound or nearest sample), so
small runs report smooth values; with --pipeline > 1, per-request
latency is the batch round-trip averaged over the batch.";

/// Entry point.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let allowed = [
        "addr",
        "series",
        "connections",
        "requests",
        "pipeline",
        "topk-every",
        "topk-k",
        "max-page",
        "seed",
        "timeout-ms",
        "max-retries",
        "out",
    ];
    let p = parse(argv, &allowed, USAGE)?;
    if p.help {
        println!("{USAGE}");
        return Ok(());
    }
    if p.get("addr").is_some() && p.get("series").is_some() {
        return Err(CliError::Usage(format!(
            "--addr and --series are mutually exclusive\n\n{USAGE}"
        )));
    }
    let server = match p.get("series") {
        Some(path) => {
            let bytes = std::fs::read(path)?;
            let series = decode_series(&bytes).map_err(|e| CliError::Runtime(e.to_string()))?;
            let handle = Arc::new(ShardedStore::new(1));
            // `from_series` publishes generation 1 before it returns; the
            // engine itself is not needed for a read-only load run.
            RefreshEngine::from_series(&series, RefreshConfig::default(), Arc::clone(&handle))
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            let server_cfg = ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                ..Default::default()
            };
            let server =
                serve(handle, &server_cfg).map_err(|e| CliError::Runtime(e.to_string()))?;
            eprintln!("self-hosted server on {}", server.addr());
            Some(server)
        }
        None => None,
    };
    let addr = match &server {
        Some(s) => s.addr().to_string(),
        None => p.require("addr", USAGE)?.to_string(),
    };
    let cfg = LoadConfig {
        addr,
        connections: p.get_or("connections", 4, USAGE)?,
        requests_per_connection: p.get_or("requests", 2_500, USAGE)?,
        pipeline: p.get_or("pipeline", 8, USAGE)?,
        topk_every: p.get_or("topk-every", 10, USAGE)?,
        topk_k: p.get_or("topk-k", 10, USAGE)?,
        max_page: p.get_or("max-page", 1_000, USAGE)?,
        seed: p.get_or("seed", 42, USAGE)?,
        timeout_ms: p.get_or("timeout-ms", 10_000, USAGE)?,
        max_retries: p.get_or("max-retries", 3, USAGE)?,
    };
    let report = run_load(&cfg).map_err(|e| CliError::Runtime(e.to_string()))?;
    eprintln!(
        "{} requests over {} connections in {:.2}s: {:.0} req/s (p50 {:.1}us, p99 {:.1}us)",
        report.requests,
        report.connections,
        report.elapsed_seconds,
        report.throughput_rps,
        report.p50_us,
        report.p99_us
    );
    write_output(p.get("out"), &format!("{}\n", report.to_json()))?;
    if let Some(server) = server {
        server.shutdown();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use qrank_serve::{serve, ServerConfig, ShardedStore};

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn loads_a_live_server_and_writes_a_report() {
        let server = serve(
            Arc::new(ShardedStore::new(1)),
            &ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                cache_capacity: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let dir = std::env::temp_dir().join("qrank_cli_test_bench_load");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("load.json");
        run(&argv(&[
            "--addr",
            &server.addr().to_string(),
            "--connections",
            "2",
            "--requests",
            "50",
            "--pipeline",
            "4",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains(r#""requests":100"#), "{json}");
        assert!(json.contains("throughput_rps"), "{json}");
        server.shutdown();
    }

    #[test]
    fn self_hosted_bench_runs_end_to_end() {
        let dir = std::env::temp_dir().join("qrank_cli_test_bench_load_self_hosted");
        std::fs::create_dir_all(&dir).unwrap();
        let series = dir.join("series.bin");
        crate::commands::simulate::run(&argv(&[
            "--out",
            series.to_str().unwrap(),
            "--users",
            "120",
            "--sites",
            "3",
            "--birth-rate",
            "5",
            "--burn-in",
            "2",
            "--future",
            "3",
        ]))
        .unwrap();
        let out = dir.join("self_hosted.json");
        run(&argv(&[
            "--series",
            series.to_str().unwrap(),
            "--connections",
            "2",
            "--requests",
            "50",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains(r#""requests":100"#), "{json}");
    }

    #[test]
    fn input_validation() {
        assert!(matches!(run(&argv(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&argv(&["--addr", "127.0.0.1:1", "--connections", "none"])),
            Err(CliError::Usage(_))
        ));
        // the store is one store: a shard count is an unknown option
        assert!(matches!(
            run(&argv(&["--addr", "127.0.0.1:1", "--shards", "2"])),
            Err(CliError::Usage(_))
        ));
        // nothing listens on this port
        assert!(run(&argv(&["--addr", "127.0.0.1:9", "--requests", "1"])).is_err());
    }
}
