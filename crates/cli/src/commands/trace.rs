//! `qrank trace` — scrape request traces and SLO status from a running
//! `qrank serve` instance (started with `--trace-sample N`).
//!
//! Speaks the serve protocol's `trace` verb. The default mode fetches
//! the human-readable `trace report` (multi-line, `# EOF`-terminated)
//! — sampling counters, per-verb latency summaries with burn rates,
//! and the slowest retained traces with a per-stage latency-attribution
//! breakdown. `--slo`, `--verb`, and `--id` fetch the matching one-line
//! JSON answers instead, for scripting.

use super::fetch;
use crate::args::{parse_with_flags, write_output, CliError};

const USAGE: &str = "\
qrank trace --addr <host:port> [options]

options:
  --addr HOST:PORT   a running `qrank serve` started with --trace-sample
  --verb V           JSON: slowest retained traces for one verb
                     (score | topk | stats | metrics | health | trace |
                      error | refresh | recover)
  --id N             JSON: one retained trace by id
  --slo              JSON: SLO status (objectives, per-verb latency
                     summaries, multi-window burn rates, exemplars)
  --out FILE         write the answer to FILE (default stdout)

with no mode flag, fetches the human-readable `trace report`: sampling
counters, per-verb SLO summaries, and the slowest traces with their
stage-by-stage latency attribution.";

/// Entry point.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let allowed = ["addr", "verb", "id", "out"];
    let p = parse_with_flags(argv, &allowed, &["slo"], USAGE)?;
    if p.help {
        println!("{USAGE}");
        return Ok(());
    }
    let addr = p.require("addr", USAGE)?;
    let modes = [p.get("verb").is_some(), p.get("id").is_some(), p.has("slo")]
        .iter()
        .filter(|&&m| m)
        .count();
    if modes > 1 {
        return Err(CliError::usage(
            "--verb, --id, and --slo are mutually exclusive",
            USAGE,
        ));
    }
    let request = if let Some(verb) = p.get("verb") {
        format!("trace slowest {verb}")
    } else if p.get("id").is_some() {
        let id: u64 = p.get_or("id", 0, USAGE)?;
        format!("trace id {id}")
    } else if p.has("slo") {
        "trace slo".to_string()
    } else {
        "trace report".to_string()
    };
    let answer = fetch(addr, &request)?;
    if answer.starts_with(r#"{"ok":false"#) {
        return Err(CliError::Runtime(format!("{addr}: {answer}")));
    }
    write_output(p.get("out"), &format!("{answer}\n"))?;
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

    fn start_traced_server() -> qrank_serve::ServerHandle {
        qrank_obs::set_enabled(true);
        serve(
            Arc::new(ShardedStore::new(1)),
            &ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                cache_capacity: 4,
                trace_sample: 1,
                slo_latency_us: 1_000,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn scrapes_report_slo_and_verb_json() {
        let server = start_traced_server();
        let addr = server.addr().to_string();
        // drive traffic through the server's own protocol first
        fetch(&addr, "health").unwrap();
        fetch(&addr, "health").unwrap();

        let dir = std::env::temp_dir().join("qrank_cli_test_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("report.txt");
        run(&argv(&["--addr", &addr, "--out", out.to_str().unwrap()])).unwrap();
        let report = std::fs::read_to_string(&out).unwrap();
        assert!(report.contains("slowest traces:"), "{report}");
        assert!(!report.contains("# EOF"), "terminator is stripped");

        run(&argv(&[
            "--addr",
            &addr,
            "--slo",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let slo = std::fs::read_to_string(&out).unwrap();
        assert!(slo.contains(r#""slo":"#), "{slo}");

        run(&argv(&[
            "--addr",
            &addr,
            "--verb",
            "health",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let traces = std::fs::read_to_string(&out).unwrap();
        assert!(traces.contains(r#""verb":"health""#), "{traces}");

        server.shutdown();
        qrank_obs::set_enabled(false);
    }

    #[test]
    fn untraced_server_yields_a_runtime_error() {
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
        let addr = server.addr().to_string();
        let err = run(&argv(&["--addr", &addr])).unwrap_err();
        assert!(matches!(err, CliError::Runtime(msg) if msg.contains("tracing disabled")));
        server.shutdown();
    }

    #[test]
    fn input_validation() {
        assert!(matches!(run(&argv(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&argv(&["--addr", "127.0.0.1:1", "--slo", "--id", "3"])),
            Err(CliError::Usage(_))
        ));
        // nothing listens on port 9
        assert!(run(&argv(&["--addr", "127.0.0.1:9"])).is_err());
    }
}
