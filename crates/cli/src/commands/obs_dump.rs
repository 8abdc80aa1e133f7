//! `qrank obs-dump` — dump an observability snapshot as JSON.
//!
//! Two sources are supported. With `--addr` the command speaks the
//! serve protocol: it sends the `metrics` verb to a running server,
//! collects the Prometheus text exposition up to the `# EOF`
//! terminator, and either passes it through (`--format prom`) or
//! re-encodes each sample as a JSON object. With `--series` it runs
//! the quality-estimation pipeline locally, at its default settings and
//! with observability enabled, and writes the global registry's
//! snapshot (counters and histograms).

use qrank_core::{run_pipeline, PipelineConfig};
use qrank_graph::io::decode_series;
use qrank_obs::json::{array, Obj};

use super::fetch;
use crate::args::{parse, write_output, CliError};

const USAGE: &str = "\
qrank obs-dump (--addr <host:port> | --series <file>) [options]

options:
  --addr HOST:PORT   fetch the `metrics` exposition from a running
                     `qrank serve` instance
  --series FILE      run the estimation pipeline on a snapshot series
                     locally (default settings, observability enabled)
                     and dump the registry it filled
  --format F         json | prom (default json)
  --out FILE         write the snapshot to FILE (default stdout)

json output from --addr is an array of {name, labels, value} samples;
json output from --series is the registry's {counters, histograms}
snapshot. prom output is Prometheus text terminated by `# EOF`.";

/// Entry point.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let allowed = ["addr", "series", "format", "out"];
    let p = parse(argv, &allowed, USAGE)?;
    if p.help {
        println!("{USAGE}");
        return Ok(());
    }
    let format = p.get("format").unwrap_or("json");
    if !matches!(format, "json" | "prom") {
        return Err(CliError::usage(format!("unknown format `{format}`"), USAGE));
    }
    let text = match (p.get("addr"), p.get("series")) {
        (Some(addr), None) => {
            let answer = fetch(addr, "metrics")?;
            if answer.starts_with(r#"{"ok":false"#) {
                return Err(CliError::Runtime(format!("{addr}: {answer}")));
            }
            let prom = format!("{answer}\n# EOF");
            match format {
                "prom" => prom,
                _ => prom_to_json(&prom),
            }
        }
        (None, Some(series_path)) => {
            let bytes = std::fs::read(series_path)?;
            let series = decode_series(&bytes).map_err(|e| CliError::Runtime(e.to_string()))?;
            let was_enabled = qrank_obs::enabled();
            qrank_obs::set_enabled(true);
            qrank_obs::reset();
            let result = run_pipeline(&series, &PipelineConfig::default());
            let snapshot = qrank_obs::global().snapshot();
            let dump = match format {
                "prom" => format!("{}# EOF", snapshot.prometheus_text()),
                _ => snapshot.to_json(),
            };
            qrank_obs::set_enabled(was_enabled);
            result.map_err(|e| CliError::Runtime(e.to_string()))?;
            dump
        }
        (Some(_), Some(_)) => {
            return Err(CliError::usage(
                "--addr and --series are mutually exclusive",
                USAGE,
            ))
        }
        (None, None) => return Err(CliError::usage("need --addr or --series", USAGE)),
    };
    write_output(p.get("out"), &format!("{text}\n"))?;
    Ok(())
}

/// Re-encode Prometheus text samples as a JSON array of
/// `{name, labels?, value}` objects. Comment lines (`# TYPE`, `# EOF`)
/// are dropped; samples whose value does not parse as a float keep the
/// raw text under `"raw"` instead of `"value"`.
fn prom_to_json(prom: &str) -> String {
    let mut samples = Vec::new();
    for line in prom.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let (name, labels) = match key.split_once('{') {
            Some((name, rest)) => (name, rest.strip_suffix('}').unwrap_or(rest)),
            None => (key, ""),
        };
        let mut o = Obj::new();
        o.str("name", name);
        if !labels.is_empty() {
            o.str("labels", labels);
        }
        match value.parse::<f64>() {
            Ok(v) if v.is_finite() => o.num("value", v),
            _ => o.str("raw", value),
        };
        samples.push(o.finish());
    }
    array(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use qrank_serve::{serve, ServerConfig, ShardedStore};

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn temp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qrank_cli_test_obs_dump");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn start_server() -> qrank_serve::ServerHandle {
        serve(
            Arc::new(ShardedStore::new(1)),
            &ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                cache_capacity: 4,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn dumps_a_live_server_as_json_and_prom() {
        let server = start_server();
        let addr = server.addr().to_string();
        let dir = temp_dir();

        let json_out = dir.join("server.json");
        run(&argv(&[
            "--addr",
            &addr,
            "--out",
            json_out.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&json_out).unwrap();
        assert!(json.starts_with('['), "{json}");
        assert!(json.contains(r#""name":"qrank_serve_requests""#), "{json}");
        assert!(json.contains(r#""name":"qrank_store_pages""#), "{json}");
        assert!(!json.contains("# EOF"), "{json}");

        let prom_out = dir.join("server.prom");
        run(&argv(&[
            "--addr",
            &addr,
            "--format",
            "prom",
            "--out",
            prom_out.to_str().unwrap(),
        ]))
        .unwrap();
        let prom = std::fs::read_to_string(&prom_out).unwrap();
        assert!(prom.starts_with("# TYPE "), "{prom}");
        assert!(prom.trim_end().ends_with("# EOF"), "{prom}");
        server.shutdown();
    }

    #[test]
    fn dumps_a_pipeline_run_from_a_series() {
        let dir = temp_dir();
        let series_path = dir.join("obs.series.bin");
        crate::commands::simulate::run(&argv(&[
            "--out",
            series_path.to_str().unwrap(),
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

        let out = dir.join("pipeline.json");
        run(&argv(&[
            "--series",
            series_path.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains(r#""counters""#), "{json}");
        // the pipeline ranks every aligned snapshot, so at least one
        // solver must have counted a solve
        assert!(json.contains(r#""rank.solve."#), "{json}");
        assert!(json.contains("span.pipeline.run"), "{json}");
    }

    #[test]
    fn input_validation() {
        assert!(matches!(run(&argv(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&argv(&["--addr", "127.0.0.1:1", "--series", "x"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv(&["--addr", "127.0.0.1:1", "--format", "xml"])),
            Err(CliError::Usage(_))
        ));
        // the pipeline runs at its defaults: no Equation 1 knobs
        assert!(matches!(
            run(&argv(&["--series", "x", "--c", "0.2"])),
            Err(CliError::Usage(_))
        ));
        // nothing listens on port 9
        assert!(run(&argv(&["--addr", "127.0.0.1:9"])).is_err());
    }
}
