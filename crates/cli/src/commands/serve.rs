//! `qrank serve` — run the quality-score service.
//!
//! Loads a snapshot series (from `qrank simulate`), seeds the refresh
//! engine, and serves the line-delimited JSON protocol over TCP. An
//! optional delta file is streamed through the refresh worker so the
//! served generations advance while the server runs.

use std::sync::Arc;

use qrank_core::PipelineConfig;
use qrank_graph::io::decode_series;
use qrank_serve::{
    parse_deltas, serve, spawn_refresh_worker_with, DurabilityConfig, FsyncPolicy, RefreshConfig,
    RefreshEngine, RefreshMsg, RefreshWorkerOptions, RetryPolicy, ServerConfig, ShardedStore,
    ShedPolicy,
};

use crate::args::{parse, CliError};

/// Unix signal plumbing for graceful drain on SIGINT/SIGTERM. Raw
/// `signal(2)` via its C ABI — the only thing the handler does is flip
/// an atomic, which is async-signal-safe.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SIGNALED: AtomicBool = AtomicBool::new(false);

    extern "C" fn handler(_: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Route SIGINT (2) and SIGTERM (15) to the drain flag.
    pub fn install() {
        unsafe {
            signal(2, handler);
            signal(15, handler);
        }
    }

    pub fn received() -> bool {
        SIGNALED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn received() -> bool {
        false
    }
}

const USAGE: &str = "\
qrank serve --series <file> [options]

options:
  --series FILE      binary snapshot series from `qrank simulate` (required)
  --addr HOST:PORT   bind address (default 127.0.0.1:7878; port 0 = ephemeral)
  --workers N        request worker threads (default 4)
  --threads T        stage-engine align/solver worker threads (default:
                     QRANK_THREADS or available parallelism; output is
                     bitwise identical at every setting)
  --cache N          topk response cache capacity (default 64)
  --deltas FILE      edge-delta file to stream through the refresh worker
  --max-window N     snapshots kept in the estimation window (default 4)
  --c C              Equation 1 constant (default 0.1)
  --min-change X     report filter on relative change (default 0.05)
  --duration SECS    serve for SECS seconds then exit (default 0 = until
                     SIGINT/SIGTERM or a protocol `shutdown`)
  --port-file FILE   write the bound address to FILE once listening

overload protection & drain:
  --max-conns N      maximum simultaneously open connections (default 0 =
                     unlimited); excess connections get one structured
                     `overloaded` line with a retry_after_ms hint
  --accept-queue N   accepted connections waiting for a worker (default
                     1024); overflow is rejected, never queued unboundedly
  --read-deadline-ms MS  close connections that complete no request for
                     MS ms — idle or slow-loris (default 30000; 0 = off)
  --write-timeout-ms MS  socket write timeout (default 5000; 0 = off)
  --shed-depth N     shed expensive verbs (topk/stats/metrics/trace) when
                     load (queued + in-flight) reaches N (default 0 = off)
  --shed-cheap-depth N  shed cheap verbs (score) at load N (default
                     4 x shed-depth; probes are never shed)
  --shed-latency-us L  also shed expensive verbs while served p99 exceeds
                     L microseconds (default 0 = off)
  --drain-deadline SECS  graceful-drain budget on shutdown (default 5):
                     stop accepting, finish in-flight work, then write the
                     final checkpoint; SIGINT/SIGTERM and the `shutdown`
                     verb both take this path

failure containment:
  --quarantine FILE  append rejected deltas here (`# quarantined: <reason>`
                     + the delta, re-ingestable via --deltas; default with
                     --data-dir: DIR/quarantine.deltas). A panicking
                     refresh poisons the worker but the last published
                     generation keeps serving.
  --wal-retries N    attempts per journal append (its write and the sync
                     --fsync calls for) on transient I/O errors,
                     exponential backoff with seeded jitter (default 5
                     with --data-dir; 1 = no retry)

tracing (see `qrank trace` for scraping a running server):
  --trace-sample N   trace every N-th request (head-based, deterministic;
                     default 0 = tracing off). Implies QRANK_OBS=1.
                     Refresh cycles are always traced when sampling is on.
  --slo-latency-us L per-request latency objective in microseconds for
                     the SLO monitor (default 1000)

durability (see `qrank wal` for offline inspection):
  --data-dir DIR     journal every ingested delta to a WAL in DIR and
                     recover from it on startup; the --series seed is
                     used only when DIR has no history yet
  --fsync POLICY     WAL fsync policy: always | every:N | never
                     (default every:64)
  --checkpoint-every N  checkpoint engine state after every N ingested
                     deltas (default 256; 0 = only on clean shutdown)

protocol (line-delimited JSON over TCP):
  score <page> | topk <n> | stats | metrics | health | ready | trace ...
  | shutdown
  (`metrics` answers in Prometheus text format, terminated by `# EOF`;
  `trace` takes: slowest [verb] | id <n> | slo | report; `ready` reports
  readiness — false until a sealed generation exists or while draining;
  `shutdown` acks and starts a graceful drain)";

/// Entry point.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let allowed = [
        "series",
        "addr",
        "workers",
        "threads",
        "cache",
        "deltas",
        "max-window",
        "c",
        "min-change",
        "duration",
        "port-file",
        "data-dir",
        "fsync",
        "checkpoint-every",
        "trace-sample",
        "slo-latency-us",
        "max-conns",
        "accept-queue",
        "read-deadline-ms",
        "write-timeout-ms",
        "shed-depth",
        "shed-cheap-depth",
        "shed-latency-us",
        "drain-deadline",
        "quarantine",
        "wal-retries",
    ];
    let p = parse(argv, &allowed, USAGE)?;
    if p.help {
        println!("{USAGE}");
        return Ok(());
    }
    let series_path = p.require("series", USAGE)?;
    let defaults = RefreshConfig::default();
    let refresh_cfg = RefreshConfig {
        pipeline: PipelineConfig {
            c: p.get_finite("c", defaults.pipeline.c, USAGE)?,
            min_relative_change: p.get_finite(
                "min-change",
                defaults.pipeline.min_relative_change,
                USAGE,
            )?,
            ..defaults.pipeline
        },
        max_window: p.get_or("max-window", defaults.max_window, USAGE)?,
    };
    let server_cfg = ServerConfig {
        addr: p.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        workers: p.get_or("workers", 4, USAGE)?,
        cache_capacity: p.get_or("cache", 64, USAGE)?,
        trace_sample: p.get_or("trace-sample", 0, USAGE)?,
        slo_latency_us: p.get_or("slo-latency-us", 1_000, USAGE)?,
        max_connections: p.get_or("max-conns", 0, USAGE)?,
        accept_queue: p.get_or("accept-queue", 1024, USAGE)?,
        read_deadline_ms: p.get_or("read-deadline-ms", 30_000, USAGE)?,
        write_timeout_ms: p.get_or("write-timeout-ms", 5_000, USAGE)?,
        shed: ShedPolicy {
            expensive_at: p.get_or("shed-depth", 0, USAGE)?,
            cheap_at: p.get_or("shed-cheap-depth", 0, USAGE)?,
            latency_us: p.get_or("shed-latency-us", 0, USAGE)?,
        },
    };
    let drain_deadline: f64 = p.get_or("drain-deadline", 5.0, USAGE)?;
    if server_cfg.trace_sample > 0 {
        // Tracing rides on the observability gate; requesting a sample
        // rate is an explicit opt-in, equivalent to QRANK_OBS=1.
        qrank_obs::set_enabled(true);
    }
    let duration: f64 = p.get_or("duration", 0.0, USAGE)?;
    let threads: usize = p.get_or("threads", 0, USAGE)?;
    if threads > 0 {
        // One budget for everything compute-bound in the refresh path:
        // the solvers read the process-global budget, and the engine's
        // parallel align stage follows it too.
        qrank_rank::set_thread_budget(threads);
    }

    let bytes = std::fs::read(series_path)?;
    let series = decode_series(&bytes).map_err(|e| CliError::Runtime(e.to_string()))?;
    let deltas = match p.get("deltas") {
        Some(path) => parse_deltas(&std::fs::read_to_string(path)?)
            .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?,
        None => Vec::new(),
    };

    let wal_retries: u32 = p.get_or("wal-retries", 5, USAGE)?;
    if wal_retries == 0 {
        return Err(CliError::Usage(format!(
            "--wal-retries must be at least 1 (1 = no retry)\n\n{USAGE}"
        )));
    }
    let handle = Arc::new(ShardedStore::new(1));
    let mut engine = match p.get("data-dir") {
        Some(data_dir) => {
            let fsync: FsyncPolicy = p
                .get("fsync")
                .unwrap_or("every:64")
                .parse()
                .map_err(|e| CliError::Usage(format!("{e}\n\n{USAGE}")))?;
            let dur = DurabilityConfig {
                dir: data_dir.into(),
                fsync,
                checkpoint_every: p.get_or("checkpoint-every", 256, USAGE)?,
            };
            let (engine, report) =
                RefreshEngine::open_durable(refresh_cfg, &dur, Arc::clone(&handle), Some(&series))
                    .map_err(|e| CliError::Runtime(e.to_string()))?;
            if report.checkpoint_generation.is_some() || report.replayed_records > 0 {
                eprintln!(
                    "recovered from {data_dir}: checkpoint generation {}, {} record(s) replayed",
                    report
                        .checkpoint_generation
                        .map_or_else(|| "none".to_string(), |g| g.to_string()),
                    report.replayed_records
                );
            }
            if let Some(reason) = &report.torn_tail {
                eprintln!("repaired torn WAL tail: {reason}");
            }
            if report.skipped_checkpoints > 0 {
                eprintln!(
                    "warning: {} corrupt checkpoint(s) skipped during recovery",
                    report.skipped_checkpoints
                );
            }
            for err in &report.replay_errors {
                eprintln!("replay: delta rejected ({err})");
            }
            let mut engine = engine;
            engine.set_wal_retry(RetryPolicy {
                attempts: wal_retries,
                seed: 0x9e3779b97f4a7c15,
            });
            engine
        }
        None => RefreshEngine::from_series(&series, refresh_cfg, Arc::clone(&handle))
            .map_err(|e| CliError::Runtime(e.to_string()))?,
    };
    let store = handle.current();
    let server = serve(handle, &server_cfg).map_err(|e| CliError::Runtime(e.to_string()))?;
    // Share the server's tracer with the refresh engine so ingest
    // cycles land in the same slowest-K store and SLO windows.
    engine.set_tracer(server.tracer());
    if server_cfg.trace_sample > 0 {
        eprintln!(
            "tracing 1-in-{} requests (SLO latency objective {}µs); query with `trace` or `qrank trace`",
            server_cfg.trace_sample, server_cfg.slo_latency_us
        );
    }
    let seeded = engine.stage_stats();
    eprintln!(
        "serving {} pages (generation {}, window of {} snapshots) on {}",
        store.len(),
        store.generation(),
        engine.series().len(),
        server.addr()
    );
    eprintln!(
        "seed pipeline: {} trajectory columns solved, {} reused from the stage cache",
        seeded.columns_solved(),
        seeded.columns_reused()
    );
    if let Some(path) = p.get("port-file") {
        std::fs::write(path, server.addr().to_string())?;
    }

    // Rejected or panic-poisoned deltas go to the quarantine file rather
    // than killing ingestion; durable servers get one by default so a
    // poisoned delta is never silently dropped.
    let quarantine = p
        .get("quarantine")
        .map(std::path::PathBuf::from)
        .or_else(|| {
            p.get("data-dir")
                .map(|d| std::path::Path::new(d).join("quarantine.deltas"))
        });
    if let Some(path) = &quarantine {
        eprintln!("quarantining rejected deltas to {}", path.display());
    }
    let (refresh_tx, refresh_join) =
        spawn_refresh_worker_with(engine, RefreshWorkerOptions { quarantine });
    let num_deltas = deltas.len();
    for delta in deltas {
        refresh_tx
            .send(RefreshMsg::Delta(delta))
            .map_err(|e| CliError::Runtime(e.to_string()))?;
    }
    if num_deltas > 0 {
        eprintln!("queued {num_deltas} deltas for the refresh worker");
    }

    // Wait for one of the three exit signals: the duration elapsing, a
    // protocol `shutdown` verb, or SIGINT/SIGTERM.
    sig::install();
    let started = std::time::Instant::now();
    loop {
        if duration > 0.0 && started.elapsed().as_secs_f64() >= duration {
            break;
        }
        if server.drain_requested() {
            eprintln!("shutdown requested over the protocol; draining");
            break;
        }
        if sig::received() {
            eprintln!("signal received; draining");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }

    // Graceful drain: stop accepting, finish in-flight work under the
    // deadline, then stop the refresh worker and write the final
    // checkpoint so the next boot replays nothing.
    let metrics_handle = server.metrics();
    let report = server.drain(std::time::Duration::from_secs_f64(drain_deadline.max(0.0)));
    let metrics = metrics_handle.snapshot();
    if report.completed {
        eprintln!("drain completed in {:?}", report.waited);
    } else {
        eprintln!(
            "drain deadline ({drain_deadline}s) forced shutdown with {} connection(s) aborted",
            report.aborted_connections
        );
    }
    refresh_tx
        .send(RefreshMsg::Shutdown)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let (mut engine, errors) = refresh_join
        .join()
        .map_err(|_| CliError::Runtime("refresh worker panicked".into()))?;
    for err in &errors {
        eprintln!("refresh error: {err}");
    }
    // A clean shutdown checkpoints the engine so the next boot replays
    // nothing; `checkpoint_now` is a no-op without a data dir.
    match engine.checkpoint_now() {
        Ok(Some(lsn)) => eprintln!("shutdown checkpoint written at LSN {lsn}"),
        Ok(None) => {}
        Err(e) => eprintln!("warning: shutdown checkpoint failed: {e}"),
    }
    eprintln!(
        "served {} requests ({} errors), final generation {}",
        metrics.requests,
        metrics.errors,
        engine.generation()
    );
    if errors.is_empty() {
        Ok(())
    } else {
        Err(CliError::Runtime(format!(
            "{} refresh deltas failed",
            errors.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn temp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qrank_cli_test_serve");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_series(path: &std::path::Path) {
        crate::commands::simulate::run(&argv(&[
            "--out",
            path.to_str().unwrap(),
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
    }

    #[test]
    fn serves_a_simulated_series_end_to_end() {
        let dir = temp_dir();
        let series_path = dir.join("serve.bin");
        let port_file = dir.join("serve.port");
        let _ = std::fs::remove_file(&port_file);
        write_series(&series_path);

        let series_arg = series_path.to_str().unwrap().to_string();
        let port_arg = port_file.to_str().unwrap().to_string();
        let server = std::thread::spawn(move || {
            run(&argv(&[
                "--series",
                &series_arg,
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--duration",
                "3",
                "--port-file",
                &port_arg,
            ]))
        });

        // wait for the port file, then talk to the server
        let mut addr = String::new();
        for _ in 0..300 {
            if let Ok(contents) = std::fs::read_to_string(&port_file) {
                if !contents.is_empty() {
                    addr = contents;
                    break;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(!addr.is_empty(), "server never wrote its port file");
        let stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"health\ntopk 3\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""status":"serving""#), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "{line}");
        drop(writer);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn durable_serve_checkpoints_and_recovers_across_restarts() {
        let dir = temp_dir();
        let series_path = dir.join("durable.bin");
        let data_dir = dir.join("durable_wal");
        let _ = std::fs::remove_dir_all(&data_dir);
        write_series(&series_path);
        let args = argv(&[
            "--series",
            series_path.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--duration",
            "1",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--fsync",
            "never",
        ]);
        // First boot seeds from the series and checkpoints on shutdown;
        // the second boot must recover from that checkpoint instead.
        run(&args).unwrap();
        crate::commands::wal::run(&argv(&[
            "--dir",
            data_dir.to_str().unwrap(),
            "--op",
            "verify",
        ]))
        .unwrap();
        run(&args).unwrap();
        std::fs::remove_dir_all(&data_dir).unwrap();
    }

    /// Run `args` (which must carry `--port-file port_file` and a short
    /// `--duration`), send `requests` one per line while it serves, and
    /// return its answers once it has exited.
    fn answers(args: Vec<String>, port_file: &std::path::Path, requests: &[&str]) -> Vec<String> {
        let _ = std::fs::remove_file(port_file);
        let server = std::thread::spawn(move || run(&args));
        let mut addr = String::new();
        for _ in 0..500 {
            match std::fs::read_to_string(port_file) {
                Ok(contents) if !contents.is_empty() => {
                    addr = contents;
                    break;
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        assert!(!addr.is_empty(), "server never wrote its port file");
        let stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut out = Vec::new();
        for request in requests {
            writeln!(writer, "{request}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            out.push(line);
        }
        drop(writer);
        server.join().unwrap().unwrap();
        out
    }

    #[test]
    fn durable_serve_restart_answers_the_same_bytes() {
        let dir = temp_dir();
        let series_path = dir.join("restart.bin");
        let data_dir = dir.join("restart_wal");
        let port_file = dir.join("restart.port");
        let _ = std::fs::remove_dir_all(&data_dir);
        write_series(&series_path);
        let args = || {
            argv(&[
                "--series",
                series_path.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--duration",
                "1",
                "--data-dir",
                data_dir.to_str().unwrap(),
                "--fsync",
                "never",
                "--port-file",
                port_file.to_str().unwrap(),
            ])
        };
        let requests = ["topk 5", "score 0", "score 3", "score 999999"];
        let written = answers(args(), &port_file, &requests);
        for answer in &written[..3] {
            assert!(answer.contains(r#""ok":true"#), "{answer}");
        }
        assert!(written[3].contains(r#""ok":false"#), "{}", written[3]);
        crate::commands::wal::run(&argv(&[
            "--dir",
            data_dir.to_str().unwrap(),
            "--op",
            "verify",
        ]))
        .unwrap();
        // the restart recovers the journal and answers with the same bytes
        assert_eq!(answers(args(), &port_file, &requests), written);
        std::fs::remove_dir_all(&data_dir).unwrap();
    }

    #[test]
    fn input_validation() {
        assert!(matches!(run(&argv(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&argv(&["--series", "x", "--workers", "lots"])),
            Err(CliError::Usage(_))
        ));
        assert!(run(&argv(&["--series", "/nonexistent/series.bin"])).is_err());
        // the store is one store: a shard count is an unknown option
        assert!(matches!(
            run(&argv(&["--series", "x", "--shards", "2"])),
            Err(CliError::Usage(_))
        ));
        // a NaN constant would serve `"quality":null` for every page
        for (key, raw) in [("--c", "NaN"), ("--c", "inf"), ("--min-change", "NaN")] {
            assert!(
                matches!(
                    run(&argv(&["--series", "x", key, raw])),
                    Err(CliError::Usage(_))
                ),
                "{key} {raw}"
            );
        }
    }
}
