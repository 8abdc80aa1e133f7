//! Closed-loop TCP load generator for the quality-score server.
//!
//! Spawns one client thread per connection; each sends a configurable
//! mix of `score`/`topk` requests and records per-request latency.
//! Latencies are merged across connections; percentiles linearly
//! interpolate between the sorted samples (no bucket-bound snapping) —
//! the numbers behind the `qrank bench-load` JSON report.
//!
//! The generator is a well-behaved overload client: every socket read
//! sits under a deadline ([`LoadConfig::timeout_ms`]), so a wedged
//! server yields a typed [`ServeError::Timeout`] instead of a hang, and
//! `{"ok":false,"error":"overloaded",...}` responses are counted as
//! *shed* (not protocol errors) and retried with backoff honoring the
//! server's `retry_after_ms` hint, up to [`LoadConfig::max_retries`]
//! attempts per request.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use qrank_obs::json::{array, Obj};

use crate::error::ServeError;

/// Load-generation parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Concurrent connections (one thread each).
    pub connections: usize,
    /// Requests sent per connection.
    pub requests_per_connection: usize,
    /// Pipeline depth: how many requests are in flight per connection
    /// before reading responses. Depth 1 is strict request/response;
    /// deeper pipelines trade per-request latency accuracy (batch time is
    /// split evenly) for throughput.
    pub pipeline: usize,
    /// Every `topk_every`-th request is `topk topk_k` (0 = scores only).
    pub topk_every: usize,
    /// `k` used for topk requests.
    pub topk_k: usize,
    /// Page ids are sampled uniformly from `0..max_page`.
    pub max_page: u64,
    /// Sampling seed (deterministic per connection).
    pub seed: u64,
    /// Client-side read (and write) deadline per response, in
    /// milliseconds; expiry yields a typed [`ServeError::Timeout`].
    /// 0 disables the deadline (the historical hang-forever behavior —
    /// keep it on).
    pub timeout_ms: u64,
    /// Retry attempts per request answered `overloaded`, each after a
    /// backoff honoring the server's `retry_after_ms` hint. 0 = record
    /// the shed and move on.
    pub max_retries: u32,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7878".to_string(),
            connections: 4,
            requests_per_connection: 2_500,
            pipeline: 8,
            topk_every: 10,
            topk_k: 10,
            max_page: 1_000,
            seed: 42,
            timeout_ms: 10_000,
            max_retries: 3,
        }
    }
}

/// Aggregated load-test results.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Connections used.
    pub connections: usize,
    /// Requests served: answered with anything but `overloaded`, on the
    /// first attempt or a retry. Each counts once, with the latency of
    /// the attempt that was served.
    pub requests: u64,
    /// Responses with `"ok":false` (e.g. unknown pages).
    pub errors: u64,
    /// Requests answered `overloaded` by the server's shed policy
    /// (counted per response, including failed retries; not errors). A
    /// request shed on every attempt counts here only.
    pub shed: u64,
    /// Retry attempts sent after `overloaded` responses.
    pub retries: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed_seconds: f64,
    /// Requests per second over the whole run.
    pub throughput_rps: f64,
    /// Mean per-request latency in microseconds.
    pub mean_us: f64,
    /// Median per-request latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-request latency in microseconds.
    pub p99_us: f64,
    /// Per-verb latency breakdown (one entry per verb that was sent).
    pub verbs: Vec<VerbLatency>,
}

/// Latency summary for one request verb in a load run.
#[derive(Debug, Clone, PartialEq)]
pub struct VerbLatency {
    /// The wire verb (`score` or `topk`).
    pub verb: &'static str,
    /// Requests of this verb answered.
    pub requests: u64,
    /// Mean per-request latency in microseconds.
    pub mean_us: f64,
    /// Median per-request latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-request latency in microseconds.
    pub p99_us: f64,
}

impl VerbLatency {
    fn to_json(&self) -> String {
        Obj::new()
            .str("verb", self.verb)
            .int("requests", self.requests)
            .num("mean_us", self.mean_us)
            .num("p50_us", self.p50_us)
            .num("p99_us", self.p99_us)
            .finish()
    }
}

impl LoadReport {
    /// Render the report as one JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .int("connections", self.connections as u64)
            .int("requests", self.requests)
            .int("errors", self.errors)
            .int("shed", self.shed)
            .int("retries", self.retries)
            .num("elapsed_seconds", self.elapsed_seconds)
            .num("throughput_rps", self.throughput_rps)
            .num("mean_us", self.mean_us)
            .num("p50_us", self.p50_us)
            .num("p99_us", self.p99_us)
            .raw("verbs", &array(self.verbs.iter().map(VerbLatency::to_json)))
            .finish()
    }
}

/// SplitMix64 — deterministic page sampling without external crates.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// True when request `index` of the mix is a `topk` (else `score`).
fn is_topk(cfg: &LoadConfig, index: usize) -> bool {
    cfg.topk_every > 0 && index % cfg.topk_every == cfg.topk_every - 1
}

/// The request mix for one connection, as wire lines.
fn request_line(cfg: &LoadConfig, rng: &mut u64, index: usize) -> String {
    if is_topk(cfg, index) {
        format!("topk {}\n", cfg.topk_k)
    } else {
        format!("score {}\n", splitmix64(rng) % cfg.max_page.max(1))
    }
}

struct ConnResult {
    /// One latency per served request, batch order.
    latencies_ns: Vec<u64>,
    /// The same latencies split by verb: `[score, topk]`.
    by_verb_ns: [Vec<u64>; 2],
    errors: u64,
    shed: u64,
    retries: u64,
}

/// Is this response line the shed policy's structured rejection?
fn is_overloaded(response: &str) -> bool {
    response.starts_with(r#"{"ok":false"#) && response.contains(r#""error":"overloaded""#)
}

/// The server's `retry_after_ms` backpressure hint, if present.
fn retry_hint_ms(response: &str) -> Option<u64> {
    let key = r#""retry_after_ms":"#;
    let rest = &response[response.find(key)? + key.len()..];
    let digits: &str = rest
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap_or("");
    digits.parse().ok()
}

/// Read one response line under the client deadline; a timeout is a
/// typed error, never a hang.
fn read_response(
    cfg: &LoadConfig,
    reader: &mut BufReader<TcpStream>,
    response: &mut String,
) -> Result<(), ServeError> {
    response.clear();
    match reader.read_line(response) {
        Ok(0) => Err(ServeError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection mid-run",
        ))),
        Ok(_) => Ok(()),
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            Err(ServeError::Timeout(format!(
                "no response from {} within {} ms",
                cfg.addr, cfg.timeout_ms
            )))
        }
        Err(e) => Err(e.into()),
    }
}

fn run_connection(cfg: &LoadConfig, conn_index: usize) -> Result<ConnResult, ServeError> {
    let stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    if cfg.timeout_ms > 0 {
        let deadline = Some(Duration::from_millis(cfg.timeout_ms));
        stream.set_read_timeout(deadline)?;
        stream.set_write_timeout(deadline)?;
    }
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut rng = cfg.seed ^ (conn_index as u64).wrapping_mul(0x5851_f42d_4c95_7f2d);
    let mut latencies_ns = Vec::with_capacity(cfg.requests_per_connection);
    let mut by_verb_ns = [Vec::new(), Vec::new()];
    let mut errors = 0u64;
    let mut shed = 0u64;
    let mut retries = 0u64;
    let mut response = String::new();
    let depth = cfg.pipeline.max(1);
    let mut sent = 0usize;
    while sent < cfg.requests_per_connection {
        let batch = depth.min(cfg.requests_per_connection - sent);
        let lines: Vec<String> = (0..batch)
            .map(|i| request_line(cfg, &mut rng, sent + i))
            .collect();
        let outgoing: String = lines.concat();
        // Shed requests queued for the retry pass, with the stiffest
        // backoff hint seen in the batch.
        let mut to_retry: Vec<String> = Vec::new();
        let mut hint_ms = 25u64;
        let started = Instant::now();
        // The verb (`is_topk`) of each line of the batch that was served.
        let mut served: Vec<bool> = Vec::with_capacity(batch);
        writer.write_all(outgoing.as_bytes())?;
        for (i, line) in lines.iter().enumerate() {
            read_response(cfg, &mut reader, &mut response)?;
            if is_overloaded(&response) {
                shed += 1;
                hint_ms = hint_ms.max(retry_hint_ms(&response).unwrap_or(25));
                if cfg.max_retries > 0 {
                    to_retry.push(line.clone());
                }
                continue;
            }
            if response.starts_with(r#"{"ok":false"#) {
                errors += 1;
            }
            served.push(is_topk(cfg, sent + i));
        }
        // Pipelined batches split wall time evenly, so each served line
        // is attributed its share of the batch, not a re-measurement; a
        // shed line's share is dropped (its retry is timed on its own).
        let per_request = started.elapsed().as_nanos() as u64 / batch as u64;
        for topk in served {
            latencies_ns.push(per_request);
            by_verb_ns[topk as usize].push(per_request);
        }
        sent += batch;
        // Retry pass: strict request/response, honoring the server's
        // backpressure hint (capped so a stiff hint can't stall the
        // run), with doubling fallback when a retry is shed again.
        for line in to_retry {
            let mut backoff = hint_ms;
            for _ in 0..cfg.max_retries {
                std::thread::sleep(Duration::from_millis(backoff.min(1_000)));
                retries += 1;
                let attempt_started = Instant::now();
                writer.write_all(line.as_bytes())?;
                read_response(cfg, &mut reader, &mut response)?;
                if is_overloaded(&response) {
                    shed += 1;
                    backoff = retry_hint_ms(&response).unwrap_or(backoff.saturating_mul(2));
                    continue;
                }
                if response.starts_with(r#"{"ok":false"#) {
                    errors += 1;
                }
                let ns = attempt_started.elapsed().as_nanos() as u64;
                latencies_ns.push(ns);
                by_verb_ns[line.starts_with("topk") as usize].push(ns);
                break;
            }
        }
    }
    Ok(ConnResult {
        latencies_ns,
        by_verb_ns,
        errors,
        shed,
        retries,
    })
}

/// Run the load test and aggregate the results.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, ServeError> {
    if cfg.connections == 0 || cfg.requests_per_connection == 0 {
        return Err(ServeError::Config(
            "need at least one connection and one request".into(),
        ));
    }
    let started = Instant::now();
    let results: Vec<Result<ConnResult, ServeError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.connections)
            .map(|i| s.spawn(move || run_connection(cfg, i)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|panic| {
                    // Surface the panic as an error instead of taking the
                    // whole load run down with a second panic.
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "panic payload was not a string".into());
                    Err(ServeError::LoadThread(msg))
                })
            })
            .collect()
    });
    let elapsed_seconds = started.elapsed().as_secs_f64();
    let mut latencies_ns = Vec::new();
    let mut by_verb_ns = [Vec::new(), Vec::new()];
    let mut errors = 0u64;
    let mut shed = 0u64;
    let mut retries = 0u64;
    for r in results {
        let r = r?;
        latencies_ns.extend(r.latencies_ns);
        for (merged, conn) in by_verb_ns.iter_mut().zip(r.by_verb_ns) {
            merged.extend(conn);
        }
        errors += r.errors;
        shed += r.shed;
        retries += r.retries;
    }
    latencies_ns.sort_unstable();
    let requests = latencies_ns.len() as u64;
    let mean_us = if requests == 0 {
        0.0
    } else {
        latencies_ns.iter().sum::<u64>() as f64 / requests as f64 / 1_000.0
    };
    let verbs = ["score", "topk"]
        .into_iter()
        .zip(by_verb_ns.iter_mut())
        .filter(|(_, samples)| !samples.is_empty())
        .map(|(verb, samples)| {
            samples.sort_unstable();
            VerbLatency {
                verb,
                requests: samples.len() as u64,
                mean_us: samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1_000.0,
                p50_us: percentile_us(samples, 0.50),
                p99_us: percentile_us(samples, 0.99),
            }
        })
        .collect();
    Ok(LoadReport {
        connections: cfg.connections,
        requests,
        errors,
        shed,
        retries,
        elapsed_seconds,
        throughput_rps: requests as f64 / elapsed_seconds,
        mean_us,
        p50_us: percentile_us(&latencies_ns, 0.50),
        p99_us: percentile_us(&latencies_ns, 0.99),
        verbs,
    })
}

/// Percentile of sorted nanosecond `samples`, in microseconds.
///
/// Linear interpolation between the two order statistics straddling
/// the target rank — not the nearest-rank sample, and not a histogram
/// bucket bound. With the batch-averaged latencies the pipeline
/// produces, nearest-rank snapped whole percentile steps to one
/// batch's value; interpolation keeps the report smooth.
fn percentile_us(samples: &[u64], q: f64) -> f64 {
    match samples {
        [] => 0.0,
        [only] => *only as f64 / 1_000.0,
        samples => {
            let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            (samples[lo] as f64 * (1.0 - frac) + samples[hi] as f64 * frac) / 1_000.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_to_json() {
        let report = LoadReport {
            connections: 2,
            requests: 100,
            errors: 1,
            shed: 5,
            retries: 4,
            elapsed_seconds: 0.5,
            throughput_rps: 200.0,
            mean_us: 12.5,
            p50_us: 10.0,
            p99_us: 40.0,
            verbs: vec![VerbLatency {
                verb: "score",
                requests: 90,
                mean_us: 11.0,
                p50_us: 9.0,
                p99_us: 35.0,
            }],
        };
        let json = report.to_json();
        assert!(json.contains(r#""throughput_rps":200"#), "{json}");
        assert!(json.contains(r#""requests":100"#), "{json}");
        assert!(json.contains(r#""shed":5"#), "{json}");
        assert!(json.contains(r#""retries":4"#), "{json}");
        assert!(
            json.contains(r#""verbs":[{"verb":"score","requests":90"#),
            "{json}"
        );
    }

    #[test]
    fn request_mix_interleaves_topk() {
        let cfg = LoadConfig {
            topk_every: 3,
            topk_k: 7,
            max_page: 10,
            ..Default::default()
        };
        let mut rng = 1u64;
        let lines: Vec<String> = (0..6).map(|i| request_line(&cfg, &mut rng, i)).collect();
        assert!(lines[2].starts_with("topk 7"));
        assert!(lines[5].starts_with("topk 7"));
        assert!(lines.iter().enumerate().all(|(i, l)| if i % 3 == 2 {
            l.starts_with("topk")
        } else {
            l.starts_with("score ")
        }));
    }

    #[test]
    fn sampling_is_deterministic() {
        let mut a = 9u64;
        let mut b = 9u64;
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
        assert_ne!(splitmix64(&mut a), splitmix64(&mut b) + 1);
    }

    #[test]
    fn overload_responses_are_recognized_and_hints_parsed() {
        let line = r#"{"ok":false,"error":"overloaded","retry_after_ms":150}"#;
        assert!(is_overloaded(line));
        assert_eq!(retry_hint_ms(line), Some(150));
        assert!(!is_overloaded(r#"{"ok":false,"error":"unknown page"}"#));
        assert!(!is_overloaded(r#"{"ok":true,"score":1.0}"#));
        assert_eq!(retry_hint_ms(r#"{"ok":false,"error":"overloaded"}"#), None);
    }

    #[test]
    fn a_shed_then_served_request_counts_once() {
        use std::net::TcpListener;
        // A stub server that sheds the first request and serves the rest,
        // the retry included.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for (i, line) in BufReader::new(stream).lines().enumerate() {
                line.unwrap();
                let answer = if i == 0 {
                    "{\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":1}\n"
                } else {
                    "{\"ok\":true}\n"
                };
                writer.write_all(answer.as_bytes()).unwrap();
            }
        });
        let report = run_load(&LoadConfig {
            addr,
            connections: 1,
            requests_per_connection: 4,
            pipeline: 4,
            topk_every: 0,
            ..Default::default()
        })
        .unwrap();
        server.join().unwrap();
        assert_eq!((report.shed, report.retries), (1, 1));
        assert_eq!(report.requests, 4, "each request counts once");
        assert_eq!(report.verbs[0].requests, 4);
        assert_eq!(report.errors, 0);
    }

    #[test]
    fn rejects_empty_load() {
        let cfg = LoadConfig {
            connections: 0,
            ..Default::default()
        };
        assert!(matches!(run_load(&cfg), Err(ServeError::Config(_))));
    }
}
