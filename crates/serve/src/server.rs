//! The TCP front end: a fixed-size thread pool over a blocking listener.
//!
//! One acceptor thread feeds accepted connections into a *bounded* MPSC
//! queue; `workers` threads pull connections off the queue and speak the
//! line-delimited protocol until the client hangs up. Reads carry a short
//! timeout so workers poll the shutdown flag between requests; shutdown
//! therefore *drains* — every fully-received request is answered before
//! its connection closes.
//!
//! ## Overload protection
//!
//! Admission is bounded end to end: at most
//! [`ServerConfig::max_connections`] connections are open at once and at
//! most [`ServerConfig::accept_queue`] sit between the acceptor and the
//! workers; a connection past either bound is answered one structured
//! `overloaded` line (with a `retry_after_ms` backpressure hint) and
//! closed instead of queueing without bound. Admitted requests then pass
//! the [`ShedPolicy`]: under load, expensive verbs (`topk`/`stats`/
//! `metrics`/`trace`) are shed before cheap ones (`score`), and probe
//! verbs (`health`/`ready`/`shutdown`) are never shed. Per-connection
//! read deadlines evict clients that stall mid-request (slow-loris) or
//! sit idle pinning a worker; write timeouts stop a non-reading client
//! from wedging a response. See [`crate::overload`].
//!
//! ## Graceful drain
//!
//! The `shutdown` protocol verb (or [`ServerHandle::drain`]) starts a
//! drain: the acceptor answers new connections `draining`, in-flight
//! requests finish, idle connections close, and — once everything
//! queued has been answered or the deadline expires — the threads are
//! joined. The embedding process (see `qrank serve`) then writes a
//! final checkpoint.
//!
//! Each complete request line goes to [`crate::handler`], which answers
//! every verb from one read of the store's sealed view.
//!
//! Malformed input never drops the connection: unknown verbs, bad
//! arguments, and non-UTF-8 bytes all answer a structured
//! `{"ok":false,...}` line. The one exception is a line longer than
//! [`MAX_LINE_BYTES`] — the server answers an error and closes, since
//! the rest of the oversized line could not be framed.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use qrank_obs::trace::{TraceConfig, Tracer};

use crate::cache::LruCache;
use crate::error::ServeError;
use crate::handler::handle_admitted;
use crate::metrics::Metrics;
use crate::overload::{retry_after_ms, DrainReport, ShedPolicy};
use crate::protocol::{render_draining, render_error, render_overloaded};
use crate::shard::ShardedStore;

/// How often an idle worker wakes up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(250);

/// Largest request line accepted before the connection is closed with an
/// error (a defense against unframed garbage, not a protocol limit —
/// every real verb fits in a few dozen bytes).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Front-end configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads (each handles one connection at a time).
    pub workers: usize,
    /// `topk` response cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Trace 1 in every `trace_sample` requests (0 = no tracer at all;
    /// the server then answers `trace` queries with an error). A
    /// non-zero setting builds a [`Tracer`], but recording still honors
    /// the global `QRANK_OBS` gate.
    pub trace_sample: u64,
    /// SLO latency objective in microseconds (used only when
    /// `trace_sample` is non-zero).
    pub slo_latency_us: u64,
    /// Maximum simultaneously open connections (0 = unlimited). Excess
    /// connections are answered one `overloaded` line and closed.
    pub max_connections: usize,
    /// Accepted connections waiting for a worker (the bound on the
    /// accept queue; must be at least 1). Overflow is answered one
    /// `overloaded` line and closed instead of queueing unboundedly.
    pub accept_queue: usize,
    /// Per-connection read deadline in milliseconds: a connection that
    /// completes no request for this long — idle, or dribbling a
    /// partial line (slow-loris) — is closed with a structured error.
    /// 0 disables the deadline.
    pub read_deadline_ms: u64,
    /// Socket write timeout in milliseconds (0 = none): bounds how long
    /// a response write may block on a non-reading client.
    pub write_timeout_ms: u64,
    /// Load-shedding policy (disabled by default).
    pub shed: ShedPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 4,
            cache_capacity: 64,
            trace_sample: 0,
            slo_latency_us: 1_000,
            max_connections: 0,
            accept_queue: 1024,
            read_deadline_ms: 0,
            write_timeout_ms: 0,
            shed: ShedPolicy::default(),
        }
    }
}

/// Flags and gauges shared by the acceptor, the workers, and the
/// handle. Load is `queued + active`; `open` backs the connection cap
/// and the drain report.
#[derive(Debug, Default)]
pub(crate) struct Shared {
    /// Hard stop: acceptor exits, workers close their connections.
    shutdown: AtomicBool,
    /// Drain in progress: stop accepting, close idle connections.
    pub(crate) draining: AtomicBool,
    /// A `shutdown` protocol verb arrived; the embedding process polls
    /// [`ServerHandle::drain_requested`] and runs the drain.
    pub(crate) drain_requested: AtomicBool,
    /// Connections accepted but not yet picked up by a worker.
    queued: AtomicUsize,
    /// Requests currently executing.
    pub(crate) active: AtomicUsize,
    /// Connections currently open (queued + being served).
    open: AtomicUsize,
}

impl Shared {
    /// Instantaneous load for shedding decisions.
    pub(crate) fn load(&self) -> usize {
        self.queued.load(Ordering::Relaxed) + self.active.load(Ordering::Relaxed)
    }
}

/// Per-connection limits derived from [`ServerConfig`].
#[derive(Debug)]
pub(crate) struct Limits {
    read_deadline: Option<Duration>,
    write_timeout: Option<Duration>,
    pub(crate) shed: ShedPolicy,
}

/// What the acceptor, every worker and the [`ServerHandle`] share,
/// behind one `Arc`: the store, and what a request needs beside it.
#[derive(Debug)]
pub(crate) struct Context {
    pub(crate) store: Arc<ShardedStore>,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) cache: Mutex<LruCache>,
    pub(crate) tracer: Option<Arc<Tracer>>,
    pub(crate) shared: Shared,
    pub(crate) limits: Limits,
}

impl Context {
    fn new(store: Arc<ShardedStore>, cfg: &ServerConfig) -> Self {
        let tracer = (cfg.trace_sample > 0).then(|| {
            Arc::new(Tracer::new(TraceConfig {
                sample_every: cfg.trace_sample,
                latency_objective_ns: cfg.slo_latency_us.saturating_mul(1_000),
            }))
        });
        Context {
            store,
            metrics: Arc::new(Metrics::new()),
            cache: Mutex::new(LruCache::new(cfg.cache_capacity)),
            tracer,
            shared: Shared::default(),
            limits: Limits {
                read_deadline: (cfg.read_deadline_ms > 0)
                    .then(|| Duration::from_millis(cfg.read_deadline_ms)),
                write_timeout: (cfg.write_timeout_ms > 0)
                    .then(|| Duration::from_millis(cfg.write_timeout_ms)),
                shed: cfg.shed.clone(),
            },
        }
    }
}

/// A running server; dropping it without calling
/// [`ServerHandle::shutdown`] detaches the threads.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Context>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's live metrics.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.ctx.metrics)
    }

    /// The server's tracer, when started with a non-zero `trace_sample`.
    /// Hand it to the refresh engine
    /// ([`crate::RefreshEngine::set_tracer`]) so refresh cycles land in
    /// the same trace store the `trace` verb reads.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.ctx.tracer.clone()
    }

    /// Has a client asked for a graceful shutdown via the `shutdown`
    /// protocol verb? The embedding process polls this and calls
    /// [`ServerHandle::drain`].
    pub fn drain_requested(&self) -> bool {
        self.ctx.shared.drain_requested.load(Ordering::SeqCst)
    }

    /// Requests currently executing plus connections waiting for a
    /// worker — the load figure the shed policy sees.
    pub fn load(&self) -> usize {
        self.ctx.shared.load()
    }

    /// Gracefully drain: stop accepting (new connections are answered
    /// `draining` and closed), let queued connections and in-flight
    /// requests finish, then stop. If the deadline expires first, the
    /// remaining work is abandoned and counted in the report.
    pub fn drain(mut self, deadline: Duration) -> DrainReport {
        let (shared, registry) = (&self.ctx.shared, self.ctx.metrics.registry());
        registry.counter("drain.begin").inc();
        shared.draining.store(true, Ordering::SeqCst);
        let started = Instant::now();
        while started.elapsed() < deadline && shared.load() > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let abandoned = shared.load();
        let completed = abandoned == 0;
        let waited = started.elapsed();
        registry
            .counter(if completed {
                "drain.completed"
            } else {
                "drain.deadline_forced"
            })
            .inc();
        if abandoned > 0 {
            registry
                .counter("drain.aborted_connections")
                .add(abandoned as u64);
        }
        self.stop_and_join();
        DrainReport {
            completed,
            waited,
            aborted_connections: abandoned,
        }
    }

    /// Signal shutdown and join every thread, draining in-flight
    /// requests first.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.ctx.shared.shutdown.store(true, Ordering::SeqCst);
        // the acceptor is parked in accept(); poke it awake
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Write one response line; false once the peer is gone or a write
/// timed out.
fn write_line(conn: &mut TcpStream, line: &str) -> bool {
    conn.write_all(line.as_bytes()).is_ok() && conn.write_all(b"\n").is_ok()
}

/// Answer a connection that is being refused admission: one structured
/// line, best-effort under a short write timeout, then close.
fn reject(mut conn: TcpStream, line: &str) {
    let _ = conn.set_write_timeout(Some(Duration::from_millis(500)));
    write_line(&mut conn, line);
}

/// Bind and start serving `store` on `cfg.addr`; returns immediately.
pub fn serve(store: Arc<ShardedStore>, cfg: &ServerConfig) -> Result<ServerHandle, ServeError> {
    if cfg.workers == 0 {
        return Err(ServeError::Config("need at least one worker thread".into()));
    }
    if cfg.accept_queue == 0 {
        return Err(ServeError::Config(
            "accept_queue needs at least one slot".into(),
        ));
    }
    if cfg.shed.cheap_at != 0 && cfg.shed.cheap_at < cfg.shed.expensive_at {
        return Err(ServeError::Config(format!(
            "shed cheap_at ({}) must not be below expensive_at ({}) — \
             cheap verbs may never shed before expensive ones",
            cfg.shed.cheap_at, cfg.shed.expensive_at
        )));
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let ctx = Arc::new(Context::new(store, cfg));
    let (conn_tx, conn_rx) = sync_channel::<TcpStream>(cfg.accept_queue);
    let conn_rx = Arc::new(Mutex::new(conn_rx));

    let acceptor = {
        let ctx = Arc::clone(&ctx);
        let max_connections = cfg.max_connections;
        let accept_queue = cfg.accept_queue;
        std::thread::spawn(move || {
            let shared = &ctx.shared;
            // conn_tx lives here; dropping it on exit unblocks the workers
            for conn in listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                if shared.draining.load(Ordering::SeqCst) {
                    ctx.metrics
                        .registry()
                        .counter("drain.rejected_connections")
                        .inc();
                    reject(conn, &render_draining());
                    continue;
                }
                if max_connections > 0 && shared.open.load(Ordering::Relaxed) >= max_connections {
                    ctx.metrics.shed_accept();
                    reject(
                        conn,
                        &render_overloaded(retry_after_ms(
                            shared.open.load(Ordering::Relaxed),
                            max_connections,
                        )),
                    );
                    continue;
                }
                shared.open.fetch_add(1, Ordering::SeqCst);
                shared.queued.fetch_add(1, Ordering::SeqCst);
                match conn_tx.try_send(conn) {
                    Ok(()) => {}
                    Err(TrySendError::Full(conn)) => {
                        shared.queued.fetch_sub(1, Ordering::SeqCst);
                        shared.open.fetch_sub(1, Ordering::SeqCst);
                        ctx.metrics.shed_accept();
                        reject(
                            conn,
                            &render_overloaded(retry_after_ms(
                                accept_queue + 1,
                                accept_queue.max(1),
                            )),
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        shared.queued.fetch_sub(1, Ordering::SeqCst);
                        shared.open.fetch_sub(1, Ordering::SeqCst);
                        break;
                    }
                }
            }
        })
    };

    let workers = (0..cfg.workers)
        .map(|_| {
            let conn_rx = Arc::clone(&conn_rx);
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || loop {
                let conn = conn_rx.lock().recv();
                match conn {
                    Ok(conn) => {
                        ctx.shared.queued.fetch_sub(1, Ordering::SeqCst);
                        serve_connection(conn, &ctx);
                        ctx.shared.open.fetch_sub(1, Ordering::SeqCst);
                    }
                    Err(_) => break, // acceptor exited and the queue drained
                }
            })
        })
        .collect();

    Ok(ServerHandle {
        addr,
        ctx,
        acceptor: Some(acceptor),
        workers,
    })
}

/// Speak the protocol on one connection until EOF, error, deadline,
/// drain, or shutdown.
fn serve_connection(mut conn: TcpStream, ctx: &Context) {
    let (shared, limits) = (&ctx.shared, &ctx.limits);
    // The read timeout doubles as the shutdown/deadline poll tick; a
    // deadline shorter than the default tick still fires on time.
    let poll = match limits.read_deadline {
        Some(d) => POLL_INTERVAL.min(d),
        None => POLL_INTERVAL,
    };
    if conn.set_read_timeout(Some(poll)).is_err() {
        return;
    }
    if let Some(t) = limits.write_timeout {
        let _ = conn.set_write_timeout(Some(t));
    }
    let _ = conn.set_nodelay(true);
    // only a sampled request's trace makes this thread's spans time,
    // its `serve.write` included
    let _untimed = qrank_obs::span::mute();
    let mut pending: Vec<u8> = Vec::new();
    let mut buf = [0u8; 4096];
    // Reset whenever a complete request is answered; an idle or
    // dribbling (slow-loris) connection never resets it.
    let mut last_progress = Instant::now();
    loop {
        // answer every complete line already received
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line);
            let (response, trace) = handle_admitted(line.trim(), ctx);
            let wrote = {
                let _s = qrank_obs::span!("serve.write");
                write_line(&mut conn, &response)
            };
            if let (Some(tr), Some(t)) = (ctx.tracer.as_deref(), trace) {
                tr.finish(t, wrote && !response.starts_with(r#"{"ok":false"#));
            }
            if !wrote {
                return;
            }
            last_progress = Instant::now();
        }
        // Everything framed is answered; what's left is a partial line.
        // Refuse to buffer one without bound: answer a structured error
        // and close (the rest of the oversized line cannot be framed).
        if pending.len() > MAX_LINE_BYTES {
            ctx.metrics.record_error();
            write_line(
                &mut conn,
                &render_error(&format!("request line exceeds {MAX_LINE_BYTES} bytes")),
            );
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Draining: every fully-received request above was answered;
        // close instead of waiting for more.
        if shared.draining.load(Ordering::SeqCst) && !pending.contains(&b'\n') {
            return;
        }
        if let Some(deadline) = limits.read_deadline {
            if last_progress.elapsed() >= deadline {
                ctx.metrics.deadline_closed();
                write_line(
                    &mut conn,
                    &render_error(&format!(
                        "read deadline exceeded ({} ms without a complete request)",
                        deadline.as_millis()
                    )),
                );
                return;
            }
        }
        match conn.read(&mut buf) {
            Ok(0) => return, // client hung up
            Ok(n) => pending.extend_from_slice(&buf[..n]),
            // timeout: loop around and re-check the shutdown flag
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::handle_request;
    use crate::overload::Cost;

    #[test]
    fn handle_request_counts_and_caches() {
        let store = ShardedStore::new(1);
        let metrics = Metrics::new();
        let cache = Mutex::new(LruCache::new(4));
        let health = handle_request("health", &store, &metrics, &cache);
        assert!(health.contains(r#""status":"empty""#));
        let bad = handle_request("nonsense", &store, &metrics, &cache);
        assert!(bad.contains(r#""ok":false"#));
        let t1 = handle_request("topk 3", &store, &metrics, &cache);
        let t2 = handle_request("topk 3", &store, &metrics, &cache);
        assert_eq!(t1, t2);
        let s = metrics.snapshot();
        assert_eq!(s.requests, 3, "errors are not counted as served requests");
        assert_eq!(s.errors, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn unsampled_requests_time_no_serve_spans_and_retain_no_trace() {
        use std::io::{BufRead, BufReader, Write};
        let _obs = crate::obs_lock();
        qrank_obs::set_enabled(true);
        let serve_spans = || {
            let snap = qrank_obs::global().snapshot();
            let spans = snap
                .histograms
                .iter()
                .filter(|(n, _)| n.starts_with("span.serve."));
            spans.map(|(n, h)| (n.clone(), h.count)).collect::<Vec<_>>()
        };
        // three `health` requests on one connection, each answered
        // after its parse span closed
        let served = |trace_sample| {
            let cfg = ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                trace_sample,
                ..Default::default()
            };
            let server = serve(Arc::new(ShardedStore::new(1)), &cfg).unwrap();
            let conn = TcpStream::connect(server.addr()).unwrap();
            let mut answers = BufReader::new(conn.try_clone().unwrap());
            for _ in 0..3 {
                (&conn).write_all(b"health\n").unwrap();
                answers.read_line(&mut String::new()).unwrap();
            }
            server
        };
        let untraced = served(0);
        let store = ShardedStore::new(1);
        handle_request(
            "health",
            &store,
            &Metrics::new(),
            &Mutex::new(LruCache::new(4)),
        );
        assert_eq!(serve_spans(), [], "no tracer: every request is unsampled");
        // 1 in 3: request 0 is sampled, requests 1 and 2 are not
        let traced = served(3);
        let tracer = traced.tracer().unwrap();
        assert_eq!((tracer.requests(), tracer.sampled()), (3, 1));
        let parses = serve_spans()
            .into_iter()
            .find(|(n, _)| n == "span.serve.parse");
        assert_eq!(parses, Some(("span.serve.parse".to_string(), 1)));
        assert_eq!(
            tracer.slowest(None).len(),
            1,
            "only the sampled trace is retained"
        );
        qrank_obs::set_enabled(false);
        untraced.shutdown();
        traced.shutdown();
    }

    #[test]
    fn metrics_verb_answers_prometheus_text() {
        let store = ShardedStore::new(1);
        let metrics = Metrics::new();
        let cache = Mutex::new(LruCache::new(4));
        handle_request("health", &store, &metrics, &cache);
        let text = handle_request("metrics", &store, &metrics, &cache);
        assert!(text.starts_with("# TYPE "));
        assert!(text.contains("qrank_serve_requests 1"));
        assert!(text.ends_with("# EOF"));
    }

    #[test]
    fn ready_and_shutdown_over_the_direct_handler() {
        let store = ShardedStore::new(1);
        let metrics = Metrics::new();
        let cache = Mutex::new(LruCache::new(4));
        let ready = handle_request("ready", &store, &metrics, &cache);
        assert!(ready.contains(r#""ready":false"#), "empty store: {ready}");
        let shut = handle_request("shutdown", &store, &metrics, &cache);
        assert!(
            shut.contains(r#""ok":false"#) && shut.contains("live server connection"),
            "{shut}"
        );
    }

    #[test]
    fn rejects_zero_workers() {
        let cfg = ServerConfig {
            workers: 0,
            ..Default::default()
        };
        assert!(matches!(
            serve(Arc::new(ShardedStore::new(1)), &cfg),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn rejects_bad_admission_configs() {
        let no_queue = ServerConfig {
            accept_queue: 0,
            ..Default::default()
        };
        assert!(matches!(
            serve(Arc::new(ShardedStore::new(1)), &no_queue),
            Err(ServeError::Config(_))
        ));
        let inverted = ServerConfig {
            shed: ShedPolicy {
                expensive_at: 10,
                cheap_at: 2,
                latency_us: 0,
            },
            ..Default::default()
        };
        assert!(matches!(
            serve(Arc::new(ShardedStore::new(1)), &inverted),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn shed_rejections_skip_request_and_error_counters() {
        let ctx = Context::new(
            Arc::new(ShardedStore::new(1)),
            &ServerConfig {
                shed: ShedPolicy {
                    expensive_at: 1,
                    cheap_at: 1_000,
                    latency_us: 0,
                },
                ..Default::default()
            },
        );
        ctx.shared.active.store(5, Ordering::SeqCst);
        let (topk, _) = handle_admitted("topk 3", &ctx);
        assert!(topk.contains(r#""error":"overloaded""#), "{topk}");
        assert!(topk.contains("retry_after_ms"), "{topk}");
        let (score, _) = handle_admitted("score 1", &ctx);
        assert!(
            !score.contains("overloaded"),
            "score admitted while load is under the cheap threshold: {score}"
        );
        let (health, _) = handle_admitted("health", &ctx);
        assert!(health.contains(r#""ok":true"#), "probes exempt: {health}");
        let s = ctx.metrics.snapshot();
        assert_eq!(s.requests, 2, "the shed topk is not a served request");
        assert_eq!(s.errors, 0, "sheds are not protocol errors");
        let snap = ctx.metrics.registry().snapshot();
        assert_eq!(snap.counter("shed.requests"), Some(1));
        assert_eq!(snap.counter("shed.topk"), Some(1));
    }

    #[test]
    fn shutdown_verb_sets_the_drain_request_flag() {
        let ctx = Context::new(Arc::new(ShardedStore::new(1)), &ServerConfig::default());
        let (ack, _) = handle_admitted("shutdown", &ctx);
        assert_eq!(ack, r#"{"ok":true,"draining":true}"#);
        assert!(ctx.shared.drain_requested.load(Ordering::SeqCst));
        // ready now reports unready even though the store is untouched
        let (ready, _) = handle_admitted("ready", &ctx);
        assert!(ready.contains(r#""draining":true"#), "{ready}");
    }

    #[test]
    fn cost_classes_shed_in_priority_order_under_synthetic_load() {
        // Sweep every load level: at no level is score shed while topk
        // would be admitted (the proptest in tests/ explores the policy
        // space; this pins the concrete default-derived thresholds).
        let shed = ShedPolicy {
            expensive_at: 3,
            cheap_at: 0,
            latency_us: 0,
        };
        for load in 0..64 {
            let cheap = shed.decide(Cost::Cheap, load, 0.0);
            let expensive = shed.decide(Cost::Expensive, load, 0.0);
            if cheap.is_some() {
                assert!(
                    expensive.is_some(),
                    "load {load}: score shed while topk admitted"
                );
            }
        }
    }
}
