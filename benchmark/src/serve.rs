//! The read workloads: `serve_point` (point reads, socket-bound) and
//! `serve_mixed_refresh` (score + topk beside periodic refreshes).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qrank_core::{run_pipeline, PipelineConfig, PipelineReport};
use qrank_graph::{PageId, SnapshotSeries};
use qrank_serve::shard_of;
use qrank_serve::{
    handle_request, parse_request, serve, spawn_refresh_worker, LruCache, Metrics, RefreshConfig,
    RefreshEngine, RefreshMsg, ServerConfig, ServerHandle, ShardedStore,
};

use crate::batch::GROWTH;
use crate::check::{check_score_exact, check_score_shape, check_topk_shape, store_vs_report};
use crate::gen::{Req, RequestMix, Web};
use crate::load::{Conn, ConnStats};
use crate::stats::{median, median_by, percentile_sorted, tail_percentile};
use crate::{sys, Budget, Measured, Pass, RunConfig, Workload, SETUPS};

/// Requests in flight per connection.
///
/// Depth-1 ping-pong is excluded on the evidence recorded in ISSUE 11:
/// with one connection at depth 1 the p50 of identical back-to-back runs
/// flipped 24 us -> 55 us on the reference host (scheduler wake-up
/// latency, not the program), while depth-16 runs repeated within +-7 %.
const DEPTH: usize = 16;
/// Server worker threads.
const WORKERS: usize = 2;
/// A response that takes longer than this is a failure, not a sample.
const READ_TIMEOUT: Duration = Duration::from_secs(4);
/// Period of the delta schedule of `serve_mixed_refresh`.
const REFRESH_PERIOD: Duration = Duration::from_millis(500);
/// Requests replayed in-process by the traced run's probes.
const PROBE_REQUESTS: usize = 200_000;

struct Params {
    pages: usize,
    shards: usize,
    topk_share: f64,
    requests: usize,
    warmup: usize,
    /// Edges per refresh delta; `None` for a read-only workload.
    delta_edges: Option<usize>,
}

fn params(cfg: &RunConfig) -> Params {
    match cfg.workload {
        Workload::ServePoint => Params {
            pages: cfg.scaled(100_000, 100),
            shards: 1,
            topk_share: 0.0,
            requests: cfg.scaled(250_000, 2_000),
            warmup: cfg.scaled(50_000, 500),
            delta_edges: None,
        },
        _ => Params {
            pages: cfg.scaled(50_000, 100),
            shards: 8,
            topk_share: 0.2,
            requests: cfg.scaled(75_000, 2_000),
            warmup: cfg.scaled(50_000, 500),
            delta_edges: Some(cfg.scaled(500, 5)),
        },
    }
}

fn connections() -> usize {
    sys::nproc().min(2)
}

type Worker = (Sender<RefreshMsg>, JoinHandle<(RefreshEngine, Vec<String>)>);

/// Everything set-up builds: a published store, a bound server, warmed
/// connections, and (beside refreshes) the worker that owns the engine.
struct Rig {
    /// Keeps growing in the feeder once the timed region starts.
    web: Option<Web>,
    series: SnapshotSeries,
    store: Arc<ShardedStore>,
    server: ServerHandle,
    conns: Vec<Conn>,
    worker: Option<Worker>,
    warmup_sent: u64,
    /// Resident bytes the seeding (pipeline or engine, plus publish)
    /// added.
    seeded_bytes: f64,
}

fn mix(cfg: &RunConfig, p: &Params, connection: usize) -> RequestMix {
    RequestMix::new(
        cfg.seed,
        connection as u64,
        p.pages as u64,
        p.topk_share,
        1_000,
    )
}

fn start_server(store: &Arc<ShardedStore>, trace_sample: u64) -> Result<ServerHandle, String> {
    serve(
        Arc::clone(store),
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            trace_sample,
            ..Default::default()
        },
    )
    .map_err(|e| format!("serve: {e}"))
}

fn connect_warm(
    cfg: &RunConfig,
    p: &Params,
    server: &ServerHandle,
) -> Result<(Vec<Conn>, u64), String> {
    let mut conns = Vec::new();
    for c in 0..connections() {
        conns.push(
            Conn::connect(server.addr(), mix(cfg, p, c), READ_TIMEOUT)
                .map_err(|e| format!("connect: {e}"))?,
        );
    }
    let (_, stats) = pass(&mut conns, p.warmup, false);
    let mut sent = 0;
    for s in &stats {
        if let Some(e) = &s.error {
            return Err(format!("warm-up: {e}"));
        }
        sent += s.attempted;
    }
    Ok((conns, sent))
}

fn setup(cfg: &RunConfig, p: &Params) -> Result<Rig, String> {
    let web = Web::grow(p.pages, cfg.seed);
    let series = web.fixed_series(&GROWTH);
    let store = Arc::new(ShardedStore::new(p.shards));
    let rss_before = sys::rss_bytes();
    let worker = if p.delta_edges.is_some() {
        let engine =
            RefreshEngine::from_series(&series, RefreshConfig::default(), Arc::clone(&store))
                .map_err(|e| format!("seed engine: {e}"))?;
        Some(spawn_refresh_worker(engine))
    } else {
        let report = run_pipeline(&series, &PipelineConfig::default())
            .map_err(|e| format!("seed pipeline: {e}"))?;
        let newest = series.snapshots().last().expect("four snapshots").time;
        store.publish_report(&report, 1, newest);
        None
    };
    let seeded_bytes = sys::rss_bytes() - rss_before;
    let server = start_server(&store, 0)?;
    let (conns, warmup_sent) = connect_warm(cfg, p, &server)?;
    Ok(Rig {
        web: Some(web),
        series,
        store,
        server,
        conns,
        worker,
        warmup_sent,
        seeded_bytes,
    })
}

/// Stop the worker (returning its engine and errors) and the server.
fn teardown(rig: Rig) -> (Option<(RefreshEngine, Vec<String>)>, u64) {
    let Rig {
        server,
        conns,
        worker,
        ..
    } = rig;
    drop(conns); // workers see EOF and return to the queue at once
    let requests = server.metrics().snapshot().requests;
    server.shutdown();
    let joined = worker.map(|(tx, join)| {
        let _ = tx.send(RefreshMsg::Shutdown);
        join.join()
            .unwrap_or_else(|_| panic!("refresh worker thread panicked"))
    });
    (joined, requests)
}

/// One closed-loop pass: every connection sends `requests` requests on
/// its own thread. Returns the wall clock and each connection's stats.
fn pass(conns: &mut [Conn], requests: usize, record: bool) -> (f64, Vec<ConnStats>) {
    let started = Instant::now();
    let stats = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| s.spawn(move || c.run(requests, DEPTH, record)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (started.elapsed().as_secs_f64(), stats)
}

/// What the delta feeder saw.
#[derive(Default)]
struct Fed {
    sent: u64,
    visible_ms: Vec<f64>,
    max_late_ms: f64,
    failures: Vec<String>,
}

/// Send one delta every [`REFRESH_PERIOD`] on a fixed schedule (a late
/// refresh does not move the next due time) and wait for each one's
/// generation to become visible to readers.
fn feed(
    mut web: Web,
    tx: Sender<RefreshMsg>,
    store: Arc<ShardedStore>,
    edges: usize,
    seed: u64,
    stop: &AtomicBool,
) -> Fed {
    let mut fed = Fed::default();
    let base = store.current().generation();
    let first_time = GROWTH.len() as f64;
    let started = Instant::now();
    for i in 0u32.. {
        let due = started + REFRESH_PERIOD * i;
        while Instant::now() < due && !stop.load(Ordering::SeqCst) {
            std::thread::sleep(
                Duration::from_millis(1).min(due.saturating_duration_since(Instant::now())),
            );
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let delta = web
            .deltas(1, first_time + f64::from(i), seed ^ u64::from(i), |_| edges)
            .pop()
            .expect("one delta asked for");
        let sent_at = Instant::now();
        fed.max_late_ms = fed.max_late_ms.max((sent_at - due).as_secs_f64() * 1e3);
        if tx.send(RefreshMsg::Delta(delta)).is_err() {
            fed.failures.push("refresh worker hung up".into());
            break;
        }
        fed.sent += 1;
        let want = base + fed.sent;
        while store.current().generation() < want {
            if sent_at.elapsed() > Duration::from_secs(20) {
                fed.failures
                    .push(format!("generation {want} not visible after 20 s"));
                return fed;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        fed.visible_ms.push(sent_at.elapsed().as_secs_f64() * 1e3);
    }
    fed
}

/// Compare every kept raw response with the store.
fn check_samples(m: &mut Measured, stats: &[ConnStats], rig_store: &ShardedStore, pinned: bool) {
    let view = rig_store.current();
    let served = view.len();
    let mut bad = 0usize;
    for s in stats {
        // A score reads its shard's freshest store and a topk the view
        // sealed after the last shard published, so on one connection
        // generations never go back per shard (score) and for the view
        // (topk), but may across them.
        let mut score_gen = vec![0u64; view.shards()];
        let mut topk_gen = 0u64;
        for (req, line) in &s.samples {
            let verdict = match *req {
                Req::Score(p) if pinned => check_score_exact(line, &view, p),
                Req::Score(p) => check_score_shape(line, p).and_then(|g| {
                    let seen = &mut score_gen[shard_of(p, view.shards())];
                    let ok = g >= *seen;
                    *seen = g.max(*seen);
                    ok.then_some(())
                        .ok_or(format!("score {p}: generation went back to {g}"))
                }),
                Req::TopK(k) => check_topk_shape(line, k as usize, served).and_then(|g| {
                    let ok = g >= topk_gen;
                    topk_gen = topk_gen.max(g);
                    ok.then_some(())
                        .ok_or(format!("topk {k}: generation went back to {g}"))
                }),
            };
            if let Err(e) = verdict {
                bad += 1;
                if bad <= 3 {
                    m.fail(e);
                }
            }
        }
    }
    m.failed += bad as u64;
    if bad > 3 {
        m.fail(format!("{bad} sampled responses failed their check"));
    }
}

/// `serve_point` and `serve_mixed_refresh`.
pub fn run(cfg: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let p = params(cfg);
    let mut rig = None;
    let mut seeded_bytes = 0.0;
    for _ in 0..SETUPS {
        if let Some(old) = rig.take() {
            teardown(old);
        }
        let t = Instant::now();
        match setup(cfg, &p) {
            Ok(r) => {
                // only the first seeding grows a fresh heap; later ones
                // reuse what the torn-down rig freed
                if m.setups_s.is_empty() {
                    seeded_bytes = r.seeded_bytes;
                }
                rig = Some(r);
            }
            Err(e) => {
                m.fail(format!("set-up: {e}"));
                return m;
            }
        }
        m.setups_s.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("SETUPS > 0");

    // traced serve_point also drives a second server that samples 1 in
    // 100 requests with observability on, pass for pass beside the plain
    // one
    let mut sampled = None;
    if cfg.trace && cfg.workload == Workload::ServePoint {
        match start_server(&rig.store, 100).and_then(|server| {
            let (conns, _) = connect_warm(cfg, &p, &server)?;
            Ok((server, conns))
        }) {
            Ok(s) => sampled = Some(s),
            Err(e) => m.fail(format!("sampled server: {e}")),
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let feeder = p.delta_edges.map(|edges| {
        let web = rig.web.take().expect("set-up grew a web");
        let tx = rig
            .worker
            .as_ref()
            .expect("refresh rig has a worker")
            .0
            .clone();
        let (store, stop, seed) = (Arc::clone(&rig.store), Arc::clone(&stop), cfg.seed);
        std::thread::spawn(move || feed(web, tx, store, edges, seed, &stop))
    });

    let budget = Budget::start(cfg.seconds);
    let tail = tail_percentile(p.requests * connections());
    let mut all: Vec<ConnStats> = Vec::new();
    let mut sampled_rps = Vec::new();
    let (mut score_p50_us, mut topk_p50_us, mut p99_us) = (Vec::new(), Vec::new(), Vec::new());
    while budget.open() || m.passes.is_empty() {
        let (wall, mut stats) = pass(&mut rig.conns, p.requests, true);
        let ok: u64 = stats.iter().map(|s| s.succeeded).sum();
        let broken = stats.iter().any(|s| s.error.is_some()) || ok == 0;
        // Latencies fold per pass, pooled over its connections, and are
        // dropped before the next pass: a run's million samples would
        // otherwise sit in the peak RSS this workload reports.
        let mut score_ns = Vec::new();
        let mut topk_ns = Vec::new();
        for s in &mut stats {
            score_ns.append(&mut s.score_ns);
            topk_ns.append(&mut s.topk_ns);
        }
        all.extend(stats);
        if broken {
            break;
        }
        score_ns.sort_unstable();
        topk_ns.sort_unstable();
        let mut pooled: Vec<u32> = score_ns.iter().chain(&topk_ns).copied().collect();
        pooled.sort_unstable();
        let at = |v: &[u32], q: f64| f64::from(percentile_sorted(v, q));
        m.passes.push(Pass {
            wall_s: wall,
            ops_per_s: ok as f64 / wall,
            op_p50_ms: at(&pooled, 0.50) / 1e6,
            op_tail_ms: at(&pooled, tail) / 1e6,
        });
        p99_us.push(at(&pooled, 0.99) / 1e3);
        if !score_ns.is_empty() {
            score_p50_us.push(at(&score_ns, 0.50) / 1e3);
        }
        if !topk_ns.is_empty() {
            topk_p50_us.push(at(&topk_ns, 0.50) / 1e3);
        }
        if let Some((_, conns)) = sampled.as_mut() {
            qrank_obs::set_enabled(true);
            let (wall, stats) = pass(conns, p.requests, false);
            qrank_obs::set_enabled(false);
            sampled_rps.push(stats.iter().map(|s| s.succeeded).sum::<u64>() as f64 / wall);
        }
    }
    stop.store(true, Ordering::SeqCst);
    let fed = feeder.map(|f| f.join().expect("feeder thread panicked"));
    if let Some((server, conns)) = sampled {
        drop(conns);
        server.shutdown();
    }

    // counts
    let mut client_requests = rig.warmup_sent;
    let mut bytes = 0u64;
    for s in &all {
        m.attempted += s.attempted;
        m.failed += s.failed;
        client_requests += s.attempted;
        bytes += s.bytes;
        if let Some(e) = &s.error {
            m.fail(format!("connection stopped early: {e}"));
        }
    }
    let responses: u64 = all.iter().map(|s| s.succeeded).sum();

    if m.passes.is_empty() {
        m.fail("no pass completed");
        teardown(rig);
        return m;
    }

    // content checks on the kept responses, then the counters
    check_samples(&mut m, &all, &rig.store, p.delta_edges.is_none());
    let cache_hit_rate = rig.server.metrics().snapshot().cache_hit_rate();
    let series = rig.series.clone();
    let store = Arc::clone(&rig.store);
    let (joined, server_requests) = teardown(rig);
    if server_requests != client_requests {
        m.fail(format!(
            "server counted {server_requests} requests, clients sent {client_requests}"
        ));
    }
    // The seed window's report: generation 1, and all a read-only
    // workload ever serves.
    let seed_report = run_pipeline(&series, &PipelineConfig::default())
        .map_err(|e| m.fail(format!("cold pipeline over the seed window: {e}")))
        .ok();
    let final_report = match joined {
        Some((engine, errors)) => {
            let fed = fed.as_ref().expect("a refresh rig has a feeder");
            m.attempted += fed.sent;
            m.failed += (errors.len() + fed.failures.len()) as u64;
            for e in errors.iter().chain(&fed.failures).take(3) {
                m.fail(format!("refresh: {e}"));
            }
            if engine.generation() != 1 + fed.sent {
                m.fail(format!(
                    "engine at generation {}, {} deltas sent",
                    engine.generation(),
                    fed.sent
                ));
            }
            // what is served after the last refresh is what a cold run
            // over the engine's window computes
            run_pipeline(engine.series(), &PipelineConfig::default())
                .map_err(|e| m.fail(format!("cold pipeline over the final window: {e}")))
                .ok()
        }
        None => None,
    };
    let served = final_report.as_ref().or(seed_report.as_ref());
    if let Some(diff) = served.and_then(|r| store_vs_report(&store.current(), r)) {
        m.fail(diff);
    }
    // Quality is read off the seed window, whose snapshots differ by a
    // tenth of the web each; after a run of refreshes the window's
    // differ by a few hundred edges, too few pages change for a steady
    // ratio.
    if let Some(seed) = &seed_report {
        m.improvement = seed.improvement_factor();
    }
    m.fact("pages", p.pages);
    m.fact("shards", p.shards);
    m.fact("connections", connections());
    m.fact("depth", DEPTH);
    m.fact("requests_per_pass", p.requests * connections());
    m.fact("passes", m.passes.len());
    m.fact(
        "latency_samples_per_pass",
        responses / m.passes.len() as u64,
    );
    m.fact("tail_percentile", tail);
    if let Some(fed) = &fed {
        m.fact("refreshes", fed.sent);
    }

    if cfg.trace {
        // the median pass, not the best: the layer tables describe a
        // typical pass
        for (name, per_pass) in [
            ("server.score_p50_us", &score_p50_us),
            ("server.topk_p50_us", &topk_p50_us),
            ("server.p99_us", &p99_us),
        ] {
            if !per_pass.is_empty() {
                m.layer(name, median(per_pass));
            }
        }
        m.layer("server.requests", server_requests as f64);
        m.layer(
            "protocol.bytes_per_response",
            bytes as f64 / responses.max(1) as f64,
        );
        m.layer("cache.hit_rate", cache_hit_rate);
        m.layer(
            "store.bytes_per_page",
            (seeded_bytes / p.pages as f64).max(0.0),
        );
        if !sampled_rps.is_empty() {
            m.layer(
                "obs.sampled_rps_ratio",
                median(&sampled_rps) / median_by(&m.passes, |p| p.ops_per_s),
            );
        }
        if let Some(fed) = &fed {
            if !fed.visible_ms.is_empty() {
                m.layer("refresh.visible_p50_ms", median(&fed.visible_ms));
            }
            m.layer("refresh.publishes", fed.sent as f64);
            m.layer("feeder.max_late_ms", fed.max_late_ms);
        }
        let p50_us = 1e3 * median_by(&m.passes, |p| p.op_p50_ms);
        if let Some(seed) = &seed_report {
            if let Err(e) = probes(cfg, &p, seed, p50_us, &mut m) {
                m.fail(format!("probe: {e}"));
            }
        }
    }
    m
}

/// The layers under a request, each timed on one thread around its
/// public entry point, over connection 0's own request sequence.
fn probes(
    cfg: &RunConfig,
    p: &Params,
    report: &PipelineReport,
    end_to_end_p50_us: f64,
    m: &mut Measured,
) -> Result<(), String> {
    let store = ShardedStore::new(p.shards);
    let t = Instant::now();
    store.publish_report(report, 1, GROWTH.len() as f64 - 1.0);
    m.layer("store.publish_ms", t.elapsed().as_secs_f64() * 1e3);

    let n = PROBE_REQUESTS.min(p.requests);
    let mut stream = mix(cfg, p, 0);
    let reqs: Vec<Req> = (0..n).map(|_| stream.next_req()).collect();
    let lines: Vec<String> = reqs
        .iter()
        .map(|r| {
            let mut wire = Vec::new();
            r.write_to(&mut wire);
            String::from_utf8_lossy(&wire).trim_end().to_string()
        })
        .collect();
    let per_request_ns = |t: Instant| t.elapsed().as_secs_f64() * 1e9 / n as f64;

    let t = Instant::now();
    for line in &lines {
        black_box(parse_request(black_box(line)).map_err(|e| e.to_string())?);
    }
    let parse_ns = per_request_ns(t);

    let view = store.current();
    let (mut scores, mut topks) = (0usize, 0usize);
    let t = Instant::now();
    for r in &reqs {
        if let Req::Score(page) = *r {
            black_box(view.score(PageId(black_box(page))));
            scores += 1;
        }
    }
    let score_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for r in &reqs {
        if let Req::TopK(k) = *r {
            black_box(view.topk(black_box(k as usize)));
            topks += 1;
        }
    }
    let topk_s = if topks > 0 {
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    m.layer("store.score_ns", score_s * 1e9 / scores.max(1) as f64);
    if topks > 0 {
        m.layer("store.topk_us", topk_s * 1e6 / topks as f64);
    }
    let read_ns = (score_s + topk_s) * 1e9 / n as f64;

    let metrics = Metrics::new();
    let cache = parking_lot::Mutex::new(LruCache::new(ServerConfig::default().cache_capacity));
    let t = Instant::now();
    for line in &lines {
        black_box(handle_request(black_box(line), &store, &metrics, &cache));
    }
    let handle_ns = per_request_ns(t);
    m.layer("protocol.parse_ns", parse_ns);
    m.layer("server.handle_ns", handle_ns);
    // derived, not a render_* call: those signatures are about to change
    m.layer("protocol.serialize_ns", handle_ns - parse_ns - read_ns);
    m.layer("server.socket_us", end_to_end_p50_us - handle_ns / 1e3);
    Ok(())
}
