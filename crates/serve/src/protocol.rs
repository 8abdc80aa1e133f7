//! The line-delimited request/response protocol.
//!
//! Requests are single lines of whitespace-separated words; responses are
//! single lines of JSON, always carrying an `"ok"` field:
//!
//! ```text
//! > score 42
//! < {"ok":true,"page":42,"quality":1.23,"pagerank":1.1,"trend":"increasing","generation":3}
//! > topk 2
//! < {"ok":true,"generation":3,"k":2,"pages":[{...},{...}]}
//! > stats
//! < {"ok":true,"generation":3,"pages":100000,"requests":512,...}
//! > health
//! < {"ok":true,"status":"serving","generation":3,"pages":100000}
//! ```
//!
//! Parsing and rendering are pure functions so they are testable without
//! a socket; `server` wires them to TCP.

use qrank_core::Trend;
use qrank_graph::PageId;
use qrank_obs::json::{array, Obj};
use qrank_obs::Tracer;

use crate::metrics::MetricsSnapshot;
use crate::shard::ShardView;
use crate::store::PageScores;

/// Largest `k` a `topk` request may ask for (keeps one response line
/// bounded; clients page beyond this).
pub const MAX_TOPK: usize = 10_000;

/// What a `trace` request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceQuery {
    /// `trace` / `trace slowest [verb]` — the slowest retained traces,
    /// optionally filtered to one verb (verbs are a closed set, so the
    /// filter is canonicalized to a static name at parse time).
    Slowest(Option<&'static str>),
    /// `trace id <n>` — one recently retained trace by id.
    ById(u64),
    /// `trace slo` — per-verb latency summaries and burn rates as JSON.
    Slo,
    /// `trace report` — human-readable latency-attribution breakdown
    /// (multi-line; terminated by `# EOF` like `metrics`).
    Report,
}

/// A parsed client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `score <page>` — one page's scores.
    Score(u64),
    /// `topk <n>` — the n highest-quality pages.
    TopK(usize),
    /// `stats` — serving counters.
    Stats,
    /// `metrics` — Prometheus text exposition of every registry
    /// (multi-line; terminated by a `# EOF` line so line-based clients
    /// can find the end).
    Metrics,
    /// `health` — liveness probe (is the process up and answering?).
    Health,
    /// `ready` — readiness probe: unready until a sealed score view
    /// exists (generation > 0), e.g. mid-recovery on an empty store.
    Ready,
    /// `trace …` — query the request-scoped tracing subsystem.
    Trace(TraceQuery),
    /// `shutdown` — request a graceful drain: the server stops
    /// accepting, finishes in-flight requests under a deadline, and the
    /// embedding process writes a final checkpoint. Handled at the
    /// connection layer (it needs the drain flag); the direct handler
    /// answers an explanatory error.
    Shutdown,
}

/// The wire name of a request's verb (used to key per-verb latency
/// histograms, SLO windows, and slowest-K retention).
pub fn verb_name(r: &Request) -> &'static str {
    match r {
        Request::Score(_) => "score",
        Request::TopK(_) => "topk",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Health => "health",
        Request::Ready => "ready",
        Request::Trace(_) => "trace",
        Request::Shutdown => "shutdown",
    }
}

/// Canonicalize a trace-filter verb to its static name (the verbs are a
/// closed set; `refresh` is the forced-trace verb the refresh engine
/// records).
fn canonical_verb(s: &str) -> Option<&'static str> {
    [
        "score", "topk", "stats", "metrics", "health", "ready", "trace", "shutdown", "error",
        "refresh",
    ]
    .into_iter()
    .find(|&v| s == v)
}

/// Parse one request line (already stripped of its newline).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    match fields.as_slice() {
        ["score", page] => page
            .parse::<u64>()
            .map(Request::Score)
            .map_err(|_| format!("bad page id {page:?}")),
        ["topk", n] => match n.parse::<usize>() {
            Ok(k) if (1..=MAX_TOPK).contains(&k) => Ok(Request::TopK(k)),
            Ok(_) => Err(format!("topk k must be in 1..={MAX_TOPK}")),
            Err(_) => Err(format!("bad topk count {n:?}")),
        },
        ["stats"] => Ok(Request::Stats),
        ["metrics"] => Ok(Request::Metrics),
        ["health"] => Ok(Request::Health),
        ["ready"] => Ok(Request::Ready),
        ["shutdown"] => Ok(Request::Shutdown),
        ["trace"] | ["trace", "slowest"] => Ok(Request::Trace(TraceQuery::Slowest(None))),
        ["trace", "slowest", verb] => match canonical_verb(verb) {
            Some(v) => Ok(Request::Trace(TraceQuery::Slowest(Some(v)))),
            None => Err(format!("unknown trace verb filter {verb:?}")),
        },
        ["trace", "id", n] => n
            .parse::<u64>()
            .map(|id| Request::Trace(TraceQuery::ById(id)))
            .map_err(|_| format!("bad trace id {n:?}")),
        ["trace", "slo"] => Ok(Request::Trace(TraceQuery::Slo)),
        ["trace", "report"] => Ok(Request::Trace(TraceQuery::Report)),
        ["trace", ..] => Err("trace usage: trace [slowest [verb] | id <n> | slo | report]".into()),
        [] => Err("empty request".to_string()),
        [verb, ..] => Err(format!(
            "unknown command {verb:?} (try: score/topk/stats/metrics/health/ready/trace/shutdown)"
        )),
    }
}

/// Wire name of a trend classification.
pub fn trend_name(t: Trend) -> &'static str {
    match t {
        Trend::Increasing => "increasing",
        Trend::Decreasing => "decreasing",
        Trend::Oscillating => "oscillating",
        Trend::Flat => "flat",
    }
}

fn page_obj(page: PageId, s: &PageScores) -> String {
    Obj::new()
        .int("page", page.0)
        .num("quality", s.quality)
        .num("pagerank", s.pagerank)
        .str("trend", trend_name(s.trend))
        .finish()
}

/// Render a `score` response: the page looked up in the sealed view,
/// stamped with the view's generation.
pub fn render_score(view: &ShardView, page: u64) -> String {
    match view.score(PageId(page)) {
        Some(s) => Obj::new()
            .bool("ok", true)
            .int("page", page)
            .num("quality", s.quality)
            .num("pagerank", s.pagerank)
            .str("trend", trend_name(s.trend))
            .int("generation", view.generation())
            .finish(),
        None => render_error(&format!("unknown page {page}")),
    }
}

/// Render a `topk` response: a prefix of the sealed view's quality
/// order.
pub fn render_topk(view: &ShardView, k: usize) -> String {
    let rows = view.topk(k);
    Obj::new()
        .bool("ok", true)
        .int("generation", view.generation())
        .int("k", rows.len() as u64)
        .raw("pages", &array(rows.iter().map(|(p, s)| page_obj(*p, s))))
        .finish()
}

/// Render a `stats` response (page count read off the view).
pub fn render_stats(view: &ShardView, m: &MetricsSnapshot) -> String {
    Obj::new()
        .bool("ok", true)
        .int("generation", view.generation())
        .int("pages", view.len() as u64)
        .num("snapshot_time", view.snapshot_time())
        .int("requests", m.requests)
        .int("errors", m.errors)
        .int("cache_hits", m.cache_hits)
        .int("cache_misses", m.cache_misses)
        .num("cache_hit_rate", m.cache_hit_rate())
        .num("mean_latency_us", m.mean_latency_us)
        .num("p50_us", m.p50_us)
        .num("p99_us", m.p99_us)
        .num("min_us", m.min_us)
        .num("max_us", m.max_us)
        .num("uptime_seconds", m.uptime_seconds)
        .finish()
}

/// Render a `metrics` response: Prometheus text exposition of the
/// server's own registry plus the process-global `qrank-obs` registry,
/// with two store gauges inlined, terminated by `# EOF`.
///
/// The response is multi-line — the one verb that is not a single JSON
/// line — so the terminator is what lets a line-based client know it
/// has read everything.
pub fn render_metrics(view: &ShardView, metrics: &crate::metrics::Metrics) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# TYPE qrank_store_generation gauge\nqrank_store_generation {}\n",
        view.generation()
    ));
    out.push_str(&format!(
        "# TYPE qrank_store_pages gauge\nqrank_store_pages {}\n",
        view.len()
    ));
    out.push_str(&metrics.registry().snapshot().prometheus_text());
    out.push_str(&qrank_obs::global().snapshot().prometheus_text());
    out.push_str("# EOF");
    out
}

/// Render a `trace` response.
///
/// `tracer` is `None` when the server was started without
/// `--trace-sample`, in which case every query answers with an error
/// explaining how to turn tracing on. `Report` is the one multi-line
/// answer (terminated by `# EOF`, like `metrics`); everything else is a
/// single JSON line.
pub fn render_trace(tracer: Option<&Tracer>, query: TraceQuery) -> String {
    let Some(t) = tracer else {
        return render_error("tracing disabled (start the server with --trace-sample N)");
    };
    match query {
        TraceQuery::Slowest(verb) => Obj::new()
            .bool("ok", true)
            .raw("traces", &t.slowest_json(verb))
            .finish(),
        TraceQuery::ById(id) => match t.by_id(id) {
            Some(trace) => Obj::new()
                .bool("ok", true)
                .raw("trace", &trace.to_json())
                .finish(),
            None => render_error(&format!("no retained trace with id {id}")),
        },
        TraceQuery::Slo => Obj::new()
            .bool("ok", true)
            .raw("slo", &t.slo_json())
            .raw("exemplars", &t.exemplars_json())
            .finish(),
        TraceQuery::Report => {
            let mut out = t.report_text();
            out.push_str("# EOF");
            out
        }
    }
}

/// Render a `health` response (`"empty"` until the first generation is
/// published, `"serving"` after).
pub fn render_health(view: &ShardView) -> String {
    Obj::new()
        .bool("ok", true)
        .str(
            "status",
            if view.generation() == 0 {
                "empty"
            } else {
                "serving"
            },
        )
        .int("generation", view.generation())
        .int("pages", view.len() as u64)
        .finish()
}

/// Render a `ready` response: readiness is *having something to
/// serve* — a sealed view with at least one published generation.
/// Distinct from `health` (liveness), which answers `ok:true` even on
/// an empty store: a process mid-recovery is alive but not ready, and
/// a load balancer must not route to it yet. `draining` flips to true
/// once a graceful shutdown begins, un-readying the instance ahead of
/// the actual stop.
pub fn render_ready(view: &ShardView, draining: bool) -> String {
    let ready = view.generation() > 0 && !draining;
    Obj::new()
        .bool("ok", true)
        .bool("ready", ready)
        .bool("draining", draining)
        .int("generation", view.generation())
        .int("pages", view.len() as u64)
        .finish()
}

/// Render the structured load-shed rejection. `retry_after_ms` is the
/// server's backpressure hint: clients should wait at least that long
/// before retrying (the hint grows as the overload deepens).
pub fn render_overloaded(retry_after_ms: u64) -> String {
    Obj::new()
        .bool("ok", false)
        .str("error", "overloaded")
        .int("retry_after_ms", retry_after_ms)
        .finish()
}

/// Render the rejection for connections arriving during a graceful
/// drain (same shape as [`render_overloaded`] so clients handle both
/// with one code path, but distinguishable by the error string).
pub fn render_draining() -> String {
    Obj::new()
        .bool("ok", false)
        .str("error", "draining")
        .int("retry_after_ms", 1_000)
        .finish()
}

/// Render the acknowledgement for an accepted `shutdown` verb.
pub fn render_shutdown_ack() -> String {
    Obj::new().bool("ok", true).bool("draining", true).finish()
}

/// Render an error response.
pub fn render_error(msg: &str) -> String {
    Obj::new().bool("ok", false).str("error", msg).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;

    #[test]
    fn parses_all_verbs() {
        assert_eq!(parse_request("score 42"), Ok(Request::Score(42)));
        assert_eq!(parse_request("  topk 5  "), Ok(Request::TopK(5)));
        assert_eq!(parse_request("stats"), Ok(Request::Stats));
        assert_eq!(parse_request("metrics"), Ok(Request::Metrics));
        assert_eq!(parse_request("health"), Ok(Request::Health));
        assert_eq!(parse_request("ready"), Ok(Request::Ready));
        assert_eq!(parse_request("shutdown"), Ok(Request::Shutdown));
        assert_eq!(
            parse_request("trace"),
            Ok(Request::Trace(TraceQuery::Slowest(None)))
        );
        assert_eq!(
            parse_request("trace slowest topk"),
            Ok(Request::Trace(TraceQuery::Slowest(Some("topk"))))
        );
        assert_eq!(
            parse_request("trace id 7"),
            Ok(Request::Trace(TraceQuery::ById(7)))
        );
        assert_eq!(
            parse_request("trace slo"),
            Ok(Request::Trace(TraceQuery::Slo))
        );
        assert_eq!(
            parse_request("trace report"),
            Ok(Request::Trace(TraceQuery::Report))
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").is_err());
        assert!(parse_request("score").is_err());
        assert!(parse_request("score x").is_err());
        assert!(parse_request("topk 0").is_err());
        assert!(parse_request("topk 999999999").is_err());
        assert!(parse_request("flush all").is_err());
        assert!(parse_request("trace slowest frobnicate").is_err());
        assert!(parse_request("trace id x").is_err());
        assert!(parse_request("trace everything").is_err());
    }

    #[test]
    fn trace_filters_name_only_verbs_a_trace_can_carry() {
        // recovery runs before a tracer is attached, so it never records
        assert!(parse_request("trace slowest recover").is_err());
        assert_eq!(
            parse_request("trace slowest ready"),
            Ok(Request::Trace(TraceQuery::Slowest(Some("ready"))))
        );
    }

    #[test]
    fn trace_without_tracer_answers_a_helpful_error() {
        for q in [
            TraceQuery::Slowest(None),
            TraceQuery::ById(1),
            TraceQuery::Slo,
            TraceQuery::Report,
        ] {
            let r = render_trace(None, q);
            assert!(r.contains("tracing disabled"), "{r}");
        }
    }

    #[test]
    fn trace_renders_against_a_live_tracer() {
        use qrank_obs::TraceConfig;
        let _obs = crate::obs_lock();
        qrank_obs::set_enabled(true);
        let t = Tracer::new(TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        });
        let active = t.begin_sampled("score").unwrap();
        drop(qrank_obs::span!("t.serialize"));
        let id = active.id();
        t.finish(active, true);
        t.observe("score", 1_000, true);
        qrank_obs::set_enabled(false);

        let slowest = render_trace(Some(&t), TraceQuery::Slowest(None));
        assert!(slowest.contains(r#""ok":true"#), "{slowest}");
        assert!(slowest.contains(r#""verb":"score""#), "{slowest}");
        let by_id = render_trace(Some(&t), TraceQuery::ById(id));
        assert!(by_id.contains(r#""stages""#), "{by_id}");
        assert!(render_trace(Some(&t), TraceQuery::ById(id + 99)).contains("no retained trace"));
        let slo = render_trace(Some(&t), TraceQuery::Slo);
        assert!(
            slo.contains(r#""slo""#) && slo.contains(r#""exemplars""#),
            "{slo}"
        );
        let report = render_trace(Some(&t), TraceQuery::Report);
        assert!(
            report.ends_with("# EOF"),
            "line-based clients need the terminator"
        );
        assert!(report.contains("verb score"), "{report}");
    }

    #[test]
    fn renders_against_empty_store() {
        let view = crate::shard::ShardedStore::new(1).current();
        assert_eq!(
            render_score(&view, 7),
            r#"{"ok":false,"error":"unknown page 7"}"#
        );
        let topk = render_topk(&view, 3);
        assert!(
            topk.contains(r#""k":0"#) && topk.contains(r#""pages":[]"#),
            "{topk}"
        );
        let health = render_health(&view);
        assert!(health.contains(r#""status":"empty""#), "{health}");
        let stats = render_stats(&view, &Metrics::new().snapshot());
        assert!(
            stats.contains(r#""ok":true"#) && stats.contains(r#""requests":0"#),
            "{stats}"
        );
    }

    #[test]
    fn metrics_exposition_is_prometheus_text_with_terminator() {
        let view = crate::shard::ShardedStore::new(1).current();
        let m = Metrics::new();
        m.record(1_500);
        m.record_error();
        let text = render_metrics(&view, &m);
        assert!(text.starts_with("# TYPE qrank_store_generation gauge"));
        assert!(text.contains("qrank_store_pages 0"));
        assert!(text.contains("qrank_serve_requests 1"));
        assert!(text.contains("qrank_serve_errors 1"));
        assert!(text.contains("qrank_serve_latency_ns_count 1"));
        assert!(
            text.ends_with("# EOF"),
            "line-based clients need the terminator"
        );
    }

    #[test]
    fn ready_is_false_on_an_empty_or_draining_store() {
        let empty = crate::shard::ShardedStore::new(1).current();
        let r = render_ready(&empty, false);
        assert!(
            r.contains(r#""ok":true"#) && r.contains(r#""ready":false"#),
            "{r}"
        );
        assert!(r.contains(r#""generation":0"#), "{r}");
        let r = render_ready(&empty, true);
        assert!(
            r.contains(r#""ready":false"#) && r.contains(r#""draining":true"#),
            "{r}"
        );
        // liveness stays distinct: health answers "empty", not unready
        assert!(render_health(&empty).contains(r#""status":"empty""#));
    }

    #[test]
    fn overload_and_drain_rejections_are_structured() {
        let o = render_overloaded(75);
        assert_eq!(
            o,
            r#"{"ok":false,"error":"overloaded","retry_after_ms":75}"#
        );
        let d = render_draining();
        assert!(
            d.contains(r#""error":"draining""#) && d.contains("retry_after_ms"),
            "{d}"
        );
        assert_eq!(render_shutdown_ack(), r#"{"ok":true,"draining":true}"#);
    }

    #[test]
    fn trend_names_are_stable() {
        assert_eq!(trend_name(Trend::Increasing), "increasing");
        assert_eq!(trend_name(Trend::Flat), "flat");
    }
}
