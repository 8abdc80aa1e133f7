//! The request handler: admission, then one path for every verb.
//!
//! [`handle_request`] serves one request line against a
//! [`ShardedStore`]; the TCP workers enter through `handle_admitted`,
//! which first applies the connection layer's admission control (the
//! `shutdown` verb, the [`ShedPolicy`](crate::ShedPolicy)). Every verb
//! reads the store's sealed view once, in the `serve.store_read` span, and
//! answers from that one view — a briefly-held read lock around an
//! `Arc` clone, so a refresh publish never stalls the request path, and
//! no two verbs can answer from different generations of one publish.

use std::sync::atomic::Ordering;
use std::time::Instant;

use parking_lot::Mutex;
use qrank_obs::trace::{ActiveTrace, Tracer};

use crate::cache::LruCache;
use crate::metrics::Metrics;
use crate::overload::request_cost;
use crate::protocol::{
    parse_request, render_error, render_health, render_metrics, render_overloaded, render_ready,
    render_score, render_shutdown_ack, render_stats, render_topk, render_trace, verb_name, Request,
};
use crate::server::Context;
use crate::shard::{ShardView, ShardedStore};

/// Serve one request line, untraced.
pub fn handle_request(
    line: &str,
    store: &ShardedStore,
    metrics: &Metrics,
    cache: &Mutex<LruCache>,
) -> String {
    dispatch(line, store, metrics, cache, None, false).0
}

/// The connection-layer request path: admission control first (drain
/// verb, shed policy), then [`dispatch`]. Shed rejections are counted
/// on their own counters — not as served requests (they skip the
/// latency histogram) and not as protocol errors.
pub(crate) fn handle_admitted(line: &str, ctx: &Context) -> (String, Option<ActiveTrace>) {
    let shared = &ctx.shared;
    if let Ok(request) = parse_request(line) {
        if let Request::Shutdown = request {
            shared.drain_requested.store(true, Ordering::SeqCst);
            ctx.metrics.registry().counter("drain.requested").inc();
            return (render_shutdown_ack(), None);
        }
        let shed = &ctx.limits.shed;
        if shed.enabled() {
            let p99_us = if shed.latency_us > 0 {
                ctx.metrics.snapshot().p99_us
            } else {
                0.0
            };
            if let Some(retry) = shed.decide(request_cost(&request), shared.load(), p99_us) {
                ctx.metrics.shed(verb_name(&request));
                return (render_overloaded(retry), None);
            }
        }
    }
    // Malformed lines fall through: dispatch renders the structured
    // parse error with the usual metrics/trace bookkeeping.
    shared.active.fetch_add(1, Ordering::SeqCst);
    let drained =
        shared.draining.load(Ordering::SeqCst) || shared.drain_requested.load(Ordering::SeqCst);
    let out = dispatch(
        line,
        &ctx.store,
        &ctx.metrics,
        &ctx.cache,
        ctx.tracer.as_deref(),
        drained,
    );
    shared.active.fetch_sub(1, Ordering::SeqCst);
    out
}

/// Serve one request line with optional request-scoped tracing and the
/// connection layer's drain flag, which only the `ready` verb consults
/// (a draining instance reports unready so load balancers stop routing
/// to it before it stops).
///
/// The handler's stages are spans: `serve.parse`, `serve.store_read`,
/// `serve.cache_lookup` (`topk` only) and `serve.serialize` (skipped on
/// a `topk` cache hit). When `tracer` is set and the head-based sampler
/// elects this request, the returned [`ActiveTrace`] collects them and
/// stays current until the caller, which owns the `serve.write` span,
/// calls [`Tracer::finish`] after the response hits the socket; any
/// other request mutes its thread ([`qrank_obs::span::mute`]), so its
/// spans time nothing. Latency accounting ([`Tracer::observe`], for
/// per-verb percentiles and the SLO monitor) happens here for **every**
/// request, sampled or not, and covers the handler only — the write
/// stage is visible in traces but not in the latency histograms, which
/// keeps the histogram identical to what the untraced
/// `serve.latency_ns` metric records.
fn dispatch(
    line: &str,
    store: &ShardedStore,
    metrics: &Metrics,
    cache: &Mutex<LruCache>,
    tracer: Option<&Tracer>,
    draining: bool,
) -> (String, Option<ActiveTrace>) {
    let mut trace = tracer.and_then(|t| t.begin_sampled("request"));
    let _untimed = (trace.is_none() && qrank_obs::enabled()).then(qrank_obs::span::mute);
    let started = Instant::now();
    let parsed = {
        let _s = qrank_obs::span!("serve.parse");
        parse_request(line)
    };
    let request = match parsed {
        Ok(r) => r,
        Err(msg) => {
            metrics.record_error();
            if let Some(t) = trace.as_mut() {
                t.set_verb("error");
                t.note(&msg);
            }
            if let Some(tr) = tracer {
                tr.observe("error", started.elapsed().as_nanos() as u64, false);
            }
            return (render_error(&msg), trace);
        }
    };
    if let Some(t) = trace.as_mut() {
        t.set_verb(verb_name(&request));
    }
    let view = {
        let _s = qrank_obs::span!("serve.store_read");
        store.current()
    };
    let cached = match request {
        Request::TopK(k) => {
            let _s = qrank_obs::span!("serve.cache_lookup");
            let hit = cache.lock().get(view.generation(), k);
            let note = if hit.is_some() {
                metrics.cache_hit();
                "cache=hit"
            } else {
                metrics.cache_miss();
                "cache=miss"
            };
            if let Some(t) = trace.as_mut() {
                t.note(note);
            }
            hit
        }
        _ => None,
    };
    let response = match cached {
        Some(hit) => hit,
        None => {
            let _s = qrank_obs::span!("serve.serialize");
            let rendered = render(request, &view, metrics, tracer, draining);
            if let Request::TopK(k) = request {
                cache.lock().put(view.generation(), k, rendered.clone());
            }
            rendered
        }
    };
    let latency_ns = started.elapsed().as_nanos() as u64;
    metrics.record(latency_ns);
    if let Some(tr) = tracer {
        let ok = !response.starts_with(r#"{"ok":false"#);
        tr.observe(verb_name(&request), latency_ns, ok);
    }
    (response, trace)
}

/// Render a verb's response from one sealed view. `topk` renders here
/// uncached; [`dispatch`] puts the cache in front of it.
fn render(
    request: Request,
    view: &ShardView,
    metrics: &Metrics,
    tracer: Option<&Tracer>,
    draining: bool,
) -> String {
    match request {
        Request::Score(_) if crate::fault::chaos_fail("serve.score") => {
            render_error("chaos: injected serve.score fault")
        }
        Request::Score(page) => render_score(view, page),
        Request::TopK(k) => render_topk(view, k),
        Request::Stats => render_stats(view, &metrics.snapshot()),
        Request::Metrics => render_metrics(view, metrics),
        Request::Health => render_health(view),
        Request::Ready => render_ready(view, draining),
        Request::Trace(query) => render_trace(tracer, query),
        // The connection layer intercepts this verb (it owns the drain
        // flag); reaching it here means a direct handler call.
        Request::Shutdown => render_error("shutdown is only honored on a live server connection"),
    }
}
