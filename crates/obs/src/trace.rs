//! Request-scoped tracing with deterministic sampling, slowest-K
//! retention, and tail-latency exemplars.
//!
//! A [`Tracer`] is owned by whoever serves traffic (one per server
//! instance, like the serve crate's metrics registry). Each sampled
//! request gets an [`ActiveTrace`] that records an ordered list of
//! stages (`parse → cache → store_read → serialize → write` on the
//! serve path; `wal_append → apply → snapshot → engine → swap` for a
//! refresh cycle) with wall-time deltas. Finished traces land in a
//! bounded store:
//!
//! * **slowest-K per verb** — the tail-latency exemplars worth keeping;
//! * **a recent ring** — so `trace id N` can find a trace the client
//!   just saw sampled;
//! * **per-bucket exemplars** — every latency-histogram bucket at or
//!   above a threshold keeps a reference to the most recent trace that
//!   landed in it, keyed by the same [`crate::registry::bucket_index`]
//!   the histograms use. "Why is the 4–8ms bucket populated?" is
//!   answered by an actual trace from that bucket.
//!
//! # Sampling is deterministic
//!
//! Head-based 1-in-N sampling by a request counter — request `i` is
//! traced iff `i % N == 0` — with no RNG anywhere. The *latency
//! accounting* ([`Tracer::observe`]) runs for **every** request, traced
//! or not, so per-verb percentiles and the [`SloMonitor`] see full
//! traffic; sampling only bounds how many requests pay for stage-level
//! clock reads.
//!
//! # Disabled runs stay bit-identical
//!
//! Every entry point checks [`crate::enabled`] first. With `QRANK_OBS`
//! unset (and no `--trace-sample`), `begin_*` returns `None`, `observe`
//! returns without reading a clock, and no lock is touched.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{array, Obj};
use crate::registry::{bucket_index, bucket_lower_bound, Histogram};
use crate::slo::{SloMonitor, VerbSlo, AVAILABILITY_GOAL, LATENCY_GOAL};

/// Slowest traces retained per verb.
const SLOWEST_K: usize = 8;

/// Recently finished traces retained for by-id lookup.
const RECENT_CAPACITY: usize = 256;

/// Histogram buckets at or above this index keep a per-bucket exemplar
/// trace: bucket 20 = `[2^20, 2^21)` ns ≈ 1–2 ms, so everything at
/// millisecond scale keeps one.
const EXEMPLAR_MIN_BUCKET: usize = 20;

/// Tracer knobs; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Trace 1 in every `sample_every` requests (0 = never trace
    /// requests; forced traces, e.g. refresh cycles, still record).
    pub sample_every: u64,
    /// Latency objective of the embedded [`SloMonitor`]: a request is
    /// "fast" iff its latency is at most this many nanoseconds.
    pub latency_objective_ns: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_every: 0,
            latency_objective_ns: 1_000_000, // 1ms
        }
    }
}

/// One stage of a finished trace, relative to the trace start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Stage name (`"parse"`, `"store_read"`, `"write"`, …).
    pub name: &'static str,
    /// Nanoseconds from trace start to stage start.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
}

/// A finished request- or refresh-scoped trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Tracer-unique id (dense, starting at 1).
    pub id: u64,
    /// The verb this trace describes (`"score"`, `"topk"`, `"refresh"`…).
    pub verb: &'static str,
    /// Which request this was (the sampling counter's value), or the
    /// forced-trace ordinal for unsampled verbs like `refresh`.
    pub seq: u64,
    /// Nanoseconds from the tracer's epoch to trace start.
    pub start_ns: u64,
    /// End-to-end duration in nanoseconds.
    pub total_ns: u64,
    /// Did the request succeed?
    pub ok: bool,
    /// Ordered stages with wall-time deltas.
    pub stages: Vec<Stage>,
    /// Free-form detail (`generation=7 columns_solved=1`…).
    pub detail: String,
}

impl Trace {
    /// Render as one JSON object (stage times in ns, totals in both ns
    /// and µs for human eyes).
    pub fn to_json(&self) -> String {
        let stages = array(self.stages.iter().map(|s| {
            Obj::new()
                .str("name", s.name)
                .int("start_ns", s.start_ns)
                .int("dur_ns", s.dur_ns)
                .finish()
        }));
        Obj::new()
            .int("id", self.id)
            .str("verb", self.verb)
            .int("seq", self.seq)
            .int("start_ns", self.start_ns)
            .int("total_ns", self.total_ns)
            .num("total_us", self.total_ns as f64 / 1e3)
            .bool("ok", self.ok)
            .str("detail", &self.detail)
            .raw("stages", &stages)
            .finish()
    }
}

/// A trace being recorded. Stages are sequential: opening the next
/// stage closes the previous one (the serve path is a straight line per
/// request), and [`Tracer::finish`] closes whatever is still open.
#[derive(Debug)]
pub struct ActiveTrace {
    id: u64,
    verb: &'static str,
    seq: u64,
    started: Instant,
    start_ns: u64,
    stages: Vec<Stage>,
    open: Option<(&'static str, Instant)>,
    detail: String,
}

impl ActiveTrace {
    /// This trace's id (stable through `finish`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Re-verb the trace once the verb is actually known (the serve
    /// path begins the trace before parsing the request line).
    pub fn set_verb(&mut self, verb: &'static str) {
        self.verb = verb;
    }

    /// Close the open stage (if any) and start a new one.
    pub fn stage(&mut self, name: &'static str) {
        self.close_open();
        self.open = Some((name, Instant::now()));
    }

    /// Close the open stage without starting another.
    pub fn end_stage(&mut self) {
        self.close_open();
    }

    /// Append to the trace's detail string (`"; "`-joined).
    pub fn note(&mut self, detail: &str) {
        if !self.detail.is_empty() {
            self.detail.push_str("; ");
        }
        self.detail.push_str(detail);
    }

    /// Nanoseconds since the trace started.
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn close_open(&mut self) {
        if let Some((name, at)) = self.open.take() {
            let start_ns = at.duration_since(self.started).as_nanos() as u64;
            let dur_ns = at.elapsed().as_nanos() as u64;
            self.stages.push(Stage {
                name,
                start_ns,
                dur_ns,
            });
        }
    }
}

/// Bounded storage for finished traces.
#[derive(Debug, Default)]
struct Store {
    /// Per verb, sorted slowest-first, truncated to [`SLOWEST_K`].
    slowest: BTreeMap<&'static str, Vec<Arc<Trace>>>,
    /// Most recently finished traces, oldest first.
    recent: VecDeque<Arc<Trace>>,
    /// `(verb, histogram bucket) → ` most recent trace in that bucket.
    exemplars: BTreeMap<(&'static str, usize), Arc<Trace>>,
}

/// The tracing subsystem: sampling, storage, per-verb latency, SLO.
/// See the module docs.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    epoch: Instant,
    requests: AtomicU64,
    sampled: AtomicU64,
    forced: AtomicU64,
    next_id: AtomicU64,
    store: Mutex<Store>,
    verbs: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
    slo: SloMonitor,
}

impl Tracer {
    /// Build a tracer; its monotonic epoch starts now.
    pub fn new(cfg: TraceConfig) -> Self {
        let slo = SloMonitor::new(cfg.latency_objective_ns);
        Tracer {
            cfg,
            epoch: Instant::now(),
            requests: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            forced: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            store: Mutex::new(Store::default()),
            verbs: Mutex::new(BTreeMap::new()),
            slo,
        }
    }

    /// Nanoseconds since this tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Requests seen by the sampling counter so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests that were actually traced.
    pub fn sampled(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// Head-based sampling entry point: count this request and return a
    /// trace iff its index is a multiple of `sample_every`. `None` when
    /// observability is disabled, `sample_every` is 0, or the request
    /// is simply not sampled.
    pub fn begin_sampled(&self, verb: &'static str) -> Option<ActiveTrace> {
        if !crate::enabled() || self.cfg.sample_every == 0 {
            return None;
        }
        let seq = self.requests.fetch_add(1, Ordering::Relaxed);
        if !seq.is_multiple_of(self.cfg.sample_every) {
            return None;
        }
        self.sampled.fetch_add(1, Ordering::Relaxed);
        Some(self.start(verb, seq))
    }

    /// Unconditionally trace (refresh cycles, recovery): bypasses the
    /// sampling counter but still honors the global enabled gate.
    pub fn begin(&self, verb: &'static str) -> Option<ActiveTrace> {
        if !crate::enabled() {
            return None;
        }
        let seq = self.forced.fetch_add(1, Ordering::Relaxed);
        Some(self.start(verb, seq))
    }

    fn start(&self, verb: &'static str, seq: u64) -> ActiveTrace {
        let started = Instant::now();
        ActiveTrace {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            verb,
            seq,
            start_ns: started.duration_since(self.epoch).as_nanos() as u64,
            started,
            stages: Vec::with_capacity(8),
            open: None,
            detail: String::new(),
        }
    }

    /// Latency accounting for **every** request (traced or not): feeds
    /// the per-verb histogram and the SLO monitor. No-op when disabled.
    pub fn observe(&self, verb: &'static str, latency_ns: u64, ok: bool) {
        if !crate::enabled() {
            return;
        }
        self.verb_histogram(verb).record(latency_ns);
        self.slo.record(verb, self.now_ns(), latency_ns, ok);
    }

    /// Close and store a trace; returns its end-to-end duration. The
    /// caller still calls [`observe`](Self::observe) separately (once
    /// per request, sampled or not).
    pub fn finish(&self, mut trace: ActiveTrace, ok: bool) -> u64 {
        trace.close_open();
        let total_ns = trace.started.elapsed().as_nanos() as u64;
        let done = Arc::new(Trace {
            id: trace.id,
            verb: trace.verb,
            seq: trace.seq,
            start_ns: trace.start_ns,
            total_ns,
            ok,
            stages: trace.stages,
            detail: trace.detail,
        });
        let mut store = self.store.lock().unwrap();
        let slowest = store.slowest.entry(done.verb).or_default();
        let pos = slowest
            .binary_search_by(|t| done.total_ns.cmp(&t.total_ns))
            .unwrap_or_else(|p| p);
        if pos < SLOWEST_K {
            slowest.insert(pos, Arc::clone(&done));
            slowest.truncate(SLOWEST_K);
        }
        if store.recent.len() >= RECENT_CAPACITY {
            store.recent.pop_front();
        }
        store.recent.push_back(Arc::clone(&done));
        let bucket = bucket_index(done.total_ns);
        if bucket >= EXEMPLAR_MIN_BUCKET {
            store.exemplars.insert((done.verb, bucket), done);
        }
        total_ns
    }

    fn verb_histogram(&self, verb: &'static str) -> Arc<Histogram> {
        let mut verbs = self.verbs.lock().unwrap();
        Arc::clone(verbs.entry(verb).or_default())
    }

    /// Slowest retained traces, optionally filtered to one verb;
    /// slowest first (across verbs, merged by duration).
    pub fn slowest(&self, verb: Option<&str>) -> Vec<Arc<Trace>> {
        let store = self.store.lock().unwrap();
        let mut out: Vec<Arc<Trace>> = store
            .slowest
            .iter()
            .filter(|(v, _)| verb.is_none_or(|want| **v == want))
            .flat_map(|(_, traces)| traces.iter().cloned())
            .collect();
        out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.id.cmp(&b.id)));
        out
    }

    /// Find a recently finished trace by id (recent ring, then the
    /// slowest-K and exemplar stores, which can outlive the ring).
    pub fn by_id(&self, id: u64) -> Option<Arc<Trace>> {
        let store = self.store.lock().unwrap();
        store
            .recent
            .iter()
            .rev()
            .find(|t| t.id == id)
            .or_else(|| store.slowest.values().flatten().find(|t| t.id == id))
            .or_else(|| store.exemplars.values().find(|t| t.id == id))
            .cloned()
    }

    /// Per-bucket exemplars: `(verb, bucket index, bucket lower bound
    /// in ns, trace)`, sorted by verb then bucket.
    pub fn exemplars(&self) -> Vec<(&'static str, usize, u64, Arc<Trace>)> {
        let store = self.store.lock().unwrap();
        store
            .exemplars
            .iter()
            .map(|(&(verb, bucket), t)| (verb, bucket, bucket_lower_bound(bucket), Arc::clone(t)))
            .collect()
    }

    /// SLO status per verb as of now.
    pub fn slo_status(&self) -> Vec<VerbSlo> {
        self.slo.status(self.now_ns())
    }

    /// JSON array of the slowest retained traces (optional verb filter).
    pub fn slowest_json(&self, verb: Option<&str>) -> String {
        array(self.slowest(verb).iter().map(|t| t.to_json()))
    }

    /// JSON array of the per-bucket exemplars.
    pub fn exemplars_json(&self) -> String {
        array(self.exemplars().into_iter().map(|(verb, bucket, lo, t)| {
            Obj::new()
                .str("verb", verb)
                .int("bucket", bucket as u64)
                .num("bucket_lo_us", lo as f64 / 1e3)
                .raw("trace", &t.to_json())
                .finish()
        }))
    }

    /// One JSON object with objectives, per-verb latency summaries
    /// (full-traffic percentiles, exact at the extremes), and
    /// multi-window burn rates.
    pub fn slo_json(&self) -> String {
        let objectives = Obj::new()
            .num(
                "latency_objective_ms",
                self.slo.latency_objective_ns() as f64 / 1e6,
            )
            .num("latency_goal", LATENCY_GOAL)
            .num("availability_goal", AVAILABILITY_GOAL)
            .finish();
        let status = self.slo_status();
        let hists = self.verbs.lock().unwrap();
        let mut verbs = Obj::new();
        for v in &status {
            let mut entry = Obj::new();
            if let Some(h) = hists.get(v.verb) {
                let s = h.snapshot();
                entry
                    .int("count", s.count)
                    .num("mean_us", s.mean() / 1e3)
                    .num("p50_us", s.percentile(0.50) / 1e3)
                    .num("p99_us", s.percentile(0.99) / 1e3)
                    .num("min_us", s.min().unwrap_or(0) as f64 / 1e3)
                    .num("max_us", s.max().unwrap_or(0) as f64 / 1e3);
            }
            let windows = array(v.windows.iter().map(|w| {
                Obj::new()
                    .int("seconds", w.seconds)
                    .int("total", w.total)
                    .int("fast", w.fast)
                    .int("errors", w.errors)
                    .num("latency_burn", w.latency_burn)
                    .num("availability_burn", w.availability_burn)
                    .finish()
            }));
            entry
                .raw("windows", &windows)
                .bool("latency_breach", v.latency_breach)
                .bool("availability_breach", v.availability_breach);
            verbs.raw(v.verb, &entry.finish());
        }
        Obj::new()
            .int("requests", self.requests())
            .int("sampled", self.sampled())
            .int("sample_every", self.cfg.sample_every)
            .raw("objectives", &objectives)
            .raw("verbs", &verbs.finish())
            .finish()
    }

    /// Human-readable latency-attribution report: sampling counters,
    /// objectives, per-verb summaries with burn rates, and the slowest
    /// traces broken down stage by stage (time and share of total).
    pub fn report_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tracing: {} requests, {} sampled (1-in-{})\n",
            self.requests(),
            self.sampled(),
            self.cfg.sample_every.max(1)
        ));
        out.push_str(&format!(
            "objectives: latency <= {:.3}ms for {:.2}% of requests, availability {:.2}%\n",
            self.slo.latency_objective_ns() as f64 / 1e6,
            LATENCY_GOAL * 100.0,
            AVAILABILITY_GOAL * 100.0
        ));
        let hists = self.verbs.lock().unwrap();
        for v in self.slo_status() {
            let summary = hists
                .get(v.verb)
                .map(|h| {
                    let s = h.snapshot();
                    format!(
                        "{} reqs, mean {:.1}us, p50 {:.1}us, p99 {:.1}us, max {:.1}us",
                        s.count,
                        s.mean() / 1e3,
                        s.percentile(0.50) / 1e3,
                        s.percentile(0.99) / 1e3,
                        s.max().unwrap_or(0) as f64 / 1e3
                    )
                })
                .unwrap_or_else(|| "no latency samples".to_string());
            out.push_str(&format!("verb {}: {}\n", v.verb, summary));
            for w in &v.windows {
                out.push_str(&format!(
                    "  window {:>5}s: total={} fast={} errors={} latency_burn={:.2} availability_burn={:.2}\n",
                    w.seconds, w.total, w.fast, w.errors, w.latency_burn, w.availability_burn
                ));
            }
            if v.latency_breach || v.availability_breach {
                out.push_str(&format!(
                    "  BREACH: latency={} availability={}\n",
                    v.latency_breach, v.availability_breach
                ));
            }
        }
        drop(hists);
        let slowest = self.slowest(None);
        if slowest.is_empty() {
            out.push_str("no traces retained yet\n");
        } else {
            out.push_str("slowest traces:\n");
            for t in slowest.iter().take(16) {
                out.push_str(&format!(
                    "  #{} {} {:.3}ms {}{}\n",
                    t.id,
                    t.verb,
                    t.total_ns as f64 / 1e6,
                    if t.ok { "ok" } else { "ERROR" },
                    if t.detail.is_empty() {
                        String::new()
                    } else {
                        format!(" [{}]", t.detail)
                    }
                ));
                let attributed: u64 = t.stages.iter().map(|s| s.dur_ns).sum();
                for s in &t.stages {
                    out.push_str(&format!(
                        "      {:<12} {:>10.3}ms {:>5.1}%\n",
                        s.name,
                        s.dur_ns as f64 / 1e6,
                        if t.total_ns == 0 {
                            0.0
                        } else {
                            s.dur_ns as f64 * 100.0 / t.total_ns as f64
                        }
                    ));
                }
                let other = t.total_ns.saturating_sub(attributed);
                if t.total_ns > 0 && other > 0 {
                    out.push_str(&format!(
                        "      {:<12} {:>10.3}ms {:>5.1}%\n",
                        "(other)",
                        other as f64 / 1e6,
                        other as f64 * 100.0 / t.total_ns as f64
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_tracer(sample_every: u64) -> Tracer {
        Tracer::new(TraceConfig {
            sample_every,
            ..TraceConfig::default()
        })
    }

    #[test]
    fn sampling_is_one_in_n_by_counter() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let t = test_tracer(3);
        let sampled: Vec<bool> = (0..9).map(|_| t.begin_sampled("score").is_some()).collect();
        assert_eq!(
            sampled,
            vec![true, false, false, true, false, false, true, false, false],
            "requests 0, 3, 6 are the sampled ones — no RNG anywhere"
        );
        assert_eq!(t.requests(), 9);
        assert_eq!(t.sampled(), 3);
        crate::set_enabled(false);
        assert!(t.begin_sampled("score").is_none(), "gated on QRANK_OBS");
        assert!(t.begin("refresh").is_none());
    }

    #[test]
    fn zero_sample_rate_never_traces_but_forced_does() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let t = test_tracer(0);
        assert!(t.begin_sampled("score").is_none());
        assert!(
            t.begin("refresh").is_some(),
            "forced traces bypass sampling"
        );
        crate::set_enabled(false);
    }

    #[test]
    fn stages_order_and_slowest_k_retention() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let t = test_tracer(1);
        for i in 0..=SLOWEST_K {
            let mut tr = t.begin_sampled("topk").unwrap();
            tr.stage("parse");
            tr.stage("serialize");
            tr.stage("write");
            tr.note(&format!("i={i}"));
            t.finish(tr, true);
        }
        let slowest = t.slowest(Some("topk"));
        assert_eq!(slowest.len(), SLOWEST_K, "one more than SLOWEST_K finished");
        assert!(
            slowest.windows(2).all(|w| w[0].total_ns >= w[1].total_ns),
            "sorted slowest first"
        );
        let tr = &slowest[0];
        let names: Vec<&str> = tr.stages.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["parse", "serialize", "write"]);
        assert!(
            tr.stages.windows(2).all(|w| w[0].start_ns <= w[1].start_ns),
            "stages ordered by start"
        );
        assert!(tr.detail.starts_with("i="));
        let json = tr.to_json();
        assert!(json.contains(r#""verb":"topk""#), "{json}");
        assert!(json.contains(r#""name":"parse""#));
        crate::set_enabled(false);
    }

    #[test]
    fn by_id_survives_recent_ring_eviction_via_slowest() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let t = test_tracer(1);
        let mut ids = Vec::new();
        for _ in 0..RECENT_CAPACITY + 10 {
            let tr = t.begin_sampled("score").unwrap();
            ids.push(tr.id());
            t.finish(tr, true);
        }
        // The ring holds RECENT_CAPACITY, so the earliest ids have left
        // it; at least the slowest-retained ones must still resolve.
        let last = *ids.last().unwrap();
        assert!(t.by_id(last).is_some(), "fresh trace resolves");
        assert!(t.by_id(last + 999).is_none());
        for kept in t.slowest(None) {
            assert!(t.by_id(kept.id).is_some(), "slowest-K traces resolve");
        }
        crate::set_enabled(false);
    }

    #[test]
    fn exemplars_key_by_verb_and_bucket() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let t = test_tracer(1);
        let fast = t.begin_sampled("score").unwrap();
        t.finish(fast, true);
        let slow = t.begin_sampled("score").unwrap();
        let slow_id = slow.id();
        std::thread::sleep(std::time::Duration::from_nanos(1 << 21));
        t.finish(slow, true);
        let ex = t.exemplars();
        assert!(
            ex.iter().any(|(_, _, _, tr)| tr.id == slow_id),
            "a trace past 2^20 ns keeps an exemplar"
        );
        for (verb, bucket, lo, tr) in &ex {
            assert_eq!(*verb, "score");
            assert!(
                *bucket >= EXEMPLAR_MIN_BUCKET,
                "bucket {bucket} is below the floor"
            );
            assert_eq!(
                *bucket,
                bucket_index(tr.total_ns),
                "keyed like the histogram"
            );
            assert_eq!(*lo, bucket_lower_bound(*bucket));
        }
        let json = t.exemplars_json();
        assert!(json.contains(r#""bucket""#), "{json}");
        crate::set_enabled(false);
    }

    #[test]
    fn observe_feeds_percentiles_and_slo_for_untraced_traffic() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        let t = Tracer::new(TraceConfig {
            sample_every: 0, // nothing traced…
            latency_objective_ns: 1_000,
        });
        for _ in 0..9 {
            t.observe("score", 500, true);
        }
        t.observe("score", 2_000_000, false);
        let json = t.slo_json();
        assert!(json.contains(r#""score""#), "{json}");
        assert!(
            json.contains(r#""count":10"#),
            "full traffic counted: {json}"
        );
        let status = t.slo_status();
        assert_eq!(status.len(), 1);
        let w = &status[0].windows[0];
        assert_eq!((w.total, w.fast, w.errors), (10, 9, 1));
        let report = t.report_text();
        assert!(report.contains("verb score"), "{report}");
        assert!(report.contains("no traces retained yet"));
        crate::set_enabled(false);
    }
}
