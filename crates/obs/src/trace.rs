//! Request-scoped tracing with deterministic sampling, slowest-K
//! retention, and tail-latency exemplars.
//!
//! A [`Tracer`] is owned by whoever serves traffic (one per server
//! instance, like the serve crate's metrics registry). Each sampled
//! request gets an [`ActiveTrace`], current on its thread until
//! [`Tracer::finish`]: its stages are the [`span!`](crate::span!)s that
//! close on that thread meanwhile, nested ones included (`serve.parse`,
//! `serve.store_read`, `serve.serialize`, `serve.write` on the serve
//! path; `wal.append`, `refresh.apply`, `refresh.snapshot`,
//! `refresh.rerank` and its children for a refresh cycle). See
//! [`mod@crate::span`] for which spans count. Finished traces land in a
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
//! clock reads: a server mutes the threads it serves on
//! ([`crate::span::mute`]), so an unsampled request's spans are inert.
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
use crate::span;

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

/// One stage of a finished trace — a span that closed while the trace
/// was current — relative to the trace start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// The span's path below the trace's root (`"serve.parse"`,
    /// `"refresh.rerank/pipeline.run"`, …).
    pub name: String,
    /// Nanoseconds from trace start to stage start.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting below the root: 1 for a top-level stage.
    pub depth: u32,
}

/// A finished request- or refresh-scoped trace.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Stages in start order, each before its children.
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
                .str("name", &s.name)
                .int("start_ns", s.start_ns)
                .int("dur_ns", s.dur_ns)
                .int("depth", u64::from(s.depth))
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

    /// The report's lines for this trace: a header, then each stage
    /// with its time and share of the total, indented by depth, then
    /// `(other)`: the time no top-level stage covers.
    fn report_lines(&self, out: &mut String) {
        let detail = if self.detail.is_empty() {
            String::new()
        } else {
            format!(" [{}]", self.detail)
        };
        let ok = if self.ok { "ok" } else { "ERROR" };
        let ms = self.total_ns as f64 / 1e6;
        out.push_str(&format!(
            "  #{} {} {ms:.3}ms {ok}{detail}\n",
            self.id, self.verb
        ));
        let mut line = |indent: usize, name: &str, ns: u64| {
            out.push_str(&format!(
                "      {:indent$}{name:<w$} {:>10.3}ms {:>5.1}%\n",
                "",
                ns as f64 / 1e6,
                ns as f64 * 100.0 / self.total_ns.max(1) as f64,
                w = 24usize.saturating_sub(indent),
            ));
        };
        for s in &self.stages {
            let leaf = s.name.rsplit('/').next().unwrap_or(&s.name);
            line(2 * (s.depth as usize - 1), leaf, s.dur_ns);
        }
        let top_level: u64 = self
            .stages
            .iter()
            .filter(|s| s.depth == 1)
            .map(|s| s.dur_ns)
            .sum();
        let other = self.total_ns.saturating_sub(top_level);
        if other > 0 {
            line(0, "(other)", other);
        }
    }
}

/// A trace being recorded: current on the thread that began it, which
/// must also [`finish`](Tracer::finish) it. Dropping it unfinished (a
/// panic unwinding through the request, say) detaches it and keeps
/// nothing.
#[derive(Debug)]
pub struct ActiveTrace {
    started: Instant,
    /// Everything but the stages, the total and the outcome.
    trace: Trace,
}

impl Drop for ActiveTrace {
    fn drop(&mut self) {
        span::detach(self.trace.id);
    }
}

impl ActiveTrace {
    /// This trace's id (stable through `finish`).
    pub fn id(&self) -> u64 {
        self.trace.id
    }

    /// Re-verb the trace once the verb is actually known (the serve
    /// path begins the trace before parsing the request line).
    pub fn set_verb(&mut self, verb: &'static str) {
        self.trace.verb = verb;
    }

    /// Append to the trace's detail string (`"; "`-joined).
    pub fn note(&mut self, detail: &str) {
        let d = &mut self.trace.detail;
        if !d.is_empty() {
            d.push_str("; ");
        }
        d.push_str(detail);
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
    /// trace, current on the calling thread (see [`mod@crate::span`]), iff
    /// its index is a multiple of `sample_every`. `None` when
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

    /// Unconditionally trace (refresh cycles): bypasses the
    /// sampling counter but still honors the global enabled gate.
    pub fn begin(&self, verb: &'static str) -> Option<ActiveTrace> {
        if !crate::enabled() {
            return None;
        }
        let seq = self.forced.fetch_add(1, Ordering::Relaxed);
        Some(self.start(verb, seq))
    }

    fn start(&self, verb: &'static str, seq: u64) -> ActiveTrace {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let started = span::attach(id);
        let start_ns = started.duration_since(self.epoch).as_nanos() as u64;
        let trace = Trace {
            id,
            verb,
            seq,
            start_ns,
            ..Trace::default()
        };
        ActiveTrace { started, trace }
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

    /// Detach and store a trace; returns its end-to-end duration. The
    /// caller still calls [`observe`](Self::observe) separately (once
    /// per request, sampled or not).
    pub fn finish(&self, mut trace: ActiveTrace, ok: bool) -> u64 {
        let total_ns = trace.started.elapsed().as_nanos() as u64;
        let mut done = std::mem::take(&mut trace.trace);
        (done.total_ns, done.ok) = (total_ns, ok);
        done.stages = span::detach(done.id);
        // spans close children first; a parent starts no later than its
        // children, so this puts each stage before its children
        done.stages.sort_by_key(|s| (s.start_ns, s.depth));
        let done = Arc::new(done);
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
    /// traces broken down stage by stage (time and share of total,
    /// nested stages indented under their parents).
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
                t.report_lines(&mut out);
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
            for stage in ["parse", "serialize", "write"] {
                let _s = crate::span!(stage);
                let _nested = crate::span!("inner");
            }
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
        let names: Vec<(&str, u32)> = tr.stages.iter().map(|s| (&*s.name, s.depth)).collect();
        assert_eq!(
            names,
            [
                ("parse", 1),
                ("parse/inner", 2),
                ("serialize", 1),
                ("serialize/inner", 2),
                ("write", 1),
                ("write/inner", 2)
            ],
            "each stage before its children"
        );
        assert!(
            tr.stages.windows(2).all(|w| w[0].start_ns <= w[1].start_ns),
            "stages ordered by start"
        );
        assert!(tr.detail.starts_with("i="));
        let json = tr.to_json();
        assert!(json.contains(r#""verb":"topk""#), "{json}");
        assert!(json.contains(r#""name":"parse","start_ns":"#), "{json}");
        assert!(json.contains(r#""name":"parse/inner""#), "{json}");
        crate::set_enabled(false);
    }

    #[test]
    fn other_is_what_no_top_level_stage_covers() {
        let stage = |name: &str, start_ns, dur_ns, depth| Stage {
            name: name.to_string(),
            start_ns,
            dur_ns,
            depth,
        };
        let trace = Trace {
            id: 1,
            verb: "refresh",
            seq: 0,
            start_ns: 0,
            total_ns: 1_000_000,
            ok: true,
            stages: vec![
                stage("a", 0, 600_000, 1),
                stage("a/b", 100_000, 400_000, 2),
                stage("c", 600_000, 300_000, 1),
            ],
            detail: String::new(),
        };
        let mut out = String::new();
        trace.report_lines(&mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{out}");
        assert!(
            lines[2].starts_with("        b "),
            "nested stage indented: {out}"
        );
        // 100 µs: a/b lies inside a, so it is not subtracted again
        assert!(
            lines[4].contains("(other)") && lines[4].contains("0.100ms  10.0%"),
            "{out}"
        );
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
