//! Lock-free metrics registry: named counters and fixed-bucket latency
//! histograms.
//!
//! Registration (name → handle) takes a mutex once; after that every
//! handle is an `Arc` around plain atomics and the record path is a
//! single relaxed `fetch_add`. Snapshots read the atomics without
//! stopping writers, so totals are consistent-enough rather than
//! linearizable — exactly what monitoring needs.
//!
//! There is one process-wide [`global()`] registry for cross-cutting
//! instrumentation (solvers, simulator, pipeline spans), but a
//! [`Registry`] is an ordinary value too: the serving front end owns a
//! private one per server instance so concurrent servers in one process
//! never mix their request counts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Histogram bucket count; bucket `i` covers `[2^i, 2^{i+1})` in the
/// recorded unit (nanoseconds for every latency histogram in qrank).
pub const BUCKETS: usize = 40;

/// The bucket index a value lands in: `⌊log2 v⌋`, clamped to the bucket
/// range. Exposed so other subsystems (the tracing exemplar store) can
/// key per-bucket state the exact same way the histograms do.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (63 - value.max(1).leading_zeros() as usize).min(BUCKETS - 1)
}

/// Inclusive lower bound of bucket `i` (`2^i`, saturating at the top).
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    1u64 << i.min(63)
}

/// A monotonically-increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A power-of-two-bucket histogram with exact count and sum.
///
/// `record(v)` lands `v` in bucket `⌊log2 v⌋` (clamped), so percentile
/// queries are bucket-resolution estimates refined by linear
/// interpolation within the bucket — see
/// [`HistogramSnapshot::percentile`].
#[derive(Debug)]
pub struct Histogram {
    sum: AtomicU64,
    /// Smallest observation; `u64::MAX` sentinel while empty.
    min: AtomicU64,
    /// Largest observation; 0 sentinel while empty.
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one observation (nanoseconds, by workspace convention).
    #[inline]
    pub fn record(&self, value: u64) {
        // min/max before the bucket increment, so a snapshot that counts
        // this observation (count comes from the buckets) has already had
        // the chance to see its extremes.
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy of the bucket array.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            min_raw: self.min.load(Ordering::Relaxed),
            max_raw: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    fn reset(&self) {
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations counted into `buckets` (the authoritative total for
    /// percentile math, immune to a racing `record`).
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation as recorded (`u64::MAX` sentinel when empty).
    pub min_raw: u64,
    /// Largest observation as recorded (0 sentinel when empty).
    pub max_raw: u64,
    /// `buckets[i]` = observations in `[2^i, 2^{i+1})`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0 && self.min_raw != u64::MAX).then_some(self.min_raw)
    }

    /// Largest observation, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0 && self.min_raw != u64::MAX).then_some(self.max_raw)
    }

    /// Quantile `q ∈ [0, 1]`, or `None` when the histogram is empty.
    ///
    /// Exact at the extremes: `q = 0` returns the recorded minimum,
    /// `q = 1` the recorded maximum, and a single-sample histogram
    /// returns that sample for every `q`. In between, the estimate is
    /// linearly interpolated *within* the bucket that holds the target
    /// rank — if the rank falls a fraction `f` of the way through bucket
    /// `[2^i, 2^{i+1})`, the estimate is `2^i · (1 + f)` — and then
    /// clamped into `[min, max]`, since an estimate outside the observed
    /// range is a known bucket-resolution artifact.
    pub fn try_percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        // min/max are read racily relative to the buckets; fall back to
        // pure interpolation if the sentinels are still visible.
        let extremes = self.min().zip(self.max());
        if let Some((min, max)) = extremes {
            if q <= 0.0 {
                return Some(min as f64);
            }
            if q >= 1.0 || self.count == 1 {
                return Some(if self.count == 1 { min } else { max } as f64);
            }
        }
        let target = (q * self.count as f64).max(1.0);
        let mut seen = 0u64;
        let mut estimate = bucket_lower_bound(BUCKETS - 1) as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let after = seen + c;
            if (after as f64) >= target {
                let lo = bucket_lower_bound(i) as f64;
                let frac = (target - seen as f64) / c as f64;
                estimate = lo * (1.0 + frac.clamp(0.0, 1.0));
                break;
            }
            seen = after;
        }
        match extremes {
            Some((min, max)) => Some(estimate.clamp(min as f64, max as f64)),
            None => Some(estimate),
        }
    }

    /// Quantile `q ∈ [0, 1]` (0.0 when empty). Prefer
    /// [`try_percentile`](Self::try_percentile) where "empty" and
    /// "fast" must not be conflated.
    pub fn percentile(&self, q: f64) -> f64 {
        self.try_percentile(q).unwrap_or(0.0)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. See the module docs for the locking
/// story.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry (const, so it can back a `static`).
    pub const fn new() -> Self {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind —
    /// that is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or register the histogram `name` (same contract as [`counter`](Self::counter)).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The metric `name`, registered from `new` if absent. The key is
    /// allocated only on insert: a lookup of an existing metric (every
    /// count and every span close after the first) allocates nothing.
    fn get_or_insert(&self, name: &str, new: impl FnOnce() -> Metric) -> Metric {
        let mut m = self.metrics.lock().unwrap();
        if let Some(metric) = m.get(name) {
            return metric.clone();
        }
        m.entry(name.to_string()).or_insert_with(new).clone()
    }

    /// Zero every registered metric **in place** — outstanding handles
    /// stay attached, so long-lived instrumentation keeps recording into
    /// the same atomics after a reset.
    pub fn reset(&self) {
        let m = self.metrics.lock().unwrap();
        for metric in m.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let m = self.metrics.lock().unwrap();
        let mut snap = RegistrySnapshot::default();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }
}

/// The process-wide registry used by cross-cutting instrumentation
/// (solver telemetry, simulator step counters, pipeline spans).
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// Point-in-time copy of a whole [`Registry`], name-sorted.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// Look up a counter by name (test and bench convenience).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a histogram by name (test and bench convenience).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Render the snapshot in the Prometheus text exposition format.
    ///
    /// Metric names are prefixed `qrank_` and sanitized (`.` and `/`
    /// become `_`). Histograms render cumulative `_bucket{le="…"}`
    /// series (bucket bounds in **seconds**, since qrank histograms
    /// record nanoseconds), plus `_sum` (seconds) and `_count`. The
    /// output does **not** include a terminator line; the serve protocol
    /// appends `# EOF` so line-based clients can find the end.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cumulative = 0u64;
            let last_nonzero = h.buckets.iter().rposition(|&c| c > 0);
            if let Some(last) = last_nonzero {
                for (i, &c) in h.buckets.iter().enumerate().take(last + 1) {
                    cumulative += c;
                    let le = (1u64 << (i + 1)) as f64 / 1e9;
                    out.push_str(&format!(
                        "{n}_bucket{{le=\"{}\"}} {cumulative}\n",
                        fmt_f64(le)
                    ));
                }
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n", fmt_f64(h.sum as f64 / 1e9)));
            out.push_str(&format!("{n}_count {}\n", h.count));
        }
        out
    }

    /// Render the snapshot as one JSON object:
    /// `{"counters":{...},"histograms":{name:{count,sum_ns,mean_ns,p50_ns,p99_ns},...}}`.
    pub fn to_json(&self) -> String {
        use crate::json::Obj;
        let mut counters = Obj::new();
        for (name, v) in &self.counters {
            counters.int(name, *v);
        }
        let mut histograms = Obj::new();
        for (name, h) in &self.histograms {
            let rendered = Obj::new()
                .int("count", h.count)
                .int("sum_ns", h.sum)
                .num("mean_ns", h.mean())
                .num("p50_ns", h.percentile(0.50))
                .num("p99_ns", h.percentile(0.99))
                .finish();
            histograms.raw(name, &rendered);
        }
        Obj::new()
            .raw("counters", &counters.finish())
            .raw("histograms", &histograms.finish())
            .finish()
    }
}

/// `.`/`/` → `_`, anything non-alphanumeric → `_`, `qrank_` prefix.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("qrank_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Prometheus-friendly float rendering (no exponent surprises needed —
/// `{}` on f64 already round-trips).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "NaN".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_and_totals_exact() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.histogram("x");
    }

    #[test]
    fn histogram_percentiles_interpolate_within_buckets() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(1_000); // bucket [512, 1024)
        }
        h.record(4_000_000);
        let s = h.snapshot();
        // rank 50 of 99 in-bucket observations interpolates to
        // 512·(1 + 50/99) ≈ 770ns, then clamps up to the observed
        // minimum — no estimate below the smallest recorded sample.
        let p50 = s.percentile(0.50);
        assert_eq!(p50, 1_000.0, "p50 {p50}");
        // p99 = rank 99 = the last in-bucket observation: interpolates
        // to the bucket's upper bound, clamped into [min, max]
        let p99 = s.percentile(0.99);
        assert!((1_000.0..=1_024.0).contains(&p99), "p99 {p99}");
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 99 * 1_000 + 4_000_000);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.try_percentile(0.5), None);
        assert_eq!(s.percentile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn percentile_extremes_are_exact() {
        let h = Histogram::default();
        h.record(700);
        let s = h.snapshot();
        // A single-sample histogram answers every quantile with the
        // sample itself, not a bucket-interpolated estimate.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(s.try_percentile(q), Some(700.0), "q={q}");
        }
        h.record(3_000);
        h.record(9_000);
        let s = h.snapshot();
        assert_eq!(s.try_percentile(0.0), Some(700.0), "p0 = exact min");
        assert_eq!(s.try_percentile(1.0), Some(9_000.0), "p100 = exact max");
        assert_eq!(s.min(), Some(700));
        assert_eq!(s.max(), Some(9_000));
        let p50 = s.try_percentile(0.5).unwrap();
        assert!((700.0..=9_000.0).contains(&p50), "clamped p50 {p50}");
    }

    #[test]
    fn reset_zeros_in_place() {
        let r = Registry::new();
        let c = r.counter("c");
        let h = r.histogram("h");
        c.add(5);
        h.record(100);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        c.inc(); // the old handle still feeds the registry
        assert_eq!(r.snapshot().counter("c"), Some(1));
    }

    #[test]
    fn prometheus_text_shape() {
        let r = Registry::new();
        r.counter("serve.requests").add(7);
        r.histogram("span.rank.solve").record(1_500);
        let text = r.snapshot().prometheus_text();
        assert!(text.contains("# TYPE qrank_serve_requests counter"));
        assert!(text.contains("qrank_serve_requests 7"));
        assert!(text.contains("qrank_span_rank_solve_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("qrank_span_rank_solve_count 1"));
        // cumulative bucket for [1024, 2048) ns → le = 2.048e-6 s
        assert!(text.contains("_bucket{le=\"0.000002048\"} 1"));
    }

    #[test]
    fn snapshot_json_is_flat_and_sorted() {
        let r = Registry::new();
        r.counter("b").inc();
        r.counter("a").inc();
        let json = r.snapshot().to_json();
        assert!(json.contains(r#""counters":{"a":1,"b":1}"#), "{json}");
        assert!(json.contains(r#""histograms":{}"#));
    }
}
