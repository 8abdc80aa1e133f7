//! Tracing + SLO integration: deterministic sampling under concurrency,
//! bounded retention, and the disabled-gate guarantee — the properties
//! the serve path depends on.

use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

use qrank_obs::trace::{TraceConfig, Tracer};

/// These tests flip the process-global enabled flag; serialize them so
/// the parallel test runner can't interleave.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn sampling_under_concurrency_is_exactly_one_in_n() {
    let _guard = serial();
    qrank_obs::set_enabled(true);
    const THREADS: u64 = 8;
    const OPS: u64 = 2_500;
    const N: u64 = 10;
    let tracer = Arc::new(Tracer::new(TraceConfig {
        sample_every: N,
        ..TraceConfig::default()
    }));
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let tracer = Arc::clone(&tracer);
        handles.push(thread::spawn(move || {
            let mut sampled = 0u64;
            for _ in 0..OPS {
                if let Some(t) = tracer.begin_sampled("score") {
                    sampled += 1;
                    tracer.finish(t, true);
                }
                tracer.observe("score", 500, true);
            }
            sampled
        }));
    }
    let sampled: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    // The counter is shared and atomic: exactly every N-th increment is
    // sampled, regardless of which thread drew it.
    assert_eq!(tracer.requests(), THREADS * OPS);
    assert_eq!(sampled, THREADS * OPS / N);
    assert_eq!(tracer.sampled(), sampled);
    qrank_obs::set_enabled(false);
}

#[test]
fn retention_stays_bounded_and_slo_sees_full_traffic() {
    let _guard = serial();
    qrank_obs::set_enabled(true);
    let tracer = Tracer::new(TraceConfig {
        sample_every: 1,
        latency_objective_ns: 1_000,
    });
    for i in 0..500u64 {
        let t = tracer.begin_sampled("topk").unwrap();
        drop(qrank_obs::span!("serialize"));
        tracer.finish(t, true);
        // Synthetic latencies: every 100th request misses the objective.
        let latency = if i % 100 == 0 { 50_000 } else { 500 };
        tracer.observe("topk", latency, true);
    }
    // the tracer keeps the 8 slowest traces of each verb
    assert_eq!(tracer.slowest(Some("topk")).len(), 8, "slowest-K bound");
    assert!(
        tracer.exemplars().len() <= qrank_obs::registry::BUCKETS,
        "at most one exemplar per (verb, bucket)"
    );
    let status = tracer.slo_status();
    let verb = status.iter().find(|v| v.verb == "topk").unwrap();
    let w = &verb.windows[0];
    assert_eq!(w.total, 500, "observe() counts unsampled traffic too");
    assert_eq!(w.total - w.fast, 5);
    // 1% budget, 1% violations → burn ≈ 1.0
    assert!((w.latency_burn - 1.0).abs() < 1e-9, "{}", w.latency_burn);
    let json = tracer.slo_json();
    assert!(json.contains(r#""total":500"#), "{json}");
    assert!(json.contains(r#""latency_burn":"#), "{json}");
    let report = tracer.report_text();
    assert!(report.contains("slowest traces:"), "{report}");
    assert!(report.contains("serialize"), "{report}");
    qrank_obs::set_enabled(false);
}

#[test]
fn disabled_gate_makes_tracing_inert() {
    let _guard = serial();
    qrank_obs::set_enabled(false);
    let tracer = Tracer::new(TraceConfig {
        sample_every: 1,
        ..TraceConfig::default()
    });
    for _ in 0..100 {
        assert!(tracer.begin_sampled("score").is_none());
        tracer.observe("score", 500, true);
    }
    assert!(tracer.begin("refresh").is_none());
    assert_eq!(tracer.requests(), 0, "counter untouched when disabled");
    assert!(tracer.slowest(None).is_empty());
    assert!(tracer.slo_status().is_empty());
    assert_eq!(tracer.slowest_json(None), "[]");
}
