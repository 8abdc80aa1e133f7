//! Unified observability for the qrank workspace.
//!
//! Everything the simulator, the solvers, the estimation pipeline, the
//! serving front end, and the durability journal (`wal.*` counters and
//! spans) want to say about themselves flows through this crate, in
//! four layers:
//!
//! * **[`registry`]** — a lock-free metrics registry of named counters
//!   and power-of-two-bucket latency histograms. Handles are
//!   `Arc`-shared plain atomics, so the record path is a single relaxed
//!   `fetch_add`; the registry lock is touched only at registration and
//!   snapshot time.
//! * **[`mod@span`]** — hierarchical timing spans (`span!("rank.solve")`),
//!   the one stage timer, built on a thread-local name stack and
//!   monotonic clocks. Each closed span lands in a
//!   `span.<parent/child>` histogram, in the flight recorder, and in the
//!   trace current on its thread, if any.
//! * **[`recorder`]** — a bounded ring buffer of recent events (the
//!   flight recorder), dumpable on demand or automatically on panic via
//!   [`recorder::install_panic_hook`].
//! * **[`convergence`]** — per-solve PageRank convergence traces:
//!   solver tag, per-iteration residuals, iteration count, node count.
//! * **[`trace`]** — request-scoped tracing: a trace is the spans its
//!   request or refresh cycle closed while it was current on its
//!   thread. Deterministic sampling, slowest-K retention per verb, and
//!   per-histogram-bucket tail-latency exemplars.
//! * **[`slo`]** — per-verb rolling windows with multi-window
//!   error-budget burn rates for latency and availability objectives.
//!
//! # Zero cost when disabled
//!
//! Global instrumentation is gated on one process-wide [`enabled`] flag
//! (a relaxed atomic load). When the flag is off — the default — spans
//! skip the clock reads entirely, convergence traces are not cloned, and
//! the recorder is never locked. Crucially, instrumentation *never*
//! participates in any computation: enabling observability cannot change
//! a single bit of simulated histories, PageRank scores, or served
//! responses (asserted by the determinism tests in `qrank-sim`).
//!
//! # Exposition
//!
//! [`registry::RegistrySnapshot::prometheus_text`] renders the
//! Prometheus text format (served by the `metrics` verb of
//! `qrank serve`); [`dump_json`] renders a full JSON snapshot of the
//! registry, convergence traces, and recent events (written by
//! `qrank obs-dump`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod slo;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

pub use registry::{global, Counter, Histogram, Registry, RegistrySnapshot};
pub use slo::SloMonitor;
pub use span::SpanGuard;
pub use trace::{ActiveTrace, Trace, TraceConfig, Tracer};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is global instrumentation on? One relaxed load — the only cost the
/// instrumented hot paths pay when observability is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn global instrumentation on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enable observability if the `QRANK_OBS` environment variable is set
/// to `1` or `true`, and install the panic-time flight-recorder dump.
/// Call once at process start (the CLI does).
pub fn init_from_env() {
    if matches!(
        std::env::var("QRANK_OBS").as_deref(),
        Ok("1") | Ok("true") | Ok("TRUE")
    ) {
        set_enabled(true);
        recorder::install_panic_hook();
    }
}

/// Reset every global observability sink: zero the global registry's
/// metrics (handles stay valid), clear the flight recorder, and drop
/// recorded convergence traces. Benchmarks call this between runs so
/// each run's `obs` section is self-contained.
pub fn reset() {
    registry::global().reset();
    recorder::clear();
    convergence::clear();
}

/// One JSON document with everything observability knows: the global
/// registry snapshot, all retained convergence traces, and the flight
/// recorder's recent events.
pub fn dump_json() -> String {
    json::Obj::new()
        .raw("registry", &registry::global().snapshot().to_json())
        .raw("convergence", &convergence::to_json())
        .raw("events", &recorder::to_json())
        .finish()
}

/// Unit tests here and in submodules toggle process-global state (the
/// enabled flag, the global registry); they serialize on this lock so
/// the default parallel test runner can't interleave them.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_flag_round_trips() {
        let _serial = test_lock();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn dump_json_is_well_formed_enough() {
        let _serial = test_lock();
        let doc = dump_json();
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert!(doc.contains("\"registry\""));
        assert!(doc.contains("\"convergence\""));
        assert!(doc.contains("\"events\""));
    }
}
