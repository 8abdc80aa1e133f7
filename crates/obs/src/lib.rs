//! Unified observability for the qrank workspace.
//!
//! Everything the simulator, the solvers, the estimation pipeline, the
//! serving front end, and the durability journal (`wal.*` counters and
//! spans) want to say about themselves flows through this crate. It
//! keeps one process-global store, the [`registry`]; the per-server
//! [`Tracer`] holds a server's traces. The layers:
//!
//! * **[`registry`]** — a lock-free metrics registry of named counters
//!   and power-of-two-bucket latency histograms. Handles are
//!   `Arc`-shared plain atomics, so the record path is a single relaxed
//!   `fetch_add`; the registry lock is touched only at registration and
//!   snapshot time.
//! * **[`mod@span`]** — hierarchical timing spans (`span!("rank.solve")`),
//!   the one stage timer, built on a thread-local name stack and
//!   monotonic clocks. Each closed span lands in a
//!   `span.<parent/child>` histogram and in the trace current on its
//!   thread, if any.
//! * **[`trace`]** — request-scoped tracing: a trace is the spans its
//!   request or refresh cycle closed while it was current on its
//!   thread. Deterministic sampling, slowest-K retention per verb, and
//!   per-histogram-bucket tail-latency exemplars.
//! * **[`slo`]** — per-verb rolling windows with multi-window
//!   error-budget burn rates for latency and availability objectives.
//!
//! A solve's convergence curve is its `PageRankResult::residuals` in
//! `qrank-rank`, which also counts each solve under
//! `rank.solve.<solver>` and `rank.iterations.<solver>`.
//!
//! # Zero cost when disabled
//!
//! Global instrumentation is gated on one process-wide [`enabled`] flag
//! (a relaxed atomic load), and the flag is read in this crate: [`count`]
//! is the entry point of every global counter, [`mod@span`] of every
//! stage timer. When the flag is off — the default — spans skip the
//! clock reads entirely and no counter is touched. Crucially,
//! instrumentation *never* participates in any computation: enabling
//! observability cannot change a single bit of simulated histories,
//! PageRank scores, or served responses (asserted by the determinism
//! tests in `qrank-sim`).
//!
//! # Exposition
//!
//! [`registry::RegistrySnapshot::prometheus_text`] renders the
//! Prometheus text format (served by the `metrics` verb of
//! `qrank serve`); [`registry::RegistrySnapshot::to_json`] renders the
//! same snapshot as JSON (written by `qrank obs-dump --series`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
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

/// Add `n` to the global counter `name`; nothing when observability is
/// off. The counter is registered even when `n == 0`, so a stage that
/// counted nothing still shows in a snapshot. Every global counter in
/// the workspace goes through here: off, a call is the one relaxed load
/// of [`enabled`].
#[inline]
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        global().counter(name).add(n);
    }
}

/// Turn global instrumentation on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enable observability if the `QRANK_OBS` environment variable is set
/// to `1` or `true`. Call once at process start (the CLI does).
pub fn init_from_env() {
    if matches!(
        std::env::var("QRANK_OBS").as_deref(),
        Ok("1") | Ok("true") | Ok("TRUE")
    ) {
        set_enabled(true);
    }
}

/// Zero the global registry's metrics (handles stay valid). Benchmarks
/// call this between runs so each run's `obs` section is
/// self-contained.
pub fn reset() {
    registry::global().reset();
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
    fn count_is_gated_and_registers_at_zero() {
        let _serial = test_lock();
        let registered = |name: &str| global().snapshot().counter(name);
        set_enabled(false);
        count("obs.test.count", 0);
        count("obs.test.count", 5);
        assert_eq!(registered("obs.test.count"), None, "off: not registered");

        set_enabled(true);
        count("obs.test.count", 0);
        assert_eq!(registered("obs.test.count"), Some(0), "n = 0 registers");
        count("obs.test.count", 3);
        count("obs.test.count", 4);
        let handle = global().counter("obs.test.count");
        assert_eq!(handle.get(), 7, "count feeds the handle global() returns");
        set_enabled(false);
        count("obs.test.count", 100);
        assert_eq!(handle.get(), 7, "off: the counter does not move");
    }
}
