//! Overload protection: verb cost classes, the load-shedding policy,
//! and the drain report.
//!
//! The server tracks its instantaneous *load* — connections sitting in
//! the bounded accept queue plus requests currently executing — and
//! consults a [`ShedPolicy`] before running each parsed request. The
//! policy is deliberately a pure function of `(cost class, load, p99)`
//! so its central guarantee is testable without sockets:
//!
//! > **Priority ordering.** At any load, if a cheap verb (`score`) is
//! > shed then every expensive verb (`topk`, `stats`, …) is shed too —
//! > equivalently, no `score` is ever rejected while a `topk` would
//! > have been admitted.
//!
//! This holds by construction: the cheap threshold is never below the
//! expensive threshold ([`ShedPolicy::cheap_threshold`]), and the
//! latency trigger only ever sheds expensive verbs. Probe verbs
//! (`health`, `ready`, `shutdown`) are exempt — an overloaded server
//! must still answer its operators.
//!
//! A shed request is answered with a structured line the load generator
//! and clients can act on:
//!
//! ```text
//! {"ok":false,"error":"overloaded","retry_after_ms":50}
//! ```
//!
//! `retry_after_ms` grows with the overshoot (how far past the
//! threshold the load is), so backpressure stiffens as the queue
//! deepens instead of synchronizing every client on one retry period.

use std::time::Duration;

use crate::protocol::Request;

/// How expensive a verb is to execute, for shedding priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// Never shed: liveness/readiness probes and the drain verb.
    Exempt,
    /// Shed only under severe overload (`score` — one point read).
    Cheap,
    /// Shed first (`topk`/`stats`/`metrics`/`trace` — many-row and
    /// multi-line rendering).
    Expensive,
}

/// The shedding cost class of a parsed request.
pub fn request_cost(r: &Request) -> Cost {
    match r {
        Request::Score(_) => Cost::Cheap,
        Request::TopK(_) | Request::Stats | Request::Metrics | Request::Trace(_) => Cost::Expensive,
        Request::Health | Request::Ready | Request::Shutdown => Cost::Exempt,
    }
}

/// Queue-depth and latency triggered load shedding.
///
/// Disabled by default (`expensive_at == 0`): every request is
/// admitted, matching the server's historical behavior.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShedPolicy {
    /// Load (queued connections + in-flight requests) at which
    /// expensive verbs are shed. 0 disables shedding entirely.
    pub expensive_at: usize,
    /// Load at which cheap verbs are shed too. 0 = derive as
    /// `4 * expensive_at`; an explicit value must be at least
    /// `expensive_at` (validated by [`crate::serve`]).
    pub cheap_at: usize,
    /// Latency trigger in microseconds: when the served p99 exceeds
    /// this, expensive verbs are shed regardless of queue depth.
    /// 0 disables the trigger. Never sheds cheap verbs.
    pub latency_us: u64,
}

impl ShedPolicy {
    /// Is shedding on at all?
    pub fn enabled(&self) -> bool {
        self.expensive_at > 0
    }

    /// The load at which cheap verbs start being shed; by construction
    /// never below [`ShedPolicy::expensive_at`].
    pub fn cheap_threshold(&self) -> usize {
        let derived = if self.cheap_at == 0 {
            self.expensive_at.saturating_mul(4)
        } else {
            self.cheap_at
        };
        derived.max(self.expensive_at)
    }

    /// Decide whether to shed a request of `cost` at the given `load`
    /// (queued + in-flight) and served `p99_us`. Returns the
    /// `retry_after_ms` hint to answer with when shedding, `None` to
    /// admit.
    pub fn decide(&self, cost: Cost, load: usize, p99_us: f64) -> Option<u64> {
        if !self.enabled() || cost == Cost::Exempt {
            return None;
        }
        let threshold = match cost {
            Cost::Expensive => self.expensive_at,
            Cost::Cheap => self.cheap_threshold(),
            Cost::Exempt => unreachable!("handled above"),
        };
        if load >= threshold {
            return Some(retry_after_ms(load, threshold));
        }
        if cost == Cost::Expensive && self.latency_us > 0 && p99_us > self.latency_us as f64 {
            return Some(retry_after_ms(
                load.max(self.expensive_at),
                self.expensive_at,
            ));
        }
        None
    }
}

/// The retry hint for a shed at `load` against `threshold`: 25ms per
/// unit of overshoot ratio, clamped to `[25, 5000]`. Deterministic, so
/// identical overload histories answer identical hints.
pub fn retry_after_ms(load: usize, threshold: usize) -> u64 {
    let ratio = (load.max(1) as u64).div_ceil(threshold.max(1) as u64);
    25u64.saturating_mul(ratio).clamp(25, 5_000)
}

/// What [`crate::ServerHandle::drain`] observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Did every queued connection and in-flight request finish before
    /// the deadline?
    pub completed: bool,
    /// How long the drain waited before joining the threads.
    pub waited: Duration,
    /// Connections still open when the deadline forced shutdown
    /// (0 on a completed drain; idle keep-alive connections are closed
    /// by the drain itself and do not count).
    pub aborted_connections: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(expensive_at: usize, cheap_at: usize, latency_us: u64) -> ShedPolicy {
        ShedPolicy {
            expensive_at,
            cheap_at,
            latency_us,
        }
    }

    #[test]
    fn disabled_policy_admits_everything() {
        let p = ShedPolicy::default();
        assert!(!p.enabled());
        for cost in [Cost::Exempt, Cost::Cheap, Cost::Expensive] {
            assert_eq!(p.decide(cost, usize::MAX, 1e12), None);
        }
    }

    #[test]
    fn expensive_sheds_before_cheap() {
        let p = policy(2, 8, 0);
        assert_eq!(p.decide(Cost::Expensive, 1, 0.0), None);
        assert!(p.decide(Cost::Expensive, 2, 0.0).is_some());
        assert_eq!(
            p.decide(Cost::Cheap, 7, 0.0),
            None,
            "cheap admitted under its threshold"
        );
        assert!(p.decide(Cost::Cheap, 8, 0.0).is_some());
        assert_eq!(p.decide(Cost::Exempt, 999, 0.0), None, "probes never shed");
    }

    #[test]
    fn cheap_threshold_is_never_below_expensive() {
        assert_eq!(policy(3, 0, 0).cheap_threshold(), 12, "derived 4x");
        assert_eq!(
            policy(10, 2, 0).cheap_threshold(),
            10,
            "explicit floor-clamped"
        );
        assert_eq!(policy(5, 7, 0).cheap_threshold(), 7);
    }

    #[test]
    fn latency_trigger_sheds_only_expensive() {
        let p = policy(100, 400, 1_000);
        assert!(p.decide(Cost::Expensive, 0, 2_000.0).is_some());
        assert_eq!(p.decide(Cost::Cheap, 0, 2_000.0), None);
        assert_eq!(p.decide(Cost::Expensive, 0, 500.0), None);
    }

    #[test]
    fn retry_hint_grows_with_overshoot_and_clamps() {
        assert_eq!(retry_after_ms(2, 2), 25);
        assert_eq!(retry_after_ms(4, 2), 50);
        assert_eq!(retry_after_ms(20, 2), 250);
        assert_eq!(retry_after_ms(usize::MAX, 1), 5_000);
        assert_eq!(retry_after_ms(0, 0), 25, "degenerate inputs stay sane");
    }

    #[test]
    fn request_costs_cover_every_verb() {
        use crate::protocol::TraceQuery;
        assert_eq!(request_cost(&Request::Score(1)), Cost::Cheap);
        for r in [
            Request::TopK(3),
            Request::Stats,
            Request::Metrics,
            Request::Trace(TraceQuery::Slo),
        ] {
            assert_eq!(request_cost(&r), Cost::Expensive);
        }
        for r in [Request::Health, Request::Ready, Request::Shutdown] {
            assert_eq!(request_cost(&r), Cost::Exempt);
        }
    }
}
