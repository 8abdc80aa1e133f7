//! SLO monitoring: per-verb rolling windows and multi-window burn rates.
//!
//! A [`SloMonitor`] tracks two service-level indicators per verb:
//!
//! * **latency** — the fraction of requests at or under the configured
//!   latency objective (goal 99 %);
//! * **availability** — the fraction of requests that did not error
//!   (goal 99.9 %).
//!
//! Counts land in one-second time slots (a ring per verb, sized to the
//! longest window), and [`SloMonitor::status`] aggregates the slots into
//! each of the 1-minute, 10-minute and 1-hour windows to compute a
//! **burn rate**: the observed bad fraction divided by the error budget
//! `1 − goal`. Burn `1.0` means the budget is being consumed exactly as
//! fast as it accrues; sustained burn above `1.0` across *all* windows
//! (the classic multi-window alerting rule, which suppresses short
//! spikes) marks the objective breached.
//!
//! The monitor never reads a clock itself: callers pass `now_ns` from
//! their own monotonic epoch (the [`crate::trace::Tracer`] does), which
//! keeps the window math deterministic under test.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Target fraction of requests at or under the latency objective (a
/// p99 objective).
pub(crate) const LATENCY_GOAL: f64 = 0.99;

/// Target fraction of requests that do not error.
pub(crate) const AVAILABILITY_GOAL: f64 = 0.999;

/// Rolling windows to aggregate, in seconds, shortest first
/// (multi-window burn-rate alerting needs at least two).
const WINDOWS_SECONDS: [u64; 3] = [60, 600, 3600];

/// Slot width of the underlying ring in nanoseconds.
const SLOT_NS: u64 = 1_000_000_000;

/// One time slot's worth of counts for a verb.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Which slot index these counts belong to (`u64::MAX` = unused).
    index: u64,
    total: u64,
    fast: u64,
    errors: u64,
}

const EMPTY_SLOT: Slot = Slot {
    index: u64::MAX,
    total: 0,
    fast: 0,
    errors: 0,
};

/// Ring of slots for one verb; a slot is lazily re-zeroed when its
/// position is revisited with a newer index.
#[derive(Debug)]
struct VerbRing {
    slots: Vec<Slot>,
}

impl VerbRing {
    fn new(capacity: usize) -> Self {
        VerbRing {
            slots: vec![EMPTY_SLOT; capacity],
        }
    }

    fn record(&mut self, index: u64, fast: bool, ok: bool) {
        let pos = (index % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[pos];
        if slot.index != index {
            *slot = Slot {
                index,
                ..EMPTY_SLOT
            };
        }
        slot.total += 1;
        if fast {
            slot.fast += 1;
        }
        if !ok {
            slot.errors += 1;
        }
    }

    /// Sum the slots covering `(now_index − window_slots, now_index]`.
    fn window(&self, now_index: u64, window_slots: u64) -> (u64, u64, u64) {
        let oldest = now_index.saturating_sub(window_slots - 1);
        let mut total = 0;
        let mut fast = 0;
        let mut errors = 0;
        for slot in &self.slots {
            if slot.index >= oldest && slot.index <= now_index {
                total += slot.total;
                fast += slot.fast;
                errors += slot.errors;
            }
        }
        (total, fast, errors)
    }
}

/// Counts and burn rates for one verb over one window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowBurn {
    /// Window length in seconds.
    pub seconds: u64,
    /// Requests observed in the window.
    pub total: u64,
    /// Requests at or under the latency objective.
    pub fast: u64,
    /// Requests that errored.
    pub errors: u64,
    /// Latency error-budget burn rate (`0.0` when the window is empty).
    pub latency_burn: f64,
    /// Availability error-budget burn rate (`0.0` when empty).
    pub availability_burn: f64,
}

/// SLO status for one verb: every window plus the multi-window breach
/// verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct VerbSlo {
    /// The verb these windows describe.
    pub verb: &'static str,
    /// One entry per window, shortest first.
    pub windows: Vec<WindowBurn>,
    /// True iff every window with traffic burns latency budget at ≥ 1×
    /// (and at least one window has traffic).
    pub latency_breach: bool,
    /// Availability analogue of `latency_breach`.
    pub availability_breach: bool,
}

/// Rolling-window SLO monitor; see the module docs.
#[derive(Debug)]
pub struct SloMonitor {
    latency_objective_ns: u64,
    capacity: usize,
    verbs: Mutex<BTreeMap<&'static str, VerbRing>>,
}

impl SloMonitor {
    /// Build a monitor for a latency objective of `latency_objective_ns`
    /// (a request is "fast" iff its latency is at most that); the
    /// per-verb ring is sized to the longest window (plus one slot so
    /// "now" never evicts the oldest in-window slot).
    pub fn new(latency_objective_ns: u64) -> Self {
        let max_window_ns = WINDOWS_SECONDS[WINDOWS_SECONDS.len() - 1] * 1_000_000_000;
        SloMonitor {
            latency_objective_ns,
            capacity: max_window_ns.div_ceil(SLOT_NS) as usize + 1,
            verbs: Mutex::new(BTreeMap::new()),
        }
    }

    /// The latency objective in nanoseconds.
    pub fn latency_objective_ns(&self) -> u64 {
        self.latency_objective_ns
    }

    /// Count one request for `verb` at monotonic time `now_ns`.
    pub fn record(&self, verb: &'static str, now_ns: u64, latency_ns: u64, ok: bool) {
        let index = now_ns / SLOT_NS;
        let fast = latency_ns <= self.latency_objective_ns;
        let mut verbs = self.verbs.lock().unwrap();
        verbs
            .entry(verb)
            .or_insert_with(|| VerbRing::new(self.capacity))
            .record(index, fast, ok);
    }

    /// Aggregate every verb's windows as of `now_ns`.
    pub fn status(&self, now_ns: u64) -> Vec<VerbSlo> {
        let now_index = now_ns / SLOT_NS;
        let verbs = self.verbs.lock().unwrap();
        verbs
            .iter()
            .map(|(&verb, ring)| {
                let windows: Vec<WindowBurn> = WINDOWS_SECONDS
                    .iter()
                    .map(|&seconds| {
                        let window_slots = seconds * 1_000_000_000 / SLOT_NS;
                        let (total, fast, errors) = ring.window(now_index, window_slots);
                        WindowBurn {
                            seconds,
                            total,
                            fast,
                            errors,
                            latency_burn: burn_rate(total, total - fast, LATENCY_GOAL),
                            availability_burn: burn_rate(total, errors, AVAILABILITY_GOAL),
                        }
                    })
                    .collect();
                let active = windows.iter().filter(|w| w.total > 0);
                let latency_breach = active.clone().count() > 0
                    && windows
                        .iter()
                        .filter(|w| w.total > 0)
                        .all(|w| w.latency_burn >= 1.0);
                let availability_breach = active.count() > 0
                    && windows
                        .iter()
                        .filter(|w| w.total > 0)
                        .all(|w| w.availability_burn >= 1.0);
                VerbSlo {
                    verb,
                    windows,
                    latency_breach,
                    availability_breach,
                }
            })
            .collect()
    }
}

/// Burn rate = observed bad fraction / error budget (`1 − goal`).
fn burn_rate(total: u64, bad: u64, goal: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let budget = (1.0 - goal).max(1e-9);
    (bad as f64 / total as f64) / budget
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let m = SloMonitor::new(1_000);
        // 99 fast + 1 slow = exactly the 1% latency budget → burn 1.0.
        for i in 0..99 {
            m.record("score", i, 500, true);
        }
        m.record("score", 99, 50_000, true);
        let status = m.status(99);
        let s = &status[0];
        assert_eq!(s.verb, "score");
        let w600 = &s.windows[1];
        assert_eq!(w600.seconds, 600);
        assert_eq!((w600.total, w600.fast, w600.errors), (100, 99, 0));
        assert!(
            (w600.latency_burn - 1.0).abs() < 1e-9,
            "{}",
            w600.latency_burn
        );
        assert_eq!(w600.availability_burn, 0.0);
    }

    #[test]
    fn multi_window_breach_needs_every_window_burning() {
        let m = SloMonitor::new(1_000);
        // Seconds 0..8: all slow → the long windows burn hard.
        for t in 0..8 {
            m.record("topk", t * SEC, 50_000, true);
        }
        // Second 100 (past the 1-minute window): fast traffic.
        for i in 0..100 {
            m.record("topk", 100 * SEC + i, 500, true);
        }
        let status = m.status(100 * SEC + 500);
        let s = &status[0];
        assert!(s.windows[1].latency_burn >= 1.0, "10-minute window burning");
        assert!(s.windows[2].latency_burn >= 1.0, "1-hour window burning");
        assert!(s.windows[0].latency_burn < 1.0, "short window recovered");
        assert!(
            !s.latency_breach,
            "short-window recovery suppresses the page"
        );
        // Make the short window burn too (3 slow of 103 ≈ 2.9× budget):
        // now every window is burning, which is the breach condition.
        for i in 0..3 {
            m.record("topk", 100 * SEC + 200_000 + i, 50_000, true);
        }
        let status = m.status(100 * SEC + 300_000);
        assert!(status[0].windows[0].latency_burn >= 1.0);
        assert!(status[0].latency_breach, "all windows burning → breach");
    }

    #[test]
    fn windows_expire_and_errors_drive_availability() {
        let m = SloMonitor::new(1_000);
        for i in 0..10 {
            m.record("score", i, 500, i % 2 == 0); // 50% errors, budget 0.1%
        }
        let s = m.status(10);
        assert!((s[0].windows[0].availability_burn - 500.0).abs() < 1e-6);
        assert!(
            s[0].availability_breach,
            "every window saturated with errors"
        );
        // Two hours later every slot has aged out of every window.
        let s = m.status(7_200 * SEC);
        assert_eq!(s[0].windows[2].total, 0);
        assert_eq!(s[0].windows[2].availability_burn, 0.0);
        assert!(!s[0].availability_breach, "no traffic, no breach");
    }

    #[test]
    fn slots_rezero_on_ring_reuse() {
        let m = SloMonitor::new(1_000); // capacity = 3601 slots
        m.record("score", 0, 500, true);
        // Same ring position, much later index: the stale slot must not
        // leak its counts into the new window.
        m.record("score", 3_601 * SEC, 500, true);
        let s = m.status(3_601 * SEC);
        assert_eq!(s[0].windows[0].total, 1);
    }
}
