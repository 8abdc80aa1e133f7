//! # qrank-chaos — deterministic fault injection
//!
//! A seeded [`FaultPlan`] describes *which* hook sites misbehave and
//! *when*, counted in per-site hits rather than wall-clock time, so a
//! chaos run is exactly reproducible: the same plan against the same
//! workload injects the same faults in the same order.
//!
//! Production crates never depend on this crate directly. `qrank-wal`
//! and `qrank-serve` each carry an off-by-default `chaos` cargo feature
//! that compiles a one-line hook ([`should_fail`]) into a handful of
//! sites (WAL append/sync/checkpoint, refresh ingest, score reads);
//! with the feature disabled the hook is a `const false` and the
//! injection branches do not exist in the binary at all — default
//! builds are bitwise identical to a tree without this crate.
//!
//! ## Sites and hits
//!
//! A *site* is a static string naming one hook point, e.g.
//! `"wal.append"`. Every call to [`should_fail`] at a site increments
//! that site's hit counter (1-based) and consults the installed plan's
//! rules. A [`FaultRule`] fires on hits `start, start+every, ...` for
//! at most `count` firings. What happens is the rule's [`FaultKind`]:
//! return an injected error, panic, or sleep (a "slow shard") and then
//! proceed normally.
//!
//! ```
//! use qrank_chaos::{FaultKind, FaultPlan, FaultRule};
//! let plan = FaultPlan::new(42).with_rule(FaultRule {
//!     site: "wal.append".into(),
//!     kind: FaultKind::Error,
//!     start: 3,
//!     every: 1,
//!     count: 2,
//! });
//! qrank_chaos::install(plan);
//! assert!(!qrank_chaos::should_fail("wal.append")); // hit 1
//! assert!(!qrank_chaos::should_fail("wal.append")); // hit 2
//! assert!(qrank_chaos::should_fail("wal.append")); // hit 3: injected
//! assert!(qrank_chaos::should_fail("wal.append")); // hit 4: injected
//! assert!(!qrank_chaos::should_fail("wal.append")); // budget spent
//! qrank_chaos::clear();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What an armed rule does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The hook site reports failure: [`should_fail`] returns `true`
    /// and the caller surfaces its own typed error (an injected I/O
    /// fault, from the caller's point of view).
    Error,
    /// The hook site panics — exercises `catch_unwind` containment.
    Panic,
    /// The hook site sleeps this many milliseconds, then proceeds
    /// normally — a slow disk or a slow shard.
    DelayMs(u64),
}

/// One injection rule: fire `kind` at `site` on per-site hits
/// `start, start+every, start+2*every, ...`, at most `count` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// Hook site this rule arms (e.g. `"wal.append"`).
    pub site: String,
    /// What firing does.
    pub kind: FaultKind,
    /// First 1-based hit that fires (0 is treated as 1).
    pub start: u64,
    /// Stride between firings (0 is treated as 1).
    pub every: u64,
    /// Maximum number of firings (0 = unlimited).
    pub count: u64,
}

impl FaultRule {
    /// Does this rule fire on 1-based `hit`, given `fired` prior firings?
    fn fires(&self, hit: u64, fired: u64) -> bool {
        let start = self.start.max(1);
        let every = self.every.max(1);
        if hit < start || (self.count > 0 && fired >= self.count) {
            return false;
        }
        (hit - start).is_multiple_of(every)
    }
}

/// A seeded set of [`FaultRule`]s. The seed itself does not perturb the
/// rules — it names the scenario (runners derive rule offsets from it
/// and stamp it into reports) so two runs quoting the same seed are
/// comparing the same injected history.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Scenario seed, echoed by [`status`].
    pub seed: u64,
    /// The armed rules.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan carrying `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Builder-style rule append.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Parse a compact spec string: semicolon-separated rules, each
    /// `site:kind:start:every:count` where `kind` is `error`, `panic`,
    /// or `delay<ms>` (e.g. `delay50`).
    ///
    /// ```
    /// let p = qrank_chaos::FaultPlan::parse(7, "wal.append:error:3:1:2;serve.score:delay50:1:4:0")
    ///     .unwrap();
    /// assert_eq!(p.rules.len(), 2);
    /// ```
    pub fn parse(seed: u64, spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new(seed);
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let fields: Vec<&str> = part.split(':').collect();
            if fields.len() != 5 {
                return Err(format!(
                    "bad fault rule {part:?}: want site:kind:start:every:count"
                ));
            }
            let kind = match fields[1] {
                "error" => FaultKind::Error,
                "panic" => FaultKind::Panic,
                k if k.starts_with("delay") => {
                    let ms = k["delay".len()..]
                        .parse::<u64>()
                        .map_err(|_| format!("bad delay in fault rule {part:?}"))?;
                    FaultKind::DelayMs(ms)
                }
                other => return Err(format!("unknown fault kind {other:?}")),
            };
            let num = |i: usize| -> Result<u64, String> {
                fields[i]
                    .parse::<u64>()
                    .map_err(|_| format!("bad number {:?} in fault rule {part:?}", fields[i]))
            };
            plan.rules.push(FaultRule {
                site: fields[0].to_string(),
                kind,
                start: num(2)?,
                every: num(3)?,
                count: num(4)?,
            });
        }
        Ok(plan)
    }
}

#[derive(Debug, Default)]
struct Installed {
    plan: FaultPlan,
    /// Per-site 1-based hit counters.
    hits: HashMap<String, u64>,
    /// Per-rule firing counts (indexed like `plan.rules`).
    fired: Vec<u64>,
    /// Total injections since install.
    injected: u64,
}

fn state() -> &'static Mutex<Option<Installed>> {
    static STATE: OnceLock<Mutex<Option<Installed>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

/// Install `plan` process-wide, resetting all hit counters. Replaces
/// any previously installed plan.
pub fn install(plan: FaultPlan) {
    let fired = vec![0; plan.rules.len()];
    *state().lock().expect("chaos state lock") = Some(Installed {
        plan,
        hits: HashMap::new(),
        fired,
        injected: 0,
    });
}

/// Remove the installed plan; every subsequent [`should_fail`] is an
/// unconditional no-op `false`.
pub fn clear() {
    *state().lock().expect("chaos state lock") = None;
}

/// Is a plan currently installed?
pub fn armed() -> bool {
    state().lock().expect("chaos state lock").is_some()
}

/// Point-in-time injection status: `(seed, total injections)` of the
/// installed plan, if any.
pub fn status() -> Option<(u64, u64)> {
    state()
        .lock()
        .expect("chaos state lock")
        .as_ref()
        .map(|s| (s.plan.seed, s.injected))
}

/// The hook every instrumented site calls: bump the site's hit counter
/// and apply the first matching rule.
///
/// Returns `true` when the caller should fail with its own injected
/// error ([`FaultKind::Error`]). [`FaultKind::Panic`] panics here (the
/// panic message carries the site name); [`FaultKind::DelayMs`] sleeps
/// and returns `false`. With no plan installed this is a counter-free
/// no-op.
pub fn should_fail(site: &str) -> bool {
    // Decide under the lock, sleep/panic outside it: a delay rule must
    // not serialize every other site behind a held mutex.
    let kind = {
        let mut guard = state().lock().expect("chaos state lock");
        let Some(installed) = guard.as_mut() else {
            return false;
        };
        let hit = installed.hits.entry(site.to_string()).or_insert(0);
        *hit += 1;
        let hit = *hit;
        let mut matched = None;
        for (i, rule) in installed.plan.rules.iter().enumerate() {
            if rule.site == site && rule.fires(hit, installed.fired[i]) {
                matched = Some((i, rule.kind));
                break;
            }
        }
        let Some((i, kind)) = matched else {
            return false;
        };
        installed.fired[i] += 1;
        installed.injected += 1;
        kind
    };
    qrank_obs::count("chaos.injected", 1);
    let name = match kind {
        FaultKind::Error => "chaos.error",
        FaultKind::Panic => "chaos.panic",
        FaultKind::DelayMs(_) => "chaos.delay",
    };
    qrank_obs::count(name, 1);
    match kind {
        FaultKind::Error => true,
        FaultKind::Panic => panic!("chaos: injected panic at {site}"),
        FaultKind::DelayMs(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global plan is process-wide; tests that install one are
    /// serialized so they do not observe each other's counters.
    fn serialized() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn uninstalled_is_a_noop() {
        let _g = serialized();
        clear();
        assert!(!armed());
        assert!(!should_fail("wal.append"));
        assert_eq!(status(), None);
    }

    #[test]
    fn rules_fire_on_schedule_and_respect_budget() {
        let _g = serialized();
        install(FaultPlan::new(1).with_rule(FaultRule {
            site: "s".into(),
            kind: FaultKind::Error,
            start: 2,
            every: 3,
            count: 2,
        }));
        // hits:      1      2     3      4      5     6      7
        let expect = [false, true, false, false, true, false, false];
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(should_fail("s"), *want, "hit {}", i + 1);
        }
        assert_eq!(status(), Some((1, 2)));
        clear();
    }

    #[test]
    fn sites_count_independently() {
        let _g = serialized();
        install(FaultPlan::new(9).with_rule(FaultRule {
            site: "a".into(),
            kind: FaultKind::Error,
            start: 2,
            every: 1,
            count: 0,
        }));
        assert!(!should_fail("a"));
        // site "b" has no rule and never fails, nor advances "a"
        for _ in 0..5 {
            assert!(!should_fail("b"));
        }
        assert!(should_fail("a"), "site a is on hit 2 regardless of b");
        clear();
    }

    #[test]
    fn delay_sleeps_then_proceeds() {
        let _g = serialized();
        install(FaultPlan::new(3).with_rule(FaultRule {
            site: "d".into(),
            kind: FaultKind::DelayMs(30),
            start: 1,
            every: 1,
            count: 1,
        }));
        let started = std::time::Instant::now();
        assert!(!should_fail("d"), "delay is not a failure");
        assert!(started.elapsed() >= Duration::from_millis(25));
        assert!(!should_fail("d"), "budget of one");
        clear();
    }

    #[test]
    fn panic_rule_panics_with_site_name() {
        let _g = serialized();
        install(FaultPlan::new(5).with_rule(FaultRule {
            site: "p".into(),
            kind: FaultKind::Panic,
            start: 1,
            every: 1,
            count: 1,
        }));
        let caught = std::panic::catch_unwind(|| should_fail("p"));
        clear();
        let payload = caught.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("injected panic at p"), "{msg}");
    }

    #[test]
    fn parse_roundtrips_a_spec() {
        let plan =
            FaultPlan::parse(42, "wal.append:error:3:1:2; refresh.ingest:panic:1:1:1").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].kind, FaultKind::Error);
        assert_eq!(plan.rules[0].start, 3);
        assert_eq!(plan.rules[1].kind, FaultKind::Panic);
        let delay = FaultPlan::parse(0, "serve.score:delay25:1:2:0").unwrap();
        assert_eq!(delay.rules[0].kind, FaultKind::DelayMs(25));
        assert!(FaultPlan::parse(0, "too:short").is_err());
        assert!(FaultPlan::parse(0, "s:frob:1:1:1").is_err());
        assert!(FaultPlan::parse(0, "s:delayx:1:1:1").is_err());
        assert!(FaultPlan::parse(0, "").unwrap().rules.is_empty());
    }

    #[test]
    fn reinstall_resets_counters() {
        let _g = serialized();
        let plan = FaultPlan::new(2).with_rule(FaultRule {
            site: "r".into(),
            kind: FaultKind::Error,
            start: 1,
            every: 1,
            count: 1,
        });
        install(plan.clone());
        assert!(should_fail("r"));
        assert!(!should_fail("r"));
        install(plan);
        assert!(should_fail("r"), "fresh install starts hit counts over");
        clear();
    }
}
