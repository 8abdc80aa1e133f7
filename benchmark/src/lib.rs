//! The qrank benchmark of record.
//!
//! Five named workloads, each run in its own process, measured two
//! ways: a **plain** run gives the end-to-end metrics; a **traced** run
//! wraps timers around the calls into each layer's public functions and
//! gives the per-layer metrics. Nothing inside the program under test
//! is instrumented, so the numbers stay comparable while the layers are
//! refactored. See `README.md` for the tables and the reasons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod check;
pub mod gen;
pub mod load;
pub mod metrics;
pub mod refresh;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod sys;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Share of the ISSUE's page counts the default run uses, so that the
/// driver's 4 + 22 x 5 runs fit its time cap. Recorded in every output.
pub const DEFAULT_SCALE: f64 = 0.3;

/// Times each workload's set-up is repeated; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Simulate, crawl four times, run the pipeline.
    BatchCold,
    /// Cold pipeline runs over a pre-built large series.
    BatchRank,
    /// Durable ingest stream, kill, recover.
    RefreshDurable,
    /// Point reads over TCP.
    ServePoint,
    /// Mixed reads over TCP beside periodic refreshes.
    ServeMixedRefresh,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::BatchCold,
        Workload::BatchRank,
        Workload::RefreshDurable,
        Workload::ServePoint,
        Workload::ServeMixedRefresh,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchCold => "batch_cold",
            Workload::BatchRank => "batch_rank",
            Workload::RefreshDurable => "refresh_durable",
            Workload::ServePoint => "serve_point",
            Workload::ServeMixedRefresh => "serve_mixed_refresh",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of plain (end-to-end).
    pub trace: bool,
    /// Share of the ISSUE's page counts ([`DEFAULT_SCALE`]).
    pub scale: f64,
}

impl RunConfig {
    /// `full` pages at this run's scale, never below `floor`.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(floor)
    }
}

/// The timed region's clock: passes start while it has not run out.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    started: Instant,
    length: Duration,
}

impl Budget {
    /// Start a region of `seconds`.
    pub fn start(seconds: f64) -> Budget {
        Budget {
            started: Instant::now(),
            length: Duration::from_secs_f64(seconds),
        }
    }

    /// May another pass start?
    pub fn open(&self) -> bool {
        self.started.elapsed() < self.length
    }
}

/// What one plain timed pass measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    /// Wall clock of the pass.
    pub wall_s: f64,
    /// Operations completed per second of the pass.
    pub ops_per_s: f64,
    /// Median latency of the workload's operation within the pass, ms.
    pub op_p50_ms: f64,
    /// Tail latency of the operation within the pass, ms (see
    /// [`stats::tail_percentile`]).
    pub op_tail_ms: f64,
}

impl Pass {
    /// A pass that is one operation: its latency is the pass's wall.
    pub fn of_one_operation(wall_s: f64) -> Pass {
        Pass {
            wall_s,
            ops_per_s: 1.0 / wall_s,
            op_p50_ms: 1e3 * wall_s,
            op_tail_ms: 1e3 * wall_s,
        }
    }
}

/// What a workload measured, before it is folded into named metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// One entry per set-up.
    pub setups_s: Vec<f64>,
    /// One entry per plain timed pass.
    pub passes: Vec<Pass>,
    /// `improvement_factor()` of the report the workload computed or
    /// served.
    pub improvement: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Sizes and settings worth printing next to the numbers.
    pub facts: Vec<(&'static str, String)>,
}

impl Measured {
    /// Record a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Record a fact for the human-readable output.
    pub fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.facts.push((key, value.to_string()));
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// The result of a run, ready to print.
#[derive(Debug)]
pub struct Outcome {
    /// Did every output check pass with no failed operation?
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Failed checks.
    pub failures: Vec<String>,
    /// The metrics of this run's kind, in table order.
    pub metrics: Vec<(&'static metrics::MetricDef, f64)>,
    /// The plain timed passes the end-to-end metrics were folded from.
    pub passes: Vec<Pass>,
    /// Sizes and settings.
    pub facts: Vec<(&'static str, String)>,
}

/// Run one workload and fold what it measured into named metrics.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut m = match cfg.workload {
        Workload::BatchCold => batch::run_cold(cfg),
        Workload::BatchRank => batch::run_rank(cfg),
        Workload::RefreshDurable => refresh::run(cfg),
        Workload::ServePoint | Workload::ServeMixedRefresh => serve::run(cfg),
    };
    let peak_rss_mb = sys::peak_rss_mib();
    let metrics: Vec<(&'static metrics::MetricDef, f64)> = if cfg.trace {
        metrics::PER_LAYER
            .iter()
            .map(|d| (d, m.layers.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        // A run that failed before measuring reads NaN here, which is
        // reported as a failed check below. Passes fold by their best
        // decile, set-ups by their median: see `stats::best_decile`.
        let best = |of: fn(&Pass) -> f64, higher: bool| {
            let values: Vec<f64> = m.passes.iter().map(of).collect();
            stats::best_decile(&values, higher).unwrap_or(f64::NAN)
        };
        let value = |name: &str| match name {
            "setup_s" if m.setups_s.is_empty() => f64::NAN,
            "setup_s" => stats::median(&m.setups_s),
            "wall_s" => best(|p| p.wall_s, false),
            "ops_per_s" => best(|p| p.ops_per_s, true),
            "op_p50_ms" => best(|p| p.op_p50_ms, false),
            "op_tail_ms" => best(|p| p.op_tail_ms, false),
            "estimator_improvement" => m.improvement,
            "peak_rss_mb" => peak_rss_mb,
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        metrics::END_TO_END
            .iter()
            .map(|d| (d, value(d.name)))
            .collect()
    };
    for (d, v) in &metrics {
        if !v.is_finite() {
            m.fail(format!("metric {} is not finite: {v}", d.name));
        }
    }
    m.fact("scale", cfg.scale);
    m.fact("nproc", sys::nproc());
    m.fact("thread_budget", qrank_rank::thread_budget());
    Outcome {
        correct: m.failures.is_empty() && m.failed == 0,
        attempted: m.attempted.max(1),
        failed: m.failed,
        failures: m.failures,
        metrics,
        passes: m.passes,
        facts: m.facts,
    }
}
