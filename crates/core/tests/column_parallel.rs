//! The column stage solves a window's cache misses as one batch on
//! several threads. Two things must hold whatever the schedule: turning
//! observability on changes no bit of the report, and the time spent on
//! worker threads is attributed to the stage that fanned out — not to
//! root spans that would count the stage twice, and not to the
//! caller's trace, which shows the stage but none of its workers' spans.
//!
//! The same engine then slides its window by one crawl, and the solver's
//! own counters must agree with the stage cache that exactly one column
//! was solved.
//!
//! A window whose columns are large enough for the colored schedule
//! gives one report at every thread budget: a column's bits are a
//! function of its graph and `PageRankConfig` alone.
//!
//! Observability and the thread budget are process-global, so each
//! scenario is one `#[test]`, and the two take turns on one lock.

use std::sync::{Mutex, MutexGuard, PoisonError};

use qrank_core::{
    run_pipeline, PaperEstimator, PipelineConfig, PipelineEngine, PipelineReport, PopularityMetric,
};
use qrank_graph::generators::barabasi_albert;
use qrank_graph::{CsrGraph, PageId, Snapshot, SnapshotSeries};
use qrank_obs as obs;
use qrank_rank::{set_thread_budget, solve_auto, solve_many, PageRankConfig, PARALLEL_MIN_NODES};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Held by each test while it sets the thread budget or observability.
fn process_globals() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Crawls `times` of one 300-page site whose links churn with `t`.
fn crawls(times: std::ops::Range<u64>) -> SnapshotSeries {
    let n = 300u64;
    let pages: Vec<PageId> = (0..n).map(PageId).collect();
    let mut series = SnapshotSeries::new();
    for t in times {
        let mut edges: Vec<(u32, u32)> = (0..n as u32).map(|u| (u, (u + 1) % n as u32)).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
        for _ in 0..1_500 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            edges.push((((state >> 33) % n) as u32, ((state >> 13) % n) as u32));
        }
        let graph = CsrGraph::from_edges(n as usize, &edges);
        series
            .push(Snapshot::new(t as f64, graph, pages.clone()).unwrap())
            .unwrap();
    }
    series
}

fn run(engine: &mut PipelineEngine, series: &SnapshotSeries) -> PipelineReport {
    let estimator = PaperEstimator {
        c: 0.1,
        flat_tolerance: 0.0,
    };
    engine.run(series, &estimator, 0.05).unwrap()
}

#[test]
fn observability_changes_no_bit_and_worker_time_rolls_up_under_the_stage() {
    let _globals = process_globals();
    let series = crawls(0..4);
    let cold_engine = || PipelineEngine::new(PopularityMetric::paper_pagerank());
    // more threads than most CI boxes have: the batch clamps to the
    // machine, and every assertion below holds for any worker count
    set_thread_budget(4);

    obs::set_enabled(false);
    let off = run(&mut cold_engine(), &series);
    obs::set_enabled(true);
    obs::reset();
    let tracer = obs::Tracer::new(obs::TraceConfig::default());
    let mut engine = cold_engine();
    let trace = tracer.begin("pipeline").expect("observability is on");
    let on = run(&mut engine, &series);
    tracer.finish(trace, true);
    obs::set_enabled(false);
    set_thread_budget(0);

    assert_eq!(off.pages, on.pages);
    assert_eq!(off.estimates, on.estimates);
    assert_eq!(off.current, on.current);
    assert_eq!(off.future, on.future);
    assert_eq!(off.err_estimate, on.err_estimate);
    assert_eq!(off.trajectories.values, on.trajectories.values);

    let snap = obs::global().snapshot();
    let stage = "span.pipeline.run/pipeline.stage.columns";
    let batch = snap
        .histogram(&format!("{stage}/rank.solve_many"))
        .expect("the batch is one span on the calling thread");
    assert_eq!(batch.count, 1);
    let solves = snap
        .histogram(&format!("{stage}/rank.solve_many/rank.gauss_seidel"))
        .expect("per-column solves record under the batch, on any thread");
    assert_eq!(solves.count, 4);
    let roots: Vec<&str> = snap
        .histograms
        .iter()
        .map(|(name, _)| name.as_str())
        .filter(|name| name.starts_with("span.rank.") || name.starts_with("span.align."))
        .collect();
    assert!(
        roots.is_empty(),
        "worker spans surfaced as roots: {roots:?}"
    );
    let traced = &tracer.slowest(None)[0];
    let stages: Vec<&str> = traced.stages.iter().map(|s| s.name.as_str()).collect();
    assert!(
        stages.contains(&"pipeline.run/pipeline.stage.columns/rank.solve_many"),
        "the batch is a stage of the caller's trace: {stages:?}"
    );
    assert!(
        !stages
            .iter()
            .any(|name| name.ends_with("rank.gauss_seidel")),
        "a column solved on a fan-out worker is not: {stages:?}"
    );

    assert_eq!(snap.counter("rank.solve_many.columns"), Some(4));
    let workers = snap.counter("rank.solve_many.workers").unwrap();
    assert!((1..=4).contains(&workers), "workers = {workers}");
    // wall time of the batch on the caller; per-column time summed over
    // workers (each column's timer encloses its solve span)
    let column_ns = snap.counter("rank.solve_many.column_ns").unwrap();
    assert!(column_ns >= solves.sum, "{column_ns} < {}", solves.sum);
    assert!(
        column_ns <= batch.sum * workers,
        "more column time than {workers} workers had"
    );

    // Slide the warm engine's window by one crawl: the stage cache says
    // one column was solved, and the solver counted exactly that solve.
    obs::set_enabled(true);
    obs::reset();
    run(&mut engine, &crawls(1..5));
    obs::set_enabled(false);
    assert_eq!(engine.stats().columns_solved(), 1);
    assert_eq!(engine.stats().columns_reused(), 3);
    let snap = obs::global().snapshot();
    assert_eq!(snap.counter("rank.solve.gauss_seidel"), Some(1));
    assert_eq!(snap.counter("rank.solve_many.columns"), Some(1));
}

/// Four crawls of one preferential-attachment web of
/// [`PARALLEL_MIN_NODES`] pages, each holding every page and a nested
/// 70/80/90/100 % of the links: the common set is every page, so every
/// aligned column takes the colored schedule.
fn large_window() -> SnapshotSeries {
    let n = PARALLEL_MIN_NODES;
    let mut rng = StdRng::seed_from_u64(48);
    let links: Vec<(u32, u32)> = barabasi_albert(n, 3, &mut rng).edges().collect();
    let pages: Vec<PageId> = (0..n as u64).map(PageId).collect();
    let mut series = SnapshotSeries::new();
    for t in 0..4u64 {
        let kept: Vec<(u32, u32)> = (0u64..)
            .zip(&links)
            .filter(|(j, _)| j.wrapping_mul(7_919) % 10 < 7 + t)
            .map(|(_, &link)| link)
            .collect();
        let graph = CsrGraph::from_edges(n, &kept);
        series
            .push(Snapshot::new(t as f64, graph, pages.clone()).unwrap())
            .unwrap();
    }
    series
}

/// FNV-1a over the bit pattern of every per-page value of a report and
/// of its headline ratio.
fn digest(report: &PipelineReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for page in &report.pages {
        word(page.0);
    }
    for &selected in &report.selected {
        word(u64::from(selected));
    }
    let columns = [
        &report.estimates,
        &report.current,
        &report.future,
        &report.err_estimate,
        &report.err_current,
    ];
    let trajectories = report.trajectories.values.iter();
    for v in columns.into_iter().chain(trajectories).flatten() {
        word(v.to_bits());
    }
    word(report.improvement_factor().to_bits());
    h
}

#[test]
fn a_window_of_colored_columns_gives_one_report_at_every_budget() {
    let _globals = process_globals();
    let series = large_window();
    let digests: Vec<u64> = [1, 2, 8]
        .into_iter()
        .map(|budget| {
            set_thread_budget(budget);
            let report = run_pipeline(&series, &PipelineConfig::default()).unwrap();
            assert_eq!(report.pages.len(), PARALLEL_MIN_NODES);
            digest(&report)
        })
        .collect();
    assert_eq!(
        digests, [digests[0]; 3],
        "report digests at budgets 1, 2, 8"
    );

    let cfg = PageRankConfig::paper_style(0.15);
    let columns: Vec<&CsrGraph> = series.snapshots().iter().map(|s| &s.graph).collect();
    set_thread_budget(1);
    let one_by_one: Vec<_> = columns.iter().map(|g| solve_auto(g, &cfg, None)).collect();
    for budget in [2, 8] {
        set_thread_budget(budget);
        assert!(
            solve_many(&columns, &cfg) == one_by_one,
            "solve_many at budget {budget} is not solve_auto per column"
        );
    }
    set_thread_budget(0);
}
