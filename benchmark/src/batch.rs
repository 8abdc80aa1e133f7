//! The batch workloads: `batch_cold` (simulate → crawl → pipeline) and
//! `batch_rank` (cold pipeline runs over a pre-built series).

use std::time::Instant;

use qrank_core::{
    report_from_trajectories, run_pipeline, PaperEstimator, PipelineConfig, PipelineReport,
    PopularityMetric, PopularityTrajectories,
};
use qrank_graph::SnapshotSeries;
use qrank_rank::{select_solver, solve_auto, thread_budget, SolverChoice};
use qrank_sim::{Crawler, QualityDist, SimConfig, World};

use crate::check::{check_mass, report_digest, sim_fingerprint};
use crate::gen::Web;
use crate::stats::{median, median_by, overhead_pct, unattributed_pct};
use crate::{Budget, Measured, Pass, RunConfig, SETUPS};

/// Capture times of the four crawls (burn-in 6, then +0.5, +1, +2.5).
const CRAWL_TIMES: [f64; 4] = [6.0, 6.5, 7.0, 8.5];
/// Page-set sizes of the `batch_rank` snapshots, as shares of the web.
pub const GROWTH: [f64; 4] = [0.7, 0.8, 0.9, 1.0];

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// The pipeline run stage by stage through each layer's public calls,
/// with a timer around each: what `run_pipeline` does, seen from
/// outside.
#[derive(Debug)]
pub struct Staged {
    /// Digest of the report; must equal that of `run_pipeline`'s.
    pub digest: u64,
    /// `SnapshotSeries::aligned_to_common`.
    pub align_s: f64,
    /// Sum of the per-snapshot solves.
    pub solve_s: f64,
    /// Transpose + `report_from_trajectories`.
    pub estimate_s: f64,
    /// First call to last return.
    pub wall_s: f64,
    /// Solver iterations, summed over snapshots.
    pub iterations: u64,
    /// Edges × iterations, summed over snapshots.
    pub edge_sweeps: f64,
    /// Solves for which `select_solver` picks the colored solver.
    pub colored_solves: u64,
    /// Pages common to all snapshots.
    pub common_pages: usize,
    /// Edges that survive the restriction, summed over snapshots.
    pub edges_kept: usize,
}

/// Run the staged pipeline; `Err` carries a failed output check.
pub fn staged_pipeline(series: &SnapshotSeries) -> Result<Staged, String> {
    let cfg = PipelineConfig::default();
    let PopularityMetric::PageRank(rank_cfg) = &cfg.metric else {
        return Err("the default pipeline metric is no longer PageRank".into());
    };
    let started = Instant::now();

    let t = Instant::now();
    let aligned = series.aligned_to_common().map_err(|e| e.to_string())?;
    let align_s = secs(t);

    let mut solve_s = 0.0;
    let mut iterations = 0u64;
    let mut edge_sweeps = 0.0;
    let mut colored_solves = 0u64;
    let mut columns = Vec::with_capacity(aligned.len());
    for snap in aligned.snapshots() {
        let t = Instant::now();
        // what `PopularityMetric::compute` calls; taken directly for
        // the iteration count it returns
        let solved = solve_auto(&snap.graph, rank_cfg, None);
        solve_s += secs(t);
        iterations += solved.iterations as u64;
        edge_sweeps += snap.graph.num_edges() as f64 * solved.iterations as f64;
        let choice = select_solver(snap.graph.num_nodes(), thread_budget());
        colored_solves += u64::from(matches!(choice, SolverChoice::ColoredGaussSeidel { .. }));
        check_mass(&solved.scores)?;
        columns.push(solved.scores);
    }

    let t = Instant::now();
    let pages = aligned.snapshots()[0].pages().to_vec();
    let mut values = vec![Vec::with_capacity(columns.len()); pages.len()];
    for col in &columns {
        for (row, &v) in values.iter_mut().zip(col) {
            row.push(v);
        }
    }
    let traj = PopularityTrajectories {
        times: aligned.times(),
        values,
        pages,
    };
    let estimator = PaperEstimator {
        c: cfg.c,
        flat_tolerance: cfg.flat_tolerance,
    };
    let report = report_from_trajectories(&traj, &estimator, cfg.min_relative_change)
        .map_err(|e| e.to_string())?;
    let estimate_s = secs(t);

    let wall_s = secs(started);
    Ok(Staged {
        digest: report_digest(&report),
        align_s,
        solve_s,
        estimate_s,
        wall_s,
        iterations,
        edge_sweeps,
        colored_solves,
        common_pages: aligned.snapshots()[0].num_pages(),
        edges_kept: aligned
            .snapshots()
            .iter()
            .map(|s| s.graph.num_edges())
            .sum(),
    })
}

/// Fold a staged run's pipeline layers into `m`.
fn record_pipeline_layers(m: &mut Measured, staged: &[Staged], plain_s: &[f64]) {
    let (align, solve, estimate) = (
        median_by(staged, |s| s.align_s),
        median_by(staged, |s| s.solve_s),
        median_by(staged, |s| s.estimate_s),
    );
    let last = staged.last().expect("at least one traced pass");
    m.layer("graph.align_s", align);
    m.layer("graph.common_pages", last.common_pages as f64);
    m.layer("graph.edges_kept", last.edges_kept as f64);
    m.layer("pagerank.solve_s", solve);
    m.layer("pagerank.iterations", last.iterations as f64);
    m.layer("pagerank.edges_per_s", last.edge_sweeps / solve);
    m.layer("pagerank.colored_solves", last.colored_solves as f64);
    m.layer("core.estimate_s", estimate);
    m.layer(
        "core.engine_overhead_s",
        median(plain_s) - (align + solve + estimate),
    );
    m.layer("core.columns_solved", GROWTH.len() as f64);
}

fn cold_config(cfg: &RunConfig, scale: f64) -> SimConfig {
    SimConfig {
        num_users: 1_000,
        num_sites: ((100.0 * scale) as usize).max(2),
        visit_ratio: 1.0,
        page_birth_rate: 15_000.0 * scale,
        quality_dist: QualityDist::Uniform { lo: 0.05, hi: 0.95 },
        dt: 0.05,
        seed: cfg.seed,
        ..Default::default()
    }
}

struct ColdPass {
    wall_s: f64,
    world: World,
    series: SnapshotSeries,
    report: PipelineReport,
}

/// The whole batch path a researcher runs, timed as one.
fn cold_plain(sim: SimConfig) -> Result<ColdPass, String> {
    let started = Instant::now();
    let mut world = World::bootstrap(sim).map_err(|e| e.to_string())?;
    let crawler = Crawler::default();
    let mut series = SnapshotSeries::new();
    for t in CRAWL_TIMES {
        world.run_until(t);
        let snap = crawler.crawl(&world, t).map_err(|e| e.to_string())?;
        series.push(snap).map_err(|e| e.to_string())?;
    }
    let report = run_pipeline(&series, &PipelineConfig::default()).map_err(|e| e.to_string())?;
    Ok(ColdPass {
        wall_s: secs(started),
        world,
        series,
        report,
    })
}

struct ColdTraced {
    bootstrap_s: f64,
    run_s: f64,
    link_graph_s: f64,
    crawl_s: f64,
    crawl_pages: usize,
    crawl_edges: usize,
    pages_born: usize,
    staged: Staged,
    wall_s: f64,
    fingerprint: u64,
}

/// The same path with a timer around each layer's public call. Returns
/// the timings and, apart, the crawled series.
fn cold_traced(sim: SimConfig) -> Result<(ColdTraced, SnapshotSeries), String> {
    let started = Instant::now();
    let t = Instant::now();
    let mut world = World::bootstrap(sim).map_err(|e| e.to_string())?;
    let bootstrap_s = secs(t);
    let crawler = Crawler::default();
    let mut series = SnapshotSeries::new();
    let (mut run_s, mut link_graph_s, mut crawl_s) = (0.0, 0.0, 0.0);
    let (mut crawl_pages, mut crawl_edges) = (0, 0);
    for at in CRAWL_TIMES {
        let t = Instant::now();
        world.run_until(at);
        run_s += secs(t);
        // the first request for the graph at `at` materializes it; the
        // crawl below then finds it memoized
        let t = Instant::now();
        drop(world.link_graph_arc(at));
        link_graph_s += secs(t);
        let t = Instant::now();
        let snap = crawler.crawl(&world, at).map_err(|e| e.to_string())?;
        crawl_s += secs(t);
        crawl_pages += snap.num_pages();
        crawl_edges += snap.graph.num_edges();
        series.push(snap).map_err(|e| e.to_string())?;
    }
    let staged = staged_pipeline(&series)?;
    let wall_s = secs(started);
    let timings = ColdTraced {
        bootstrap_s,
        run_s,
        link_graph_s,
        crawl_s,
        crawl_pages,
        crawl_edges,
        pages_born: world.num_pages(),
        staged,
        wall_s,
        fingerprint: sim_fingerprint(&world),
    };
    Ok((timings, series))
}

/// Does the staged report equal `run_pipeline`'s on the same series?
fn check_staged(m: &mut Measured, staged: &Staged, plain: &PipelineReport) {
    if staged.digest != report_digest(plain) {
        m.fail("staged pipeline report differs from run_pipeline's on the same series");
    }
}

/// `batch_cold`.
pub fn run_cold(cfg: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let sim = cold_config(cfg, cfg.scale);

    // Set-up is a warm-up: the same path at an eighth of the size, so
    // that the timed passes do not pay first-touch costs of the
    // allocator and the page cache. The world itself is built inside
    // the timed region — a researcher pays for it on every run.
    for _ in 0..SETUPS {
        let t = Instant::now();
        if let Err(e) = cold_plain(cold_config(cfg, cfg.scale / 8.0)) {
            m.fail(format!("warm-up: {e}"));
            return m;
        }
        m.setups_s.push(secs(t));
    }

    let budget = Budget::start(cfg.seconds);
    let mut fingerprints = Vec::new();
    let mut digests = Vec::new();
    let mut traced = Vec::new();
    let mut plain_pipeline_s = Vec::new();
    let mut pages = (0, 0);
    while budget.open() || m.passes.is_empty() || (cfg.trace && traced.is_empty()) {
        m.attempted += 1;
        if cfg.trace && traced.len() < m.passes.len() {
            match cold_traced(sim) {
                Ok((t, series)) => {
                    // run_pipeline on the traced pass's own series:
                    // the reference for the staged report and for the
                    // engine's own overhead
                    let at = Instant::now();
                    match run_pipeline(&series, &PipelineConfig::default()) {
                        Ok(plain) => {
                            plain_pipeline_s.push(secs(at));
                            check_staged(&mut m, &t.staged, &plain);
                        }
                        Err(e) => m.fail(format!("run_pipeline: {e}")),
                    }
                    fingerprints.push(t.fingerprint);
                    digests.push(t.staged.digest);
                    // only the timings outlive the pass: a world or a
                    // series kept alive would tax the next pass's memory
                    traced.push(t);
                }
                Err(e) => {
                    m.failed += 1;
                    m.fail(format!("traced pass: {e}"));
                    break;
                }
            }
            continue;
        }
        match cold_plain(sim) {
            Ok(pass) => {
                // the plain run checks its first pass against one
                // staged run too, outside the timed pass
                if !cfg.trace && m.passes.is_empty() {
                    match staged_pipeline(&pass.series) {
                        Ok(staged) => check_staged(&mut m, &staged, &pass.report),
                        Err(e) => m.fail(format!("staged pipeline: {e}")),
                    }
                }
                m.passes.push(Pass::of_one_operation(pass.wall_s));
                fingerprints.push(sim_fingerprint(&pass.world));
                digests.push(report_digest(&pass.report));
                m.improvement = pass.report.improvement_factor();
                pages = (pass.world.num_pages(), pass.report.pages.len());
            }
            Err(e) => {
                m.failed += 1;
                m.fail(format!("plain pass: {e}"));
                break;
            }
        }
    }
    if m.passes.is_empty() {
        return m;
    }
    if fingerprints.iter().any(|&f| f != fingerprints[0]) {
        m.fail("sim fingerprint differs between passes of one seed");
    }
    if digests.iter().any(|&d| d != digests[0]) {
        m.fail("pipeline report differs between passes of one seed");
    }
    if m.improvement.is_nan() || m.improvement <= 1.0 {
        m.fail(format!(
            "estimator_improvement {} is not above 1",
            m.improvement
        ));
    }
    m.fact("pages_born", pages.0);
    m.fact("common_pages", pages.1);
    m.fact("passes", m.passes.len());

    if cfg.trace {
        let med = |of: fn(&ColdTraced) -> f64| median_by(&traced, of);
        let t = traced.last().expect("trace mode ran a traced pass");
        let traced_wall = med(|t| t.wall_s);
        let sim_layers = [
            med(|t| t.bootstrap_s),
            med(|t| t.run_s),
            med(|t| t.link_graph_s),
            med(|t| t.crawl_s),
        ];
        m.layer("sim.bootstrap_s", sim_layers[0]);
        m.layer("sim.run_s", sim_layers[1]);
        m.layer("sim.pages_born", t.pages_born as f64);
        m.layer("sim.link_graph_s", sim_layers[2]);
        m.layer("sim.crawl_s", sim_layers[3]);
        m.layer("sim.crawl_pages", t.crawl_pages as f64);
        m.layer("sim.crawl_edges", t.crawl_edges as f64);
        let staged: Vec<Staged> = traced.into_iter().map(|t| t.staged).collect();
        record_pipeline_layers(&mut m, &staged, &plain_pipeline_s);
        let parts: Vec<f64> = sim_layers
            .into_iter()
            .chain(["graph.align_s", "pagerank.solve_s", "core.estimate_s"].map(|k| m.layers[k]))
            .collect();
        m.layer(
            "bench.unattributed_pct",
            unattributed_pct(traced_wall, &parts),
        );
        m.layer(
            "bench.trace_overhead_pct",
            overhead_pct(traced_wall, median_by(&m.passes, |p| p.wall_s)),
        );
    }
    m
}

/// `batch_rank`.
pub fn run_rank(cfg: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let pages = cfg.scaled(500_000, 200);
    let mut series = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        series = Some(Web::grow(pages, cfg.seed).covered_series(&GROWTH));
        m.setups_s.push(secs(t));
    }
    let series = series.expect("SETUPS > 0");
    let pipeline_cfg = PipelineConfig::default();

    let budget = Budget::start(cfg.seconds);
    let mut call_s = Vec::new();
    let mut digests = Vec::new();
    let mut staged = Vec::new();
    let mut last = None;
    while budget.open() || m.passes.is_empty() || (cfg.trace && staged.is_empty()) {
        if cfg.trace && staged.len() < m.passes.len() {
            m.attempted += 1;
            match staged_pipeline(&series) {
                Ok(s) => {
                    digests.push(s.digest);
                    staged.push(s);
                }
                Err(e) => {
                    m.failed += 1;
                    m.fail(format!("staged pipeline: {e}"));
                    break;
                }
            }
            continue;
        }
        // a pass is one cold call: a throwaway engine, empty caches
        m.attempted += 1;
        let t = Instant::now();
        match run_pipeline(&series, &pipeline_cfg) {
            Ok(report) => {
                let s = secs(t);
                call_s.push(s);
                m.passes.push(Pass::of_one_operation(s));
                digests.push(report_digest(&report));
                last = Some(report);
            }
            Err(e) => {
                m.failed += 1;
                m.fail(format!("run_pipeline: {e}"));
                break;
            }
        }
    }

    let Some(last) = last else { return m };
    // staged-vs-plain and PageRank mass, in the plain run too
    if !cfg.trace {
        match staged_pipeline(&series) {
            Ok(s) => digests.push(s.digest),
            Err(e) => m.fail(format!("staged pipeline: {e}")),
        }
    }
    if digests.iter().any(|&d| d != digests[0]) {
        m.fail("reports differ between cold runs, or staged differs from run_pipeline");
    }
    m.improvement = last.improvement_factor();
    let web_edges = series.snapshots().last().map_or(0, |s| s.graph.num_edges());
    m.fact("pages", pages);
    m.fact("edges", web_edges);
    m.fact("common_pages", last.pages.len());
    m.fact("selected_pages", last.num_selected());
    m.fact("passes", m.passes.len());

    if cfg.trace {
        record_pipeline_layers(&mut m, &staged, &call_s);
        let wall = median_by(&staged, |s| s.wall_s);
        let parts = ["graph.align_s", "pagerank.solve_s", "core.estimate_s"].map(|k| m.layers[k]);
        m.layer("bench.unattributed_pct", unattributed_pct(wall, &parts));
        m.layer(
            "bench.trace_overhead_pct",
            overhead_pct(wall, median(&call_s)),
        );
    }
    m
}
