//! Incremental stage engine: the pipeline as fingerprint-keyed artifacts.
//!
//! [`run_pipeline`](crate::run_pipeline) is a pure function of its
//! snapshot series, and under serving load it is called again and again
//! on windows that overlap almost entirely: a refresh *appends* one
//! snapshot, steady state *slides* the window by one, and only rarely
//! does the common page set actually change. [`PipelineEngine`] makes
//! that overlap explicit. Each pipeline stage produces a typed artifact
//! keyed by a cheap content fingerprint:
//!
//! ```text
//! SnapshotSeries ──align──▶ common pages        key: pages_fingerprint
//!        │                       │
//!        └──restrict──▶ aligned Snapshot        key: (snapshot fp, common fp)
//!                                │
//!                        ──solve──▶ TrajectoryColumn   key: aligned snapshot fp
//!                                │
//!                        ──transpose──▶ PopularityTrajectories
//!                                │
//!                        ──estimate──▶ PipelineReport
//! ```
//!
//! The engine caches the two expensive artifacts (aligned snapshots and
//! per-snapshot popularity columns) between runs. A column is a pure
//! function of the aligned snapshot it was computed from, so a cache hit
//! is *bitwise* the score vector a cold run would compute — the engine's
//! house invariant, proven by the `engine_equivalence` suite, is that
//! for every window shape its report is bit-for-bit identical to a cold
//! [`run_pipeline`](crate::run_pipeline) at every thread budget.
//!
//! Invalidation per window shape (see DESIGN.md for the worked table):
//!
//! * **Append**, common set unchanged — every old column hits; exactly
//!   one new column is solved.
//! * **Window slide**, common set unchanged — the dropped snapshot's
//!   artifacts are evicted, every surviving column hits, one new column
//!   is solved.
//! * **Common-set change** — the common fingerprint changes, so every
//!   restrict key and (via the changed aligned snapshots) every column
//!   key changes: the whole window re-solves. This is precise, not
//!   conservative: a changed common set changes every restricted graph's
//!   content, so nothing cached is reusable.
//!
//! Cache traffic is visible twice over: in [`StageStats`] (returned per
//! run) and, when observability is on, in the
//! `pipeline.stage.{restrict,column}.{hit,miss}` counters and
//! `pipeline.stage.*` spans.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use qrank_graph::{pages_fingerprint, CsrGraph, PageSet, Snapshot, SnapshotSeries};

use crate::estimator::QualityEstimator;
use crate::pipeline::{report_from_window, PipelineReport};
use crate::{CoreError, PopularityMetric, PopularityTrajectories};

/// Cache traffic of the most recent [`PipelineEngine::run`], per stage.
///
/// Plain integers, written single-threaded by the engine; the obs
/// counters mirror them when observability is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Aligned snapshots reused from the restrict cache.
    pub restrict_hits: u64,
    /// Aligned snapshots rebuilt by restricting to the common set.
    pub restrict_misses: u64,
    /// Popularity columns reused from the column cache.
    pub column_hits: u64,
    /// Popularity columns solved (one metric computation each).
    pub column_misses: u64,
}

impl StageStats {
    /// Columns actually solved this run (cache misses).
    pub fn columns_solved(&self) -> u64 {
        self.column_misses
    }

    /// Columns served from cache this run.
    pub fn columns_reused(&self) -> u64 {
        self.column_hits
    }
}

fn too_few_snapshots(got: usize) -> CoreError {
    CoreError::BadSeries(format!(
        "need >= 3 snapshots (estimation window + held-out future), got {got}"
    ))
}

fn no_common_pages() -> CoreError {
    CoreError::BadSeries("no pages common to all snapshots".into())
}

/// Whether [`PipelineEngine::run`] accepts `series`, with the error it
/// would return if not.
///
/// A run fails on the window's *shape* alone — fewer than three
/// snapshots, or no page common to all of them — never on a solved
/// value, so a caller replaying a log of windows can tell which of them
/// produced a report without solving any.
pub fn check_window(series: &SnapshotSeries) -> Result<(), CoreError> {
    if series.len() < 3 {
        return Err(too_few_snapshots(series.len()));
    }
    if series.common_pages().is_empty() {
        return Err(no_common_pages());
    }
    Ok(())
}

/// The estimation pipeline with a memory.
///
/// Construct once with the popularity metric, then call
/// [`run`](PipelineEngine::run) on each refresh with the *whole* current
/// window. The engine recomputes only the artifacts the window change
/// invalidated; everything else — and in steady state that is almost
/// everything — is served from the fingerprint-keyed caches. The caches
/// are pruned after every run to the artifacts that run used, so memory
/// is bounded by one window regardless of how long the engine lives.
///
/// The column cache is only valid for the metric the engine was built
/// with, which is why the metric is fixed at construction.
#[derive(Debug)]
pub struct PipelineEngine {
    metric: PopularityMetric,
    /// The last window's common page set under its fingerprint. The
    /// `Arc` is replaced only when the fingerprint changes, so aligned
    /// snapshots of successive windows over one common set share one
    /// page universe by pointer.
    common: Option<(u64, Arc<PageSet>)>,
    /// `(raw snapshot fingerprint, common-set fingerprint)` → the
    /// snapshot restricted to that common set.
    restrict_cache: HashMap<(u64, u64), Arc<Snapshot>>,
    /// Aligned-snapshot fingerprint → that snapshot's popularity column
    /// (`scores[node]` under [`Self::metric`]).
    column_cache: HashMap<u64, Arc<Vec<f64>>>,
    stats: StageStats,
}

impl PipelineEngine {
    /// An engine with empty caches, computing popularity under `metric`.
    pub fn new(metric: PopularityMetric) -> Self {
        PipelineEngine {
            metric,
            common: None,
            restrict_cache: HashMap::new(),
            column_cache: HashMap::new(),
            stats: StageStats::default(),
        }
    }

    /// Cache traffic of the most recent [`run`](PipelineEngine::run).
    pub fn stats(&self) -> StageStats {
        self.stats
    }

    /// Run the pipeline on `series`, reusing every cached artifact the
    /// window change left valid. Equivalent — bitwise — to
    /// [`crate::run_pipeline_with`] on the same series.
    pub fn run(
        &mut self,
        series: &SnapshotSeries,
        estimator: &dyn QualityEstimator,
        min_relative_change: f64,
    ) -> Result<PipelineReport, CoreError> {
        let _span = qrank_obs::span!("pipeline.run");
        self.stats = StageStats::default();
        if series.len() < 3 {
            return Err(too_few_snapshots(series.len()));
        }
        let Some((aligned, columns)) = self.stages(series)? else {
            return Err(no_common_pages());
        };

        // The estimation window's rows and the held-out column, built
        // straight from the columns: the rows move into the report.
        let (past, future) = {
            let _s = qrank_obs::span!("pipeline.stage.transpose");
            let (held_out, window) = columns.split_last().expect("three columns or more");
            let pages = aligned[0].pages().to_vec();
            let times = aligned[..window.len()].iter().map(|s| s.time).collect();
            let values = (0..pages.len())
                .map(|p| window.iter().map(|col| col[p]).collect())
                .collect();
            let past = PopularityTrajectories {
                times,
                values,
                pages,
            };
            (past, held_out.to_vec())
        };
        report_from_window(past, future, estimator, min_relative_change)
    }

    /// Prime the caches for `series` without producing a report: run the
    /// align, restrict, and solve stages only. For a serving window that
    /// is still filling (fewer than the three snapshots a report needs),
    /// warming spreads the solve cost over the ingests instead of paying
    /// it all on the first publishable refresh. An empty series or empty
    /// common set is a no-op, not an error.
    pub fn warm(&mut self, series: &SnapshotSeries) -> Result<StageStats, CoreError> {
        let _span = qrank_obs::span!("pipeline.warm");
        self.stats = StageStats::default();
        if !series.is_empty() {
            self.stages(series)?;
        }
        Ok(self.stats)
    }

    /// The align → restrict → solve stages, shared by
    /// [`run`](PipelineEngine::run) and [`warm`](PipelineEngine::warm).
    /// `None` when the series has no common pages (nothing to restrict
    /// to). Prunes both caches to the artifacts this window uses.
    #[allow(clippy::type_complexity)]
    fn stages(
        &mut self,
        series: &SnapshotSeries,
    ) -> Result<Option<(Vec<Arc<Snapshot>>, Vec<Arc<Vec<f64>>>)>, CoreError> {
        let aligned = {
            let _s = qrank_obs::span!("pipeline.stage.align");
            let ids = series.common_pages();
            if ids.is_empty() {
                return Ok(None);
            }
            let common_fp = pages_fingerprint(&ids);
            let common = match &self.common {
                Some((fp, set)) if *fp == common_fp => Arc::clone(set),
                _ => {
                    let set = PageSet::from_sorted(ids);
                    self.common = Some((common_fp, Arc::clone(&set)));
                    set
                }
            };

            // Partition the window into cache hits and misses, then
            // restrict all misses in one parallel batch (each
            // restriction is independent; `restrict_snapshots` commits
            // results in input order, so the outcome is identical at
            // every thread budget) and splice them back in window order.
            let mut aligned: Vec<Option<Arc<Snapshot>>> = vec![None; series.len()];
            let mut missed: Vec<&Snapshot> = Vec::new();
            let mut missed_at: Vec<usize> = Vec::new();
            for (i, snap) in series.snapshots().iter().enumerate() {
                let key = (snap.fingerprint(), common_fp);
                if let Some(hit) = self.restrict_cache.get(&key) {
                    self.stats.restrict_hits += 1;
                    qrank_obs::count("pipeline.stage.restrict.hit", 1);
                    aligned[i] = Some(Arc::clone(hit));
                } else {
                    self.stats.restrict_misses += 1;
                    qrank_obs::count("pipeline.stage.restrict.miss", 1);
                    missed.push(snap);
                    missed_at.push(i);
                }
            }
            let built =
                qrank_graph::restrict_snapshots(&missed, &common, qrank_rank::thread_budget())?;
            for (i, restricted) in missed_at.into_iter().zip(built) {
                let snap = &series.snapshots()[i];
                let built = Arc::new(restricted);
                self.restrict_cache
                    .insert((snap.fingerprint(), common_fp), Arc::clone(&built));
                aligned[i] = Some(built);
            }
            let aligned: Vec<Arc<Snapshot>> = aligned
                .into_iter()
                .map(|s| s.expect("every window slot is a hit or a committed miss"))
                .collect();
            let used: HashSet<(u64, u64)> = series
                .snapshots()
                .iter()
                .map(|s| (s.fingerprint(), common_fp))
                .collect();
            self.restrict_cache.retain(|k, _| used.contains(k));
            aligned
        };

        let columns: Vec<Arc<Vec<f64>>> = {
            let _s = qrank_obs::span!("pipeline.stage.columns");
            // Same shape as the restrict stage: the window's cache
            // misses are solved as one batch — the columns are
            // independent, so the thread budget goes to whole columns
            // first — and committed in window order. Each column equals
            // a lone `metric.compute` of its graph bit for bit.
            let mut missed: Vec<&Arc<Snapshot>> = Vec::new();
            for snap in &aligned {
                if self.column_cache.contains_key(&snap.fingerprint()) {
                    self.stats.column_hits += 1;
                    qrank_obs::count("pipeline.stage.column.hit", 1);
                } else {
                    self.stats.column_misses += 1;
                    qrank_obs::count("pipeline.stage.column.miss", 1);
                    missed.push(snap);
                }
            }
            let graphs: Vec<&CsrGraph> = missed.iter().map(|snap| &snap.graph).collect();
            for (snap, column) in missed.iter().zip(self.metric.compute_many(&graphs)) {
                self.column_cache
                    .insert(snap.fingerprint(), Arc::new(column));
            }
            let used: HashSet<u64> = aligned.iter().map(|s| s.fingerprint()).collect();
            self.column_cache.retain(|k, _| used.contains(k));
            aligned
                .iter()
                .map(|snap| Arc::clone(&self.column_cache[&snap.fingerprint()]))
                .collect()
        };

        Ok(Some((aligned, columns)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::PaperEstimator;
    use crate::pipeline::run_pipeline_with;
    use qrank_graph::{CsrGraph, PageId};

    /// The thread budget is process-global; the two tests that pin it
    /// take turns so each runs at the budgets it names.
    static BUDGET: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn snap(time: f64, n: u32, edges: &[(u32, u32)], pages: &[u64]) -> Snapshot {
        Snapshot::new(
            time,
            CsrGraph::from_edges(n as usize, edges),
            pages.iter().map(|&p| PageId(p)).collect(),
        )
        .unwrap()
    }

    fn window(lo: usize, hi: usize) -> SnapshotSeries {
        // An evolving 5-page corpus; snapshot t adds edge (t mod 4, 4).
        let mut s = SnapshotSeries::new();
        for t in lo..hi {
            let mut edges = vec![(0, 1), (1, 2), (2, 3), (3, 0), (4, 0)];
            edges.push((t as u32 % 4, 4));
            s.push(snap(t as f64, 5, &edges, &[10, 11, 12, 13, 14]))
                .unwrap();
        }
        s
    }

    fn assert_reports_equal(a: &PipelineReport, b: &PipelineReport) {
        assert_eq!(a.pages, b.pages);
        assert_eq!(a.estimates, b.estimates);
        assert_eq!(a.current, b.current);
        assert_eq!(a.future, b.future);
        assert_eq!(a.err_estimate, b.err_estimate);
        assert_eq!(a.trajectories.values, b.trajectories.values);
    }

    #[test]
    fn cold_engine_matches_run_pipeline() {
        let series = window(0, 4);
        let metric = PopularityMetric::paper_pagerank();
        let est = PaperEstimator::default();
        let cold = run_pipeline_with(&series, &metric, &est, 0.05).unwrap();
        let mut engine = PipelineEngine::new(metric);
        let warm = engine.run(&series, &est, 0.05).unwrap();
        assert_reports_equal(&cold, &warm);
        assert_eq!(engine.stats().columns_solved(), 4);
        assert_eq!(engine.stats().columns_reused(), 0);
    }

    #[test]
    fn append_solves_one_column() {
        let metric = PopularityMetric::paper_pagerank();
        let est = PaperEstimator::default();
        let mut engine = PipelineEngine::new(metric.clone());
        engine.run(&window(0, 3), &est, 0.05).unwrap();
        let grown = window(0, 4);
        let report = engine.run(&grown, &est, 0.05).unwrap();
        assert_eq!(engine.stats().columns_solved(), 1);
        assert_eq!(engine.stats().columns_reused(), 3);
        let cold = run_pipeline_with(&grown, &metric, &est, 0.05).unwrap();
        assert_reports_equal(&cold, &report);
    }

    #[test]
    fn window_slide_solves_one_column() {
        let metric = PopularityMetric::paper_pagerank();
        let est = PaperEstimator::default();
        let mut engine = PipelineEngine::new(metric.clone());
        engine.run(&window(0, 4), &est, 0.05).unwrap();
        let slid = window(1, 5);
        let report = engine.run(&slid, &est, 0.05).unwrap();
        assert_eq!(engine.stats().columns_solved(), 1);
        assert_eq!(engine.stats().columns_reused(), 3);
        assert_eq!(engine.stats().restrict_hits, 3);
        let cold = run_pipeline_with(&slid, &metric, &est, 0.05).unwrap();
        assert_reports_equal(&cold, &report);
    }

    #[test]
    fn common_set_change_invalidates_all_columns() {
        let metric = PopularityMetric::paper_pagerank();
        let est = PaperEstimator::default();
        let mut engine = PipelineEngine::new(metric.clone());
        // Window of snapshots all sharing pages 10..14.
        let mut series = window(0, 3);
        engine.run(&series, &est, 0.05).unwrap();
        // Appended snapshot is missing page 14: common set shrinks, so
        // every restricted graph changes and every column must re-solve.
        series
            .push(snap(
                3.0,
                4,
                &[(0, 1), (1, 2), (2, 3), (3, 0)],
                &[10, 11, 12, 13],
            ))
            .unwrap();
        let report = engine.run(&series, &est, 0.05).unwrap();
        assert_eq!(engine.stats().columns_reused(), 0);
        assert_eq!(engine.stats().columns_solved(), 4);
        let cold = run_pipeline_with(&series, &metric, &est, 0.05).unwrap();
        assert_reports_equal(&cold, &report);
    }

    #[test]
    fn identical_rerun_is_all_hits() {
        let metric = PopularityMetric::InDegree;
        let est = PaperEstimator::default();
        let mut engine = PipelineEngine::new(metric);
        let series = window(0, 4);
        engine.run(&series, &est, 0.05).unwrap();
        engine.run(&series, &est, 0.05).unwrap();
        assert_eq!(engine.stats().columns_solved(), 0);
        assert_eq!(engine.stats().columns_reused(), 4);
        assert_eq!(engine.stats().restrict_misses, 0);
    }

    #[test]
    fn caches_stay_bounded_by_window() {
        let metric = PopularityMetric::InDegree;
        let est = PaperEstimator::default();
        let mut engine = PipelineEngine::new(metric);
        for lo in 0..6 {
            engine.run(&window(lo, lo + 4), &est, 0.05).unwrap();
            assert!(engine.column_cache.len() <= 4);
            assert!(engine.restrict_cache.len() <= 4);
        }
    }

    #[test]
    fn warming_a_filling_window_prefunds_the_first_run() {
        let est = PaperEstimator::default();
        let mut engine = PipelineEngine::new(PopularityMetric::paper_pagerank());
        assert_eq!(
            engine.warm(&SnapshotSeries::new()).unwrap(),
            StageStats::default()
        );
        let warmed = engine.warm(&window(0, 2)).unwrap();
        assert_eq!(warmed.columns_solved(), 2);
        engine.run(&window(0, 4), &est, 0.05).unwrap();
        assert_eq!(engine.stats().columns_solved(), 2);
        assert_eq!(engine.stats().columns_reused(), 2);
    }

    #[test]
    fn parallel_align_is_thread_count_independent() {
        // The align stage follows the same process-global budget as the
        // column solves; five snapshots give it more misses than threads.
        let _pinned = BUDGET.lock().unwrap();
        let est = PaperEstimator::default();
        let series = window(0, 5);
        let baseline = {
            qrank_rank::set_thread_budget(1);
            let mut engine = PipelineEngine::new(PopularityMetric::paper_pagerank());
            engine.run(&series, &est, 0.05).unwrap()
        };
        for threads in [2usize, 8] {
            qrank_rank::set_thread_budget(threads);
            let mut engine = PipelineEngine::new(PopularityMetric::paper_pagerank());
            let report = engine.run(&series, &est, 0.05).unwrap();
            assert_reports_equal(&baseline, &report);
        }
        qrank_rank::set_thread_budget(0);
    }

    #[test]
    fn cold_four_column_run_gives_one_report_at_budgets_1_2_8() {
        let _pinned = BUDGET.lock().unwrap();
        let est = PaperEstimator::default();
        let series = window(0, 4);
        let mut reports = Vec::new();
        for threads in [1usize, 2, 8] {
            qrank_rank::set_thread_budget(threads);
            let mut engine = PipelineEngine::new(PopularityMetric::paper_pagerank());
            reports.push(engine.run(&series, &est, 0.05).unwrap());
            assert_eq!(engine.stats().columns_solved(), 4);
            assert_eq!(engine.stats().columns_reused(), 0);
        }
        qrank_rank::set_thread_budget(0);
        assert_reports_equal(&reports[0], &reports[1]);
        assert_reports_equal(&reports[0], &reports[2]);
    }

    #[test]
    fn aligned_window_shares_one_page_universe() {
        let est = PaperEstimator::default();
        let mut engine = PipelineEngine::new(PopularityMetric::InDegree);
        engine.run(&window(0, 4), &est, 0.05).unwrap();
        // Every cached aligned snapshot holds the engine's common page
        // universe by pointer, not a private copy.
        let (fp, common) = engine.common.clone().expect("a run records its common set");
        assert_eq!(fp, pages_fingerprint(common.ids()));
        assert_eq!(engine.restrict_cache.len(), 4);
        for snap in engine.restrict_cache.values() {
            assert!(Arc::ptr_eq(snap.page_set(), &common));
        }
        // A slide over the same pages keeps that universe: the one new
        // aligned snapshot joins it instead of bringing its own.
        engine.run(&window(1, 5), &est, 0.05).unwrap();
        assert_eq!(engine.stats().restrict_misses, 1);
        for snap in engine.restrict_cache.values() {
            assert!(Arc::ptr_eq(snap.page_set(), &common));
        }
        // A changed common set replaces it for the whole window.
        let mut shrunk = window(2, 5);
        shrunk
            .push(snap(5.0, 4, &[(0, 1), (1, 2)], &[10, 11, 12, 13]))
            .unwrap();
        engine.run(&shrunk, &est, 0.05).unwrap();
        let (_, smaller) = engine.common.clone().unwrap();
        assert_eq!(smaller.len(), 4);
        for snap in engine.restrict_cache.values() {
            assert!(Arc::ptr_eq(snap.page_set(), &smaller));
        }
    }

    #[test]
    fn engine_rejects_short_and_disjoint_series() {
        let mut engine = PipelineEngine::new(PopularityMetric::InDegree);
        let est = PaperEstimator::default();
        let mut disjoint = SnapshotSeries::new();
        for t in 0..3u64 {
            disjoint.push(snap(t as f64, 1, &[], &[100 + t])).unwrap();
        }
        // `check_window` predicts the verdict, word for word, without
        // solving anything.
        for bad in [window(0, 2), disjoint] {
            let refused = engine.run(&bad, &est, 0.05).unwrap_err();
            assert!(matches!(refused, CoreError::BadSeries(_)));
            assert_eq!(
                check_window(&bad).unwrap_err().to_string(),
                refused.to_string()
            );
        }
        assert!(check_window(&window(0, 3)).is_ok());
        assert!(engine.run(&window(0, 3), &est, 0.05).is_ok());
    }
}
