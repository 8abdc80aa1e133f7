//! End-to-end quality-estimation pipeline — Section 8 of the paper in
//! one call.
//!
//! Input: a raw [`SnapshotSeries`] (at least three snapshots; the paper
//! uses four). The pipeline
//!
//! 1. intersects the snapshots to their common pages ("2.7 million pages
//!    were common in all four snapshots"),
//! 2. computes the popularity metric per snapshot,
//! 3. holds out the **last** snapshot as the "future" reference,
//! 4. estimates quality from the earlier snapshots,
//! 5. reports the paper's relative-error comparison between the quality
//!    estimate and the current-popularity baseline, restricted to pages
//!    whose popularity changed by more than the configured threshold
//!    ("we report our results only for the pages whose PageRank values
//!    changed more than 5%").

use qrank_graph::{PageId, SnapshotSeries};

use crate::classify::{classify_all, Trend};
use crate::engine::PipelineEngine;
use crate::estimator::{PaperEstimator, QualityEstimator};
use crate::evaluation::{relative_error, EvalSummary};
use crate::{CoreError, PopularityMetric, PopularityTrajectories};

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Popularity metric (default: the paper's PageRank setup).
    pub metric: PopularityMetric,
    /// Equation 1 constant `C` (paper: 0.1).
    pub c: f64,
    /// Per-step flatness tolerance for trend classification.
    pub flat_tolerance: f64,
    /// Report filter: include only pages whose popularity changed by more
    /// than this relative amount over the estimation window (paper: 0.05).
    pub min_relative_change: f64,
}

impl Default for PipelineConfig {
    /// The paper's setup: PageRank, [`PaperEstimator::default`]'s `C` and
    /// tolerance, and the 5 % report filter.
    fn default() -> Self {
        let PaperEstimator { c, flat_tolerance } = PaperEstimator::default();
        PipelineConfig {
            metric: PopularityMetric::paper_pagerank(),
            c,
            flat_tolerance,
            min_relative_change: 0.05,
        }
    }
}

impl PipelineConfig {
    /// The Equation 1 estimator this configuration ranks with.
    pub fn estimator(&self) -> PaperEstimator {
        PaperEstimator {
            c: self.c,
            flat_tolerance: self.flat_tolerance,
        }
    }
}

/// Per-page and aggregate results.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// External page ids, aligned with all per-page vectors below.
    pub pages: Vec<PageId>,
    /// Trend over the estimation window.
    pub trends: Vec<Trend>,
    /// Quality estimate per page.
    pub estimates: Vec<f64>,
    /// Current popularity (last estimation snapshot — `PR(p,t3)`).
    pub current: Vec<f64>,
    /// Future popularity (held-out snapshot — `PR(p,t4)`).
    pub future: Vec<f64>,
    /// Whether the page passes the minimum-change report filter.
    pub selected: Vec<bool>,
    /// Relative error of the quality estimate vs future, per page.
    pub err_estimate: Vec<f64>,
    /// Relative error of current popularity vs future, per page.
    pub err_current: Vec<f64>,
    /// Aggregate over *selected* pages: the quality estimator.
    pub summary_estimate: EvalSummary,
    /// Aggregate over *selected* pages: the current-popularity baseline.
    pub summary_current: EvalSummary,
    /// The estimation-window trajectories (for downstream analysis).
    pub trajectories: PopularityTrajectories,
}

impl PipelineReport {
    /// Number of selected (reported) pages.
    pub fn num_selected(&self) -> usize {
        self.selected.iter().filter(|&&s| s).count()
    }

    /// The paper's headline ratio: mean error of the baseline divided by
    /// mean error of the estimator (≈ 2.4 in the paper: 0.78 / 0.32).
    ///
    /// Both errors zero (e.g. a perfectly static corpus where estimator
    /// and baseline are exact) means "no improvement either way" — 1.0,
    /// not the INFINITY a perfect estimator earns against an imperfect
    /// baseline.
    pub fn improvement_factor(&self) -> f64 {
        if self.summary_estimate.mean_error == 0.0 {
            return if self.summary_current.mean_error == 0.0 {
                1.0
            } else {
                f64::INFINITY
            };
        }
        self.summary_current.mean_error / self.summary_estimate.mean_error
    }
}

/// Run the full pipeline with the paper's estimator.
pub fn run_pipeline(
    series: &SnapshotSeries,
    config: &PipelineConfig,
) -> Result<PipelineReport, CoreError> {
    run_pipeline_with(
        series,
        &config.metric,
        &config.estimator(),
        config.min_relative_change,
    )
}

/// Run the pipeline with an arbitrary estimator.
///
/// This is one cold pass of the stage engine: a throwaway
/// [`PipelineEngine`] with empty caches, so every stage recomputes. A
/// long-lived engine produces bitwise-identical reports while reusing
/// the artifacts a window change left valid — see [`crate::engine`].
pub fn run_pipeline_with(
    series: &SnapshotSeries,
    metric: &PopularityMetric,
    estimator: &dyn QualityEstimator,
    min_relative_change: f64,
) -> Result<PipelineReport, CoreError> {
    PipelineEngine::new(metric.clone()).run(series, estimator, min_relative_change)
}

/// Build a [`PipelineReport`] from already-computed popularity
/// trajectories (the last snapshot is held out as the future reference).
///
/// This is the deterministic tail of [`run_pipeline_with`]: callers that
/// maintain trajectories incrementally — e.g. a serving layer re-ranking
/// only changed snapshots — get bitwise-identical reports to a
/// from-scratch pipeline run as long as the trajectory values match.
pub fn report_from_trajectories(
    traj: &PopularityTrajectories,
    estimator: &dyn QualityEstimator,
    min_relative_change: f64,
) -> Result<PipelineReport, CoreError> {
    if traj.num_snapshots() < 2 {
        return Err(CoreError::BadSeries(format!(
            "need >= 2 trajectory snapshots (estimation window + held-out future), got {}",
            traj.num_snapshots()
        )));
    }
    let past = traj.truncated(traj.num_snapshots() - 1)?;
    let future = row_tail(&traj.values)?;
    report_from_window(past, future, estimator, min_relative_change)
}

/// The last value of every row. Rows are non-empty once `truncated` has
/// validated them, but malformed hand-built trajectories must come back
/// as an error, not a panic in the refresh worker.
fn row_tail(values: &[Vec<f64>]) -> Result<Vec<f64>, CoreError> {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            v.last()
                .copied()
                .ok_or_else(|| CoreError::BadSeries(format!("empty trajectory row {i}")))
        })
        .collect()
}

/// The tail [`report_from_trajectories`] and the stage engine share:
/// the report of an estimation window `past` against the held-out
/// `future` column. The window's rows move into the report as they are;
/// the engine assembles them directly, so a row is allocated once.
pub(crate) fn report_from_window(
    past: PopularityTrajectories,
    future: Vec<f64>,
    estimator: &dyn QualityEstimator,
    min_relative_change: f64,
) -> Result<PipelineReport, CoreError> {
    let _span = qrank_obs::span!("pipeline.estimate");
    if past.num_snapshots() < estimator.min_snapshots() {
        return Err(CoreError::Estimator(format!(
            "{} needs {} snapshots in the estimation window, have {}",
            estimator.name(),
            estimator.min_snapshots(),
            past.num_snapshots()
        )));
    }
    let current = row_tail(&past.values)?;
    let estimates = estimator.estimate(&past)?;
    let trends = classify_all(&past.values, estimator.flat_tolerance());
    let change = past.relative_change();
    let selected: Vec<bool> = change.iter().map(|&c| c > min_relative_change).collect();

    let err_estimate: Vec<f64> = future
        .iter()
        .zip(&estimates)
        .map(|(&f, &e)| relative_error(f, e))
        .collect();
    let err_current: Vec<f64> = future
        .iter()
        .zip(&current)
        .map(|(&f, &c)| relative_error(f, c))
        .collect();

    let sel_errors = |errs: &[f64]| -> Vec<f64> {
        errs.iter()
            .zip(&selected)
            .filter(|&(_, &s)| s)
            .map(|(&e, _)| e)
            .collect()
    };
    let summary_estimate = EvalSummary::from_errors(&sel_errors(&err_estimate));
    let summary_current = EvalSummary::from_errors(&sel_errors(&err_current));

    Ok(PipelineReport {
        pages: past.pages.clone(),
        trends,
        estimates,
        current,
        future,
        selected,
        err_estimate,
        err_current,
        summary_estimate,
        summary_current,
        trajectories: past,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_graph::{CsrGraph, Snapshot};

    /// Build a 4-snapshot series where page 1 steadily gains links
    /// (young riser) and page 2 is static.
    fn rising_series() -> SnapshotSeries {
        let pages: Vec<PageId> = (0..6).map(PageId).collect();
        let mut s = SnapshotSeries::new();
        // base edges: 3,4,5 are "fans"; page 2 (node 2) always has 3 fans
        let base = vec![(3u32, 2u32), (4, 2), (5, 2), (2, 0), (0, 2)];
        let riser_links: [&[(u32, u32)]; 4] = [
            &[(3, 1)],
            &[(3, 1), (4, 1)],
            &[(3, 1), (4, 1), (5, 1)],
            &[(3, 1), (4, 1), (5, 1), (0, 1)],
        ];
        for (i, extra) in riser_links.iter().enumerate() {
            let mut edges = base.clone();
            edges.extend_from_slice(extra);
            // everyone links back so nothing is fully dangling
            edges.push((1, 0));
            s.push(
                Snapshot::new(i as f64, CsrGraph::from_edges(6, &edges), pages.clone()).unwrap(),
            )
            .unwrap();
        }
        s
    }

    #[test]
    fn pipeline_runs_and_reports() {
        let series = rising_series();
        let report = run_pipeline(&series, &PipelineConfig::default()).unwrap();
        assert_eq!(report.pages.len(), 6);
        assert_eq!(report.estimates.len(), 6);
        assert!(report.num_selected() >= 1);
        // the riser (node 1) must be classified Increasing and selected
        assert_eq!(report.trends[1], Trend::Increasing);
        assert!(report.selected[1]);
    }

    #[test]
    fn estimator_beats_baseline_on_rising_page() {
        let series = rising_series();
        let report = run_pipeline(&series, &PipelineConfig::default()).unwrap();
        // for the rising page, the estimate should be closer to the
        // future PageRank than the current PageRank is
        assert!(
            report.err_estimate[1] < report.err_current[1],
            "estimate err {} vs current err {}",
            report.err_estimate[1],
            report.err_current[1]
        );
        assert!(report.improvement_factor() > 1.0);
    }

    #[test]
    fn rejects_too_few_snapshots() {
        let pages = vec![PageId(0)];
        let mut s = SnapshotSeries::new();
        for i in 0..2 {
            s.push(Snapshot::new(i as f64, CsrGraph::from_edges(1, &[]), pages.clone()).unwrap())
                .unwrap();
        }
        assert!(matches!(
            run_pipeline(&s, &PipelineConfig::default()),
            Err(CoreError::BadSeries(_))
        ));
    }

    #[test]
    fn rejects_disjoint_snapshots() {
        let mut s = SnapshotSeries::new();
        for i in 0..3u64 {
            s.push(
                Snapshot::new(
                    i as f64,
                    CsrGraph::from_edges(1, &[]),
                    vec![PageId(i)], // different page each time
                )
                .unwrap(),
            )
            .unwrap();
        }
        assert!(matches!(
            run_pipeline(&s, &PipelineConfig::default()),
            Err(CoreError::BadSeries(_))
        ));
    }

    #[test]
    fn indegree_metric_pipeline() {
        let series = rising_series();
        let cfg = PipelineConfig {
            metric: PopularityMetric::InDegree,
            ..Default::default()
        };
        let report = run_pipeline(&series, &cfg).unwrap();
        // in-degree of the riser: 1, 2, 3 over the window; future 4
        assert_eq!(report.current[1], 3.0);
        assert_eq!(report.future[1], 4.0);
        assert_eq!(report.trends[1], Trend::Increasing);
        // estimate = 0.1*(3-1)/1 + 3 = 3.2, closer to 4 than 3 is
        assert!((report.estimates[1] - 3.2).abs() < 1e-12);
    }

    #[test]
    fn custom_estimator_hook() {
        use crate::estimator::CurrentPopularity;
        let series = rising_series();
        let report = run_pipeline_with(
            &series,
            &PopularityMetric::InDegree,
            &CurrentPopularity,
            0.05,
        )
        .unwrap();
        // with the baseline as "estimator", both errors coincide
        for (a, b) in report.err_estimate.iter().zip(&report.err_current) {
            assert_eq!(a, b);
        }
        assert!((report.improvement_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn improvement_factor_is_one_when_both_errors_vanish() {
        // A perfectly static corpus: every page's popularity is constant,
        // so both the estimator and the current-popularity baseline hit
        // the future exactly — 0/0 must read "no improvement" (1.0).
        let pages: Vec<PageId> = (0..3).map(PageId).collect();
        let edges = vec![(0u32, 1u32), (1, 2), (2, 0)];
        let mut s = SnapshotSeries::new();
        for i in 0..4 {
            s.push(
                Snapshot::new(i as f64, CsrGraph::from_edges(3, &edges), pages.clone()).unwrap(),
            )
            .unwrap();
        }
        let cfg = PipelineConfig {
            metric: PopularityMetric::InDegree,
            min_relative_change: 0.0, // constant pages have change 0; select none...
            ..Default::default()
        };
        let report = run_pipeline(&s, &cfg).unwrap();
        // no page is selected (change 0 is not > 0), so both summaries
        // are empty with mean_error 0 — the 0/0 case
        assert_eq!(report.num_selected(), 0);
        assert_eq!(report.summary_estimate.mean_error, 0.0);
        assert_eq!(report.summary_current.mean_error, 0.0);
        assert_eq!(report.improvement_factor(), 1.0);
    }

    #[test]
    fn report_from_trajectories_matches_pipeline() {
        use crate::trajectory::compute_trajectories;
        let series = rising_series();
        let cfg = PipelineConfig::default();
        let full = run_pipeline(&series, &cfg).unwrap();
        let aligned = series.aligned_to_common().unwrap();
        let traj = compute_trajectories(&aligned, &cfg.metric).unwrap();
        let tail =
            report_from_trajectories(&traj, &cfg.estimator(), cfg.min_relative_change).unwrap();
        assert_eq!(full.estimates, tail.estimates);
        assert_eq!(full.err_estimate, tail.err_estimate);
        assert_eq!(full.selected, tail.selected);
    }

    #[test]
    fn report_trend_is_the_estimators_branch_at_a_nonzero_tolerance() {
        use crate::estimator::PaperEstimator;
        // Rows moving 2 % a step sit inside a 5 % flat band: Equation 1
        // leaves them at their current popularity, and the report must
        // call them flat too, not increasing or decreasing.
        let values = vec![
            vec![1.0, 1.02, 1.04, 1.06],
            vec![1.0, 0.98, 0.96, 0.94],
            vec![1.0, 1.5, 2.0, 2.5],
            vec![2.0, 1.0, 0.5, 0.4],
            vec![1.0, 1.5, 1.0, 1.5],
            vec![1.0, 1.02, 1.5, 1.6],
        ];
        let traj = PopularityTrajectories {
            times: vec![0.0, 1.0, 2.0, 3.0],
            pages: (0..values.len() as u64).map(PageId).collect(),
            values,
        };
        let est = PaperEstimator {
            c: 0.1,
            flat_tolerance: 0.05,
        };
        let report = report_from_trajectories(&traj, &est, 0.0).unwrap();
        assert_eq!(
            report.trends,
            vec![
                Trend::Flat,
                Trend::Flat,
                Trend::Increasing,
                Trend::Decreasing,
                Trend::Oscillating,
                Trend::Increasing,
            ]
        );
        for (i, row) in report.trajectories.values.iter().enumerate() {
            let (first, last) = (row[0], row[2]);
            let moved = matches!(report.trends[i], Trend::Increasing | Trend::Decreasing);
            let want = if moved {
                0.1 * (last - first) / first + last
            } else {
                last
            };
            assert_eq!(report.estimates[i], want, "page {i}");
        }
        // at the default tolerance the 2 % rows count as moving, in the
        // label and in the estimate alike
        let strict = report_from_trajectories(&traj, &PaperEstimator::default(), 0.0).unwrap();
        assert_eq!(strict.trends[0], Trend::Increasing);
        assert_eq!(strict.trends[1], Trend::Decreasing);
        assert!(strict.estimates[0] > strict.current[0]);
    }

    #[test]
    fn selection_filter_excludes_static_pages() {
        let series = rising_series();
        let cfg = PipelineConfig {
            metric: PopularityMetric::InDegree,
            ..Default::default()
        };
        let report = run_pipeline(&series, &cfg).unwrap();
        // node 2's in-degree is constant 3 -> not selected
        assert!(!report.selected[2]);
        // stricter threshold shrinks the selection
        let strict = PipelineConfig {
            metric: PopularityMetric::InDegree,
            min_relative_change: 10.0,
            ..Default::default()
        };
        let r2 = run_pipeline(&series, &strict).unwrap();
        assert!(r2.num_selected() <= report.num_selected());
    }
}
