//! Per-page popularity trajectories across an aligned snapshot series.

use qrank_graph::{CsrGraph, PageId, SnapshotSeries};

use crate::{CoreError, PopularityMetric};

/// Popularity of every page at every snapshot time.
///
/// Row-major by page: `values[page][k]` is the metric score of `page` at
/// snapshot `k`. Pages are in aligned-series node order, so index `p`
/// here corresponds to node `p` in every snapshot and to `pages[p]`
/// externally.
#[derive(Debug, Clone, PartialEq)]
pub struct PopularityTrajectories {
    /// Snapshot capture times.
    pub times: Vec<f64>,
    /// `values[page][snapshot]`.
    pub values: Vec<Vec<f64>>,
    /// External identity of each page row.
    pub pages: Vec<PageId>,
}

impl PopularityTrajectories {
    /// Number of snapshots.
    pub fn num_snapshots(&self) -> usize {
        self.times.len()
    }

    /// Restrict to the first `k` snapshots (e.g. hold out the last one as
    /// the "future" in the paper's evaluation).
    ///
    /// Errors on an out-of-range `k` or a ragged trajectory (a row with
    /// fewer than `k` values) — these reach the serving refresh path, so
    /// malformed input must degrade to an error reply, not a panic.
    pub fn truncated(&self, k: usize) -> Result<PopularityTrajectories, CoreError> {
        if k < 1 || k > self.num_snapshots() {
            return Err(CoreError::BadSeries(format!(
                "bad truncation length {k} for {} snapshots",
                self.num_snapshots()
            )));
        }
        if let Some(short) = self.values.iter().position(|v| v.len() < k) {
            return Err(CoreError::BadSeries(format!(
                "trajectory row {short} has {} values, need {k}",
                self.values[short].len()
            )));
        }
        Ok(PopularityTrajectories {
            times: self.times[..k].to_vec(),
            values: self.values.iter().map(|v| v[..k].to_vec()).collect(),
            pages: self.pages.clone(),
        })
    }

    /// Relative change `|v_last − v_first| / v_first` per page; infinite
    /// when the page started at zero and grew. Used for the paper's
    /// "changed more than 5%" report filter. Empty rows read as "no
    /// change".
    pub fn relative_change(&self) -> Vec<f64> {
        self.values
            .iter()
            .map(|v| {
                let (Some(&first), Some(&last)) = (v.first(), v.last()) else {
                    return 0.0;
                };
                if first == 0.0 {
                    if last == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (last - first).abs() / first
                }
            })
            .collect()
    }
}

/// Compute trajectories for an *aligned* snapshot series under `metric`.
///
/// Errors when the series is empty or not aligned (call
/// [`SnapshotSeries::aligned_to_common`] first).
pub fn compute_trajectories(
    series: &SnapshotSeries,
    metric: &PopularityMetric,
) -> Result<PopularityTrajectories, CoreError> {
    if series.is_empty() {
        return Err(CoreError::BadSeries("empty snapshot series".into()));
    }
    if !series.is_aligned() {
        return Err(CoreError::BadSeries(
            "series is not aligned; call aligned_to_common() first".into(),
        ));
    }
    let pages = series.snapshots()[0].pages().to_vec();
    let times = series.times();
    let n = pages.len();
    let mut values = vec![Vec::with_capacity(times.len()); n];
    // Every column is solved from the metric's canonical start, never
    // warm-started from a neighboring snapshot: each column is then a
    // pure function of its own snapshot, which is what lets the stage
    // engine (`qrank_core::engine`) reuse cached columns across window
    // slides while staying bitwise-identical to this cold path.
    let graphs: Vec<&CsrGraph> = series.snapshots().iter().map(|s| &s.graph).collect();
    for scores in metric.compute_many(&graphs) {
        debug_assert_eq!(scores.len(), n);
        for (p, &v) in scores.iter().enumerate() {
            values[p].push(v);
        }
    }
    Ok(PopularityTrajectories {
        times,
        values,
        pages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_graph::{CsrGraph, Snapshot};

    fn series() -> SnapshotSeries {
        let pages = vec![PageId(1), PageId(2), PageId(3)];
        let mut s = SnapshotSeries::new();
        s.push(Snapshot::new(0.0, CsrGraph::from_edges(3, &[(0, 1)]), pages.clone()).unwrap())
            .unwrap();
        s.push(
            Snapshot::new(
                1.0,
                CsrGraph::from_edges(3, &[(0, 1), (2, 1)]),
                pages.clone(),
            )
            .unwrap(),
        )
        .unwrap();
        s.push(
            Snapshot::new(
                2.0,
                CsrGraph::from_edges(3, &[(0, 1), (2, 1), (0, 2), (1, 0)]),
                pages,
            )
            .unwrap(),
        )
        .unwrap();
        s
    }

    #[test]
    fn indegree_trajectories() {
        let t = compute_trajectories(&series(), &PopularityMetric::InDegree).unwrap();
        assert_eq!(t.pages.len(), 3);
        assert_eq!(t.num_snapshots(), 3);
        assert_eq!(t.times, vec![0.0, 1.0, 2.0]);
        // page 2 (node 1) gains links: 1, 2, 2
        assert_eq!(t.values[1], vec![1.0, 2.0, 2.0]);
        // page 3 (node 2): 0, 0, 1
        assert_eq!(t.values[2], vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn pagerank_trajectories_move_with_links() {
        let t = compute_trajectories(&series(), &PopularityMetric::paper_pagerank()).unwrap();
        // node 1's PageRank should rise as it gains a second in-link
        assert!(t.values[1][1] > t.values[1][0]);
    }

    #[test]
    fn truncation_holds_out_future() {
        let t = compute_trajectories(&series(), &PopularityMetric::InDegree).unwrap();
        let past = t.truncated(2).unwrap();
        assert_eq!(past.num_snapshots(), 2);
        assert_eq!(past.values[1], vec![1.0, 2.0]);
        assert_eq!(past.pages, t.pages);
    }

    #[test]
    fn truncation_bounds_and_ragged_rows_error() {
        let t = compute_trajectories(&series(), &PopularityMetric::InDegree).unwrap();
        assert!(matches!(t.truncated(9), Err(CoreError::BadSeries(_))));
        assert!(matches!(t.truncated(0), Err(CoreError::BadSeries(_))));
        let ragged = PopularityTrajectories {
            times: vec![0.0, 1.0],
            values: vec![vec![1.0, 2.0], vec![1.0]],
            pages: vec![PageId(1), PageId(2)],
        };
        assert!(matches!(ragged.truncated(2), Err(CoreError::BadSeries(_))));
        assert!(ragged.truncated(1).is_ok());
    }

    #[test]
    fn relative_change_handles_zero_start() {
        let t = compute_trajectories(&series(), &PopularityMetric::InDegree).unwrap();
        let rc = t.relative_change();
        assert!(rc[0].is_infinite()); // node 0 in-degree: 0 -> 1
        assert!((rc[1] - 1.0).abs() < 1e-12); // node 1: 1 -> 2
        assert!(rc[2].is_infinite()); // node 2: 0 -> 1
    }

    #[test]
    fn rejects_empty_and_misaligned() {
        let empty = SnapshotSeries::new();
        assert!(matches!(
            compute_trajectories(&empty, &PopularityMetric::InDegree),
            Err(CoreError::BadSeries(_))
        ));
        let mut misaligned = SnapshotSeries::new();
        misaligned
            .push(Snapshot::new(0.0, CsrGraph::from_edges(1, &[]), vec![PageId(1)]).unwrap())
            .unwrap();
        misaligned
            .push(Snapshot::new(1.0, CsrGraph::from_edges(1, &[]), vec![PageId(2)]).unwrap())
            .unwrap();
        assert!(matches!(
            compute_trajectories(&misaligned, &PopularityMetric::InDegree),
            Err(CoreError::BadSeries(_))
        ));
    }
}
