//! Noise handling for low-popularity pages.
//!
//! The paper's discussion section: "One potential problem with the
//! quality metric is that it may be adversely affected by noise for
//! pages with very low popularity ... for low-PageRank pages, we may
//! want to compute the PageRank increase over a longer period than
//! high-PageRank pages in order to reduce the impact of noise." This
//! module implements both that adaptive-window idea and a simple EWMA
//! smoother.

use crate::classify::{classify_trend, Trend};
use crate::estimator::{PaperEstimator, QualityEstimator};
use crate::{CoreError, PopularityTrajectories};

/// Exponentially-weighted moving average smoothing along each
/// trajectory. `alpha = 1` leaves the data untouched; smaller values
/// damp snapshot-to-snapshot jitter before estimation.
pub fn ewma_smooth(traj: &PopularityTrajectories, alpha: f64) -> PopularityTrajectories {
    assert!(
        (0.0..=1.0).contains(&alpha) && alpha > 0.0,
        "alpha must be in (0, 1]"
    );
    let values = traj
        .values
        .iter()
        .map(|v| {
            let mut out = Vec::with_capacity(v.len());
            let mut acc = v[0];
            out.push(acc);
            for &x in &v[1..] {
                acc = alpha * x + (1.0 - alpha) * acc;
                out.push(acc);
            }
            out
        })
        .collect();
    PopularityTrajectories {
        times: traj.times.clone(),
        values,
        pages: traj.pages.clone(),
    }
}

/// The paper's future-work adaptive window: pages whose current
/// popularity is below `threshold` are estimated over the full window
/// (first..last snapshot) to average out noise, while popular pages use
/// only the most recent pair (freshest signal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveWindow {
    /// The Equation 1 constant `C`.
    pub c: f64,
    /// Popularity threshold (metric units) separating "noisy" from
    /// "stable" pages.
    pub threshold: f64,
    /// Trend-classification tolerance.
    pub flat_tolerance: f64,
}

impl Default for AdaptiveWindow {
    /// The paper estimator's `C` and tolerance, threshold 0.5.
    fn default() -> Self {
        let PaperEstimator { c, flat_tolerance } = PaperEstimator::default();
        AdaptiveWindow {
            c,
            threshold: 0.5,
            flat_tolerance,
        }
    }
}

impl QualityEstimator for AdaptiveWindow {
    fn name(&self) -> &'static str {
        "adaptive-window"
    }

    fn estimate(&self, traj: &PopularityTrajectories) -> Result<Vec<f64>, CoreError> {
        if traj.num_snapshots() < 3 {
            return Err(CoreError::Estimator(format!(
                "AdaptiveWindow needs >= 3 snapshots, got {}",
                traj.num_snapshots()
            )));
        }
        Ok(traj
            .values
            .iter()
            .map(|v| {
                let last = *v.last().expect("non-empty");
                let window: &[f64] = if last < self.threshold {
                    v // full window for noisy low-popularity pages
                } else {
                    &v[v.len() - 2..] // recent pair for stable pages
                };
                let first = window[0];
                match classify_trend(window, self.flat_tolerance) {
                    Trend::Increasing | Trend::Decreasing if first > 0.0 => {
                        self.c * (last - first) / first + last
                    }
                    _ => last,
                }
            })
            .collect())
    }

    fn min_snapshots(&self) -> usize {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_graph::PageId;

    fn traj(values: Vec<Vec<f64>>) -> PopularityTrajectories {
        let k = values[0].len();
        PopularityTrajectories {
            times: (0..k).map(|i| i as f64).collect(),
            pages: (0..values.len()).map(|i| PageId(i as u64)).collect(),
            values,
        }
    }

    #[test]
    fn ewma_alpha_one_is_identity() {
        let t = traj(vec![vec![1.0, 3.0, 2.0]]);
        assert_eq!(ewma_smooth(&t, 1.0).values, t.values);
    }

    #[test]
    fn ewma_damps_spikes() {
        let t = traj(vec![vec![1.0, 10.0, 1.0]]);
        let s = ewma_smooth(&t, 0.5);
        assert_eq!(s.values[0][0], 1.0);
        assert!((s.values[0][1] - 5.5).abs() < 1e-12);
        assert!((s.values[0][2] - 3.25).abs() < 1e-12);
        // the spike's amplitude shrank
        let raw_spread = 9.0;
        let smooth_spread = s.values[0].iter().cloned().fold(f64::MIN, f64::max)
            - s.values[0].iter().cloned().fold(f64::MAX, f64::min);
        assert!(smooth_spread < raw_spread);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_zero_alpha() {
        let t = traj(vec![vec![1.0, 2.0]]);
        let _ = ewma_smooth(&t, 0.0);
    }

    #[test]
    fn adaptive_window_uses_full_history_for_unpopular_pages() {
        // low-pop page that grew early and stalled: full window sees the
        // growth, recent pair does not
        let t = traj(vec![vec![0.1, 0.2, 0.2]]);
        let est = AdaptiveWindow {
            c: 0.1,
            threshold: 0.5,
            flat_tolerance: 0.0,
        }
        .estimate(&t)
        .unwrap();
        // full window [0.1, 0.2, 0.2]: oscill.. no — nondecreasing with a
        // flat step => Increasing; growth (0.2-0.1)/0.1 = 1
        assert!((est[0] - (0.1 * 1.0 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn adaptive_window_uses_recent_pair_for_popular_pages() {
        // popular page: early history ignored
        let t = traj(vec![vec![1.0, 2.0, 2.0]]);
        let est = AdaptiveWindow {
            c: 0.1,
            threshold: 0.5,
            flat_tolerance: 0.0,
        }
        .estimate(&t)
        .unwrap();
        // recent pair [2.0, 2.0] is flat -> current popularity
        assert_eq!(est[0], 2.0);
    }

    #[test]
    fn adaptive_window_needs_three_snapshots() {
        let t = traj(vec![vec![1.0, 2.0]]);
        assert!(AdaptiveWindow::default().estimate(&t).is_err());
    }

    #[test]
    fn smoothing_then_estimating_composes() {
        use crate::estimator::PaperEstimator;
        let noisy = traj(vec![vec![1.0, 1.6, 1.4, 2.0]]);
        let smooth = ewma_smooth(&noisy, 0.6);
        let est = PaperEstimator::default().estimate(&smooth).unwrap();
        assert!(est[0].is_finite());
        // smoothed trajectory is monotone where the raw one oscillated
        assert!(matches!(
            classify_trend(&smooth.values[0], 0.0),
            Trend::Increasing
        ));
    }
}
