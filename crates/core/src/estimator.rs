//! Quality estimators.
//!
//! All estimators consume a [`PopularityTrajectories`] covering the
//! *estimation window* (the paper uses snapshots t1..t3) and emit one
//! quality estimate per page, in the same units as the popularity metric
//! (so they are directly comparable to a held-out future snapshot's
//! scores, the paper's evaluation protocol).

use crate::classify::{classify_trend, Trend};
use crate::{CoreError, PopularityTrajectories};

/// A pluggable page-quality estimator.
pub trait QualityEstimator {
    /// Short identifier for reports.
    fn name(&self) -> &'static str;

    /// One estimate per page. The trajectory must cover at least
    /// [`QualityEstimator::min_snapshots`] snapshots.
    fn estimate(&self, traj: &PopularityTrajectories) -> Result<Vec<f64>, CoreError>;

    /// Minimum number of snapshots required.
    fn min_snapshots(&self) -> usize {
        2
    }

    /// Per-step relative tolerance under which this estimator treats a
    /// trajectory step as flat when it classifies trends. A report
    /// labels its pages' trends with the same tolerance, so the label
    /// and the branch of the estimate agree.
    fn flat_tolerance(&self) -> f64 {
        0.0
    }
}

fn require_snapshots(
    traj: &PopularityTrajectories,
    need: usize,
    name: &str,
) -> Result<(), CoreError> {
    if traj.num_snapshots() < need {
        return Err(CoreError::Estimator(format!(
            "{name} needs >= {need} snapshots, got {}",
            traj.num_snapshots()
        )));
    }
    Ok(())
}

/// The paper's Equation 1 estimator:
///
/// ```text
/// Q(p) = C · [PR(p, t_last) − PR(p, t_first)] / PR(p, t_first) + PR(p, t_last)
/// ```
///
/// applied to pages whose popularity moved monotonically; for
/// oscillating pages the paper sets `I(p,t) = 0`, i.e. the estimate
/// falls back to the current popularity. Pages starting at zero
/// popularity also fall back (the relative increase is undefined there).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperEstimator {
    /// The constant `C` weighting the growth term (the paper uses 0.1).
    pub c: f64,
    /// Per-step relative tolerance for the trend classification.
    pub flat_tolerance: f64,
}

impl Default for PaperEstimator {
    fn default() -> Self {
        // "As the constant factor C in Equation 1, we used the value 0.1."
        PaperEstimator {
            c: 0.1,
            flat_tolerance: 0.0,
        }
    }
}

impl QualityEstimator for PaperEstimator {
    fn name(&self) -> &'static str {
        "paper"
    }

    fn estimate(&self, traj: &PopularityTrajectories) -> Result<Vec<f64>, CoreError> {
        require_snapshots(traj, 2, "PaperEstimator")?;
        Ok(traj
            .values
            .iter()
            .map(|v| {
                let first = v[0];
                let last = *v.last().expect("non-empty");
                match classify_trend(v, self.flat_tolerance) {
                    Trend::Increasing | Trend::Decreasing if first > 0.0 => {
                        self.c * (last - first) / first + last
                    }
                    // oscillating (I := 0), flat, or born-at-zero pages
                    _ => last,
                }
            })
            .collect())
    }

    fn flat_tolerance(&self) -> f64 {
        self.flat_tolerance
    }
}

/// Ablation: only the growth term `C·ΔPR/PR` without the current
/// popularity. Good early in a page's life, useless at saturation
/// (Figure 2's message).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivativeOnly {
    /// Growth-term weight.
    pub c: f64,
    /// Trend-classification tolerance.
    pub flat_tolerance: f64,
}

impl Default for DerivativeOnly {
    /// The paper estimator's `C` and tolerance.
    fn default() -> Self {
        let PaperEstimator { c, flat_tolerance } = PaperEstimator::default();
        DerivativeOnly { c, flat_tolerance }
    }
}

impl QualityEstimator for DerivativeOnly {
    fn name(&self) -> &'static str {
        "derivative-only"
    }

    fn estimate(&self, traj: &PopularityTrajectories) -> Result<Vec<f64>, CoreError> {
        require_snapshots(traj, 2, "DerivativeOnly")?;
        Ok(traj
            .values
            .iter()
            .map(|v| {
                let first = v[0];
                let last = *v.last().expect("non-empty");
                match classify_trend(v, self.flat_tolerance) {
                    Trend::Increasing | Trend::Decreasing if first > 0.0 => {
                        self.c * (last - first) / first
                    }
                    _ => 0.0,
                }
            })
            .collect())
    }

    fn flat_tolerance(&self) -> f64 {
        self.flat_tolerance
    }
}

/// Baseline: the current popularity itself (`PR(p, t3)` in the paper's
/// comparison) — what a popularity-ranking search engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CurrentPopularity;

impl QualityEstimator for CurrentPopularity {
    fn name(&self) -> &'static str {
        "current-popularity"
    }

    fn estimate(&self, traj: &PopularityTrajectories) -> Result<Vec<f64>, CoreError> {
        require_snapshots(traj, 1, "CurrentPopularity")?;
        Ok(traj
            .values
            .iter()
            .map(|v| *v.last().expect("non-empty"))
            .collect())
    }

    fn min_snapshots(&self) -> usize {
        1
    }
}

/// Whole-curve estimator: fit the model's logistic popularity curve
/// (Theorem 1) to the trajectory and report the fitted asymptote, which
/// under the model *is* the quality (Corollary 1). Needs at least three
/// snapshots; pages whose trajectory cannot be fit (non-monotone, zero
/// values) fall back to the current popularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticFit {
    /// The model's visit ratio `r/n` in the trajectory's time units,
    /// *after* values are scaled into `(0, 1)` by `q_max`.
    pub visit_ratio: f64,
    /// Upper bound on popularity values in metric units (e.g. for
    /// per-page-scale PageRank something like the largest observed score
    /// times a small margin). Values are divided by this before fitting.
    pub q_max: f64,
    /// Relative spread below which a trajectory counts as saturated.
    pub flat_tolerance: f64,
    /// Trust region: cap the fitted asymptote at `max_boost ×` the
    /// current value. A page observed only in its early exponential
    /// phase pins the growth *rate* but not the asymptote, so an
    /// unconstrained fit can return arbitrarily large quality; the cap
    /// keeps such pages sane while leaving well-determined fits
    /// untouched.
    pub max_boost: f64,
}

impl Default for LogisticFit {
    fn default() -> Self {
        LogisticFit {
            visit_ratio: 1.0,
            q_max: 1.0,
            flat_tolerance: 1e-3,
            max_boost: 10.0,
        }
    }
}

impl QualityEstimator for LogisticFit {
    fn name(&self) -> &'static str {
        "logistic-fit"
    }

    fn estimate(&self, traj: &PopularityTrajectories) -> Result<Vec<f64>, CoreError> {
        require_snapshots(traj, 3, "LogisticFit")?;
        if self.q_max <= 0.0 || self.q_max.is_nan() {
            return Err(CoreError::Estimator(format!(
                "q_max must be positive, got {}",
                self.q_max
            )));
        }
        Ok(traj
            .values
            .iter()
            .map(|v| {
                let last = *v.last().expect("non-empty");
                let samples: Vec<(f64, f64)> = traj
                    .times
                    .iter()
                    .zip(v.iter())
                    .map(|(&t, &x)| (t, x / self.q_max))
                    .filter(|&(_, x)| x > 0.0 && x < 1.0)
                    .collect();
                if samples.len() < 3 {
                    return last;
                }
                match qrank_model::fitting::fit_quality_or_saturated(
                    &samples,
                    self.visit_ratio,
                    self.flat_tolerance,
                ) {
                    Ok(fit) => (fit.quality * self.q_max).min(last * self.max_boost),
                    Err(_) => last,
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
    fn paper_formula_on_growing_page() {
        // the paper's own worked formula: C=0.1,
        // Q = 0.1 * (PR3-PR1)/PR1 + PR3
        let t = traj(vec![vec![1.0, 1.5, 2.0]]);
        let est = PaperEstimator::default().estimate(&t).unwrap();
        assert!((est[0] - (0.1 * 1.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn paper_formula_on_declining_page() {
        let t = traj(vec![vec![2.0, 1.5, 1.0]]);
        let est = PaperEstimator::default().estimate(&t).unwrap();
        assert!((est[0] - (0.1 * (-0.5) + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn oscillating_page_uses_current_popularity() {
        // "we assumed that I(p,t) = 0 ... when their PageRank values
        // oscillate"
        let t = traj(vec![vec![1.0, 2.0, 1.5]]);
        let est = PaperEstimator::default().estimate(&t).unwrap();
        assert_eq!(est[0], 1.5);
    }

    #[test]
    fn flat_page_equals_current_popularity() {
        // "our quality estimator becomes the same as the current
        // PageRank if the PageRank of a page does not change"
        let t = traj(vec![vec![1.2, 1.2, 1.2]]);
        let est = PaperEstimator::default().estimate(&t).unwrap();
        assert_eq!(est[0], 1.2);
    }

    #[test]
    fn zero_start_falls_back() {
        let t = traj(vec![vec![0.0, 0.5, 1.0]]);
        let est = PaperEstimator::default().estimate(&t).unwrap();
        assert_eq!(est[0], 1.0);
    }

    #[test]
    fn estimator_boosts_young_risers_over_static_incumbents() {
        // the whole point of the paper: a young fast-growing page should
        // outrank an equally-popular static page
        let t = traj(vec![
            vec![0.5, 1.0, 2.0], // young riser
            vec![2.0, 2.0, 2.0], // static incumbent at same current PR
        ]);
        let est = PaperEstimator {
            c: 1.0,
            flat_tolerance: 0.0,
        }
        .estimate(&t)
        .unwrap();
        assert!(est[0] > est[1], "riser {} vs incumbent {}", est[0], est[1]);
    }

    #[test]
    fn derivative_only_ignores_current_level() {
        let t = traj(vec![vec![1.0, 1.5, 2.0], vec![10.0, 10.0, 10.0]]);
        let est = DerivativeOnly::default().estimate(&t).unwrap();
        assert!((est[0] - 0.1).abs() < 1e-12);
        assert_eq!(est[1], 0.0);
    }

    #[test]
    fn current_popularity_is_last_column() {
        let t = traj(vec![vec![1.0, 3.0], vec![5.0, 2.0]]);
        let est = CurrentPopularity.estimate(&t).unwrap();
        assert_eq!(est, vec![3.0, 2.0]);
    }

    #[test]
    fn too_few_snapshots_error() {
        let t = traj(vec![vec![1.0]]);
        assert!(PaperEstimator::default().estimate(&t).is_err());
        assert!(CurrentPopularity.estimate(&t).is_ok());
        assert!(LogisticFit::default()
            .estimate(&traj(vec![vec![1.0, 2.0]]))
            .is_err());
    }

    #[test]
    fn logistic_fit_recovers_model_quality() {
        // synthesize an exact logistic trajectory and check the fitted
        // asymptote beats the current value as a quality estimate
        let params = qrank_model::ModelParams::new(0.6, 1e6, 1e6, 1e-3).unwrap();
        let times: Vec<f64> = vec![6.0, 8.0, 10.0, 12.0];
        let values: Vec<f64> = times
            .iter()
            .map(|&t| qrank_model::popularity::popularity(&params, t))
            .collect();
        let t = PopularityTrajectories {
            times,
            values: vec![values.clone()],
            pages: vec![PageId(0)],
        };
        let est = LogisticFit {
            visit_ratio: 1.0,
            q_max: 1.0,
            flat_tolerance: 1e-6,
            max_boost: 10.0,
        }
        .estimate(&t)
        .unwrap();
        assert!((est[0] - 0.6).abs() < 0.01, "fitted {} want 0.6", est[0]);
        assert!(
            est[0] > *values.last().unwrap(),
            "fit should see past current popularity"
        );
    }

    #[test]
    fn logistic_fit_scales_by_q_max() {
        let params = qrank_model::ModelParams::new(0.6, 1e6, 1e6, 1e-3).unwrap();
        let times: Vec<f64> = vec![6.0, 8.0, 10.0, 12.0];
        // metric reports values on a x100 scale
        let values: Vec<f64> = times
            .iter()
            .map(|&t| 100.0 * qrank_model::popularity::popularity(&params, t))
            .collect();
        let t = PopularityTrajectories {
            times,
            values: vec![values],
            pages: vec![PageId(0)],
        };
        let est = LogisticFit {
            visit_ratio: 1.0,
            q_max: 100.0,
            flat_tolerance: 1e-6,
            max_boost: 10.0,
        }
        .estimate(&t)
        .unwrap();
        assert!((est[0] - 60.0).abs() < 1.0, "fitted {} want 60", est[0]);
    }

    #[test]
    fn logistic_fit_falls_back_on_unfittable_pages() {
        let t = traj(vec![vec![0.0, 0.0, 0.0], vec![2.0, 1.0, 2.0]]);
        let est = LogisticFit {
            visit_ratio: 1.0,
            q_max: 3.0,
            flat_tolerance: 1e-3,
            max_boost: 10.0,
        }
        .estimate(&t)
        .unwrap();
        assert_eq!(est[0], 0.0);
        // oscillating page: fit fails or is meaningless; falls back
        assert!(est[1].is_finite());
    }

    #[test]
    fn logistic_fit_rejects_bad_qmax() {
        let t = traj(vec![vec![1.0, 2.0, 3.0]]);
        let bad = LogisticFit {
            visit_ratio: 1.0,
            q_max: 0.0,
            flat_tolerance: 1e-3,
            max_boost: 10.0,
        };
        assert!(bad.estimate(&t).is_err());
    }

    #[test]
    fn logistic_fit_trust_region_caps_runaway_asymptotes() {
        // pure exponential growth (logistic far from saturation): the
        // asymptote is unidentifiable; the cap must bound the estimate
        let values: Vec<f64> = (0..4).map(|k| 0.001 * (1.5f64).powi(k)).collect();
        let t = traj(vec![values.clone()]);
        let est = LogisticFit {
            visit_ratio: 1.0,
            q_max: 1.0,
            flat_tolerance: 1e-6,
            max_boost: 3.0,
        }
        .estimate(&t)
        .unwrap();
        assert!(
            est[0] <= values.last().unwrap() * 3.0 + 1e-12,
            "estimate {}",
            est[0]
        );
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            PaperEstimator::default().name(),
            DerivativeOnly::default().name(),
            CurrentPopularity.name(),
            LogisticFit::default().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
