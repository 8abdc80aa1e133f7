//! EXT-TRAFFIC — the paper's final future-work item: "our estimator can
//! be similarly applied to the Web traffic data ... if we can measure
//! how many people visit a particular Web site and how quickly the
//! number of visits increases over time, we can use our quality
//! estimator to measure the quality of the site based on this traffic
//! data."
//!
//! Traffic measurements are *popularity fractions*, the model's native
//! units, so here — unlike in PageRank units — the whole-curve logistic
//! fit is applicable and the estimates are directly comparable to
//! ground-truth quality.

use qrank_core::correlation::spearman;
use qrank_core::estimator::{LogisticFit, PaperEstimator, QualityEstimator};
use qrank_core::PopularityTrajectories;
use qrank_graph::PageId;
use qrank_sim::World;

use crate::scenario::Scale;
use crate::{table, Run};

/// Result of the traffic-data experiment.
#[derive(Debug, Clone)]
pub struct TrafficResult {
    /// Number of pages evaluated (positive popularity, born before the
    /// first measurement).
    pub pages: usize,
    /// Mean absolute error of the logistic-fit quality estimate vs true
    /// quality.
    pub mae_logistic: f64,
    /// Mean absolute error of the paper two-point estimator (on
    /// popularity, with the model-exact constant `n/r·1/Δt`-free form).
    pub mae_paper: f64,
    /// Mean absolute error of current popularity as the quality estimate.
    pub mae_current: f64,
    /// Spearman correlations with true quality.
    pub rho_logistic: f64,
    /// Spearman for the paper estimator.
    pub rho_paper: f64,
    /// Spearman for current popularity.
    pub rho_current: f64,
}

/// Theorem 2 discretized for traffic data: `Q ≈ (n/r)·(ΔP/Δt)/P̄ + P̄`
/// with the mid-window popularity `P̄`. Unlike Equation 1's calibrated
/// `C`, the constant here is the *model-exact* `n/r`.
pub fn theorem2_estimate(first: f64, last: f64, dt: f64, visit_ratio: f64) -> f64 {
    let mid = 0.5 * (first + last);
    if mid <= 0.0 || dt <= 0.0 {
        return last;
    }
    ((last - first) / dt) / (visit_ratio * mid) + mid
}

/// Run the traffic-data experiment: sample every page's popularity at
/// `samples` evenly spaced times over `[start, start + window]`, then
/// estimate quality three ways and score against ground truth.
pub fn traffic_experiment(scale: Scale, seed: u64, samples: usize, window: f64) -> TrafficResult {
    assert!(samples >= 3, "need >= 3 samples for the logistic fit");
    let cfg = scale.sim_config(seed);
    let mut world = World::bootstrap(cfg).expect("bootstrap");
    let start = scale.burn_in();

    let times: Vec<f64> = (0..samples)
        .map(|i| start + window * i as f64 / (samples - 1) as f64)
        .collect();
    let (trace, keep) = qrank_sim::Tracer.record(&mut world, &times).observable();
    let truth = trace.qualities.clone();
    let traj = PopularityTrajectories {
        times: trace.times.clone(),
        values: trace.values,
        pages: keep.into_iter().map(|p| PageId(p as u64)).collect(),
    };

    let logistic = LogisticFit {
        visit_ratio: cfg.visit_ratio,
        q_max: 1.0, // popularity is already a fraction
        flat_tolerance: 1e-3,
        max_boost: f64::INFINITY, // correct units: no trust region needed
    };
    let est_logistic = logistic.estimate(&traj).expect("logistic");
    let est_paper: Vec<f64> = traj
        .values
        .iter()
        .map(|v| theorem2_estimate(v[0], *v.last().expect("non-empty"), window, cfg.visit_ratio))
        .collect();
    let est_current = PaperEstimator {
        c: 0.0,
        flat_tolerance: 0.0,
    }
    .estimate(&traj)
    .expect("current");

    let mae = |est: &[f64]| -> f64 {
        est.iter()
            .zip(&truth)
            .map(|(e, t)| (e.clamp(0.0, 1.0) - t).abs())
            .sum::<f64>()
            / truth.len() as f64
    };
    TrafficResult {
        pages: truth.len(),
        mae_logistic: mae(&est_logistic),
        mae_paper: mae(&est_paper),
        mae_current: mae(&est_current),
        rho_logistic: spearman(&est_logistic, &truth),
        rho_paper: spearman(&est_paper, &truth),
        rho_current: spearman(&est_current, &truth),
    }
}

/// `exp_traffic_quality`: five popularity samples over a three-month
/// window, each estimator scored against ground-truth quality.
pub(crate) fn render(run: &Run) -> String {
    let r = traffic_experiment(run.scale, run.seed, 5, 3.0);
    let rows = [
        ("theorem-2 two-point (exact n/r)", r.mae_paper, r.rho_paper),
        ("logistic whole-curve fit", r.mae_logistic, r.rho_logistic),
        ("current popularity baseline", r.mae_current, r.rho_current),
    ]
    .map(|(label, mae, rho)| vec![label.to_string(), table::f(mae), table::f(rho)]);
    format!(
        "Experiment: quality estimation from traffic (popularity) data ({:?}, seed {})\n\
         5 popularity samples over a 3-month window, estimates vs ground-truth quality\n\n\
         pages evaluated: {}\n\n\
         {}\n\
         (the paper could not run this comparison: true quality is unobservable on the real web)\n",
        run.scale,
        run.seed,
        r.pages,
        table::render(&["estimator", "MAE vs true Q", "spearman vs true Q"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem2_discretization() {
        // static page: estimate = popularity
        assert!((theorem2_estimate(0.3, 0.3, 2.0, 1.0) - 0.3).abs() < 1e-12);
        // growing page: estimate above current popularity
        let q = theorem2_estimate(0.1, 0.2, 1.0, 1.0);
        assert!(q > 0.2, "got {q}");
        // degenerate inputs fall back
        assert_eq!(theorem2_estimate(0.0, 0.0, 1.0, 1.0), 0.0);
        assert_eq!(theorem2_estimate(0.1, 0.2, 0.0, 1.0), 0.2);
    }

    #[test]
    fn traffic_estimators_beat_current_popularity() {
        let r = traffic_experiment(Scale::Small, 9, 5, 3.0);
        assert!(r.pages > 300, "pages {}", r.pages);
        // in native units the model-exact estimators should be closer to
        // the true quality than raw popularity is
        assert!(
            r.mae_paper < r.mae_current,
            "theorem-2 MAE {} vs current {}",
            r.mae_paper,
            r.mae_current
        );
        assert!(
            r.rho_paper >= r.rho_current - 0.02,
            "theorem-2 rho {} vs current {}",
            r.rho_paper,
            r.rho_current
        );
        assert!(r.rho_logistic > 0.3, "logistic rho {}", r.rho_logistic);
    }
}
