//! Fitting the logistic popularity model to observed data.
//!
//! Given a measured popularity time series (PageRank trajectories from
//! web snapshots, or traffic data per the paper's final future-work
//! item), recover the model parameters `Q` and `P0`. This provides an
//! alternative, whole-curve quality estimate to compare against the
//! paper's two-snapshot finite-difference estimator.
//!
//! Method: for a *candidate* quality `Q`, the logistic closed form
//! linearizes exactly:
//!
//! ```text
//! ln(Q/P(t) − 1) = ln(Q/P0 − 1) − (r/n)·Q·t
//! ```
//!
//! With the visit ratio `a = r/n` known, the slope is fixed at `−aQ` and
//! only the intercept is free, so the best intercept is the mean of
//! `y_i + aQ·t_i` and the objective is its variance. We minimize over
//! `Q` by golden-section search on `(max P, 1]`.

use crate::{ModelError, ModelParams};

/// Result of a logistic fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitResult {
    /// Estimated page quality `Q`.
    pub quality: f64,
    /// Estimated initial popularity `P0` (at `t = 0`).
    pub initial_popularity: f64,
    /// Sum of squared residuals in the linearized space.
    pub sse: f64,
}

impl FitResult {
    /// Convert to [`ModelParams`] for a given user population and visit
    /// rate (they must be consistent with the `visit_ratio` used to fit).
    pub fn to_params(
        &self,
        num_users: f64,
        visits_per_unit_time: f64,
    ) -> Result<ModelParams, ModelError> {
        ModelParams::new(
            self.quality,
            num_users,
            visits_per_unit_time,
            self.initial_popularity,
        )
    }
}

/// Objective for a fixed candidate quality: variance of
/// `y_i + a·Q·t_i` where `y_i = ln(Q/P_i − 1)`, plus the implied
/// intercept. Returns `(sse, intercept)`.
fn objective(samples: &[(f64, f64)], visit_ratio: f64, q: f64) -> (f64, f64) {
    let vals: Vec<f64> = samples
        .iter()
        .map(|&(t, p)| (q / p - 1.0).ln() + visit_ratio * q * t)
        .collect();
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let sse = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>();
    (sse, mean)
}

/// Fit `Q` and `P0` from `(t, P)` samples with known visit ratio
/// `a = r/n`.
///
/// Requirements: at least 3 samples, all with `0 < P < 1`, not all at
/// the same time, and not a perfectly flat series (a flat series carries
/// no growth signal; callers should fall back to `Q ≈ P` per
/// Corollary 1 — see [`fit_quality_or_saturated`]).
pub fn fit_quality(samples: &[(f64, f64)], visit_ratio: f64) -> Result<FitResult, ModelError> {
    if samples.len() < 3 {
        return Err(ModelError::FitFailed(format!(
            "need >= 3 samples, got {}",
            samples.len()
        )));
    }
    if !(visit_ratio > 0.0 && visit_ratio.is_finite()) {
        return Err(ModelError::InvalidParameter {
            name: "visit_ratio",
            value: visit_ratio,
            constraint: "a > 0",
        });
    }
    let mut p_max = 0.0f64;
    let mut t_min = f64::INFINITY;
    let mut t_max = f64::NEG_INFINITY;
    for &(t, p) in samples {
        if !(p > 0.0 && p < 1.0 && p.is_finite() && t.is_finite()) {
            return Err(ModelError::FitFailed(format!(
                "invalid sample (t={t}, P={p})"
            )));
        }
        p_max = p_max.max(p);
        t_min = t_min.min(t);
        t_max = t_max.max(t);
    }
    if t_max <= t_min {
        return Err(ModelError::FitFailed("all samples at the same time".into()));
    }

    // Golden-section search for Q in (p_max, 1].
    let lo0 = p_max * (1.0 + 1e-9) + 1e-12;
    let hi0 = 1.0;
    if lo0 >= hi0 {
        return Err(ModelError::FitFailed(
            "observed popularity already at 1".into(),
        ));
    }
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let (mut lo, mut hi) = (lo0, hi0);
    let mut x1 = hi - phi * (hi - lo);
    let mut x2 = lo + phi * (hi - lo);
    let mut f1 = objective(samples, visit_ratio, x1).0;
    let mut f2 = objective(samples, visit_ratio, x2).0;
    for _ in 0..200 {
        if f1 < f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - phi * (hi - lo);
            f1 = objective(samples, visit_ratio, x1).0;
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + phi * (hi - lo);
            f2 = objective(samples, visit_ratio, x2).0;
        }
        if hi - lo < 1e-12 {
            break;
        }
    }
    let q = (lo + hi) / 2.0;
    let (sse, intercept) = objective(samples, visit_ratio, q);
    // intercept = ln(Q/P0 − 1)  =>  P0 = Q / (1 + e^intercept)
    let p0 = q / (1.0 + intercept.exp());
    Ok(FitResult {
        quality: q,
        initial_popularity: p0,
        sse,
    })
}

/// Like [`fit_quality`], but a (near-)flat series is treated as a
/// saturated page and `Q ≈ mean(P)` is returned (Corollary 1), mirroring
/// the paper's handling of pages whose PageRank did not change.
pub fn fit_quality_or_saturated(
    samples: &[(f64, f64)],
    visit_ratio: f64,
    flat_rel_tol: f64,
) -> Result<FitResult, ModelError> {
    if samples.is_empty() {
        return Err(ModelError::FitFailed("no samples".into()));
    }
    let mean = samples.iter().map(|&(_, p)| p).sum::<f64>() / samples.len() as f64;
    let spread = samples
        .iter()
        .map(|&(_, p)| (p - mean).abs())
        .fold(0.0, f64::max);
    if mean > 0.0 && spread <= flat_rel_tol * mean {
        return Ok(FitResult {
            quality: mean,
            initial_popularity: mean,
            sse: 0.0,
        });
    }
    fit_quality(samples, visit_ratio)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::popularity_series;

    #[test]
    fn recovers_exact_synthetic_parameters() {
        let p = ModelParams::new(0.6, 1e8, 1e8, 1e-5).unwrap();
        let samples = popularity_series(&p, 30.0, 20);
        let fit = fit_quality(&samples, p.visit_ratio()).unwrap();
        assert!((fit.quality - 0.6).abs() < 1e-4, "Q = {}", fit.quality);
        assert!(
            (fit.initial_popularity - 1e-5).abs() / 1e-5 < 1e-2,
            "P0 = {}",
            fit.initial_popularity
        );
        assert!(fit.sse < 1e-10);
    }

    #[test]
    fn recovers_figure1_parameters() {
        let p = ModelParams::figure1();
        // sample only the expansion phase, where the signal lives
        let samples: Vec<(f64, f64)> = (10..35)
            .map(|i| {
                let t = i as f64;
                (t, crate::popularity::popularity(&p, t))
            })
            .collect();
        let fit = fit_quality(&samples, 1.0).unwrap();
        assert!((fit.quality - 0.8).abs() < 1e-3, "Q = {}", fit.quality);
    }

    #[test]
    fn fit_is_robust_to_mild_noise() {
        use crate::noise::standard_normal;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let p = ModelParams::new(0.4, 1e8, 1e8, 1e-4).unwrap();
        let clean = popularity_series(&p, 40.0, 40);
        // mean-preserving log-normal crawl noise, P·exp(σZ − σ²/2); then
        // drop the t=0 point and keep strictly interior popularity
        let sigma = 0.02;
        let noisy: Vec<(f64, f64)> = clean
            .into_iter()
            .map(|(t, v)| {
                let z = standard_normal(&mut rng);
                (t, v * (sigma * z - sigma * sigma / 2.0).exp())
            })
            .filter(|&(_, v)| v > 0.0 && v < 0.39)
            .collect();
        let fit = fit_quality(&noisy, 1.0).unwrap();
        assert!((fit.quality - 0.4).abs() < 0.05, "Q = {}", fit.quality);
    }

    #[test]
    fn rejects_insufficient_or_invalid_data() {
        assert!(fit_quality(&[(0.0, 0.1), (1.0, 0.2)], 1.0).is_err());
        assert!(fit_quality(&[(0.0, 0.1), (0.0, 0.2), (0.0, 0.3)], 1.0).is_err());
        assert!(fit_quality(&[(0.0, 0.0), (1.0, 0.2), (2.0, 0.3)], 1.0).is_err());
        assert!(fit_quality(&[(0.0, 1.0), (1.0, 0.2), (2.0, 0.3)], 1.0).is_err());
        assert!(fit_quality(&[(0.0, 0.1), (1.0, 0.2), (2.0, 0.3)], 0.0).is_err());
        assert!(fit_quality(&[(0.0, 0.1), (1.0, 0.2), (2.0, 0.3)], f64::NAN).is_err());
    }

    #[test]
    fn saturated_page_falls_back_to_mean() {
        let samples = vec![(0.0, 0.30000), (1.0, 0.30001), (2.0, 0.29999)];
        let fit = fit_quality_or_saturated(&samples, 1.0, 1e-3).unwrap();
        assert!((fit.quality - 0.3).abs() < 1e-4);
        assert_eq!(fit.sse, 0.0);
    }

    #[test]
    fn non_flat_series_uses_full_fit() {
        let p = ModelParams::new(0.6, 1e8, 1e8, 1e-4).unwrap();
        let samples = popularity_series(&p, 25.0, 10);
        let fit = fit_quality_or_saturated(&samples, 1.0, 1e-3).unwrap();
        assert!((fit.quality - 0.6).abs() < 1e-3);
    }

    #[test]
    fn empty_input_errors() {
        assert!(fit_quality_or_saturated(&[], 1.0, 1e-3).is_err());
    }

    #[test]
    fn fit_result_converts_to_params() {
        let fit = FitResult {
            quality: 0.5,
            initial_popularity: 0.01,
            sse: 0.0,
        };
        let params = fit.to_params(1e8, 1e8).unwrap();
        assert_eq!(params.quality, 0.5);
        // invalid combination rejected
        let bad = FitResult {
            quality: 0.5,
            initial_popularity: 0.6,
            sse: 0.0,
        };
        assert!(bad.to_params(1e8, 1e8).is_err());
    }
}
