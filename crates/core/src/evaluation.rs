//! Evaluation against a reference score — the paper's Section 8.2
//! protocol.
//!
//! "In order to quantify how well Q(p) predicts the 'future' PageRank
//! PR(p,t4) compared to the 'current' PageRank PR(p,t3), we compute the
//! average relative 'error' ... err(p) = |PR(p,t4) − Q(p)| / PR(p,t4)."
//!
//! [`ErrorHistogram`] reproduces Figure 5's binning: ten bins of width
//! 0.1 over `[0, 1]`, with everything above 1 collected into the last
//! bin.

/// The paper's relative error `|reference − estimate| / reference`.
///
/// A zero reference with a zero estimate is a perfect prediction (error
/// 0); a zero reference with a nonzero estimate is infinitely wrong.
pub fn relative_error(reference: f64, estimate: f64) -> f64 {
    if reference == 0.0 {
        if estimate == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (reference - estimate).abs() / reference.abs()
    }
}

/// Figure 5's histogram: `bins[i]` counts errors in `(0.1·i, 0.1·(i+1)]`
/// for `i < 9`; `bins[9]` counts everything above 0.9 (including > 1, as
/// the paper does).
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorHistogram {
    /// Fraction of pages per bin (sums to 1 unless empty).
    pub fractions: [f64; 10],
    /// Raw counts per bin.
    pub counts: [usize; 10],
    /// Number of errors summarized.
    pub total: usize,
}

impl ErrorHistogram {
    /// Build from a list of non-negative errors.
    pub fn from_errors(errors: &[f64]) -> Self {
        let mut counts = [0usize; 10];
        for &e in errors {
            debug_assert!(e >= 0.0, "errors must be non-negative");
            let bin = if e.is_finite() {
                ((e * 10.0).floor() as usize).min(9)
            } else {
                9
            };
            counts[bin] += 1;
        }
        let total = errors.len();
        let mut fractions = [0.0; 10];
        if total > 0 {
            for (f, &c) in fractions.iter_mut().zip(&counts) {
                *f = c as f64 / total as f64;
            }
        }
        ErrorHistogram {
            fractions,
            counts,
            total,
        }
    }

    /// Upper edge labels of the bins (0.1, 0.2, ..., 1.0) as in Figure 5.
    pub fn bin_labels() -> [f64; 10] {
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    }
}

/// Aggregate evaluation of one estimator against a reference.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSummary {
    /// Mean relative error over finite errors (the paper's headline
    /// number — 0.32 for Q(p), 0.78 for PR(p,t3)).
    pub mean_error: f64,
    /// Median relative error.
    pub median_error: f64,
    /// Fraction of pages with error below 0.1 (paper: 62% vs 46%).
    pub frac_below_01: f64,
    /// Fraction of pages with error above 1.0 (paper: 5% vs >10%).
    pub frac_above_1: f64,
    /// Number of pages evaluated.
    pub count: usize,
    /// Error histogram (Figure 5).
    pub histogram: ErrorHistogram,
}

impl EvalSummary {
    /// Summarize a list of errors. Infinite errors count toward the
    /// `frac_above_1` tail and the last histogram bin but are excluded
    /// from the mean/median (a single infinity would otherwise swamp
    /// them).
    pub fn from_errors(errors: &[f64]) -> Self {
        let count = errors.len();
        let finite: Vec<f64> = errors.iter().copied().filter(|e| e.is_finite()).collect();
        let mean_error = if finite.is_empty() {
            0.0
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        };
        let median_error = {
            let mut sorted = finite.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            if sorted.is_empty() {
                0.0
            } else {
                sorted[sorted.len() / 2]
            }
        };
        let below = errors.iter().filter(|&&e| e < 0.1).count();
        let above = errors.iter().filter(|&&e| e > 1.0).count();
        EvalSummary {
            mean_error,
            median_error,
            frac_below_01: if count == 0 {
                0.0
            } else {
                below as f64 / count as f64
            },
            frac_above_1: if count == 0 {
                0.0
            } else {
                above as f64 / count as f64
            },
            count,
            histogram: ErrorHistogram::from_errors(errors),
        }
    }
}

/// Percentile-bootstrap confidence interval for the mean of `values`
/// (finite entries only). Returns `(lo, hi)` at the given confidence
/// level, e.g. `0.95`. Deterministic given `seed`.
///
/// # Panics
/// Panics if `values` has no finite entries, `resamples == 0`, or
/// `level` is outside `(0, 1)`.
pub fn bootstrap_mean_ci(values: &[f64], resamples: usize, level: f64, seed: u64) -> (f64, f64) {
    assert!(resamples >= 1, "need at least one resample");
    assert!(
        level > 0.0 && level < 1.0,
        "confidence level must be in (0, 1)"
    );
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    assert!(!finite.is_empty(), "no finite values to bootstrap");
    let n = finite.len();
    // xorshift64* — deterministic and dependency-free (rand is not a
    // dependency of qrank-core)
    let mut state = seed.wrapping_mul(2685821657736338717).max(1);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(2685821657736338717);
        state
    };
    let mut means: Vec<f64> = (0..resamples)
        .map(|_| {
            let mut sum = 0.0;
            for _ in 0..n {
                sum += finite[(next() % n as u64) as usize];
            }
            sum / n as f64
        })
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite means"));
    let alpha = (1.0 - level) / 2.0;
    let lo_idx = ((resamples as f64) * alpha) as usize;
    let hi_idx = (((resamples as f64) * (1.0 - alpha)) as usize).min(resamples - 1);
    (means[lo_idx], means[hi_idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(2.0, 1.0), 0.5);
        assert_eq!(relative_error(2.0, 3.0), 0.5);
        assert_eq!(relative_error(2.0, 2.0), 0.0);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!(relative_error(0.0, 1.0).is_infinite());
    }

    #[test]
    fn histogram_binning() {
        let errors = vec![0.05, 0.15, 0.95, 1.5, f64::INFINITY];
        let h = ErrorHistogram::from_errors(&errors);
        assert_eq!(h.counts[0], 1); // 0.05
        assert_eq!(h.counts[1], 1); // 0.15
        assert_eq!(h.counts[9], 3); // 0.95, 1.5, inf
        assert_eq!(h.total, 5);
        let sum: f64 = h.fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bin_edges() {
        // exactly 0.1 lands in the second bin (floor(1.0) = 1)
        let h = ErrorHistogram::from_errors(&[0.1]);
        assert_eq!(h.counts[1], 1);
        // 0.0999... in the first
        let h = ErrorHistogram::from_errors(&[0.09999]);
        assert_eq!(h.counts[0], 1);
    }

    #[test]
    fn histogram_empty() {
        let h = ErrorHistogram::from_errors(&[]);
        assert_eq!(h.total, 0);
        assert!(h.fractions.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn summary_statistics() {
        let errors = vec![0.0, 0.05, 0.2, 0.5, 2.0];
        let s = EvalSummary::from_errors(&errors);
        assert!((s.mean_error - 0.55).abs() < 1e-12);
        assert_eq!(s.median_error, 0.2);
        assert!((s.frac_below_01 - 0.4).abs() < 1e-12);
        assert!((s.frac_above_1 - 0.2).abs() < 1e-12);
        assert_eq!(s.count, 5);
    }

    #[test]
    fn summary_excludes_infinities_from_mean() {
        let errors = vec![0.5, f64::INFINITY];
        let s = EvalSummary::from_errors(&errors);
        assert_eq!(s.mean_error, 0.5);
        assert!((s.frac_above_1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_ci_brackets_the_mean() {
        let values: Vec<f64> = (0..500).map(|i| (i % 10) as f64 / 10.0).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let (lo, hi) = bootstrap_mean_ci(&values, 2000, 0.95, 7);
        assert!(
            lo < mean && mean < hi,
            "CI [{lo}, {hi}] should bracket {mean}"
        );
        assert!(hi - lo < 0.1, "CI should be tight for n=500: [{lo}, {hi}]");
        // deterministic
        assert_eq!(bootstrap_mean_ci(&values, 2000, 0.95, 7), (lo, hi));
        // wider at higher confidence
        let (lo99, hi99) = bootstrap_mean_ci(&values, 2000, 0.99, 7);
        assert!(hi99 - lo99 >= hi - lo);
    }

    #[test]
    fn bootstrap_ci_skips_infinities() {
        let values = vec![1.0, 1.0, f64::INFINITY, 1.0];
        let (lo, hi) = bootstrap_mean_ci(&values, 100, 0.9, 1);
        assert_eq!((lo, hi), (1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "no finite values")]
    fn bootstrap_ci_rejects_empty() {
        let _ = bootstrap_mean_ci(&[f64::INFINITY], 10, 0.9, 1);
    }

    #[test]
    fn summary_empty() {
        let s = EvalSummary::from_errors(&[]);
        assert_eq!(s.mean_error, 0.0);
        assert_eq!(s.count, 0);
        assert_eq!(s.frac_below_01, 0.0);
    }
}
