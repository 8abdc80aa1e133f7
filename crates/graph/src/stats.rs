//! Power-law fitting of degree distributions.
//!
//! The paper's related work ([3, 6] in its bibliography) establishes that
//! web in/out-degree follows a power law; a faithful simulated web should
//! too. This module provides a discrete power-law maximum-likelihood
//! exponent estimate (Clauset–Shalizi–Newman style with fixed `x_min`).

use crate::CsrGraph;

/// Which degree to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegreeKind {
    /// Incoming links (popularity signal).
    In,
    /// Outgoing links.
    Out,
}

/// All node degrees of the chosen kind.
fn degrees(g: &CsrGraph, kind: DegreeKind) -> Vec<usize> {
    (0..g.num_nodes() as u32)
        .map(|u| match kind {
            DegreeKind::In => g.in_degree(u),
            DegreeKind::Out => g.out_degree(u),
        })
        .collect()
}

/// Discrete power-law exponent alpha for `P(d) ~ d^-alpha`, estimated by
/// the standard MLE approximation
/// `alpha = 1 + n / sum(ln(d_i / (x_min - 0.5)))` over samples
/// `d_i >= x_min`. Returns `None` if fewer than two samples qualify.
pub fn power_law_alpha_mle(samples: &[usize], x_min: usize) -> Option<f64> {
    assert!(x_min >= 1, "x_min must be >= 1");
    let denom = x_min as f64 - 0.5;
    let tail: Vec<f64> = samples
        .iter()
        .filter(|&&d| d >= x_min)
        .map(|&d| (d as f64 / denom).ln())
        .collect();
    if tail.len() < 2 {
        return None;
    }
    let sum: f64 = tail.iter().sum();
    if sum <= 0.0 {
        return None;
    }
    Some(1.0 + tail.len() as f64 / sum)
}

/// Convenience: power-law exponent of a graph's degree distribution.
pub fn degree_power_law_alpha(g: &CsrGraph, kind: DegreeKind, x_min: usize) -> Option<f64> {
    power_law_alpha_mle(&degrees(g, kind), x_min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_mle_recovers_exponent() {
        // Synthesize a discrete power-law-ish sample via inverse CDF on a
        // deterministic grid: d = floor(x_min * u^(-1/(alpha-1))). The
        // continuous MLE approximation is accurate for x_min >= ~6
        // (Clauset et al. 2009), so test at x_min = 10.
        let alpha = 2.5f64;
        let x_min = 10usize;
        let mut samples = Vec::new();
        let n = 200_000;
        for i in 0..n {
            let u = (i as f64 + 0.5) / n as f64;
            let d = (x_min as f64 * u.powf(-1.0 / (alpha - 1.0))).floor() as usize;
            samples.push(d.max(x_min));
        }
        let est = power_law_alpha_mle(&samples, x_min).unwrap();
        assert!((est - alpha).abs() < 0.1, "estimated {est}, want ~{alpha}");
    }

    #[test]
    fn power_law_mle_degenerate_inputs() {
        assert!(power_law_alpha_mle(&[], 1).is_none());
        assert!(power_law_alpha_mle(&[5], 1).is_none());
        // all samples below x_min
        assert!(power_law_alpha_mle(&[1, 1, 1], 5).is_none());
    }

    #[test]
    #[should_panic(expected = "x_min")]
    fn power_law_mle_rejects_zero_xmin() {
        let _ = power_law_alpha_mle(&[1, 2, 3], 0);
    }
}
