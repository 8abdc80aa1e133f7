//! Degree statistics and power-law fitting.
//!
//! The paper's related work ([3, 6] in its bibliography) establishes that
//! web in/out-degree follows a power law; a faithful simulated web should
//! too. This module provides degree distributions, a discrete power-law
//! maximum-likelihood exponent estimate (Clauset–Shalizi–Newman style with
//! fixed `x_min`), and link reciprocity.

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
pub fn degrees(g: &CsrGraph, kind: DegreeKind) -> Vec<usize> {
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

/// Fraction of edges `u -> v` for which `v -> u` also exists. Self-loops
/// count as reciprocated. Returns 0 for an edgeless graph.
pub fn reciprocity(g: &CsrGraph) -> f64 {
    let m = g.num_edges();
    if m == 0 {
        return 0.0;
    }
    let recip = g.edges().filter(|&(u, v)| g.has_edge(v, u)).count();
    recip as f64 / m as f64
}

/// Mean out-degree (equals mean in-degree).
pub fn mean_degree(g: &CsrGraph) -> f64 {
    if g.num_nodes() == 0 {
        return 0.0;
    }
    g.num_edges() as f64 / g.num_nodes() as f64
}

/// Summary statistics bundle for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphSummary {
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Number of dangling (zero out-degree) nodes.
    pub dangling: usize,
    /// Link reciprocity.
    pub reciprocity: f64,
    /// In-degree power-law exponent at `x_min = 2`, if estimable.
    pub in_degree_alpha: Option<f64>,
}

/// Compute a [`GraphSummary`].
pub fn summarize(g: &CsrGraph) -> GraphSummary {
    let in_ds = degrees(g, DegreeKind::In);
    let out_ds = degrees(g, DegreeKind::Out);
    GraphSummary {
        nodes: g.num_nodes(),
        edges: g.num_edges(),
        mean_degree: mean_degree(g),
        max_in_degree: in_ds.iter().copied().max().unwrap_or(0),
        max_out_degree: out_ds.iter().copied().max().unwrap_or(0),
        dangling: out_ds.iter().filter(|&&d| d == 0).count(),
        reciprocity: reciprocity(g),
        in_degree_alpha: power_law_alpha_mle(&in_ds, 2),
    }
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

    #[test]
    fn reciprocity_values() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (1, 0)]);
        assert!((reciprocity(&g) - 1.0).abs() < 1e-12);
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(reciprocity(&g), 0.0);
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 0)]);
        assert!((reciprocity(&g) - 0.5).abs() < 1e-12);
        let g = CsrGraph::from_edges(1, &[]);
        assert_eq!(reciprocity(&g), 0.0);
    }

    #[test]
    fn self_loop_counts_as_reciprocated() {
        let g = CsrGraph::from_edges(1, &[(0, 0)]);
        assert!((reciprocity(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_is_consistent() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 0)]);
        let s = summarize(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.dangling, 1); // node 3
        assert_eq!(s.max_in_degree, 2);
        assert_eq!(s.max_out_degree, 2);
        assert!((s.mean_degree - 1.0).abs() < 1e-12);
    }
}
