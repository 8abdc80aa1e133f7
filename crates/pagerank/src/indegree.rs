//! In-degree (raw link count) popularity.
//!
//! Footnote 4 of the paper: "We may replace PR(p) in the formula with the
//! number of links." In-degree is the zeroth-order popularity metric —
//! no propagation, just counting — and serves both as an estimator
//! ingredient and as the simplest baseline in ablations.

use qrank_graph::CsrGraph;

/// Raw in-degree of every node, as `f64` for drop-in use wherever a
/// popularity vector is expected.
pub fn indegree_scores(g: &CsrGraph) -> Vec<f64> {
    (0..g.num_nodes() as u32)
        .map(|v| g.in_degree(v) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_counts() {
        let g = CsrGraph::from_edges(4, &[(0, 2), (1, 2), (3, 2), (2, 0)]);
        assert_eq!(indegree_scores(&g), vec![1.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert!(indegree_scores(&g).is_empty());
    }
}
