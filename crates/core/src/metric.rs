//! Popularity metrics pluggable into the quality estimator.
//!
//! Section 5 of the paper: "We can use here any measure of popularity.
//! We will use PageRank for the purposes of this paper because of its
//! success as a popularity metric, but we could just as easily
//! substitute the number of links."

use qrank_graph::CsrGraph;
use qrank_rank::PageRankConfig;

/// A popularity metric computed on one snapshot's graph.
#[derive(Debug, Clone, PartialEq)]
pub enum PopularityMetric {
    /// PageRank with the given configuration (the paper's choice; use
    /// [`PopularityMetric::paper_pagerank`] for the paper's setup).
    PageRank(PageRankConfig),
    /// Raw in-link count (footnote 4's alternative).
    InDegree,
}

impl PopularityMetric {
    /// The paper's PageRank setup: damping d = 0.15 (paper convention),
    /// per-page scale ("we used 1 as the initial PageRank value").
    pub fn paper_pagerank() -> Self {
        PopularityMetric::PageRank(PageRankConfig::paper_style(0.15))
    }

    /// Compute the metric's score for every node of `g`.
    ///
    /// PageRank is solved by [`qrank_rank::solve_auto`]: sequential
    /// Gauss–Seidel on small graphs, the degree-relabeled multi-color
    /// sweep on large ones, chosen by the graph's size alone.
    pub fn compute(&self, g: &CsrGraph) -> Vec<f64> {
        match self {
            PopularityMetric::PageRank(cfg) => qrank_rank::solve_auto(g, cfg, None).scores,
            PopularityMetric::InDegree => qrank_rank::indegree_scores(g),
        }
    }

    /// [`PopularityMetric::compute`] for a window's worth of graphs at
    /// once, results in input order and equal to one `compute` per graph
    /// bit for bit.
    ///
    /// The columns of a window are independent, so PageRank solves them
    /// side by side ([`qrank_rank::solve_many`]), one thread a column, on
    /// up to the thread budget. In-degree is a single pass and runs in
    /// turn.
    pub fn compute_many(&self, graphs: &[&CsrGraph]) -> Vec<Vec<f64>> {
        match self {
            PopularityMetric::PageRank(cfg) => qrank_rank::solve_many(graphs, cfg)
                .into_iter()
                .map(|solved| solved.scores)
                .collect(),
            PopularityMetric::InDegree => graphs.iter().map(|g| self.compute(g)).collect(),
        }
    }
}

impl Default for PopularityMetric {
    fn default() -> Self {
        PopularityMetric::paper_pagerank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 2)])
    }

    #[test]
    fn pagerank_metric_uses_paper_scale() {
        let m = PopularityMetric::paper_pagerank();
        let scores = m.compute(&g());
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9, "per-page scale has mean 1");
    }

    #[test]
    fn indegree_metric() {
        let m = PopularityMetric::InDegree;
        assert_eq!(m.compute(&g()), vec![1.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn compute_many_is_one_compute_per_graph() {
        let graphs = [
            g(),
            CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
            CsrGraph::from_edges(3, &[(0, 1)]),
        ];
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        for m in [
            PopularityMetric::paper_pagerank(),
            PopularityMetric::InDegree,
        ] {
            let each: Vec<Vec<f64>> = graphs.iter().map(|g| m.compute(g)).collect();
            assert_eq!(m.compute_many(&refs), each, "{m:?}");
            assert!(m.compute_many(&[]).is_empty());
        }
    }

    #[test]
    fn default_is_paper_pagerank() {
        assert_eq!(
            PopularityMetric::default(),
            PopularityMetric::paper_pagerank()
        );
    }
}
