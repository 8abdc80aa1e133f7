//! Power-iteration PageRank — the reference solver — and the helpers the
//! three kernels share, among them their one start: the uniform vector.

use qrank_graph::CsrGraph;

use crate::{PageRankConfig, ScoreScale};

/// Result of a PageRank computation.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankResult {
    /// Per-node scores, on the scale requested by the config.
    pub scores: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
    /// L1 residual after each iteration (probability scale); useful for
    /// convergence studies.
    pub residuals: Vec<f64>,
}

impl PageRankResult {
    /// An unsolved result over `n` nodes, for a solver to fill in place.
    pub(crate) fn unsolved(n: usize) -> Self {
        PageRankResult {
            scores: vec![0.0; n],
            iterations: 0,
            converged: false,
            residuals: Vec::new(),
        }
    }

    /// Nodes sorted by descending score (ties by ascending id).
    pub fn ranking(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.scores.len() as u32).collect();
        order.sort_by(|&a, &b| {
            self.scores[b as usize]
                .partial_cmp(&self.scores[a as usize])
                .expect("PageRank scores are never NaN")
                .then(a.cmp(&b))
        });
        order
    }
}

/// One pull-style power iteration step.
///
/// `x` must be a probability vector; writes the next iterate into `next`
/// and returns the L1 residual.
fn step(
    g: &CsrGraph,
    config: &PageRankConfig,
    inv_out_degree: &[f64],
    x: &[f64],
    next: &mut [f64],
) -> f64 {
    let n = g.num_nodes();
    let alpha = config.follow_prob;
    let teleport = (1.0 - alpha) / n as f64;

    // Mass sitting on dangling nodes this iteration; footnote 2 of the
    // paper: a page without out-links links to every page.
    let dangling_mass: f64 = (0..n)
        .filter(|&u| inv_out_degree[u] == 0.0)
        .map(|u| x[u])
        .sum();
    let dangling_share = alpha * dangling_mass / n as f64;

    for (v, slot) in next.iter_mut().enumerate() {
        let mut acc = 0.0;
        for &u in g.in_neighbors(v as u32) {
            acc += x[u as usize] * inv_out_degree[u as usize];
        }
        *slot = teleport + dangling_share + alpha * acc;
    }

    x.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum()
}

/// Renormalize to the probability simplex: the Gauss–Seidel sweeps do
/// not preserve it en route.
pub(crate) fn renormalize(scores: &mut [f64]) {
    let sum: f64 = scores.iter().sum();
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in scores.iter_mut() {
            *v *= inv;
        }
    }
}

/// Fill `x` with the solvers' one starting distribution, uniform: the
/// paper's "initial value 1 per page" on the probability scale.
pub(crate) fn start_vector(x: &mut [f64]) {
    x.fill(1.0 / x.len() as f64);
}

/// `1 / out-degree` of `u`, `0.0` for a dangling page.
pub(crate) fn inv_out_degree(g: &CsrGraph, u: u32) -> f64 {
    let d = g.out_degree(u);
    if d == 0 {
        0.0
    } else {
        1.0 / d as f64
    }
}

pub(crate) fn inv_out_degrees(g: &CsrGraph) -> Vec<f64> {
    (0..g.num_nodes() as u32)
        .map(|u| inv_out_degree(g, u))
        .collect()
}

pub(crate) fn apply_scale(scores: &mut [f64], scale: ScoreScale) {
    if scale == ScoreScale::PerPage {
        let n = scores.len() as f64;
        for s in scores.iter_mut() {
            *s *= n;
        }
    }
}

/// Compute PageRank by power iteration, from the uniform vector.
///
/// Returns uniform scores for an empty graph (trivially converged).
pub fn pagerank(g: &CsrGraph, config: &PageRankConfig) -> PageRankResult {
    let _span = qrank_obs::span!("rank.power");
    config.validate();
    let n = g.num_nodes();
    if n == 0 {
        return PageRankResult {
            scores: Vec::new(),
            iterations: 0,
            converged: true,
            residuals: Vec::new(),
        };
    }
    let inv = inv_out_degrees(g);
    let mut x = vec![0.0; n];
    start_vector(&mut x);
    let mut next = vec![0.0; n];
    let mut residuals = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    while iterations < config.max_iterations {
        let r = step(g, config, &inv, &x, &mut next);
        std::mem::swap(&mut x, &mut next);
        iterations += 1;
        residuals.push(r);
        if r < config.tolerance {
            converged = true;
            break;
        }
    }
    apply_scale(&mut x, config.scale);
    qrank_obs::convergence::record_solve("power", n, iterations, converged, &residuals);
    PageRankResult {
        scores: x,
        iterations,
        converged,
        residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_graph::GraphBuilder;

    fn cycle(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::with_nodes(n);
        for i in 0..n {
            b.add_edge(i as u32, ((i + 1) % n) as u32);
        }
        b.build()
    }

    #[test]
    fn empty_graph() {
        let r = pagerank(&CsrGraph::from_edges(0, &[]), &PageRankConfig::default());
        assert!(r.scores.is_empty());
        assert!(r.converged);
    }

    #[test]
    fn single_node_gets_all_mass() {
        let r = pagerank(&CsrGraph::from_edges(1, &[]), &PageRankConfig::default());
        assert!((r.scores[0] - 1.0).abs() < 1e-9);
        assert!(r.converged);
    }

    #[test]
    fn cycle_is_uniform() {
        let g = cycle(5);
        let r = pagerank(&g, &PageRankConfig::default());
        for &s in &r.scores {
            assert!((s - 0.2).abs() < 1e-9, "score {s}");
        }
        assert!(r.converged);
    }

    #[test]
    fn scores_sum_to_one() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 2), (4, 2)]);
        let r = pagerank(&g, &PageRankConfig::default());
        let sum: f64 = r.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(r.scores.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn scores_sum_to_one_with_dangling_nodes() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 2)]); // 2,4 dangling
        let r = pagerank(&g, &PageRankConfig::default());
        let sum: f64 = r.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-8, "sum {sum}");
    }

    #[test]
    fn more_inlinks_more_rank() {
        // Symmetric sources 2,3,4 (teleport-fed only, out-degree 1):
        // two of them endorse node 0, one endorses node 1.
        let g = CsrGraph::from_edges(5, &[(2, 0), (3, 0), (4, 1)]);
        let r = pagerank(&g, &PageRankConfig::default());
        assert!(r.scores[0] > r.scores[1]);
        assert!(
            (r.scores[2] - r.scores[4]).abs() < 1e-12,
            "sources are symmetric"
        );
    }

    #[test]
    fn star_center_dominates() {
        let mut b = GraphBuilder::with_nodes(11);
        for i in 1..=10u32 {
            b.add_edge(i, 0);
            b.add_edge(0, i); // center links back so it's not dangling
        }
        let r = pagerank(&b.build(), &PageRankConfig::default());
        for i in 1..=10 {
            assert!(r.scores[0] > r.scores[i]);
        }
        let ranking = r.ranking();
        assert_eq!(ranking[0], 0);
    }

    #[test]
    fn zero_alpha_is_uniform() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let cfg = PageRankConfig {
            follow_prob: 0.0,
            ..Default::default()
        };
        let r = pagerank(&g, &cfg);
        for &s in &r.scores {
            assert!((s - 0.25).abs() < 1e-12);
        }
        assert!(r.iterations <= 2);
    }

    #[test]
    fn per_page_scale_multiplies_by_n() {
        let g = cycle(8);
        let prob = pagerank(&g, &PageRankConfig::default());
        let per_page = pagerank(
            &g,
            &PageRankConfig {
                scale: ScoreScale::PerPage,
                ..Default::default()
            },
        );
        for (a, b) in prob.scores.iter().zip(&per_page.scores) {
            assert!((a * 8.0 - b).abs() < 1e-9);
        }
        // paper scale: mean score is 1
        let mean: f64 = per_page.scores.iter().sum::<f64>() / 8.0;
        assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn residuals_decrease_geometrically() {
        let g = CsrGraph::from_edges(
            10,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0),
                (5, 0),
                (6, 1),
                (7, 2),
                (8, 3),
                (9, 4),
            ],
        );
        let r = pagerank(&g, &PageRankConfig::default());
        assert!(r.converged);
        // residual roughly shrinks by alpha each iteration
        for w in r.residuals.windows(2).take(20) {
            if w[0] > 1e-12 {
                assert!(w[1] <= w[0] * 0.95 + 1e-12, "{} -> {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn iteration_cap_respected() {
        // Asymmetric graph (a cycle would start at its own fixed point
        // and converge immediately).
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (0, 2), (3, 0), (4, 3)]);
        let cfg = PageRankConfig {
            max_iterations: 3,
            tolerance: 1e-30,
            ..Default::default()
        };
        let r = pagerank(&g, &cfg);
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
        assert_eq!(r.residuals.len(), 3);
    }

    #[test]
    fn ranking_breaks_ties_by_id() {
        let g = cycle(4);
        let r = pagerank(&g, &PageRankConfig::default());
        assert_eq!(r.ranking(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn disconnected_components_share_mass() {
        // two disjoint 2-cycles; each component gets half the mass
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 2)]);
        let r = pagerank(&g, &PageRankConfig::default());
        for &s in &r.scores {
            assert!((s - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_style_matches_manual_paper_formula_on_small_graph() {
        // Solve the paper's equation system directly on a 3-node graph:
        // PR(p) = d + (1-d) * sum(PR(q)/c_q), PR initialized to 1.
        // Graph: 0->1, 1->2, 2->0, 0->2.
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2), (2, 0)]);
        let d = 0.15;
        // manual fixed-point iteration of the paper's formula
        let mut pr = [1.0f64; 3];
        for _ in 0..500 {
            let next = [
                d + (1.0 - d) * pr[2] / 1.0,
                d + (1.0 - d) * (pr[0] / 2.0),
                d + (1.0 - d) * (pr[0] / 2.0 + pr[1] / 1.0),
            ];
            pr = next;
        }
        let r = pagerank(&g, &PageRankConfig::paper_style(d));
        for (mine, theirs) in r.scores.iter().zip(pr.iter()) {
            assert!(
                (mine - theirs).abs() < 1e-6,
                "paper-style mismatch: {mine} vs {theirs}"
            );
        }
    }
}
