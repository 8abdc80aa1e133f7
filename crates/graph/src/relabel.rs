//! Degree-ordered node relabeling for cache locality.
//!
//! Pull-style PageRank sweeps read `x[in_neighbors(v)]` for every node.
//! On web-shaped graphs a small set of hubs supplies most in-edges; if
//! those hubs are scattered across the id space every sweep walks the
//! whole score vector in a random pattern. Relabeling nodes by
//! descending degree packs the hot rows (and the hot entries of `x`)
//! into a contiguous prefix, which is the classic "frequency ordering"
//! trick from the PageRank acceleration literature (Franceschet's survey
//! groups it with the solver-level speedups).
//!
//! The permutation is a pure renaming: scores computed on the relabeled
//! graph map back exactly through [`inverse_scores`], although
//! floating-point summation order (and hence low bits) differs from
//! solving in the original order.
//!
//! The solve path renames *virtually*: `qrank-rank`'s colored sweep
//! takes the graph and a [`Relabeling`] and builds its own pull layout
//! from them, in the renamed graph's order, without calling
//! [`CsrGraph::relabeled`] or [`inverse_scores`]. Those two remain the
//! reference that layout is tested against.

use crate::{CsrGraph, NodeId};

/// A node relabeling: `perm[old] = new`.
///
/// Produced by [`degree_order`]; apply with [`CsrGraph::relabeled`] and
/// undo score vectors with [`inverse_scores`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relabeling {
    /// `perm[old_id] = new_id`.
    pub perm: Vec<NodeId>,
}

impl Relabeling {
    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True when the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The identity relabeling over `n` nodes.
    pub fn identity(n: usize) -> Self {
        Relabeling {
            perm: (0..n as NodeId).collect(),
        }
    }

    /// New id of `old`.
    #[inline]
    pub fn new_id(&self, old: NodeId) -> NodeId {
        self.perm[old as usize]
    }
}

/// Permutation sorting nodes by descending total degree (in + out),
/// ties broken by ascending old id — fully deterministic.
///
/// A counting sort: one pass counts the nodes of each degree, and a
/// second deals out new ids, highest degree first, to the nodes in
/// ascending id order, which is the tie-break.
pub fn degree_order(g: &CsrGraph) -> Relabeling {
    let n = g.num_nodes();
    let degree = |u: usize| g.in_degree(u as NodeId) + g.out_degree(u as NodeId);
    let max = (0..n).map(degree).max().unwrap_or(0);
    // next[max - d]: the next new id for a node of degree d
    let mut next = vec![0usize; max + 2];
    for u in 0..n {
        next[max - degree(u) + 1] += 1;
    }
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
    let perm = (0..n)
        .map(|u| {
            let at = &mut next[max - degree(u)];
            *at += 1;
            (*at - 1) as NodeId
        })
        .collect();
    Relabeling { perm }
}

/// Map scores computed on the relabeled graph back to original node
/// order: `out[old] = relabeled_scores[perm[old]]`.
pub fn inverse_scores(relabeled_scores: &[f64], r: &Relabeling) -> Vec<f64> {
    assert_eq!(
        relabeled_scores.len(),
        r.len(),
        "score vector and permutation length differ"
    );
    r.perm
        .iter()
        .map(|&new| relabeled_scores[new as usize])
        .collect()
}

impl CsrGraph {
    /// The same graph with node ids renamed by `r` (`perm[old] = new`).
    ///
    /// A renaming is a restriction that drops nothing, so this is
    /// [`CsrGraph::restrict_relabel`] with every node surviving: rows are
    /// counted, placed and sorted by new id directly, with no edge list
    /// in between. Neighbor lists are sorted, so the result is the graph
    /// [`CsrGraph::from_edges`] builds from the mapped edge list —
    /// including the row order that fixes a solver's summation order.
    ///
    /// # Panics
    /// Panics if `r` is not a permutation of exactly this graph's nodes.
    pub fn relabeled(&self, r: &Relabeling) -> CsrGraph {
        assert_eq!(r.len(), self.num_nodes(), "permutation length mismatch");
        self.restrict_relabel(&r.perm, self.num_nodes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn star_plus_chain() -> CsrGraph {
        // node 9 is the hub (everyone links to it); 0..3 a chain
        let mut edges: Vec<(u32, u32)> = (0..9u32).map(|u| (u, 9)).collect();
        edges.extend([(0, 1), (1, 2), (2, 3), (9, 0)]);
        CsrGraph::from_edges(10, &edges)
    }

    #[test]
    fn hub_moves_to_front() {
        let g = star_plus_chain();
        let r = degree_order(&g);
        assert_eq!(r.new_id(9), 0, "highest-degree node gets id 0");
        // permutation is a bijection
        let mut seen = vec![false; r.len()];
        for &p in &r.perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    #[test]
    fn relabeled_graph_preserves_structure() {
        let g = star_plus_chain();
        let r = degree_order(&g);
        let h = g.relabeled(&r);
        assert_eq!(h.num_nodes(), g.num_nodes());
        assert_eq!(h.num_edges(), g.num_edges());
        for u in 0..g.num_nodes() as u32 {
            assert_eq!(g.out_degree(u), h.out_degree(r.new_id(u)));
            assert_eq!(g.in_degree(u), h.in_degree(r.new_id(u)));
            let mapped: std::collections::BTreeSet<u32> =
                g.out_neighbors(u).iter().map(|&v| r.new_id(v)).collect();
            let actual: std::collections::BTreeSet<u32> =
                h.out_neighbors(r.new_id(u)).iter().copied().collect();
            assert_eq!(mapped, actual);
        }
    }

    #[test]
    fn inverse_scores_round_trips() {
        let g = star_plus_chain();
        let r = degree_order(&g);
        let v: Vec<f64> = (0..10).map(|i| i as f64 * 0.5).collect();
        // into relabeled order: fwd[perm[old]] = v[old]
        let mut fwd = vec![0.0; v.len()];
        for (old, &x) in v.iter().enumerate() {
            fwd[r.new_id(old as u32) as usize] = x;
        }
        assert_eq!(inverse_scores(&fwd, &r), v);
    }

    #[test]
    fn identity_is_noop() {
        let g = star_plus_chain();
        let r = Relabeling::identity(g.num_nodes());
        assert_eq!(g.relabeled(&r), g);
        assert!(!r.is_empty());
        assert_eq!(Relabeling::identity(0).len(), 0);
    }

    #[test]
    #[should_panic]
    fn relabeling_by_a_non_permutation_panics() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        g.relabeled(&Relabeling {
            perm: vec![0, 0, 2],
        });
    }

    /// The comparison sort the counting sort replaced.
    fn sorted_degree_order(g: &CsrGraph) -> Relabeling {
        let n = g.num_nodes();
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        order.sort_by_key(|&u| {
            let d = g.in_degree(u) + g.out_degree(u);
            (std::cmp::Reverse(d), u)
        });
        let mut perm = vec![0 as NodeId; n];
        for (new, &old) in order.iter().enumerate() {
            perm[old as usize] = new as NodeId;
        }
        Relabeling { perm }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Ties, isolated nodes, self-loops (one edge, two degree) and the
        /// empty graph all come up.
        #[test]
        fn counting_sort_equals_the_comparison_sort(
            n in 0usize..40,
            edges in prop::collection::vec((0u32..40, 0u32..40), 0..120),
        ) {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .filter(|_| n > 0)
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            let g = CsrGraph::from_edges(n, &edges);
            prop_assert_eq!(degree_order(&g), sorted_degree_order(&g));
        }
    }

    #[test]
    fn deterministic_ties_by_id() {
        // two nodes with equal degree keep their relative order
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let r = degree_order(&g);
        assert!(r.new_id(0) < r.new_id(2));
        assert!(r.new_id(1) < r.new_id(3));
    }
}
