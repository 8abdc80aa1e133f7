//! Compressed-sparse-row directed graph.
//!
//! [`CsrGraph`] is the workhorse read-only representation: two CSR
//! adjacency structures (forward and transposed) built once from a
//! [`crate::GraphBuilder`] or an edge list. All ranking algorithms in
//! `qrank-rank` iterate over these contiguous arrays.

use crate::{GraphError, NodeId};

/// An immutable directed graph in compressed-sparse-row form.
///
/// Both out-adjacency and in-adjacency are stored so that push-style
/// (iterate over out-edges) and pull-style (iterate over in-edges)
/// algorithms are equally cheap. Neighbor lists are sorted and
/// deduplicated: this matches the web-graph setting, where a page either
/// links to another page or it does not (multiplicities carry no signal
/// for PageRank as the paper uses it).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    /// `out_offsets[u]..out_offsets[u+1]` indexes `out_targets`.
    out_offsets: Vec<usize>,
    out_targets: Vec<NodeId>,
    /// `in_offsets[v]..in_offsets[v+1]` indexes `in_sources`.
    in_offsets: Vec<usize>,
    in_sources: Vec<NodeId>,
}

impl CsrGraph {
    /// Build from a number of nodes and a list of directed edges.
    ///
    /// Edges are sorted and deduplicated; self-loops are kept (the random
    /// surfer may follow them, and the paper's PageRank formulation does
    /// not exclude them). Edges referencing nodes `>= num_nodes` grow the
    /// graph to include them.
    pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut n = num_nodes;
        for &(u, v) in edges {
            n = n.max(u as usize + 1).max(v as usize + 1);
        }
        let mut sorted: Vec<(NodeId, NodeId)> = edges.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Self::from_sorted_dedup_edges(n, &sorted)
    }

    /// Build from edges already sorted by `(src, dst)` and deduplicated.
    ///
    /// This is the fast path used by [`crate::GraphBuilder::build`].
    /// Debug builds assert the precondition.
    pub fn from_sorted_dedup_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must be sorted+dedup"
        );
        let mut out_offsets = vec![0usize; num_nodes + 1];
        let mut in_degree = vec![0usize; num_nodes];
        for &(u, v) in edges {
            out_offsets[u as usize + 1] += 1;
            in_degree[v as usize] += 1;
        }
        for i in 0..num_nodes {
            out_offsets[i + 1] += out_offsets[i];
        }
        let out_targets: Vec<NodeId> = edges.iter().map(|&(_, v)| v).collect();
        Self::from_sorted_rows(out_offsets, out_targets, &in_degree)
    }

    /// Build from finished out-adjacency arrays: `out_targets` holds every
    /// node's neighbor list, sorted ascending and deduplicated,
    /// `out_offsets[u]..out_offsets[u + 1]` indexes node `u`'s list, and
    /// `in_degree[v]` counts the lists that name `v` (every producer has a
    /// pass over its edges in which counting them is free). Only the
    /// transposed arrays are derived here, so producers that emit rows in
    /// order ([`crate::DynamicGraph::graph_at_full`],
    /// [`Self::restrict_relabel`]) skip the edge-pair detour. Debug builds
    /// assert the precondition.
    pub(crate) fn from_sorted_rows(
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
        in_degree: &[usize],
    ) -> Self {
        let num_nodes = in_degree.len();
        debug_assert_eq!(out_offsets.len(), num_nodes + 1);
        debug_assert_eq!(out_offsets[num_nodes], out_targets.len());
        debug_assert!(
            out_offsets
                .windows(2)
                .all(|w| out_targets[w[0]..w[1]].windows(2).all(|p| p[0] < p[1])),
            "rows must be sorted+dedup"
        );
        let mut in_offsets = vec![0usize; num_nodes + 1];
        for v in 0..num_nodes {
            in_offsets[v + 1] = in_offsets[v] + in_degree[v];
        }
        debug_assert_eq!(in_offsets[num_nodes], out_targets.len());
        // Iterating sources ascending fills each in-list already sorted.
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![0 as NodeId; out_targets.len()];
        for u in 0..num_nodes {
            for &v in &out_targets[out_offsets[u]..out_offsets[u + 1]] {
                let c = &mut cursor[v as usize];
                in_sources[*c] = u as NodeId;
                *c += 1;
            }
        }
        CsrGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of (deduplicated) directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbors of `u`, sorted ascending.
    ///
    /// # Panics
    /// Panics if `u >= num_nodes()`.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.out_targets[self.out_offsets[u]..self.out_offsets[u + 1]]
    }

    /// In-neighbors of `v` (pages linking to `v`), sorted ascending.
    ///
    /// # Panics
    /// Panics if `v >= num_nodes()`.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_neighbors(u).len()
    }

    /// In-degree of `v` — the page's raw link count, which the paper
    /// notes can substitute for PageRank in the quality estimator.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Feed the graph's structure into `h` in canonical order: node
    /// count, edge count, then the CSR out-offset and out-target arrays
    /// (the in-arrays are derived from these, so hashing them would add
    /// cost without adding information). Two graphs absorb the same word
    /// stream iff they are equal.
    pub fn fold_structure(&self, h: &mut crate::fingerprint::Fingerprinter) {
        h.word(self.num_nodes() as u64);
        h.word(self.num_edges() as u64);
        h.words(self.out_offsets.iter().map(|&o| o as u64));
        h.words(self.out_targets.iter().map(|&t| u64::from(t)));
    }

    /// True if edge `u -> v` exists (binary search over sorted neighbors).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        (u as usize) < self.num_nodes() && self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all edges in `(src, dst)` order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// The transposed graph (every edge reversed). O(E).
    pub fn transpose(&self) -> CsrGraph {
        CsrGraph {
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
        }
    }

    /// Induced subgraph on `keep` (sorted, deduplicated internally).
    ///
    /// Returns the subgraph plus the mapping `new id -> old id`. Nodes are
    /// relabeled densely in the order of the sorted `keep` list. This is
    /// the operation the paper applies when restricting each crawl to the
    /// 2.7M pages common to all four snapshots.
    ///
    /// This defensive entry point sanitizes `keep`; callers that already
    /// hold a sorted, deduplicated, in-range list (the snapshot crawler)
    /// should use [`Self::induced_subgraph_sorted`] and skip the copy.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (CsrGraph, Vec<NodeId>) {
        let mut keep: Vec<NodeId> = keep.to_vec();
        keep.sort_unstable();
        keep.dedup();
        keep.retain(|&u| (u as usize) < self.num_nodes());
        let sub = self.induced_subgraph_sorted(&keep);
        (sub, keep)
    }

    /// [`Self::induced_subgraph`] for a `keep` list that is already
    /// sorted ascending, deduplicated, and in range. Debug builds assert
    /// the precondition; release builds trust the caller (the crawler
    /// sorts the ids it captured).
    pub fn induced_subgraph_sorted(&self, keep: &[NodeId]) -> CsrGraph {
        debug_assert!(
            keep.windows(2).all(|w| w[0] < w[1]),
            "keep must be sorted+dedup"
        );
        debug_assert!(keep.last().is_none_or(|&u| (u as usize) < self.num_nodes()));
        // `keep` is the id prefix `0..k` and no edge touches a node
        // outside it (a crawl that captured every page born so far): the
        // subgraph is the same arrays with the isolated tail cut off.
        let k = keep.len();
        if keep.last().is_none_or(|&u| u as usize == k - 1)
            && self.out_offsets[k] == self.num_edges()
            && self.in_offsets[k] == self.num_edges()
        {
            return CsrGraph {
                out_offsets: self.out_offsets[..=k].to_vec(),
                out_targets: self.out_targets.clone(),
                in_offsets: self.in_offsets[..=k].to_vec(),
                in_sources: self.in_sources.clone(),
            };
        }
        let mut old_to_new: Vec<NodeId> = vec![NodeId::MAX; self.num_nodes()];
        for (new, &old) in keep.iter().enumerate() {
            old_to_new[old as usize] = new as NodeId;
        }
        self.restrict_relabel(&old_to_new, keep.len())
    }

    /// Fused restrict + relabel: the subgraph induced on the nodes with
    /// `old_to_new[old] != NodeId::MAX`, relabeled so old node `u` becomes
    /// `old_to_new[u]`. `old_to_new` must map the surviving nodes
    /// bijectively onto `0..new_n` (debug-asserted).
    ///
    /// This is the alignment hot path: it emits the output CSR directly —
    /// one counting pass over the surviving adjacency, one fill pass, a
    /// per-node sort of the (short) remapped neighbor lists — with no
    /// intermediate edge vector, no hashing, and no second relabel pass.
    /// The result is identical to composing [`Self::induced_subgraph`]
    /// with [`Self::relabel`], which the property suite proves
    /// edge-for-edge on arbitrary graphs and keep sets.
    pub fn restrict_relabel(&self, old_to_new: &[NodeId], new_n: usize) -> CsrGraph {
        let n = self.num_nodes();
        debug_assert_eq!(old_to_new.len(), n, "old_to_new must cover every node");
        // new id -> old id, for iterating survivors in output order.
        let mut old_of_new: Vec<NodeId> = vec![NodeId::MAX; new_n];
        for (old, &new) in old_to_new.iter().enumerate() {
            if new != NodeId::MAX {
                debug_assert!((new as usize) < new_n, "old_to_new out of range");
                debug_assert_eq!(old_of_new[new as usize], NodeId::MAX, "not injective");
                old_of_new[new as usize] = old as NodeId;
            }
        }
        debug_assert!(
            old_of_new.iter().all(|&o| o != NodeId::MAX),
            "old_to_new must be onto 0..new_n"
        );

        // Counting pass: surviving out-degree per new node.
        let mut out_offsets = vec![0usize; new_n + 1];
        for (new_u, &old_u) in old_of_new.iter().enumerate() {
            let survivors = self
                .out_neighbors(old_u)
                .iter()
                .filter(|&&v| old_to_new[v as usize] != NodeId::MAX)
                .count();
            out_offsets[new_u + 1] = survivors;
        }
        for i in 0..new_n {
            out_offsets[i + 1] += out_offsets[i];
        }

        // Fill pass: remap each surviving neighbor list and sort it in
        // place (the remap is not monotone when the new order differs
        // from the old, so per-list sorting restores the CSR invariant).
        let mut out_targets: Vec<NodeId> = vec![0; out_offsets[new_n]];
        let mut in_degree = vec![0usize; new_n];
        for (new_u, &old_u) in old_of_new.iter().enumerate() {
            let start = out_offsets[new_u];
            let mut cursor = start;
            for &old_v in self.out_neighbors(old_u) {
                let new_v = old_to_new[old_v as usize];
                if new_v != NodeId::MAX {
                    out_targets[cursor] = new_v;
                    cursor += 1;
                }
            }
            let list = &mut out_targets[start..cursor];
            list.sort_unstable();
            for &v in list.iter() {
                in_degree[v as usize] += 1;
            }
        }
        Self::from_sorted_rows(out_offsets, out_targets, &in_degree)
    }

    /// Relabel nodes by `perm`, where `perm[old] = new`. `perm` must be a
    /// permutation of `0..num_nodes`.
    pub fn relabel(&self, perm: &[NodeId]) -> Result<CsrGraph, GraphError> {
        let n = self.num_nodes();
        if perm.len() != n {
            return Err(GraphError::MisalignedSnapshots(format!(
                "permutation length {} != num_nodes {n}",
                perm.len()
            )));
        }
        let mut seen = vec![false; n];
        for &p in perm {
            if (p as usize) >= n || seen[p as usize] {
                return Err(GraphError::MisalignedSnapshots("not a permutation".into()));
            }
            seen[p as usize] = true;
        }
        let mut edges: Vec<(NodeId, NodeId)> = self
            .edges()
            .map(|(u, v)| (perm[u as usize], perm[v as usize]))
            .collect();
        edges.sort_unstable();
        Ok(CsrGraph::from_sorted_dedup_edges(n, &edges))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    }

    #[test]
    fn basic_shape() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.out_degree(3), 1);
        assert_eq!(g.in_degree(0), 1);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn edges_grow_node_count() {
        let g = CsrGraph::from_edges(0, &[(2, 5)]);
        assert_eq!(g.num_nodes(), 6);
        assert!(g.has_edge(2, 5));
        assert!(!g.has_edge(5, 2));
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loops_are_kept() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 0));
        assert_eq!(g.in_degree(0), 1);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(t.has_edge(v, u));
        }
        // double transpose is identity
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn edges_iterator_is_sorted_and_complete() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]);
    }

    #[test]
    fn induced_subgraph_relabels_densely() {
        let g = diamond();
        let (sub, map) = g.induced_subgraph(&[0, 1, 3]);
        assert_eq!(map, vec![0, 1, 3]);
        assert_eq!(sub.num_nodes(), 3);
        // surviving edges: 0->1, 1->3 (as 1->2), 3->0 (as 2->0)
        let edges: Vec<_> = sub.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn induced_subgraph_ignores_out_of_range_and_dups() {
        let g = diamond();
        let (sub, map) = g.induced_subgraph(&[3, 3, 0, 99]);
        assert_eq!(map, vec![0, 3]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.edges().collect::<Vec<_>>(), vec![(1, 0)]);
    }

    #[test]
    fn relabel_identity_and_rotation() {
        let g = diamond();
        let id: Vec<NodeId> = (0..4).collect();
        assert_eq!(g.relabel(&id).unwrap(), g);
        let rot: Vec<NodeId> = vec![1, 2, 3, 0];
        let r = g.relabel(&rot).unwrap();
        // edge 0->1 becomes 1->2
        assert!(r.has_edge(1, 2));
        assert_eq!(r.num_edges(), g.num_edges());
    }

    #[test]
    fn relabel_rejects_non_permutations() {
        let g = diamond();
        assert!(g.relabel(&[0, 0, 1, 2]).is_err());
        assert!(g.relabel(&[0, 1, 2]).is_err());
        assert!(g.relabel(&[0, 1, 2, 9]).is_err());
    }

    #[test]
    fn restrict_relabel_matches_induced_plus_relabel() {
        let g = diamond();
        // keep 3, 0, 1 in *that* order: old 3 -> new 0, old 0 -> new 1,
        // old 1 -> new 2 (an order the sorted induced_subgraph cannot
        // produce without a relabel pass).
        let mut old_to_new = vec![NodeId::MAX; 4];
        old_to_new[3] = 0;
        old_to_new[0] = 1;
        old_to_new[1] = 2;
        let fused = g.restrict_relabel(&old_to_new, 3);
        let (sub, sorted_old) = g.induced_subgraph(&[0, 1, 3]);
        assert_eq!(sorted_old, vec![0, 1, 3]);
        // permutation taking sorted order [0,1,3] to desired [3,0,1]
        let perm: Vec<NodeId> = vec![1, 2, 0];
        let reference = sub.relabel(&perm).unwrap();
        assert_eq!(fused, reference);
        // surviving edges: 0->1 (new 1->2), 1->3 (new 2->0), 3->0 (new 0->1)
        assert_eq!(
            fused.edges().collect::<Vec<_>>(),
            vec![(0, 1), (1, 2), (2, 0)]
        );
    }

    #[test]
    fn restrict_relabel_empty_and_full() {
        let g = diamond();
        let empty = g.restrict_relabel(&[NodeId::MAX; 4], 0);
        assert_eq!(empty.num_nodes(), 0);
        let id: Vec<NodeId> = (0..4).collect();
        assert_eq!(g.restrict_relabel(&id, 4), g);
    }

    #[test]
    fn induced_subgraph_sorted_matches_defensive_path() {
        let g = diamond();
        let keep = [0u32, 2, 3];
        let fast = g.induced_subgraph_sorted(&keep);
        let (slow, map) = g.induced_subgraph(&keep);
        assert_eq!(fast, slow);
        assert_eq!(map, keep);
    }

    #[test]
    fn restrict_relabel_keeps_self_loops() {
        let g = CsrGraph::from_edges(3, &[(0, 0), (0, 1), (1, 2)]);
        let mut old_to_new = vec![NodeId::MAX; 3];
        old_to_new[0] = 1;
        old_to_new[1] = 0;
        let r = g.restrict_relabel(&old_to_new, 2);
        assert!(r.has_edge(1, 1), "self-loop survives under relabel");
        assert!(r.has_edge(1, 0));
        assert_eq!(r.num_edges(), 2);
    }
}
