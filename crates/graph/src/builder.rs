//! Incremental graph construction.

use crate::{CsrGraph, NodeId};

/// A mutable accumulator of nodes and directed edges that finalizes into a
/// [`CsrGraph`].
///
/// Duplicate edges are tolerated and removed at [`GraphBuilder::build`]
/// time. The builder is the boundary between the *mutation* world (the
/// simulator adding links as users discover pages) and the *analysis*
/// world (PageRank over an immutable CSR structure).
///
/// ```
/// use qrank_graph::GraphBuilder;
/// let mut b = GraphBuilder::with_nodes(3);
/// b.add_edge(2, 0);
/// b.add_edge(0, 1);
/// b.add_edge(0, 1); // duplicate, collapsed on build
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder pre-sized with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: Vec::new(),
        }
    }

    /// Ensure the graph has at least `n` nodes.
    pub fn ensure_nodes(&mut self, n: usize) {
        self.num_nodes = self.num_nodes.max(n);
    }

    /// Add the directed edge `u -> v`, implicitly creating any missing
    /// nodes up to `max(u, v)`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.num_nodes = self.num_nodes.max(u as usize + 1).max(v as usize + 1);
        self.edges.push((u, v));
    }

    /// Add many edges at once.
    pub fn add_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: I) {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
    }

    /// Current number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Finalize into an immutable [`CsrGraph`], sorting and deduplicating
    /// edges. Consumes the builder.
    pub fn build(mut self) -> CsrGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        CsrGraph::from_sorted_dedup_edges(self.num_nodes, &self.edges)
    }
}

impl FromIterator<(NodeId, NodeId)> for GraphBuilder {
    fn from_iter<T: IntoIterator<Item = (NodeId, NodeId)>>(iter: T) -> Self {
        let mut b = GraphBuilder::new();
        b.add_edges(iter);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_build() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn with_nodes_keeps_isolated_nodes() {
        let g = GraphBuilder::with_nodes(7).build();
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn ensure_nodes_never_shrinks() {
        let mut b = GraphBuilder::with_nodes(5);
        b.ensure_nodes(3);
        assert_eq!(b.num_nodes(), 5);
        b.ensure_nodes(9);
        assert_eq!(b.num_nodes(), 9);
    }

    #[test]
    fn duplicates_collapse_on_build() {
        let mut b = GraphBuilder::new();
        for _ in 0..10 {
            b.add_edge(0, 1);
        }
        assert_eq!(b.edges.len(), 10);
        assert_eq!(b.build().num_edges(), 1);
    }

    #[test]
    fn from_iterator_collects() {
        let b: GraphBuilder = vec![(0, 1), (1, 2), (2, 0)].into_iter().collect();
        let g = b.build();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn unsorted_insertions_sort_on_build() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, 0);
        b.add_edge(0, 2);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (0, 2), (3, 0)]);
    }
}
