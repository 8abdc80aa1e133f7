//! Graph traversal: BFS and weakly connected components.
//!
//! The snapshot crawler in `qrank-sim` mirrors a site by breadth-first
//! search from its root page, exactly as the paper's crawler "downloaded
//! pages from each site until we could not reach any more pages".

use std::collections::VecDeque;

use crate::{CsrGraph, NodeId};

/// Buffers for repeated breadth-first traversals of graphs of one size.
///
/// A traversal marks only the nodes it reaches, and the next one starts
/// by un-marking exactly those, so `k` traversals cost O(Σ reach), not
/// O(k · n) — what the snapshot crawler needs when it mirrors many small
/// sites of one big graph.
#[derive(Debug)]
pub struct BfsScratch {
    visited: Vec<bool>,
    order: Vec<NodeId>,
    queue: VecDeque<NodeId>,
}

impl BfsScratch {
    /// Buffers for graphs of `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        BfsScratch {
            visited: vec![false; num_nodes],
            order: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// Breadth-first order of the nodes reachable from any of `starts`,
    /// each node once, visiting at most `limit` nodes. Out-of-range and
    /// repeated starts are ignored. The slice is valid until the next
    /// traversal; it is shorter than `limit` iff the queue ran dry, i.e.
    /// iff it is the full reachable set.
    pub fn bfs(&mut self, g: &CsrGraph, starts: &[NodeId], limit: usize) -> &[NodeId] {
        let BfsScratch {
            visited,
            order,
            queue,
        } = self;
        assert_eq!(
            visited.len(),
            g.num_nodes(),
            "scratch sized for another graph"
        );
        // Forget the previous traversal: what it marked is what it
        // returned plus, if the limit cut it short, what was still queued.
        for u in order.drain(..).chain(queue.drain(..)) {
            visited[u as usize] = false;
        }
        if limit == 0 {
            return order;
        }
        for &s in starts {
            if (s as usize) < visited.len() && !visited[s as usize] {
                visited[s as usize] = true;
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            order.push(u);
            if order.len() == limit {
                break;
            }
            for &v in g.out_neighbors(u) {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
        order
    }
}

/// Breadth-first order of nodes reachable from `start` (inclusive),
/// visiting at most `limit` nodes. `limit = usize::MAX` for unbounded.
///
/// This mirrors the paper's per-site crawl cap ("the maximum of 200,000
/// pages"): traversal stops once `limit` pages have been discovered.
pub fn bfs_limited(g: &CsrGraph, start: NodeId, limit: usize) -> Vec<NodeId> {
    let mut scratch = BfsScratch::new(g.num_nodes());
    scratch.bfs(g, &[start], limit);
    scratch.order
}

/// Breadth-first order of all nodes reachable from `start`.
pub fn bfs(g: &CsrGraph, start: NodeId) -> Vec<NodeId> {
    bfs_limited(g, start, usize::MAX)
}

/// Weakly connected components: `component[u]` is a dense component index,
/// and the return also carries the number of components.
pub fn weakly_connected_components(g: &CsrGraph) -> (Vec<u32>, usize) {
    let n = g.num_nodes();
    let mut comp = vec![u32::MAX; n];
    let mut num = 0u32;
    let mut queue = VecDeque::new();
    for s in 0..n {
        if comp[s] != u32::MAX {
            continue;
        }
        comp[s] = num;
        queue.push_back(s as NodeId);
        while let Some(u) = queue.pop_front() {
            for &v in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = num;
                    queue.push_back(v);
                }
            }
        }
        num += 1;
    }
    (comp, num as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn chain(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::with_nodes(n);
        for i in 0..n.saturating_sub(1) {
            b.add_edge(i as NodeId, i as NodeId + 1);
        }
        b.build()
    }

    #[test]
    fn bfs_visits_in_level_order() {
        // 0 -> {1,2}, 1 -> 3, 2 -> 3
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(bfs(&g, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_respects_limit() {
        let g = chain(10);
        assert_eq!(bfs_limited(&g, 0, 3), vec![0, 1, 2]);
        assert!(bfs_limited(&g, 0, 0).is_empty());
        assert_eq!(bfs_limited(&g, 0, 100).len(), 10);
    }

    #[test]
    fn bfs_out_of_range_start_is_empty() {
        let g = chain(3);
        assert!(bfs(&g, 99).is_empty());
    }

    #[test]
    fn bfs_does_not_follow_reverse_edges() {
        let g = chain(5);
        assert_eq!(bfs(&g, 2), vec![2, 3, 4]);
    }

    #[test]
    fn scratch_bfs_unions_starts() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        let mut scratch = BfsScratch::new(g.num_nodes());
        let mut got = scratch.bfs(&g, &[0, 4], usize::MAX).to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 4, 5]);
        // duplicate and out-of-range starts are ignored
        assert_eq!(scratch.bfs(&g, &[0, 0, 99], usize::MAX), &[0, 1]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_traversals() {
        // two components and a tail; traversals alternate between capped
        // (nodes left marked in the queue) and exhaustive
        let g = CsrGraph::from_edges(
            9,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 4),
                (6, 7),
            ],
        );
        let mut scratch = BfsScratch::new(g.num_nodes());
        for limit in [1, 2, 3, usize::MAX, 0, 2] {
            for start in 0..9 {
                assert_eq!(
                    scratch.bfs(&g, &[start], limit),
                    bfs_limited(&g, start, limit),
                    "start {start}, limit {limit}"
                );
            }
        }
        assert!(scratch.bfs(&g, &[], usize::MAX).is_empty());
        assert!(
            scratch.visited.iter().all(|&v| !v),
            "a mark outlived its traversal"
        );
    }

    #[test]
    fn wcc_counts_components() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (comp, n) = weakly_connected_components(&g);
        assert_eq!(n, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[5], comp[0]);
        assert_ne!(comp[5], comp[3]);
    }

    #[test]
    fn wcc_ignores_edge_direction() {
        // 0 <- 1, so with direction 0 reaches nothing, but weakly connected
        let g = CsrGraph::from_edges(2, &[(1, 0)]);
        let (_, n) = weakly_connected_components(&g);
        assert_eq!(n, 1);
    }

    #[test]
    fn wcc_empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        let (comp, n) = weakly_connected_components(&g);
        assert!(comp.is_empty());
        assert_eq!(n, 0);
    }
}
