//! Triangle counting and clustering coefficients.
//!
//! Web-graph locality: pages within a site link densely among themselves
//! (high clustering), cross-site links are sparse. Together with the
//! power-law degree distribution ([`crate::stats`]) and small diameter
//! ([`crate::distance`]), the clustering coefficient is the standard
//! triple used to check that a synthetic web is web-like. Computed on
//! the *underlying undirected* graph, as is conventional.

use crate::{CsrGraph, NodeId};

/// Undirected neighbor sets (out ∪ in, self-loops removed), sorted.
fn undirected_neighbors(g: &CsrGraph) -> Vec<Vec<NodeId>> {
    (0..g.num_nodes() as NodeId)
        .map(|u| {
            let mut nbrs: Vec<NodeId> = g
                .out_neighbors(u)
                .iter()
                .chain(g.in_neighbors(u))
                .copied()
                .filter(|&v| v != u)
                .collect();
            nbrs.sort_unstable();
            nbrs.dedup();
            nbrs
        })
        .collect()
}

/// Number of triangles each node participates in (undirected).
pub fn triangles_per_node(g: &CsrGraph) -> Vec<u64> {
    let nbrs = undirected_neighbors(g);
    let mut count = vec![0u64; g.num_nodes()];
    for (u, nu) in nbrs.iter().enumerate() {
        for &v in nu {
            let v = v as usize;
            if v <= u {
                continue;
            }
            // common neighbors w > v close triangles counted once
            let nv = &nbrs[v];
            let (mut i, mut j) = (0, 0);
            while i < nu.len() && j < nv.len() {
                match nu[i].cmp(&nv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let w = nu[i] as usize;
                        if w > v {
                            count[u] += 1;
                            count[v] += 1;
                            count[w] += 1;
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    count
}

/// Local clustering coefficient per node: triangles through the node
/// divided by `deg·(deg−1)/2` possible; 0 for degree < 2.
pub fn local_clustering(g: &CsrGraph) -> Vec<f64> {
    let nbrs = undirected_neighbors(g);
    let tri = triangles_per_node(g);
    nbrs.iter()
        .zip(&tri)
        .map(|(n, &t)| {
            let d = n.len() as f64;
            if d < 2.0 {
                0.0
            } else {
                2.0 * t as f64 / (d * (d - 1.0))
            }
        })
        .collect()
}

/// Average local clustering coefficient (Watts–Strogatz style); 0 for an
/// empty graph.
pub fn average_clustering(g: &CsrGraph) -> f64 {
    let c = local_clustering(g);
    if c.is_empty() {
        0.0
    } else {
        c.iter().sum::<f64>() / c.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total number of (undirected) triangles.
    fn total_triangles(g: &CsrGraph) -> u64 {
        triangles_per_node(g).iter().sum::<u64>() / 3
    }

    #[test]
    fn triangle_on_directed_cycle() {
        // directed 3-cycle is one undirected triangle
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(total_triangles(&g), 1);
        assert_eq!(triangles_per_node(&g), vec![1, 1, 1]);
        assert_eq!(local_clustering(&g), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn reciprocal_edges_do_not_double_count() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]);
        assert_eq!(total_triangles(&g), 1);
    }

    #[test]
    fn star_has_no_triangles() {
        let g = CsrGraph::from_edges(5, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        assert_eq!(total_triangles(&g), 0);
        assert_eq!(average_clustering(&g), 0.0);
    }

    #[test]
    fn square_with_diagonal() {
        // 0-1-2-3-0 plus diagonal 0-2: triangles {0,1,2} and {0,2,3}
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        assert_eq!(total_triangles(&g), 2);
        let tri = triangles_per_node(&g);
        assert_eq!(tri, vec![2, 1, 2, 1]);
        // node 1 has degree 2, one triangle: c = 1
        let c = local_clustering(&g);
        assert!((c[1] - 1.0).abs() < 1e-12);
        // node 0 has degree 3, two triangles: c = 2/3
        assert!((c[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn self_loops_ignored() {
        let g = CsrGraph::from_edges(3, &[(0, 0), (0, 1), (1, 2), (2, 0)]);
        assert_eq!(total_triangles(&g), 1);
    }

    #[test]
    fn empty_and_tiny() {
        assert_eq!(total_triangles(&CsrGraph::from_edges(0, &[])), 0);
        assert_eq!(average_clustering(&CsrGraph::from_edges(0, &[])), 0.0);
        assert_eq!(total_triangles(&CsrGraph::from_edges(2, &[(0, 1)])), 0);
    }

    #[test]
    fn complete_graph_k5() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in 0..5u32 {
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        let g = CsrGraph::from_edges(5, &edges);
        // C(5,3) = 10 triangles
        assert_eq!(total_triangles(&g), 10);
        assert!(local_clustering(&g)
            .iter()
            .all(|&c| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn site_structured_web_is_clustered() {
        use crate::generators::{erdos_renyi_gnm, site_structured, SiteWebParams};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let web = site_structured(
            &SiteWebParams {
                num_sites: 20,
                min_pages: 10,
                max_pages: 40,
                intra_links_per_page: 3.0,
                cross_links_per_page: 0.2,
            },
            &mut rng,
        );
        let n = web.graph.num_nodes();
        let m = web.graph.num_edges();
        let random = erdos_renyi_gnm(n, m, &mut rng);
        let c_web = average_clustering(&web.graph);
        let c_rand = average_clustering(&random);
        assert!(
            c_web > 2.0 * c_rand,
            "site structure should cluster: web {c_web} vs random {c_rand}"
        );
    }
}
