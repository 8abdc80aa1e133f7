//! Random graph generators.
//!
//! Used to (a) seed the web-evolution simulator with a plausible initial
//! web, and (b) stress-test ranking algorithms on graphs with known
//! structure. The Barabási–Albert model generates the power-law in-degree
//! distribution the paper's related work documents for the real web;
//! [`site_structured`] mirrors the paper's corpus of 154 distinct sites
//! with dense intra-site and sparse cross-site linkage.

use rand::Rng;

use crate::{CsrGraph, GraphBuilder, NodeId};

/// G(n, m): exactly `m` distinct directed edges chosen uniformly among all
/// `n*(n-1)` non-self-loop pairs.
///
/// # Panics
/// Panics if `m` exceeds the number of possible edges.
pub fn erdos_renyi_gnm<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> CsrGraph {
    let possible = n.saturating_mul(n.saturating_sub(1));
    assert!(
        m <= possible,
        "requested {m} edges but only {possible} possible"
    );
    let mut chosen = std::collections::HashSet::with_capacity(m * 2);
    let mut builder = GraphBuilder::with_nodes(n);
    while chosen.len() < m {
        let u = rng.random_range(0..n) as NodeId;
        let v = rng.random_range(0..n) as NodeId;
        if u != v && chosen.insert((u, v)) {
            builder.add_edge(u, v);
        }
    }
    builder.build()
}

/// Barabási–Albert preferential attachment: starts from a `m0 = m + 1`
/// node seed clique-ish core, then each new node links to `m` existing
/// nodes chosen with probability proportional to their current in-degree
/// plus one (the +1 gives brand-new pages a nonzero chance, exactly the
/// discovery problem the paper studies).
///
/// Produces a directed graph where new pages link to old popular pages —
/// the "rich-get-richer" regime.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> CsrGraph {
    assert!(m >= 1, "m must be >= 1");
    let m0 = m + 1;
    assert!(n >= m0, "need at least m+1 = {m0} nodes, got {n}");
    let mut builder = GraphBuilder::with_nodes(n);
    // `targets` holds one entry per (in-degree + 1) unit of attachment mass.
    let mut mass: Vec<NodeId> = (0..m0 as NodeId).collect();
    // Seed: ring among the first m0 nodes.
    for i in 0..m0 {
        let j = (i + 1) % m0;
        builder.add_edge(i as NodeId, j as NodeId);
        mass.push(j as NodeId);
    }
    for new in m0..n {
        // Small Vec instead of HashSet: `mass` grows in insertion order,
        // which must be deterministic for a fixed RNG seed.
        let mut picked: Vec<NodeId> = Vec::with_capacity(m);
        while picked.len() < m {
            let t = mass[rng.random_range(0..mass.len())];
            if t != new as NodeId && !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            builder.add_edge(new as NodeId, t);
            mass.push(t);
        }
        mass.push(new as NodeId); // the +1 baseline mass for the new node
    }
    builder.build()
}

/// A web of distinct sites, as in the paper's 154-site corpus.
#[derive(Debug, Clone)]
pub struct SiteWeb {
    /// The link graph.
    pub graph: CsrGraph,
    /// `site_of[node]` = site index.
    pub site_of: Vec<u32>,
    /// Root (home page) node of each site; crawls start here.
    pub roots: Vec<NodeId>,
}

/// Parameters for [`site_structured`].
#[derive(Debug, Clone, Copy)]
pub struct SiteWebParams {
    /// Number of sites (the paper uses 154).
    pub num_sites: usize,
    /// Pages per site, lower bound (inclusive).
    pub min_pages: usize,
    /// Pages per site, upper bound (inclusive).
    pub max_pages: usize,
    /// Extra random intra-site links per page beyond the navigation tree.
    pub intra_links_per_page: f64,
    /// Cross-site links per page (sparse in real webs).
    pub cross_links_per_page: f64,
}

impl Default for SiteWebParams {
    fn default() -> Self {
        SiteWebParams {
            num_sites: 154,
            min_pages: 20,
            max_pages: 200,
            intra_links_per_page: 2.0,
            cross_links_per_page: 0.3,
        }
    }
}

/// Generate a site-structured web: each site is a navigation tree from
/// its root (every page reachable from the root, as a crawler requires),
/// plus random intra-site links, plus sparse cross-site links that tend
/// to target site roots (deep links are rarer than home-page links).
pub fn site_structured<R: Rng + ?Sized>(params: &SiteWebParams, rng: &mut R) -> SiteWeb {
    assert!(params.num_sites >= 1, "need at least one site");
    assert!(params.min_pages >= 1 && params.min_pages <= params.max_pages);
    let mut builder = GraphBuilder::new();
    let mut site_of = Vec::new();
    let mut roots = Vec::new();
    let mut site_ranges: Vec<(NodeId, NodeId)> = Vec::new(); // [start, end)

    for site in 0..params.num_sites {
        let pages = rng.random_range(params.min_pages..=params.max_pages);
        let start = builder.num_nodes() as NodeId;
        builder.ensure_nodes(start as usize + pages);
        roots.push(start);
        site_ranges.push((start, start + pages as NodeId));
        site_of.extend(std::iter::repeat_n(site as u32, pages));
        // Navigation tree: each page i>0 is linked from a random earlier
        // page of the same site, so BFS from the root reaches everything.
        for i in 1..pages {
            let parent = start + rng.random_range(0..i) as NodeId;
            builder.add_edge(parent, start + i as NodeId);
            // ...and pages link back up to the root (common nav pattern).
            builder.add_edge(start + i as NodeId, start);
        }
        // Extra intra-site links.
        let extra = (pages as f64 * params.intra_links_per_page).round() as usize;
        for _ in 0..extra {
            let u = start + rng.random_range(0..pages) as NodeId;
            let v = start + rng.random_range(0..pages) as NodeId;
            if u != v {
                builder.add_edge(u, v);
            }
        }
    }
    // Cross-site links.
    let total_pages = builder.num_nodes();
    for (site, &(start, end)) in site_ranges.iter().enumerate() {
        let pages = (end - start) as usize;
        let cross = (pages as f64 * params.cross_links_per_page).round() as usize;
        for _ in 0..cross {
            let u = start + rng.random_range(0..pages) as NodeId;
            let target_site = rng.random_range(0..params.num_sites);
            if target_site == site {
                continue;
            }
            // 70% of cross links hit the target site's home page.
            let v = if rng.random::<f64>() < 0.7 {
                roots[target_site]
            } else {
                let (s, e) = site_ranges[target_site];
                s + rng.random_range(0..(e - s)) as NodeId
            };
            builder.add_edge(u, v);
        }
    }
    debug_assert_eq!(site_of.len(), total_pages);
    SiteWeb {
        graph: builder.build(),
        site_of,
        roots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{degree_power_law_alpha, DegreeKind};
    use crate::traversal::bfs;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gnm_has_exact_edge_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi_gnm(50, 200, &mut rng);
        assert_eq!(g.num_nodes(), 50);
        assert_eq!(g.num_edges(), 200);
        assert!(g.edges().all(|(u, v)| u != v));
    }

    #[test]
    #[should_panic(expected = "possible")]
    fn gnm_rejects_impossible_edge_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = erdos_renyi_gnm(3, 100, &mut rng);
    }

    #[test]
    fn ba_every_new_node_has_m_out_links() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = 3;
        let g = barabasi_albert(200, m, &mut rng);
        for u in (m + 1)..200 {
            assert_eq!(g.out_degree(u as NodeId), m, "node {u}");
        }
        assert!(g.edges().all(|(u, v)| u != v));
    }

    #[test]
    fn ba_indegree_is_heavy_tailed() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = barabasi_albert(3000, 2, &mut rng);
        let alpha = degree_power_law_alpha(&g, DegreeKind::In, 3).unwrap();
        // BA gives alpha ~ 3; accept a broad band, we only need heavy tail.
        assert!(alpha > 1.5 && alpha < 4.5, "alpha = {alpha}");
    }

    #[test]
    #[should_panic(expected = "m+1")]
    fn ba_rejects_too_few_nodes() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = barabasi_albert(2, 3, &mut rng);
    }

    #[test]
    fn site_web_is_crawlable_from_roots() {
        let mut rng = StdRng::seed_from_u64(9);
        let params = SiteWebParams {
            num_sites: 10,
            min_pages: 5,
            max_pages: 30,
            intra_links_per_page: 1.0,
            cross_links_per_page: 0.2,
        };
        let web = site_structured(&params, &mut rng);
        assert_eq!(web.roots.len(), 10);
        assert_eq!(web.site_of.len(), web.graph.num_nodes());
        // every page of site s is reachable from root s
        for (s, &root) in web.roots.iter().enumerate() {
            let reached: std::collections::HashSet<_> = bfs(&web.graph, root).into_iter().collect();
            for (page, &site) in web.site_of.iter().enumerate() {
                if site == s as u32 {
                    assert!(
                        reached.contains(&(page as NodeId)),
                        "site {s} page {page} unreachable from its root"
                    );
                }
            }
        }
    }

    #[test]
    fn site_web_sizes_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(10);
        let params = SiteWebParams {
            num_sites: 8,
            min_pages: 3,
            max_pages: 7,
            ..Default::default()
        };
        let web = site_structured(&params, &mut rng);
        let mut counts = vec![0usize; 8];
        for &s in &web.site_of {
            counts[s as usize] += 1;
        }
        for c in counts {
            assert!((3..=7).contains(&c), "site size {c}");
        }
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let g1 = barabasi_albert(100, 2, &mut StdRng::seed_from_u64(42));
        let g2 = barabasi_albert(100, 2, &mut StdRng::seed_from_u64(42));
        assert_eq!(g1, g2);
    }
}
