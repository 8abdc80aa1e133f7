//! Snapshot crawler: the paper's measurement instrument.
//!
//! Section 8.1: "we downloaded pages on 154 Web sites four times over the
//! period of six months ... We downloaded pages from each site until we
//! could not reach any more pages from the site or we downloaded the
//! maximum of 200,000 pages." The crawler reproduces that protocol
//! against a [`crate::World`]: breadth-first mirror of each site from its
//! root following the link graph *as of the snapshot time*, a per-site
//! page cap, and assembly into an externally-identified
//! [`qrank_graph::Snapshot`].

use qrank_graph::traversal::BfsScratch;
use qrank_graph::{CsrGraph, GraphError, NodeId, PageId, PageSet, Snapshot, SnapshotSeries};

use crate::World;

/// Capture times for a snapshot study.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotSchedule {
    /// Times (in simulation units, months in the paper) of each capture.
    pub times: Vec<f64>,
}

impl SnapshotSchedule {
    /// The paper's Figure 4 timeline, in months relative to the first
    /// snapshot: t1 = Dec 2002 (4th week), t2 = Jan 2003 (3rd week),
    /// t3 = Feb 2003 (3rd week), t4 = Jun 2003 (4th week) — roughly
    /// 0, 1, 2, and 6 months.
    pub fn paper_timeline(start: f64) -> Self {
        SnapshotSchedule {
            times: vec![start, start + 1.0, start + 2.0, start + 6.0],
        }
    }

    /// Evenly spaced captures.
    pub fn uniform(start: f64, interval: f64, count: usize) -> Self {
        assert!(interval > 0.0, "interval must be positive");
        assert!(count >= 1, "need at least one snapshot");
        SnapshotSchedule {
            times: (0..count).map(|i| start + interval * i as f64).collect(),
        }
    }
}

/// A per-site breadth-first snapshot crawler.
#[derive(Debug, Clone, Copy)]
pub struct Crawler {
    /// Per-site page cap (the paper uses 200,000).
    pub max_pages_per_site: usize,
}

impl Default for Crawler {
    fn default() -> Self {
        Crawler {
            max_pages_per_site: 200_000,
        }
    }
}

/// Mirror every alive root of `roots` in turn, breadth-first, at most
/// `cap` pages per root, and return the alive pages captured (ascending,
/// each once — a crawler deduplicates by URL, so the first site to reach
/// a page wins) plus the number of roots skipped as already covered.
///
/// A traversal that stays below the cap drained its queue: what it
/// returned is the full set reachable from its root, closed under
/// out-links, and every alive page in it is captured. `closed` is the
/// union of those sets. A later root inside `closed` can only reach pages
/// inside `closed`, so its traversal — capped or not — would capture
/// nothing new and is skipped; the result is the same set for every cap.
/// On a web where the first root reaches everything this is one
/// traversal instead of one per site.
fn mirror_sites(
    g: &CsrGraph,
    roots: &[NodeId],
    alive: impl Fn(NodeId) -> bool,
    cap: usize,
) -> (Vec<NodeId>, u64) {
    let mut scratch = BfsScratch::new(g.num_nodes());
    let mut reached_by_any = vec![false; g.num_nodes()];
    let mut closed = vec![false; g.num_nodes()];
    let mut roots_skipped = 0;
    for &root in roots {
        // roots of sites created later don't exist yet
        if !alive(root) {
            continue;
        }
        if closed[root as usize] {
            roots_skipped += 1;
            continue;
        }
        let reached = scratch.bfs(g, &[root], cap);
        let exhausted = reached.len() < cap;
        for &p in reached {
            reached_by_any[p as usize] = true;
            closed[p as usize] |= exhausted;
        }
    }
    // ascending by construction; pages that are reached but not alive
    // are not captured
    let captured = (0..g.num_nodes() as NodeId)
        .filter(|&p| reached_by_any[p as usize] && alive(p))
        .collect();
    (captured, roots_skipped)
}

impl Crawler {
    /// Crawl the world's link structure as of time `t` (which must not
    /// exceed the world's clock) and return a snapshot whose nodes are
    /// the crawled pages, identified by their stable page ids.
    pub fn crawl(&self, world: &World, t: f64) -> Result<Snapshot, GraphError> {
        assert!(
            t <= world.time() + 1e-12,
            "cannot crawl the future: t={t}, world at {}",
            world.time()
        );
        let _span = qrank_obs::span!("sim.crawl");
        // memoized: repeated crawls of an unchanged world rebuild nothing
        let g = world.link_graph_arc(t);
        let (captured, roots_skipped) = mirror_sites(
            &g,
            world.site_roots(),
            |p| world.page(p).created_at <= t,
            self.max_pages_per_site,
        );
        // `captured` is sorted, deduplicated, and in-range, so the
        // snapshot is assembled through the trusted fused path:
        // single-pass restriction, no defensive re-sort, and a
        // pre-validated page universe (page ids are the captured node
        // ids, ascending, so no duplicate check is needed either).
        let sub = g.induced_subgraph_sorted(&captured);
        let pages = PageSet::from_sorted(captured.iter().map(|&p| PageId(p as u64)).collect());
        if qrank_obs::enabled() {
            let registry = qrank_obs::global();
            registry
                .counter("sim.crawl.pages")
                .add(captured.len() as u64);
            registry
                .counter("sim.crawl.edges")
                .add(sub.num_edges() as u64);
            registry
                .counter("sim.crawl.roots_skipped")
                .add(roots_skipped);
        }
        Snapshot::from_page_set(t, sub, pages)
    }

    /// Run a full snapshot study: advance the world through the schedule,
    /// crawling at each capture time, and return the series.
    pub fn crawl_schedule(
        &self,
        world: &mut World,
        schedule: &SnapshotSchedule,
    ) -> Result<SnapshotSeries, GraphError> {
        let mut series = SnapshotSeries::new();
        for &t in &schedule.times {
            world.run_until(t);
            series.push(self.crawl(world, t)?)?;
        }
        Ok(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QualityDist, SimConfig};

    fn config() -> SimConfig {
        SimConfig {
            num_users: 250,
            num_sites: 4,
            visit_ratio: 3.0,
            page_birth_rate: 15.0,
            quality_dist: QualityDist::Uniform { lo: 0.1, hi: 0.9 },
            dt: 0.05,
            seed: 31,
            ..Default::default()
        }
    }

    #[test]
    fn paper_timeline_spacing() {
        let s = SnapshotSchedule::paper_timeline(2.0);
        assert_eq!(s.times, vec![2.0, 3.0, 4.0, 8.0]);
    }

    #[test]
    fn uniform_schedule() {
        let s = SnapshotSchedule::uniform(1.0, 0.5, 3);
        assert_eq!(s.times, vec![1.0, 1.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn uniform_rejects_zero_interval() {
        let _ = SnapshotSchedule::uniform(0.0, 0.0, 3);
    }

    #[test]
    fn crawl_captures_every_alive_page_without_cap() {
        let mut w = World::bootstrap(config()).unwrap();
        w.run_until(1.5);
        let snap = Crawler::default().crawl(&w, 1.5).unwrap();
        // every page born by t=1.5 is reachable from its site root
        let alive = (0..w.num_pages() as u32)
            .filter(|&p| w.page(p).created_at <= 1.5)
            .count();
        assert_eq!(snap.num_pages(), alive);
    }

    #[test]
    fn crawl_respects_page_cap() {
        let mut w = World::bootstrap(config()).unwrap();
        w.run_until(1.0);
        let crawler = Crawler {
            max_pages_per_site: 10,
        };
        let snap = crawler.crawl(&w, 1.0).unwrap();
        assert!(snap.num_pages() <= 10 * 4, "cap 10 per site, 4 sites");
        assert!(snap.num_pages() >= 10, "should still capture something");
    }

    const CAPS: [usize; 4] = [1, 10, 37, 200_000];

    /// The crawl as the paper words it, with nothing skipped: every alive
    /// root gets its own full `bfs_limited`, and the captures are united.
    fn mirror_sites_naive(
        g: &CsrGraph,
        roots: &[NodeId],
        alive: impl Fn(NodeId) -> bool,
        cap: usize,
    ) -> Vec<NodeId> {
        let mut captured: Vec<NodeId> = roots
            .iter()
            .filter(|&&root| alive(root))
            .flat_map(|&root| qrank_graph::traversal::bfs_limited(g, root, cap))
            .filter(|&p| alive(p))
            .collect();
        captured.sort_unstable();
        captured.dedup();
        captured
    }

    /// `crawl` against a snapshot assembled from the naive capture: same
    /// pages and same fingerprint (time, page ids, CSR arrays).
    fn assert_crawl_matches_reference(w: &World, t: f64) {
        let g = w.link_graph_arc(t);
        for cap in CAPS {
            let crawler = Crawler {
                max_pages_per_site: cap,
            };
            let got = crawler.crawl(w, t).unwrap();
            let captured =
                mirror_sites_naive(&g, w.site_roots(), |p| w.page(p).created_at <= t, cap);
            let pages = PageSet::from_sorted(captured.iter().map(|&p| PageId(p as u64)).collect());
            let want =
                Snapshot::from_page_set(t, g.induced_subgraph_sorted(&captured), pages).unwrap();
            assert_eq!(got.pages(), want.pages(), "cap {cap}, t {t}");
            assert_eq!(got.fingerprint(), want.fingerprint(), "cap {cap}, t {t}");
        }
    }

    #[test]
    fn crawl_matches_per_root_reference_on_a_connected_world() {
        let mut w = World::bootstrap(config()).unwrap();
        w.run_until(1.5);
        assert_crawl_matches_reference(&w, 1.5);
        // and the point of the closure mask: on a web where the first
        // root reaches every page, the other three are never traversed
        let g = w.link_graph_arc(1.5);
        let (_, skipped) = mirror_sites(&g, w.site_roots(), |_| true, 200_000);
        assert_eq!(skipped, 3);
    }

    #[test]
    fn crawl_matches_per_root_reference_in_the_past() {
        let mut w = World::bootstrap(config()).unwrap();
        w.run_until(3.0);
        // most pages not yet born
        assert_crawl_matches_reference(&w, 0.5);
        // no page born, the site roots included: nothing to capture
        assert_crawl_matches_reference(&w, -1.0);
        assert_eq!(Crawler::default().crawl(&w, -1.0).unwrap().num_pages(), 0);
    }

    #[test]
    fn mirror_sites_matches_per_root_reference_on_disconnected_components() {
        // three mutually unreachable components: a 5-cycle with a
        // chord, a 40-page tree, and a chain that runs into a 2-cycle;
        // node 60 is isolated
        let mut edges = vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)];
        edges.extend((1..40).map(|i| (5 + (i - 1) / 3, 5 + i)));
        edges.extend((45..52).map(|i| (i, i + 1)));
        edges.push((52, 51));
        let g = CsrGraph::from_edges(61, &edges);
        // several roots per component, in an order that puts a root
        // before and after a traversal that closes over it
        let roots = [47, 5, 0, 3, 45, 60, 6, 51, 2, 60];
        let unborn = |p: NodeId| p != 3 && p != 60 && p % 11 != 7;
        for cap in CAPS {
            for alive in [&(|_| true) as &dyn Fn(NodeId) -> bool, &unborn] {
                let (got, skipped) = mirror_sites(&g, &roots, alive, cap);
                assert_eq!(got, mirror_sites_naive(&g, &roots, alive, cap), "cap {cap}");
                assert!(skipped as usize <= roots.len());
            }
        }
        // uncapped, everything alive: 47, 5 and 0 close their components,
        // 45 and 60 are new ground, the other five roots are skipped
        assert_eq!(mirror_sites(&g, &roots, |_| true, 200_000).1, 5);
        // no traversal ends below a cap of 1, so nothing is ever skipped
        assert_eq!(mirror_sites(&g, &roots, |_| true, 1).1, 0);
    }

    #[test]
    fn crawl_at_earlier_time_sees_smaller_web() {
        let mut w = World::bootstrap(config()).unwrap();
        w.run_until(3.0);
        let c = Crawler::default();
        let early = c.crawl(&w, 0.5).unwrap();
        let late = c.crawl(&w, 3.0).unwrap();
        assert!(late.num_pages() >= early.num_pages());
        assert!(late.graph.num_edges() > early.graph.num_edges());
    }

    #[test]
    #[should_panic(expected = "future")]
    fn cannot_crawl_the_future() {
        let w = World::bootstrap(config()).unwrap();
        let _ = Crawler::default().crawl(&w, 5.0);
    }

    #[test]
    fn schedule_produces_aligned_common_pages() {
        let mut w = World::bootstrap(config()).unwrap();
        let schedule = SnapshotSchedule::paper_timeline(0.5);
        let series = Crawler::default()
            .crawl_schedule(&mut w, &schedule)
            .unwrap();
        assert_eq!(series.len(), 4);
        let common = series.common_pages();
        // bootstrap pages exist in all snapshots
        assert!(common.len() >= 250 + 4, "common pages {}", common.len());
        // pages born after the first snapshot are not common
        let first_count = series.snapshots()[0].num_pages();
        assert_eq!(
            common.len(),
            first_count,
            "all first-snapshot pages persist"
        );
        let aligned = series.aligned_to_common().unwrap();
        assert!(aligned.is_aligned());
    }

    #[test]
    fn snapshot_page_ids_match_world_pages() {
        let mut w = World::bootstrap(config()).unwrap();
        w.run_until(1.0);
        let snap = Crawler::default().crawl(&w, 1.0).unwrap();
        for (node, &pid) in snap.pages().iter().enumerate() {
            let p = pid.0 as u32;
            assert!(
                w.page(p).created_at <= 1.0,
                "node {node} maps to unborn page"
            );
        }
    }
}
