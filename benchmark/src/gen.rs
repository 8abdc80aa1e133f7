//! Input generators: everything the program under test receives is made
//! here from `--seed`, and nothing here depends on `vendor/*`,
//! `crates/bench` or `qrank_serve::loadgen`.

use std::collections::HashSet;

use qrank_graph::{CsrGraph, PageId, Snapshot, SnapshotSeries};
use qrank_serve::EdgeDelta;

use crate::rng::SplitMix64;

/// Share of link targets drawn uniformly instead of from the endpoint
/// pool (keeps the tail of never-linked pages reachable).
const UNIFORM_TARGET_SHARE: f64 = 0.25;
/// Links a page creates when it arrives.
const ARRIVAL_LINKS: usize = 3;

/// An endpoint-pool preferential-attachment web that keeps growing.
///
/// Pages arrive in id order. Each arrival links out `ARRIVAL_LINKS`
/// times, mostly to already-popular targets (a target is drawn from the
/// pool of all past edge endpoints, so its chance is proportional to its
/// degree). After each arrival one *late link* is added between two
/// pages that already exist, so old pages keep changing too.
#[derive(Debug)]
pub struct Web {
    /// Pages created so far (ids `0..pages`).
    pub pages: usize,
    /// Distinct edges, no self-loops, in creation order.
    pub edges: Vec<(u32, u32)>,
    /// Seeds which pages a partial crawl covers (`covered_series`).
    coverage_seed: u64,
    pool: Vec<u32>,
    seen: HashSet<u64>,
    rng: SplitMix64,
}

impl Web {
    /// Grow a web of `pages` pages (about four edges per page).
    pub fn grow(pages: usize, seed: u64) -> Web {
        let mut web = Web {
            pages: 0,
            edges: Vec::with_capacity(pages * (ARRIVAL_LINKS + 1)),
            coverage_seed: seed,
            pool: Vec::with_capacity(2 * pages * (ARRIVAL_LINKS + 1)),
            seen: HashSet::with_capacity(pages * (ARRIVAL_LINKS + 1)),
            rng: SplitMix64::new(seed, 0x57EB),
        };
        for _ in 0..pages {
            web.arrive();
        }
        web
    }

    fn target(&mut self, below: u32) -> u32 {
        if self.pool.is_empty() || self.rng.chance(UNIFORM_TARGET_SHARE) {
            self.rng.below(u64::from(below)) as u32
        } else {
            self.pool[self.rng.below(self.pool.len() as u64) as usize]
        }
    }

    fn link(&mut self, src: u32, dst: u32) -> bool {
        if src == dst || !self.seen.insert((u64::from(src) << 32) | u64::from(dst)) {
            return false;
        }
        self.edges.push((src, dst));
        self.pool.push(dst);
        self.pool.push(src);
        true
    }

    fn arrive(&mut self) {
        let src = self.pages as u32;
        self.pages += 1;
        if src == 0 {
            return;
        }
        for _ in 0..ARRIVAL_LINKS.min(src as usize) {
            let dst = self.target(src);
            self.link(src, dst);
        }
        if src >= 2 {
            let from = self.rng.below(u64::from(src)) as u32;
            let to = self.target(src);
            self.link(from, to);
        }
    }

    /// One more link between two existing pages (the write traffic of
    /// the refresh workloads: no page is born, so the served page set
    /// is stable and each ingest re-solves exactly one column).
    pub fn late_link(&mut self) -> (u64, u64) {
        let n = self.pages as u32;
        loop {
            let from = self.rng.below(u64::from(n)) as u32;
            let to = self.target(n);
            if self.link(from, to) {
                return (u64::from(from), u64::from(to));
            }
        }
    }

    /// Snapshots of a crawl whose coverage grows: snapshot `i` holds the
    /// first `fracs[i]` of the edges, as [`Web::fixed_series`] does, but
    /// only a random `fracs[i]` of the pages (nested: a page once
    /// covered stays covered) and the edges between them. Aligning such
    /// a series to its common pages restricts every later snapshot for
    /// real, and the common pages include late ones that start out
    /// unlinked, as in the fixed series.
    ///
    /// (Covering the *oldest* pages first instead makes the report
    /// useless as a quality reading: only late links then change the
    /// common subgraph, most pages move by less than the solver
    /// tolerance, and with the default `flat_tolerance` of 0 their trend
    /// — hence `improvement_factor()` — is decided by convergence error:
    /// 0.52 on some seeds, 0.65 on others.)
    pub fn covered_series(&self, fracs: &[f64]) -> SnapshotSeries {
        // a page's rank in (0, 1]: covered by every crawl whose share
        // is at least that
        let rank: Vec<f64> = (0..self.pages as u64)
            .map(|p| SplitMix64::new(self.coverage_seed, 0xC0FE ^ (p << 16)).unit())
            .collect();
        let mut series = SnapshotSeries::new();
        for (i, &frac) in fracs.iter().enumerate() {
            let mut node_of = vec![u32::MAX; self.pages];
            let mut ids = Vec::new();
            for (p, &r) in rank.iter().enumerate() {
                if r <= frac {
                    node_of[p] = ids.len() as u32;
                    ids.push(PageId(p as u64));
                }
            }
            let cut = ((self.edges.len() as f64 * frac) as usize).min(self.edges.len());
            let edges: Vec<(u32, u32)> = self.edges[..cut]
                .iter()
                .map(|&(s, d)| (node_of[s as usize], node_of[d as usize]))
                .filter(|&(s, d)| s != u32::MAX && d != u32::MAX)
                .collect();
            let snap = Snapshot::new(i as f64, CsrGraph::from_edges(ids.len(), &edges), ids)
                .expect("one page id per node");
            series.push(snap).expect("snapshot times ascend");
        }
        series
    }

    /// Snapshots over all pages whose edge sets grow: snapshot `i` holds
    /// the first `fracs[i]` of the edges, at time `i`.
    pub fn fixed_series(&self, fracs: &[f64]) -> SnapshotSeries {
        let mut series = SnapshotSeries::new();
        for (i, frac) in fracs.iter().enumerate() {
            let cut = ((self.edges.len() as f64 * frac) as usize).min(self.edges.len());
            push_snapshot(&mut series, i as f64, self.pages, &self.edges[..cut]);
        }
        series
    }

    /// `count` deltas of late links; delta `i` is observed at
    /// `first_time + i` and holds `size(i, rng)` added edges.
    pub fn deltas(
        &mut self,
        count: usize,
        first_time: f64,
        seed: u64,
        mut size: impl FnMut(&mut SplitMix64) -> usize,
    ) -> Vec<EdgeDelta> {
        let mut rng = SplitMix64::new(seed, 0xDE17A);
        (0..count)
            .map(|i| {
                let n = size(&mut rng);
                EdgeDelta {
                    time: first_time + i as f64,
                    added: (0..n).map(|_| self.late_link()).collect(),
                    ..Default::default()
                }
            })
            .collect()
    }
}

fn push_snapshot(series: &mut SnapshotSeries, time: f64, pages: usize, edges: &[(u32, u32)]) {
    let ids = (0..pages as u64).map(PageId).collect();
    let snap =
        Snapshot::new(time, CsrGraph::from_edges(pages, edges), ids).expect("one page id per node");
    series.push(snap).expect("snapshot times ascend");
}

/// One protocol request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// `score <page>`
    Score(u64),
    /// `topk <k>`
    TopK(u32),
}

impl Req {
    /// Append the wire form (`verb arg\n`).
    pub fn write_to(self, out: &mut Vec<u8>) {
        use std::io::Write;
        match self {
            Req::Score(p) => writeln!(out, "score {p}"),
            Req::TopK(k) => writeln!(out, "topk {k}"),
        }
        .expect("writing to a Vec cannot fail");
    }
}

/// The request mix of one connection.
///
/// Page ids are drawn at random. Which requests are `topk`, and their
/// `k`, follow golden-ratio (Weyl) sequences started at seeded offsets:
/// any window of a few hundred requests then holds the same verb mix
/// and the same log-uniform spread of `k`. Two passes — or two seeds —
/// differ in which pages and which `k` they ask for, not in how much
/// work they ask for, so the heavy tail of `k` (a `topk 1000` renders
/// a thousand rows) does not become noise in the latency tail.
#[derive(Debug, Clone)]
pub struct RequestMix {
    rng: SplitMix64,
    known_pages: u64,
    topk_share: f64,
    max_k: u64,
    verb_phase: f64,
    k_phase: f64,
}

/// Step of the verb sequence: the golden ratio's fractional part.
const VERB_STEP: f64 = 0.618_033_988_749_894_9;
/// Step of the `k` sequence: sqrt(2) - 1, independent of the above.
const K_STEP: f64 = 0.414_213_562_373_095_03;

/// The integer in `1..=max` at position `u` of `(0, 1]` on a log scale.
fn log_uniform(u: f64, max: u64) -> u64 {
    ((((max + 1) as f64).ln() * u).exp() as u64).clamp(1, max)
}

impl RequestMix {
    /// `score` on ids uniform in `0..known_pages`; a `topk_share` of the
    /// requests are `topk k` with `k` log-uniform in `1..=max_k`.
    pub fn new(seed: u64, connection: u64, known_pages: u64, topk_share: f64, max_k: u64) -> Self {
        let mut rng = SplitMix64::new(seed, 0xC0_0000 + connection);
        RequestMix {
            verb_phase: rng.unit(),
            k_phase: rng.unit(),
            rng,
            known_pages,
            topk_share,
            max_k,
        }
    }

    /// Next request of the stream.
    pub fn next_req(&mut self) -> Req {
        self.verb_phase = (self.verb_phase + VERB_STEP).fract();
        if self.verb_phase < self.topk_share {
            self.k_phase = (self.k_phase + K_STEP).fract();
            Req::TopK(log_uniform(self.k_phase.max(f64::MIN_POSITIVE), self.max_k) as u32)
        } else {
            Req::Score(self.rng.below(self.known_pages))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn web_is_distinct_loop_free_and_ordered() {
        let web = Web::grow(2_000, 9);
        let mut seen = HashSet::new();
        for &(s, d) in &web.edges {
            assert_ne!(s, d);
            assert!(seen.insert((s, d)), "duplicate edge {s}->{d}");
        }
        assert!(web.edges.len() > 3 * 2_000 && web.edges.len() <= 4 * 2_000);
        // edges are in creation order: a prefix mentions only pages that
        // had arrived by then
        let newest = |edges: &[(u32, u32)]| edges.iter().map(|&(s, d)| s.max(d)).max().unwrap();
        assert!(newest(&web.edges[..web.edges.len() / 2]) < 1_100);
    }

    #[test]
    fn covered_series_restricts_and_changes() {
        let web = Web::grow(30_000, 5);
        let series = web.covered_series(&[0.7, 0.8, 0.9, 1.0]);
        let sizes: Vec<usize> = series.snapshots().iter().map(|s| s.num_pages()).collect();
        for (size, share) in sizes.iter().zip([0.7, 0.8, 0.9]) {
            assert!((*size as f64 / 30_000.0 - share).abs() < 0.01, "{sizes:?}");
        }
        assert_eq!(sizes[3], 30_000);
        // coverage is nested: the first crawl's pages are the common ones
        let aligned = series.aligned_to_common().unwrap();
        assert_eq!(aligned.snapshots()[0].num_pages(), sizes[0]);
        assert_eq!(
            aligned.snapshots()[3].pages(),
            series.snapshots()[0].pages()
        );
        let edges: Vec<usize> = aligned
            .snapshots()
            .iter()
            .map(|s| s.graph.num_edges())
            .collect();
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges {edges:?}");
        // restricting drops edges for real
        assert!(edges[3] < series.snapshots()[3].graph.num_edges());
    }

    #[test]
    fn same_seed_gives_byte_identical_requests_and_deltas() {
        let bytes = |seed: u64| {
            let mut mix = RequestMix::new(seed, 1, 5_000, 0.2, 1000);
            let mut out = Vec::new();
            for _ in 0..5_000 {
                mix.next_req().write_to(&mut out);
            }
            out
        };
        assert_eq!(bytes(42), bytes(42));
        assert_ne!(bytes(42), bytes(43));

        let deltas = |seed: u64| {
            let mut web = Web::grow(1_000, seed);
            let ds = web.deltas(10, 3.0, seed, |r| r.pareto(1.2, 5.0, 200.0) as usize);
            qrank_serve::format_deltas(&ds).unwrap()
        };
        assert_eq!(deltas(42), deltas(42));
        assert_ne!(deltas(42), deltas(43));
    }

    #[test]
    fn every_window_of_requests_asks_for_the_same_work() {
        for seed in [1, 2, 3] {
            let mut mix = RequestMix::new(seed, 0, 5_000, 0.2, 1000);
            for _window in 0..5 {
                let ks: Vec<u32> = (0..2_000)
                    .filter_map(|_| match mix.next_req() {
                        Req::TopK(k) => Some(k),
                        Req::Score(p) => {
                            assert!(p < 5_000);
                            None
                        }
                    })
                    .collect();
                // a fifth of the requests, k log-uniform in 1..=1000:
                // half the draws at or below sqrt(1000), 1 % above ~933
                assert!((398..=402).contains(&ks.len()), "{} topk", ks.len());
                assert!(ks.iter().all(|k| (1..=1000).contains(k)));
                let small = ks.iter().filter(|&&k| k <= 31).count();
                assert!((195..=205).contains(&small), "{small} small k");
                let large = ks.iter().filter(|&&k| k > 500).count();
                assert!((36..=44).contains(&large), "{large} large k");
            }
        }
        let mut point = RequestMix::new(1, 0, 100, 0.0, 1000);
        assert!((0..1_000).all(|_| matches!(point.next_req(), Req::Score(_))));
    }

    #[test]
    fn deltas_add_only_new_links_between_known_pages() {
        let mut web = Web::grow(500, 3);
        let before: HashSet<(u32, u32)> = web.edges.iter().copied().collect();
        let ds = web.deltas(5, 3.0, 3, |_| 40);
        for d in &ds {
            assert!(d.new_pages.is_empty() && d.removed.is_empty());
            assert_eq!(d.added.len(), 40);
            for &(s, t) in &d.added {
                assert!(s < 500 && t < 500);
                assert!(!before.contains(&(s as u32, t as u32)));
            }
        }
        assert_eq!(ds[4].time, 7.0);
    }
}
