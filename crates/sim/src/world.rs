//! The simulation state machine.
//!
//! A [`World`] holds a population of users, a growing set of pages with
//! intrinsic qualities, and the evolving link graph. Each
//! [`World::step`] advances time by `dt`:
//!
//! 1. **Page births** — `Poisson(birth_rate·dt)` new pages appear, each
//!    on a random site with quality drawn from the configured
//!    distribution. Navigation links (parent → page, page → site root)
//!    keep every page crawlable from its site root, as the paper's
//!    mirroring crawler requires.
//! 2. **Visits** — page `p` receives `Poisson(V(p,t)·dt)` visits, with
//!    `V = r·P` (Proposition 1) or `V ∝ PageRank` (the rich-get-richer
//!    variant). Each visit is by a uniformly random user
//!    (Proposition 2). A user discovering `p` for the first time becomes
//!    aware and, with probability `Q(p)` (Definition 1), likes it and
//!    links to it from their home page.
//! 3. **Forgetting** (optional) — each aware user forgets with
//!    probability `forget_rate·dt`, dropping their like and their link —
//!    the paper's future-work explanation for declining PageRanks.
//!
//! ## Determinism and parallelism
//!
//! Births and forgetting draw from one seeded sequential RNG. The visit
//! phase — the per-step hot loop, O(pages) — instead draws every page's
//! Poisson visit count and per-visit outcomes from an independent
//! counter-based stream keyed on `(seed, step, page)`
//! ([`crate::rng::StreamRng`]), so its outcome is a pure function of the
//! config: identical configs give **bit-identical histories for any
//! thread count**. [`World::set_thread_budget`] picks how many worker
//! threads process page chunks; like-link mutations are collected
//! per-thread and applied in page order afterwards, keeping the graph
//! event log identical too.
//!
//! ## State layout
//!
//! Who is aware of a page and who likes it are two bit tables, one row
//! of `ceil(num_users/64)` words per page (`bitset::BitTable`), with the
//! rows' popcounts kept beside them: the visit phase reads a count and
//! tests and sets bits in one row, and nothing else. Only forgetting
//! picks an aware user *by index*, so only a world that forgets
//! (`forget_rate > 0`) also keeps each page's aware users as a list in
//! discovery order, and only it removes links, so only it keeps the set
//! of navigation links that a forgotten like must not take with it.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use qrank_graph::{CsrGraph, DynamicGraph, GraphError};
use qrank_model::noise::binomial;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bitset::{set_bit, test_bit, BitTable};
use crate::dist::{sample_poisson, sample_poisson_rate, PoissonRate};
use crate::rng::StepStreams;
use crate::{SimConfig, VisitModel};

/// Immutable facts about a page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageInfo {
    /// Intrinsic quality `Q(p)` — hidden from estimators, used only for
    /// ground-truth evaluation.
    pub quality: f64,
    /// Simulation time of creation.
    pub created_at: f64,
    /// Site index the page belongs to.
    pub site: u32,
    /// User who authored the page.
    pub owner: u32,
}

/// The simulated web.
#[derive(Debug)]
pub struct World {
    config: SimConfig,
    rng: StdRng,
    time: f64,
    pages: Vec<PageInfo>,
    /// Users aware of each page, one row a page.
    aware: BitTable,
    /// Popcount of each `aware` row (`awareness = aware_count/n`).
    aware_count: Vec<u32>,
    /// Each page's aware users in discovery order, the list forgetting
    /// samples by index — kept only when `forget_rate > 0`, else empty.
    aware_members: Vec<Vec<u32>>,
    /// Like membership per page, one row a page.
    liked: BitTable,
    /// Popcount of each `liked` row (`popularity = liked_count/n`).
    liked_count: Vec<u32>,
    /// Under [`VisitModel::ByPopularity`], one step's visit rate of a
    /// page with `l` likes, at index `l` (`0..=num_users`); else empty.
    rate_by_likes: Vec<PoissonRate>,
    /// Home page of each user (a node id in the link graph).
    homepage: Vec<u32>,
    /// Root page of each site.
    site_roots: Vec<u32>,
    /// Pages of each site (for parent sampling).
    site_pages: Vec<Vec<u32>>,
    /// The evolving link graph; node ids == page indices.
    links: DynamicGraph,
    /// Navigation edges, which forgetting must not remove — kept only
    /// when `forget_rate > 0`, else empty.
    structural: HashSet<(u32, u32)>,
    /// Links ever created, navigation and like-links (telemetry). User
    /// `u`'s like of page `p` is the link `homepage[u] -> p`, and exists
    /// iff `homepage[u] != p`, so no per-like record is kept.
    links_created: usize,
    /// Cached PageRank for the ByPageRank visit model.
    cached_pr: Vec<f64>,
    cached_pr_pages: usize,
    /// Steps taken so far — the `step` component of visit-stream keys.
    steps_taken: u64,
    /// Worker threads for the visit phase (execution knob only; the
    /// history is bit-identical for every value).
    threads: usize,
    /// Bumped on every state mutation (page birth, link add/remove,
    /// like/unlike); keys the derived-view caches below.
    version: u64,
    /// Memoized [`World::link_graph_at`] materialization.
    cached_graph: Mutex<Option<GraphCache>>,
    /// Memoized [`World::popularities`] vector.
    cached_pops: Mutex<Option<(u64, Vec<f64>)>>,
}

/// A materialized link graph: what `link_graph_arc(time)` returns while
/// `version` is current, and the graph of the link log's first `events`
/// events for good — the base the next materialization extends.
#[derive(Debug)]
struct GraphCache {
    version: u64,
    time: f64,
    events: usize,
    graph: Arc<CsrGraph>,
}

impl World {
    /// Create a world at `t = 0`: one root page per site, one home page
    /// per user (spread round-robin across sites), and a couple of
    /// cross-site directory links between roots.
    pub fn bootstrap(config: SimConfig) -> Result<World, GraphError> {
        config.validate();
        let mut world = World {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            time: 0.0,
            pages: Vec::new(),
            aware: BitTable::new(config.num_users),
            aware_count: Vec::new(),
            aware_members: Vec::new(),
            liked: BitTable::new(config.num_users),
            liked_count: Vec::new(),
            rate_by_likes: match config.visit_model {
                VisitModel::ByPopularity => {
                    let n = config.num_users as f64;
                    let r = config.visit_ratio * n; // the model's r
                    (0..=config.num_users)
                        .map(|l| PoissonRate::new(r * l as f64 / n * config.dt))
                        .collect()
                }
                _ => Vec::new(),
            },
            homepage: Vec::new(),
            site_roots: Vec::new(),
            site_pages: vec![Vec::new(); config.num_sites],
            links: DynamicGraph::new(),
            structural: HashSet::new(),
            links_created: 0,
            cached_pr: Vec::new(),
            cached_pr_pages: 0,
            steps_taken: 0,
            threads: 1,
            version: 0,
            cached_graph: Mutex::new(None),
            cached_pops: Mutex::new(None),
        };

        // Site roots; each is authored by some user so it starts with
        // one like (P(p,0) = 1/n — the model's minimum viable spark).
        for site in 0..config.num_sites {
            let quality = world.config.quality_dist.sample(&mut world.rng);
            let owner = (site % config.num_users) as u32;
            let id = world.new_page_raw(quality, site as u32, owner)?;
            world.site_roots.push(id);
        }
        // Cross-site directory links between roots.
        for site in 0..config.num_sites {
            for _ in 0..2usize.min(config.num_sites - 1) {
                let other = world.rng.random_range(0..config.num_sites);
                if other != site {
                    world.add_structural_edge(world.site_roots[site], world.site_roots[other])?;
                }
            }
        }
        // User home pages, round-robin across sites, linked from the root.
        for user in 0..config.num_users {
            let site = (user % config.num_sites) as u32;
            let quality = world.config.quality_dist.sample(&mut world.rng);
            let id = world.new_page_raw(quality, site, user as u32)?;
            world.homepage.push(id);
            world.add_structural_edge(world.site_roots[site as usize], id)?;
            world.add_structural_edge(id, world.site_roots[site as usize])?;
            // owners like their own page
            world.record_aware(id, user as u32);
            world.record_like(id, user as u32)?;
        }
        // Root owners like their roots (deferred until home pages exist,
        // since like-links originate from the liker's home page).
        for site in 0..config.num_sites {
            let root = world.site_roots[site];
            let owner = world.pages[root as usize].owner;
            world.record_aware(root, owner);
            world.record_like(root, owner)?;
        }
        Ok(world)
    }

    fn new_page_raw(&mut self, quality: f64, site: u32, owner: u32) -> Result<u32, GraphError> {
        self.version += 1;
        let id = self.links.add_node(self.time)?;
        self.pages.push(PageInfo {
            quality,
            created_at: self.time,
            site,
            owner,
        });
        self.aware.push_row();
        self.aware_count.push(0);
        if self.config.forget_rate > 0.0 {
            self.aware_members.push(Vec::new());
        }
        self.liked.push_row();
        self.liked_count.push(0);
        self.site_pages[site as usize].push(id);
        Ok(id)
    }

    fn add_structural_edge(&mut self, src: u32, dst: u32) -> Result<(), GraphError> {
        if src != dst {
            self.version += 1;
            self.links.add_edge(src, dst, self.time)?;
            self.links_created += 1;
            if self.config.forget_rate > 0.0 {
                self.structural.insert((src, dst));
            }
        }
        Ok(())
    }

    /// A user learns of a page outside the visit phase (authorship).
    fn record_aware(&mut self, page: u32, user: u32) {
        let p = page as usize;
        if self.aware.set(p, user) {
            self.aware_count[p] += 1;
            if let Some(members) = self.aware_members.get_mut(p) {
                members.push(user);
            }
        }
    }

    /// A user starts liking a page: update popularity and create the
    /// like-link from their home page.
    fn record_like(&mut self, page: u32, user: u32) -> Result<(), GraphError> {
        if !self.liked.set(page as usize, user) {
            return Ok(());
        }
        self.version += 1;
        self.liked_count[page as usize] += 1;
        // Bootstrap creates a user's home page before the user's first
        // like (which is of that very page, hence no link).
        let src = self.homepage[user as usize];
        if src != page {
            self.links.add_edge(src, page, self.time)?;
            self.links_created += 1;
        }
        Ok(())
    }

    /// Advance the simulation by one `dt` step.
    pub fn step(&mut self) -> Result<(), GraphError> {
        let _span = qrank_obs::span!("sim.step");
        let cfg = self.config;
        self.time += cfg.dt;
        // Telemetry below only *counts* what the step did — it never
        // draws randomness or branches the simulation, so enabling
        // observability cannot perturb the history (see the obs-on/off
        // fingerprint test in tests/determinism.rs).
        let links_before = self.links_created;

        // 1. Page births.
        let births_span = qrank_obs::span!("sim.step.births");
        let births = sample_poisson(&mut self.rng, cfg.page_birth_rate * cfg.dt);
        for _ in 0..births {
            let site = self.rng.random_range(0..cfg.num_sites) as u32;
            let owner = self.rng.random_range(0..cfg.num_users) as u32;
            let quality = cfg.quality_dist.sample(&mut self.rng);
            let id = self.new_page_raw(quality, site, owner)?;
            // navigation: random same-site parent links to the new page,
            // which links back to its site root.
            let parent = {
                let sp = &self.site_pages[site as usize];
                sp[self.rng.random_range(0..sp.len() - 1)] // exclude the new page itself
            };
            self.add_structural_edge(parent, id)?;
            self.add_structural_edge(id, self.site_roots[site as usize])?;
            // the author knows and likes their own page: P(p,0) = 1/n
            self.record_aware(id, owner);
            self.record_like(id, owner)?;
        }
        drop(births_span);

        // 2. Visits. Every page draws from its own (seed, step, page)
        // stream, so the phase parallelizes over page chunks with a
        // bit-identical outcome for any thread count; like events come
        // back in page order and are applied here, on one thread, so the
        // graph event log is order-independent too.
        let visits_span = qrank_obs::span!("sim.step.visits");
        let visit_weights = self.visit_weights();
        self.steps_taken += 1;
        let (like_events, visits) = self.visit_phase(visit_weights.as_deref());
        drop(visits_span);
        let likes_span = qrank_obs::span!("sim.step.likes");
        let likes = like_events.len() as u64;
        for (p, user) in like_events {
            self.record_like(p, user)?;
        }
        drop(likes_span);
        let links_created = (self.links_created - links_before) as u64;

        // 3. Forgetting.
        let mut forgets = 0u64;
        if cfg.forget_rate > 0.0 {
            let _span = qrank_obs::span!("sim.step.forget");
            let p_forget = (cfg.forget_rate * cfg.dt).min(1.0);
            let num_pages = self.pages.len();
            for p in 0..num_pages {
                let k = binomial(&mut self.rng, u64::from(self.aware_count[p]), p_forget);
                for _ in 0..k {
                    let members = &mut self.aware_members[p];
                    if members.is_empty() {
                        break;
                    }
                    let idx = self.rng.random_range(0..members.len());
                    let user = members[idx];
                    // authors never forget their own page (they plainly
                    // know their own work, and it keeps the navigation
                    // structure rooted)
                    if self.pages[p].owner == user {
                        continue;
                    }
                    members.swap_remove(idx);
                    self.aware.clear(p, user);
                    self.aware_count[p] -= 1;
                    self.forget_like(p as u32, user)?;
                    forgets += 1;
                }
            }
        }

        if qrank_obs::enabled() {
            let registry = qrank_obs::global();
            registry.counter("sim.steps").inc();
            registry.counter("sim.pages_born").add(births);
            registry.counter("sim.visits").add(visits);
            registry.counter("sim.likes").add(likes);
            registry.counter("sim.links_created").add(links_created);
            registry.counter("sim.forgets").add(forgets);
            qrank_obs::recorder::record(
                "sim.step",
                0,
                0,
                &format!(
                    "step={} t={:.4} births={births} visits={visits} likes={likes} \
                     links={links_created} forgets={forgets}",
                    self.steps_taken, self.time
                ),
            );
        }
        Ok(())
    }

    /// The visit phase of one step: mutates awareness in place and
    /// returns the like events `(page, user)` in page order (discovery
    /// order within a page) plus the total visits drawn (telemetry
    /// only). Pages are processed in disjoint contiguous chunks on up
    /// to [`World::set_thread_budget`] worker threads, each owning its
    /// pages' rows of the awareness table; each page's randomness comes
    /// from its own counter-based stream, so the result is bit-identical
    /// for any thread count.
    fn visit_phase(&mut self, visit_weights: Option<&[f64]>) -> (Vec<(u32, u32)>, u64) {
        let num_pages = self.pages.len();
        let threads = self.threads.clamp(1, num_pages.max(1));
        let step = VisitStep {
            num_users: self.config.num_users,
            streams: StepStreams::new(self.config.seed, self.steps_taken),
            rates: match visit_weights {
                Some(weights) => VisitRates::PerPage {
                    weights,
                    dt: self.config.dt,
                },
                None => VisitRates::ByLikes {
                    table: &self.rate_by_likes,
                    liked_count: &self.liked_count,
                },
            },
            pages: &self.pages,
        };
        let mut rest = PageChunk {
            first_page: 0,
            stride: self.aware.stride(),
            rows: self.aware.rows_mut(),
            counts: &mut self.aware_count,
            members: &mut self.aware_members,
        };
        if threads == 1 {
            let mut likes = Vec::new();
            let visits = step.visit_chunk(rest, &mut likes);
            return (likes, visits);
        }
        let chunk = num_pages.div_ceil(threads);
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            while !rest.counts.is_empty() {
                let (head, tail) = rest.split_at(chunk);
                rest = tail;
                let step = &step;
                handles.push(s.spawn(move || {
                    let mut likes = Vec::new();
                    let visits = step.visit_chunk(head, &mut likes);
                    (likes, visits)
                }));
            }
            // joining in spawn order keeps the events in page order
            let mut all_likes = Vec::new();
            let mut visits = 0u64;
            for h in handles {
                let (likes, v) = h.join().expect("visit worker panicked");
                all_likes.extend(likes);
                visits += v;
            }
            (all_likes, visits)
        })
    }

    /// Drop `user`'s like of `page` (if any) and the associated
    /// like-link, preserving structural navigation edges.
    fn forget_like(&mut self, page: u32, user: u32) -> Result<(), GraphError> {
        if self.liked.clear(page as usize, user) {
            self.version += 1;
            self.liked_count[page as usize] -= 1;
            let src = self.homepage[user as usize];
            if src != page && !self.structural.contains(&(src, page)) {
                self.links.remove_edge(src, page, self.time)?;
            }
        }
        Ok(())
    }

    /// Visit rate per page (visits per unit time, before `dt` scaling)
    /// under the models that rank pages; `None` under
    /// [`VisitModel::ByPopularity`], where a page's rate is a function of
    /// its like count alone and comes from `rate_by_likes`.
    fn visit_weights(&mut self) -> Option<Vec<f64>> {
        let n = self.config.num_users as f64;
        let r = self.config.visit_ratio * n; // the model's r
        Some(match self.config.visit_model {
            VisitModel::ByPopularity => return None,
            VisitModel::ByPageRank => {
                // Total visit volume matches the ByPopularity world at the
                // same aggregate popularity; allocation follows PageRank.
                let total: f64 = self.liked_count.iter().map(|&l| r * l as f64 / n).sum();
                self.refresh_pagerank();
                self.cached_pr.iter().map(|&pr| total * pr).collect()
            }
            VisitModel::BySearchRank { bias } => {
                // Rank pages by PageRank; exposure decays with position.
                let total: f64 = self.liked_count.iter().map(|&l| r * l as f64 / n).sum();
                self.refresh_pagerank();
                let mut order: Vec<usize> = (0..self.pages.len()).collect();
                order.sort_by(|&a, &b| {
                    self.cached_pr[b]
                        .partial_cmp(&self.cached_pr[a])
                        .expect("PageRank is never NaN")
                        .then(a.cmp(&b))
                });
                let mut weight = vec![0.0; self.pages.len()];
                let mut mass = 0.0;
                for (pos, &p) in order.iter().enumerate() {
                    let w = 1.0 / ((pos + 1) as f64).powf(bias);
                    weight[p] = w;
                    mass += w;
                }
                if mass > 0.0 {
                    for w in weight.iter_mut() {
                        *w *= total / mass;
                    }
                }
                weight
            }
        })
    }

    fn refresh_pagerank(&mut self) {
        // recompute when the page set grew by >2% or never computed
        if self.cached_pr_pages > 0
            && self.pages.len() * 100 <= self.cached_pr_pages * 102
            && self.cached_pr.len() == self.pages.len()
        {
            return;
        }
        let g = self.link_graph_arc(self.time);
        let cfg = qrank_rank::PageRankConfig {
            tolerance: 1e-9,
            max_iterations: 100,
            ..Default::default()
        };
        let mut pr = qrank_rank::pagerank(g.as_ref(), &cfg).scores;
        pr.resize(self.pages.len(), 0.0);
        self.cached_pr = pr;
        self.cached_pr_pages = self.pages.len();
    }

    /// Advance until the clock reaches at least `t`.
    pub fn run_until(&mut self, t: f64) {
        while self.time < t {
            self.step()
                .expect("simulation step cannot fail after bootstrap");
        }
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The configuration the world was built with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of pages ever created.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Page metadata.
    pub fn page(&self, p: u32) -> &PageInfo {
        &self.pages[p as usize]
    }

    /// Ground-truth qualities of all pages (for evaluation only).
    pub fn qualities(&self) -> Vec<f64> {
        self.pages.iter().map(|p| p.quality).collect()
    }

    /// Current (simple) popularity `P(p,t) = likes/n`.
    pub fn popularity(&self, p: u32) -> f64 {
        self.liked_count[p as usize] as f64 / self.config.num_users as f64
    }

    /// Current popularity of every page — the "traffic data" view of the
    /// corpus (the paper's final future-work item applies the estimator
    /// to site-traffic measurements, which are popularity fractions
    /// rather than PageRank scores).
    pub fn popularities(&self) -> Vec<f64> {
        let mut guard = self.cached_pops.lock().expect("popularity cache poisoned");
        if let Some((version, pops)) = guard.as_ref() {
            if *version == self.version {
                if qrank_obs::enabled() {
                    qrank_obs::global().counter("sim.pops_cache.hit").inc();
                }
                return pops.clone();
            }
        }
        if qrank_obs::enabled() {
            qrank_obs::global().counter("sim.pops_cache.miss").inc();
        }
        let pops: Vec<f64> = (0..self.pages.len() as u32)
            .map(|p| self.popularity(p))
            .collect();
        *guard = Some((self.version, pops.clone()));
        pops
    }

    /// Current user awareness `A(p,t)`.
    pub fn awareness(&self, p: u32) -> f64 {
        f64::from(self.aware_count[p as usize]) / self.config.num_users as f64
    }

    /// Root page of each site (crawl entry points).
    pub fn site_roots(&self) -> &[u32] {
        &self.site_roots
    }

    /// The link graph as of time `t <= now`, over all page ids (pages not
    /// yet born appear isolated). Node ids equal page indices.
    pub fn link_graph_at(&self, t: f64) -> CsrGraph {
        (*self.link_graph_arc(t)).clone()
    }

    /// Shared handle to the materialized link graph as of `t` — memoized
    /// on `(world state, t)`, so the per-step hot paths (PageRank
    /// refresh, crawler, metrics) that all ask for the current graph
    /// rebuild it at most once per mutation instead of replaying the
    /// whole event log on every call.
    pub fn link_graph_arc(&self, t: f64) -> Arc<CsrGraph> {
        let mut guard = self.cached_graph.lock().expect("graph cache poisoned");
        if let Some(c) = guard.as_ref() {
            if c.version == self.version && c.time.to_bits() == t.to_bits() {
                if qrank_obs::enabled() {
                    qrank_obs::global().counter("sim.graph_cache.hit").inc();
                }
                return Arc::clone(&c.graph);
            }
        }
        if qrank_obs::enabled() {
            qrank_obs::global().counter("sim.graph_cache.miss").inc();
        }
        let _span = qrank_obs::span!("sim.link_graph");
        // The link log only grows, so whatever graph is cached — this
        // version's at another time or an older version's — is the graph
        // of some prefix of it, and `DynamicGraph` extends it when that
        // prefix is part of what `t` asks for (a schedule of crawls
        // sorts every event once) and starts over when it is not.
        let base = guard.as_ref().map(|c| (&*c.graph, c.events));
        let built = self.links.graph_at_full_from(base, t);
        if qrank_obs::enabled() {
            let registry = qrank_obs::global();
            registry
                .counter("sim.link_graph.events_sorted")
                .add(built.events_sorted as u64);
            registry
                .counter("sim.link_graph.edges_copied")
                .add(built.edges_copied as u64);
        }
        let g = Arc::new(built.graph);
        *guard = Some(GraphCache {
            version: self.version,
            time: t,
            events: built.events,
            graph: Arc::clone(&g),
        });
        g
    }

    /// Set the number of worker threads the visit phase may use. Purely
    /// an execution knob: the history is bit-identical for every value
    /// (see the module docs). Clamped to at least 1.
    pub fn set_thread_budget(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }
}

/// One step's visit rate of each page.
#[derive(Debug)]
enum VisitRates<'a> {
    /// Proposition 1: the rate is a function of the page's like count,
    /// tabulated at bootstrap.
    ByLikes {
        table: &'a [PoissonRate],
        liked_count: &'a [u32],
    },
    /// Visits per unit time of each page, before `dt` scaling.
    PerPage { weights: &'a [f64], dt: f64 },
}

/// A contiguous run of pages as the visit phase mutates them: their rows
/// of the awareness table, the rows' popcounts and, in a world that
/// forgets, their member lists (`members` is empty otherwise).
struct PageChunk<'a> {
    first_page: usize,
    /// Words per row.
    stride: usize,
    rows: &'a mut [u64],
    counts: &'a mut [u32],
    members: &'a mut [Vec<u32>],
}

impl<'a> PageChunk<'a> {
    /// The first `pages` pages (or all, if fewer) and the rest.
    fn split_at(self, pages: usize) -> (PageChunk<'a>, PageChunk<'a>) {
        let pages = pages.min(self.counts.len());
        let (rows, rows_rest) = self.rows.split_at_mut(pages * self.stride);
        let (counts, counts_rest) = self.counts.split_at_mut(pages);
        let (members, members_rest) = self.members.split_at_mut(pages.min(self.members.len()));
        (
            PageChunk {
                first_page: self.first_page,
                stride: self.stride,
                rows,
                counts,
                members,
            },
            PageChunk {
                first_page: self.first_page + pages,
                stride: self.stride,
                rows: rows_rest,
                counts: counts_rest,
                members: members_rest,
            },
        )
    }
}

/// What every page's visits in one step read and none of them writes.
struct VisitStep<'a> {
    num_users: usize,
    streams: StepStreams,
    rates: VisitRates<'a>,
    pages: &'a [PageInfo],
}

impl VisitStep<'_> {
    /// Visit every page of `chunk` in page order; like events append to
    /// `likes`. Returns the visits drawn.
    fn visit_chunk(&self, chunk: PageChunk, likes: &mut Vec<(u32, u32)>) -> u64 {
        let mut members = chunk.members.iter_mut();
        let rows = chunk.rows.chunks_exact_mut(chunk.stride);
        let mut visits = 0u64;
        for (i, (row, count)) in rows.zip(chunk.counts).enumerate() {
            visits += self.visit_page(chunk.first_page + i, row, count, members.next(), likes);
        }
        visits
    }

    /// Visits to one page within one step, drawn from the page's own
    /// `(seed, step, page)` stream. Each visit is by a uniformly random
    /// user (Proposition 2); only visits by currently-unaware users
    /// change any state, so the Poisson visit stream is thinned to its
    /// discovery events: discoveries ~ Binomial(visits, unaware/n), each
    /// by a uniformly random unaware user. (Within one step the thinning
    /// probability is held at its start-of-step value — an O(dt²)
    /// approximation, like the step discretization itself.) The page's
    /// awareness `row`, its popcount and (where kept) its member list
    /// are updated in place; like events append to `likes` in discovery
    /// order. Returns the number of visits drawn (telemetry only — pages
    /// whose stream is never sampled report 0).
    fn visit_page(
        &self,
        page: usize,
        row: &mut [u64],
        aware_count: &mut u32,
        mut members: Option<&mut Vec<u32>>,
        likes: &mut Vec<(u32, u32)>,
    ) -> u64 {
        let num_users = self.num_users;
        let unaware = num_users - *aware_count as usize;
        if unaware == 0 {
            return 0; // saturated: visits cannot change anything
        }
        let rate = match self.rates {
            VisitRates::ByLikes { table, liked_count } => table[liked_count[page] as usize],
            VisitRates::PerPage { weights, dt } => PoissonRate::new(weights[page] * dt),
        };
        let mut rng = self.streams.for_page(page as u64);
        let visits = sample_poisson_rate(&mut rng, rate);
        if visits == 0 {
            return 0;
        }
        let discoveries =
            binomial(&mut rng, visits, unaware as f64 / num_users as f64).min(unaware as u64);
        let quality = self.pages[page].quality;
        for _ in 0..discoveries {
            // rejection-sample an unaware user; expected trials n/unaware,
            // total work bounded by n bit tests
            let user = loop {
                let u = rng.random_range(0..num_users) as u32;
                if !test_bit(row, u) {
                    break u;
                }
            };
            set_bit(row, user);
            *aware_count += 1;
            if let Some(members) = members.as_deref_mut() {
                members.push(user);
            }
            // first discovery: like with probability Q(p)
            if rng.random::<f64>() < quality {
                likes.push((page as u32, user));
            }
        }
        visits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SimConfig {
        SimConfig {
            num_users: 300,
            num_sites: 5,
            visit_ratio: 3.0,
            page_birth_rate: 10.0,
            dt: 0.05,
            seed: 11,
            ..Default::default()
        }
    }

    #[test]
    fn bootstrap_shape() {
        let w = World::bootstrap(small_config()).unwrap();
        assert_eq!(w.num_pages(), 5 + 300); // roots + homepages
        assert_eq!(w.site_roots().len(), 5);
        assert_eq!(w.time(), 0.0);
        // every homepage owner likes their page
        for user in 0..300u32 {
            let hp = w.homepage[user as usize];
            assert!(w.popularity(hp) > 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = World::bootstrap(small_config()).unwrap();
        let mut b = World::bootstrap(small_config()).unwrap();
        a.run_until(1.0);
        b.run_until(1.0);
        assert_eq!(a.num_pages(), b.num_pages());
        for p in 0..a.num_pages() as u32 {
            assert_eq!(a.popularity(p), b.popularity(p));
            assert_eq!(a.page(p).quality, b.page(p).quality);
        }
        assert_eq!(
            a.link_graph_at(1.0).edges().collect::<Vec<_>>(),
            b.link_graph_at(1.0).edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn pages_are_born_over_time() {
        let mut w = World::bootstrap(small_config()).unwrap();
        let before = w.num_pages();
        w.run_until(2.0);
        let born = w.num_pages() - before;
        // expected 10/unit * 2 units = ~20 births
        assert!((5..=60).contains(&born), "births {born}");
    }

    #[test]
    fn popularity_grows_toward_quality() {
        // with a high visit ratio and long run, popularity approaches Q
        let cfg = SimConfig {
            num_users: 400,
            num_sites: 2,
            visit_ratio: 6.0,
            page_birth_rate: 0.0,
            quality_dist: crate::QualityDist::Fixed(0.5),
            dt: 0.05,
            seed: 13,
            ..Default::default()
        };
        let mut w = World::bootstrap(cfg).unwrap();
        w.run_until(15.0);
        // site roots have been visited plenty; popularity ~ quality
        for &root in w.site_roots() {
            let pop = w.popularity(root);
            assert!(
                (pop - 0.5).abs() < 0.12,
                "root popularity {pop} should approach quality 0.5"
            );
            let aw = w.awareness(root);
            assert!(aw > 0.9, "awareness {aw} should saturate");
        }
    }

    #[test]
    fn popularity_never_exceeds_awareness() {
        let mut w = World::bootstrap(small_config()).unwrap();
        w.run_until(3.0);
        for p in 0..w.num_pages() as u32 {
            assert!(w.popularity(p) <= w.awareness(p) + 1e-12);
        }
    }

    #[test]
    fn all_pages_crawlable_from_their_site_root() {
        let mut w = World::bootstrap(small_config()).unwrap();
        w.run_until(2.0);
        let g = w.link_graph_at(w.time());
        for &root in w.site_roots() {
            let reached: std::collections::HashSet<u32> =
                qrank_graph::traversal::bfs(&g, root).into_iter().collect();
            for (p, info) in w.pages.iter().enumerate() {
                if w.site_roots[info.site as usize] == root {
                    assert!(reached.contains(&(p as u32)), "page {p} unreachable");
                }
            }
        }
    }

    #[test]
    fn forgetting_reduces_popularity() {
        let base = SimConfig {
            num_users: 400,
            num_sites: 3,
            visit_ratio: 4.0,
            page_birth_rate: 0.0,
            quality_dist: crate::QualityDist::Fixed(0.6),
            dt: 0.05,
            seed: 17,
            ..Default::default()
        };
        let mut keep = World::bootstrap(base).unwrap();
        let mut forget = World::bootstrap(SimConfig {
            forget_rate: 2.0,
            ..base
        })
        .unwrap();
        keep.run_until(12.0);
        forget.run_until(12.0);
        let avg = |w: &World| {
            let roots = w.site_roots();
            roots.iter().map(|&r| w.popularity(r)).sum::<f64>() / roots.len() as f64
        };
        assert!(
            avg(&forget) < avg(&keep) * 0.8,
            "forgetting should depress popularity: {} vs {}",
            avg(&forget),
            avg(&keep)
        );
    }

    #[test]
    fn forgetting_removes_like_links_but_not_navigation() {
        let cfg = SimConfig {
            num_users: 200,
            num_sites: 2,
            visit_ratio: 5.0,
            page_birth_rate: 5.0,
            quality_dist: crate::QualityDist::Fixed(0.8),
            forget_rate: 5.0,
            dt: 0.05,
            seed: 19,
            ..Default::default()
        };
        let mut w = World::bootstrap(cfg).unwrap();
        w.run_until(6.0);
        // navigation links intact: everything still crawlable
        let g = w.link_graph_at(w.time());
        for &root in w.site_roots() {
            let reached: std::collections::HashSet<u32> =
                qrank_graph::traversal::bfs(&g, root).into_iter().collect();
            for (p, info) in w.pages.iter().enumerate() {
                if w.site_roots[info.site as usize] == root {
                    assert!(reached.contains(&(p as u32)));
                }
            }
        }
    }

    #[test]
    fn pagerank_visit_model_runs_and_differs() {
        let base = SimConfig {
            num_users: 200,
            num_sites: 3,
            page_birth_rate: 5.0,
            dt: 0.1,
            seed: 23,
            ..Default::default()
        };
        let mut by_pop = World::bootstrap(base).unwrap();
        let mut by_pr = World::bootstrap(SimConfig {
            visit_model: VisitModel::ByPageRank,
            ..base
        })
        .unwrap();
        by_pop.run_until(3.0);
        by_pr.run_until(3.0);
        // both advanced; trajectories differ (rich-get-richer vs model)
        assert!(by_pr.num_pages() > 200);
        let pops_a: Vec<f64> = (0..by_pop.site_roots().len())
            .map(|i| by_pop.popularity(by_pop.site_roots()[i]))
            .collect();
        let pops_b: Vec<f64> = (0..by_pr.site_roots().len())
            .map(|i| by_pr.popularity(by_pr.site_roots()[i]))
            .collect();
        assert_ne!(pops_a, pops_b);
    }

    #[test]
    fn search_rank_exposure_starves_the_tail() {
        // Under position-biased exposure, bottom-ranked pages receive
        // almost no visits: their awareness stays near the author alone,
        // while the uniform-popularity world spreads discovery broadly.
        let base = SimConfig {
            num_users: 400,
            num_sites: 5,
            visit_ratio: 2.0,
            page_birth_rate: 20.0,
            quality_dist: crate::QualityDist::Fixed(0.7),
            dt: 0.1,
            seed: 29,
            ..Default::default()
        };
        let mut fair = World::bootstrap(base).unwrap();
        let mut biased = World::bootstrap(SimConfig {
            visit_model: VisitModel::BySearchRank { bias: 1.5 },
            ..base
        })
        .unwrap();
        fair.run_until(6.0);
        biased.run_until(6.0);
        // compare awareness of late-born pages (the discovery-starved
        // cohort) between the two worlds
        let late_awareness = |w: &World| -> f64 {
            let mut sum = 0.0f64;
            let mut count = 0.0f64;
            for p in 0..w.num_pages() as u32 {
                if w.page(p).created_at > 2.0 {
                    sum += w.awareness(p);
                    count += 1.0;
                }
            }
            sum / count.max(1.0)
        };
        let fair_aw = late_awareness(&fair);
        let biased_aw = late_awareness(&biased);
        assert!(
            biased_aw < fair_aw,
            "position bias should starve young pages: {biased_aw} vs {fair_aw}"
        );
    }

    #[test]
    fn tables_counts_and_member_lists_agree() {
        // 70 users: one full word and six bits of the next, so a stray
        // bit past the population would have somewhere to hide.
        let base = SimConfig {
            num_users: 70,
            visit_ratio: 4.0,
            ..small_config()
        };
        for forget_rate in [0.0, 1.5] {
            let mut w = World::bootstrap(SimConfig {
                forget_rate,
                ..base
            })
            .unwrap();
            w.run_until(4.0);
            assert_eq!(w.aware_members.is_empty(), forget_rate == 0.0);
            assert_eq!(w.structural.is_empty(), forget_rate == 0.0);
            let popcount = |row: &[u64]| row.iter().map(|w| w.count_ones()).sum::<u32>();
            for p in 0..w.num_pages() {
                let (aware, liked) = (w.aware.row(p), w.liked.row(p));
                assert_eq!(aware.len(), 2);
                assert_eq!(aware[1] >> 6, 0, "page {p}: aware bit past user 69");
                assert_eq!(liked[1] >> 6, 0, "page {p}: liked bit past user 69");
                assert_eq!(w.aware_count[p], popcount(aware), "page {p}");
                assert_eq!(w.liked_count[p], popcount(liked), "page {p}");
                // nobody likes a page they do not know
                assert!(
                    aware.iter().zip(liked).all(|(a, l)| l & !a == 0),
                    "page {p}"
                );
                if let Some(members) = w.aware_members.get(p) {
                    // the list is the row, in some order, each user once
                    assert_eq!(members.len(), w.aware_count[p] as usize, "page {p}");
                    assert!(members.iter().all(|&u| test_bit(aware, u)), "page {p}");
                    let distinct: HashSet<u32> = members.iter().copied().collect();
                    assert_eq!(distinct.len(), members.len(), "page {p}");
                }
            }
            // the run did something: a page beyond its author's reach
            assert!(w.aware_count.iter().any(|&c| c > 10));
        }
    }

    #[test]
    fn link_graph_time_travel() {
        let mut w = World::bootstrap(small_config()).unwrap();
        w.run_until(2.0);
        let early = w.link_graph_at(0.0);
        let late = w.link_graph_at(2.0);
        assert!(late.num_edges() > early.num_edges());
        // both over the full page id space
        assert_eq!(early.num_nodes(), late.num_nodes());
    }
}
