//! The tentpole guarantee of the parallel execution layer: a simulated
//! history is a pure function of the config — **bit-identical for any
//! thread count**. Every page draws its visit-phase randomness from a
//! counter-based stream keyed on `(seed, step, page)`, so chunking the
//! pages across 1, 2, or 8 workers cannot change a single draw.

use qrank_graph::Fingerprinter;
use qrank_sim::{Crawler, QualityDist, SimConfig, VisitModel, World};

fn base_config() -> SimConfig {
    SimConfig {
        num_users: 400,
        num_sites: 5,
        visit_ratio: 3.0,
        page_birth_rate: 15.0,
        quality_dist: QualityDist::Uniform { lo: 0.1, hi: 0.9 },
        dt: 0.05,
        seed: 20_260_806,
        ..Default::default()
    }
}

/// Everything observable about a world: page count, per-page popularity
/// and awareness, and the full edge list of the link graph.
type Fingerprint = (usize, Vec<f64>, Vec<f64>, Vec<(u32, u32)>);

fn fingerprint(w: &World) -> Fingerprint {
    let n = w.num_pages() as u32;
    (
        w.num_pages(),
        w.popularities(),
        (0..n).map(|p| w.awareness(p)).collect(),
        w.link_graph_at(w.time()).edges().collect(),
    )
}

/// [`fingerprint`] folded into one word, so a history can be pinned as
/// a constant.
fn digest(w: &World) -> u64 {
    let (pages, pops, aware, edges) = fingerprint(w);
    let mut h = Fingerprinter::new();
    h.word(pages as u64);
    h.words(pops.iter().map(|p| p.to_bits()));
    h.words(aware.iter().map(|a| a.to_bits()));
    h.word(edges.len() as u64);
    h.words(
        edges
            .iter()
            .map(|&(s, d)| u64::from(s) << 32 | u64::from(d)),
    );
    h.finish()
}

fn run(cfg: SimConfig, threads: usize, until: f64) -> World {
    let mut w = World::bootstrap(cfg).expect("bootstrap");
    w.set_thread_budget(threads);
    w.run_until(until);
    w
}

#[test]
fn histories_bit_identical_across_thread_counts() {
    let reference = run(base_config(), 1, 2.0);
    for threads in [2, 3, 8] {
        let w = run(base_config(), threads, 2.0);
        assert_eq!(
            fingerprint(&w),
            fingerprint(&reference),
            "history diverged at {threads} threads"
        );
    }
}

#[test]
fn forgetting_worlds_are_thread_count_independent() {
    let cfg = SimConfig {
        forget_rate: 1.5,
        ..base_config()
    };
    let reference = run(cfg, 1, 2.0);
    for threads in [2, 8] {
        let w = run(cfg, threads, 2.0);
        assert_eq!(
            fingerprint(&w),
            fingerprint(&reference),
            "forgetting history diverged at {threads} threads"
        );
    }
}

#[test]
fn histories_match_golden_digests() {
    // Computed at commit 0f81405, when every like-link's source was still
    // recorded in a `HashMap<(page, user), src>`. The simulator now
    // derives it from `homepage[user]`; these constants prove that no
    // like, no link and no forget moved. A deliberate change to the
    // model must re-derive them and say so.
    const GOLDEN_NO_FORGETTING: u64 = 0x506c_be8b_ec5f_c720;
    const GOLDEN_FORGETTING: u64 = 0x84c6_41ee_e266_82c3;
    let forgetting = SimConfig {
        forget_rate: 1.5,
        ..base_config()
    };
    for threads in [1, 8] {
        assert_eq!(
            digest(&run(base_config(), threads, 2.0)),
            GOLDEN_NO_FORGETTING,
            "forget_rate 0 history moved at {threads} threads"
        );
        assert_eq!(
            digest(&run(forgetting, threads, 2.0)),
            GOLDEN_FORGETTING,
            "forget_rate 1.5 history moved at {threads} threads"
        );
    }
}

#[test]
fn pagerank_visit_model_is_thread_count_independent() {
    // Exercises the feedback loop: visit weights depend on the cached
    // PageRank, which depends on the like-link graph the visit phase
    // produced — any divergence compounds, so equality here is a strong
    // end-to-end check.
    let cfg = SimConfig {
        visit_model: VisitModel::ByPageRank,
        ..base_config()
    };
    let reference = run(cfg, 1, 1.5);
    for threads in [2, 8] {
        let w = run(cfg, threads, 1.5);
        assert_eq!(
            fingerprint(&w),
            fingerprint(&reference),
            "ByPageRank history diverged at {threads} threads"
        );
    }
}

#[test]
fn observability_does_not_perturb_the_history() {
    // Telemetry counts what a step did; it must never touch the RNG or
    // branch the simulation. Run the same config with observability off
    // and on (including the forgetting + multi-thread paths) and demand
    // bit-identical fingerprints.
    let cfg = SimConfig {
        forget_rate: 0.8,
        ..base_config()
    };
    qrank_obs::set_enabled(false);
    let off = run(cfg, 2, 2.0);
    let crawled_off = Crawler::default().crawl(&off, 2.0).expect("crawl");
    qrank_obs::set_enabled(true);
    let on = run(cfg, 2, 2.0);
    let crawled_on = Crawler::default().crawl(&on, 2.0).expect("crawl");
    qrank_obs::set_enabled(false);
    assert_eq!(
        fingerprint(&off),
        fingerprint(&on),
        "history diverged with observability enabled"
    );
    // the crawl stage's spans and counters are as inert as the step's
    assert_eq!(
        crawled_off.fingerprint(),
        crawled_on.fingerprint(),
        "crawl diverged with observability enabled"
    );
    let seen = qrank_obs::global().snapshot();
    assert_eq!(
        seen.counter("sim.crawl.pages"),
        Some(crawled_on.num_pages() as u64)
    );
    assert_eq!(
        seen.counter("sim.crawl.edges"),
        Some(crawled_on.graph.num_edges() as u64)
    );
    // five sites, one connected web: the first root's traversal covers
    // the other four
    assert_eq!(seen.counter("sim.crawl.roots_skipped"), Some(4));
    for span in ["span.sim.crawl", "span.sim.crawl/sim.link_graph"] {
        assert_eq!(seen.histogram(span).map(|h| h.count), Some(1), "{span}");
    }
    // and the telemetry actually recorded the steps it watched
    let steps = qrank_obs::global()
        .snapshot()
        .counter("sim.steps")
        .unwrap_or(0);
    assert!(steps >= 40, "expected ~40 steps counted, saw {steps}");
}

#[test]
fn thread_budget_is_not_part_of_the_config() {
    // The knob is runtime-only: two worlds with the same config but
    // different budgets still compare equal in every observable — so
    // serialized configs, experiment manifests, and caches never need
    // to record it.
    let a = run(base_config(), 1, 1.0);
    let b = run(base_config(), 6, 1.0);
    assert_eq!(a.config(), b.config());
    assert_eq!(fingerprint(&a), fingerprint(&b));
}
