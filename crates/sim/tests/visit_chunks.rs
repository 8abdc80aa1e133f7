//! The visit phase cuts the pages into contiguous chunks holding equal
//! numbers of unsaturated pages, about four a thread, and each chunk sets
//! its own likes. These worlds sit at the chunker's edges — fewer
//! unsaturated pages than chunks, most pages saturated, a forgetting
//! world that unsaturates pages again — and each must give the
//! one-thread history at every budget.

use qrank_sim::{QualityDist, SimConfig, World};

/// Everything observable about a world: page count, per-page popularity
/// and awareness bits, and the full edge list of the link graph.
type Fingerprint = (usize, Vec<u64>, Vec<u64>, Vec<(u32, u32)>);

fn fingerprint(w: &World) -> Fingerprint {
    let n = w.num_pages() as u32;
    (
        w.num_pages(),
        w.popularities().iter().map(|p| p.to_bits()).collect(),
        (0..n).map(|p| w.awareness(p).to_bits()).collect(),
        w.link_graph_at(w.time()).edges().collect(),
    )
}

fn run(cfg: SimConfig, threads: usize, until: f64) -> World {
    let mut w = World::bootstrap(cfg).expect("bootstrap");
    w.set_thread_budget(threads);
    w.run_until(until);
    w
}

/// Pages some user does not know yet.
fn unsaturated(w: &World) -> usize {
    (0..w.num_pages() as u32)
        .filter(|&p| w.awareness(p) < 1.0)
        .count()
}

/// Run `cfg` at budgets 1, 2, 3 and 8 and demand the one-thread history
/// of a fresh world at every budget. Returns the one-thread world.
fn assert_budget_independent(cfg: SimConfig, until: f64, what: &str) -> World {
    let reference = run(cfg, 1, until);
    for threads in [1, 2, 3, 8] {
        let w = run(cfg, threads, until);
        assert_eq!(
            fingerprint(&w),
            fingerprint(&reference),
            "{what}: history diverged at {threads} threads"
        );
    }
    reference
}

#[test]
fn fewer_unsaturated_pages_than_chunks() {
    // 12 users on 2 sites for a few steps: about 20 pages, every one of
    // them unsaturated, against 32 chunks at a budget of 8
    let cfg = SimConfig {
        num_users: 12,
        num_sites: 2,
        visit_ratio: 3.0,
        page_birth_rate: 20.0,
        quality_dist: QualityDist::Uniform { lo: 0.2, hi: 0.9 },
        dt: 0.05,
        seed: 41,
        ..Default::default()
    };
    let w = assert_budget_independent(cfg, 0.2, "few pages");
    let open = unsaturated(&w);
    assert!((1..32).contains(&open), "{open} unsaturated pages");
    assert!(w.num_pages() > 14, "no page was born");
}

#[test]
fn a_mostly_saturated_world() {
    // 64 users and a high visit ratio: the old pages saturate and the
    // chunks' unsaturated pages crowd into the young tail
    let cfg = SimConfig {
        num_users: 64,
        num_sites: 3,
        visit_ratio: 12.0,
        page_birth_rate: 10.0,
        quality_dist: QualityDist::Uniform { lo: 0.3, hi: 0.9 },
        dt: 0.05,
        seed: 43,
        ..Default::default()
    };
    let w = assert_budget_independent(cfg, 3.0, "mostly saturated");
    let open = unsaturated(&w);
    assert!(
        open * 2 < w.num_pages(),
        "{open} of {} pages unsaturated",
        w.num_pages()
    );
    assert!(open > 0, "every page saturated: the chunker saw nothing");
}

#[test]
fn a_forgetting_world() {
    // forgetting unsaturates pages again and keeps member lists, which
    // the chunks split alongside the bit tables
    let cfg = SimConfig {
        num_users: 130,
        num_sites: 4,
        visit_ratio: 6.0,
        page_birth_rate: 12.0,
        quality_dist: QualityDist::Uniform { lo: 0.2, hi: 0.95 },
        forget_rate: 2.0,
        dt: 0.05,
        seed: 47,
        ..Default::default()
    };
    let w = assert_budget_independent(cfg, 3.0, "forgetting");
    assert!(unsaturated(&w) > 0);
}
