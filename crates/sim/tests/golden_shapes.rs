//! Golden history digests for the world shapes `determinism.rs` does not
//! pin: the benchmark's `batch_cold` shape (1 000 users, `visit_ratio`
//! 1, uniform quality, far more pages than users) and a population that
//! fills one 64-bit word plus a single bit of the next. The constants
//! were computed at commit 88c2f3e, when awareness and likes were still
//! one `SampleSet` and one `BitSet` per page; the flat per-page tables
//! must reproduce them at every thread count.

use qrank_graph::Fingerprinter;
use qrank_sim::{QualityDist, SimConfig, World};

/// Page count, per-page popularity and awareness, and the link graph's
/// edge list, folded into one word (the digest of `determinism.rs`).
fn digest(w: &World) -> u64 {
    let mut h = Fingerprinter::new();
    h.word(w.num_pages() as u64);
    h.words(w.popularities().iter().map(|p| p.to_bits()));
    h.words((0..w.num_pages() as u32).map(|p| w.awareness(p).to_bits()));
    let g = w.link_graph_at(w.time());
    h.word(g.num_edges() as u64);
    h.words(g.edges().map(|(s, d)| u64::from(s) << 32 | u64::from(d)));
    h.finish()
}

fn assert_golden(cfg: SimConfig, until: f64, golden: u64, what: &str) {
    for threads in [1, 3, 8] {
        let mut w = World::bootstrap(cfg).expect("bootstrap");
        w.set_thread_budget(threads);
        w.run_until(until);
        assert_eq!(
            digest(&w),
            golden,
            "{what} history moved at {threads} threads: {:#018x}",
            digest(&w)
        );
    }
}

#[test]
fn batch_cold_shape_matches_golden_digest() {
    // `benchmark/src/batch.rs`'s `cold_config` at 1/20 scale, run to the
    // last crawl time
    let cfg = SimConfig {
        num_users: 1_000,
        num_sites: 5,
        visit_ratio: 1.0,
        page_birth_rate: 750.0,
        quality_dist: QualityDist::Uniform { lo: 0.05, hi: 0.95 },
        dt: 0.05,
        seed: 7,
        ..Default::default()
    };
    assert_golden(cfg, 8.5, 0x4284_5301_b4b1_c3ce, "batch_cold-shaped");
}

#[test]
fn populations_off_the_word_boundary_match_golden_digests() {
    let cfg = SimConfig {
        num_users: 65,
        num_sites: 3,
        visit_ratio: 2.0,
        page_birth_rate: 20.0,
        quality_dist: QualityDist::Uniform { lo: 0.1, hi: 0.9 },
        dt: 0.05,
        seed: 65,
        ..Default::default()
    };
    assert_golden(cfg, 4.0, 0x5d6f_4c27_ece1_73c5, "65-user");
    let forgetting = SimConfig {
        forget_rate: 1.0,
        ..cfg
    };
    assert_golden(forgetting, 4.0, 0x6765_8706_1069_1e34, "65-user forgetting");
    let wider = SimConfig {
        num_users: 400,
        visit_ratio: 0.5,
        forget_rate: 0.3,
        seed: 400,
        ..cfg
    };
    assert_golden(wider, 4.0, 0x730e_29eb_820c_f14e, "400-user forgetting");
}
