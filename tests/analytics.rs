//! Cross-crate analytics integration: the rank-shift machinery and the
//! structural realism of the simulated web (a power-law in-degree tail,
//! one weak component).

use qrank::core::ranking::{mean_rank_of, rank_shift};
use qrank::graph::stats::{degree_power_law_alpha, DegreeKind};
use qrank::rank::{pagerank, PageRankConfig};
use qrank::sim::{Crawler, QualityDist, SimConfig, World};

fn mature_world(seed: u64) -> World {
    let cfg = SimConfig {
        num_users: 500,
        num_sites: 10,
        visit_ratio: 1.0,
        page_birth_rate: 25.0,
        quality_dist: QualityDist::Uniform { lo: 0.05, hi: 0.95 },
        dt: 0.1,
        seed,
        ..Default::default()
    };
    let mut w = World::bootstrap(cfg).expect("bootstrap");
    w.run_until(8.0);
    w
}

#[test]
fn quality_reranking_promotes_young_quality_pages() {
    let w = mature_world(7);
    let snap = Crawler::default().crawl(&w, w.time()).expect("crawl");
    let pr = pagerank(&snap.graph, &PageRankConfig::default());
    // hypothetical quality-true scores (what a perfect estimator gives)
    let truth: Vec<f64> = snap
        .pages()
        .iter()
        .map(|pid| w.page(pid.0 as u32).quality)
        .collect();
    let shift = rank_shift(&pr.scores, &truth, 20);
    // the two rankings must genuinely differ
    assert!(shift.mean_abs_shift > 1.0);
    // young high-quality pages move up on average
    let now = w.time();
    let gems: Vec<usize> = snap
        .pages()
        .iter()
        .enumerate()
        .filter(|(_, pid)| {
            let info = w.page(pid.0 as u32);
            info.quality > 0.7 && now - info.created_at < 2.0
        })
        .map(|(i, _)| i)
        .collect();
    if gems.len() >= 3 {
        let by_pr = mean_rank_of(&pr.scores, &gems);
        let by_truth = mean_rank_of(&truth, &gems);
        assert!(
            by_truth < by_pr,
            "gems should rank better under quality: {by_truth} vs {by_pr}"
        );
    }
}

#[test]
fn simulated_web_is_web_like() {
    let w = mature_world(11);
    let snap = Crawler::default().crawl(&w, w.time()).expect("crawl");
    let g = &snap.graph;
    // heavy-tailed in-degree
    let alpha = degree_power_law_alpha(g, DegreeKind::In, 3);
    assert!(alpha.is_some(), "power-law fit should be estimable");
    let alpha = alpha.unwrap();
    assert!((1.2..6.0).contains(&alpha), "alpha {alpha}");
    // navigable: site roots reach everything (checked by crawler), and
    // the whole crawl is one weak component
    let (_, wcc) = qrank::graph::traversal::weakly_connected_components(g);
    assert_eq!(wcc, 1, "crawled web should be weakly connected");
}
