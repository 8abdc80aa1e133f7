//! Cross-crate analytics integration: the cohort-bias closed forms, the
//! rank-shift machinery, and the structural realism of the simulated web
//! (a power-law in-degree tail, one weak component).

use qrank::core::ranking::{mean_rank_of, rank_shift};
use qrank::graph::stats::{degree_power_law_alpha, DegreeKind};
use qrank::model::cohort::{
    hidden_gems, pairwise_inversion_rate, time_to_overtake, CohortEnv, CohortPage,
};
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
fn cohort_model_predicts_simulated_bias_direction() {
    // Build the cohort abstraction of the live world and check that the
    // analytic inversion rate agrees in direction with the measured one.
    let w = mature_world(3);
    let env = CohortEnv {
        visit_ratio: 1.0,
        initial_popularity: 1.0 / 500.0,
    };
    let now = w.time();
    let cohort: Vec<CohortPage> = (0..w.num_pages() as u32)
        .map(|p| CohortPage {
            quality: w.page(p).quality,
            age: now - w.page(p).created_at,
        })
        .collect();
    let analytic = pairwise_inversion_rate(&env, &cohort).expect("analytic rate");

    // measured inversion rate of actual popularity vs quality (sampled)
    let mut inverted = 0usize;
    let mut comparable = 0usize;
    let n = w.num_pages() as u32;
    for i in (0..n).step_by(7) {
        for j in ((i + 1)..n).step_by(11) {
            let dq = w.page(i).quality - w.page(j).quality;
            let dp = w.popularity(i) - w.popularity(j);
            if dq == 0.0 || dp == 0.0 {
                continue;
            }
            comparable += 1;
            if (dq > 0.0) != (dp > 0.0) {
                inverted += 1;
            }
        }
    }
    let measured = inverted as f64 / comparable as f64;
    // both must show substantial (but sub-random) bias, same ballpark
    assert!(analytic > 0.02 && analytic < 0.5, "analytic {analytic}");
    assert!(measured > 0.02 && measured < 0.5, "measured {measured}");
    assert!(
        (analytic - measured).abs() < 0.2,
        "analytic {analytic} vs measured {measured}"
    );
}

#[test]
fn hidden_gems_exist_and_are_young() {
    let w = mature_world(5);
    let env = CohortEnv {
        visit_ratio: 1.0,
        initial_popularity: 1.0 / 500.0,
    };
    let now = w.time();
    let cohort: Vec<CohortPage> = (0..w.num_pages() as u32)
        .map(|p| CohortPage {
            quality: w.page(p).quality,
            age: now - w.page(p).created_at,
        })
        .collect();
    let gems = hidden_gems(&env, &cohort, 0.7, 0.1).expect("gems");
    assert!(!gems.is_empty(), "a growing web always has fresh quality");
    for &g in &gems {
        assert!(
            cohort[g].age < 6.0,
            "hidden gems should be young, got age {}",
            cohort[g].age
        );
    }
    // and overtake math: a 0.9 page overtakes a mature 0.3 page in
    // finite time, faster with higher visit ratios
    let slow = CohortEnv {
        visit_ratio: 0.5,
        initial_popularity: 1.0 / 500.0,
    };
    let fast = CohortEnv {
        visit_ratio: 2.0,
        initial_popularity: 1.0 / 500.0,
    };
    let t_slow = time_to_overtake(&slow, 0.9, 0.3).unwrap().unwrap();
    let t_fast = time_to_overtake(&fast, 0.9, 0.3).unwrap().unwrap();
    assert!(t_fast < t_slow);
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
