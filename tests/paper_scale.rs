//! Paper-scale capacity check: the paper computes PageRank over 2.7
//! million common pages. This test builds a graph of that size and runs
//! the full ranking + estimation machinery over it.
//!
//! Ignored by default (it needs a few GB of RAM and a couple of minutes
//! in release mode); run with
//! `cargo test --release --test paper_scale -- --ignored`.

use qrank::core::estimator::{PaperEstimator, QualityEstimator};
use qrank::core::PopularityTrajectories;
use qrank::graph::generators::barabasi_albert;
use qrank::graph::PageId;
use qrank::rank::{pagerank, PageRankConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
#[ignore = "multi-GB, minutes-long capacity test; run explicitly in release mode"]
fn two_point_seven_million_pages() {
    let n = 2_700_000;
    let mut rng = StdRng::seed_from_u64(2005);
    let g = barabasi_albert(n, 5, &mut rng);
    assert_eq!(g.num_nodes(), n);

    let cfg = PageRankConfig {
        tolerance: 1e-8,
        ..Default::default()
    };
    let t1 = pagerank(&g, &cfg);
    assert!(t1.converged, "cold solve must converge");
    let sum: f64 = t1.scores.iter().sum();
    assert!((sum - 1.0).abs() < 1e-6);

    // "second snapshot": add a sprinkle of edges and solve again
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    for i in 0..1_000u32 {
        edges.push((n as u32 - 1 - i, i));
    }
    let g2 = qrank::graph::CsrGraph::from_edges(n, &edges);
    let t2 = pagerank(&g2, &cfg);
    assert!(t2.converged);

    // run the estimator over the full corpus
    let traj = PopularityTrajectories {
        times: vec![0.0, 1.0],
        values: t1
            .scores
            .iter()
            .zip(&t2.scores)
            .map(|(&a, &b)| vec![a, b])
            .collect(),
        pages: (0..n as u64).map(PageId).collect(),
    };
    let estimates = PaperEstimator::default().estimate(&traj).expect("estimate");
    assert_eq!(estimates.len(), n);
    assert!(estimates.iter().all(|e| e.is_finite()));
}
