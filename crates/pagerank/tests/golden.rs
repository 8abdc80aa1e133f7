//! Golden digests of the two solvers the pipeline reaches.
//!
//! The published scores are a function of the solvers' exact update
//! schedule and summation order, so a kernel rewrite that is "the same
//! arithmetic" has to prove it bit for bit. The digests below were
//! computed at commit 4ee874b (before the sweeps kept `x[u] / c_u`
//! up to date at the write and before Gauss–Seidel folded its residual
//! into the sweep) and cover scores, iteration count and every
//! per-sweep residual, cold and warm.

use qrank_graph::CsrGraph;
use qrank_rank::{colored_gauss_seidel_warm, gauss_seidel_warm, PageRankConfig, PageRankResult};

/// 2 000 pages, ~9 000 links from a fixed LCG: hubs, self-loops, and a
/// tail of pages with no out-links (footnote 2 has work to do).
fn web() -> CsrGraph {
    let n = 2_000u64;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut edges = Vec::new();
    for _ in 0..9_000 {
        // sources skip the last 150 ids (dangling tail); targets favor
        // low ids (hubs)
        let u = next() % (n - 150);
        let v = (next() % n) * (next() % n) / n;
        edges.push((u as u32, v as u32));
    }
    CsrGraph::from_edges(n as usize, &edges)
}

fn digest(r: &PageRankResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    word(r.iterations as u64);
    word(u64::from(r.converged));
    for &v in r.residuals.iter().chain(&r.scores) {
        word(v.to_bits());
    }
    h
}

/// Cold, then warm.
const GAUSS_SEIDEL: [u64; 2] = [0x8697_ef43_d784_8168, 0x8f93_d632_7cdb_a466];
const COLORED: [u64; 2] = [0x3bdf_8928_12b2_5d67, 0x1a10_38d6_e579_71d6];

fn digests(
    solve: impl Fn(&CsrGraph, &PageRankConfig, Option<&[f64]>) -> PageRankResult,
) -> [u64; 2] {
    let g = web();
    let warm: Vec<f64> = (0..g.num_nodes()).map(|i| 1.0 + (i % 7) as f64).collect();
    let cfg = PageRankConfig {
        tolerance: 1e-10,
        ..Default::default()
    };
    [
        digest(&solve(&g, &cfg, None)),
        digest(&solve(&g, &cfg, Some(&warm))),
    ]
}

#[test]
fn gauss_seidel_scores_are_the_bits_of_4ee874b() {
    assert_eq!(digests(gauss_seidel_warm), GAUSS_SEIDEL, "cold, warm");
}

#[test]
fn colored_scores_are_the_bits_of_4ee874b() {
    for threads in [1, 3] {
        assert_eq!(
            digests(|g, cfg, warm| colored_gauss_seidel_warm(g, cfg, warm, threads)),
            COLORED,
            "threads = {threads}"
        );
    }
}
