//! Golden digests of the three PageRank kernels.
//!
//! The published scores are a function of the solvers' exact update
//! schedule and summation order, so a kernel rewrite that is "the same
//! arithmetic" has to prove it bit for bit. The Gauss–Seidel and colored
//! digests were computed at commit 4ee874b (before the sweeps kept
//! `x[u] / c_u` up to date at the write and before Gauss–Seidel folded
//! its residual into the sweep); the power-iteration digest (the
//! simulator's visit weights) at commit 84e4548, before warm start left
//! the kernels. Each covers scores, iteration count and every per-sweep
//! residual of a solve from the uniform vector.

use qrank_graph::CsrGraph;
use qrank_rank::{colored_gauss_seidel, gauss_seidel, pagerank, PageRankConfig, PageRankResult};

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

const GAUSS_SEIDEL: u64 = 0x8697_ef43_d784_8168;
const COLORED: u64 = 0x3bdf_8928_12b2_5d67;
const POWER: u64 = 0xe1be_7e32_1d17_30db;

fn solved_digest(solve: impl Fn(&CsrGraph, &PageRankConfig) -> PageRankResult) -> u64 {
    let cfg = PageRankConfig {
        tolerance: 1e-10,
        ..Default::default()
    };
    digest(&solve(&web(), &cfg))
}

#[test]
fn gauss_seidel_scores_are_the_bits_of_4ee874b() {
    assert_eq!(solved_digest(gauss_seidel), GAUSS_SEIDEL);
}

#[test]
fn colored_scores_are_the_bits_of_4ee874b() {
    assert_eq!(solved_digest(colored_gauss_seidel), COLORED);
}

#[test]
fn power_scores_are_the_bits_of_84e4548() {
    assert_eq!(solved_digest(pagerank), POWER);
}
