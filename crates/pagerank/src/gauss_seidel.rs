//! Gauss–Seidel PageRank: in-place sweeps that use already-updated
//! values within the same iteration.
//!
//! On slowly-mixing graphs (long chains, near-cyclic structure) GS
//! converges in dramatically fewer sweeps than Jacobi power iteration —
//! one sweep can propagate rank down an entire chain. On fast-mixing
//! random graphs plain power iteration can need *fewer* iterations: its
//! error stays orthogonal to the dominant eigenvector (iterates remain on
//! the probability simplex), so it contracts at `α·|λ₂|` rather than
//! GS's spectral radius. Both solvers reach the same fixed point; pick by
//! benchmarking on your graph shape.
//!
//! **The layout.** A solve first copies the graph's in-adjacency into a
//! private pull layout: one 32-byte record per node, holding its first
//! `HEAD = 4` in-neighbours, the range of the rest and its
//! `1 / out-degree`, plus the in-neighbours past each head as 4-wide
//! chunks. A short head and a row's last chunk are padded with a
//! sentinel whose share is `0.0`. A sweep streams the records in node
//! order and gathers a row's shares head first, then chunk by chunk. The
//! addends and their order are those of a loop over each row of the
//! graph, so the scores, sweep counts and residuals are that loop's bit
//! for bit; the loop is kept as the tests' oracle.

use qrank_graph::CsrGraph;

use crate::power::{apply_scale, inv_out_degree, renormalize, start_vector, PageRankResult};
use crate::PageRankConfig;

/// Compute PageRank by Gauss–Seidel iteration, from the uniform vector.
///
/// Converges to the same fixed point as [`crate::pagerank`] (this is
/// tested), usually in noticeably fewer sweeps. The residual reported per
/// sweep is the L1 distance between consecutive sweep results.
pub fn gauss_seidel(g: &CsrGraph, config: &PageRankConfig) -> PageRankResult {
    let mut out = PageRankResult::unsolved(g.num_nodes());
    gauss_seidel_into(g, config, &mut out);
    out
}

/// In-neighbours a row keeps in its padded head slot, and the width of
/// every tail chunk. Measured on the three graph shapes the system
/// solves sequentially (EXPERIMENTS.md "Pull layout head width"): 2 is
/// slower than 4 on the sparse arrival-ordered webs (rows of 3–4 links
/// fall out of the head), 8 is level with 4 on the 36 k web, slower on
/// the 105 k one, and doubles the padding a sweep reads. The colored
/// sweep's layout uses the same head.
pub(crate) const HEAD: usize = 4;

/// One row of the pull layout: everything a sweep reads about node `v`
/// but the shares it gathers, in one 32-byte record.
#[derive(Clone, Copy)]
struct Row {
    /// The first [`HEAD`] in-neighbours, padded with the sentinel `n`.
    head: [u32; HEAD],
    /// The rest of the in-row is `chunks[tail.0..tail.1]`.
    tail: (u32, u32),
    /// `1 / out-degree` of `v`, `0.0` for a dangling page.
    inv: f64,
}

const _: () = assert!(std::mem::size_of::<Row>() == 32);

/// The graph's in-adjacency as one [`Row`] per node, in node order, and
/// the in-neighbours past each head as [`HEAD`]-wide chunks, the last
/// chunk of a row padded with the sentinel `n`.
///
/// A third of a web's rows are empty and most of the rest hold a
/// handful of links, so a loop over a row's own length mispredicts its
/// exit about once a row and the gathers behind it never overlap. Here
/// a sweep streams one record per row: the head is [`HEAD`]
/// unconditional loads, and a longer row reads its tail a whole chunk
/// at a time, branching once per chunk rather than once per link.
///
/// The sentinel indexes a slot of `w` that is `0.0` for good. Every
/// partial sum is non-negative (`w` holds shares of a non-negative
/// iterate), so `acc + 0.0` is `acc` bit for bit, and a row's sum is
/// formed from the same addends in the same order as the row-order
/// loop forms it — the same scores, sweeps and residuals.
fn pull_layout(g: &CsrGraph) -> (Vec<Row>, Vec<[u32; HEAD]>) {
    let n = g.num_nodes();
    let sentinel = n as u32;
    let num_chunks: usize = (0..n as u32)
        .map(|v| g.in_degree(v).saturating_sub(HEAD).div_ceil(HEAD))
        .sum();
    assert!(u32::try_from(num_chunks).is_ok(), "tail chunks fit in u32");
    let mut chunks = Vec::with_capacity(num_chunks);
    let rows = (0..n as u32)
        .map(|v| {
            let links = g.in_neighbors(v);
            let held = links.len().min(HEAD);
            let mut head = [sentinel; HEAD];
            head[..held].copy_from_slice(&links[..held]);
            let first = chunks.len() as u32;
            for part in links[held..].chunks(HEAD) {
                let mut chunk = [sentinel; HEAD];
                chunk[..part.len()].copy_from_slice(part);
                chunks.push(chunk);
            }
            Row {
                head,
                tail: (first, chunks.len() as u32),
                inv: inv_out_degree(g, v),
            }
        })
        .collect();
    (rows, chunks)
}

/// [`gauss_seidel()`] into `out`, which the caller allocated with one
/// score slot per node ([`PageRankResult::unsolved`]): the iterate lives
/// in `out.scores` from the first sweep on, so a worker thread solving a
/// column returns nothing it allocated itself but the residual list.
pub(crate) fn gauss_seidel_into(g: &CsrGraph, config: &PageRankConfig, out: &mut PageRankResult) {
    let _span = qrank_obs::span!("rank.gauss_seidel");
    config.validate();
    let n = g.num_nodes();
    let x = &mut out.scores[..];
    assert_eq!(x.len(), n, "one score slot per node");
    if n == 0 {
        out.converged = true;
        return;
    }
    let alpha = config.follow_prob;
    let teleport = (1.0 - alpha) / n as f64;
    start_vector(x);
    let (rows, chunks) = pull_layout(g);
    // w[u] = x[u] / c_u, refreshed where x[u] is written: the pull below
    // then costs one random read per edge instead of two, and adds the
    // very products it used to form in place. w[n] is the sentinel's
    // slot and stays 0.0.
    let mut w: Vec<f64> = x.iter().zip(&rows).map(|(&x, row)| x * row.inv).collect();
    w.push(0.0);

    // Running dangling mass, updated incrementally as nodes change, and
    // its share per page, recomputed where the mass moves.
    let mut dangling_mass: f64 = x
        .iter()
        .zip(&rows)
        .filter(|(_, row)| row.inv == 0.0)
        .map(|(&x, _)| x)
        .sum();
    let mut dangling_share = alpha * dangling_mass / n as f64;

    while out.iterations < config.max_iterations {
        // L1 distance to the previous sweep, summed in node order as the
        // values are replaced.
        let mut r = 0.0;
        for (v, row) in rows.iter().enumerate() {
            let mut acc = 0.0;
            for u in row.head {
                acc += w[u as usize];
            }
            for chunk in &chunks[row.tail.0 as usize..row.tail.1 as usize] {
                for &u in chunk {
                    acc += w[u as usize];
                }
            }
            // Footnote 2: a dangling page links to every page. For a
            // dangling v, its own mass is inside `dangling_mass` at its
            // *old* value — the implicit self term is not solved for,
            // consistent with the Jacobi step.
            let new_v = teleport + dangling_share + alpha * acc;
            if row.inv == 0.0 {
                dangling_mass += new_v - x[v];
                dangling_share = alpha * dangling_mass / n as f64;
            }
            r += (new_v - x[v]).abs();
            x[v] = new_v;
            w[v] = new_v * row.inv;
        }
        out.iterations += 1;
        out.residuals.push(r);
        if r < config.tolerance {
            out.converged = true;
            break;
        }
    }
    // GS does not preserve the simplex exactly en route; project back.
    renormalize(x);
    apply_scale(x, config.scale);
    qrank_obs::count("rank.solve.gauss_seidel", 1);
    qrank_obs::count("rank.iterations.gauss_seidel", out.iterations as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::{inv_out_degrees, pagerank};
    use crate::ScoreScale;
    use proptest::prelude::*;
    use qrank_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The sweep [`pull_layout`] replaced, kept as its oracle: every row
    /// pulled through the graph's own in-adjacency in row order, the
    /// dangling share formed afresh for every row.
    fn row_order_reference(g: &CsrGraph, config: &PageRankConfig) -> PageRankResult {
        let n = g.num_nodes();
        let mut out = PageRankResult::unsolved(n);
        if n == 0 {
            out.converged = true;
            return out;
        }
        let x = &mut out.scores[..];
        let inv = inv_out_degrees(g);
        let alpha = config.follow_prob;
        let teleport = (1.0 - alpha) / n as f64;
        start_vector(x);
        let mut w: Vec<f64> = x.iter().zip(&inv).map(|(&x, &i)| x * i).collect();
        let mut dangling_mass: f64 = (0..n).filter(|&u| inv[u] == 0.0).map(|u| x[u]).sum();
        while out.iterations < config.max_iterations {
            let mut r = 0.0;
            for v in 0..n {
                let mut acc = 0.0;
                for &u in g.in_neighbors(v as u32) {
                    acc += w[u as usize];
                }
                let dangling_share = alpha * dangling_mass / n as f64;
                let new_v = teleport + dangling_share + alpha * acc;
                if inv[v] == 0.0 {
                    dangling_mass += new_v - x[v];
                }
                r += (new_v - x[v]).abs();
                x[v] = new_v;
                w[v] = new_v * inv[v];
            }
            out.iterations += 1;
            out.residuals.push(r);
            if r < config.tolerance {
                out.converged = true;
                break;
            }
        }
        renormalize(x);
        apply_scale(x, config.scale);
        out
    }

    /// Scores and residuals by bit pattern, sweep count and verdict.
    fn assert_same_bits(g: &CsrGraph, config: &PageRankConfig) {
        let got = gauss_seidel(g, config);
        let want = row_order_reference(g, config);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.scores), bits(&want.scores), "scores");
        assert_eq!(bits(&got.residuals), bits(&want.residuals), "residuals");
        assert_eq!(got.iterations, want.iterations);
        assert_eq!(got.converged, want.converged);
    }

    /// On both output scales and with a sweep cap that bites.
    fn assert_same_bits_every_config(g: &CsrGraph) {
        let configs = [
            PageRankConfig::default(),
            PageRankConfig {
                scale: ScoreScale::Probability,
                tolerance: 1e-12,
                ..Default::default()
            },
            PageRankConfig {
                max_iterations: 3,
                ..Default::default()
            },
        ];
        for config in &configs {
            assert_same_bits(g, config);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Few nodes and many edge draws: self-loops, dangling nodes,
        /// empty rows and rows well past the head all come up.
        #[test]
        fn layout_matches_row_order_sweep_bitwise(
            n in 1usize..24,
            edges in prop::collection::vec((0u32..24, 0u32..24), 0..160),
        ) {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            assert_same_bits_every_config(&CsrGraph::from_edges(n, &edges));
        }
    }

    #[test]
    fn layout_matches_on_rows_of_every_length_around_the_head() {
        // Row v has exactly v in-links (v = 0..=3·HEAD + 1), from the
        // highest ids down, so heads are full, partly padded and empty,
        // and tails are one, two and part of a third chunk, full or
        // padded. One more row collects a link from each of 1 200
        // sources, and one a tail of exactly 64 chunks. The short rows
        // link nowhere, so they are the dangling ones.
        let long = (3 * HEAD + 2) as u32;
        let exact = long + 1;
        let n = 1_600u32;
        let mut edges = Vec::new();
        for v in 0..long {
            edges.extend((0..v).map(|k| (n - 1 - k, v)));
        }
        edges.extend((exact + 1..exact + 1_201).map(|u| (u, long)));
        edges.push((long, long)); // and a self-loop in the long row
        let exact_links = (HEAD + 64 * HEAD) as u32;
        edges.extend((exact + 1_201..exact + 1_201 + exact_links).map(|u| (u, exact)));
        let g = CsrGraph::from_edges(n as usize, &edges);
        for v in 0..long {
            assert_eq!(g.in_degree(v), v as usize);
        }
        assert!(g.in_degree(long) >= 1_000);
        assert_eq!(g.in_degree(exact), exact_links as usize);
        assert_same_bits_every_config(&g);
    }

    #[test]
    fn layout_matches_on_degenerate_graphs() {
        assert_same_bits_every_config(&CsrGraph::from_edges(0, &[]));
        assert_same_bits_every_config(&CsrGraph::from_edges(1, &[]));
        assert_same_bits_every_config(&CsrGraph::from_edges(1, &[(0, 0)]));
        assert_same_bits_every_config(&CsrGraph::from_edges(5, &[]));
    }

    fn random_graph(n: usize, m: usize, seed: u64) -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::with_nodes(n);
        for _ in 0..m {
            let u = rng.random_range(0..n) as u32;
            let v = rng.random_range(0..n) as u32;
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    #[test]
    fn matches_power_iteration() {
        let g = random_graph(200, 1200, 7);
        let cfg = PageRankConfig {
            tolerance: 1e-12,
            ..Default::default()
        };
        let a = pagerank(&g, &cfg);
        let b = gauss_seidel(&g, &cfg);
        assert!(a.converged && b.converged);
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert!((x - y).abs() < 1e-8, "power {x} vs gs {y}");
        }
    }

    #[test]
    fn matches_power_with_dangling_nodes() {
        // graph with many dangling nodes
        let g = CsrGraph::from_edges(8, &[(0, 1), (0, 2), (1, 3), (2, 4), (5, 6)]);
        let cfg = PageRankConfig {
            tolerance: 1e-13,
            ..Default::default()
        };
        let a = pagerank(&g, &cfg);
        let b = gauss_seidel(&g, &cfg);
        for (i, (x, y)) in a.scores.iter().zip(&b.scores).enumerate() {
            assert!((x - y).abs() < 1e-7, "node {i}: power {x} vs gs {y}");
        }
    }

    #[test]
    fn converges_much_faster_on_chain_graphs() {
        // A directed cycle with a chord mixes slowly; a natural-order GS
        // sweep pushes rank down the whole chain at once.
        let n = 400u32;
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        edges.push((0, n / 2));
        let g = CsrGraph::from_edges(n as usize, &edges);
        let cfg = PageRankConfig {
            tolerance: 1e-10,
            max_iterations: 2000,
            ..Default::default()
        };
        let a = pagerank(&g, &cfg);
        let b = gauss_seidel(&g, &cfg);
        assert!(a.converged && b.converged);
        assert!(
            b.iterations * 5 < a.iterations,
            "GS took {} sweeps, power {}",
            b.iterations,
            a.iterations
        );
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn empty_graph() {
        let r = gauss_seidel(&CsrGraph::from_edges(0, &[]), &PageRankConfig::default());
        assert!(r.scores.is_empty());
        assert!(r.converged);
    }

    #[test]
    fn probability_scale_sums_to_one() {
        let g = random_graph(100, 400, 9);
        let r = gauss_seidel(&g, &PageRankConfig::default());
        let sum: f64 = r.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
