//! Multi-color Gauss–Seidel PageRank.
//!
//! A sequential Gauss–Seidel sweep visits the nodes in one fixed order.
//! This sweep visits them class by class of a graph coloring: nodes are
//! partitioned into classes such that no two nodes in a class share an
//! edge (in either direction), so within one class every update reads
//! only values frozen since the previous class. It is one thread's
//! sweep, and a column's bits are a function of its graph and
//! [`PageRankConfig`] alone; a window's columns run side by side through
//! [`crate::solve_many`] instead.
//!
//! **The layout.** A solve runs over a private class-major pull layout
//! built straight from the graph and a renaming of its nodes (the
//! identity here, the degree order on [`crate::solve_auto`]'s path). The
//! classes lie back to back, ascending renamed id inside each class, so
//! a class is one contiguous run of *positions*; the iterate, its shares
//! and the out-degrees are indexed by position. A row is the node's
//! renamed in-row sorted ascending — the row the renamed graph would
//! hold — mapped to positions and stored as a padded head of `HEAD`
//! entries, as in the sequential sweep, plus an unpadded tail. A node's
//! residual term goes to a slot indexed by its renamed id and is summed
//! in renamed order; a class's dangling delta is reduced over its
//! positions, which is ascending renamed id. Every addend and every
//! reduction order is that of the class-by-class sweep over the renamed
//! graph, so the scores, sweep counts and residuals are that sweep's bit
//! for bit, without the renamed graph being built.
//!
//! Relative to natural-order Gauss–Seidel the update *schedule* differs,
//! so the converged vector agrees with [`crate::gauss_seidel()`] only to
//! solver tolerance (documented and tested), not bitwise. Sweep counts
//! sit between Jacobi (= power iteration) and sequential GS: with `k`
//! colors, information still propagates through up to `k` graph hops per
//! sweep.

use std::cell::Cell;

use qrank_graph::relabel::Relabeling;
use qrank_graph::CsrGraph;

use crate::gauss_seidel::HEAD;
use crate::power::{apply_scale, inv_out_degree, renormalize, start_vector, PageRankResult};
use crate::PageRankConfig;

/// Greedy first-fit coloring of the graph's *conflict* structure (u
/// conflicts with v when an edge runs between them in either direction),
/// visiting the nodes in renamed order — `old_of[new]` is the graph's id
/// of renamed node `new` — and returning each node's color by the
/// graph's id. One pass over the edges, at most `max_conflict_degree + 1`
/// colors. The colors are those of the same pass over the renamed graph:
/// the colors a node finds taken do not depend on the order its
/// neighbours are met in.
fn greedy_coloring(g: &CsrGraph, old_of: &[u32]) -> Vec<u32> {
    let mut color = vec![u32::MAX; g.num_nodes()];
    // mark[c] == v  <=>  color c is taken by a neighbor of v
    let mut mark: Vec<u32> = Vec::new();
    for (v, &old) in old_of.iter().enumerate() {
        let v = v as u32;
        for &u in g.in_neighbors(old).iter().chain(g.out_neighbors(old)) {
            let cu = color[u as usize];
            if cu != u32::MAX {
                if cu as usize >= mark.len() {
                    mark.resize(cu as usize + 1, u32::MAX);
                }
                mark[cu as usize] = v;
            }
        }
        let c = (0..).find(|&c| mark.get(c as usize) != Some(&v)).unwrap();
        color[old as usize] = c;
    }
    color
}

/// The sweep's class-major pull layout (see the module docs).
struct Layout {
    /// The positions of color `c` are `classes[c]..classes[c + 1]`.
    classes: Vec<usize>,
    /// Renamed id of the node at each position.
    id: Vec<u32>,
    /// Position of each renamed id.
    pos: Vec<u32>,
    /// `1 / out-degree` per position, `0.0` for a dangling node.
    inv: Vec<f64>,
    /// The first [`HEAD`] in-neighbours of each row as positions, padded
    /// with the sentinel `n`, whose slot of `w` is `0.0` for good.
    heads: Vec<[u32; HEAD]>,
    /// The rest of row `p` is `tails[tail_at[p]..tail_at[p + 1]]`.
    tail_at: Vec<usize>,
    tails: Vec<u32>,
    /// Renamed ids of the dangling nodes of color `c`, ascending, are
    /// `dangling[dangling_at[c]..dangling_at[c + 1]]`.
    dangling: Vec<u32>,
    dangling_at: Vec<usize>,
}

impl Layout {
    fn new(g: &CsrGraph, r: &Relabeling) -> Layout {
        let n = g.num_nodes();
        let mut old_of = vec![0u32; n];
        for (old, &new) in r.perm.iter().enumerate() {
            old_of[new as usize] = old as u32;
        }
        let color = greedy_coloring(g, &old_of);

        // Count the classes, then deal the renamed ids out to them in
        // ascending order.
        let num_colors = color.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        let mut classes = vec![0usize; num_colors + 1];
        for &c in &color {
            classes[c as usize + 1] += 1;
        }
        for c in 0..num_colors {
            classes[c + 1] += classes[c];
        }
        let mut next = classes.clone();
        let mut id = vec![0u32; n];
        let mut pos = vec![0u32; n];
        for (new, &old) in old_of.iter().enumerate() {
            let at = &mut next[color[old as usize] as usize];
            id[*at] = new as u32;
            pos[new] = *at as u32;
            *at += 1;
        }

        let tail_len: usize = (0..n as u32)
            .map(|v| g.in_degree(v).saturating_sub(HEAD))
            .sum();
        let mut heads = vec![[n as u32; HEAD]; n];
        let mut tail_at = Vec::with_capacity(n + 1);
        tail_at.push(0);
        let mut tails = Vec::with_capacity(tail_len);
        let mut inv = Vec::with_capacity(n);
        let mut row = Vec::new();
        for (head, &new) in heads.iter_mut().zip(&id) {
            let old = old_of[new as usize];
            // The renamed in-row, ascending as the renamed graph holds
            // it: its order is the order the row's sum is formed in.
            row.clear();
            row.extend(g.in_neighbors(old).iter().map(|&u| r.perm[u as usize]));
            row.sort_unstable();
            for (slot, &u) in head.iter_mut().zip(&row) {
                *slot = pos[u as usize];
            }
            tails.extend(row.iter().skip(HEAD).map(|&u| pos[u as usize]));
            tail_at.push(tails.len());
            inv.push(inv_out_degree(g, old));
        }

        let mut dangling = Vec::new();
        let mut dangling_at = vec![0];
        for class in classes.windows(2) {
            dangling.extend(
                (class[0]..class[1])
                    .filter(|&p| inv[p] == 0.0)
                    .map(|p| id[p]),
            );
            dangling_at.push(dangling.len());
        }
        Layout {
            classes,
            id,
            pos,
            inv,
            heads,
            tail_at,
            tails,
            dangling,
            dangling_at,
        }
    }

    fn len(&self) -> usize {
        self.id.len()
    }
}

/// Sweeps run, whether the tolerance was met, and the residual of each
/// sweep.
type Sweeps = (usize, bool, Vec<f64>);

/// Sweep the iterate `x`, by position, until the tolerance or the sweep
/// cap: in every class, update its positions and then reduce the class's
/// dangling delta; every sweep ends with the residual summed in renamed
/// order.
fn sweep(lay: &Layout, x: &mut [f64], config: &PageRankConfig, init_dangling: f64) -> Sweeps {
    let n = lay.len();
    // The shares `x / c` by position, with the sentinel's slot last. A
    // row of the class being swept reads no other row of that class, but
    // it may read its own slot (a self-loop), so the slots are cells.
    let mut w: Vec<f64> = x.iter().zip(&lay.inv).map(|(x, i)| x * i).collect();
    w.push(0.0);
    let w = Cell::from_mut(&mut w[..]).as_slice_of_cells();
    // Each node's last change `new − old`, by renamed id.
    let mut step = vec![0.0; n];
    let alpha = config.follow_prob;
    let teleport = (1.0 - alpha) / n as f64;
    let mut dangling_mass = init_dangling;
    let mut residuals = Vec::new();
    while residuals.len() < config.max_iterations {
        for (c, class) in lay.classes.windows(2).enumerate() {
            // Footnote 2: a dangling page links to every page.
            let dangling_share = alpha * dangling_mass / n as f64;
            let (lo, hi) = (class[0], class[1]);
            let rows = lay.heads[lo..hi]
                .iter()
                .zip(lay.tail_at[lo..=hi].windows(2))
                .zip(&lay.id[lo..hi])
                .zip(&lay.inv[lo..hi])
                .zip(&mut x[lo..hi])
                .zip(&w[lo..hi]);
            for (((((head, tail), &r), &inv), x), w_at) in rows {
                let mut acc = 0.0;
                for u in *head {
                    acc += w[u as usize].get();
                }
                for &u in &lay.tails[tail[0]..tail[1]] {
                    acc += w[u as usize].get();
                }
                let new_v = teleport + dangling_share + alpha * acc;
                // Every node is written exactly once per sweep, here.
                step[r as usize] = new_v - *x;
                *x = new_v;
                w_at.set(new_v * inv);
            }
            for &r in &lay.dangling[lay.dangling_at[c]..lay.dangling_at[c + 1]] {
                dangling_mass += step[r as usize];
            }
        }
        let residual: f64 = step.iter().map(|d| d.abs()).sum();
        residuals.push(residual);
        if residual < config.tolerance {
            return (residuals.len(), true, residuals);
        }
    }
    (residuals.len(), false, residuals)
}

/// Colored Gauss–Seidel PageRank, from the uniform vector, over the
/// graph's own node order.
///
/// Converges to the same fixed point as [`crate::pagerank`] and
/// [`crate::gauss_seidel()`] (within solver tolerance).
pub fn colored_gauss_seidel(g: &CsrGraph, config: &PageRankConfig) -> PageRankResult {
    let mut out = PageRankResult::unsolved(g.num_nodes());
    colored_into(g, config, |g| Relabeling::identity(g.num_nodes()), &mut out);
    out
}

/// The colored sweep over `g`'s nodes renamed by `rename(g)`, into `out`
/// (one zeroed score slot per node), with the scores in `g`'s own node
/// order. Bit for bit the class-by-class sweep over
/// `g.relabeled(&rename(g))` with its scores mapped back: the renamed
/// graph decides the classes and every summation order, but only the
/// layout is built.
pub(crate) fn colored_into(
    g: &CsrGraph,
    config: &PageRankConfig,
    rename: fn(&CsrGraph) -> Relabeling,
    out: &mut PageRankResult,
) {
    let _span = qrank_obs::span!("rank.colored");
    config.validate();
    let n = g.num_nodes();
    assert_eq!(out.scores.len(), n, "one score slot per node");
    if n == 0 {
        out.converged = true;
        return;
    }

    let layout_span = qrank_obs::span!("rank.colored.layout");
    let r = rename(g);
    let lay = Layout::new(g, &r);
    let mut init = vec![0.0; n];
    start_vector(&mut init);
    let init_dangling: f64 = (0..n)
        .filter(|&v| lay.inv[lay.pos[v] as usize] == 0.0)
        .map(|v| init[v])
        .sum();
    drop(layout_span);

    let mut x: Vec<f64> = lay.id.iter().map(|&r| init[r as usize]).collect();
    drop(init);
    let (iterations, converged, residuals) = sweep(&lay, &mut x, config, init_dangling);
    let mut scores: Vec<f64> = lay.pos.iter().map(|&p| x[p as usize]).collect();
    drop(x);
    // Like sequential GS, the sweeps do not preserve the simplex en
    // route; project back (summing in renamed order) before scaling.
    renormalize(&mut scores);
    apply_scale(&mut scores, config.scale);
    for (score, &new) in out.scores.iter_mut().zip(&r.perm) {
        *score = scores[new as usize];
    }
    qrank_obs::count("rank.solve.colored", 1);
    qrank_obs::count("rank.iterations.colored", iterations as u64);
    out.iterations = iterations;
    out.converged = converged;
    out.residuals = residuals;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauss_seidel::gauss_seidel;
    use crate::power::{inv_out_degrees, pagerank};
    use crate::ScoreScale;
    use proptest::prelude::*;
    use qrank_graph::generators::{barabasi_albert, erdos_renyi_gnm};
    use qrank_graph::relabel::{degree_order, inverse_scores};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The parent's coloring: first fit in the graph's own node order,
    /// as color classes of ascending ids.
    fn reference_coloring(g: &CsrGraph) -> Vec<Vec<u32>> {
        let n = g.num_nodes();
        let mut color = vec![u32::MAX; n];
        let mut mark: Vec<u32> = Vec::new();
        for v in 0..n as u32 {
            for &u in g.in_neighbors(v).iter().chain(g.out_neighbors(v)) {
                let cu = color[u as usize];
                if cu != u32::MAX {
                    if cu as usize >= mark.len() {
                        mark.resize(cu as usize + 1, u32::MAX);
                    }
                    mark[cu as usize] = v;
                }
            }
            let c = (0..).find(|&c| mark.get(c as usize) != Some(&v)).unwrap();
            color[v as usize] = c;
        }
        let num_colors = color.iter().map(|&c| c + 1).max().unwrap_or(0) as usize;
        let mut classes = vec![Vec::new(); num_colors];
        for v in 0..n as u32 {
            classes[color[v as usize] as usize].push(v);
        }
        classes
    }

    /// The sweep the layout replaced, kept as its oracle: the
    /// class-by-class loop over the graph as given, rows read from the
    /// graph's in-adjacency, `prev` saved at the write.
    fn class_by_class_reference(g: &CsrGraph, config: &PageRankConfig) -> PageRankResult {
        let n = g.num_nodes();
        if n == 0 {
            return PageRankResult {
                scores: Vec::new(),
                iterations: 0,
                converged: true,
                residuals: Vec::new(),
            };
        }
        let classes = reference_coloring(g);
        let inv = inv_out_degrees(g);
        let alpha = config.follow_prob;
        let teleport = (1.0 - alpha) / n as f64;
        let class_dangling: Vec<Vec<u32>> = classes
            .iter()
            .map(|class| {
                class
                    .iter()
                    .copied()
                    .filter(|&v| inv[v as usize] == 0.0)
                    .collect()
            })
            .collect();
        let mut x = vec![0.0; n];
        start_vector(&mut x);
        let mut w: Vec<f64> = x.iter().zip(&inv).map(|(&x, &i)| x * i).collect();
        let mut prev = vec![0.0; n];
        let mut dangling_mass: f64 = (0..n).filter(|&v| inv[v] == 0.0).map(|v| x[v]).sum();
        let mut residuals = Vec::new();
        let mut converged = false;
        let mut iterations = 0;
        while iterations < config.max_iterations {
            for (ci, class) in classes.iter().enumerate() {
                let dangling_share = alpha * dangling_mass / n as f64;
                for &v in class {
                    let vu = v as usize;
                    let mut acc = 0.0;
                    for &u in g.in_neighbors(v) {
                        acc += w[u as usize];
                    }
                    let new_v = teleport + dangling_share + alpha * acc;
                    prev[vu] = x[vu];
                    x[vu] = new_v;
                    w[vu] = new_v * inv[vu];
                }
                for &v in &class_dangling[ci] {
                    dangling_mass += x[v as usize] - prev[v as usize];
                }
            }
            let residual: f64 = (0..n).map(|v| (x[v] - prev[v]).abs()).sum();
            iterations += 1;
            residuals.push(residual);
            if residual < config.tolerance {
                converged = true;
                break;
            }
        }
        renormalize(&mut x);
        apply_scale(&mut x, config.scale);
        PageRankResult {
            scores: x,
            iterations,
            converged,
            residuals,
        }
    }

    fn identity(g: &CsrGraph) -> Relabeling {
        Relabeling::identity(g.num_nodes())
    }

    const RENAMINGS: [fn(&CsrGraph) -> Relabeling; 2] = [identity, degree_order];

    /// The layout's solve against the oracle run on the renamed graph and
    /// mapped back: scores and residuals by bit pattern, sweep count and
    /// verdict.
    fn assert_same_bits(
        g: &CsrGraph,
        config: &PageRankConfig,
        rename: fn(&CsrGraph) -> Relabeling,
    ) {
        let r = rename(g);
        let mut want = class_by_class_reference(&g.relabeled(&r), config);
        want.scores = inverse_scores(&want.scores, &r);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut got = PageRankResult::unsolved(g.num_nodes());
        colored_into(g, config, rename, &mut got);
        assert_eq!(bits(&got.scores), bits(&want.scores), "scores");
        assert_eq!(bits(&got.residuals), bits(&want.residuals), "residuals");
        assert_eq!(got.iterations, want.iterations);
        assert_eq!(got.converged, want.converged);
    }

    /// On both output scales and with a sweep cap that bites.
    fn assert_same_bits_every_config(g: &CsrGraph, rename: fn(&CsrGraph) -> Relabeling) {
        let configs = [
            PageRankConfig::default(),
            PageRankConfig {
                scale: ScoreScale::PerPage,
                tolerance: 1e-12,
                ..Default::default()
            },
            PageRankConfig {
                max_iterations: 3,
                ..Default::default()
            },
        ];
        for config in &configs {
            assert_same_bits(g, config, rename);
        }
    }

    /// The layout's color classes, as lists of renamed ids.
    fn layout_classes(g: &CsrGraph, r: &Relabeling) -> Vec<Vec<u32>> {
        let lay = Layout::new(g, r);
        lay.classes
            .windows(2)
            .map(|c| lay.id[c[0]..c[1]].to_vec())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Few nodes and many edge draws: self-loops, dangling nodes,
        /// empty rows and rows well past the head all come up.
        #[test]
        fn layout_matches_class_by_class_sweep_bitwise(
            n in 1usize..24,
            edges in prop::collection::vec((0u32..24, 0u32..24), 0..160),
            renaming in 0usize..2,
        ) {
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(u, v)| (u % n as u32, v % n as u32))
                .collect();
            let g = CsrGraph::from_edges(n, &edges);
            let rename = RENAMINGS[renaming];
            let r = rename(&g);
            prop_assert_eq!(layout_classes(&g, &r), reference_coloring(&g.relabeled(&r)));
            assert_same_bits_every_config(&g, rename);
        }
    }

    #[test]
    fn layout_matches_on_rows_of_every_length_around_the_head() {
        // Row v has exactly v in-links (v = 0..=HEAD + 3), from the
        // highest ids down, so heads are full, partly padded and empty;
        // one more row collects a link from each of 1 200 sources. The
        // short rows link nowhere, so they are the dangling ones.
        let long = (HEAD + 4) as u32;
        let n = 1_300u32;
        let mut edges = Vec::new();
        for v in 0..long {
            edges.extend((0..v).map(|k| (n - 1 - k, v)));
        }
        edges.extend((long + 1..long + 1_201).map(|u| (u, long)));
        edges.push((long, long)); // and a self-loop in the long row
        let g = CsrGraph::from_edges(n as usize, &edges);
        assert!(g.in_degree(long) >= 1_000);
        for rename in RENAMINGS {
            assert_same_bits_every_config(&g, rename);
        }
    }

    #[test]
    fn layout_matches_on_degenerate_graphs() {
        for g in [
            CsrGraph::from_edges(0, &[]),
            CsrGraph::from_edges(1, &[]),
            CsrGraph::from_edges(1, &[(0, 0)]),
            CsrGraph::from_edges(5, &[]),
        ] {
            for rename in RENAMINGS {
                assert_same_bits_every_config(&g, rename);
            }
        }
    }

    #[test]
    fn coloring_is_proper() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = erdos_renyi_gnm(300, 1800, &mut rng);
        for rename in RENAMINGS {
            let r = rename(&g);
            let lay = Layout::new(&g, &r);
            let mut color = vec![0usize; 300];
            for (c, class) in lay.classes.windows(2).enumerate() {
                for &new in &lay.id[class[0]..class[1]] {
                    color[new as usize] = c;
                }
            }
            for (u, v) in g.edges() {
                if u != v {
                    let (cu, cv) = (color[r.new_id(u) as usize], color[r.new_id(v) as usize]);
                    assert_ne!(cu, cv, "edge {u}->{v}");
                }
            }
            // classes partition the nodes
            assert_eq!(lay.classes.last(), Some(&300));
        }
    }

    #[test]
    fn matches_power_and_sequential_gs_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = barabasi_albert(600, 4, &mut rng);
        let cfg = PageRankConfig {
            tolerance: 1e-12,
            ..Default::default()
        };
        let p = pagerank(&g, &cfg);
        let gs = gauss_seidel(&g, &cfg);
        let colored = colored_gauss_seidel(&g, &cfg);
        assert!(colored.converged);
        for ((a, b), c) in p.scores.iter().zip(&gs.scores).zip(&colored.scores) {
            assert!((a - c).abs() < 1e-8, "power {a} vs colored {c}");
            assert!((b - c).abs() < 1e-8, "gs {b} vs colored {c}");
        }
    }

    #[test]
    fn matches_power_with_dangling_nodes() {
        let g = CsrGraph::from_edges(9, &[(0, 1), (1, 2), (3, 4), (5, 2), (6, 0)]);
        let cfg = PageRankConfig {
            tolerance: 1e-13,
            ..Default::default()
        };
        let seq = pagerank(&g, &cfg);
        let col = colored_gauss_seidel(&g, &cfg);
        for (i, (a, b)) in seq.scores.iter().zip(&col.scores).enumerate() {
            assert!((a - b).abs() < 1e-7, "node {i}: {a} vs {b}");
        }
    }

    #[test]
    fn empty_graph() {
        let r = colored_gauss_seidel(&CsrGraph::from_edges(0, &[]), &PageRankConfig::default());
        assert!(r.scores.is_empty() && r.converged);
    }

    #[test]
    fn probability_scale_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = erdos_renyi_gnm(120, 600, &mut rng);
        let r = colored_gauss_seidel(&g, &PageRankConfig::default());
        let sum: f64 = r.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
