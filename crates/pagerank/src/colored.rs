//! Multi-color parallel Gauss–Seidel PageRank.
//!
//! A sequential Gauss–Seidel sweep has a loop-carried dependency: node
//! `v` reads values already updated earlier in the same sweep. Graph
//! coloring breaks that dependency *structurally*: nodes are partitioned
//! into classes such that no two nodes in a class share an edge (in
//! either direction), so within one class every update reads only values
//! frozen since the previous class. Updates inside a class are therefore
//! order-independent — each node's new value is a pure function of state
//! at the class boundary — which gives the solver its headline property:
//!
//! > **Bit-identical results for any thread count.** Chunking a color
//! > class across 1, 2, or 64 threads changes only *who* computes each
//! > node, never *what* is computed.
//!
//! Per-sweep reductions (dangling-mass delta, residual) are computed
//! redundantly by every worker in node order, so workers always agree
//! bitwise on convergence and no coordinator is needed.
//!
//! Relative to natural-order Gauss–Seidel the update *schedule* differs,
//! so the converged vector agrees with [`crate::gauss_seidel()`] only to
//! solver tolerance (documented and tested), not bitwise. Sweep counts
//! sit between Jacobi (= power iteration) and sequential GS: with `k`
//! colors, information still propagates through up to `k` graph hops per
//! sweep.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use qrank_graph::CsrGraph;

use crate::power::{apply_scale, inv_out_degrees, start_vector, PageRankResult};
use crate::PageRankConfig;

#[inline]
fn f64_load(a: &AtomicU64) -> f64 {
    f64::from_bits(a.load(Ordering::Relaxed))
}

#[inline]
fn f64_store(a: &AtomicU64, v: f64) {
    a.store(v.to_bits(), Ordering::Relaxed);
}

/// A proper coloring of the graph's *conflict* structure (u conflicts
/// with v when an edge runs between them in either direction), as color
/// classes of ascending node ids.
struct Coloring {
    /// `classes[c]` = nodes with color `c`, ascending.
    classes: Vec<Vec<u32>>,
}

/// Greedy first-fit coloring in natural node order — deterministic, one
/// pass over the edges, at most `max_conflict_degree + 1` colors.
fn greedy_coloring(g: &CsrGraph) -> Coloring {
    let n = g.num_nodes();
    let mut color = vec![u32::MAX; n];
    // mark[c] == v  <=>  color c is taken by a neighbor of v
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
    Coloring { classes }
}

/// Colored Gauss–Seidel PageRank (cold start).
///
/// See [`colored_gauss_seidel_warm`].
pub fn colored_gauss_seidel(
    g: &CsrGraph,
    config: &PageRankConfig,
    threads: usize,
) -> PageRankResult {
    colored_gauss_seidel_warm(g, config, None, threads)
}

/// Colored Gauss–Seidel PageRank with an optional warm start.
///
/// Converges to the same fixed point as [`crate::pagerank`] and
/// [`crate::gauss_seidel()`] (within solver tolerance). The returned
/// vector is **bitwise identical for every `threads` value** — the
/// property the deterministic simulation and serving layers build on.
/// Warm vectors follow the same acceptance rules as
/// [`crate::gauss_seidel_warm`].
///
/// # Panics
/// Panics if `threads == 0`.
pub fn colored_gauss_seidel_warm(
    g: &CsrGraph,
    config: &PageRankConfig,
    warm: Option<&[f64]>,
    threads: usize,
) -> PageRankResult {
    let _span = qrank_obs::span!("rank.colored");
    config.validate();
    assert!(threads >= 1, "need at least one thread");
    let n = g.num_nodes();
    if n == 0 {
        return PageRankResult {
            scores: Vec::new(),
            iterations: 0,
            converged: true,
            residuals: Vec::new(),
        };
    }
    let threads = threads.min(n);
    let coloring = greedy_coloring(g);
    let inv = inv_out_degrees(g);
    let alpha = config.follow_prob;
    let teleport = (1.0 - alpha) / n as f64;

    // Dangling members of each class, ascending — the per-class
    // dangling-mass delta is reduced over these in node order so every
    // worker computes the identical total.
    let class_dangling: Vec<Vec<u32>> = coloring
        .classes
        .iter()
        .map(|class| {
            class
                .iter()
                .copied()
                .filter(|&v| inv[v as usize] == 0.0)
                .collect()
        })
        .collect();

    let mut init = vec![0.0; n];
    start_vector(&mut init, warm);
    let x: Vec<AtomicU64> = init.iter().map(|&v| AtomicU64::new(v.to_bits())).collect();
    // w[u] = x[u] / c_u, stored beside x[u] at every write: the pull
    // reads one random value per edge instead of two and adds the very
    // products it used to form in place.
    let w: Vec<AtomicU64> = init
        .iter()
        .zip(&inv)
        .map(|(&x, &i)| AtomicU64::new((x * i).to_bits()))
        .collect();
    let prev: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let init_dangling: f64 = (0..n).filter(|&v| inv[v] == 0.0).map(|v| init[v]).sum();
    let barrier = Barrier::new(threads);

    // Every worker runs identical control flow; all reductions are
    // recomputed per worker in node order, so totals (and branches) are
    // bitwise identical everywhere and the barriers stay in lockstep.
    let worker = |tid: usize| -> (usize, bool, Vec<f64>) {
        let mut dangling_mass = init_dangling;
        let mut residuals = Vec::new();
        let mut converged = false;
        let mut iterations = 0;
        while iterations < config.max_iterations {
            for (ci, class) in coloring.classes.iter().enumerate() {
                // Footnote 2: a dangling page links to every page.
                let dangling_share = alpha * dangling_mass / n as f64;
                let cchunk = class.len().div_ceil(threads);
                let clo = (tid * cchunk).min(class.len());
                let chi = ((tid + 1) * cchunk).min(class.len());
                for &v in &class[clo..chi] {
                    let vu = v as usize;
                    let mut acc = 0.0;
                    for &u in g.in_neighbors(v) {
                        acc += f64_load(&w[u as usize]);
                    }
                    let new_v = teleport + dangling_share + alpha * acc;
                    // Every node is written exactly once per sweep, here:
                    // what it held until now is its previous-sweep value.
                    prev[vu].store(x[vu].load(Ordering::Relaxed), Ordering::Relaxed);
                    f64_store(&x[vu], new_v);
                    f64_store(&w[vu], new_v * inv[vu]);
                }
                barrier.wait();
                // A node's pre-class value is prev[v] (saved at its one
                // write); the delta reduction in node order is identical
                // on all workers.
                for &v in &class_dangling[ci] {
                    dangling_mass += f64_load(&x[v as usize]) - f64_load(&prev[v as usize]);
                }
            }
            let residual: f64 = (0..n)
                .map(|v| (f64_load(&x[v]) - f64_load(&prev[v])).abs())
                .sum();
            // Hold everyone until the residual pass is done: the next
            // sweep starts by overwriting `prev`, and a worker racing
            // ahead would corrupt the sums still being read — workers
            // could then disagree on convergence and deadlock.
            barrier.wait();
            iterations += 1;
            residuals.push(residual);
            if residual < config.tolerance {
                converged = true;
                break;
            }
        }
        (iterations, converged, residuals)
    };

    let worker = &worker;
    let (iterations, converged, residuals) = std::thread::scope(|s| {
        for tid in 1..threads {
            s.spawn(move || {
                let _ = worker(tid);
            });
        }
        worker(0)
    });

    let mut scores: Vec<f64> = x.iter().map(f64_load).collect();
    // Like sequential GS, the sweeps do not preserve the simplex en
    // route; project back before scaling.
    crate::power::renormalize(&mut scores);
    apply_scale(&mut scores, config.scale);
    qrank_obs::convergence::record_solve("colored", n, iterations, converged, &residuals);
    PageRankResult {
        scores,
        iterations,
        converged,
        residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauss_seidel::gauss_seidel;
    use crate::power::pagerank;
    use qrank_graph::generators::{barabasi_albert, erdos_renyi_gnm};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn coloring_is_proper() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = erdos_renyi_gnm(300, 1800, &mut rng);
        let coloring = greedy_coloring(&g);
        let mut color = vec![0u32; 300];
        for (c, class) in coloring.classes.iter().enumerate() {
            for &v in class {
                color[v as usize] = c as u32;
            }
        }
        for (u, v) in g.edges() {
            if u != v {
                assert_ne!(color[u as usize], color[v as usize], "edge {u}->{v}");
            }
        }
        // classes partition the nodes
        let total: usize = coloring.classes.iter().map(Vec::len).sum();
        assert_eq!(total, 300);
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
        let colored = colored_gauss_seidel(&g, &cfg, 3);
        assert!(colored.converged);
        for ((a, b), c) in p.scores.iter().zip(&gs.scores).zip(&colored.scores) {
            assert!((a - c).abs() < 1e-8, "power {a} vs colored {c}");
            assert!((b - c).abs() < 1e-8, "gs {b} vs colored {c}");
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = barabasi_albert(500, 5, &mut rng);
        let cfg = PageRankConfig::default();
        let one = colored_gauss_seidel(&g, &cfg, 1);
        for threads in [2, 3, 8] {
            let t = colored_gauss_seidel(&g, &cfg, threads);
            assert_eq!(one.scores, t.scores, "threads={threads}");
            assert_eq!(one.iterations, t.iterations);
            assert_eq!(one.residuals, t.residuals);
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
        let col = colored_gauss_seidel(&g, &cfg, 3);
        for (i, (a, b)) in seq.scores.iter().zip(&col.scores).enumerate() {
            assert!((a - b).abs() < 1e-7, "node {i}: {a} vs {b}");
        }
    }

    #[test]
    fn warm_start_reaches_cold_fixed_point() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = erdos_renyi_gnm(400, 2400, &mut rng);
        let cfg = PageRankConfig {
            tolerance: 1e-12,
            ..Default::default()
        };
        let cold = colored_gauss_seidel(&g, &cfg, 2);
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        edges.extend((0..10u32).map(|i| (380 + i, 100 + i)));
        let g2 = CsrGraph::from_edges(400, &edges);
        let cold2 = colored_gauss_seidel(&g2, &cfg, 2);
        let warm2 = colored_gauss_seidel_warm(&g2, &cfg, Some(&cold.scores), 2);
        assert!(warm2.converged);
        assert!(
            warm2.iterations <= cold2.iterations,
            "warm {} vs cold {}",
            warm2.iterations,
            cold2.iterations
        );
        for (a, b) in cold2.scores.iter().zip(&warm2.scores) {
            assert!((a - b).abs() < 1e-9, "cold {a} vs warm {b}");
        }
    }

    #[test]
    fn degenerate_warm_vectors_fall_back_to_uniform() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let cfg = PageRankConfig::default();
        let cold = colored_gauss_seidel(&g, &cfg, 2);
        for bad in [vec![0.0; 5], vec![1.0; 4], vec![f64::NAN; 5]] {
            let r = colored_gauss_seidel_warm(&g, &cfg, Some(&bad), 2);
            assert_eq!(cold.scores, r.scores);
        }
    }

    #[test]
    fn empty_graph_and_zero_thread_panic() {
        let r = colored_gauss_seidel(&CsrGraph::from_edges(0, &[]), &PageRankConfig::default(), 4);
        assert!(r.scores.is_empty() && r.converged);
        let result = std::panic::catch_unwind(|| {
            colored_gauss_seidel(
                &CsrGraph::from_edges(2, &[(0, 1)]),
                &PageRankConfig::default(),
                0,
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn probability_scale_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = erdos_renyi_gnm(120, 600, &mut rng);
        let r = colored_gauss_seidel(&g, &PageRankConfig::default(), 4);
        let sum: f64 = r.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    use qrank_graph::CsrGraph;
}
