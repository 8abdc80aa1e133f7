//! Automatic solver selection by graph size, for one column or a window
//! of them.
//!
//! Callers that just want "the fastest correct PageRank" — the pipeline
//! in `qrank-core`, the refresh engine in `qrank-serve` — should not
//! hard-code a solver. The choice is keyed on the graph alone, so a
//! column's bits are a function of its graph and [`PageRankConfig`] at
//! every thread budget and on every machine:
//!
//! * **Graphs below [`PARALLEL_MIN_NODES`] nodes** (the overwhelming
//!   majority of snapshots): the sequential in-place Gauss–Seidel sweep.
//! * **Larger graphs**: the multi-color Gauss–Seidel sweep
//!   ([`crate::colored_gauss_seidel()`]) over the graph renamed in
//!   degree order. The renaming packs hub rows into a contiguous prefix
//!   (cache locality) and is never materialized: the sweep builds its
//!   layout from the graph and the permutation.
//!
//! The threshold is a setting, not a measured crossover. What has been
//! measured (EXPERIMENTS.md "Solver crossover" and "Pull layout head
//! width", one web of 105 k pages on a 2-core host) is that the two
//! sweeps take about as long per column (criterion `colored/sequential`
//! against `colored/colored` on the same web).
//!
//! Equation 1 wants the PageRank of one page set at several crawls, so
//! the pipeline's unit of work is a *batch* of independent solves.
//! [`solve_many`] runs whole columns side by side, one thread each, on
//! up to the thread budget's worth of workers, and never more than the
//! machine's available parallelism. Every column is solved on one
//! thread, so the scores are those of one [`solve_auto`] call per graph,
//! bit for bit. [`solve_auto`] is the one-column batch.
//!
//! The thread budget defaults to the machine's available parallelism and
//! can be pinned globally with [`set_thread_budget`] (used by benchmarks
//! to measure scaling).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use qrank_graph::par::for_each_slot;
use qrank_graph::relabel::degree_order;
use qrank_graph::CsrGraph;

use crate::colored::colored_into;
use crate::gauss_seidel::gauss_seidel_into;
use crate::power::PageRankResult;
use crate::PageRankConfig;

/// At and above this node count [`solve_auto`] and [`solve_many`] solve
/// a column with the degree-renamed colored sweep, below it with
/// sequential Gauss–Seidel.
pub const PARALLEL_MIN_NODES: usize = 100_000;

/// 0 = "auto" (use available parallelism).
static THREAD_BUDGET: AtomicUsize = AtomicUsize::new(0);

/// Pin the global solver thread budget (0 restores auto-detection).
///
/// Affects every subsequent [`thread_budget`]/[`solve_many`] call in the
/// process — intended for benchmarks and services that reserve cores.
/// Scores are unaffected: every column is solved on one thread by a
/// solver chosen from its size.
pub fn set_thread_budget(threads: usize) {
    THREAD_BUDGET.store(threads, Ordering::Relaxed);
}

/// The solver thread budget: the last [`set_thread_budget`] value, else
/// the `QRANK_THREADS` environment variable, else available parallelism.
pub fn thread_budget() -> usize {
    let pinned = THREAD_BUDGET.load(Ordering::Relaxed);
    if pinned > 0 {
        return pinned;
    }
    if let Some(t) = std::env::var("QRANK_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t > 0)
    {
        return t;
    }
    available_cpus()
}

/// Hardware threads this process may run on (1 when unknown).
fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// What [`solve_auto`] decided to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverChoice {
    /// Sequential in-place Gauss–Seidel (a graph below
    /// [`PARALLEL_MIN_NODES`]).
    GaussSeidel,
    /// Degree-relabeled multi-color Gauss–Seidel.
    ColoredGaussSeidel,
}

/// The selection heuristic, exposed for tests and logging. The choice is
/// a function of `num_nodes` alone; the second parameter is ignored and
/// kept only because the benchmark harness (`benchmark/src`) passes a
/// thread budget. The ROADMAP.md item "Benchmark harness v2" retires it.
pub fn select_solver(num_nodes: usize, _: usize) -> SolverChoice {
    if num_nodes < PARALLEL_MIN_NODES {
        SolverChoice::GaussSeidel
    } else {
        SolverChoice::ColoredGaussSeidel
    }
}

/// Solve PageRank with the solver [`select_solver`] picks for this graph
/// size, on the calling thread. The result is a function of the graph
/// and `config` alone.
///
/// The third parameter can only be `None`: every solve starts from the
/// uniform vector. It is kept only because the benchmark harness
/// (`benchmark/src`) calls `solve_auto(.., None)`; the ROADMAP.md item
/// "Benchmark harness v2" retires it.
pub fn solve_auto(
    g: &CsrGraph,
    config: &PageRankConfig,
    _: Option<std::convert::Infallible>,
) -> PageRankResult {
    let _span = qrank_obs::span!("rank.solve_auto");
    solve_batch(&[g], config, 1, None)
        .pop()
        .expect("one job, one result")
}

/// Solve a batch of independent graphs — a window's columns — under
/// the global [`thread_budget`], results in input order.
///
/// `result[i]` is `solve_auto(graphs[i], config, None)` bit for bit
/// (scores, iteration count, residuals) at every budget and on every
/// machine. What the budget changes is how many columns are solved side
/// by side, the calling thread being one of the workers.
pub fn solve_many(graphs: &[&CsrGraph], config: &PageRankConfig) -> Vec<PageRankResult> {
    let _span = qrank_obs::span!("rank.solve_many");
    solve_batch(graphs, config, thread_budget(), None)
}

/// The workers that solve `columns` independent columns under `budget`
/// threads on a machine with `cpus` hardware threads: one a column, and
/// never more than the machine runs at once, so an oversized budget
/// cannot oversubscribe it.
fn plan(columns: usize, budget: usize, cpus: usize) -> usize {
    budget.clamp(1, cpus.max(1)).min(columns).max(1)
}

/// The batch entry under every public solve: one [`solve_column`] per
/// graph on [`plan`]'s workers. `forced` overrides [`select_solver`] (for
/// tests: it makes the colored path reachable on small graphs).
///
/// The result vectors are allocated here, on the calling thread, and the
/// workers fill them: memory a spawned thread allocates comes from that
/// thread's own malloc arena and stays there after the thread is gone.
pub(crate) fn solve_batch(
    graphs: &[&CsrGraph],
    config: &PageRankConfig,
    budget: usize,
    forced: Option<SolverChoice>,
) -> Vec<PageRankResult> {
    let workers = plan(graphs.len(), budget, available_cpus());
    qrank_obs::count("rank.solve_many.columns", graphs.len() as u64);
    qrank_obs::count("rank.solve_many.workers", workers as u64);
    let mut solved: Vec<PageRankResult> = graphs
        .iter()
        .map(|g| PageRankResult::unsolved(g.num_nodes()))
        .collect();
    for_each_slot(&mut solved, graphs, workers, |out, &g| {
        let started = Instant::now();
        let choice = forced.unwrap_or_else(|| select_solver(g.num_nodes(), budget));
        solve_column(g, config, choice, out);
        // Summed over columns, where the `rank.solve_many` span is the wall
        // time of the batch: the ratio is the overlap the workers achieved.
        qrank_obs::count(
            "rank.solve_many.column_ns",
            started.elapsed().as_nanos() as u64,
        );
    });
    solved
}

/// Solve one graph into `out` (one zeroed score slot per node) with the
/// chosen solver.
fn solve_column(
    g: &CsrGraph,
    config: &PageRankConfig,
    choice: SolverChoice,
    out: &mut PageRankResult,
) {
    match choice {
        SolverChoice::GaussSeidel => gauss_seidel_into(g, config, out),
        // Degree-ordered renaming: hub rows first for cache locality. The
        // sweep's layout is built from `g` and the renaming directly.
        SolverChoice::ColoredGaussSeidel => colored_into(g, config, degree_order, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauss_seidel::gauss_seidel;
    use qrank_graph::generators::barabasi_albert;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_graphs_select_sequential_gs() {
        assert_eq!(select_solver(500, 8), SolverChoice::GaussSeidel);
        assert_eq!(
            select_solver(PARALLEL_MIN_NODES - 1, 8),
            SolverChoice::GaussSeidel
        );
        // the size picks the solver, never the budget
        for budget in [1, 4] {
            assert_eq!(
                select_solver(PARALLEL_MIN_NODES, budget),
                SolverChoice::ColoredGaussSeidel
            );
        }
    }

    #[test]
    fn auto_matches_sequential_gs_on_small_graphs() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = barabasi_albert(300, 4, &mut rng);
        let cfg = PageRankConfig::default();
        let auto = solve_auto(&g, &cfg, None);
        let gs = gauss_seidel(&g, &cfg);
        assert_eq!(auto.scores, gs.scores, "small graph must take the GS path");
    }

    #[test]
    fn budget_pinning_round_trips() {
        set_thread_budget(3);
        assert_eq!(thread_budget(), 3);
        set_thread_budget(0);
        assert!(thread_budget() >= 1);
    }

    /// Preferential-attachment graphs of the given sizes; size 0 is the
    /// empty graph.
    fn webs(sizes: &[usize]) -> Vec<CsrGraph> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                if n == 0 {
                    return CsrGraph::from_edges(0, &[]);
                }
                let mut rng = StdRng::seed_from_u64(100 + i as u64);
                barabasi_albert(n, 3 + i % 3, &mut rng)
            })
            .collect()
    }

    /// What one column was before there was a batch: the kernels called
    /// directly, the colored one through the degree relabeling.
    fn reference(g: &CsrGraph, cfg: &PageRankConfig, choice: SolverChoice) -> PageRankResult {
        match choice {
            SolverChoice::GaussSeidel => gauss_seidel(g, cfg),
            SolverChoice::ColoredGaussSeidel => {
                let r = degree_order(g);
                let mut solved = crate::colored::colored_gauss_seidel(&g.relabeled(&r), cfg);
                solved.scores = qrank_graph::relabel::inverse_scores(&solved.scores, &r);
                solved
            }
        }
    }

    #[test]
    fn batch_equals_one_solve_per_graph_bitwise_with_either_solver_forced() {
        let cfg = PageRankConfig::default();
        // more columns than any budget below, fewer, one, none
        for sizes in [
            &[700, 40, 1200, 0, 900, 8, 650][..],
            &[500, 800],
            &[400],
            &[],
        ] {
            let graphs = webs(sizes);
            let jobs: Vec<&CsrGraph> = graphs.iter().collect();
            for choice in [SolverChoice::GaussSeidel, SolverChoice::ColoredGaussSeidel] {
                let expect: Vec<PageRankResult> =
                    graphs.iter().map(|g| reference(g, &cfg, choice)).collect();
                for budget in [1, 2, 3, 8] {
                    let got = solve_batch(&jobs, &cfg, budget, Some(choice));
                    // PageRankResult: scores, iterations, converged, residuals
                    assert_eq!(got, expect, "{choice:?}, budget {budget}, sizes {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn relabeled_parallel_path_agrees_with_sequential() {
        // Reaching the colored path through `solve_auto` takes a
        // graph of `PARALLEL_MIN_NODES` nodes; run the relabel, the
        // colored solve and the inverse permutation by hand on a small
        // graph instead, and hold the result to sequential GS.
        let mut rng = StdRng::seed_from_u64(8);
        let g = barabasi_albert(800, 5, &mut rng);
        let cfg = PageRankConfig {
            tolerance: 1e-12,
            ..Default::default()
        };
        let r = qrank_graph::relabel::degree_order(&g);
        let relabeled = g.relabeled(&r);
        let solved = crate::colored::colored_gauss_seidel(&relabeled, &cfg);
        let back = qrank_graph::relabel::inverse_scores(&solved.scores, &r);
        let gs = gauss_seidel(&g, &cfg);
        for (a, b) in gs.scores.iter().zip(&back) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn solve_many_equals_solve_auto_per_graph_at_every_budget() {
        let cfg = PageRankConfig::default();
        let graphs = webs(&[300, 900, 50, 600, 450]);
        let refs: Vec<&CsrGraph> = graphs.iter().collect();
        let expect: Vec<PageRankResult> =
            graphs.iter().map(|g| solve_auto(g, &cfg, None)).collect();
        for budget in [1, 2, 3, 8] {
            assert_eq!(
                solve_batch(&refs, &cfg, budget, None),
                expect,
                "budget {budget}"
            );
        }
        // the public entry: same batch under the global budget
        assert_eq!(solve_many(&refs, &cfg), expect);
        assert!(solve_many(&[], &cfg).is_empty());
    }

    #[test]
    fn the_plan_fills_columns_first_and_never_outruns_the_machine() {
        // (columns, budget, cpus) -> workers
        assert_eq!(plan(4, 2, 2), 2);
        assert_eq!(plan(4, 8, 8), 4);
        assert_eq!(plan(3, 8, 8), 3);
        assert_eq!(plan(1, 8, 8), 1, "one column runs on one thread");
        assert_eq!(plan(4, 8, 1), 1, "budget 8 on one CPU runs one thread");
        assert_eq!(plan(4, 1, 8), 1);
        assert_eq!(plan(0, 4, 4), 1);
        for columns in 0..6 {
            for budget in 0..10 {
                for cpus in 0..10 {
                    let workers = plan(columns, budget, cpus);
                    assert!(workers >= 1);
                    assert!(workers <= budget.clamp(1, cpus.max(1)));
                    assert!(workers <= columns.max(1));
                }
            }
        }
    }
}
