//! Convergence telemetry contract: with observability enabled, every
//! solver records one trace per solve whose residual list is exactly as
//! long as the iteration count it reports — so a convergence curve read
//! out of `qrank obs-dump` is the solve that actually happened, not an
//! approximation of it.
//!
//! Each solve uses a distinct node count; traces are matched back by
//! `(solver, nodes)` so the process-global trace store needs no
//! isolation.

use qrank_graph::generators::barabasi_albert;
use qrank_graph::CsrGraph;
use qrank_obs as obs;
use qrank_rank::{
    colored_gauss_seidel, gauss_seidel, pagerank, solve_auto_with, PageRankConfig, PageRankResult,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graph(n: usize) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(n as u64);
    barabasi_albert(n, 4, &mut rng)
}

/// The tests toggle the process-global enabled flag; serialize them.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn assert_trace_matches(solver: &str, nodes: usize, result: &PageRankResult) {
    let traces = obs::convergence::traces();
    let trace = traces
        .iter()
        .find(|t| t.solver == solver && t.nodes == nodes)
        .unwrap_or_else(|| panic!("no trace recorded for {solver} on {nodes} nodes"));
    assert_eq!(
        trace.iterations, result.iterations,
        "{solver}: trace iteration count disagrees with the result"
    );
    assert_eq!(
        trace.residuals.len(),
        trace.iterations,
        "{solver}: one residual per iteration"
    );
    assert_eq!(
        trace.residuals, result.residuals,
        "{solver}: trace must be the solve that happened"
    );
    assert_eq!(trace.converged, result.converged);
}

#[test]
fn every_solver_records_one_residual_per_iteration() {
    let _serial = serial();
    obs::set_enabled(true);
    let cfg = PageRankConfig::default();

    let power = pagerank(&graph(311), &cfg);
    assert_trace_matches("power", 311, &power);

    let gs = gauss_seidel(&graph(312), &cfg);
    assert_trace_matches("gauss_seidel", 312, &gs);

    let colored = colored_gauss_seidel(&graph(313), &cfg, 4);
    assert_trace_matches("colored", 313, &colored);

    // solve_auto on a sub-threshold graph dispatches to sequential GS,
    // and the per-solver counter is the record of which solver ran.
    let auto = solve_auto_with(&graph(315), &cfg, 4);
    assert_trace_matches("gauss_seidel", 315, &auto);
    let solved = obs::global()
        .snapshot()
        .counter("rank.solve.gauss_seidel")
        .unwrap_or(0);
    assert!(solved >= 1, "every solve counts under its solver's name");
    obs::set_enabled(false);
}

/// The colored solve's set-up (renaming, coloring, layout) is its own
/// span, opened on the calling thread under `rank.colored`, so a dump
/// tells set-up from sweeps; the sweep threads open none. The solver
/// counter still counts one solve per column.
#[test]
fn colored_layout_span_nests_under_the_solve_and_each_column_counts_once() {
    let _serial = serial();
    obs::set_enabled(true);
    let cfg = PageRankConfig::default();
    let count = |name: &str| {
        let snap = obs::global().snapshot();
        let span = snap.histogram(name).map_or(0, |h| h.count);
        (span, snap.counter("rank.solve.colored").unwrap_or(0))
    };
    let layout = "span.rank.colored/rank.colored.layout";
    let (spans_before, solves_before) = count(layout);
    let columns = [graph(331), graph(332), graph(333)];
    for (column, threads) in columns.iter().zip([1, 2, 3]) {
        let solved = colored_gauss_seidel(column, &cfg, threads);
        assert_trace_matches("colored", column.num_nodes(), &solved);
    }
    let (spans_after, solves_after) = count(layout);
    assert_eq!(spans_after - spans_before, 3, "one layout span per column");
    assert_eq!(
        solves_after - solves_before,
        3,
        "one counted solve per column"
    );
    let snap = obs::global().snapshot();
    assert!(
        snap.histogram("span.rank.colored.layout").is_none(),
        "the layout span is never a root"
    );
    let nested = obs::recorder::events()
        .into_iter()
        .filter(|e| e.name == "rank.colored/rank.colored.layout")
        .count();
    assert!(nested >= 3, "the flight recorder holds the nested path");
    obs::set_enabled(false);
}

#[test]
fn disabled_observability_records_nothing_and_changes_nothing() {
    let _serial = serial();
    obs::set_enabled(false);
    let cfg = PageRankConfig::default();
    let off = pagerank(&graph(441), &cfg);
    assert!(obs::convergence::traces().iter().all(|t| t.nodes != 441));
    obs::set_enabled(true);
    let on = pagerank(&graph(441), &cfg);
    obs::set_enabled(false);
    assert_eq!(
        off.scores, on.scores,
        "instrumentation must not perturb a single bit of the solve"
    );
    assert_eq!(off.iterations, on.iterations);
}
