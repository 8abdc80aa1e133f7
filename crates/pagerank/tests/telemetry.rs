//! Solver telemetry contract: a solve's convergence curve is its
//! result's residual list, exactly as long as the iteration count it
//! reports, and with observability enabled each solve counts once under
//! `rank.solve.<solver>` and its iterations under
//! `rank.iterations.<solver>`.
//!
//! The counters are process-global; the tests serialize and compare
//! each counter before and after a solve.

use qrank_graph::generators::barabasi_albert;
use qrank_graph::CsrGraph;
use qrank_obs as obs;
use qrank_rank::{
    colored_gauss_seidel, gauss_seidel, pagerank, solve_auto, PageRankConfig, PageRankResult,
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

/// `(rank.solve.<solver>, rank.iterations.<solver>)` now.
fn counters(solver: &str) -> (u64, u64) {
    let snap = obs::global().snapshot();
    let get = |name: String| snap.counter(&name).unwrap_or(0);
    (
        get(format!("rank.solve.{solver}")),
        get(format!("rank.iterations.{solver}")),
    )
}

/// Run `solve`, then check its residuals and what it added to
/// `solver`'s counters.
fn assert_counted(solver: &str, solve: impl FnOnce() -> PageRankResult) {
    let (solves, iterations) = counters(solver);
    let result = solve();
    assert_eq!(
        result.residuals.len(),
        result.iterations,
        "{solver}: one residual per iteration"
    );
    assert_eq!(
        counters(solver),
        (solves + 1, iterations + result.iterations as u64),
        "{solver}: one counted solve of {} iterations",
        result.iterations
    );
}

#[test]
fn every_solver_records_one_residual_per_iteration() {
    let _serial = serial();
    obs::set_enabled(true);
    let cfg = PageRankConfig::default();
    assert_counted("power", || pagerank(&graph(311), &cfg));
    assert_counted("gauss_seidel", || gauss_seidel(&graph(312), &cfg));
    assert_counted("colored", || colored_gauss_seidel(&graph(313), &cfg));
    // solve_auto on a sub-threshold graph dispatches to sequential GS,
    // and the per-solver counter is the record of which solver ran.
    assert_counted("gauss_seidel", || solve_auto(&graph(315), &cfg, None));
    obs::set_enabled(false);
}

/// The colored solve's set-up (renaming, coloring, layout) is its own
/// span nested under `rank.colored`, so a dump tells set-up from sweeps.
/// The solver counter counts one solve per column.
#[test]
fn colored_layout_span_nests_under_the_solve_and_each_column_counts_once() {
    let _serial = serial();
    obs::set_enabled(true);
    let cfg = PageRankConfig::default();
    let layout_spans = || {
        let snap = obs::global().snapshot();
        snap.histogram("span.rank.colored/rank.colored.layout")
            .map_or(0, |h| h.count)
    };
    let before = layout_spans();
    let columns = [graph(331), graph(332), graph(333)];
    for column in &columns {
        assert_counted("colored", || colored_gauss_seidel(column, &cfg));
    }
    assert_eq!(layout_spans() - before, 3, "one layout span per column");
    let snap = obs::global().snapshot();
    assert!(
        snap.histogram("span.rank.colored.layout").is_none(),
        "the layout span is never a root"
    );
    obs::set_enabled(false);
}

#[test]
fn disabled_observability_records_nothing_and_changes_nothing() {
    let _serial = serial();
    obs::set_enabled(false);
    let cfg = PageRankConfig::default();
    let solvers = ["power", "gauss_seidel", "colored"];
    let before = solvers.map(counters);
    let off = pagerank(&graph(441), &cfg);
    gauss_seidel(&graph(442), &cfg);
    colored_gauss_seidel(&graph(443), &cfg);
    solve_auto(&graph(444), &cfg, None);
    assert_eq!(solvers.map(counters), before, "no counter moves while off");
    obs::set_enabled(true);
    let on = pagerank(&graph(441), &cfg);
    obs::set_enabled(false);
    assert_eq!(
        off.scores, on.scores,
        "instrumentation must not perturb a single bit of the solve"
    );
    assert_eq!(off.iterations, on.iterations);
    assert_eq!(off.residuals, on.residuals);
}
