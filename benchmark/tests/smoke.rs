//! End-to-end smoke of all five workloads at 1/50 of the ISSUE's sizes,
//! plain and traced. Asserts that every output check passes and every
//! metric is reported; prints nothing comparable — numbers at this size
//! mean nothing.

use qrank_benchmark::metrics::{END_TO_END, PER_LAYER};
use qrank_benchmark::{run, RunConfig, Workload};

fn smoke(workload: Workload) {
    for trace in [false, true] {
        let outcome = run(&RunConfig {
            workload,
            seed: 7,
            seconds: 0.2,
            trace,
            scale: 0.02,
        });
        let what = format!("{} trace={trace}", workload.name());
        assert_eq!(outcome.failures, Vec::<String>::new(), "{what}");
        assert!(outcome.correct, "{what}");
        assert_eq!(outcome.failed, 0, "{what}");
        assert!(outcome.attempted >= 1, "{what}");
        let table = if trace { PER_LAYER } else { END_TO_END };
        assert_eq!(outcome.metrics.len(), table.len(), "{what}");
        for (def, value) in &outcome.metrics {
            assert!(value.is_finite(), "{what}: {} = {value}", def.name);
            // an end-to-end metric that can read 0 cannot carry a bound
            assert!(trace || *value > 0.0, "{what}: {} = {value}", def.name);
        }
        if trace {
            let moved = outcome.metrics.iter().filter(|(_, v)| *v != 0.0).count();
            assert!(
                moved >= 8,
                "{what}: only {moved} per-layer metrics reported"
            );
        }
    }
}

#[test]
fn batch_cold() {
    smoke(Workload::BatchCold);
}

#[test]
fn batch_rank() {
    smoke(Workload::BatchRank);
}

#[test]
fn refresh_durable() {
    smoke(Workload::RefreshDurable);
}

#[test]
fn serve_point() {
    smoke(Workload::ServePoint);
}

#[test]
fn serve_mixed_refresh() {
    smoke(Workload::ServeMixedRefresh);
}
