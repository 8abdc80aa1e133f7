//! Quickstart: build a tiny web, compute PageRank, and estimate page
//! quality from three snapshots.
//!
//! Run with `cargo run --example quickstart`. It asserts the two claims
//! it prints, so a run that exits cleanly has checked them.

use qrank::core::{run_pipeline, PipelineConfig};
use qrank::graph::{GraphBuilder, PageId, Snapshot, SnapshotSeries};
use qrank::rank::{pagerank, PageRankConfig};

fn main() {
    // --- 1. A small static web and its PageRank -------------------------
    let mut b = GraphBuilder::new();
    // pages: 0 = portal, 1 = old favorite, 2 = rising star, 3..5 = fans
    b.add_edges([
        (0, 1),
        (1, 0),
        (3, 1),
        (4, 1),
        (5, 1),
        (3, 0),
        (4, 0),
        (5, 0),
    ]);
    b.add_edge(5, 2); // the rising star has one early fan
    let g = b.build();

    let pr = pagerank(&g, &PageRankConfig::default());
    println!("PageRank of the initial web:");
    for (node, score) in pr.scores.iter().enumerate() {
        println!("  page {node}: {score:.4}");
    }
    println!("  (converged in {} iterations)\n", pr.iterations);

    // --- 2. Quality estimation from snapshots ---------------------------
    // Three snapshots. Page 2 keeps gaining links; page 1 is static.
    let pages: Vec<PageId> = (0..6).map(PageId).collect();
    let base = vec![
        (0u32, 1u32),
        (1, 0),
        (3, 1),
        (4, 1),
        (5, 1),
        (3, 0),
        (4, 0),
        (5, 0),
        (2, 0),
    ];
    let mut series = SnapshotSeries::new();
    let growth: [&[(u32, u32)]; 4] = [
        &[(5, 2)],
        &[(5, 2), (4, 2)],
        &[(5, 2), (4, 2), (3, 2)],
        &[(5, 2), (4, 2), (3, 2), (1, 2)],
    ];
    for (month, extra) in growth.iter().enumerate() {
        let mut builder = GraphBuilder::with_nodes(6);
        builder.add_edges(base.iter().copied());
        builder.add_edges(extra.iter().copied());
        series
            .push(Snapshot::new(month as f64, builder.build(), pages.clone()).expect("snapshot"))
            .expect("series push");
    }

    let report = run_pipeline(&series, &PipelineConfig::default()).expect("pipeline");
    println!("quality estimation (snapshots at months 0..2, future = month 3):");
    println!("  page   PR(t3)   Q(p) estimate   PR(t4) actual   trend");
    for i in 0..6 {
        println!(
            "  {}      {:.3}    {:.3}           {:.3}           {:?}",
            report.pages[i].0,
            report.current[i],
            report.estimates[i],
            report.future[i],
            report.trends[i],
        );
    }
    let (estimate, future, current) = (report.estimates[2], report.future[2], report.current[2]);
    println!(
        "\nrising page 2: estimate {estimate:.3} is closer to its future PageRank {future:.3} than the current {current:.3}"
    );
    assert!(
        (estimate - future).abs() < (current - future).abs(),
        "page 2's estimate should beat its current PageRank"
    );
    let (err_estimate, err_current) = (
        report.summary_estimate.mean_error,
        report.summary_current.mean_error,
    );
    println!(
        "mean relative error: quality estimate {err_estimate:.3} vs current-PageRank baseline {err_current:.3}"
    );
    assert!(
        err_estimate < err_current,
        "the estimate's mean relative error should be below the baseline's"
    );
}
