//! # qrank — an unbiased, quality-based web ranking toolkit
//!
//! Facade crate re-exporting the full public API of the `qrank`
//! workspace, a from-scratch Rust reproduction of **Cho & Adams, "Page
//! Quality: In Search of an Unbiased Web Ranking" (SIGMOD 2005)**.
//!
//! The paper defines the *quality* `Q(p)` of a web page as the
//! probability that a user who discovers the page for the first time
//! likes it enough to link to it, and shows that
//!
//! ```text
//! Q(p) = I(p,t) + P(p,t)            (Theorem 2)
//! ```
//!
//! where `P` is the page's popularity and `I = (n/r)·(dP/dt)/P` its
//! relative popularity increase — leading to the practical estimator
//! `Q(p) ≈ C·ΔPR(p)/PR(p) + PR(p)` computed from multiple web snapshots.
//!
//! ## Module map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`graph`] | `qrank-graph` | CSR graphs, dynamic graphs, snapshots, BFS, power-law fits, generators, I/O |
//! | [`rank`] | `qrank-rank` | PageRank (power, Gauss–Seidel, colored Gauss–Seidel), in-degree |
//! | [`model`] | `qrank-model` | The user-visitation model: closed forms, ODE cross-check, life stages, extensions |
//! | [`sim`] | `qrank-sim` | Agent-based web evolution simulator and snapshot crawler |
//! | [`core`] | `qrank-core` | Quality estimators, evaluation, and the end-to-end pipeline |
//!
//! ## Quickstart
//!
//! ```
//! use qrank::graph::GraphBuilder;
//! use qrank::rank::{PageRankConfig, pagerank};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edges([(0, 1), (1, 2), (2, 0), (2, 1)]);
//! let g = b.build();
//! let pr = pagerank(&g, &PageRankConfig::default());
//! assert_eq!(pr.scores.len(), 3);
//! ```

pub use qrank_core as core;
pub use qrank_graph as graph;
pub use qrank_model as model;
pub use qrank_rank as rank;
pub use qrank_sim as sim;

/// The most common imports in one line: `use qrank::prelude::*;`.
pub mod prelude {
    pub use qrank_core::{
        run_pipeline, run_pipeline_with, CurrentPopularity, PaperEstimator, PipelineConfig,
        PipelineReport, PopularityMetric, QualityEstimator,
    };
    pub use qrank_graph::{CsrGraph, GraphBuilder, PageId, Snapshot, SnapshotSeries};
    pub use qrank_model::ModelParams;
    pub use qrank_rank::{pagerank, PageRankConfig, PageRankResult};
    pub use qrank_sim::{Crawler, QualityDist, SimConfig, SnapshotSchedule, World};
}
