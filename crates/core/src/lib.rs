//! # qrank-core — page-quality estimation from link-structure evolution
//!
//! The primary contribution of *Page Quality: In Search of an Unbiased
//! Web Ranking* (Cho & Adams, SIGMOD 2005), as a library:
//!
//! * **Definition 1**: the quality `Q(p)` of a page is the probability
//!   that a user who discovers it for the first time likes it enough to
//!   link to it.
//! * **Equation 1 / Theorem 2**: quality can be estimated from snapshots
//!   of the web as
//!
//!   ```text
//!   Q(p) ≈ C · ΔPR(p)/PR(p) + PR(p)
//!   ```
//!
//!   — the relative popularity increase corrects the bias against young
//!   pages, the current popularity covers saturated pages.
//!
//! ## Walkthrough
//!
//! 1. Capture several snapshots of a page corpus
//!    ([`qrank_graph::SnapshotSeries`], typically from `qrank-sim`'s
//!    crawler or real crawl data) and align them to their common pages.
//! 2. Compute a popularity trajectory per page
//!    ([`trajectory::compute_trajectories`]) under a chosen
//!    [`metric::PopularityMetric`] (PageRank or in-degree).
//! 3. Classify each page's trend ([`classify`]) — the paper sets
//!    `I(p,t) = 0` for pages whose PageRank oscillates.
//! 4. Estimate quality ([`estimator`]) and evaluate
//!    ([`evaluation`], [`correlation`]) — against future PageRank as the
//!    paper does, or against ground-truth quality when the corpus comes
//!    from the simulator.
//!
//! The one-call version of all of the above is
//! [`pipeline::run_pipeline`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod correlation;
pub mod engine;
pub mod error;
pub mod estimator;
pub mod evaluation;
pub mod metric;
pub mod pipeline;
pub mod ranking;
pub mod report;
pub mod smoothing;
pub mod trajectory;

pub use classify::{classify_trend, Trend};
pub use engine::{check_window, PipelineEngine, StageStats};
pub use error::CoreError;
pub use estimator::{
    CurrentPopularity, DerivativeOnly, LogisticFit, PaperEstimator, QualityEstimator,
};
pub use evaluation::{bootstrap_mean_ci, relative_error, ErrorHistogram, EvalSummary};
pub use metric::PopularityMetric;
pub use pipeline::{
    report_from_trajectories, run_pipeline, run_pipeline_with, PipelineConfig, PipelineReport,
};
pub use ranking::{rank_shift, ranking, RankShift};
pub use trajectory::PopularityTrajectories;
