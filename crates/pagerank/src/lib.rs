//! # qrank-rank — link-analysis ranking algorithms
//!
//! The popularity metrics the quality estimator is built on. Section 3 of
//! the paper uses PageRank as its popularity measure ("we could just as
//! easily substitute the number of links"), so this crate provides:
//!
//! * [`pagerank()`] — power-iteration PageRank with configurable damping,
//!   dangling-node strategy (including the paper's footnote-2 convention
//!   that a page with no outgoing links implicitly links to every page),
//!   tolerance, and score scale (probability, or the paper's
//!   one-per-page scale — "we used 1 as the initial PageRank value").
//! * [`gauss_seidel()`] — in-place Gauss–Seidel iteration; fewer sweeps to
//!   the same tolerance.
//! * [`extrapolated()`] — Aitken Δ² extrapolation (Kamvar et al., cited as
//!   \[12\] in the paper) to accelerate convergence.
//! * [`adaptive()`] — adaptive PageRank (\[11\]): converged pages freeze.
//! * [`parallel`] — multithreaded pull-based power iteration.
//! * [`personalized`] — topic-sensitive PageRank (\[10\]) with an
//!   arbitrary preference vector.
//! * [`hits()`] — Kleinberg's Hub & Authority (\[13\]), the other
//!   second-generation metric the paper discusses.
//! * [`opic()`] — Abiteboul et al.'s adaptive on-line page importance
//!   (\[1\]): crawl-time importance without global iteration.
//! * [`indegree`] — raw link-count popularity, the paper's footnote-4
//!   alternative to PageRank inside the quality estimator.
//!
//! All solvers agree with each other (tested), so callers can pick by
//! performance.
//!
//! ## Convention
//!
//! The paper writes `PR(p) = d + (1−d)·Σ PR(q)/c_q`, where `d` is the
//! probability of jumping to a random page. The dominant convention
//! (Brin & Page) is `PR(p) = (1−α)/N + α·Σ PR(q)/c_q` with `α` the
//! probability of *following* a link. This crate uses `α`
//! ([`PageRankConfig::follow_prob`], default 0.85); the paper's `d` is
//! `1 − α`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod colored;
pub mod config;
pub mod extrapolation;
pub mod gauss_seidel;
pub mod hits;
pub mod indegree;
pub mod opic;
pub mod parallel;
pub mod personalized;
pub mod power;
pub mod solver;

pub use adaptive::adaptive;
pub use colored::{colored_gauss_seidel, colored_gauss_seidel_warm, greedy_coloring, Coloring};
pub use config::{DanglingStrategy, PageRankConfig, ScoreScale};
pub use extrapolation::extrapolated;
pub use gauss_seidel::{gauss_seidel, gauss_seidel_warm};
pub use hits::{hits, HitsResult};
pub use indegree::{indegree_scores, normalized_indegree};
pub use opic::{opic, OpicPolicy, OpicResult};
pub use parallel::{parallel_pagerank, parallel_pagerank_force};
pub use personalized::personalized_pagerank;
pub use power::{pagerank, pagerank_warm, PageRankResult};
pub use solver::{
    select_solver, set_thread_budget, solve_auto, solve_auto_with, solve_many, thread_budget,
    SolverChoice, PARALLEL_MIN_NODES,
};
