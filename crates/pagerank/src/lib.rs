//! # qrank-rank — link-analysis ranking algorithms
//!
//! The popularity metrics the quality estimator is built on. Section 3 of
//! the paper uses PageRank as its popularity measure ("we could just as
//! easily substitute the number of links"), so this crate provides:
//!
//! * [`pagerank()`] — power-iteration PageRank with configurable damping,
//!   tolerance, and score scale (probability, or the paper's one-per-page
//!   scale — "we used 1 as the initial PageRank value"). The reference:
//!   the simulator's visit model and the tests compare against it.
//! * [`gauss_seidel()`] — in-place Gauss–Seidel iteration; fewer sweeps to
//!   the same tolerance.
//! * [`colored_gauss_seidel()`] — the same sweep over a graph coloring,
//!   threaded, bit-identical for every thread count.
//! * [`solve_auto`] / [`solve_many`] — what the pipeline calls: one of the
//!   two Gauss–Seidel schedules, picked by graph size and thread budget
//!   ([`select_solver`]), for one graph or a window's columns.
//! * [`indegree`] — raw link-count popularity, the paper's footnote-4
//!   alternative to PageRank inside the quality estimator.
//!
//! The three PageRank kernels are schedules for one fixed point and agree
//! to solver tolerance (tested); each is bit-deterministic on its own.
//! Every solve starts from the uniform vector `1/n` (the paper's "initial
//! value 1 per page" on the probability scale), so a kernel's bits are a
//! function of the graph and the [`PageRankConfig`] alone.
//! All follow the paper's footnote 2: a page with no outgoing links is
//! taken to link to every page, so its rank mass is spread uniformly.
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

pub mod colored;
pub mod config;
pub mod gauss_seidel;
pub mod indegree;
pub mod power;
pub mod solver;

pub use colored::colored_gauss_seidel;
pub use config::{PageRankConfig, ScoreScale};
pub use gauss_seidel::gauss_seidel;
pub use indegree::indegree_scores;
pub use power::{pagerank, PageRankResult};
pub use solver::{
    select_solver, set_thread_budget, solve_auto, solve_auto_with, solve_many, thread_budget,
    SolverChoice, PARALLEL_MIN_NODES,
};
