//! # qrank-sim — agent-based web-evolution simulator
//!
//! The paper's experiment (Section 8) needs something we cannot download
//! in 2026: four crawls of 154 live web sites taken in 2002–2003. This
//! crate substitutes a *generative* web: a population of `n` users who
//! visit pages, become aware of them, like them with probability equal to
//! the page's intrinsic quality, and create links when they do — i.e. a
//! direct mechanization of the paper's own user-visitation model
//! (Propositions 1 and 2 plus Definition 1), with the future-work
//! extensions (forgetting, noise) available as knobs.
//!
//! Because the simulator *is* the paper's model, experiments on it test
//! exactly what the paper's theory predicts, while the snapshot crawler
//! ([`crawler`]) reproduces the paper's measurement protocol (per-site
//! BFS mirrors, page caps, common-page intersection) so the estimator is
//! evaluated the same way the paper evaluates it — against held-out
//! future PageRank, never against the hidden ground-truth quality
//! (which, unlike the paper, we *do* know and can report separately).
//!
//! ## Structure
//!
//! * [`config`] — simulation parameters.
//! * [`dist`] — quality distributions and discrete samplers.
//! * [`world`] — the simulation state machine.
//! * [`crawler`] — site-rooted snapshot crawler and the paper's timeline.
//! * [`montecarlo`] — the single-page Monte-Carlo model check.
//! * [`rng`] — counter-based streams behind the parallel, thread-count-
//!   independent visit phase (see [`world`]'s module docs).
//!
//! ```
//! use qrank_sim::config::SimConfig;
//! use qrank_sim::world::World;
//!
//! let cfg = SimConfig { num_users: 500, num_sites: 4, seed: 7, ..Default::default() };
//! let mut world = World::bootstrap(cfg).unwrap();
//! world.run_until(2.0);
//! assert!(world.num_pages() >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
pub mod config;
pub mod crawler;
pub mod dist;
pub mod montecarlo;
pub mod rng;
pub mod trace;
pub mod world;

pub use config::{SimConfig, VisitModel};
pub use crawler::{Crawler, SnapshotSchedule};
pub use dist::QualityDist;
pub use trace::{Trace, Tracer};
pub use world::World;
