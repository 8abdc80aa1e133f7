//! # qrank-model — the Cho–Adams user-visitation model
//!
//! Sections 5–7 of *Page Quality: In Search of an Unbiased Web Ranking*
//! (SIGMOD 2005) build a model of how web users visit pages and create
//! links, from which the paper's quality estimator falls out analytically.
//! This crate implements the model exactly, plus the forgetting extension
//! the paper lists as future work, the binomial and normal draws the
//! simulator is made of, numerical cross-checks (an RK4 ODE integrator)
//! and curve fitting.
//!
//! ## Notation (Table 1 of the paper)
//!
//! | Symbol | Meaning | Here |
//! |---|---|---|
//! | `PR(p)` | PageRank of page p | `qrank-rank` |
//! | `Q(p)` | Quality of p (Definition 1) | [`ModelParams::quality`] |
//! | `P(p,t)` | (Simple) popularity of p at t (Definition 2) | [`popularity::popularity`] |
//! | `V(p,t)` | Visit popularity of p at t (Definition 3) | `r · P(p,t)` (Proposition 1) |
//! | `A(p,t)` | User awareness of p at t (Definition 4) | [`popularity::awareness`] |
//! | `I(p,t)` | Relative popularity increase `(n/r)·(dP/dt)/P` | [`popularity::relative_increase`] |
//! | `r` | Normalization constant, `V = r·P` | [`ModelParams::visits_per_unit_time`] |
//! | `n` | Total number of web users | [`ModelParams::num_users`] |
//!
//! ## Core results implemented
//!
//! * **Lemma 1** — `P(p,t) = A(p,t) · Q(p)`.
//! * **Lemma 2** — `A(p,t) = 1 − exp(−(r/n)·∫P dt)`.
//! * **Theorem 1** — logistic popularity evolution
//!   `P(p,t) = Q / (1 + (Q/P₀ − 1)·e^{−(r/n)·Q·t})`.
//! * **Corollary 1** — `P(p,t) → Q(p)` as `t → ∞`.
//! * **Lemma 3** — `Q = (n/r)·(dP/dt)/(P·(1−A))`.
//! * **Theorem 2** — `Q(p) = I(p,t) + P(p,t)`, the identity behind the
//!   practical estimator.
//!
//! ```
//! use qrank_model::{ModelParams, popularity};
//!
//! // Figure 1's parameters: Q = 0.8, n = r = 1e8, P(p,0) = 1e-8.
//! let p = ModelParams::new(0.8, 1e8, 1e8, 1e-8).unwrap();
//! // Theorem 2 holds at every t:
//! for t in [0.0, 5.0, 20.0, 40.0] {
//!     let q = popularity::relative_increase(&p, t) + popularity::popularity(&p, t);
//!     assert!((q - 0.8).abs() < 1e-9);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fitting;
pub mod forgetting;
pub mod noise;
pub mod ode;
pub mod params;
pub mod popularity;
pub mod stages;

pub use params::{ModelError, ModelParams};
pub use stages::LifeStage;
