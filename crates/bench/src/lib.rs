//! # qrank-bench — experiment harness
//!
//! One binary per figure/table of the paper plus the ablations listed in
//! `DESIGN.md`. The logic lives in this library so the binaries, the
//! Criterion benches, and the integration tests all drive the same code.
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Figure 1 (popularity evolution) | `fig1_popularity_evolution` |
//! | Figure 2 (`I` vs `P`) | `fig2_relative_increase` |
//! | Figure 3 (`I + P` flat at `Q`) | `fig3_estimator_constancy` |
//! | Figure 5 (error histogram) | `fig5_error_histogram` |
//! | §8.2 headline (0.32 vs 0.78) | `table_headline_errors` |
//! | ABL-C (C sweep) | `ablation_c_sweep` |
//! | ABL-EST (estimator variants) | `ablation_estimators` |
//! | ABL-INT (snapshot intervals) | `ablation_intervals` |
//! | ABL-FORGET (forgetting) | `ablation_forgetting` |
//! | ABL-NOISE (noise smoothing) | `ablation_noise` |
//! | ABL-FIT (whole-curve fit snapshot budget) | `ablation_fit_budget` |
//! | EXT-TRAFFIC (future work: traffic data) | `exp_traffic_quality` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod figures;
pub mod scenario;
pub mod table;
pub mod traffic;
