//! # qrank-bench — experiment harness
//!
//! Every figure, table and ablation of the paper listed in `DESIGN.md`
//! is one entry of [`EXPERIMENTS`]: a renderer that returns the exact
//! text committed as `results/<name>.txt` (paper scale, seed 42) and
//! `results/small/<name>.txt` (small scale, seed 42). The one binary,
//! `paper <name> [small|paper] [seed]`, prints that text;
//! `tests/results.rs` compares it with the committed files. Every
//! simulated experiment but EXT-TRAFFIC crawls a shared
//! [`scenario::Study`], one simulated world per configuration.
//!
//! | Paper artifact | Name |
//! |---|---|
//! | Figure 1 (popularity evolution) | `fig1_popularity_evolution` |
//! | Figure 2 (`I` vs `P`) | `fig2_relative_increase` |
//! | Figure 3 (`I + P` flat at `Q`) | `fig3_estimator_constancy` |
//! | Figure 5 (error histogram) | `fig5_error_histogram` |
//! | §8.2 headline (0.32 vs 0.78) | `table_headline_errors` |
//! | EXP-CENSUS (§8.2 trend census) | `exp_trend_census` |
//! | ABL-C (C sweep) | `ablation_c_sweep` |
//! | ABL-EST (estimator variants) | `ablation_estimators` |
//! | ABL-INT (snapshot intervals) | `ablation_intervals` |
//! | ABL-FORGET (forgetting) | `ablation_forgetting` |
//! | ABL-NOISE (noise smoothing) | `ablation_noise` |
//! | ABL-FIT (whole-curve fit snapshot budget) | `ablation_fit_budget` |
//! | ABL-VISIT (discovery regimes) | `ablation_visit_models` |
//! | EXT-TRAFFIC (future work: traffic data) | `exp_traffic_quality` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod figures;
pub mod scenario;
pub mod table;
pub mod traffic;

use scenario::Scale;

/// What one invocation of an experiment asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    /// Corpus scale of the simulated experiments (the analytic figures
    /// ignore it).
    pub scale: Scale,
    /// Simulator seed; `table_headline_errors` runs this seed and the
    /// next two.
    pub seed: u64,
    /// The census's forget rate (0 unless given; no other experiment
    /// takes one).
    pub forget_rate: f64,
}

/// One figure, table or ablation of the paper.
pub struct Experiment {
    /// The experiment's name, also the stem of `results/<name>.txt`.
    pub name: &'static str,
    /// Whether a forget rate may follow the seed (the census only).
    pub takes_forget_rate: bool,
    /// The experiment's whole printed text.
    pub render: fn(&Run) -> String,
}

impl Experiment {
    const fn new(name: &'static str, render: fn(&Run) -> String) -> Experiment {
        Experiment {
            name,
            takes_forget_rate: false,
            render,
        }
    }
}

/// Every experiment, in `results/` file order.
pub const EXPERIMENTS: [Experiment; 14] = [
    Experiment::new("ablation_c_sweep", ablations::render_c_sweep),
    Experiment::new("ablation_estimators", ablations::render_estimators),
    Experiment::new("ablation_fit_budget", ablations::render_fit_budget),
    Experiment::new("ablation_forgetting", ablations::render_forgetting),
    Experiment::new("ablation_intervals", ablations::render_intervals),
    Experiment::new("ablation_noise", ablations::render_noise),
    Experiment::new("ablation_visit_models", ablations::render_visit_models),
    Experiment::new("exp_traffic_quality", traffic::render),
    Experiment {
        takes_forget_rate: true,
        ..Experiment::new("exp_trend_census", figures::render_trend_census)
    },
    Experiment::new("fig1_popularity_evolution", figures::render_fig1),
    Experiment::new("fig2_relative_increase", figures::render_fig2),
    Experiment::new("fig3_estimator_constancy", figures::render_fig3),
    Experiment::new("fig5_error_histogram", figures::render_fig5),
    Experiment::new("table_headline_errors", figures::render_headline_table),
];

/// Parse `<name> [small|paper] [seed]` (the census also takes a forget
/// rate after the seed). The scale defaults to `paper` and the seed to
/// 42. An unknown name, an unparsable number, a positional too many or a
/// forget rate the simulator would reject is an error naming the
/// offending argument.
pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<(&'static Experiment, Run), String> {
    let (name, rest) = args.split_first().ok_or("no experiment named")?;
    let name = name.as_ref();
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment {name:?}"))?;
    let mut run = Run {
        scale: Scale::Paper,
        seed: 42,
        forget_rate: 0.0,
    };
    let mut positional = 0;
    for arg in rest.iter().map(AsRef::as_ref) {
        match (arg, positional) {
            ("small", _) => run.scale = Scale::Small,
            ("paper", _) => run.scale = Scale::Paper,
            (s, 0) => {
                run.seed = s.parse().map_err(|_| format!("bad seed {s:?}"))?;
                positional += 1;
            }
            (s, 1) if experiment.takes_forget_rate => {
                run.forget_rate = s.parse().map_err(|_| format!("bad forget rate {s:?}"))?;
                positional += 1;
            }
            (s, _) => return Err(format!("unexpected argument {s:?}")),
        }
    }
    // the simulator forgets with probability rate * dt per step, and
    // panics on a rate that is not one
    let dt = run.scale.sim_config(run.seed).dt;
    let per_step_probability = run.forget_rate >= 0.0 && run.forget_rate * dt <= 1.0;
    if !per_step_probability {
        return Err(format!(
            "forget rate {} is not in [0, 1/dt] (dt = {dt})",
            run.forget_rate
        ));
    }
    Ok((experiment, run))
}

/// The usage text, listing every experiment name.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: paper <name> [small|paper] [seed]\n       \
         paper exp_trend_census [small|paper] [seed] [forget-rate]\n\
         (defaults: paper scale, seed 42)\nnames:\n",
    );
    for e in &EXPERIMENTS {
        out.push_str("  ");
        out.push_str(e.name);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(&'static str, Run), String> {
        parse_args(args).map(|(e, run)| (e.name, run))
    }

    #[test]
    fn names_are_unique_and_sorted_like_the_results_directory() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
    }

    #[test]
    fn defaults_and_overrides() {
        let run = |scale, seed, forget_rate| Run {
            scale,
            seed,
            forget_rate,
        };
        assert_eq!(
            parse(&["fig5_error_histogram"]),
            Ok(("fig5_error_histogram", run(Scale::Paper, 42, 0.0)))
        );
        assert_eq!(
            parse(&["ablation_noise", "small", "7"]),
            Ok(("ablation_noise", run(Scale::Small, 7, 0.0)))
        );
        assert_eq!(
            parse(&["ablation_noise", "7", "small"]),
            Ok(("ablation_noise", run(Scale::Small, 7, 0.0)))
        );
        assert_eq!(
            parse(&["exp_trend_census", "paper", "42", "0.25"]),
            Ok(("exp_trend_census", run(Scale::Paper, 42, 0.25)))
        );
    }

    #[test]
    fn bad_arguments_are_errors_not_panics_or_silent_overrides() {
        // a seed that is not a number
        assert!(parse(&["ablation_c_sweep", "small", "x"]).is_err());
        // an extra positional must not replace the seed
        assert!(parse(&["exp_traffic_quality", "small", "1", "2"]).is_err());
        // only the census takes a forget rate, and only one
        assert!(parse(&["exp_trend_census", "paper", "42", "0.25", "1"]).is_err());
        assert!(parse(&["exp_trend_census", "paper", "42", "fast"]).is_err());
        assert!(parse(&["exp_trend_census", "paper", "42", "-1"]).is_err());
        assert!(parse(&["exp_trend_census", "paper", "42", "30"]).is_err());
        assert!(parse(&["exp_trend_census", "paper", "42", "NaN"]).is_err());
        assert!(parse(&["fig5_error_histogram", "42", "0.25"]).is_err());
        // a name that is not an experiment, or no name at all
        assert!(parse(&["fig4"]).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn usage_lists_every_name() {
        let text = usage();
        assert!(EXPERIMENTS.iter().all(|e| text.contains(e.name)));
    }
}
