//! Regenerators for the paper's figures, its §8.2 headline table and
//! its §8.2 trend census.

use qrank_core::classify::classify_all;
use qrank_core::correlation::{precision_at_k, spearman};
use qrank_core::{bootstrap_mean_ci, ErrorHistogram, PipelineReport, Trend};
use qrank_model::stages::{stage_at, stage_transitions, StageThresholds};
use qrank_model::{popularity, ModelParams};
use qrank_sim::{Crawler, SimConfig, World};

use crate::scenario::{paper_report, Scale};
use crate::{table, Run};

/// Figure 1: the sigmoidal popularity evolution for `Q = 0.8`,
/// `n = r = 1e8`, `P(p,0) = 1e-8`, over `t ∈ [0, 40]` — `(t, P(p,t))`.
fn fig1_series(steps: usize) -> Vec<(f64, f64)> {
    popularity::popularity_series(&ModelParams::figure1(), 40.0, steps)
}

/// Figure 2: `I(p,t)` and `P(p,t)` for `Q = 0.2`, `P(p,0) = 1e-9` over
/// `t ∈ [0, 150]` — rows of `(t, I, P)`.
fn fig2_series(steps: usize) -> Vec<(f64, f64, f64)> {
    let p = ModelParams::figure2();
    popularity::popularity_series(&p, 150.0, steps)
        .into_iter()
        .map(|(t, pop)| (t, popularity::relative_increase(&p, t), pop))
        .collect()
}

/// Figure 3: `I(p,t) + P(p,t)` over the same range — `(t, I + P)`; flat
/// at `Q = 0.2` (Theorem 2).
fn fig3_series(steps: usize) -> Vec<(f64, f64)> {
    let p = ModelParams::figure2();
    popularity::quality_estimate_series(&p, 150.0, steps)
}

/// Output of the Figure 5 / headline-table experiment, including
/// ground-truth diagnostics the paper could not compute.
#[derive(Debug, Clone)]
pub(crate) struct Fig5Output {
    /// Pipeline report (histograms, per-page errors, summaries).
    pub report: PipelineReport,
    /// Spearman correlation between the quality estimate and ground-truth
    /// quality, over selected pages.
    pub spearman_estimate_truth: f64,
    /// Same for the current-popularity baseline.
    pub spearman_current_truth: f64,
    /// Precision@50 of estimate vs truth (selected pages).
    pub precision_estimate: f64,
    /// Precision@50 of baseline vs truth.
    pub precision_current: f64,
    /// Number of pages in the common set.
    pub common_pages: usize,
}

/// Run the paper's Section 8 experiment end to end on the simulator.
fn fig5(scale: Scale, seed: u64) -> Fig5Output {
    let study = scale.study(scale.sim_config(seed));
    let series = study.series(&Crawler::default(), &scale.paper_times());
    let report = paper_report(&series, scale.calibrated_c());
    ground_truth_diagnostics(report, study.world())
}

/// Attach ground-truth rank diagnostics to a pipeline report.
fn ground_truth_diagnostics(report: PipelineReport, world: &World) -> Fig5Output {
    let mut est = Vec::new();
    let mut cur = Vec::new();
    let mut truth = Vec::new();
    for (i, &sel) in report.selected.iter().enumerate() {
        if !sel {
            continue;
        }
        let page = report.pages[i].0 as u32;
        est.push(report.estimates[i]);
        cur.push(report.current[i]);
        truth.push(world.page(page).quality);
    }
    // Top-k overlap with ground truth: use the top decile so the metric
    // reflects the broad quality ordering rather than the handful of
    // navigation hubs that dominate any PageRank-scale score.
    let k = (truth.len() / 10).max(1).min(truth.len().max(1));
    let (pe, pc) = if truth.is_empty() {
        (0.0, 0.0)
    } else {
        (
            precision_at_k(&est, &truth, k),
            precision_at_k(&cur, &truth, k),
        )
    };
    Fig5Output {
        spearman_estimate_truth: spearman(&est, &truth),
        spearman_current_truth: spearman(&cur, &truth),
        precision_estimate: pe,
        precision_current: pc,
        common_pages: report.pages.len(),
        report,
    }
}

/// `fig1_popularity_evolution`: Figure 1, the popularity evolution
/// with its three life stages annotated.
pub(crate) fn render_fig1(_: &Run) -> String {
    let params = ModelParams::figure1();
    let rows: Vec<Vec<String>> = fig1_series(20)
        .into_iter()
        .map(|(t, p)| {
            vec![
                format!("{t:.1}"),
                table::f(p),
                format!("{:?}", stage_at(&params, t)),
            ]
        })
        .collect();
    let (lo, hi) = stage_transitions(&params, StageThresholds::default());
    format!(
        "Figure 1: popularity evolution P(p,t)\n\
         parameters: Q = 0.8, n = 1e8, r = 1e8, P(p,0) = 1e-8\n\n\
         {}\n\
         stage transitions: infant->expansion at t = {:.1}, expansion->maturity at t = {:.1}\n\
         (paper, read off its plot: t ~ 15 and t ~ 30; popularity saturates at Q = 0.8)\n",
        table::render(&["t", "P(p,t)", "stage"], &rows),
        lo.expect("transition exists"),
        hi.expect("transition exists")
    )
}

/// `fig2_relative_increase`: Figure 2, `I(p,t)` and `P(p,t)` as
/// complementary quality estimators.
pub(crate) fn render_fig2(_: &Run) -> String {
    let rows: Vec<Vec<String>> = fig2_series(30)
        .into_iter()
        .map(|(t, i, p)| vec![format!("{t:.0}"), table::f(i), table::f(p)])
        .collect();
    format!(
        "Figure 2: I(p,t) (solid) and P(p,t) (dashed)\n\
         parameters: Q = 0.2, n = 1e8, r = 1e8, P(p,0) = 1e-9\n\n\
         {}\n\
         paper narrative reproduced:\n  \
         - I(p,t) ~ 0.2 = Q for young pages (t < 70), then decays;\n  \
         - P(p,t) ~ 0 early, approaching Q only for t > 120.\n",
        table::render(&["t", "I(p,t)", "P(p,t)"], &rows)
    )
}

/// `fig3_estimator_constancy`: Figure 3, `I(p,t) + P(p,t)` flat at the
/// true quality (Theorem 2).
pub(crate) fn render_fig3(_: &Run) -> String {
    let series = fig3_series(30);
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|&(t, q)| vec![format!("{t:.0}"), format!("{q:.12}")])
        .collect();
    let max_dev = series
        .iter()
        .map(|&(_, q)| (q - 0.2).abs())
        .fold(0.0, f64::max);
    format!(
        "Figure 3: I(p,t) + P(p,t)\n\
         parameters: Q = 0.2, n = 1e8, r = 1e8, P(p,0) = 1e-9\n\n\
         {}\n\
         maximum deviation from Q = 0.2 across the series: {max_dev:.2e}\n\
         (Theorem 2: the sum equals Q exactly at every t)\n",
        table::render(&["t", "I(p,t)+P(p,t)"], &rows)
    )
}

/// `fig5_error_histogram`: Figure 5, the histogram of relative errors of
/// `Q(p)` (white bars in the paper) and `PR(p,t3)` (grey bars) against
/// `PR(p,t4)` over the pages whose PageRank changed more than 5 % in the
/// estimation window, plus the ground-truth diagnostics.
pub(crate) fn render_fig5(run: &Run) -> String {
    let out = fig5(run.scale, run.seed);
    let r = &out.report;
    let (hq, hp) = (&r.summary_estimate.histogram, &r.summary_current.histogram);
    let rows: Vec<Vec<String>> = ErrorHistogram::bin_labels()
        .iter()
        .enumerate()
        .map(|(i, &edge)| {
            vec![
                format!("{edge:.1}"),
                table::pct(hq.fractions[i]),
                table::pct(hp.fractions[i]),
            ]
        })
        .collect();
    let (est, cur) = (&r.summary_estimate, &r.summary_current);
    format!(
        "Figure 5: histogram of relative errors err(p) vs future PageRank\n\
         scale = {:?}, seed = {}\n\n\
         common pages: {}   reported (changed > 5%): {}\n\n\
         {}\n\
         headline comparison (paper: Q(p) 0.32 vs PR(p,t3) 0.78):\n  \
         mean relative error:  Q(p) = {}   PR(p,t3) = {}   improvement x{:.2}\n  \
         err < 0.1 (paper 62% vs 46%):  Q(p) = {}   PR(p,t3) = {}\n  \
         err > 1.0 (paper  5% vs >10%): Q(p) = {}   PR(p,t3) = {}\n\n\
         ground-truth diagnostics (unavailable to the paper):\n  \
         spearman(estimate, true quality) = {}   spearman(current PR, true quality) = {}\n  \
         top-decile precision vs true quality: estimate = {}   current PR = {}\n",
        run.scale,
        run.seed,
        out.common_pages,
        r.num_selected(),
        table::render(&["err bin <=", "Q(p)  [white]", "PR(p,t3) [grey]"], &rows),
        table::f(est.mean_error),
        table::f(cur.mean_error),
        r.improvement_factor(),
        table::pct(est.frac_below_01),
        table::pct(cur.frac_below_01),
        table::pct(est.frac_above_1),
        table::pct(cur.frac_above_1),
        table::f(out.spearman_estimate_truth),
        table::f(out.spearman_current_truth),
        table::f(out.precision_estimate),
        table::f(out.precision_current)
    )
}

/// `table_headline_errors`: the §8.2 headline numbers (paper: 0.32 vs
/// 0.78, "our quality estimator predicted the future PageRank twice as
/// accurately") over the run's seed and the next two, with bootstrap
/// confidence intervals on the first.
pub(crate) fn render_headline_table(run: &Run) -> String {
    const SEEDS: u64 = 3;
    let outs: Vec<Fig5Output> = (run.seed..run.seed + SEEDS)
        .map(|seed| fig5(run.scale, seed))
        .collect();
    let mut rows: Vec<Vec<String>> = (run.seed..)
        .zip(&outs)
        .map(|(seed, out)| {
            let r = &out.report;
            vec![
                seed.to_string(),
                r.num_selected().to_string(),
                table::f(r.summary_estimate.mean_error),
                table::f(r.summary_current.mean_error),
                format!("x{:.2}", r.improvement_factor()),
            ]
        })
        .collect();
    let mean = |err: fn(&PipelineReport) -> f64| {
        outs.iter().map(|out| err(&out.report)).sum::<f64>() / SEEDS as f64
    };
    let mean_q = mean(|r| r.summary_estimate.mean_error);
    let mean_pr = mean(|r| r.summary_current.mean_error);
    rows.push(vec![
        "mean".into(),
        "-".into(),
        table::f(mean_q),
        table::f(mean_pr),
        format!("x{:.2}", mean_pr / mean_q),
    ]);

    // bootstrap 95% confidence intervals on the first seed's run
    let r = &outs[0].report;
    let pick = |errs: &[f64]| -> Vec<f64> {
        errs.iter()
            .zip(&r.selected)
            .filter(|(_, &s)| s)
            .map(|(&e, _)| e)
            .collect()
    };
    let (qlo, qhi) = bootstrap_mean_ci(&pick(&r.err_estimate), 2000, 0.95, 42);
    let (plo, phi) = bootstrap_mean_ci(&pick(&r.err_current), 2000, 0.95, 42);
    format!(
        "Headline table: mean relative error vs future PageRank ({:?}, {SEEDS} seeds)\n\n\
         {}\n\
         bootstrap 95% CI (seed {}): err Q(p) in [{}, {}], err PR(p,t3) in [{}, {}]\n\
         paper reference: err Q(p) = 0.32, err PR(p,t3) = 0.78, improvement x2.4\n",
        run.scale,
        table::render(
            &["seed", "pages", "err Q(p)", "err PR(p,t3)", "improvement"],
            &rows
        ),
        run.seed,
        table::f(qlo),
        table::f(qhi),
        table::f(plo),
        table::f(phi)
    )
}

/// The census's per-step tolerance for calling a trajectory flat:
/// PageRank jitters at the fourth decimal for every page, so strict
/// comparison would report zero flat pages no matter how static the
/// corpus is.
pub(crate) const CENSUS_FLAT_TOLERANCE: f64 = 0.02;

/// What `exp_trend_census` prints below its table.
const TREND_CENSUS_NOTE: &str = "paper observations reproduced:
  - \"the majority of pages did not show a significant change\": the
    flat + sub-5% population dominates;
  - decreasing pages appear once forgetting is enabled (pass a third
    argument, e.g. `paper exp_trend_census paper 42 0.25`);
  - oscillating pages (PageRank up then down) exist in every regime and
    are handled with the paper's I := 0 rule.
";

/// `exp_trend_census`: §8.2's corpus observation ("the majority of pages
/// did not show a significant change in PageRank values") and the
/// discussion section's two anomalies, consistently *decreasing* pages
/// and *oscillating* pages, under the paper's snapshot timeline.
pub(crate) fn render_trend_census(run: &Run) -> String {
    let (scale, forget_rate) = (run.scale, run.forget_rate);
    let cfg = SimConfig {
        forget_rate,
        ..scale.sim_config(run.seed)
    };
    let series = scale
        .study(cfg)
        .series(&Crawler::default(), &scale.paper_times());
    let report = paper_report(&series, scale.calibrated_c());

    let total = report.trends.len();
    let trends = classify_all(&report.trajectories.values, CENSUS_FLAT_TOLERANCE);
    let row = |label: &str, count: usize| {
        vec![
            label.to_string(),
            count.to_string(),
            table::pct(count as f64 / total.max(1) as f64),
        ]
    };
    let count = |t: Trend| trends.iter().filter(|&&x| x == t).count();
    let rows = vec![
        row("increasing", count(Trend::Increasing)),
        row("decreasing", count(Trend::Decreasing)),
        row("oscillating", count(Trend::Oscillating)),
        row("flat", count(Trend::Flat)),
        row("changed > 5% (reported set)", report.num_selected()),
    ];
    format!(
        "Trend census over the estimation window ({scale:?}, seed {}, forget rate {forget_rate})\n\n{}\n{TREND_CENSUS_NOTE}",
        run.seed,
        table::render(&["trend", "pages", "fraction"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_matches_paper_narrative() {
        let s = fig1_series(400);
        assert_eq!(s.len(), 401);
        // starts near zero, saturates at 0.8
        assert!(s[0].1 < 1e-7);
        assert!((s.last().unwrap().1 - 0.8).abs() < 0.01);
        // monotone
        assert!(s.windows(2).all(|w| w[1].1 >= w[0].1));
    }

    #[test]
    fn fig2_shows_complementarity() {
        let s = fig2_series(300);
        // early: I ≈ Q, P ≈ 0
        let (_, i_early, p_early) = s[20];
        assert!((i_early - 0.2).abs() < 0.01);
        assert!(p_early < 0.01);
        // late: I ≈ 0, P ≈ Q
        let (_, i_late, p_late) = *s.last().unwrap();
        assert!(i_late < 0.01);
        assert!((p_late - 0.2).abs() < 0.01);
    }

    #[test]
    fn fig3_is_flat_at_quality() {
        let s = fig3_series(300);
        for &(t, q) in &s {
            assert!((q - 0.2).abs() < 1e-9, "not flat at t={t}: {q}");
        }
    }

    #[test]
    fn fig5_small_scale_estimator_wins() {
        let out = fig5(Scale::Small, 5);
        let r = &out.report;
        assert!(r.num_selected() > 20, "selected {}", r.num_selected());
        // the headline claim: mean error of Q(p) below the baseline's
        assert!(
            r.summary_estimate.mean_error < r.summary_current.mean_error,
            "estimate {} vs baseline {}",
            r.summary_estimate.mean_error,
            r.summary_current.mean_error
        );
        // histogram shape: more mass in the lowest bin for the estimator
        assert!(
            r.summary_estimate.frac_below_01 >= r.summary_current.frac_below_01,
            "{} vs {}",
            r.summary_estimate.frac_below_01,
            r.summary_current.frac_below_01
        );
    }
}
