//! Ablation studies over the estimator's design choices.

use qrank_core::estimator::{CurrentPopularity, DerivativeOnly, LogisticFit, PaperEstimator};
use qrank_core::smoothing::{ewma_smooth, AdaptiveWindow};
use qrank_core::{
    EvalSummary, PipelineConfig, PipelineEngine, PipelineReport, PopularityMetric, QualityEstimator,
};
use qrank_graph::SnapshotSeries;
use qrank_sim::{Crawler, SimConfig};

use crate::scenario::{paper_report, Scale, Study};
use crate::{table, Run};

/// One ablation row: a label plus the estimator-vs-baseline summaries.
#[derive(Debug, Clone)]
pub(crate) struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Summary for the variant under test.
    pub summary: EvalSummary,
    /// Summary for the current-popularity baseline on the same data.
    pub baseline: EvalSummary,
    /// Pages included in the comparison.
    pub selected: usize,
}

impl AblationRow {
    /// A report's row: its estimate against its current-PageRank
    /// baseline, over the pages it selected.
    fn new(label: impl Into<String>, report: &PipelineReport) -> AblationRow {
        AblationRow {
            label: label.into(),
            summary: report.summary_estimate.clone(),
            baseline: report.summary_current.clone(),
            selected: report.num_selected(),
        }
    }
}

/// ABL-C: sweep the Equation 1 constant `C`. The paper: "The value 0.1
/// showed the best result out of all values that we tested. Small
/// variations in the constant did not affect our result significantly."
fn c_sweep(scale: Scale, seed: u64, cs: &[f64]) -> Vec<AblationRow> {
    let study = scale.study(scale.sim_config(seed));
    let series = study.series(&Crawler::default(), &scale.paper_times());
    // one engine solves the series once; each C only re-estimates
    let mut engine = PipelineEngine::new(PipelineConfig::default().metric);
    cs.iter()
        .map(|&c| {
            let cfg = PipelineConfig {
                c,
                ..Default::default()
            };
            let report = engine
                .run(&series, &cfg.estimator(), cfg.min_relative_change)
                .expect("pipeline");
            AblationRow::new(format!("C = {c}"), &report)
        })
        .collect()
}

/// The whole-curve logistic fit in PageRank units. It needs an upper
/// bound on popularity in metric units: a margin above the largest score
/// in the first snapshot.
fn logistic_fit(series: &SnapshotSeries, visit_ratio: f64) -> LogisticFit {
    let scores = PopularityMetric::paper_pagerank().compute(&series.snapshots()[0].graph);
    LogisticFit {
        visit_ratio,
        q_max: 3.0 * scores.iter().cloned().fold(1.0, f64::max),
        flat_tolerance: 1e-3,
        max_boost: 4.0,
    }
}

/// ABL-EST: estimator variants on identical data — the paper estimator
/// on PageRank, the paper estimator on raw link counts (footnote 4),
/// derivative-only, current popularity, logistic whole-curve fit, and
/// the adaptive-window variant from the discussion section.
fn estimator_variants(scale: Scale, seed: u64) -> Vec<AblationRow> {
    let study = scale.study(scale.sim_config(seed));
    let series = study.series(&Crawler::default(), &scale.paper_times());
    // one engine per metric, so each metric's columns are solved once
    let mut pagerank = PipelineEngine::new(PopularityMetric::paper_pagerank());
    let mut indegree = PipelineEngine::new(PopularityMetric::InDegree);

    let c = scale.calibrated_c();
    let paper = PaperEstimator {
        c,
        flat_tolerance: 0.0,
    };
    let derivative = DerivativeOnly {
        c,
        flat_tolerance: 0.0,
    };
    let current = CurrentPopularity;
    let adaptive = AdaptiveWindow {
        c,
        threshold: 1.0,
        flat_tolerance: 0.0,
    };
    let logistic = logistic_fit(&series, scale.sim_config(seed).visit_ratio);

    let row = |label: &str, engine: &mut PipelineEngine, est: &dyn QualityEstimator| {
        AblationRow::new(label, &engine.run(&series, est, 0.05).expect("pipeline"))
    };
    vec![
        row("paper / pagerank", &mut pagerank, &paper),
        row("paper / indegree", &mut indegree, &paper),
        row("derivative-only / pagerank", &mut pagerank, &derivative),
        row("current-popularity / pagerank", &mut pagerank, &current),
        row("adaptive-window / pagerank", &mut pagerank, &adaptive),
        row("logistic-fit / pagerank", &mut pagerank, &logistic),
    ]
}

/// ABL-INT: snapshot-interval sensitivity. Each run keeps the future
/// snapshot at the same absolute time but varies the estimation-window
/// spacing: one world, crawled on each schedule.
fn interval_sweep(scale: Scale, seed: u64, intervals: &[f64]) -> Vec<AblationRow> {
    let study = scale.study(scale.sim_config(seed));
    let (start, future) = (scale.burn_in(), scale.paper_times()[3]);
    intervals
        .iter()
        .map(|&iv| {
            let times = [start, start + iv, start + 2.0 * iv, future];
            let series = study.series(&Crawler::default(), &times);
            let report = paper_report(&series, scale.calibrated_c());
            AblationRow::new(format!("interval = {iv} months"), &report)
        })
        .collect()
}

/// ABL-FORGET: does the estimator still beat the baseline when users
/// forget pages (popularity can decline, the paper's anomaly)?
fn forgetting_sweep(scale: Scale, seed: u64, rates: &[f64]) -> Vec<AblationRow> {
    rates
        .iter()
        .map(|&rate| {
            let cfg = SimConfig {
                forget_rate: rate,
                ..scale.sim_config(seed)
            };
            let series = scale
                .study(cfg)
                .series(&Crawler::default(), &scale.paper_times());
            let report = paper_report(&series, scale.calibrated_c());
            AblationRow::new(format!("forget_rate = {rate}"), &report)
        })
        .collect()
}

/// ABL-NOISE: EWMA smoothing under crawl noise. Noise comes from an
/// incomplete mirror: a 400-page-per-site cap, so each snapshot's
/// boundary jitters. Estimates with and without smoothing.
fn noise_sweep(scale: Scale, seed: u64, alphas: &[f64]) -> Vec<AblationRow> {
    let crawler = Crawler {
        max_pages_per_site: 400,
    };
    let series = scale
        .study(scale.sim_config(seed))
        .series(&crawler, &scale.paper_times());

    // the trajectories and the report filter do not depend on alpha
    let aligned = series.aligned_to_common().expect("align");
    let metric = PopularityMetric::paper_pagerank();
    let traj = qrank_core::trajectory::compute_trajectories(&aligned, &metric).expect("traj");
    let k = traj.num_snapshots();
    let past = traj.truncated(k - 1).expect("truncate");
    let last = |v: &Vec<f64>| *v.last().expect("non-empty");
    let current: Vec<f64> = past.values.iter().map(last).collect();
    let future: Vec<f64> = traj.values.iter().map(last).collect();
    let sel: Vec<bool> = past.relative_change().iter().map(|&c| c > 0.05).collect();
    let pick = |vals: &[f64]| -> Vec<f64> {
        vals.iter()
            .zip(&sel)
            .zip(&future)
            .filter(|((_, &s), _)| s)
            .map(|((&v, _), &f)| qrank_core::relative_error(f, v))
            .collect()
    };
    let estimator = PaperEstimator {
        c: scale.calibrated_c(),
        flat_tolerance: 0.0,
    };

    alphas
        .iter()
        .map(|&alpha| {
            let smoothed = if alpha < 1.0 {
                ewma_smooth(&past, alpha)
            } else {
                past.clone()
            };
            let est = estimator.estimate(&smoothed).expect("estimate");
            AblationRow {
                label: format!("ewma alpha = {alpha}"),
                summary: EvalSummary::from_errors(&pick(&est)),
                baseline: EvalSummary::from_errors(&pick(&current)),
                selected: sel.iter().filter(|&&s| s).count(),
            }
        })
        .collect()
}

/// ABL-FIT: whole-curve logistic fitting vs the paper's two-point
/// formula, as a function of the snapshot budget. With the paper's three
/// estimation snapshots the asymptote of a logistic is unidentifiable
/// for slow-growing pages and the fit fails badly; the sweep shows how
/// many snapshots (over the same two-month window) the whole-curve
/// approach needs before it becomes competitive.
fn fit_budget_sweep(scale: Scale, seed: u64, counts: &[usize]) -> Vec<AblationRow> {
    let cfg = scale.sim_config(seed);
    let study = scale.study(cfg);
    let (start, future) = (scale.burn_in(), scale.paper_times()[3]);
    let mut rows = Vec::new();
    for &count in counts {
        assert!(count >= 3, "logistic fit needs >= 3 estimation snapshots");
        let mut times: Vec<f64> = (0..count)
            .map(|i| start + 2.0 * i as f64 / (count - 1) as f64)
            .collect();
        times.push(future); // held-out future
        let series = study.series(&Crawler::default(), &times);

        let logistic = logistic_fit(&series, cfg.visit_ratio);
        let paper = PaperEstimator {
            c: scale.calibrated_c(),
            flat_tolerance: 0.0,
        };
        // one engine, so both estimators read one solve of the series
        let mut engine = PipelineEngine::new(PopularityMetric::paper_pagerank());
        let fit_report = engine.run(&series, &logistic, 0.05).expect("pipeline");
        let two_point = engine.run(&series, &paper, 0.05).expect("pipeline");
        rows.push(AblationRow {
            // baseline = paper estimator here
            baseline: two_point.summary_estimate,
            ..AblationRow::new(format!("logistic fit, {count} snapshots"), &fit_report)
        });
    }
    rows
}

/// ABL-VISIT: discovery regimes. The paper's introduction argues that
/// search-engine-mediated discovery ("rich get richer") is what buries
/// young quality pages; this ablation runs the same corpus under the
/// model's uniform-visit world (Proposition 1), PageRank-proportional
/// visits, and position-biased search exposure, and reports both the
/// future-PageRank prediction errors and the ground-truth quality
/// correlation of each ranking.
/// `base` sets everything but the visit model; the last of `times` is
/// each study's end.
fn visit_model_sweep(base: SimConfig, times: &[f64], c: f64) -> Vec<(AblationRow, f64, f64)> {
    use qrank_core::correlation::spearman;
    use qrank_sim::VisitModel;
    let models = [
        (
            "by-popularity (the paper's model)",
            VisitModel::ByPopularity,
        ),
        ("by-pagerank", VisitModel::ByPageRank),
        (
            "search exposure, bias 1.0",
            VisitModel::BySearchRank { bias: 1.0 },
        ),
    ];
    let end = *times.last().expect("capture times");
    models
        .into_iter()
        .map(|(label, vm)| {
            let cfg = SimConfig {
                visit_model: vm,
                ..base
            };
            let study = Study::shared(cfg, end);
            let series = study.series(&Crawler::default(), times);
            let report = paper_report(&series, c);
            // ground-truth rank quality of the two rankings
            let truths: Vec<f64> = report
                .pages
                .iter()
                .map(|p| study.world().page(p.0 as u32).quality)
                .collect();
            let rho_est = spearman(&report.estimates, &truths);
            let rho_cur = spearman(&report.current, &truths);
            (AblationRow::new(label, &report), rho_est, rho_cur)
        })
        .collect()
}

/// The header of a sweep table whose two error columns are the variant
/// and the current-PageRank baseline.
const ERROR_HEADER: [&str; 4] = ["config", "pages", "err Q(p)", "err PR(t3)"];

/// `label, pages, err, baseline err`: the cells every sweep row starts
/// with.
fn error_cells(r: &AblationRow) -> Vec<String> {
    vec![
        r.label.clone(),
        r.selected.to_string(),
        table::f(r.summary.mean_error),
        table::f(r.baseline.mean_error),
    ]
}

/// An ablation's heading line: what it varies, at which scale and seed.
fn title(what: &str, run: &Run) -> String {
    format!("Ablation: {what} ({:?}, seed {})", run.scale, run.seed)
}

/// A heading, a blank line and the table, as every ablation prints them.
fn sweep_text(heading: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    format!("{heading}\n\n{}\n", table::render(header, rows))
}

/// `ablation_c_sweep`: ABL-C. The paper: "The value 0.1 showed the best
/// result out of all values that we tested. Small variations in the
/// constant did not affect our result significantly."
pub(crate) fn render_c_sweep(run: &Run) -> String {
    let cs = [0.0, 0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0];
    let rows: Vec<Vec<String>> = c_sweep(run.scale, run.seed, &cs)
        .iter()
        .map(|r| {
            let mut cells = error_cells(r);
            cells.push(table::pct(r.summary.frac_below_01));
            cells
        })
        .collect();
    let header = ["config", "pages", "err Q(p)", "err PR(t3)", "Q err<0.1"];
    let heading = title("constant C in Q(p) = C*dPR/PR + PR", run);
    sweep_text(&heading, &header, &rows)
        + "note: C = 0 reduces the estimator to the current-PageRank baseline.\n"
}

/// `ablation_estimators`: ABL-EST, the estimator variants on identical
/// snapshot data.
pub(crate) fn render_estimators(run: &Run) -> String {
    let rows: Vec<Vec<String>> = estimator_variants(run.scale, run.seed)
        .into_iter()
        .map(|r| {
            vec![
                r.label,
                r.selected.to_string(),
                table::f(r.summary.mean_error),
                table::pct(r.summary.frac_below_01),
                table::pct(r.summary.frac_above_1),
            ]
        })
        .collect();
    let header = [
        "estimator / metric",
        "pages",
        "mean err",
        "err<0.1",
        "err>1",
    ];
    sweep_text(&title("estimator variants", run), &header, &rows)
}

/// `ablation_fit_budget`: ABL-FIT. With the paper's three estimation
/// snapshots the logistic asymptote is unidentifiable for slow-growing
/// pages; the sweep shows how much denser the crawl schedule must be
/// before whole-curve fitting becomes competitive.
pub(crate) fn render_fit_budget(run: &Run) -> String {
    let heading = title("snapshot budget for whole-curve logistic fitting", run)
        + "\n(the 'baseline' column is the paper two-point estimator on the same data)";
    let rows: Vec<Vec<String>> = fit_budget_sweep(run.scale, run.seed, &[3, 5, 9, 17])
        .iter()
        .map(error_cells)
        .collect();
    let header = ["config", "pages", "err logistic", "err paper-est"];
    sweep_text(&heading, &header, &rows)
}

/// `ablation_forgetting`: ABL-FORGET, the paper's future-work forgetting
/// model, under which popularity can decline.
pub(crate) fn render_forgetting(run: &Run) -> String {
    let heading = title("forgetting rate", run)
        + "\n(forget_rate > 0 lets popularity decline; effective quality Q_eff = Q - phi*n/r)";
    let rows: Vec<Vec<String>> = forgetting_sweep(run.scale, run.seed, &[0.0, 0.25, 0.5, 1.0])
        .iter()
        .map(error_cells)
        .collect();
    sweep_text(&heading, &ERROR_HEADER, &rows)
}

/// `ablation_intervals`: ABL-INT, the spacing of the estimation-window
/// snapshots (the paper's future-work idea of "adjusting the Web
/// download intervals depending on the current PageRank values").
pub(crate) fn render_intervals(run: &Run) -> String {
    let heading = title("estimation-window snapshot interval", run)
        + "\n(future snapshot fixed 6 months after the first; paper uses ~1-month spacing)";
    let rows: Vec<Vec<String>> = interval_sweep(run.scale, run.seed, &[0.25, 0.5, 1.0, 2.0])
        .iter()
        .map(error_cells)
        .collect();
    sweep_text(&heading, &ERROR_HEADER, &rows)
}

/// `ablation_noise`: ABL-NOISE, estimation with and without EWMA
/// smoothing over a capped crawl whose snapshot boundaries jitter (the
/// paper's discussion flags this failure mode for low-popularity pages).
pub(crate) fn render_noise(run: &Run) -> String {
    let heading = title("EWMA smoothing under capped-crawl noise", run)
        + "\n(alpha = 1.0 is unsmoothed; smaller alpha damps snapshot jitter)";
    let rows: Vec<Vec<String>> = noise_sweep(run.scale, run.seed, &[1.0, 0.8, 0.6, 0.4])
        .iter()
        .map(error_cells)
        .collect();
    sweep_text(&heading, &ERROR_HEADER, &rows)
}

/// What `ablation_visit_models` prints below its table.
const VISIT_MODELS_NOTE: &str =
    "rho columns: spearman rank correlation with the hidden true quality.
two effects appear under search-mediated discovery:
  1. the popularity ranking tracks true quality less well (lower rho(PR)) -
     the paper's motivating bias - while the temporal estimator keeps a
     higher quality correlation in every regime;
  2. current PageRank becomes a *better* predictor of future PageRank
     (lower err PR), because rich-get-richer discovery makes popularity
     self-fulfilling. Future-PageRank prediction and quality measurement
     come apart exactly when discovery is biased - the regime where an
     unbiased quality metric matters most.
";

/// `ablation_visit_models`: ABL-VISIT, the "rich-get-richer" bias of the
/// paper's introduction and whether the temporal estimator still helps
/// under it.
pub(crate) fn render_visit_models(run: &Run) -> String {
    let (scale, times) = (run.scale, run.scale.paper_times());
    let sweep = visit_model_sweep(scale.sim_config(run.seed), &times, scale.calibrated_c());
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|(r, rho_est, rho_cur)| {
            let mut cells = error_cells(r);
            cells.extend([table::f(*rho_est), table::f(*rho_cur)]);
            cells
        })
        .collect();
    let header = [
        "discovery model",
        "pages",
        "err Q(p)",
        "err PR(t3)",
        "rho(Q,truth)",
        "rho(PR,truth)",
    ];
    let heading = title("visit-allocation (discovery) models", run);
    sweep_text(&heading, &header, &rows) + "\n" + VISIT_MODELS_NOTE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_sweep_produces_rows() {
        let rows = c_sweep(Scale::Small, 7, &[0.0, 0.1, 1.0]);
        assert_eq!(rows.len(), 3);
        // C = 0 reduces the estimator to the baseline
        assert!((rows[0].summary.mean_error - rows[0].baseline.mean_error).abs() < 1e-9);
        // some C must beat the baseline
        assert!(rows
            .iter()
            .any(|r| r.summary.mean_error < r.baseline.mean_error));
    }

    #[test]
    fn estimator_variants_cover_all_names() {
        let rows = estimator_variants(Scale::Small, 7);
        assert_eq!(rows.len(), 6);
        // the baseline-as-variant row must equal its own baseline
        let current = rows
            .iter()
            .find(|r| r.label.starts_with("current"))
            .unwrap();
        assert!((current.summary.mean_error - current.baseline.mean_error).abs() < 1e-9);
    }

    #[test]
    fn fit_budget_rows_run() {
        let rows = fit_budget_sweep(Scale::Small, 7, &[3, 5]);
        assert_eq!(rows.len(), 2);
        // more snapshots should not make the fit worse
        assert!(rows[1].summary.mean_error <= rows[0].summary.mean_error * 1.2);
    }

    #[test]
    fn visit_model_rows_run() {
        let cfg = qrank_sim::SimConfig {
            num_users: 250,
            num_sites: 5,
            visit_ratio: 0.8,
            page_birth_rate: 10.0,
            dt: 0.1,
            seed: 7,
            ..Default::default()
        };
        let times = qrank_sim::SnapshotSchedule::paper_timeline(6.0).times;
        let rows = visit_model_sweep(cfg, &times, 1.0);
        assert_eq!(rows.len(), 3);
        for (row, rho_est, rho_cur) in &rows {
            assert!(row.selected > 0);
            assert!(rho_est.is_finite() && rho_cur.is_finite());
        }
    }

    #[test]
    fn forgetting_rows_run() {
        let rows = forgetting_sweep(Scale::Small, 7, &[0.0, 0.5]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.selected > 0));
    }
}
