//! `qrank estimate` — run the paper's quality-estimation pipeline on a
//! snapshot series.
//!
//! Input is either a binary series produced by `qrank simulate`
//! (`--series`) or a comma-separated list of edge-list files with
//! capture times (`--graphs` + `--times`); in the latter case node ids
//! act as stable page ids across snapshots.

use qrank_core::smoothing::AdaptiveWindow;
use qrank_core::{
    run_pipeline_with, CurrentPopularity, DerivativeOnly, PipelineConfig, PipelineEngine,
    PipelineReport, PopularityMetric, QualityEstimator,
};
use qrank_graph::io::{decode_series, read_edge_list};
use qrank_graph::{PageId, Snapshot, SnapshotSeries};

use crate::args::{parse, write_output, CliError};

const USAGE: &str = "\
qrank estimate (--series <file> | --graphs <f1,f2,...> --times <t1,t2,...>) [options]

options:
  --series FILE     binary snapshot series from `qrank simulate`
  --graphs LIST     comma-separated edge-list files (node id = page id)
  --times LIST      comma-separated capture times, one per graph
  --c C             Equation 1 constant (default 0.1, the paper's value)
  --estimator E     paper | adaptive | derivative | current (default paper)
  --metric M        pagerank | indegree (default pagerank)
  --min-change X    report filter on relative change (default 0.05)
  --window W        slide a W-snapshot window through the series via one
                    stage engine, printing per-step cache stats; the
                    printed report comes from the final window (W >= 3)
  --threads T       align-stage/solver worker threads (default:
                    QRANK_THREADS or available parallelism; results are
                    bitwise identical at every setting)
  --out FILE        per-page TSV: page, trend, current, estimate, future, errors
  --top K           also print the top K pages by estimated quality

the LAST snapshot is held out as the future reference, as in the paper.";

/// Entry point.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let allowed = [
        "series",
        "graphs",
        "times",
        "c",
        "estimator",
        "metric",
        "min-change",
        "window",
        "threads",
        "out",
        "top",
    ];
    let p = parse(argv, &allowed, USAGE)?;
    if p.help {
        println!("{USAGE}");
        return Ok(());
    }
    let series = load_series(&p)?;

    let metric = match p.get("metric").unwrap_or("pagerank") {
        "pagerank" => PopularityMetric::paper_pagerank(),
        "indegree" => PopularityMetric::InDegree,
        other => return Err(CliError::usage(format!("unknown metric `{other}`"), USAGE)),
    };
    let defaults = PipelineConfig::default();
    let c: f64 = p.get_or("c", defaults.c, USAGE)?;
    let min_change: f64 = p.get_or("min-change", defaults.min_relative_change, USAGE)?;
    let paper = PipelineConfig { c, ..defaults }.estimator();
    let adaptive = AdaptiveWindow {
        c,
        threshold: 1.0,
        flat_tolerance: paper.flat_tolerance,
    };
    let derivative = DerivativeOnly {
        c,
        flat_tolerance: paper.flat_tolerance,
    };
    let current = CurrentPopularity;
    let estimator: &dyn QualityEstimator = match p.get("estimator").unwrap_or("paper") {
        "paper" => &paper,
        "adaptive" => &adaptive,
        "derivative" => &derivative,
        "current" => &current,
        other => {
            return Err(CliError::usage(
                format!("unknown estimator `{other}`"),
                USAGE,
            ))
        }
    };
    let threads: usize = p.get_or("threads", 0, USAGE)?;
    if threads > 0 {
        qrank_rank::set_thread_budget(threads);
    }
    let window: usize = p.get_or("window", 0, USAGE)?;
    let report = if window > 0 {
        sliding_sweep(&series, window, &metric, estimator, min_change)?
    } else {
        run_pipeline_with(&series, &metric, estimator, min_change)
            .map_err(|e| CliError::Runtime(e.to_string()))?
    };

    println!(
        "{} snapshots, {} common pages, {} selected (changed > {:.0}%), estimator `{}`",
        series.len(),
        report.pages.len(),
        report.num_selected(),
        100.0 * min_change,
        estimator.name()
    );
    println!(
        "mean relative error vs future: quality estimate {:.4}, current popularity {:.4} (x{:.2})",
        report.summary_estimate.mean_error,
        report.summary_current.mean_error,
        report.improvement_factor()
    );

    if let Some(out) = p.get("out") {
        write_output(Some(out), &qrank_core::report::render_tsv(&report))?;
        eprintln!("wrote per-page report to {out}");
    }

    let top: usize = p.get_or("top", 0, USAGE)?;
    if top > 0 {
        let mut order: Vec<usize> = (0..report.pages.len()).collect();
        order.sort_by(|&a, &b| {
            report.estimates[b]
                .partial_cmp(&report.estimates[a])
                .expect("no NaN")
                .then(a.cmp(&b))
        });
        println!("\ntop {top} pages by estimated quality:");
        for &i in order.iter().take(top) {
            println!(
                "  {}  estimate {:.4}  (current {:.4}, trend {:?})",
                report.pages[i], report.estimates[i], report.current[i], report.trends[i]
            );
        }
    }
    Ok(())
}

/// Slide a `window`-snapshot window from the start of the series to its
/// end through a single [`PipelineEngine`], printing how much of each
/// step the fingerprint-keyed stage caches absorbed. The returned report
/// is the final window's — identical to a cold pipeline run on that
/// window.
fn sliding_sweep(
    series: &SnapshotSeries,
    window: usize,
    metric: &PopularityMetric,
    estimator: &dyn QualityEstimator,
    min_change: f64,
) -> Result<PipelineReport, CliError> {
    if window < 3 {
        return Err(CliError::usage(
            format!("--window must be at least 3 (got {window})"),
            USAGE,
        ));
    }
    if window > series.len() {
        return Err(CliError::usage(
            format!(
                "--window {window} exceeds the series length {}",
                series.len()
            ),
            USAGE,
        ));
    }
    let mut engine = PipelineEngine::new(metric.clone());
    let mut report = None;
    for end in window..=series.len() {
        let mut win = SnapshotSeries::new();
        for snap in &series.snapshots()[end - window..end] {
            win.push(snap.clone())
                .map_err(|e| CliError::Runtime(e.to_string()))?;
        }
        let r = engine
            .run(&win, estimator, min_change)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        let stats = engine.stats();
        println!(
            "window [{}..{}): {} columns solved, {} reused ({} aligned snapshots rebuilt)",
            end - window,
            end,
            stats.columns_solved(),
            stats.columns_reused(),
            stats.restrict_misses
        );
        report = Some(r);
    }
    report.ok_or_else(|| CliError::Runtime("empty sweep".into()))
}

fn load_series(p: &crate::args::Parsed) -> Result<SnapshotSeries, CliError> {
    match (p.get("series"), p.get("graphs")) {
        (Some(path), None) => {
            let bytes = std::fs::read(path)?;
            decode_series(&bytes).map_err(|e| CliError::Runtime(e.to_string()))
        }
        (None, Some(list)) => {
            let files: Vec<&str> = list.split(',').collect();
            let times_raw = p.require("times", USAGE)?;
            let times: Result<Vec<f64>, _> = times_raw
                .split(',')
                .map(|t| t.trim().parse::<f64>())
                .collect();
            let times = times.map_err(|e| CliError::usage(format!("bad --times: {e}"), USAGE))?;
            if times.len() != files.len() {
                return Err(CliError::usage(
                    format!("{} graphs but {} times", files.len(), times.len()),
                    USAGE,
                ));
            }
            let mut series = SnapshotSeries::new();
            for (file, &t) in files.iter().zip(&times) {
                let text = std::fs::read_to_string(file)?;
                let g = read_edge_list(text.as_bytes())
                    .map_err(|e| CliError::Runtime(format!("{file}: {e}")))?;
                let pages: Vec<PageId> = (0..g.num_nodes() as u64).map(PageId).collect();
                let snap =
                    Snapshot::new(t, g, pages).map_err(|e| CliError::Runtime(e.to_string()))?;
                series
                    .push(snap)
                    .map_err(|e| CliError::Runtime(e.to_string()))?;
            }
            Ok(series)
        }
        (Some(_), Some(_)) => Err(CliError::usage(
            "give either --series or --graphs, not both",
            USAGE,
        )),
        (None, None) => Err(CliError::usage("need --series or --graphs", USAGE)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn temp_dir() -> std::path::PathBuf {
        // one directory per test thread: tests run concurrently, and a
        // rewrite of the snapshot files must not be seen half-done by
        // another
        let dir = std::env::temp_dir().join(format!(
            "qrank_cli_test_est_{:?}",
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_growing_snapshots() -> Vec<std::path::PathBuf> {
        let dir = temp_dir();
        let snapshots = [
            "# nodes: 5\n0 1\n1 0\n2 0\n3 1\n",
            "# nodes: 5\n0 1\n1 0\n2 0\n3 1\n3 4\n",
            "# nodes: 5\n0 1\n1 0\n2 0\n3 1\n3 4\n2 4\n",
            "# nodes: 5\n0 1\n1 0\n2 0\n3 1\n3 4\n2 4\n1 4\n",
        ];
        snapshots
            .iter()
            .enumerate()
            .map(|(i, text)| {
                let path = dir.join(format!("s{i}.edges"));
                std::fs::write(&path, text).unwrap();
                path
            })
            .collect()
    }

    #[test]
    fn estimates_from_edge_list_snapshots() {
        let files = write_growing_snapshots();
        let list = files
            .iter()
            .map(|p| p.to_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join(",");
        let out = temp_dir().join("report.tsv");
        run(&argv(&[
            "--graphs",
            &list,
            "--times",
            "0,1,2,6",
            "--out",
            out.to_str().unwrap(),
            "--top",
            "3",
        ]))
        .unwrap();
        let tsv = std::fs::read_to_string(&out).unwrap();
        assert_eq!(tsv.lines().count(), 6); // header + 5 pages
        assert!(tsv.contains("Increasing"));
    }

    #[test]
    fn estimates_from_binary_series() {
        // produce a series via the simulate command, then estimate
        let dir = temp_dir();
        let series_path = dir.join("sim.bin");
        crate::commands::simulate::run(&argv(&[
            "--out",
            series_path.to_str().unwrap(),
            "--users",
            "120",
            "--sites",
            "3",
            "--birth-rate",
            "5",
            "--burn-in",
            "2",
            "--future",
            "3",
        ]))
        .unwrap();
        run(&argv(&[
            "--series",
            series_path.to_str().unwrap(),
            "--c",
            "1.0",
        ]))
        .unwrap();
    }

    #[test]
    fn estimator_variants_run() {
        let files = write_growing_snapshots();
        let list = files
            .iter()
            .map(|p| p.to_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join(",");
        for est in ["paper", "adaptive", "derivative", "current"] {
            run(&argv(&[
                "--graphs",
                &list,
                "--times",
                "0,1,2,6",
                "--estimator",
                est,
            ]))
            .unwrap_or_else(|e| panic!("{est}: {e}"));
        }
        assert!(matches!(
            run(&argv(&[
                "--graphs",
                &list,
                "--times",
                "0,1,2,6",
                "--estimator",
                "magic"
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn sliding_window_sweep_runs_and_validates() {
        let files = write_growing_snapshots();
        let list = files
            .iter()
            .map(|p| p.to_str().unwrap().to_string())
            .collect::<Vec<_>>()
            .join(",");
        run(&argv(&[
            "--graphs", &list, "--times", "0,1,2,6", "--window", "3",
        ]))
        .unwrap();
        // a window as long as the series degenerates to one cold run
        run(&argv(&[
            "--graphs", &list, "--times", "0,1,2,6", "--window", "4",
        ]))
        .unwrap();
        for bad in ["2", "9"] {
            assert!(matches!(
                run(&argv(&[
                    "--graphs", &list, "--times", "0,1,2,6", "--window", bad,
                ])),
                Err(CliError::Usage(_))
            ));
        }
    }

    #[test]
    fn input_validation() {
        assert!(matches!(run(&argv(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&argv(&["--graphs", "a,b", "--times", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv(&["--series", "x", "--graphs", "y", "--times", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv(&["--graphs", "a,b,c", "--times", "0,1,x"])),
            Err(CliError::Usage(_))
        ));
    }
}
