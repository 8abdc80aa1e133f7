//! `qrank pagerank` — score a graph.

use qrank_graph::io::read_edge_list;
use qrank_rank::{
    colored_gauss_seidel, gauss_seidel, indegree_scores, pagerank, solve_auto, PageRankConfig,
    ScoreScale,
};

use crate::args::{parse, write_output, CliError};

const USAGE: &str = "\
qrank pagerank --graph <file> [options]

options:
  --graph FILE     input edge list
  --solver NAME    auto | power | gauss-seidel | colored | indegree
                   (default power; `auto` is the solver `estimate` and
                   `serve` publish with: Gauss-Seidel, or its colored
                   schedule on a graph of 100 000 pages or more; every
                   solver runs on one thread)
  --damping D      paper-style damping d = teleport probability, in (0, 1]
                   (default 0.15)
  --scale S        probability | per-page (default per-page, as in the paper)
  --top K          print only the top K pages (default: all)
  --out FILE       write `node<TAB>score` TSV (default stdout)
  --trace FILE     write the solver's per-iteration convergence trace as
                   `iter<TAB>residual` TSV (PageRank solvers only —
                   power, gauss-seidel, colored, auto)";

/// Entry point.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let allowed = ["graph", "solver", "damping", "scale", "top", "out", "trace"];
    let p = parse(argv, &allowed, USAGE)?;
    if p.help {
        println!("{USAGE}");
        return Ok(());
    }
    let path = p.require("graph", USAGE)?;
    let text = std::fs::read_to_string(path)?;
    let g = read_edge_list(text.as_bytes()).map_err(|e| CliError::Runtime(e.to_string()))?;

    let damping: f64 = p.get_or("damping", 0.15, USAGE)?;
    let scale = match p.get("scale").unwrap_or("per-page") {
        "probability" => ScoreScale::Probability,
        "per-page" => ScoreScale::PerPage,
        other => return Err(CliError::usage(format!("unknown scale `{other}`"), USAGE)),
    };
    let cfg = PageRankConfig {
        scale,
        ..PageRankConfig::paper_style(damping)
    };
    // The range `PageRankConfig::validate` asserts for `follow_prob`:
    // NaN fails it too, and so does a d so small that 1 − d rounds to 1.
    if !(0.0..1.0).contains(&cfg.follow_prob) {
        return Err(CliError::usage(
            format!("--damping must lie in (0, 1], got {damping}"),
            USAGE,
        ));
    }

    let solver = p.get("solver").unwrap_or("power");
    // PageRank solvers report per-iteration residuals; in-degree has
    // no convergence trace to write.
    let (scores, residuals) = match solver {
        "power" => {
            let r = pagerank(&g, &cfg);
            (r.scores, Some(r.residuals))
        }
        "gauss-seidel" => {
            let r = gauss_seidel(&g, &cfg);
            (r.scores, Some(r.residuals))
        }
        "auto" => {
            let r = solve_auto(&g, &cfg, None);
            (r.scores, Some(r.residuals))
        }
        "colored" => {
            let r = colored_gauss_seidel(&g, &cfg);
            (r.scores, Some(r.residuals))
        }
        "indegree" => (indegree_scores(&g), None),
        other => return Err(CliError::usage(format!("unknown solver `{other}`"), USAGE)),
    };

    if let Some(trace_path) = p.get("trace") {
        let Some(residuals) = &residuals else {
            return Err(CliError::usage(
                format!("solver `{solver}` has no per-iteration residual trace"),
                USAGE,
            ));
        };
        let mut trace = String::new();
        for (i, r) in residuals.iter().enumerate() {
            trace.push_str(&format!("{}\t{r:.6e}\n", i + 1));
        }
        write_output(Some(trace_path), &trace)?;
        eprintln!("{} iterations traced to {trace_path}", residuals.len());
    }

    let top: usize = p.get_or("top", scores.len(), USAGE)?;
    write_output(p.get("out"), &render_scores(&scores, top))?;
    eprintln!("{} nodes scored with `{solver}`", scores.len());
    Ok(())
}

/// The `top` best pages as `node<TAB>score` lines, best first (ties by
/// ascending node id).
fn render_scores(scores: &[f64], top: usize) -> String {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .expect("no NaN")
            .then(a.cmp(&b))
    });
    let mut out = String::new();
    for &node in order.iter().take(top) {
        out.push_str(&format!("{node}\t{:.10}\n", scores[node]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn write_sample_graph() -> std::path::PathBuf {
        // one directory per test thread: tests run concurrently, and a
        // rewrite of `g.edges` must not be seen half-done by another
        let dir = std::env::temp_dir().join(format!(
            "qrank_cli_test_pr_{:?}",
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        std::fs::write(&path, "# nodes: 4\n0 1\n1 2\n2 0\n3 0\n").unwrap();
        path
    }

    #[test]
    fn scores_all_solvers() {
        let path = write_sample_graph();
        let dir = path.parent().unwrap();
        for solver in ["power", "gauss-seidel", "auto", "colored", "indegree"] {
            let out = dir.join(format!("{solver}.tsv"));
            run(&argv(&[
                "--graph",
                path.to_str().unwrap(),
                "--solver",
                solver,
                "--out",
                out.to_str().unwrap(),
            ]))
            .unwrap_or_else(|e| panic!("{solver}: {e}"));
            let text = std::fs::read_to_string(&out).unwrap();
            assert_eq!(text.lines().count(), 4, "{solver}");
        }
    }

    #[test]
    fn auto_prints_the_same_bytes_at_every_budget() {
        // From PARALLEL_MIN_NODES on `auto` runs the colored schedule; the
        // bits it prints must not depend on the thread budget the
        // process runs under.
        let n = qrank_rank::PARALLEL_MIN_NODES;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let g = qrank_graph::generators::barabasi_albert(n, 3, &mut rng);
        let dir = write_sample_graph();
        let dir = dir.parent().unwrap();
        let path = dir.join("large.edges");
        let mut text = Vec::new();
        qrank_graph::io::write_edge_list(&g, &mut text).unwrap();
        std::fs::write(&path, text).unwrap();

        let printed: Vec<String> = [1, 2]
            .into_iter()
            .map(|budget| {
                let out = dir.join(format!("large.{budget}.tsv"));
                qrank_rank::set_thread_budget(budget);
                let ran = run(&argv(&[
                    "--graph",
                    path.to_str().unwrap(),
                    "--solver",
                    "auto",
                    "--out",
                    out.to_str().unwrap(),
                ]));
                qrank_rank::set_thread_budget(0);
                ran.unwrap();
                std::fs::read_to_string(&out).unwrap()
            })
            .collect();
        assert_eq!(printed[0].lines().count(), n);
        assert!(
            printed[0] == printed[1],
            "auto printed other bits at budget 2 than at budget 1"
        );
    }

    #[test]
    fn top_k_limits_output() {
        let path = write_sample_graph();
        let out = path.parent().unwrap().join("top.tsv");
        run(&argv(&[
            "--graph",
            path.to_str().unwrap(),
            "--top",
            "2",
            "--out",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap().lines().count(), 2);
    }

    #[test]
    fn trace_writes_one_residual_per_iteration() {
        let path = write_sample_graph();
        let dir = path.parent().unwrap();
        for solver in ["power", "auto"] {
            let trace = dir.join(format!("{solver}.trace.tsv"));
            run(&argv(&[
                "--graph",
                path.to_str().unwrap(),
                "--solver",
                solver,
                "--trace",
                trace.to_str().unwrap(),
                "--out",
                dir.join("scores.tsv").to_str().unwrap(),
            ]))
            .unwrap();
            let text = std::fs::read_to_string(&trace).unwrap();
            assert!(text.lines().count() > 1, "{solver}: {text}");
            let first = text.lines().next().unwrap();
            assert!(first.starts_with("1\t"), "{solver}: {first}");
        }
    }

    #[test]
    fn trace_rejects_solvers_without_residuals() {
        let path = write_sample_graph();
        assert!(matches!(
            run(&argv(&[
                "--graph",
                path.to_str().unwrap(),
                "--solver",
                "indegree",
                "--trace",
                "/tmp/never-written.tsv",
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn damping_outside_zero_one_is_usage_error() {
        let path = write_sample_graph();
        for damping in ["0", "1.5", "nan", "-0.2", "1e-300"] {
            assert!(
                matches!(
                    run(&argv(&[
                        "--graph",
                        path.to_str().unwrap(),
                        "--damping",
                        damping,
                    ])),
                    Err(CliError::Usage(_))
                ),
                "--damping {damping}"
            );
        }
        let out = path.parent().unwrap().join("teleport_only.tsv");
        run(&argv(&[
            "--graph",
            path.to_str().unwrap(),
            "--damping",
            "1",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("d = 1 is pure teleport");
    }

    #[test]
    fn missing_file_is_runtime_error() {
        assert!(matches!(
            run(&argv(&["--graph", "/nonexistent/file.edges"])),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn bad_solver_is_usage_error() {
        let path = write_sample_graph();
        assert!(matches!(
            run(&argv(&[
                "--graph",
                path.to_str().unwrap(),
                "--solver",
                "magic"
            ])),
            Err(CliError::Usage(_))
        ));
    }
}
