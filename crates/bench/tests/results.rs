//! The committed `results/small/<name>.txt` files are what the code
//! prints: each experiment's small-scale, seed-42 text must match its
//! file byte for byte. One test per experiment, so the harness runs
//! them side by side. After a change that moves a published number,
//! regenerate with
//! `for f in results/small/*.txt; do n=$(basename $f .txt); cargo run --release -p qrank-bench --bin paper -- $n small 42 > $f; done`
//! (and the same at `paper` scale into `results/`), and list the moved
//! lines in CHANGES.md.

use qrank_bench::{parse_args, EXPERIMENTS};

/// Where the small-scale, seed-42 texts are committed.
const RESULTS_SMALL: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/small");

fn check(name: &str) {
    let (experiment, run) = parse_args(&[name, "small", "42"]).expect("a known experiment");
    let printed = (experiment.render)(&run);
    let path = format!("{RESULTS_SMALL}/{name}.txt");
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    if printed == committed {
        return;
    }
    let same = committed
        .lines()
        .zip(printed.lines())
        .take_while(|(want, got)| want == got)
        .count();
    panic!(
        "{name} at small scale, seed 42, no longer prints {path}\n\
         first difference at line {}:\n  committed: {:?}\n  printed:   {:?}",
        same + 1,
        committed.lines().nth(same),
        printed.lines().nth(same)
    );
}

macro_rules! results_match {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                check(stringify!($name));
            }
        )*

        #[test]
        fn every_experiment_has_a_committed_file_and_a_test() {
            let tested = [$(stringify!($name)),*];
            let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            assert_eq!(names, tested);
            let mut files: Vec<String> = std::fs::read_dir(RESULTS_SMALL)
                .expect("results/small")
                .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                .collect();
            files.sort_unstable();
            let expected: Vec<String> = names.iter().map(|n| format!("{n}.txt")).collect();
            assert_eq!(files, expected);
        }
    };
}

results_match!(
    ablation_c_sweep,
    ablation_estimators,
    ablation_fit_budget,
    ablation_forgetting,
    ablation_intervals,
    ablation_noise,
    ablation_visit_models,
    exp_traffic_quality,
    exp_trend_census,
    fig1_popularity_evolution,
    fig2_relative_increase,
    fig3_estimator_constancy,
    fig5_error_histogram,
    table_headline_errors,
);
