//! The `qrank` binary's dispatch: its command list, the `--help` of each
//! command, and its exit codes (0 success, 2 usage error, 1 runtime
//! failure). The unit tests call `commands::<x>::run` directly; these
//! run the built binary.

use std::process::{Command, Output};

fn qrank(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qrank"))
        .args(args)
        .output()
        .expect("run qrank")
}

/// The commands `qrank --help` lists, in order.
fn listed_commands() -> Vec<String> {
    let out = qrank(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let usage = String::from_utf8(out.stdout).unwrap();
    usage
        .lines()
        .skip_while(|l| *l != "commands:")
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect()
}

#[test]
fn help_lists_the_pipeline_and_the_server() {
    assert_eq!(
        listed_commands(),
        [
            "pagerank",
            "simulate",
            "estimate",
            "serve",
            "bench-load",
            "obs-dump",
            "trace",
            "wal"
        ]
    );
}

#[test]
fn every_listed_command_answers_help() {
    for cmd in listed_commands() {
        let out = qrank(&[&cmd, "--help"]);
        assert_eq!(out.status.code(), Some(0), "`qrank {cmd} --help`");
        assert!(
            !out.stdout.is_empty(),
            "`qrank {cmd} --help` printed nothing"
        );
    }
}

#[test]
fn deleted_commands_are_unknown() {
    for cmd in ["generate", "stats", "model", "cohort"] {
        let out = qrank(&[cmd]);
        assert_eq!(out.status.code(), Some(2), "`qrank {cmd}`");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("unknown command"),
            "`qrank {cmd}`: {stderr}"
        );
    }
}

#[test]
fn a_missing_required_option_is_a_usage_error() {
    let out = qrank(&["pagerank"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--graph"), "{stderr}");
}

#[test]
fn an_unreadable_graph_is_a_runtime_failure() {
    let missing = std::env::temp_dir().join("qrank_cli_commands_no_such.edges");
    let _ = std::fs::remove_file(&missing);
    let out = qrank(&["pagerank", "--graph", missing.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("error: "), "{stderr}");
}
