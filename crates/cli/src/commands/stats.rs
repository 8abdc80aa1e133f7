//! `qrank stats` — structural summary of a web graph.

use qrank_graph::io::read_edge_list;
use qrank_graph::stats::summarize;

use crate::args::{parse, CliError};

const USAGE: &str = "\
qrank stats --graph <file>

options:
  --graph FILE       input edge list";

/// Entry point.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let p = parse(argv, &["graph"], USAGE)?;
    if p.help {
        println!("{USAGE}");
        return Ok(());
    }
    let path = p.require("graph", USAGE)?;
    let text = std::fs::read_to_string(path)?;
    let g = read_edge_list(text.as_bytes()).map_err(|e| CliError::Runtime(e.to_string()))?;

    let s = summarize(&g);
    println!("nodes:            {}", s.nodes);
    println!("edges:            {}", s.edges);
    println!("mean degree:      {:.3}", s.mean_degree);
    println!("max in-degree:    {}", s.max_in_degree);
    println!("max out-degree:   {}", s.max_out_degree);
    println!("dangling nodes:   {}", s.dangling);
    println!("reciprocity:      {:.3}", s.reciprocity);
    match s.in_degree_alpha {
        Some(a) => println!("in-degree power-law alpha (x_min=2): {a:.3}"),
        None => println!("in-degree power-law alpha: not estimable"),
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn runs_on_small_graph() {
        let dir = std::env::temp_dir().join("qrank_cli_test_stats");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        std::fs::write(&path, "0 1\n1 2\n2 0\n3 1\n").unwrap();
        run(&argv(&["--graph", path.to_str().unwrap()])).unwrap();
    }

    #[test]
    fn runs_on_empty_graph() {
        let dir = std::env::temp_dir().join("qrank_cli_test_stats");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.edges");
        std::fs::write(&path, "# nodes: 0\n").unwrap();
        run(&argv(&["--graph", path.to_str().unwrap()])).unwrap();
    }
}
