//! `paper <name> [small|paper] [seed]`: print one figure, table or
//! ablation of the paper, exactly the text committed as
//! `results/<name>.txt` (paper scale, seed 42). `exp_trend_census` also
//! takes a forget rate after the seed. A bad invocation prints the usage,
//! which lists the names, to stderr and exits 2.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match qrank_bench::parse_args(&args) {
        Ok((experiment, run)) => {
            print!("{}", (experiment.render)(&run));
            ExitCode::SUCCESS
        }
        Err(reason) => {
            eprint!("paper: {reason}\n{}", qrank_bench::usage());
            ExitCode::from(2)
        }
    }
}
