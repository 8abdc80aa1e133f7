//! `qrank simulate` — run the agent-based web simulator and crawl a
//! snapshot series, writing the series (binary) and optionally the
//! ground-truth page qualities (TSV).

use qrank_graph::io::encode_series;
use qrank_sim::{Crawler, QualityDist, SimConfig, SnapshotSchedule, World};

use crate::args::{parse, write_output, CliError};

const USAGE: &str = "\
qrank simulate --out <file> [options]

options:
  --out FILE         output path for the binary snapshot series
  --truth FILE       also write `page<TAB>quality<TAB>created_at` TSV
  --users N          user population (default 1000)
  --sites S          number of sites (default 25)
  --visit-ratio R    visits per unit popularity per month (default 0.8)
  --birth-rate B     new pages per month (default 50)
  --forget-rate F    forgetting rate (default 0)
  --burn-in M        months before the first snapshot (default 10)
  --snapshots K      number of snapshots (default 4)
  --interval M       months between estimation snapshots (default 1)
  --future M         months from first snapshot to the held-out one (default 6)
  --seed S           RNG seed (default 42)
  --threads T        visit-phase worker threads (default: the thread
                     budget, QRANK_THREADS or the available cores; the
                     simulated history is bit-identical for every value)

the snapshot times are: burn-in + 0, interval, 2*interval, ...,
(K-2)*interval, and burn-in + future for the last snapshot.";

/// Entry point.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let allowed = [
        "out",
        "truth",
        "users",
        "sites",
        "visit-ratio",
        "birth-rate",
        "forget-rate",
        "burn-in",
        "snapshots",
        "interval",
        "future",
        "seed",
        "threads",
    ];
    let p = parse(argv, &allowed, USAGE)?;
    if p.help {
        println!("{USAGE}");
        return Ok(());
    }
    let out = p.require("out", USAGE)?.to_string();

    let cfg = SimConfig {
        num_users: p.get_or("users", 1000, USAGE)?,
        num_sites: p.get_or("sites", 25, USAGE)?,
        visit_ratio: p.get_or("visit-ratio", 0.8, USAGE)?,
        page_birth_rate: p.get_or("birth-rate", 50.0, USAGE)?,
        forget_rate: p.get_or("forget-rate", 0.0, USAGE)?,
        quality_dist: QualityDist::Uniform { lo: 0.05, hi: 0.95 },
        dt: 0.05,
        seed: p.get_or("seed", 42, USAGE)?,
        ..Default::default()
    };
    let burn_in: f64 = p.get_or("burn-in", 10.0, USAGE)?;
    let count: usize = p.get_or("snapshots", 4, USAGE)?;
    let interval: f64 = p.get_or("interval", 1.0, USAGE)?;
    let future: f64 = p.get_or("future", 6.0, USAGE)?;
    if count < 2 {
        return Err(CliError::usage("need at least 2 snapshots", USAGE));
    }
    let mut times: Vec<f64> = (0..count - 1)
        .map(|i| burn_in + interval * i as f64)
        .collect();
    times.push(burn_in + future);
    if times.windows(2).any(|w| w[1] <= w[0]) {
        return Err(CliError::usage(
            "snapshot times must be strictly increasing",
            USAGE,
        ));
    }

    let mut world = World::bootstrap(cfg).map_err(|e| CliError::Runtime(e.to_string()))?;
    world.set_thread_budget(p.get_or("threads", qrank_rank::thread_budget(), USAGE)?);
    let schedule = SnapshotSchedule { times };
    let series = Crawler::default()
        .crawl_schedule(&mut world, &schedule)
        .map_err(|e| CliError::Runtime(e.to_string()))?;

    std::fs::write(&out, encode_series(&series))?;
    eprintln!(
        "simulated {} pages; wrote {} snapshots at t = {:?} to {out}",
        world.num_pages(),
        series.len(),
        series.times()
    );

    if let Some(truth_path) = p.get("truth") {
        let mut tsv = String::from("page\tquality\tcreated_at\n");
        for pg in 0..world.num_pages() as u32 {
            let info = world.page(pg);
            tsv.push_str(&format!(
                "{pg}\t{:.6}\t{:.3}\n",
                info.quality, info.created_at
            ));
        }
        write_output(Some(truth_path), &tsv)?;
        eprintln!(
            "wrote ground truth for {} pages to {truth_path}",
            world.num_pages()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_graph::io::decode_series;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn simulates_and_writes_series_and_truth() {
        let dir = std::env::temp_dir().join("qrank_cli_test_sim");
        std::fs::create_dir_all(&dir).unwrap();
        let series_path = dir.join("s.bin");
        let truth_path = dir.join("t.tsv");
        run(&argv(&[
            "--out",
            series_path.to_str().unwrap(),
            "--truth",
            truth_path.to_str().unwrap(),
            "--users",
            "150",
            "--sites",
            "4",
            "--birth-rate",
            "8",
            "--burn-in",
            "2",
            "--future",
            "4",
        ]))
        .unwrap();
        let bytes = std::fs::read(&series_path).unwrap();
        let series = decode_series(&bytes).unwrap();
        assert_eq!(series.len(), 4);
        assert_eq!(series.times(), vec![2.0, 3.0, 4.0, 6.0]);
        let truth = std::fs::read_to_string(&truth_path).unwrap();
        assert!(truth.lines().count() > 150);
        assert!(truth.starts_with("page\tquality"));
    }

    #[test]
    fn rejects_single_snapshot() {
        assert!(matches!(
            run(&argv(&["--out", "/tmp/x.bin", "--snapshots", "1"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn rejects_nonincreasing_times() {
        assert!(matches!(
            run(&argv(&["--out", "/tmp/x.bin", "--future", "0"])),
            Err(CliError::Usage(_))
        ));
    }
}
