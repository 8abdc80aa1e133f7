//! `qrank wal` — offline inspection of a durability directory.
//!
//! Operates on the directory given to `qrank serve --data-dir` without
//! the server running: list its segments and checkpoints, validate every
//! checksum and the LSN chain end to end, or compact away files neither
//! retained checkpoint needs.

use std::path::Path;

use qrank_serve::refuse_per_shard_journal;
use qrank_wal::{decode_delta, inspect, scan, Wal, WalOptions};

use crate::args::{parse, CliError};

const USAGE: &str = "\
qrank wal --dir <dir> [options]

options:
  --dir DIR   WAL directory (as given to `qrank serve --data-dir`) (required)
  --op OP     inspect | verify | compact (default inspect)

a data directory holds one log whatever `qrank serve --shards` it was
served with. A directory holding `shard-NNN/` subdirectories is a
per-shard journal an earlier build wrote; it is refused, never read.

ops:
  inspect  list segments and checkpoints with record counts (read-only)
  verify   full read-only validation: segment chain, every CRC, every
           record payload decoded, checkpoint coverage
  compact  write-side maintenance: keep the two newest checkpoints and
           drop older ones and every segment wholly covered by the older
           of the two (recovery's fallback if the newest is damaged)";

/// Entry point.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let p = parse(argv, &["dir", "op"], USAGE)?;
    if p.help {
        println!("{USAGE}");
        return Ok(());
    }
    let dir = Path::new(p.require("dir", USAGE)?);
    let op = p.get("op").unwrap_or("inspect");
    if !matches!(op, "inspect" | "verify" | "compact") {
        return Err(CliError::Usage(format!(
            "unknown op `{op}` (expected inspect, verify, or compact)\n\n{USAGE}"
        )));
    }
    refuse_per_shard_journal(dir).map_err(|e| CliError::Runtime(e.to_string()))?;
    match op {
        "inspect" => run_inspect(dir),
        "verify" => run_verify(dir),
        _ => run_compact(dir),
    }
}

fn run_inspect(dir: &Path) -> Result<(), CliError> {
    let insp = inspect(dir).map_err(|e| CliError::Runtime(e.to_string()))?;
    for seg in &insp.segments {
        let torn = seg
            .torn
            .as_deref()
            .map(|r| format!("  [torn tail: {r}]"))
            .unwrap_or_default();
        println!(
            "segment {:>6}  lsn {:>8}..{:<8}  {:>6} records  {:>10} bytes{torn}",
            seg.seq,
            seg.first_lsn,
            seg.first_lsn + seg.records,
            seg.records,
            seg.bytes,
        );
    }
    for ck in &insp.checkpoints {
        let status = if ck.valid { "" } else { "  [INVALID]" };
        println!(
            "checkpoint {:>3}  covers lsn {:>8}  {:>10} payload bytes{status}",
            ck.seq, ck.lsn, ck.payload_bytes,
        );
    }
    println!(
        "total: {} records in {} segment(s), {} checkpoint(s)",
        insp.total_records,
        insp.segments.len(),
        insp.checkpoints.len()
    );
    Ok(())
}

fn run_verify(dir: &Path) -> Result<(), CliError> {
    let (insp, records) = scan(dir).map_err(|e| CliError::Runtime(e.to_string()))?;
    let mut problems = Vec::new();
    for (lsn, payload) in &records {
        if let Err(e) = decode_delta(payload) {
            problems.push(format!("record at LSN {lsn} does not decode: {e}"));
        }
    }
    for ck in &insp.checkpoints {
        if !ck.valid {
            problems.push(format!("checkpoint {} failed validation", ck.seq));
        }
    }
    // The invariants recovery relies on: the newest valid checkpoint must
    // sit inside the surviving log, and with no checkpoint at all the log
    // must reach back to LSN 0.
    let next_lsn = insp.segments.last().map_or(0, |s| s.first_lsn + s.records);
    let oldest_lsn = insp.segments.first().map_or(0, |s| s.first_lsn);
    match insp.checkpoints.iter().rev().find(|c| c.valid) {
        Some(ck) => {
            if ck.lsn > next_lsn {
                problems.push(format!(
                    "checkpoint {} covers LSN {} but the log ends at {next_lsn}",
                    ck.seq, ck.lsn
                ));
            }
            if ck.lsn < oldest_lsn {
                problems.push(format!(
                    "checkpoint {} covers LSN {} but the oldest segment starts at {oldest_lsn}",
                    ck.seq, ck.lsn
                ));
            }
        }
        None => {
            if oldest_lsn > 0 {
                problems.push(format!(
                    "no valid checkpoint, yet the oldest segment starts at LSN {oldest_lsn}"
                ));
            }
        }
    }
    if let Some(seg) = insp.segments.iter().find(|s| s.torn.is_some()) {
        // Expected crash damage, repaired on the next open — worth an
        // operator's eyes but not a verification failure.
        println!(
            "note: segment {} has a torn tail (recovery will truncate it): {}",
            seg.seq,
            seg.torn.as_deref().unwrap_or_default()
        );
    }
    if problems.is_empty() {
        println!(
            "ok: {} record(s) in {} segment(s) verified, {} checkpoint(s) valid",
            records.len(),
            insp.segments.len(),
            insp.checkpoints.len()
        );
        Ok(())
    } else {
        Err(CliError::Runtime(problems.join("; ")))
    }
}

fn run_compact(dir: &Path) -> Result<(), CliError> {
    if !dir.is_dir() {
        return Err(CliError::Runtime(format!(
            "{} is not a directory",
            dir.display()
        )));
    }
    let (mut wal, recovery) =
        Wal::open(dir, WalOptions::default()).map_err(|e| CliError::Runtime(e.to_string()))?;
    if let Some(reason) = &recovery.torn_tail {
        println!("repaired torn tail: {reason}");
    }
    let removed = wal
        .compact()
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let stats = wal.stats();
    println!(
        "removed {removed} segment(s); {} segment(s) remain, next LSN {}",
        stats.segments, stats.next_lsn
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_wal::{encode_delta, DeltaRecord};

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("qrank_cli_wal_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn build_log(dir: &std::path::Path, n: u64, checkpoint_at: Option<u64>) {
        let (mut wal, _) = Wal::open(dir, WalOptions::default()).unwrap();
        for i in 0..n {
            let rec = DeltaRecord {
                time: i as f64,
                new_pages: vec![i],
                added: vec![(i, i + 1)],
                ..Default::default()
            };
            wal.append(&encode_delta(&rec)).unwrap();
            if checkpoint_at == Some(i + 1) {
                wal.checkpoint(b"state").unwrap();
            }
        }
        wal.sync().unwrap();
    }

    #[test]
    fn inspect_verify_and_compact_round_trip() {
        let dir = tmpdir("roundtrip");
        build_log(&dir, 6, Some(4));
        let d = dir.to_str().unwrap();
        run(&argv(&["--dir", d])).unwrap();
        run(&argv(&["--dir", d, "--op", "verify"])).unwrap();
        run(&argv(&["--dir", d, "--op", "compact"])).unwrap();
        run(&argv(&["--dir", d, "--op", "verify"])).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_rejects_undecodable_records() {
        let dir = tmpdir("badpayload");
        {
            let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            wal.append(b"not a delta record").unwrap();
            wal.sync().unwrap();
        }
        let d = dir.to_str().unwrap();
        // inspect only checks framing, so it passes; verify decodes.
        run(&argv(&["--dir", d])).unwrap();
        assert!(matches!(
            run(&argv(&["--dir", d, "--op", "verify"])),
            Err(CliError::Runtime(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_stray_shard_file_leaves_a_flat_journal_flat() {
        use qrank_serve::{
            DurabilityConfig, EdgeDelta, RefreshConfig, RefreshEngine, ShardedStore,
        };
        use std::sync::Arc;

        let dir = tmpdir("stray_shard_file");
        let open = || {
            RefreshEngine::open_durable(
                RefreshConfig::default(),
                &DurabilityConfig::at(&dir),
                Arc::new(ShardedStore::new(1)),
                None,
            )
        };
        let (mut engine, _) = open().unwrap();
        engine
            .ingest(&EdgeDelta {
                time: 1.0,
                added: vec![(0, 1)],
                ..Default::default()
            })
            .unwrap();
        drop(engine);
        std::fs::write(dir.join("shard-000"), b"not a shard subtree").unwrap();
        let (_, report) = open().expect("a file named shard-000 is not a shard subtree");
        assert_eq!((report.shards, report.replayed_records), (1, 1));
        run(&argv(&["--dir", dir.to_str().unwrap(), "--op", "verify"])).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_per_shard_journal_directory_is_refused() {
        use qrank_serve::{
            DurabilityConfig, RefreshConfig, RefreshEngine, ServeError, ShardedStore,
        };
        use std::sync::Arc;

        let dir = tmpdir("per_shard_journal");
        build_log(&dir.join("shard-000"), 2, None);
        for shards in [1, 3] {
            let opened = RefreshEngine::open_durable(
                RefreshConfig::default(),
                &DurabilityConfig::at(&dir),
                Arc::new(ShardedStore::new(shards)),
                None,
            );
            assert!(
                matches!(opened, Err(ServeError::Config(_))),
                "{shards} shard(s): {:?}",
                opened.err()
            );
        }
        for op in ["inspect", "verify", "compact"] {
            let out = run(&argv(&["--dir", dir.to_str().unwrap(), "--op", op]));
            assert!(
                matches!(&out, Err(CliError::Runtime(msg)) if msg.contains("per-shard journal")),
                "{op}: {out:?}"
            );
        }
        // refused, not re-seeded: nothing was written beside the subtree
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["shard-000"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn input_validation() {
        assert!(matches!(run(&argv(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&argv(&["--dir", "/tmp", "--op", "defrag"])),
            Err(CliError::Usage(_))
        ));
        assert!(run(&argv(&["--dir", "/nonexistent/wal", "--op", "verify"])).is_err());
    }
}
