//! Kill-and-recover: the engine-equivalence discipline across a process
//! boundary. A durable engine that is "killed" (dropped without a clean
//! shutdown, optionally with its final WAL record torn) and reopened
//! must publish scores **bitwise identical** — every f64 bit, every
//! trend, the generation counter — to an engine that ingested the same
//! deltas uninterrupted.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use qrank_serve::{
    DurabilityConfig, EdgeDelta, FsyncPolicy, RefreshConfig, RefreshEngine, ShardedStore,
};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qrank_serve_recovery_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dur(dir: &Path, checkpoint_every: u64) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Never, // same-process "kill"; no fsync needed
        checkpoint_every,
    }
}

/// A deterministic stream of deltas: a small web growing one or two
/// links per step, with occasional page births and link deaths.
fn delta_stream() -> Vec<EdgeDelta> {
    vec![
        EdgeDelta {
            time: 0.0,
            added: vec![(0, 1), (1, 2), (2, 0), (3, 2), (4, 2)],
            ..Default::default()
        },
        EdgeDelta {
            time: 1.0,
            added: vec![(5, 2), (3, 1)],
            ..Default::default()
        },
        EdgeDelta {
            time: 2.0,
            added: vec![(4, 1), (0, 2)],
            removed: vec![(3, 2)],
            ..Default::default()
        },
        EdgeDelta {
            time: 3.0,
            new_pages: vec![6],
            added: vec![(5, 1), (6, 1)],
            ..Default::default()
        },
        EdgeDelta {
            time: 4.0,
            added: vec![(2, 1), (0, 6)],
            removed: vec![(4, 2)],
            ..Default::default()
        },
        EdgeDelta {
            time: 5.0,
            added: vec![(1, 6), (2, 6)],
            ..Default::default()
        },
        EdgeDelta {
            time: 6.0,
            added: vec![(4, 6)],
            removed: vec![(1, 0)],
            ..Default::default()
        },
        EdgeDelta {
            time: 7.0,
            added: vec![(3, 6), (5, 6)],
            ..Default::default()
        },
    ]
}

/// Run every delta through one uninterrupted durable engine; return its
/// handle for comparison.
fn uninterrupted(dir: &Path, checkpoint_every: u64, shards: usize) -> Arc<ShardedStore> {
    let handle = Arc::new(ShardedStore::new(shards));
    let (mut engine, report) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &dur(dir, checkpoint_every),
        Arc::clone(&handle),
        None,
    )
    .unwrap();
    assert_eq!(report.replayed_records, 0);
    for d in delta_stream() {
        engine.ingest(&d).unwrap();
    }
    handle
}

/// Assert two published stores are bitwise identical: same generation,
/// same pages in the same quality order, every score bit equal. Works
/// across shard counts: the sealed view's `topk` is defined to be
/// bitwise identical to the unsharded ordering for any N.
fn assert_bitwise_identical(a: &Arc<ShardedStore>, b: &Arc<ShardedStore>) {
    let (a, b) = (a.current(), b.current());
    assert_eq!(a.generation(), b.generation(), "generation differs");
    assert_eq!(
        a.snapshot_time().to_bits(),
        b.snapshot_time().to_bits(),
        "snapshot time differs"
    );
    assert_eq!(a.len(), b.len(), "page count differs");
    let (ta, tb) = (a.topk(a.len()), b.topk(b.len()));
    for ((pa, sa), (pb, sb)) in ta.iter().zip(tb.iter()) {
        assert_eq!(pa, pb, "page order differs");
        assert_eq!(
            sa.quality.to_bits(),
            sb.quality.to_bits(),
            "quality bits differ for {pa}"
        );
        assert_eq!(
            sa.pagerank.to_bits(),
            sb.pagerank.to_bits(),
            "pagerank bits differ for {pa}"
        );
        assert_eq!(sa.trend, sb.trend, "trend differs for {pa}");
    }
}

/// Kill after `kill_after` ingests (no clean shutdown, no final
/// checkpoint), recover, finish the stream, and compare against the
/// uninterrupted run.
fn kill_recover_resume(name: &str, kill_after: usize, checkpoint_every: u64, shards: usize) {
    let dir_a = tmpdir(&format!("{name}_uninterrupted"));
    let dir_b = tmpdir(&format!("{name}_killed"));
    let reference = uninterrupted(&dir_a, checkpoint_every, shards);

    let deltas = delta_stream();
    {
        let (mut engine, _) = RefreshEngine::open_durable(
            RefreshConfig::default(),
            &dur(&dir_b, checkpoint_every),
            Arc::new(ShardedStore::new(shards)),
            None,
        )
        .unwrap();
        for d in &deltas[..kill_after] {
            engine.ingest(d).unwrap();
        }
        // Dropped here without checkpoint_now(): the "kill".
    }
    let handle = Arc::new(ShardedStore::new(shards));
    let (mut engine, report) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &dur(&dir_b, checkpoint_every),
        Arc::clone(&handle),
        None,
    )
    .unwrap();
    assert!(
        report.replay_errors.is_empty(),
        "{:?}",
        report.replay_errors
    );
    let expected_replay = if checkpoint_every == 0 {
        kill_after as u64
    } else {
        (kill_after as u64) % checkpoint_every
    };
    assert_eq!(report.replayed_records, expected_replay);
    for d in &deltas[kill_after..] {
        engine.ingest(d).unwrap();
    }
    assert_bitwise_identical(&reference, &handle);
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn kill_and_recover_without_checkpoints_is_bitwise_identical() {
    kill_recover_resume("nockpt", 5, 0, 1);
}

#[test]
fn kill_and_recover_with_checkpoints_is_bitwise_identical() {
    // checkpoint_every = 3 puts a checkpoint (and compaction) at delta 3
    // and another at delta 6; killing at 5 recovers checkpoint@3 + 2
    // replayed records.
    kill_recover_resume("ckpt", 5, 3, 1);
}

#[test]
fn kill_at_every_point_in_the_stream_is_bitwise_identical() {
    let n = delta_stream().len();
    for kill_after in 0..=n {
        kill_recover_resume(&format!("sweep{kill_after}"), kill_after, 3, 1);
    }
}

#[test]
fn sharded_kill_and_recover_is_bitwise_identical() {
    // Same sweep discipline at more than one shard: the data
    // directory's one journal, recovered into an N-shard store, must
    // reproduce the uninterrupted sharded run bit for bit.
    for shards in [2, 8] {
        for kill_after in [0, 2, 5, 8] {
            kill_recover_resume(
                &format!("shard{shards}k{kill_after}"),
                kill_after,
                3,
                shards,
            );
        }
    }
}

#[test]
fn sharded_recovery_matches_the_unsharded_store_bit_for_bit() {
    // The strongest cross-cutting claim: kill a 3-shard durable engine,
    // recover it, and its published view is bitwise identical to a
    // FLAT (1-shard) engine that never crashed. Sharding plus recovery
    // together must be invisible in the served bits.
    let dir_a = tmpdir("xshard_flat");
    let dir_b = tmpdir("xshard_sharded");
    let reference = uninterrupted(&dir_a, 0, 1);

    let deltas = delta_stream();
    {
        let (mut engine, _) = RefreshEngine::open_durable(
            RefreshConfig::default(),
            &dur(&dir_b, 3),
            Arc::new(ShardedStore::new(3)),
            None,
        )
        .unwrap();
        for d in &deltas[..6] {
            engine.ingest(d).unwrap();
        }
    }
    let handle = Arc::new(ShardedStore::new(3));
    let (mut engine, report) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &dur(&dir_b, 3),
        Arc::clone(&handle),
        None,
    )
    .unwrap();
    assert!(
        report.replay_errors.is_empty(),
        "{:?}",
        report.replay_errors
    );
    for d in &deltas[6..] {
        engine.ingest(d).unwrap();
    }
    assert_bitwise_identical(&reference, &handle);
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn torn_final_record_is_dropped_and_reingestable() {
    let dir_a = tmpdir("torn_uninterrupted");
    let dir_b = tmpdir("torn_killed");
    let reference = uninterrupted(&dir_a, 0, 1);

    let deltas = delta_stream();
    {
        let (mut engine, _) = RefreshEngine::open_durable(
            RefreshConfig::default(),
            &dur(&dir_b, 0),
            Arc::new(ShardedStore::new(1)),
            None,
        )
        .unwrap();
        for d in &deltas[..5] {
            engine.ingest(d).unwrap();
        }
    }
    // Tear the tail: chop bytes off the newest segment so the record for
    // delta 4 is incomplete, exactly as a crash mid-append would leave it.
    let seg = std::fs::read_dir(&dir_b)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .max()
        .unwrap();
    let len = std::fs::metadata(&seg).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 7)
        .unwrap();

    let handle = Arc::new(ShardedStore::new(1));
    let (mut engine, report) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &dur(&dir_b, 0),
        Arc::clone(&handle),
        None,
    )
    .unwrap();
    assert!(report.torn_tail.is_some(), "tear must be detected");
    assert_eq!(report.replayed_records, 4, "the torn record is dropped");
    // The torn delta was never acknowledged; the client re-sends it and
    // the stream continues.
    for d in &deltas[4..] {
        engine.ingest(d).unwrap();
    }
    assert_bitwise_identical(&reference, &handle);
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn clean_shutdown_checkpoint_recovers_with_zero_replay() {
    let dir = tmpdir("clean");
    let deltas = delta_stream();
    let (final_gen, final_time) = {
        let handle = Arc::new(ShardedStore::new(1));
        let (mut engine, _) = RefreshEngine::open_durable(
            RefreshConfig::default(),
            &dur(&dir, 0),
            Arc::clone(&handle),
            None,
        )
        .unwrap();
        for d in &deltas {
            engine.ingest(d).unwrap();
        }
        let lsn = engine.checkpoint_now().unwrap().expect("durable engine");
        assert_eq!(lsn, deltas.len() as u64);
        let store = handle.current();
        (store.generation(), store.snapshot_time())
    };
    let handle = Arc::new(ShardedStore::new(1));
    let (engine, report) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &dur(&dir, 0),
        Arc::clone(&handle),
        None,
    )
    .unwrap();
    assert_eq!(report.replayed_records, 0, "checkpoint covers everything");
    assert_eq!(report.checkpoint_generation, Some(final_gen));
    let store = handle.current();
    assert_eq!(store.generation(), final_gen, "no phantom generation bump");
    assert_eq!(store.snapshot_time().to_bits(), final_time.to_bits());
    assert!(engine.wal_stats().is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seed_series_is_journaled_on_first_boot_only() {
    let dir = tmpdir("seed");
    // Build a seed series by running deltas through a scratch engine.
    let scratch = Arc::new(ShardedStore::new(1));
    let mut seed_engine =
        RefreshEngine::new(RefreshConfig::default(), Arc::clone(&scratch)).unwrap();
    for d in &delta_stream()[..4] {
        seed_engine.ingest(d).unwrap();
    }
    let n_seed = seed_engine.series().len() as u64;

    let first = Arc::new(ShardedStore::new(1));
    let (engine, report) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &dur(&dir, 0),
        Arc::clone(&first),
        Some(seed_engine.series()),
    )
    .unwrap();
    assert_eq!(report.replayed_records, 0);
    let first_gen = first.current().generation();
    assert!(first_gen > 0, "seeding must publish");
    drop(engine);

    // Second boot: the seed must come back from the journal, and the
    // seed argument must be ignored.
    let second = Arc::new(ShardedStore::new(1));
    let (_engine, report) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &dur(&dir, 0),
        Arc::clone(&second),
        Some(seed_engine.series()),
    )
    .unwrap();
    assert_eq!(report.replayed_records, n_seed, "seed replays from the log");
    assert_bitwise_identical(&first, &second);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `n` deltas over eight pages, all created by the first one, so every
/// snapshot holds the same pages and every window from the third delta
/// on publishes.
fn long_stream(n: u64) -> Vec<EdgeDelta> {
    (0..n)
        .map(|i| EdgeDelta {
            time: i as f64,
            added: if i == 0 {
                (0..8).map(|p| (p, (p + 1) % 8)).collect()
            } else {
                vec![(i % 8, (i * 3 + 2) % 8), ((i + 5) % 8, i % 7)]
            },
            removed: if i % 5 == 4 {
                vec![((i - 1) % 8, ((i - 1) * 3 + 2) % 8)]
            } else {
                vec![]
            },
            ..Default::default()
        })
        .collect()
}

/// [`uninterrupted`] over a given stream: ingest it all, then drop the
/// engine without a checkpoint.
fn uninterrupted_stream(
    dir: &Path,
    checkpoint_every: u64,
    deltas: &[EdgeDelta],
) -> Arc<ShardedStore> {
    let handle = Arc::new(ShardedStore::new(1));
    let (mut engine, _) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &dur(dir, checkpoint_every),
        Arc::clone(&handle),
        None,
    )
    .unwrap();
    for d in deltas {
        engine.ingest(d).unwrap();
    }
    handle
}

/// Spans closed under `root` so far: `(solver kernels, store publishes)`.
/// Span paths start at the thread that opened them (fan-out workers
/// adopt their spawner's), so a root only this test opens counts this
/// test's work however many other tests the process is running.
fn spans_under(root: &str) -> (u64, u64) {
    let prefix = format!("span.{root}/");
    let (mut solves, mut publishes) = (0, 0);
    for (name, h) in &qrank_obs::global().snapshot().histograms {
        if !name.starts_with(&prefix) {
            continue;
        }
        match name.rsplit('/').next() {
            Some("rank.gauss_seidel" | "rank.colored" | "rank.power") => solves += h.count,
            Some("shard.publish_report") => publishes += h.count,
            _ => {}
        }
    }
    (solves, publishes)
}

#[test]
fn recovery_ranks_once_however_long_the_tail() {
    const ROOT: &str = "test.recovery_ranks_once";
    let max_window = RefreshConfig::default().max_window as u64;
    let every = 16;
    qrank_obs::set_enabled(true);
    // tail 0 is a kill right after the automatic checkpoint
    for tail in [0u64, 1, 4, 11, 15] {
        let dir = tmpdir(&format!("counts{tail}"));
        let reference = uninterrupted_stream(&dir, every, &long_stream(every + tail));
        let handle = Arc::new(ShardedStore::new(1));
        let before = spans_under(ROOT);
        let report = {
            let _root = qrank_obs::span!(ROOT);
            let (_engine, report) = RefreshEngine::open_durable(
                RefreshConfig::default(),
                &dur(&dir, every),
                Arc::clone(&handle),
                None,
            )
            .unwrap();
            report
        };
        let after = spans_under(ROOT);
        assert_eq!(report.replayed_records, tail);
        assert!(report.checkpoint_generation.is_some());
        let (solves, publishes) = (after.0 - before.0, after.1 - before.1);
        assert!(
            (1..=max_window).contains(&solves),
            "tail {tail}: {solves} solves for a window of {max_window}"
        );
        assert_eq!(publishes, 1, "tail {tail}: one publish per recovery");
        // the one publish is the generation the killed process served
        assert_bitwise_identical(&reference, &handle);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    qrank_obs::set_enabled(false);
}
