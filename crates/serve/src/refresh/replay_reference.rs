//! The per-record recovery, kept as the reference that
//! [`RefreshEngine::open_durable`]'s deferred replay is held to.
//!
//! Until replay was deferred, recovery pushed every tail record through
//! apply → snapshot → rerank, solving and publishing each generation on
//! the way to the last one. That is the obviously-right schedule — it
//! *is* the live ingest minus the journal append — so it stays here,
//! compiled for tests only, and generated delta streams check that
//! ranking once at the end reaches the same engine and the same served
//! bytes.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use qrank_wal::FsyncPolicy;

use super::*;
use crate::{handle_request, LruCache, Metrics};

/// Recover `dur.dir` the way the live path got there: restore and
/// publish the checkpoint, then one full rerank per tail record.
fn open_per_record(
    cfg: RefreshConfig,
    dur: &DurabilityConfig,
    handle: Arc<ShardedStore>,
) -> (RefreshEngine, RecoveryReport) {
    let opened = durability::open_journal(dur).unwrap();
    let mut report = opened.report;
    report.replayed_records = opened.deltas.len() as u64;
    let mut engine = RefreshEngine::new(cfg, handle).unwrap();
    if let Some(payload) = &opened.checkpoint {
        engine
            .restore(durability::decode_state(payload).unwrap())
            .unwrap();
        report.checkpoint_generation = Some(engine.generation);
        engine.republish().unwrap();
    }
    for (lsn, delta) in &opened.deltas {
        let ingested = engine
            .apply_delta(delta)
            .and_then(|()| {
                // an oracle captures from nothing, never from a base
                engine.captured_events = None;
                engine.push_snapshot(delta.time)
            })
            .and_then(|()| engine.rerank());
        if let Err(e) = ingested {
            report.replay_errors.push(format!("lsn {lsn}: {e}"));
        }
    }
    (engine, report)
}

/// Page ids a generated delta may create; removals also draw sources
/// from the `GHOSTS` ids above them, which no delta ever creates.
const PAGES: u64 = 10;
const GHOSTS: u64 = 4;

type RawDelta = (Vec<u64>, Vec<(u64, u64)>, Vec<(u64, u64)>, u8);

fn raw_deltas() -> impl Strategy<Value = Vec<RawDelta>> {
    prop::collection::vec(
        (
            prop::collection::vec(0..PAGES, 0..3),
            prop::collection::vec((0..PAGES, 0..PAGES), 0..5),
            prop::collection::vec((0..PAGES + GHOSTS, 0..PAGES), 0..2),
            0u8..12,
        ),
        0..13,
    )
}

/// Turn raw draws into a stream. The first `quiet` deltas carry nothing,
/// so the windows that still hold one of their pageless snapshots have
/// no common page; a removal whose source was never created is rejected
/// after the delta's additions went in; about one delta in twelve steps
/// back in time and is rejected for that.
fn stream(raw: Vec<RawDelta>, quiet: usize) -> Vec<EdgeDelta> {
    raw.into_iter()
        .enumerate()
        .map(|(i, (new_pages, added, removed, back))| {
            let late = back == 0 && i > 0;
            let time = i as f64 - if late { 1.5 } else { 0.0 };
            if i < quiet {
                return EdgeDelta::at(time);
            }
            EdgeDelta {
                time,
                new_pages,
                added,
                removed,
            }
        })
        .collect()
}

fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qrank_replay_reference_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every response a reader could get, as the server renders it: health,
/// the whole ranking, and a `score` for every id a delta could name.
fn served(store: &ShardedStore) -> Vec<String> {
    let _obs = crate::obs_lock();
    let metrics = Metrics::new();
    let cache = parking_lot::Mutex::new(LruCache::new(4));
    let mut lines = vec![
        handle_request("health", store, &metrics, &cache),
        handle_request("topk 64", store, &metrics, &cache),
    ];
    for page in 0..PAGES + GHOSTS {
        lines.push(handle_request(
            &format!("score {page}"),
            store,
            &metrics,
            &cache,
        ));
    }
    lines
}

fn fingerprints(series: &SnapshotSeries) -> Vec<u64> {
    series.snapshots().iter().map(|s| s.fingerprint()).collect()
}

/// Stream `deltas` through a durable engine, kill it, and recover the
/// directory both ways. Returns how many records the recovery replayed
/// and how many of them it reported as rejected.
fn recover_both_ways(
    deltas: &[EdgeDelta],
    checkpoint_every: u64,
    max_window: usize,
) -> (u64, usize) {
    let cfg = RefreshConfig {
        max_window,
        ..RefreshConfig::default()
    };
    let dur = DurabilityConfig {
        dir: scratch_dir(),
        fsync: FsyncPolicy::Never,
        checkpoint_every,
    };
    let live = Arc::new(ShardedStore::new(1));
    let (live_generation, live_window) = {
        let (mut engine, _) =
            RefreshEngine::open_durable(cfg.clone(), &dur, Arc::clone(&live), None).unwrap();
        for d in deltas {
            // rejected deltas stay in the journal, as under the worker
            let _ = engine.ingest(d);
        }
        (engine.generation(), fingerprints(engine.series()))
        // dropped without a checkpoint: the kill
    };

    let deferred_store = Arc::new(ShardedStore::new(1));
    let (mut deferred, deferred_report) =
        RefreshEngine::open_durable(cfg.clone(), &dur, Arc::clone(&deferred_store), None).unwrap();
    deferred.journal = None; // release the directory, keep the engine
    let reference_store = Arc::new(ShardedStore::new(1));
    let (mut reference, reference_report) =
        open_per_record(cfg, &dur, Arc::clone(&reference_store));

    assert_eq!(deferred.generation(), reference.generation());
    assert_eq!(
        format!("{deferred_report:?}"),
        format!("{reference_report:?}")
    );
    assert_eq!(served(&deferred_store), served(&reference_store));
    assert_eq!(
        fingerprints(deferred.series()),
        fingerprints(reference.series())
    );
    // ... and both are the process that was killed
    assert_eq!(deferred.generation(), live_generation);
    assert_eq!(served(&deferred_store), served(&live));
    assert_eq!(fingerprints(deferred.series()), live_window);

    // The state that is not served yet — graph, alive edges, page
    // numbering — shows in what the next ingest publishes.
    let next = EdgeDelta {
        time: deltas.len() as f64 + 1.0,
        new_pages: vec![PAGES - 1],
        added: vec![(0, 1), (1, 2), (2, 0)],
        removed: vec![(0, 1)],
    };
    let after_deferred = deferred.ingest(&next).map_err(|e| e.to_string());
    let after_reference = reference.ingest(&next).map_err(|e| e.to_string());
    assert_eq!(
        after_deferred.map(|s| s.map(|s| (s.generation, s.num_pages, s.window))),
        after_reference.map(|s| s.map(|s| (s.generation, s.num_pages, s.window)))
    );
    assert_eq!(served(&deferred_store), served(&reference_store));

    std::fs::remove_dir_all(&dur.dir).unwrap();
    (
        deferred_report.replayed_records,
        deferred_report.replay_errors.len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn deferred_replay_matches_per_record_replay(
        raw in raw_deltas(),
        quiet in 0usize..5,
        checkpoint_every in prop::sample::select(vec![0u64, 0, 1, 2, 3, 5]),
        max_window in 3usize..5,
    ) {
        let deltas = stream(raw, quiet);
        let (replayed, _) = recover_both_ways(&deltas, checkpoint_every, max_window);
        if checkpoint_every == 0 {
            prop_assert_eq!(replayed, deltas.len() as u64);
        }
    }
}

/// The shapes the generator is meant to reach, pinned so a change to it
/// cannot quietly stop reaching them.
#[test]
fn deferred_replay_matches_on_the_named_shapes() {
    let link = |time: f64, added: Vec<(u64, u64)>| EdgeDelta {
        time,
        added,
        ..EdgeDelta::default()
    };
    let deltas = vec![
        // two pageless snapshots: no window holding one has a common page
        EdgeDelta::at(0.0),
        EdgeDelta::at(1.0),
        link(2.0, vec![(0, 1), (1, 2), (2, 0)]),
        link(3.0, vec![(3, 0)]),
        link(4.0, vec![(4, 1)]),
        // first window past them: generation 1 over pages 0..=2
        link(5.0, vec![(0, 2)]),
        // page 5 is created, then the ghost removal rejects the delta
        EdgeDelta {
            time: 6.0,
            added: vec![(5, 0)],
            removed: vec![(PAGES + 1, 0)],
            ..EdgeDelta::default()
        },
        // each slide from here on grows the common set by a page
        link(7.0, vec![(5, 1)]),
        link(8.0, vec![(3, 1)]),
        // steps back in time: rejected
        link(7.5, vec![(1, 0)]),
        link(10.0, vec![(4, 2)]),
    ];
    // no checkpoint: the whole history is the tail
    assert_eq!(recover_both_ways(&deltas, 0, 4), (11, 5));
    assert_eq!(recover_both_ways(&deltas[..5], 0, 3), (5, 2));
    // interval 2: a checkpoint of the still-filling window after
    // record 1, then two pageless windows — the tail is as long as
    // the interval because the checkpoint due after it had no
    // published generation to follow
    assert_eq!(recover_both_ways(&deltas[..4], 2, 4), (2, 2));
    // interval 3, killed after the rejected removal, the slide that
    // grows the common set, the rejected time regression, the end
    assert_eq!(recover_both_ways(&deltas[..7], 3, 4), (1, 1));
    assert_eq!(recover_both_ways(&deltas[..8], 3, 4), (2, 1));
    assert_eq!(recover_both_ways(&deltas[..10], 3, 4), (1, 1));
    assert_eq!(recover_both_ways(&deltas, 3, 4), (2, 1));
    // a tail of nothing republishes the checkpointed generation
    assert_eq!(recover_both_ways(&deltas[..6], 3, 4), (0, 0));
}
