//! Poisoned-delta quarantine: rejected deltas are preserved verbatim,
//! inspectable, and re-ingestable.
//!
//! The refresh worker writes every rejected delta to the quarantine
//! file as a `# quarantined: <reason>` comment followed by the delta in
//! the standard text format — the same format `parse_deltas` reads, so
//! an operator can fix the cause and replay the file as-is.

use std::sync::Arc;

use qrank_serve::{
    format_deltas, parse_deltas, spawn_refresh_worker_with, EdgeDelta, RefreshConfig,
    RefreshEngine, RefreshMsg, RefreshWorkerOptions, ShardedStore,
};

mod common;
use common::seed_series;

fn engine(handle: &Arc<ShardedStore>) -> RefreshEngine {
    RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(handle),
    )
    .unwrap()
}

#[test]
fn quarantined_deltas_round_trip_and_reingest() {
    let dir = std::env::temp_dir().join("qrank_quarantine_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let quarantine = dir.join("q.deltas");
    let _ = std::fs::remove_file(&quarantine);

    // a delta that touches a page the engine has never seen is a typed
    // reject
    let poisoned = EdgeDelta {
        time: 3.0,
        removed: vec![(99, 0)],
        ..Default::default()
    };
    let good = EdgeDelta {
        time: 4.0,
        added: vec![(0, 1)],
        ..Default::default()
    };

    let handle = Arc::new(ShardedStore::new(1));
    let (tx, join) = spawn_refresh_worker_with(
        engine(&handle),
        RefreshWorkerOptions {
            quarantine: Some(quarantine.clone()),
        },
    );
    tx.send(RefreshMsg::Delta(poisoned.clone())).unwrap();
    tx.send(RefreshMsg::Delta(good.clone())).unwrap();
    tx.send(RefreshMsg::Shutdown).unwrap();
    let (engine_after, errors) = join.join().unwrap();

    // ingestion continued past the poisoned delta
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert_eq!(engine_after.generation(), 2, "good delta still landed");
    assert_eq!(handle.current().generation(), 2);

    // the quarantine file carries the reason and the delta, verbatim
    let text = std::fs::read_to_string(&quarantine).unwrap();
    assert!(text.contains("# quarantined:"), "{text}");
    let recovered = parse_deltas(&text).unwrap();
    assert_eq!(recovered, vec![poisoned.clone()], "round-trip fidelity");

    // an operator can replay the file once the cause is fixed: here the
    // missing page is created first, then the quarantined delta
    // re-ingested
    let fixed_handle = Arc::new(ShardedStore::new(1));
    let mut fixed = engine(&fixed_handle);
    fixed
        .ingest(&EdgeDelta {
            time: 2.5,
            added: vec![(99, 0)],
            ..Default::default()
        })
        .unwrap();
    for delta in &recovered {
        fixed.ingest(delta).unwrap();
    }
    assert_eq!(fixed.generation(), 3, "quarantined delta re-ingested");
    let _ = std::fs::remove_file(&quarantine);
}

#[test]
fn quarantine_entries_append_and_interleave_with_format_deltas() {
    let dir = std::env::temp_dir().join("qrank_quarantine_append");
    std::fs::create_dir_all(&dir).unwrap();
    let quarantine = dir.join("q.deltas");
    let _ = std::fs::remove_file(&quarantine);

    let bad = [
        EdgeDelta {
            time: 3.0,
            removed: vec![(99, 0)], // unknown page: typed reject
            ..Default::default()
        },
        EdgeDelta {
            time: 2.0, // time goes backwards: also a typed reject
            added: vec![(0, 1)],
            ..Default::default()
        },
    ];
    let handle = Arc::new(ShardedStore::new(1));
    let (tx, join) = spawn_refresh_worker_with(
        engine(&handle),
        RefreshWorkerOptions {
            quarantine: Some(quarantine.clone()),
        },
    );
    // two batches with a successful delta between them: the quarantine
    // file must accumulate across batches without clobbering itself
    tx.send(RefreshMsg::Delta(bad[0].clone())).unwrap();
    tx.send(RefreshMsg::Delta(EdgeDelta {
        time: 3.5,
        added: vec![(0, 1)],
        ..Default::default()
    }))
    .unwrap();
    tx.send(RefreshMsg::Delta(bad[1].clone())).unwrap();
    tx.send(RefreshMsg::Shutdown).unwrap();
    let (_engine, errors) = join.join().unwrap();
    assert_eq!(errors.len(), 2, "{errors:?}");

    let text = std::fs::read_to_string(&quarantine).unwrap();
    let recovered = parse_deltas(&text).unwrap();
    assert_eq!(recovered, bad.to_vec(), "both rejects kept, in order");
    // and the recovered set reserializes cleanly through format_deltas
    let reserialized = format_deltas(&recovered).unwrap();
    assert_eq!(parse_deltas(&reserialized).unwrap(), bad.to_vec());
    let _ = std::fs::remove_file(&quarantine);
}
