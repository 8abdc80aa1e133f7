//! Fault-injection integration tests (only built with `--features
//! chaos`; the hooks do not exist in default builds).
//!
//! Each test arms a seeded [`qrank_chaos::FaultPlan`] and checks the
//! containment story end to end: injected WAL errors surface as typed
//! failures (and are absorbed by the retry policy when one is set),
//! injected refresh panics poison the worker without unseating the
//! published generation, and injected score-path faults turn into
//! protocol errors rather than closed connections.

#![cfg(feature = "chaos")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use qrank_chaos::{FaultKind, FaultPlan, FaultRule};
use qrank_graph::PageId;
use qrank_serve::{
    serve, spawn_refresh_worker_with, DurabilityConfig, EdgeDelta, FsyncPolicy, RefreshConfig,
    RefreshEngine, RefreshMsg, RefreshWorkerOptions, RetryPolicy, ServerConfig, ShardedStore,
};

mod common;
use common::seed_series;

/// The installed plan is process-global; serialize the tests that arm
/// one so they do not observe each other's hit counters.
fn armed() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn delta(time: f64) -> EdgeDelta {
    EdgeDelta {
        time,
        added: vec![(0, 1)],
        ..Default::default()
    }
}

#[test]
fn injected_wal_errors_fail_typed_without_retry_and_heal_with_it() {
    let _g = armed();
    let dir = std::env::temp_dir().join("qrank_chaos_wal_retry");
    let _ = std::fs::remove_dir_all(&dir);
    let handle = Arc::new(ShardedStore::new(1));
    let (mut engine, _) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &DurabilityConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            checkpoint_every: 0,
        },
        Arc::clone(&handle),
        Some(&seed_series(3)),
    )
    .unwrap();

    // no retry policy: a single injected append error is a typed reject
    // and the generation does not advance
    qrank_chaos::install(FaultPlan::new(7).with_rule(FaultRule {
        site: "wal.append".into(),
        kind: FaultKind::Error,
        start: 1,
        every: 1,
        count: 1,
    }));
    let err = engine.ingest(&delta(3.0)).expect_err("append must fail");
    assert!(err.to_string().contains("chaos"), "{err}");
    assert_eq!(engine.generation(), 1, "failed ingest must not publish");

    // with the standard policy, three consecutive injected errors are
    // inside the 5-attempt budget and the same delta lands
    engine.set_wal_retry(RetryPolicy::standard(7));
    qrank_chaos::install(FaultPlan::new(7).with_rule(FaultRule {
        site: "wal.append".into(),
        kind: FaultKind::Error,
        start: 1,
        every: 1,
        count: 3,
    }));
    engine
        .ingest(&delta(3.0))
        .expect("retry must absorb the fault");
    assert_eq!(engine.generation(), 2);
    assert_eq!(qrank_chaos::status(), Some((7, 3)), "all three injected");
    qrank_chaos::clear();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_refresh_panic_is_contained_and_the_store_keeps_serving() {
    let _g = armed();
    let dir = std::env::temp_dir().join("qrank_chaos_panic");
    std::fs::create_dir_all(&dir).unwrap();
    let quarantine = dir.join("q.deltas");
    let _ = std::fs::remove_file(&quarantine);
    let handle = Arc::new(ShardedStore::new(1));
    let engine = RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(&handle),
    )
    .unwrap();
    qrank_chaos::install(FaultPlan::new(11).with_rule(FaultRule {
        site: "refresh.ingest".into(),
        kind: FaultKind::Panic,
        start: 1,
        every: 1,
        count: 1,
    }));
    let (tx, join) = spawn_refresh_worker_with(
        engine,
        RefreshWorkerOptions {
            quarantine: Some(quarantine.clone()),
        },
    );
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // the panic is the test
    tx.send(RefreshMsg::Delta(delta(3.0))).unwrap();
    tx.send(RefreshMsg::Delta(delta(4.0))).unwrap();
    tx.send(RefreshMsg::Shutdown).unwrap();
    let (engine, errors) = join.join().expect("worker must contain the panic");
    std::panic::set_hook(hook);
    qrank_chaos::clear();

    // the panicked delta and the poisoned follow-up are both reported
    assert_eq!(errors.len(), 2, "{errors:?}");
    assert!(errors[0].contains("panicked"), "{}", errors[0]);
    assert!(errors[1].contains("poisoned"), "{}", errors[1]);
    // the last sealed generation is untouched and still serves
    assert_eq!(engine.generation(), 1);
    assert_eq!(handle.current().generation(), 1);
    assert!(handle.current().score(PageId(1)).is_some());
    // both deltas are in quarantine for replay after the fix
    let text = std::fs::read_to_string(&quarantine).unwrap();
    assert_eq!(
        qrank_serve::parse_deltas(&text).unwrap(),
        vec![delta(3.0), delta(4.0)]
    );
    let _ = std::fs::remove_file(&quarantine);
}

#[test]
fn injected_score_fault_is_a_protocol_error_not_a_dead_connection() {
    let _g = armed();
    let handle = Arc::new(ShardedStore::new(1));
    RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(&handle),
    )
    .unwrap();
    let server = serve(
        Arc::clone(&handle),
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..Default::default()
        },
    )
    .unwrap();
    qrank_chaos::install(FaultPlan::new(13).with_rule(FaultRule {
        site: "serve.score".into(),
        kind: FaultKind::Error,
        start: 1,
        every: 1,
        count: 1,
    }));
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"score 1\nscore 1\n").unwrap();
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert!(first.contains(r#""ok":false"#), "{first}");
    assert!(first.contains("chaos"), "{first}");
    // same connection, next request: budget spent, back to normal
    let mut second = String::new();
    reader.read_line(&mut second).unwrap();
    assert!(second.contains(r#""ok":true"#), "{second}");
    qrank_chaos::clear();
    server.shutdown();
}

#[test]
fn injected_delay_slows_but_does_not_corrupt_a_score_read() {
    let _g = armed();
    let handle = Arc::new(ShardedStore::new(1));
    RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(&handle),
    )
    .unwrap();
    let server = serve(
        Arc::clone(&handle),
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..Default::default()
        },
    )
    .unwrap();
    qrank_chaos::install(FaultPlan::new(17).with_rule(FaultRule {
        site: "serve.score".into(),
        kind: FaultKind::DelayMs(120),
        start: 1,
        every: 1,
        count: 1,
    }));
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let started = std::time::Instant::now();
    writer.write_all(b"score 1\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        started.elapsed() >= Duration::from_millis(100),
        "slow shard"
    );
    assert!(
        line.contains(r#""ok":true"#),
        "delay is not an error: {line}"
    );
    qrank_chaos::clear();
    server.shutdown();
}
