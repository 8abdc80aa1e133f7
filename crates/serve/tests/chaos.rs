//! Fault-injection integration tests (only built with `--features
//! chaos`; the hooks do not exist in default builds).
//!
//! Each test arms a seeded [`qrank_chaos::FaultPlan`] and checks the
//! containment story end to end: injected WAL errors surface as typed
//! failures (and are absorbed by the retry policy when one is set,
//! leaving the store an uninjected run publishes and a journal holding
//! each delta once), an injected refresh
//! panic poisons the worker without unseating the published generation —
//! a live server keeps answering, the journal recovers that generation,
//! and the quarantine replays onto it — and injected score-path faults
//! turn into protocol errors rather than closed connections.

#![cfg(feature = "chaos")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use qrank_chaos::{FaultKind, FaultPlan, FaultRule};
use qrank_serve::{
    parse_deltas, serve, spawn_refresh_worker_with, DurabilityConfig, EdgeDelta, FsyncPolicy,
    RefreshConfig, RefreshEngine, RefreshMsg, RefreshWorkerOptions, RetryPolicy, ServerConfig,
    ShardedStore,
};

mod common;
use common::{seed_series, Client};

/// The installed plan is process-global; serialize the tests that arm
/// one so they do not observe each other's hit counters.
fn armed() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Four deltas on the seed web: links that move scores, then a page
/// born with a link while another link goes.
fn stream() -> Vec<EdgeDelta> {
    let link = |time, added| EdgeDelta {
        time,
        added,
        ..Default::default()
    };
    vec![
        link(3.0, vec![(0, 3), (1, 4)]),
        link(4.0, vec![(2, 5)]),
        link(5.0, vec![(4, 3), (5, 0)]),
        EdgeDelta {
            time: 6.0,
            new_pages: vec![6],
            added: vec![(6, 1)],
            removed: vec![(0, 3)],
        },
    ]
}

/// What an engine no fault touched publishes for the seed web + `deltas`.
fn uninjected(deltas: &[EdgeDelta]) -> Arc<ShardedStore> {
    let handle = Arc::new(ShardedStore::new(1));
    let mut engine = RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(&handle),
    )
    .unwrap();
    for d in deltas {
        engine.ingest(d).unwrap();
    }
    handle
}

/// Same generation, same pages in the same order, same score bits.
fn assert_bitwise_equal(expected: &ShardedStore, got: &ShardedStore) {
    let bits = |store: &ShardedStore| {
        let view = store.current();
        let rows: Vec<_> = view
            .topk(view.len())
            .into_iter()
            .map(|(page, s)| (page, s.quality.to_bits(), s.pagerank.to_bits(), s.trend))
            .collect();
        (view.generation(), rows)
    };
    assert_eq!(bits(got), bits(expected));
}

/// A durable engine over `dir`, seeded with the seed web on first boot.
fn open_durable(dir: &Path, handle: &Arc<ShardedStore>) -> RefreshEngine {
    let dur = DurabilityConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0,
    };
    let seed = seed_series(3);
    RefreshEngine::open_durable(
        RefreshConfig::default(),
        &dur,
        Arc::clone(handle),
        Some(&seed),
    )
    .unwrap()
    .0
}

#[test]
fn injected_wal_errors_fail_typed_without_retry_and_heal_with_it() {
    let _g = armed();
    let dir = std::env::temp_dir().join("qrank_chaos_wal_retry");
    let _ = std::fs::remove_dir_all(&dir);
    let handle = Arc::new(ShardedStore::new(1));
    let mut engine = open_durable(&dir, &handle);
    let stream = stream();

    // no retry policy: a single injected append error is a typed reject
    // and the generation does not advance
    qrank_chaos::install(FaultPlan::new(7).with_rule(FaultRule {
        site: "wal.append".into(),
        kind: FaultKind::Error,
        start: 1,
        every: 1,
        count: 1,
    }));
    let err = engine.ingest(&stream[0]).expect_err("append must fail");
    assert!(err.to_string().contains("chaos"), "{err}");
    assert_eq!(engine.generation(), 1, "failed ingest must not publish");

    // with the standard policy, three consecutive injected errors are
    // inside the 5-attempt budget: every delta lands, and the store is
    // bitwise the one an uninjected run publishes
    engine.set_wal_retry(RetryPolicy::standard(7));
    qrank_chaos::install(FaultPlan::new(7).with_rule(FaultRule {
        site: "wal.append".into(),
        kind: FaultKind::Error,
        start: 1,
        every: 1,
        count: 3,
    }));
    for d in &stream {
        engine.ingest(d).expect("retry must absorb the fault");
    }
    assert_eq!(qrank_chaos::status(), Some((7, 3)), "all three injected");
    qrank_chaos::clear();
    assert_bitwise_equal(&uninjected(&stream), &handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_retried_sync_fault_journals_its_delta_once() {
    let _g = armed();
    let dir = std::env::temp_dir().join("qrank_chaos_wal_sync");
    let _ = std::fs::remove_dir_all(&dir);
    let dur = DurabilityConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::Always,
        checkpoint_every: 0,
    };
    let seed = seed_series(3);
    let handle = Arc::new(ShardedStore::new(1));
    let (mut engine, _) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &dur,
        Arc::clone(&handle),
        Some(&seed),
    )
    .unwrap();
    engine.set_wal_retry(RetryPolicy::standard(7));
    let stream = stream();

    // the first streamed append writes its frame, then its sync fails:
    // the append must take the frame back out, so the retry that
    // succeeds leaves the delta in the log once
    qrank_chaos::install(FaultPlan::new(7).with_rule(FaultRule {
        site: "wal.sync".into(),
        kind: FaultKind::Error,
        start: 1,
        every: 1,
        count: 1,
    }));
    for d in &stream {
        engine.ingest(d).expect("retry must absorb the fault");
    }
    assert_eq!(
        qrank_chaos::status(),
        Some((7, 1)),
        "the fault was injected"
    );
    qrank_chaos::clear();
    drop(engine); // the kill: no shutdown checkpoint

    let recovered = Arc::new(ShardedStore::new(1));
    let (_, report) =
        RefreshEngine::open_durable(RefreshConfig::default(), &dur, Arc::clone(&recovered), None)
            .unwrap();
    assert_eq!(
        report.replayed_records,
        (seed.len() + stream.len()) as u64,
        "one record per ingest"
    );
    assert!(
        report.replay_errors.is_empty(),
        "{:?}",
        report.replay_errors
    );
    assert_bitwise_equal(&uninjected(&stream), &recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_refresh_panic_is_contained_served_and_recovered() {
    let _g = armed();
    let dir = std::env::temp_dir().join("qrank_chaos_panic");
    let _ = std::fs::remove_dir_all(&dir);
    let quarantine = dir.join("quarantine.deltas");
    let handle = Arc::new(ShardedStore::new(1));
    let engine = open_durable(&dir, &handle);
    let stream = stream();
    // Seeding ran ingest cycles of its own, so the panic is armed only
    // now: hit k of `refresh.ingest` is streamed delta k. It fires
    // before the write-ahead append, so the journal never sees delta k.
    let panic_at = 2;
    qrank_chaos::install(FaultPlan::new(11).with_rule(FaultRule {
        site: "refresh.ingest".into(),
        kind: FaultKind::Panic,
        start: panic_at,
        every: 1,
        count: 1,
    }));
    let server = serve(
        Arc::clone(&handle),
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let (tx, join) = spawn_refresh_worker_with(
        engine,
        RefreshWorkerOptions {
            quarantine: Some(quarantine.clone()),
        },
    );
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // the panic is the test
    for d in &stream {
        tx.send(RefreshMsg::Delta(d.clone())).unwrap();
    }
    tx.send(RefreshMsg::Shutdown).unwrap();
    let (engine, errors) = join.join().expect("worker must contain the panic");
    std::panic::set_hook(hook);
    qrank_chaos::clear();
    drop(engine); // the crash: the journal stays as the panic left it

    // the panicked delta and every poisoned follow-up are reported
    let held_back = &stream[panic_at as usize - 1..];
    assert_eq!(errors.len(), held_back.len(), "{errors:?}");
    assert!(errors[0].contains("panicked"), "{}", errors[0]);
    assert!(
        errors[1..].iter().all(|e| e.contains("poisoned")),
        "{errors:?}"
    );
    // seed generation 1, then one per delta before the panic, and it
    // still serves over the socket
    assert_eq!(handle.current().generation(), panic_at);
    let mut client = Client::connect(server.addr());
    for (request, serving) in [
        ("health", r#""status":"serving""#),
        ("ready", r#""ready":true"#),
        ("score 1", r#""ok":true"#),
    ] {
        let answer = client.request(request);
        assert!(answer.contains(r#""ok":true"#), "{request}: {answer}");
        assert!(answer.contains(serving), "{request}: {answer}");
    }
    server.shutdown();
    // every held-back delta waits in quarantine for replay after the fix
    let quarantined = parse_deltas(&std::fs::read_to_string(&quarantine).unwrap()).unwrap();
    assert_eq!(quarantined, held_back);

    // the journal recovers the sealed generation, and the quarantine
    // replays onto it to the uninjected store
    let recovered = Arc::new(ShardedStore::new(1));
    let mut engine = open_durable(&dir, &recovered);
    assert_eq!(recovered.current().generation(), panic_at);
    for d in &quarantined {
        engine.ingest(d).unwrap();
    }
    assert_bitwise_equal(&uninjected(&stream), &recovered);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
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
