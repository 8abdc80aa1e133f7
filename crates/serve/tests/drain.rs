//! Graceful drain and kill-during-drain recovery.
//!
//! The drain contract: after `shutdown` (verb or signal, surfaced here
//! through [`qrank_serve::ServerHandle::drain`]) the server stops
//! accepting, answers what is already in flight, and only then tears
//! down. A drain that overruns its deadline aborts the stragglers —
//! and because every ingested delta was journaled *before* it was
//! applied, a kill at any point during the drain recovers to a
//! consistent, bitwise-identical store on the next boot.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use qrank_serve::{
    serve, DurabilityConfig, EdgeDelta, FsyncPolicy, RefreshConfig, RefreshEngine, ServerConfig,
    ShardedStore,
};

mod common;
use common::seed_series;

fn served_server(handle: &Arc<ShardedStore>) -> qrank_serve::ServerHandle {
    RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(handle),
    )
    .unwrap();
    serve(
        Arc::clone(handle),
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn drain_answers_in_flight_lines_then_closes() {
    let handle = Arc::new(ShardedStore::new(1));
    let server = served_server(&handle);
    // Buffer two requests, then the shutdown verb, all in one write:
    // the worker must answer everything already on the wire before the
    // drain closes the connection.
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"score 1\ntopk 2\nshutdown\n").unwrap();
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "closed early");
        lines.push(line);
    }
    assert!(lines[0].contains(r#""ok":true"#), "{}", lines[0]);
    assert!(lines[1].contains(r#""k":2"#), "{}", lines[1]);
    assert!(lines[2].contains(r#""draining":true"#), "{}", lines[2]);
    // the verb only *requests* the drain; the embedder (here, the test)
    // runs it, and the idle connection is closed as part of it
    assert!(server.drain_requested());
    let drainer = std::thread::spawn(move || server.drain(Duration::from_secs(5)));
    let mut tail = String::new();
    assert_eq!(
        reader.read_line(&mut tail).unwrap(),
        0,
        "drain must close the connection, got {tail:?}"
    );
    let report = drainer.join().unwrap();
    assert!(report.completed, "{report:?}");
    assert_eq!(report.aborted_connections, 0);
}

#[test]
fn draining_server_rejects_new_connections() {
    let handle = Arc::new(ShardedStore::new(1));
    let server = served_server(&handle);
    let addr = server.addr();
    // Drain from another thread while this one attempts to connect;
    // the drain completes immediately (no load), so race the connect
    // against the listener teardown and accept either outcome: a
    // structured `draining` rejection or a refused/closed connection.
    let drainer = std::thread::spawn(move || server.drain(Duration::from_secs(5)));
    let mut saw_rejection_or_refusal = false;
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Err(_) => {
                saw_rejection_or_refusal = true;
                break;
            }
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(Duration::from_millis(500)))
                    .ok();
                let mut writer = stream.try_clone().unwrap();
                let _ = writer.write_all(b"health\n");
                let mut line = String::new();
                match BufReader::new(stream).read_line(&mut line) {
                    Ok(0) | Err(_) => {
                        saw_rejection_or_refusal = true;
                        break;
                    }
                    Ok(_) if line.contains(r#""error":"draining""#) => {
                        saw_rejection_or_refusal = true;
                        break;
                    }
                    Ok(_) => {} // raced ahead of the drain flag; retry
                }
            }
        }
    }
    let report = drainer.join().unwrap();
    assert!(report.completed, "{report:?}");
    assert!(
        saw_rejection_or_refusal,
        "a draining server must stop taking new work"
    );
}

#[test]
fn deadline_overrun_aborts_stragglers() {
    let handle = Arc::new(ShardedStore::new(1));
    let server = served_server(&handle);
    // A connection with a half-written request holds `open > 0` but
    // completes nothing; a zero deadline must not wait for it.
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"health\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap(); // connection is live and being served
    writer.write_all(b"sco").unwrap(); // ...and now wedged mid-line
    let report = server.drain(Duration::from_millis(0));
    // the wedged connection either got closed by the drain fast path or
    // was aborted at the deadline; both are clean outcomes, but the
    // report must not claim an orderly completion with work in flight
    if !report.completed {
        assert!(report.aborted_connections > 0, "{report:?}");
    }
}

#[test]
fn kill_during_drain_recovers_bitwise() {
    let dir_ref = std::env::temp_dir().join("qrank_drain_kill_ref");
    let dir_kill = std::env::temp_dir().join("qrank_drain_kill_victim");
    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_kill);
    let durable = |dir: &std::path::Path| DurabilityConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0, // no mid-run checkpoints: recovery must replay
    };
    let deltas = [
        EdgeDelta {
            time: 3.0,
            added: vec![(0, 1)],
            ..Default::default()
        },
        EdgeDelta {
            time: 4.0,
            added: vec![(2, 1), (4, 0)],
            ..Default::default()
        },
    ];

    // reference: same workload, orderly shutdown
    let ref_handle = Arc::new(ShardedStore::new(1));
    let (mut ref_engine, _) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &durable(&dir_ref),
        Arc::clone(&ref_handle),
        Some(&seed_series(3)),
    )
    .unwrap();
    for d in &deltas {
        ref_engine.ingest(d).unwrap();
    }

    // victim: a serving stack killed mid-drain — the server is dropped
    // with a connection open and the engine is dropped without its
    // shutdown checkpoint, exactly what a hard kill leaves behind.
    {
        let kill_handle = Arc::new(ShardedStore::new(1));
        let (mut kill_engine, _) = RefreshEngine::open_durable(
            RefreshConfig::default(),
            &durable(&dir_kill),
            Arc::clone(&kill_handle),
            Some(&seed_series(3)),
        )
        .unwrap();
        for d in &deltas {
            kill_engine.ingest(d).unwrap();
        }
        let server = serve(
            Arc::clone(&kill_handle),
            &ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let _wedged = TcpStream::connect(server.addr()).unwrap();
        let _report = server.drain(Duration::from_millis(0));
        // kill: no checkpoint_now, engine dropped hot
    }

    // recovery replays the journal; every published bit matches the
    // uninterrupted reference
    let rec_handle = Arc::new(ShardedStore::new(1));
    let (_rec_engine, report) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &durable(&dir_kill),
        Arc::clone(&rec_handle),
        None,
    )
    .unwrap();
    assert!(report.replayed_records > 0, "nothing replayed: {report:?}");
    let (a, b) = (ref_handle.current(), rec_handle.current());
    assert_eq!(a.generation(), b.generation());
    assert_eq!(a.len(), b.len());
    for ((pa, sa), (pb, sb)) in a.topk(a.len()).iter().zip(b.topk(b.len()).iter()) {
        assert_eq!(pa, pb, "page order diverged");
        assert_eq!(
            sa.quality.to_bits(),
            sb.quality.to_bits(),
            "quality bits diverged for page {pa}"
        );
        assert_eq!(
            sa.pagerank.to_bits(),
            sb.pagerank.to_bits(),
            "pagerank bits diverged for page {pa}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir_ref);
    let _ = std::fs::remove_dir_all(&dir_kill);
}
