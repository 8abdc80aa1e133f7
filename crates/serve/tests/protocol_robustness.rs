//! Protocol robustness over a live socket: malformed verbs, bad
//! arguments, junk bytes, and oversized lines must each get a
//! structured JSON error line — and, except for the unframeable
//! oversized line, must leave the connection serving.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use qrank_serve::{
    handle_request, serve, LruCache, Metrics, RefreshConfig, RefreshEngine, ServerConfig,
    ShardedStore, MAX_LINE_BYTES,
};

mod common;
use common::seed_series;

fn start_server(shards: usize) -> qrank_serve::ServerHandle {
    let handle = Arc::new(ShardedStore::new(shards));
    RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(&handle),
    )
    .unwrap();
    serve(
        handle,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            cache_capacity: 4,
            ..Default::default()
        },
    )
    .unwrap()
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

#[test]
fn every_bad_request_gets_a_structured_error_and_the_connection_lives() {
    // (request bytes, substring the error must carry) — newline appended
    // by the test. Raw bytes so the corpus can include invalid UTF-8.
    let corpus: &[(&[u8], &str)] = &[
        (b"", "empty request"),
        (b"   \t  ", "empty request"),
        (b"open the pod bay doors", "unknown command"),
        (b"score", "unknown command"),
        (b"score abc", "bad page id"),
        (b"score -1", "bad page id"),
        (b"score 1 2", "unknown command"),
        (b"topk", "unknown command"),
        (b"topk zero", "bad topk count"),
        (b"topk 0", "topk k must be in"),
        (b"topk 99999999999", "topk k must be in"),
        (b"SCORE 1", "unknown command"),
        (b"trace sideways", "trace usage"),
        (b"trace slowest nosuchverb", "unknown trace verb filter"),
        (b"trace id xyz", "bad trace id"),
        (b"\xff\xfe\x00garbage", "unknown command"),
        (b"score \xf0\x28\x8c\x28", "bad page id"),
    ];
    let server = start_server(2);
    let (mut reader, mut writer) = connect(server.addr());
    for (request, want) in corpus {
        writer.write_all(request).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).expect("server answered");
        assert!(
            line.starts_with(r#"{"ok":false,"error":"#),
            "{:?} got non-error {line:?}",
            String::from_utf8_lossy(request)
        );
        assert!(
            line.contains(want),
            "{:?}: expected {want:?} in {line:?}",
            String::from_utf8_lossy(request)
        );
        // the connection is not poisoned: a valid request still answers
        writer.write_all(b"health\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""status":"serving""#), "{line}");
    }
    server.shutdown();
}

#[test]
fn oversized_line_answers_an_error_then_closes() {
    let server = start_server(1);
    let (mut reader, mut writer) = connect(server.addr());
    // One byte over the cap, never newline-terminated: the server can't
    // frame it, so it must answer a bounded structured error and close
    // rather than buffer without limit.
    let blob = vec![b'a'; MAX_LINE_BYTES + 1];
    writer.write_all(&blob).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line");
    assert!(line.starts_with(r#"{"ok":false"#), "{line}");
    assert!(line.contains("exceeds"), "{line}");
    // ... and the stream is done
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must close after the error");
    server.shutdown();
}

#[test]
fn topk_cache_is_invalidated_by_a_refresh_between_identical_requests() {
    // Regression: the LRU key must include the store generation vector.
    // With a key of `k` alone, the second request would replay the
    // pre-refresh response from the cache.
    let handle = Arc::new(ShardedStore::new(2));
    let mut engine = RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(&handle),
    )
    .unwrap();
    let metrics = Metrics::new();
    let cache = parking_lot::Mutex::new(LruCache::new(8));

    let before = handle_request("topk 3", &handle, &metrics, &cache);
    assert!(before.contains(r#""generation":1"#), "{before}");
    // warm the cache and confirm it actually hits
    let again = handle_request("topk 3", &handle, &metrics, &cache);
    assert_eq!(before, again);
    assert!(metrics.snapshot().cache_hits >= 1, "cache never hit");

    engine
        .ingest(&qrank_serve::EdgeDelta {
            time: 3.0,
            added: vec![(0, 1)],
            ..Default::default()
        })
        .unwrap();

    let after = handle_request("topk 3", &handle, &metrics, &cache);
    assert!(
        after.contains(r#""generation":2"#),
        "stale cached topk served after refresh: {after}"
    );
    assert_ne!(before, after);
}
