//! Liveness vs readiness over a real socket.
//!
//! `health` answers as soon as the listener is up (liveness); `ready`
//! stays false until a sealed generation has been published — i.e.
//! until recovery/seeding completes — and goes false again once a
//! drain begins. Load balancers route on `ready`, probes on `health`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use qrank_serve::{serve, RefreshConfig, RefreshEngine, ServerConfig, ShardedStore};

mod common;
use common::seed_series;

fn ask(addr: std::net::SocketAddr, line: &str) -> String {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response
}

#[test]
fn ready_flips_true_only_once_a_generation_is_sealed() {
    // The server binds *before* any generation exists — the recovery
    // window, as a load balancer would see it.
    let handle = Arc::new(ShardedStore::new(1));
    let server = serve(
        Arc::clone(&handle),
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..Default::default()
        },
    )
    .unwrap();

    // live but not ready: health answers, ready says no, reads fail soft
    let health = ask(server.addr(), "health");
    assert!(health.contains(r#""ok":true"#), "{health}");
    let ready = ask(server.addr(), "ready");
    assert!(ready.contains(r#""ready":false"#), "{ready}");
    assert!(ready.contains(r#""generation":0"#), "{ready}");
    let score = ask(server.addr(), "score 1");
    assert!(score.contains(r#""ok":false"#), "{score}");

    // seeding publishes generation 1; readiness follows with no restart
    RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(&handle),
    )
    .unwrap();
    let mut became_ready = false;
    for _ in 0..200 {
        let ready = ask(server.addr(), "ready");
        if ready.contains(r#""ready":true"#) {
            assert!(ready.contains(r#""generation":1"#), "{ready}");
            became_ready = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(became_ready, "ready never became true after sealing");
    let score = ask(server.addr(), "score 1");
    assert!(score.contains(r#""ok":true"#), "{score}");
    server.shutdown();
}

#[test]
fn ready_goes_false_while_draining() {
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
    // One connection asks for shutdown, then probes readiness: the ack
    // flips the drain flag, so the same connection's next `ready` must
    // already report not-ready even though the store is still sealed.
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"ready\nshutdown\nready\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""ready":true"#), "{line}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""draining":true"#), "{line}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""ready":false"#), "{line}");
    assert!(server.drain_requested());
    let report = server.drain(Duration::from_secs(5));
    assert!(report.completed, "{report:?}");
}
