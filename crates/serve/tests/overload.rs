//! Overload protection over a real socket, plus the shed-priority
//! property.
//!
//! Socket tests pin the admission-control behaviors that unit tests
//! can't see: structured shed responses on a live connection, the
//! connection cap rejecting at accept time, and the read deadline
//! closing a slow-loris writer. The proptest pins the policy's central
//! ordering guarantee for every configuration, not just the defaults.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use qrank_serve::{
    serve, Cost, RefreshConfig, RefreshEngine, ServerConfig, ShardedStore, ShedPolicy,
};

mod common;
use common::{seed_series, Client};

fn server_with(handle: &Arc<ShardedStore>, cfg: ServerConfig) -> qrank_serve::ServerHandle {
    RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(handle),
    )
    .unwrap();
    serve(Arc::clone(handle), &cfg).unwrap()
}

#[test]
fn expensive_verbs_shed_while_cheap_and_probes_survive() {
    let handle = Arc::new(ShardedStore::new(1));
    let server = server_with(
        &handle,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            shed: ShedPolicy {
                expensive_at: 1, // one queued connection is "overloaded"
                cheap_at: 8,
                latency_us: 0,
            },
            ..Default::default()
        },
    );

    // Connection A owns the single worker; connection B parks in the
    // accept queue and holds the load at 1 for as long as A stays open.
    let mut a = Client::connect(server.addr());
    assert!(a.request("health").contains(r#""ok":true"#));
    let b = TcpStream::connect(server.addr()).unwrap();
    for _ in 0..1000 {
        if server.load() >= 1 {
            break; // B has been accepted and parked in the queue
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(server.load() >= 1, "queued connection never became visible");

    let shed = a.request("topk 3");
    assert!(shed.contains(r#""error":"overloaded""#), "{shed}");
    assert!(shed.contains(r#""retry_after_ms":"#), "{shed}");
    let cheap = a.request("score 1");
    assert!(
        cheap.contains(r#""ok":true"#),
        "cheap verbs survive: {cheap}"
    );
    let probe = a.request("ready");
    assert!(probe.contains(r#""ready":true"#), "probes survive: {probe}");

    // shed responses land on their own counters: not errors, and the
    // latency histogram only sees the requests that actually ran
    let counters = server.metrics().registry().snapshot();
    assert!(counters.counter("shed.requests").unwrap_or(0) >= 1);
    assert!(counters.counter("shed.topk").unwrap_or(0) >= 1);
    assert_eq!(
        server.metrics().snapshot().errors,
        0,
        "sheds are not errors"
    );

    // once A departs, B is served and the load drops below threshold
    drop(a);
    drop(b);
    let mut c = Client::connect(server.addr());
    let recovered = c.request("topk 3");
    assert!(recovered.contains(r#""ok":true"#), "{recovered}");
    server.shutdown();
}

#[test]
fn connection_cap_rejects_at_accept_with_a_hint() {
    let handle = Arc::new(ShardedStore::new(1));
    let server = server_with(
        &handle,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            max_connections: 1,
            ..Default::default()
        },
    );
    let mut a = Client::connect(server.addr());
    assert!(a.request("health").contains(r#""ok":true"#));

    // the second connection gets one structured line, then EOF
    let over = TcpStream::connect(server.addr()).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(over);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""error":"overloaded""#), "{line}");
    assert!(line.contains(r#""retry_after_ms":"#), "{line}");
    let mut rest = String::new();
    assert_eq!(reader.read_to_string(&mut rest).unwrap(), 0, "then EOF");

    // the admitted connection is unaffected, and the slot frees on close
    assert!(a.request("score 1").contains(r#""ok":true"#));
    drop(a);
    for _ in 0..100 {
        if health_on_a_fresh_connection(server.addr())
            .is_some_and(|response| response.contains(r#""status":"serving""#))
        {
            server.shutdown();
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("connection slot never freed after close");
}

/// One `health` round trip on a new connection, or `None` when the
/// server closed it first: until the closed slot is freed, a retry is
/// rejected at accept, so its write can fail, its read can fail, or it
/// can read EOF before a whole line.
fn health_on_a_fresh_connection(addr: std::net::SocketAddr) -> Option<String> {
    let stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream.try_clone().ok()?.write_all(b"health\n").ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    line.ends_with('\n').then_some(line)
}

#[test]
fn read_deadline_closes_a_slow_loris_writer() {
    let handle = Arc::new(ShardedStore::new(1));
    let server = server_with(
        &handle,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            read_deadline_ms: 150,
            ..Default::default()
        },
    );
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // a complete request resets the inactivity deadline...
    writer.write_all(b"health\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains(r#""ok":true"#), "{line}");
    // ...but trickling bytes without ever finishing a line does not
    writer.write_all(b"sco").unwrap();
    let started = std::time::Instant::now();
    let mut tail = String::new();
    reader.read_to_string(&mut tail).unwrap(); // server closes: EOF
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline close took {:?}",
        started.elapsed()
    );
    assert!(
        tail.is_empty() || tail.contains("deadline"),
        "unexpected tail {tail:?}"
    );
    let counters = server.metrics().registry().snapshot();
    assert_eq!(counters.counter("shed.deadline_closed"), Some(1));
    server.shutdown();
}

proptest! {
    /// The shed-priority invariant, for every policy configuration and
    /// load: a cheap verb is never shed while an expensive verb would
    /// have been admitted, and probes are never shed at all.
    #[test]
    fn no_score_sheds_while_any_topk_is_admitted(
        expensive_at in 0usize..2_000,
        cheap_at in 0usize..10_000,
        latency_us in 0u64..5_000,
        load in 0usize..50_000,
        p99_us in 0.0f64..1e7,
    ) {
        let policy = ShedPolicy { expensive_at, cheap_at, latency_us };
        let cheap = policy.decide(Cost::Cheap, load, p99_us);
        let expensive = policy.decide(Cost::Expensive, load, p99_us);
        prop_assert_eq!(policy.decide(Cost::Exempt, load, p99_us), None);
        if cheap.is_some() {
            prop_assert!(
                expensive.is_some(),
                "score shed while topk admitted at load {} (policy {:?})",
                load,
                policy
            );
        }
        // and shedding only happens when the policy is enabled
        if expensive_at == 0 {
            prop_assert_eq!(cheap, None);
            prop_assert_eq!(expensive, None);
        }
    }
}
