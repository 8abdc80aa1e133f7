//! End-to-end serving tests over a real localhost socket.
//!
//! A server is bound on an ephemeral port, a refresh worker publishes
//! generations behind it, and a plain `TcpStream` client drives the
//! line-delimited protocol. The key acceptance check: scores served
//! after an incremental refresh agree with a from-scratch
//! `qrank_core::run_pipeline` over the equivalent snapshot series to
//! within 1e-9 relative error.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qrank_core::{run_pipeline, PipelineConfig};
use qrank_serve::{
    handle_request, serve, spawn_refresh_worker, EdgeDelta, LruCache, Metrics, RefreshConfig,
    RefreshEngine, RefreshMsg, ServerConfig, ShardedStore,
};

mod common;
use common::{seed_series, Client};

/// Pull a numeric field out of a one-line JSON response.
fn json_num(line: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key:?} in {line}"))
        + pat.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key:?} in {line}"));
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key:?} in {line}"))
}

fn relative_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

#[test]
fn serves_scores_topk_stats_and_refreshes_over_tcp() {
    let handle = Arc::new(ShardedStore::new(1));
    let engine = RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(&handle),
    )
    .unwrap();
    let (refresh_tx, refresh_join) = spawn_refresh_worker(engine);
    let server = serve(
        Arc::clone(&handle),
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 16,
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr());

    // generation 1 is live
    let health = client.request("health");
    assert!(health.contains(r#""status":"serving""#), "{health}");
    assert_eq!(json_num(&health, "generation"), 1.0);

    // every served score matches the cold pipeline on the same series
    let cold = run_pipeline(&seed_series(3), &PipelineConfig::default()).unwrap();
    for (i, &page) in cold.pages.iter().enumerate() {
        let line = client.request(&format!("score {}", page.0));
        assert!(line.contains(r#""ok":true"#), "{line}");
        let quality = json_num(&line, "quality");
        assert!(
            relative_diff(quality, cold.estimates[i]) <= 1e-9,
            "page {page}: served {quality} vs cold {}",
            cold.estimates[i]
        );
    }

    // topk is sorted by quality and reflects the generation
    let topk = client.request("topk 3");
    assert_eq!(json_num(&topk, "k"), 3.0, "{topk}");
    assert_eq!(json_num(&topk, "generation"), 1.0);
    let best = cold
        .estimates
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        relative_diff(json_num(&topk, "quality"), best) <= 1e-9,
        "first topk row must carry the best quality: {topk}"
    );

    // stats counts the traffic so far (health + 6 scores + topk)
    let stats = client.request("stats");
    assert!(json_num(&stats, "requests") >= 8.0, "{stats}");
    assert_eq!(json_num(&stats, "errors"), 0.0);
    assert_eq!(json_num(&stats, "pages"), 6.0);

    // ingest a delta; the worker publishes generation 2 without the
    // server restarting or the client reconnecting
    refresh_tx
        .send(RefreshMsg::Delta(EdgeDelta {
            time: 3.0,
            added: vec![(0, 1)],
            ..Default::default()
        }))
        .unwrap();
    let mut generation = 0.0;
    for _ in 0..1000 {
        generation = json_num(&client.request("health"), "generation");
        if generation >= 2.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(generation, 2.0, "refresh generation never became visible");

    // refreshed scores agree with a full cold pipeline over 4 snapshots
    let cold4 = run_pipeline(&seed_series(4), &PipelineConfig::default()).unwrap();
    for (i, &page) in cold4.pages.iter().enumerate() {
        let line = client.request(&format!("score {}", page.0));
        let quality = json_num(&line, "quality");
        assert!(
            relative_diff(quality, cold4.estimates[i]) <= 1e-9,
            "page {page} after refresh: served {quality} vs cold {}",
            cold4.estimates[i]
        );
        assert_eq!(json_num(&line, "generation"), 2.0);
    }

    refresh_tx.send(RefreshMsg::Shutdown).unwrap();
    let (engine, errors) = refresh_join.join().unwrap();
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(engine.generation(), 2);
    server.shutdown();
}

#[test]
fn trace_verb_attributes_latency_end_to_end() {
    qrank_obs::set_enabled(true);
    let handle = Arc::new(ShardedStore::new(1));
    let mut engine = RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(&handle),
    )
    .unwrap();
    let server = serve(
        Arc::clone(&handle),
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 16,
            trace_sample: 1, // trace everything: deterministic retention
            slo_latency_us: 1_000,
            ..Default::default()
        },
    )
    .unwrap();
    let tracer = server.tracer().expect("trace_sample > 0 builds a tracer");
    engine.set_tracer(Some(Arc::clone(&tracer)));
    let (refresh_tx, refresh_join) = spawn_refresh_worker(engine);
    let mut client = Client::connect(server.addr());

    for page in 0..6 {
        let line = client.request(&format!("score {page}"));
        assert!(line.contains(r#""ok":true"#), "{line}");
    }
    client.request("topk 3"); // miss
    client.request("topk 3"); // hit
    client.request("definitely not a verb"); // error path is traced too

    // slowest-K per verb, full stage breakdown
    let slowest = client.request("trace slowest score");
    assert!(slowest.contains(r#""ok":true"#), "{slowest}");
    assert!(slowest.contains(r#""verb":"score""#), "{slowest}");
    for stage in [
        "serve.parse",
        "serve.store_read",
        "serve.serialize",
        "serve.write",
    ] {
        assert!(
            slowest.contains(&format!(r#""name":"{stage}""#)),
            "stage {stage} missing from {slowest}"
        );
    }
    let topk = client.request("trace slowest topk");
    assert!(topk.contains("cache=hit"), "{topk}");
    assert!(topk.contains("cache=miss"), "{topk}");
    let errors = client.request("trace slowest error");
    assert!(
        errors.contains(r#""ok":false"#),
        "error traces record failure"
    );

    // by-id lookup round-trips through the retained store
    let id = json_num(&slowest, "id") as u64;
    let by_id = client.request(&format!("trace id {id}"));
    assert!(by_id.contains(&format!(r#""id":{id}"#)), "{by_id}");
    let missing = client.request("trace id 999999999");
    assert!(missing.contains("no retained trace"), "{missing}");

    // a refresh cycle gets a forced trace with engine stage attribution
    refresh_tx
        .send(RefreshMsg::Delta(EdgeDelta {
            time: 3.0,
            added: vec![(0, 1)],
            ..Default::default()
        }))
        .unwrap();
    for _ in 0..1000 {
        if json_num(&client.request("health"), "generation") >= 2.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let refresh = client.request("trace slowest refresh");
    assert!(refresh.contains(r#""verb":"refresh""#), "{refresh}");
    for stage in ["refresh.apply", "refresh.snapshot", "refresh.rerank"] {
        assert!(
            refresh.contains(&format!(r#""name":"{stage}""#)),
            "stage {stage} missing from {refresh}"
        );
    }
    assert!(refresh.contains("columns_solved=1"), "{refresh}");

    // SLO status sees every verb that carried traffic
    let slo = client.request("trace slo");
    assert!(slo.contains(r#""ok":true"#), "{slo}");
    for verb in ["score", "topk", "error", "refresh"] {
        assert!(slo.contains(&format!(r#""{verb}":{{"#)), "{slo}");
    }
    assert!(slo.contains(r#""windows""#), "{slo}");
    assert!(slo.contains(r#""exemplars""#), "{slo}");

    // the human-readable report streams until # EOF
    let report = client.request_multiline("trace report");
    let text = report.join("\n");
    assert!(text.contains("slowest traces:"), "{text}");
    assert!(text.contains("score"), "{text}");

    refresh_tx.send(RefreshMsg::Shutdown).unwrap();
    refresh_join.join().unwrap();
    server.shutdown();
    qrank_obs::set_enabled(false);
}

#[test]
fn bad_requests_do_not_poison_the_connection() {
    let handle = Arc::new(ShardedStore::new(1));
    let engine = RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(&handle),
    )
    .unwrap();
    drop(engine); // only needed to publish generation 1
    let server = serve(
        Arc::clone(&handle),
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            cache_capacity: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr());

    let garbage = client.request("open the pod bay doors");
    assert!(garbage.contains(r#""ok":false"#), "{garbage}");
    let unknown = client.request("score 424242");
    assert!(unknown.contains("unknown page 424242"), "{unknown}");
    // the same connection still serves valid requests afterwards
    let health = client.request("health");
    assert!(health.contains(r#""status":"serving""#), "{health}");
    let stats = client.request("stats");
    assert_eq!(
        json_num(&stats, "errors"),
        1.0,
        "only the parse failure counts: {stats}"
    );

    server.shutdown();
}

#[test]
fn concurrent_readers_make_progress_while_generations_publish() {
    let series = seed_series(3);
    let report = run_pipeline(&series, &PipelineConfig::default()).unwrap();
    let store = Arc::new(ShardedStore::new(8));
    store.publish_report(&report, 1, 2.0);
    let stop = Arc::new(AtomicBool::new(false));

    // writer: publish new generations as fast as possible until told to stop
    let writer = {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut generation = 1;
            while !stop.load(Ordering::Relaxed) {
                generation += 1;
                store.publish_report(&report, generation, 2.0);
            }
            generation
        })
    };

    // readers: `score` through the handler, then the view's generation.
    // Neither may go back, and a score line may never carry a generation
    // the view read right after it does not show yet: `score` reads the
    // view every other verb reads. If a publish blocked readers, this
    // would deadlock or time out rather than pass.
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let (metrics, cache) = (Metrics::new(), parking_lot::Mutex::new(LruCache::new(4)));
                let mut last = 0;
                let mut distinct = 0;
                for i in 0..20_000u64 {
                    let line =
                        handle_request(&format!("score {}", i % 6), &store, &metrics, &cache);
                    assert!(line.contains(r#""ok":true"#), "{line}");
                    let scored = json_num(&line, "generation") as u64;
                    let shown = store.current().generation();
                    assert!(scored >= last, "generation went backwards: {line}");
                    assert!(
                        scored <= shown,
                        "score answered generation {scored} while the view showed {shown}"
                    );
                    if shown != last {
                        distinct += 1;
                        last = shown;
                    }
                }
                distinct
            })
        })
        .collect();

    for reader in readers {
        let distinct = reader.join().unwrap();
        assert!(distinct >= 5, "reader observed only {distinct} generations");
    }
    stop.store(true, Ordering::Relaxed);
    let total = writer.join().unwrap();
    assert!(total > 5);
}
