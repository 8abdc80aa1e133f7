//! `qrank chaos-test` — deterministic fault-injection scenario runner.
//!
//! Only available in binaries built with the `chaos` cargo feature;
//! release builds compile the hook sites to constant `false` and this
//! command to a short explanation. The runner drives three phases
//! against a small synthetic snapshot series:
//!
//! 1. **wal-retry** — transient `wal.append` I/O errors are injected
//!    and must be absorbed by the journal's bounded-backoff retry;
//!    every delta lands and the store is bitwise identical to an
//!    uninjected reference run.
//! 2. **panic containment** — an injected panic inside refresh ingest
//!    poisons the worker; the last sealed generation must keep serving
//!    over a live socket (liveness), and the panicked plus subsequent
//!    deltas must land in the quarantine file.
//! 3. **recovery** — with faults cleared, the crashed data directory is
//!    recovered and the quarantined deltas re-ingested; the result must
//!    be bitwise identical to the reference.
//!
//! The same `--seed` replays the same injected history, so a failing
//! run is reproducible by quoting its seed.

#[cfg(not(feature = "chaos"))]
use crate::args::CliError;

#[cfg(not(feature = "chaos"))]
/// Entry point (chaos feature disabled).
pub fn run(_argv: &[String]) -> Result<(), CliError> {
    Err(CliError::Runtime(
        "chaos-test requires a chaos-enabled build: `cargo run --features chaos -- chaos-test`; \
         production builds compile the fault hooks out entirely"
            .into(),
    ))
}

#[cfg(feature = "chaos")]
pub use enabled::run;

#[cfg(feature = "chaos")]
mod enabled {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    use qrank_chaos::{FaultKind, FaultPlan, FaultRule};
    use qrank_graph::{CsrGraph, PageId, Snapshot, SnapshotSeries};
    use qrank_obs::json::Obj;
    use qrank_serve::{
        parse_deltas, serve, spawn_refresh_worker_with, DurabilityConfig, EdgeDelta, FsyncPolicy,
        RefreshConfig, RefreshEngine, RefreshMsg, RefreshWorkerOptions, RetryPolicy, ServerConfig,
        ShardedStore,
    };

    use crate::args::{parse, write_output, CliError};

    const USAGE: &str = "\
qrank chaos-test [options]

options:
  --seed S     scenario seed, echoed in the report (default 42)
  --pages N    pages in the synthetic web (default 400)
  --out FILE   write the JSON report to FILE (default stdout)

runs three deterministic fault-injection phases (transient WAL errors
absorbed by retry; a refresh panic contained by the worker while the
last sealed generation keeps serving; recovery + quarantine re-ingest
converging bitwise to the clean reference) and exits nonzero if any
invariant is violated.";

    /// Deterministic preferential-attachment-ish edges from a seeded
    /// 64-bit LCG — no RNG crate needed and stable across runs.
    fn synth_edges(pages: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut edges = Vec::with_capacity(pages * 3);
        for src in 1..pages as u32 {
            for _ in 0..3 {
                // bias toward low ids: popular early pages
                let dst = (next() % u64::from(src)) as u32;
                let dst = dst.min((next() % u64::from(src)) as u32);
                if dst != src {
                    edges.push((src, dst));
                }
            }
        }
        edges
    }

    /// The scenario workload: a three-snapshot seed series plus four
    /// deltas carrying the final 10% of the edges and one new page.
    fn workload(pages: usize, seed: u64) -> (SnapshotSeries, Vec<EdgeDelta>) {
        let edges = synth_edges(pages, seed);
        let page_ids: Vec<PageId> = (0..pages as u64).map(PageId).collect();
        let mut series = SnapshotSeries::new();
        for (i, frac) in [0.7, 0.8, 0.9].iter().enumerate() {
            let cut = (edges.len() as f64 * frac) as usize;
            series
                .push(
                    Snapshot::new(
                        i as f64,
                        CsrGraph::from_edges(pages, &edges[..cut]),
                        page_ids.clone(),
                    )
                    .expect("synthetic snapshot is well-formed"),
                )
                .expect("synthetic series is monotone");
        }
        let tail = &edges[(edges.len() as f64 * 0.9) as usize..];
        let mut deltas: Vec<EdgeDelta> = tail
            .chunks(tail.len().div_ceil(3).max(1))
            .enumerate()
            .map(|(i, chunk)| EdgeDelta {
                time: 3.0 + i as f64,
                added: chunk.iter().map(|&(s, d)| (s as u64, d as u64)).collect(),
                ..Default::default()
            })
            .collect();
        deltas.push(EdgeDelta {
            time: 3.0 + deltas.len() as f64,
            new_pages: vec![pages as u64],
            added: vec![(pages as u64, 0)],
            ..Default::default()
        });
        (series, deltas)
    }

    /// `None` when the two published stores agree on every bit;
    /// otherwise what differed first.
    fn bitwise_mismatch(a: &Arc<ShardedStore>, b: &Arc<ShardedStore>) -> Option<String> {
        let (a, b) = (a.current(), b.current());
        if a.generation() != b.generation() {
            return Some(format!(
                "generation {} vs {}",
                a.generation(),
                b.generation()
            ));
        }
        if a.len() != b.len() {
            return Some(format!("page count {} vs {}", a.len(), b.len()));
        }
        for ((pa, sa), (pb, sb)) in a.topk(a.len()).iter().zip(b.topk(b.len()).iter()) {
            if pa != pb {
                return Some(format!("page order diverges at {pa} vs {pb}"));
            }
            if sa.quality.to_bits() != sb.quality.to_bits()
                || sa.pagerank.to_bits() != sb.pagerank.to_bits()
                || sa.trend != sb.trend
            {
                return Some(format!("score bits differ for page {pa}"));
            }
        }
        None
    }

    fn durable(dir: &std::path::Path) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never,
            checkpoint_every: 0,
        }
    }

    /// One strict request/response over a fresh connection.
    fn ask(addr: std::net::SocketAddr, line: &str) -> Result<String, CliError> {
        let stream = TcpStream::connect(addr).map_err(|e| CliError::Runtime(e.to_string()))?;
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .ok();
        let mut writer = stream
            .try_clone()
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        let mut reader = BufReader::new(stream);
        writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        let mut response = String::new();
        reader
            .read_line(&mut response)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        Ok(response)
    }

    /// Entry point (chaos feature enabled).
    pub fn run(argv: &[String]) -> Result<(), CliError> {
        let p = parse(argv, &["seed", "pages", "out"], USAGE)?;
        if p.help {
            println!("{USAGE}");
            return Ok(());
        }
        let seed: u64 = p.get_or("seed", 42, USAGE)?;
        let pages: usize = p.get_or("pages", 400, USAGE)?;
        if pages < 10 {
            return Err(CliError::Usage(format!(
                "--pages must be at least 10\n\n{USAGE}"
            )));
        }
        let (series, deltas) = workload(pages, seed);
        let root = std::env::temp_dir().join(format!("qrank_chaos_test_{seed}"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(CliError::from)?;
        let mut violations: Vec<String> = Vec::new();

        // --- reference: the same workload with no faults installed ----
        qrank_chaos::clear();
        let ref_handle = Arc::new(ShardedStore::new(1));
        let (mut ref_engine, _) = RefreshEngine::open_durable(
            RefreshConfig::default(),
            &durable(&root.join("reference")),
            Arc::clone(&ref_handle),
            Some(&series),
        )
        .map_err(|e| CliError::Runtime(e.to_string()))?;
        for d in &deltas {
            ref_engine
                .ingest(d)
                .map_err(|e| CliError::Runtime(format!("reference ingest: {e}")))?;
        }
        let reference_generation = ref_handle.current().generation();
        eprintln!(
            "reference: {} deltas ingested, generation {reference_generation}",
            deltas.len()
        );

        // --- phase 1: transient WAL append errors vs bounded retry ----
        // The first journal append fails three consecutive times; the
        // standard 5-attempt policy must ride it out, so every delta
        // still lands and the store matches the reference bit for bit.
        let retry_handle = Arc::new(ShardedStore::new(1));
        let (mut retry_engine, _) = RefreshEngine::open_durable(
            RefreshConfig::default(),
            &durable(&root.join("wal-retry")),
            Arc::clone(&retry_handle),
            Some(&series),
        )
        .map_err(|e| CliError::Runtime(e.to_string()))?;
        retry_engine.set_wal_retry(RetryPolicy::standard(seed));
        // Arm the plan only after the seed is journaled: the injected
        // window covers live ingestion, which is what the retry policy
        // protects.
        qrank_chaos::install(FaultPlan::new(seed).with_rule(FaultRule {
            site: "wal.append".into(),
            kind: FaultKind::Error,
            start: 1,
            every: 1,
            count: 3,
        }));
        let mut retry_errors = 0u64;
        for d in &deltas {
            if let Err(e) = retry_engine.ingest(d) {
                retry_errors += 1;
                eprintln!("phase 1: ingest failed despite retry: {e}");
            }
        }
        let retry_injected = qrank_chaos::status().map_or(0, |(_, n)| n);
        let retry_mismatch = bitwise_mismatch(&ref_handle, &retry_handle);
        if retry_errors > 0 {
            violations.push(format!(
                "wal-retry: {retry_errors} delta(s) failed despite the retry policy"
            ));
        }
        if retry_injected == 0 {
            violations.push("wal-retry: no faults were injected (hooks inert?)".into());
        }
        if let Some(why) = &retry_mismatch {
            violations.push(format!("wal-retry: store diverged from reference: {why}"));
        }
        eprintln!(
            "phase 1 (wal-retry): {retry_injected} fault(s) injected, {retry_errors} ingest \
             error(s), store {}",
            if retry_mismatch.is_none() {
                "BITWISE IDENTICAL"
            } else {
                "DIVERGED"
            }
        );

        // --- phase 2: refresh panic containment + liveness -------------
        // Delta 3 (1-based) panics inside ingest *before* it reaches the
        // journal. The worker must quarantine it, poison itself, keep
        // the last sealed generation serving, and quarantine the
        // remaining deltas rather than ingesting them out of order.
        let crash_dir = root.join("crash");
        let quarantine = crash_dir.join("quarantine.deltas");
        let panic_at = 3u64.min(deltas.len() as u64);
        qrank_chaos::clear();
        let crash_handle = Arc::new(ShardedStore::new(1));
        let (crash_engine, _) = RefreshEngine::open_durable(
            RefreshConfig::default(),
            &durable(&crash_dir),
            Arc::clone(&crash_handle),
            Some(&series),
        )
        .map_err(|e| CliError::Runtime(e.to_string()))?;
        // Seeding itself runs ingest cycles, so arm the panic only once
        // the engine is live: hit N of `refresh.ingest` is then exactly
        // the N-th streamed delta.
        qrank_chaos::install(FaultPlan::new(seed).with_rule(FaultRule {
            site: "refresh.ingest".into(),
            kind: FaultKind::Panic,
            start: panic_at,
            every: 1,
            count: 1,
        }));
        let server = serve(
            Arc::clone(&crash_handle),
            &ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                ..Default::default()
            },
        )
        .map_err(|e| CliError::Runtime(e.to_string()))?;
        let (tx, join) = spawn_refresh_worker_with(
            crash_engine,
            RefreshWorkerOptions {
                quarantine: Some(quarantine.clone()),
            },
        );
        // The injected panic is the point of this phase; silence the
        // default hook's backtrace while the worker absorbs it.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for d in &deltas {
            tx.send(RefreshMsg::Delta(d.clone()))
                .map_err(|e| CliError::Runtime(e.to_string()))?;
        }
        tx.send(RefreshMsg::Shutdown)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        let joined = join.join();
        std::panic::set_hook(default_hook);
        let (poisoned_engine, worker_errors) =
            joined.map_err(|_| CliError::Runtime("refresh worker escaped containment".into()))?;
        drop(poisoned_engine);
        let sealed_generation = crash_handle.current().generation();
        let expected_sealed = panic_at; // seed gen 1 + (panic_at - 1) ingested deltas
        if sealed_generation != expected_sealed {
            violations.push(format!(
                "containment: sealed generation {sealed_generation}, expected {expected_sealed}"
            ));
        }
        if !worker_errors.iter().any(|e| e.contains("panicked")) {
            violations.push("containment: no panic was reported by the worker".into());
        }
        // Liveness: the poisoned worker must not take the serve path
        // down — probes and reads still answer from the sealed view.
        let health = ask(server.addr(), "health")?;
        let ready = ask(server.addr(), "ready")?;
        let score = ask(server.addr(), "score 0")?;
        let live = health.contains(r#""status":"serving""#)
            && ready.contains(r#""ready":true"#)
            && score.contains(r#""ok":true"#);
        if !live {
            violations.push(format!(
                "containment: server not live after panic: health={} ready={} score={}",
                health.trim(),
                ready.trim(),
                score.trim()
            ));
        }
        server.shutdown();
        let quarantined_text = std::fs::read_to_string(&quarantine).unwrap_or_default();
        let quarantined = parse_deltas(&quarantined_text)
            .map_err(|e| CliError::Runtime(format!("quarantine file unparseable: {e}")))?;
        let expected_quarantined = deltas.len() as u64 - (panic_at - 1);
        if quarantined.len() as u64 != expected_quarantined {
            violations.push(format!(
                "containment: {} delta(s) quarantined, expected {expected_quarantined}",
                quarantined.len()
            ));
        }
        eprintln!(
            "phase 2 (containment): panic at delta {panic_at}, sealed generation \
             {sealed_generation} kept serving (live: {live}), {} delta(s) quarantined",
            quarantined.len()
        );

        // --- phase 3: recovery + quarantine re-ingest ------------------
        // Faults off, the crashed directory recovers to exactly the
        // pre-panic state, and replaying the quarantine file converges
        // bitwise on the clean reference.
        qrank_chaos::clear();
        let recovered_handle = Arc::new(ShardedStore::new(1));
        let (mut recovered_engine, report) = RefreshEngine::open_durable(
            RefreshConfig::default(),
            &durable(&crash_dir),
            Arc::clone(&recovered_handle),
            None,
        )
        .map_err(|e| CliError::Runtime(e.to_string()))?;
        if recovered_handle.current().generation() != expected_sealed {
            violations.push(format!(
                "recovery: recovered generation {}, expected {expected_sealed}",
                recovered_handle.current().generation()
            ));
        }
        for d in &quarantined {
            if let Err(e) = recovered_engine.ingest(d) {
                violations.push(format!("recovery: quarantined delta re-ingest failed: {e}"));
            }
        }
        let recovery_mismatch = bitwise_mismatch(&ref_handle, &recovered_handle);
        if let Some(why) = &recovery_mismatch {
            violations.push(format!("recovery: store diverged from reference: {why}"));
        }
        eprintln!(
            "phase 3 (recovery): {} record(s) replayed, quarantine re-ingested, store {}",
            report.replayed_records,
            if recovery_mismatch.is_none() {
                "BITWISE IDENTICAL"
            } else {
                "DIVERGED"
            }
        );

        let json = Obj::new()
            .int("seed", seed)
            .int("pages", pages as u64)
            .int("deltas", deltas.len() as u64)
            .raw(
                "wal_retry",
                &Obj::new()
                    .int("injected", retry_injected)
                    .int("ingest_errors", retry_errors)
                    .bool("bitwise_identical", retry_mismatch.is_none())
                    .finish(),
            )
            .raw(
                "containment",
                &Obj::new()
                    .int("panic_at_delta", panic_at)
                    .int("sealed_generation", sealed_generation)
                    .bool("served_while_poisoned", live)
                    .int("quarantined", quarantined.len() as u64)
                    .finish(),
            )
            .raw(
                "recovery",
                &Obj::new()
                    .int("replayed_records", report.replayed_records)
                    .bool("bitwise_identical", recovery_mismatch.is_none())
                    .finish(),
            )
            .bool("ok", violations.is_empty())
            .finish();
        write_output(p.get("out"), &format!("{json}\n"))?;
        let _ = std::fs::remove_dir_all(&root);
        if violations.is_empty() {
            eprintln!("chaos-test: all invariants held (seed {seed})");
            Ok(())
        } else {
            Err(CliError::Runtime(format!(
                "chaos-test violated {} invariant(s): {}",
                violations.len(),
                violations.join("; ")
            )))
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn argv(s: &[&str]) -> Vec<String> {
            s.iter().map(|x| x.to_string()).collect()
        }

        #[test]
        fn chaos_scenario_holds_all_invariants() {
            // The chaos plan is process-global state; this is the only
            // CLI test that installs one, and `run` clears it on exit.
            let dir = std::env::temp_dir().join("qrank_cli_test_chaos");
            std::fs::create_dir_all(&dir).unwrap();
            let out = dir.join("chaos.json");
            run(&argv(&["--pages", "120", "--out", out.to_str().unwrap()])).unwrap();
            let json = std::fs::read_to_string(&out).unwrap();
            assert!(json.contains(r#""ok":true"#), "{json}");
            assert!(json.contains(r#""served_while_poisoned":true"#), "{json}");
        }

        #[test]
        fn input_validation() {
            assert!(matches!(
                run(&argv(&["--pages", "2"])),
                Err(CliError::Usage(_))
            ));
            assert!(matches!(
                run(&argv(&["--seed", "nope"])),
                Err(CliError::Usage(_))
            ));
        }
    }
}
