//! `refresh_durable`: the write path. A durable engine ingests a
//! heavy-tailed delta stream, is killed without a checkpoint, and the
//! directory is reopened.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use qrank_core::{run_pipeline, PipelineConfig, PipelineReport};
use qrank_graph::SnapshotSeries;
use qrank_rank::solve_auto;
use qrank_serve::{
    DurabilityConfig, EdgeDelta, FsyncPolicy, RefreshConfig, RefreshEngine, ShardedStore,
};
use qrank_wal::{encode_delta, DeltaRecord, Wal, WalOptions};

use crate::check::{store_mismatch, store_vs_report};
use crate::gen::Web;
use crate::stats::{
    median, median_by, overhead_pct, percentile_sorted, tail_percentile, unattributed_pct,
};
use crate::sys::ScratchDir;
use crate::{Budget, Measured, Pass, RunConfig, SETUPS};

/// Deltas per stream.
pub const DELTAS: usize = 40;
/// Seed snapshots: edge prefixes of the web, all pages present.
const SEED_FRACS: [f64; 3] = [0.7, 0.8, 0.9];
const CHECKPOINT_EVERY: u64 = 16;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

struct Inputs {
    series: SnapshotSeries,
    deltas: Vec<EdgeDelta>,
}

/// A web of `pages` pages, its three seed snapshots, and `DELTAS`
/// deltas whose sizes are Pareto(1.2) — most are small, a few are two
/// orders of magnitude larger.
fn inputs(cfg: &RunConfig) -> Inputs {
    let pages = cfg.scaled(120_000, 100);
    let (min, cap) = (
        (50.0 * cfg.scale).max(2.0),
        (20_000.0 * cfg.scale).max(20.0),
    );
    let mut web = Web::grow(pages, cfg.seed);
    let series = web.fixed_series(&SEED_FRACS);
    let deltas = web.deltas(DELTAS, SEED_FRACS.len() as f64, cfg.seed, |r| {
        r.pareto(1.2, min, cap) as usize
    });
    Inputs { series, deltas }
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::default(),
        checkpoint_every: CHECKPOINT_EVERY,
    }
}

/// One kill-and-recover cycle.
struct Cycle {
    setup_s: f64,
    ingest_ms: Vec<f64>,
    stream_s: f64,
    recovery_s: f64,
    wal_open_ms: f64,
    replayed: u64,
    segments: u64,
    syncs: u64,
    checkpoint_ms: f64,
    checkpoint_bytes: usize,
    /// Stage times of a non-durable twin fed the same stream, ingest
    /// for ingest beside the durable engine (probed cycles only).
    twin: Option<Twin>,
    /// The recovered engine's window, for the cold-recompute check.
    window: SnapshotSeries,
    recovered: Arc<ShardedStore>,
}

/// Seed a durable engine, stream the deltas through it, drop it
/// without a checkpoint, reopen the directory. With `probe` on, a
/// non-durable twin takes each delta right after the durable engine
/// (`apply_delta`, `push_snapshot`, `rerank` timed apart), `Wal::open`
/// on the killed directory and a `checkpoint_now` are timed, and syncs
/// are counted — all outside the figures of the plain cycles.
fn cycle(cfg: &RunConfig, m: &mut Measured, probe: bool) -> Result<Cycle, String> {
    let t = Instant::now();
    let Inputs { series, deltas } = inputs(cfg);
    let dir = ScratchDir::new("refresh").map_err(|e| e.to_string())?;
    let live = Arc::new(ShardedStore::new(1));
    let (mut engine, _) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &durability(dir.path()),
        Arc::clone(&live),
        Some(&series),
    )
    .map_err(|e| format!("open_durable (seed): {e}"))?;
    let setup_s = t.elapsed().as_secs_f64();

    let mut twin = None;
    if probe {
        twin = Some(Twin::seed(&series)?);
        qrank_obs::reset();
        qrank_obs::set_enabled(true);
    }
    let stream = Instant::now();
    let mut ingest_ms = Vec::with_capacity(deltas.len());
    for (i, delta) in deltas.iter().enumerate() {
        m.attempted += 1;
        let t = Instant::now();
        let outcome = engine.ingest(delta);
        // the delta counts as refreshed once its generation is what
        // readers see
        let visible = live.current().generation();
        let took = ms(t);
        match outcome {
            Ok(Some(stats)) if stats.generation == i as u64 + 2 && visible == stats.generation => {
                ingest_ms.push(took);
            }
            Ok(other) => {
                m.failed += 1;
                m.fail(format!(
                    "ingest {i}: published {other:?}, readers see {visible}"
                ));
            }
            Err(e) => {
                m.failed += 1;
                m.fail(format!("ingest {i}: {e}"));
            }
        }
        if let Some(twin) = twin.as_mut() {
            twin.ingest(delta)?;
        }
    }
    let stream_s = stream.elapsed().as_secs_f64();
    let syncs = if probe {
        qrank_obs::set_enabled(false);
        qrank_obs::global()
            .snapshot()
            .counter("wal.sync")
            .unwrap_or(0)
    } else {
        0
    };
    let segments = engine.wal_stats().map_or(0, |s| s.segments);
    drop(engine); // the kill: no checkpoint_now, no sync

    let mut wal_open_ms = 0.0;
    if probe {
        let t = Instant::now();
        let opened = Wal::open(dir.path(), WalOptions::default());
        wal_open_ms = ms(t);
        opened.map_err(|e| format!("Wal::open on the killed directory: {e}"))?;
    }

    m.attempted += 1;
    let recovered = Arc::new(ShardedStore::new(1));
    let t = Instant::now();
    let reopened = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &durability(dir.path()),
        Arc::clone(&recovered),
        None,
    );
    let generation = recovered.current().generation();
    let recovery_s = t.elapsed().as_secs_f64();
    let (mut engine, report) = match reopened {
        Ok(r) => r,
        Err(e) => {
            m.failed += 1;
            return Err(format!("open_durable (recover): {e}"));
        }
    };
    let want = DELTAS as u64 + 1;
    if generation != want || engine.generation() != want {
        m.fail(format!("recovered generation {generation}, want {want}"));
    }
    if !report.replay_errors.is_empty() {
        m.fail(format!("replay errors: {:?}", report.replay_errors));
    }
    if let Some(diff) = store_mismatch(&live.current(), &recovered.current()) {
        m.fail(format!(
            "recovered store differs from the uninterrupted one: {diff}"
        ));
    }

    let (mut checkpoint_ms, mut checkpoint_bytes) = (0.0, 0);
    if probe {
        let t = Instant::now();
        let done = engine.checkpoint_now();
        checkpoint_ms = ms(t);
        done.map_err(|e| format!("checkpoint_now: {e}"))?;
        checkpoint_bytes = qrank_wal::inspect(dir.path())
            .map_err(|e| e.to_string())?
            .checkpoints
            .iter()
            .map(|c| c.payload_bytes as usize)
            .max()
            .unwrap_or(0);
    }
    Ok(Cycle {
        setup_s,
        ingest_ms,
        stream_s,
        recovery_s,
        wal_open_ms,
        replayed: report.replayed_records,
        segments,
        syncs,
        checkpoint_ms,
        checkpoint_bytes,
        twin,
        window: engine.series().clone(),
        recovered,
    })
}

/// A non-durable engine and the stage times of its ingests.
struct Twin {
    engine: RefreshEngine,
    apply_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    rerank_ms: Vec<f64>,
    columns_solved: u64,
    columns_reused: u64,
}

impl Twin {
    fn seed(series: &SnapshotSeries) -> Result<Twin, String> {
        let store = Arc::new(ShardedStore::new(1));
        let engine = RefreshEngine::from_series(series, RefreshConfig::default(), store)
            .map_err(|e| format!("twin seed: {e}"))?;
        Ok(Twin {
            engine,
            apply_ms: Vec::new(),
            snapshot_ms: Vec::new(),
            rerank_ms: Vec::new(),
            columns_solved: 0,
            columns_reused: 0,
        })
    }

    /// What `ingest` does after journaling, one public call at a time.
    fn ingest(&mut self, delta: &EdgeDelta) -> Result<(), String> {
        let t = Instant::now();
        self.engine.apply_delta(delta).map_err(|e| e.to_string())?;
        self.apply_ms.push(ms(t));
        let t = Instant::now();
        self.engine
            .push_snapshot(delta.time)
            .map_err(|e| e.to_string())?;
        self.snapshot_ms.push(ms(t));
        let t = Instant::now();
        let stats = self.engine.rerank().map_err(|e| e.to_string())?;
        self.rerank_ms.push(ms(t));
        let stats = stats.ok_or("twin rerank published nothing")?;
        self.columns_solved = stats.columns_solved;
        self.columns_reused = stats.columns_reused;
        Ok(())
    }
}

/// The WAL layer alone: encode and append the same deltas to a scratch
/// log, sync it, checkpoint it with a payload as large as the engine's.
fn wal_probe(cfg: &RunConfig, checkpoint_bytes: usize, m: &mut Measured) -> Result<(), String> {
    let Inputs { deltas, .. } = inputs(cfg);
    let dir = ScratchDir::new("wal").map_err(|e| e.to_string())?;
    let (mut wal, _) = Wal::open(dir.path(), WalOptions::default()).map_err(|e| e.to_string())?;
    let (mut encode_us, mut append_us) = (Vec::new(), Vec::new());
    let mut edges = 0usize;
    for d in &deltas {
        let record = DeltaRecord {
            time: d.time,
            new_pages: d.new_pages.clone(),
            added: d.added.clone(),
            removed: d.removed.clone(),
            ..Default::default()
        };
        edges += d.added.len() + d.removed.len();
        let t = Instant::now();
        let payload = encode_delta(&record);
        encode_us.push(ms(t) * 1e3);
        let t = Instant::now();
        wal.append(&payload).map_err(|e| e.to_string())?;
        append_us.push(ms(t) * 1e3);
    }
    let t = Instant::now();
    wal.sync().map_err(|e| e.to_string())?;
    m.layer("wal.sync_ms", ms(t));
    let journal_bytes: u64 = qrank_wal::inspect(dir.path())
        .map_err(|e| e.to_string())?
        .segments
        .iter()
        .map(|s| s.bytes)
        .sum();
    let t = Instant::now();
    wal.checkpoint(&vec![0xA5; checkpoint_bytes])
        .map_err(|e| e.to_string())?;
    m.layer("wal.checkpoint_ms", ms(t));
    m.layer("wal.encode_us", median(&encode_us));
    m.layer("wal.append_us", median(&append_us));
    m.layer(
        "wal.write_amp",
        journal_bytes as f64 / (16.0 * edges.max(1) as f64),
    );
    Ok(())
}

/// `refresh_durable`.
pub fn run(cfg: &RunConfig) -> Measured {
    let mut m = Measured::default();
    let budget = Budget::start(cfg.seconds);
    let mut plain: Vec<Cycle> = Vec::new();
    let mut probed: Vec<Cycle> = Vec::new();
    // every cycle consumes its engine, so set-up repeats per pass; at
    // least SETUPS passes give a plain run's setup_s its median
    let min_plain = if cfg.trace { 1 } else { SETUPS };
    while budget.open() || plain.len() < min_plain || (cfg.trace && probed.is_empty()) {
        let probe = cfg.trace && probed.len() < plain.len();
        match cycle(cfg, &mut m, probe) {
            Ok(c) if probe => probed.push(c),
            Ok(c) => plain.push(c),
            Err(e) => {
                m.fail(e);
                return m;
            }
        }
    }

    let tail = tail_percentile(DELTAS);
    for c in &plain {
        let mut sorted = c.ingest_ms.clone();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            m.fail("no ingest succeeded");
            return m;
        }
        m.setups_s.push(c.setup_s);
        m.passes.push(Pass {
            wall_s: c.stream_s + c.recovery_s,
            ops_per_s: DELTAS as f64 / c.stream_s,
            op_p50_ms: percentile_sorted(&sorted, 0.50),
            op_tail_ms: percentile_sorted(&sorted, tail),
        });
    }

    // the served scores are what a cold run over the same window gives
    let last = plain.last().expect("at least one plain cycle");
    match run_pipeline(&last.window, &PipelineConfig::default()) {
        Ok(report) => {
            if let Some(diff) = store_vs_report(&last.recovered.current(), &report) {
                m.fail(diff);
            }
            m.fact("pages", report.pages.len());
        }
        Err(e) => m.fail(format!("cold pipeline over the recovered window: {e}")),
    }
    // Quality is read off the seed window (generation 1): its snapshots
    // differ by a tenth of the web each. The final window's differ by a
    // few hundred edges, too few pages change for a steady ratio.
    let seed_report = match run_pipeline(&inputs(cfg).series, &PipelineConfig::default()) {
        Ok(report) => report,
        Err(e) => {
            m.fail(format!("cold pipeline over the seed window: {e}"));
            return m;
        }
    };
    m.improvement = seed_report.improvement_factor();
    m.fact("passes", plain.len());
    m.fact("tail_percentile", tail);
    m.fact("replayed_records", last.replayed);

    if cfg.trace {
        if let Err(e) = trace_layers(cfg, &mut m, &plain, &probed, &seed_report) {
            m.fail(e);
        }
    }
    m
}

fn trace_layers(
    cfg: &RunConfig,
    m: &mut Measured,
    plain: &[Cycle],
    probed: &[Cycle],
    seed_report: &PipelineReport,
) -> Result<(), String> {
    let med = |of: fn(&Cycle) -> f64, cycles: &[Cycle]| median_by(cycles, of);
    let last = probed.last().expect("trace mode ran a probed cycle");
    let recovery_s = med(|c| c.recovery_s, plain);
    let wal_open_ms = med(|c| c.wal_open_ms, probed);
    m.layer("refresh.recovery_s", recovery_s);
    m.layer("wal.open_ms", wal_open_ms);
    m.layer("refresh.replay_s", recovery_s - wal_open_ms / 1e3);
    m.layer("refresh.replayed_records", last.replayed as f64);
    m.layer("refresh.checkpoint_ms", med(|c| c.checkpoint_ms, probed));
    m.layer("refresh.publishes", (DELTAS + 1) as f64);
    m.layer(
        "refresh.visible_p50_ms",
        med(|c| median(&c.ingest_ms), plain),
    );
    m.layer("wal.syncs", last.syncs as f64);
    m.layer("wal.segments", last.segments as f64);

    // the twin ran ingest for ingest beside the probed durable engine,
    // so the two are compared under the same process state
    let twin = last.twin.as_ref().expect("a probed cycle carries its twin");
    let (apply, snapshot, rerank) = (
        median(&twin.apply_ms),
        median(&twin.snapshot_ms),
        median(&twin.rerank_ms),
    );
    let durable_ms = median(&last.ingest_ms);
    m.layer("refresh.apply_ms", apply);
    m.layer("refresh.snapshot_ms", snapshot);
    m.layer("refresh.rerank_ms", rerank);
    m.layer(
        "refresh.journal_ms",
        durable_ms - (apply + snapshot + rerank),
    );
    m.layer("core.columns_solved", twin.columns_solved as f64);
    m.layer("core.columns_reused", twin.columns_reused as f64);

    // one cold solve of the newest snapshot: what each ingest's single
    // re-solved column costs
    let newest = last.window.snapshots().last().ok_or("empty window")?;
    if let qrank_core::PopularityMetric::PageRank(rank_cfg) = &PipelineConfig::default().metric {
        let t = Instant::now();
        let solved = solve_auto(&newest.graph, rank_cfg, None);
        let solve_s = t.elapsed().as_secs_f64();
        m.layer("pagerank.solve_s", solve_s);
        m.layer("pagerank.iterations", solved.iterations as f64);
        m.layer(
            "pagerank.edges_per_s",
            newest.graph.num_edges() as f64 * solved.iterations as f64 / solve_s,
        );
    }

    // publish cost (any report over these pages costs the same) and
    // the WAL layer on its own
    let scratch = ShardedStore::new(1);
    let t = Instant::now();
    scratch.publish_report(seed_report, 1, newest.time);
    m.layer("store.publish_ms", ms(t));
    wal_probe(cfg, last.checkpoint_bytes, m)?;

    let journal = (m.layers["wal.encode_us"] + m.layers["wal.append_us"]) / 1e3;
    m.layer(
        "bench.unattributed_pct",
        unattributed_pct(durable_ms, &[journal, apply, snapshot, rerank]),
    );
    m.layer(
        "bench.trace_overhead_pct",
        // the ingests alone: a probed stream also runs the twin
        overhead_pct(
            med(|c| c.ingest_ms.iter().sum(), probed),
            med(|c| c.ingest_ms.iter().sum(), plain),
        ),
    );
    Ok(())
}
