//! Incremental re-ranking: edge deltas in, score generations out.
//!
//! The [`RefreshEngine`] owns a [`DynamicGraph`] plus a sliding window
//! of snapshots. Each ingested [`EdgeDelta`] appends graph events,
//! captures a new snapshot, recomputes quality estimates, and publishes
//! a fresh [`ScoreStore`](crate::ScoreStore) generation — all off the
//! request path, on the thread [`crate::worker`] runs it on. The graph
//! is the engine's one copy of the web: checkpoints read their alive
//! edges from it.
//!
//! ## One incremental path
//!
//! All recomputation is delegated to the core stage engine
//! ([`qrank_core::PipelineEngine`]), which caches fingerprint-keyed
//! aligned snapshots and PageRank trajectory columns between reranks.
//! This module used to carry its own column cache and window-shape
//! detection; now serve only decides *when* to rerank, and the engine
//! decides *what* to recompute:
//!
//! * **append** (window grew by one, common page set unchanged) — one
//!   column solved, the rest reused;
//! * **window slide** (oldest snapshot dropped off, common set
//!   unchanged) — still one column solved, every surviving column
//!   reused;
//! * **common-set change** (a page entered or left the intersection) —
//!   every column's input graph changed, so the whole window re-solves.
//!
//! Every column the engine serves from cache is *bitwise* the vector a
//! cold [`qrank_core::run_pipeline`] would compute (columns are solved
//! from the metric's canonical start, never chained), so published
//! stores are bit-for-bit independent of refresh history. The
//! [`RefreshStats`] of each publish report how many columns were solved
//! versus reused.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use qrank_core::{PipelineConfig, PipelineEngine, PipelineReport};
use qrank_graph::{CsrGraph, DynamicGraph, NodeId, PageId, Snapshot, SnapshotSeries};
use qrank_obs::trace::Tracer;

use crate::delta::EdgeDelta;
use crate::durability::{self, DurabilityConfig, Journal, RecoveryReport, RetryPolicy};
use crate::error::ServeError;
use crate::shard::ShardedStore;

/// Refresh-worker configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshConfig {
    /// Metric, Equation 1 estimator and report filter of every rerank
    /// (default: the paper's setup).
    pub pipeline: PipelineConfig,
    /// Maximum snapshots kept in the estimation window (≥ 3; the paper
    /// uses 4). Older snapshots slide out.
    pub max_window: usize,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            pipeline: PipelineConfig::default(),
            max_window: 4,
        }
    }
}

/// What one successful rerank produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshStats {
    /// Generation number just published.
    pub generation: u64,
    /// Pages in the published store (the window's common page set).
    pub num_pages: usize,
    /// Snapshots in the estimation window (including the held-out one).
    pub window: usize,
    /// Trajectory columns the stage engine solved for this publish.
    pub columns_solved: u64,
    /// Trajectory columns served from the engine's cache.
    pub columns_reused: u64,
}

/// The incremental re-ranking engine.
///
/// Single-owner (typically a dedicated worker thread); publishes results
/// through a shared [`ShardedStore`] (each publish builds the
/// generation's store and swaps the sealed view once) so the request
/// path never waits on a rerank.
#[derive(Debug)]
pub struct RefreshEngine {
    cfg: RefreshConfig,
    graph: DynamicGraph,
    node_of_page: HashMap<u64, NodeId>,
    page_of_node: Vec<u64>,
    series: SnapshotSeries,
    /// Length of `graph`'s event log when the newest snapshot of
    /// `series` was captured from it: with that snapshot's graph, the
    /// base the next capture extends. `None` while the window is empty
    /// or restored from a checkpoint (its snapshots are not of the
    /// rebuilt log).
    captured_events: Option<usize>,
    pipeline: PipelineEngine,
    handle: Arc<ShardedStore>,
    generation: u64,
    journal: Option<Journal>,
    tracer: Option<Arc<Tracer>>,
}

impl RefreshEngine {
    /// An empty engine publishing through `handle`.
    pub fn new(cfg: RefreshConfig, handle: Arc<ShardedStore>) -> Result<Self, ServeError> {
        if cfg.max_window < 3 {
            return Err(ServeError::Config(format!(
                "max_window must be >= 3 (estimation window + held-out future), got {}",
                cfg.max_window
            )));
        }
        let pipeline = PipelineEngine::new(cfg.pipeline.metric.clone());
        Ok(RefreshEngine {
            cfg,
            graph: DynamicGraph::new(),
            node_of_page: HashMap::new(),
            page_of_node: Vec::new(),
            series: SnapshotSeries::new(),
            captured_events: None,
            pipeline,
            handle,
            generation: 0,
            journal: None,
            tracer: None,
        })
    }

    /// Attach (or detach) a request tracer. Every subsequent live
    /// [`RefreshEngine::ingest`] records a *forced* (never sampled-out)
    /// `refresh` trace whose stages are the cycle's spans — `wal.append`,
    /// `refresh.apply`, `refresh.snapshot`, `refresh.rerank` and, when
    /// due, `refresh.checkpoint`, each with its children — and feeds the
    /// cycle's wall time into the tracer's per-verb histograms and SLO
    /// monitor.
    /// Recovery in [`RefreshEngine::open_durable`] happens before any
    /// tracer can be attached and stays span-level (`refresh.recover`
    /// over `refresh.restore`, `refresh.replay` and one
    /// `refresh.rerank`).
    pub fn set_tracer(&mut self, tracer: Option<Arc<Tracer>>) {
        self.tracer = tracer;
    }

    /// Seed an engine from an existing snapshot series (e.g. loaded from
    /// disk or produced by the simulator's crawler), then rerank once.
    ///
    /// Snapshots are replayed as deltas, so subsequent ingests continue
    /// seamlessly from the last snapshot's time.
    pub fn from_series(
        series: &SnapshotSeries,
        cfg: RefreshConfig,
        handle: Arc<ShardedStore>,
    ) -> Result<Self, ServeError> {
        let mut engine = Self::new(cfg, handle)?;
        for snap in series.snapshots() {
            let delta = engine.delta_from_snapshot(snap);
            engine.apply_delta(&delta)?;
            engine.push_snapshot(snap.time)?;
        }
        engine.rerank()?;
        Ok(engine)
    }

    /// Open a *durable* engine rooted at `dur.dir`: recover the newest
    /// valid checkpoint, replay the WAL tail's effect on engine state,
    /// rank the window the tail leaves once, and journal every
    /// subsequent ingest write-ahead.
    ///
    /// The recovered engine publishes exactly what the uninterrupted
    /// process would have. The checkpoint pins the window and generation
    /// bitwise (snapshots are rebuilt so `snapshot_at` cannot tell the
    /// difference — see [`crate::durability`]). Each tail record then
    /// changes the graph and the window as its live ingest did and bumps
    /// the generation iff that ingest published — a question of window
    /// shape ([`qrank_core::check_window`]), not of solved values — so
    /// nothing is solved for generations no reader will ever see. A
    /// published store is a pure function of its window, hence one rank
    /// of the final window at the final generation serves the same bytes
    /// as a rank per record.
    ///
    /// `seed` is only consulted when the directory holds no history at
    /// all (fresh deployment): its snapshots are ingested — and
    /// journaled — as deltas, so the *next* boot recovers them from the
    /// log instead.
    ///
    /// A per-shard journal an earlier build wrote in `dur.dir` is
    /// refused with [`ServeError::Config`] (see [`crate::durability`]).
    pub fn open_durable(
        cfg: RefreshConfig,
        dur: &DurabilityConfig,
        handle: Arc<ShardedStore>,
        seed: Option<&SnapshotSeries>,
    ) -> Result<(Self, RecoveryReport), ServeError> {
        let _span = qrank_obs::span!("refresh.recover");
        let opened = durability::open_journal(dur)?;
        let mut report = opened.report;
        report.replayed_records = opened.deltas.len() as u64;
        let mut engine = Self::new(cfg, handle)?;
        if let Some(payload) = &opened.checkpoint {
            let _s = qrank_obs::span!("refresh.restore");
            engine.restore(durability::decode_state(payload)?)?;
            report.checkpoint_generation = Some(engine.generation);
        }
        {
            let _s = qrank_obs::span!("refresh.replay");
            for (lsn, delta) in &opened.deltas {
                // A rejected delta left the original process's state
                // exactly as the partial apply did; replaying it does
                // the same, so record the rejection and keep going —
                // both histories agree.
                if let Err(e) = engine.replay(delta) {
                    report.replay_errors.push(format!("lsn {lsn}: {e}"));
                }
            }
        }
        // One rank for the whole tail. An engine's snapshots only ever
        // gain pages, so once a window has a common page every later one
        // does: if any generation was published, the final window is the
        // newest of them. A window that never published (still filling,
        // or pageless so far) left readers nothing, and leaves them
        // nothing here.
        if qrank_core::check_window(&engine.series).is_ok() {
            engine.republish()?;
        }
        engine.journal = Some(opened.journal);
        if report.checkpoint_generation.is_none() && report.replayed_records == 0 {
            if let Some(series) = seed {
                for snap in series.snapshots() {
                    let delta = engine.delta_from_snapshot(snap);
                    engine.ingest_inner(&delta)?;
                }
            }
        }
        Ok((engine, report))
    }

    /// Rebuild engine state from a checkpoint; nothing is published (the
    /// caller ranks once the WAL tail is in). The dynamic graph is
    /// reconstructed as "every page born at the last snapshot time,
    /// every alive edge added then": all future `snapshot_at(t)` calls
    /// (ingest times never decrease) see the same alive sets a replay of
    /// the full event history would produce, and the CSR layer orders
    /// edges canonically, so the rebuilt snapshots are bitwise identical.
    fn restore(&mut self, state: durability::CheckpointState) -> Result<(), ServeError> {
        let t = if state.last_time.is_finite() {
            state.last_time
        } else {
            0.0
        };
        let mut graph = DynamicGraph::new();
        let mut node_of_page = HashMap::with_capacity(state.page_of_node.len());
        for &p in &state.page_of_node {
            let n = graph.add_node(t)?;
            node_of_page.insert(p, n);
        }
        for &(s, d) in &state.edges {
            let sn = *node_of_page.get(&s).ok_or(ServeError::UnknownPage(s))?;
            let dn = *node_of_page.get(&d).ok_or(ServeError::UnknownPage(d))?;
            graph.add_edge(sn, dn, t)?;
        }
        self.graph = graph;
        self.node_of_page = node_of_page;
        self.page_of_node = state.page_of_node;
        self.series = state.series;
        self.captured_events = None;
        self.generation = state.generation;
        Ok(())
    }

    /// What a live [`ingest`](Self::ingest) of `delta` did to the graph,
    /// the window and the generation counter — everything but the solve
    /// and the publish. An error is the one the ingest returned, with
    /// the state it left behind.
    fn replay(&mut self, delta: &EdgeDelta) -> Result<(), ServeError> {
        self.apply_delta(delta)?;
        self.push_snapshot(delta.time)?;
        if self.series.len() >= 3 {
            let shape = qrank_core::check_window(&self.series);
            debug_assert!(
                shape.is_ok() || self.generation == 0,
                "snapshots only gain pages: no window loses its common pages after a publish"
            );
            shape?;
            self.generation += 1;
        }
        Ok(())
    }

    /// Rank the current window. `None` while it holds fewer than three
    /// snapshots; those passes still warm the stage engine's caches so
    /// the first publishable refresh only solves what is genuinely new.
    fn rank(&mut self) -> Result<Option<PipelineReport>, ServeError> {
        if self.series.len() < 3 {
            self.pipeline.warm(&self.series)?;
            return Ok(None);
        }
        let pipeline = &self.cfg.pipeline;
        let report = self.pipeline.run(
            &self.series,
            &pipeline.estimator(),
            pipeline.min_relative_change,
        )?;
        Ok(Some(report))
    }

    /// Hand `report` — a rank of the current window — to readers under
    /// the current generation.
    fn publish(&self, report: &PipelineReport) {
        let newest = self.series.snapshots().last();
        let snapshot_time = newest.expect("a ranked window is not empty").time;
        self.handle
            .publish_report(report, self.generation, snapshot_time);
    }

    /// Publish the current window at the *current* generation — no bump.
    /// The one rank of a recovery: after a checkpoint restore and the
    /// tail's replay the store serves exactly what the recovered process
    /// served, including when there was nothing to replay.
    fn republish(&mut self) -> Result<(), ServeError> {
        let _span = qrank_obs::span!("refresh.rerank");
        if let Some(report) = self.rank()? {
            self.publish(&report);
        }
        Ok(())
    }

    /// Sync the journal and write a checkpoint of the engine's full
    /// state, compacting WAL segments it makes redundant. Returns the
    /// checkpoint's LSN, or `None` when the engine is not durable.
    ///
    /// The alive edges are the graph's own, materialized here by
    /// extending the newest capture with the events logged since — so a
    /// rejected delta's partial apply, which no snapshot holds, is
    /// checkpointed exactly as the graph keeps it.
    pub fn checkpoint_now(&mut self) -> Result<Option<u64>, ServeError> {
        if self.journal.is_none() {
            return Ok(None);
        }
        let _span = qrank_obs::span!("refresh.checkpoint");
        let payload = {
            let _s = qrank_obs::span!("refresh.checkpoint.encode");
            let alive = self
                .graph
                .graph_at_full_from(self.newest_capture(), f64::INFINITY);
            durability::encode_state(
                self.generation,
                &self.page_of_node,
                &alive.graph,
                &self.series,
            )
        };
        let journal = self.journal.as_mut().expect("checked above");
        Ok(Some(journal.checkpoint(&payload)?))
    }

    /// Journal geometry, when this engine is durable.
    pub fn wal_stats(&self) -> Option<qrank_wal::WalStats> {
        self.journal.as_ref().map(|j| j.stats())
    }

    /// Install a bounded exponential-backoff [`RetryPolicy`] for
    /// transient journal I/O errors (no-op on a non-durable engine).
    pub fn set_wal_retry(&mut self, policy: RetryPolicy) {
        if let Some(j) = self.journal.as_mut() {
            j.set_retry(policy);
        }
    }

    /// The handle this engine publishes through.
    pub fn handle(&self) -> Arc<ShardedStore> {
        Arc::clone(&self.handle)
    }

    /// Generation of the most recent publish (0 before the first).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The current snapshot window.
    pub fn series(&self) -> &SnapshotSeries {
        &self.series
    }

    /// Cache traffic of the stage engine's most recent rerank (or warm
    /// pass, while the window is still filling).
    pub fn stage_stats(&self) -> qrank_core::StageStats {
        self.pipeline.stats()
    }

    /// Diff `snap` against the newest snapshot of the window, producing
    /// the delta that replays it; `added` and `removed` come out in
    /// page-pair order. Only seeding calls this, and there every earlier
    /// snapshot was applied and captured whole before the next one is
    /// diffed, so the newest snapshot holds every alive page and edge.
    fn delta_from_snapshot(&self, snap: &Snapshot) -> EdgeDelta {
        let mut delta = EdgeDelta::at(snap.time);
        for p in snap.pages() {
            if !self.node_of_page.contains_key(&p.0) {
                delta.new_pages.push(p.0);
            }
        }
        let now = page_edges(snap);
        let was = self
            .series
            .snapshots()
            .last()
            .map(page_edges)
            .unwrap_or_default();
        let (mut i, mut j) = (0, 0);
        while i < now.len() && j < was.len() {
            match now[i].cmp(&was[j]) {
                Ordering::Less => {
                    delta.added.push(now[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    delta.removed.push(was[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        delta.added.extend_from_slice(&now[i..]);
        delta.removed.extend_from_slice(&was[j..]);
        delta
    }

    /// The newest snapshot's graph and the log length it was captured
    /// at — the base a capture or a full materialization extends —
    /// when the window's newest snapshot was captured from this log.
    fn newest_capture(&self) -> Option<(&CsrGraph, usize)> {
        self.captured_events
            .zip(self.series.snapshots().last())
            .map(|(events, newest)| (&newest.graph, events))
    }

    fn ensure_page(&mut self, page: u64, at: f64) -> Result<NodeId, ServeError> {
        if let Some(&n) = self.node_of_page.get(&page) {
            return Ok(n);
        }
        let n = self.graph.add_node(at)?;
        self.node_of_page.insert(page, n);
        self.page_of_node.push(page);
        Ok(n)
    }

    fn node(&self, page: u64) -> Result<NodeId, ServeError> {
        self.node_of_page
            .get(&page)
            .copied()
            .ok_or(ServeError::UnknownPage(page))
    }

    /// Append a delta's events to the dynamic graph (no snapshot yet).
    pub fn apply_delta(&mut self, delta: &EdgeDelta) -> Result<(), ServeError> {
        for &p in &delta.new_pages {
            self.ensure_page(p, delta.time)?;
        }
        for &(s, d) in &delta.added {
            let sn = self.ensure_page(s, delta.time)?;
            let dn = self.ensure_page(d, delta.time)?;
            self.graph.add_edge(sn, dn, delta.time)?;
        }
        for &(s, d) in &delta.removed {
            let sn = self.node(s)?;
            let dn = self.node(d)?;
            self.graph.remove_edge(sn, dn, delta.time)?;
        }
        Ok(())
    }

    /// Capture the graph at `t` as a snapshot and slide the window. The
    /// capture extends the newest snapshot's graph by the events logged
    /// since (`DynamicGraph::snapshot_at_from`), so it sorts a delta's
    /// events once and copies the rest; it is the snapshot
    /// `DynamicGraph::snapshot_at(t)` builds from nothing.
    pub fn push_snapshot(&mut self, t: f64) -> Result<(), ServeError> {
        let _span = qrank_obs::span!("refresh.snapshot");
        let (built, alive) = self.graph.snapshot_at_from(self.newest_capture(), t);
        if qrank_obs::enabled() {
            let registry = qrank_obs::global();
            registry
                .counter("refresh.snapshot.events_sorted")
                .add(built.events_sorted as u64);
            registry
                .counter("refresh.snapshot.edges_copied")
                .add(built.edges_copied as u64);
        }
        let pages: Vec<PageId> = alive
            .iter()
            .map(|&n| PageId(self.page_of_node[n as usize]))
            .collect();
        self.series.push(Snapshot::new(t, built.graph, pages)?)?;
        self.captured_events = Some(built.events);
        while self.series.len() > self.cfg.max_window {
            // Amortized O(1): no clone, no rebuild of the whole window.
            self.series.pop_front();
        }
        Ok(())
    }

    /// Recompute quality estimates over the current window and publish a
    /// new store generation.
    ///
    /// Returns `Ok(None)` while the window holds fewer than three
    /// snapshots; those reranks still warm the stage engine's caches so
    /// the first publishable refresh only solves what is genuinely new.
    /// The engine recomputes exactly the trajectory columns the window
    /// change invalidated (none for a pure re-rank, one for an append or
    /// slide, all of them when the common page set changes).
    pub fn rerank(&mut self) -> Result<Option<RefreshStats>, ServeError> {
        let _span = qrank_obs::span!("refresh.rerank");
        let Some(report) = self.rank()? else {
            return Ok(None);
        };
        let stage = self.pipeline.stats();
        self.generation += 1;
        let stats = RefreshStats {
            generation: self.generation,
            num_pages: report.pages.len(),
            window: self.series.len(),
            columns_solved: stage.columns_solved(),
            columns_reused: stage.columns_reused(),
        };
        self.publish(&report);
        Ok(Some(stats))
    }

    /// Apply a delta, snapshot at its time, and rerank — the worker's
    /// per-message unit of work. On a durable engine the delta is
    /// journaled *before* any state changes (write-ahead), and an
    /// automatic checkpoint is taken when the configured interval has
    /// elapsed.
    pub fn ingest(&mut self, delta: &EdgeDelta) -> Result<Option<RefreshStats>, ServeError> {
        let _span = qrank_obs::span!("refresh.ingest");
        let tracer = self.tracer.clone();
        let trace = tracer.as_deref().and_then(|t| t.begin("refresh"));
        let outcome = self.ingest_inner(delta);
        if let (Some(t), Some(mut tr)) = (tracer.as_deref(), trace) {
            match &outcome {
                Ok(Some(stats)) => tr.note(&format!(
                    "gen={} pages={} columns_solved={} columns_reused={}",
                    stats.generation, stats.num_pages, stats.columns_solved, stats.columns_reused
                )),
                Ok(None) => tr.note("window still filling; nothing published"),
                Err(e) => tr.note(&e.to_string()),
            }
            let total_ns = t.finish(tr, outcome.is_ok());
            t.observe("refresh", total_ns, outcome.is_ok());
        }
        outcome
    }

    /// The ingest body; its spans are the stages of the refresh trace
    /// [`Self::ingest`] holds current.
    fn ingest_inner(&mut self, delta: &EdgeDelta) -> Result<Option<RefreshStats>, ServeError> {
        // Chaos site sits before the write-ahead append: an injected
        // failure (error or panic) is a clean no-op on both engine state
        // and the journal, which is what makes post-fault recovery
        // comparisons exact.
        if crate::fault::chaos_fail("refresh.ingest") {
            return Err(ServeError::Io(std::io::Error::other(
                "chaos: injected refresh.ingest fault",
            )));
        }
        if let Some(j) = self.journal.as_mut() {
            j.append(delta)?;
        }
        {
            let _s = qrank_obs::span!("refresh.apply");
            self.apply_delta(delta)?;
        }
        self.push_snapshot(delta.time)?;
        let stats = self.rerank()?;
        if self.journal.as_ref().is_some_and(|j| j.due()) {
            self.checkpoint_now()?;
        }
        Ok(stats)
    }
}

/// `snap`'s edges as page pairs, sorted.
fn page_edges(snap: &Snapshot) -> Vec<(u64, u64)> {
    let pages = snap.pages();
    let mut edges: Vec<(u64, u64)> = snap
        .graph
        .edges()
        .map(|(s, d)| (pages[s as usize].0, pages[d as usize].0))
        .collect();
    edges.sort_unstable();
    edges
}

#[cfg(test)]
mod replay_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        handle_request, parse_deltas, spawn_refresh_worker, spawn_refresh_worker_with, FsyncPolicy,
        LruCache, Metrics, RefreshMsg, RefreshWorkerOptions,
    };
    use qrank_core::run_pipeline;
    use qrank_graph::CsrGraph;

    fn seed_series(snapshots: usize) -> SnapshotSeries {
        let pages: Vec<PageId> = (0..6).map(PageId).collect();
        let base = vec![(3u32, 2u32), (4, 2), (5, 2), (2, 0), (0, 2), (1, 0)];
        let riser: Vec<(u32, u32)> = vec![(3, 1), (4, 1), (5, 1), (0, 1), (2, 1)];
        let mut s = SnapshotSeries::new();
        for i in 0..snapshots {
            let mut edges = base.clone();
            edges.extend_from_slice(&riser[..(i + 1).min(riser.len())]);
            s.push(
                Snapshot::new(i as f64, CsrGraph::from_edges(6, &edges), pages.clone()).unwrap(),
            )
            .unwrap();
        }
        s
    }

    fn cfg() -> RefreshConfig {
        RefreshConfig::default()
    }

    fn assert_store_matches_cold(engine: &RefreshEngine) {
        let pipeline_cfg = PipelineConfig::default();
        let cold = run_pipeline(engine.series(), &pipeline_cfg).unwrap();
        let store = engine.handle().current();
        assert_eq!(store.len(), cold.pages.len());
        for (i, &p) in cold.pages.iter().enumerate() {
            let s = store.score(p).unwrap();
            assert_eq!(s.quality, cold.estimates[i], "bitwise quality for {p}");
            assert_eq!(s.pagerank, cold.current[i], "bitwise pagerank for {p}");
            assert_eq!(s.trend, cold.trends[i]);
        }
    }

    #[test]
    fn from_series_matches_cold_pipeline() {
        let engine =
            RefreshEngine::from_series(&seed_series(3), cfg(), Arc::new(ShardedStore::new(1)))
                .unwrap();
        assert_eq!(engine.generation(), 1);
        assert_store_matches_cold(&engine);
    }

    #[test]
    fn incremental_ingest_solves_only_the_new_column() {
        let mut engine =
            RefreshEngine::from_series(&seed_series(3), cfg(), Arc::new(ShardedStore::new(1)))
                .unwrap();
        let delta = EdgeDelta {
            time: 3.0,
            added: vec![(0, 1)],
            ..Default::default()
        };
        let stats = engine.ingest(&delta).unwrap().unwrap();
        assert_eq!(
            stats.columns_solved, 1,
            "append-only delta must reuse every cached column"
        );
        assert_eq!(stats.columns_reused, 3);
        assert_eq!(stats.generation, 2);
        assert_eq!(stats.window, 4);
        assert_store_matches_cold(&engine);
    }

    #[test]
    fn window_slide_reuses_surviving_columns_and_matches_cold() {
        let mut engine =
            RefreshEngine::from_series(&seed_series(4), cfg(), Arc::new(ShardedStore::new(1)))
                .unwrap();
        // 5th snapshot slides the window: the oldest column is evicted,
        // the three survivors are reused, only the new one is solved.
        let delta = EdgeDelta {
            time: 4.0,
            added: vec![(2, 1)],
            ..Default::default()
        };
        let stats = engine.ingest(&delta).unwrap().unwrap();
        assert_eq!(stats.columns_solved, 1, "slide must solve one column");
        assert_eq!(stats.columns_reused, 3);
        assert_eq!(engine.series().len(), 4, "window capped at max_window");
        assert_eq!(engine.series().times(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_store_matches_cold(&engine);
    }

    #[test]
    fn new_page_delta_publishes_and_matches_cold() {
        let mut engine =
            RefreshEngine::from_series(&seed_series(3), cfg(), Arc::new(ShardedStore::new(1)))
                .unwrap();
        // page 6 is born with an in-link; the window's common set stays
        // 0..6 (page 6 is absent from the older snapshots), so every
        // cached column is still valid
        let delta = EdgeDelta {
            time: 3.0,
            added: vec![(6, 1), (0, 1)],
            ..Default::default()
        };
        let stats = engine.ingest(&delta).unwrap().unwrap();
        assert_eq!(stats.columns_solved, 1);
        assert_eq!(stats.columns_reused, 3);
        assert_eq!(engine.page_of_node.len(), 7);
        // the newborn is not in the common window, hence not served yet
        assert!(engine.handle().current().score(PageId(6)).is_none());
        assert_store_matches_cold(&engine);
    }

    #[test]
    fn common_set_change_resolves_every_column() {
        // Page 6 is born at t = 1, so the seed window's common set
        // excludes it. Sliding the window past t = 0 brings page 6 into
        // every remaining snapshot: the common set changes and every
        // restricted graph with it, so nothing cached is reusable.
        let mut series = seed_series(1);
        let pages: Vec<PageId> = (0..7).map(PageId).collect();
        for i in 1..4 {
            let edges = vec![
                (3u32, 2u32),
                (4, 2),
                (5, 2),
                (2, 0),
                (0, 2),
                (1, 0),
                (3, 1),
                (6, 1),
                (0, 6),
            ];
            series
                .push(
                    Snapshot::new(i as f64, CsrGraph::from_edges(7, &edges), pages.clone())
                        .unwrap(),
                )
                .unwrap();
        }
        let mut engine =
            RefreshEngine::from_series(&series, cfg(), Arc::new(ShardedStore::new(1))).unwrap();
        assert!(engine.handle().current().score(PageId(6)).is_none());
        let delta = EdgeDelta {
            time: 4.0,
            added: vec![(2, 6)],
            ..Default::default()
        };
        let stats = engine.ingest(&delta).unwrap().unwrap();
        assert_eq!(
            stats.columns_solved, 4,
            "a changed common set invalidates the whole window"
        );
        assert_eq!(stats.columns_reused, 0);
        // page 6 is now common to the slid window and therefore served
        assert!(engine.handle().current().score(PageId(6)).is_some());
        assert_store_matches_cold(&engine);
    }

    #[test]
    fn too_small_window_returns_none() {
        let handle = Arc::new(ShardedStore::new(1));
        let mut engine = RefreshEngine::new(cfg(), Arc::clone(&handle)).unwrap();
        let d0 = EdgeDelta {
            time: 0.0,
            added: vec![(0, 1), (1, 0)],
            ..Default::default()
        };
        assert!(engine.ingest(&d0).unwrap().is_none());
        let d1 = EdgeDelta {
            time: 1.0,
            added: vec![(0, 2), (2, 0)],
            ..Default::default()
        };
        assert!(engine.ingest(&d1).unwrap().is_none());
        assert_eq!(handle.current().generation(), 0);
        let d2 = EdgeDelta {
            time: 2.0,
            added: vec![(1, 2)],
            ..Default::default()
        };
        let stats = engine.ingest(&d2).unwrap().unwrap();
        assert_eq!(stats.generation, 1);
        assert_eq!(handle.current().generation(), 1);
        // the pre-publish reranks warmed the engine's caches, so the
        // first publish only solved the newest snapshot's column
        assert_eq!(stats.columns_solved, 1);
        assert_eq!(stats.columns_reused, 2);
    }

    #[test]
    fn rejects_tiny_max_window_and_unknown_removals() {
        let bad = RefreshConfig {
            max_window: 2,
            ..cfg()
        };
        assert!(matches!(
            RefreshEngine::new(bad, Arc::new(ShardedStore::new(1))),
            Err(ServeError::Config(_))
        ));
        let mut engine = RefreshEngine::new(cfg(), Arc::new(ShardedStore::new(1))).unwrap();
        let delta = EdgeDelta {
            time: 0.0,
            removed: vec![(1, 2)],
            ..Default::default()
        };
        assert!(matches!(
            engine.ingest(&delta),
            Err(ServeError::UnknownPage(1))
        ));
    }

    /// Every response a reader could get for the test web.
    fn served(store: &ShardedStore) -> Vec<String> {
        let metrics = Metrics::new();
        let cache = parking_lot::Mutex::new(LruCache::new(4));
        let mut requests = vec!["health".to_string(), "topk 64".to_string()];
        requests.extend((0..8).map(|page| format!("score {page}")));
        requests
            .iter()
            .map(|line| handle_request(line, store, &metrics, &cache))
            .collect()
    }

    #[test]
    fn partially_applied_rejected_delta_survives_a_checkpoint() {
        let dir = std::env::temp_dir().join(format!("qrank_partial_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dur = DurabilityConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            checkpoint_every: 0,
        };
        // Two links go in — one of them creating page 6 — before the
        // removal from an unknown page rejects the delta. The graph keeps
        // them; no snapshot holds them until the next capture.
        let rejected = EdgeDelta {
            time: 3.0,
            added: vec![(2, 5), (6, 3)],
            removed: vec![(77, 1)],
            ..Default::default()
        };
        // The newest snapshot of a window is the held-out future: the
        // partial apply reaches a served column one good delta later.
        let good = |time: f64, link: (u64, u64)| EdgeDelta {
            time,
            added: vec![link],
            ..Default::default()
        };
        let good = [good(4.0, (1, 3)), good(5.0, (3, 4))];

        let uninterrupted = Arc::new(ShardedStore::new(1));
        let mut engine =
            RefreshEngine::from_series(&seed_series(3), cfg(), Arc::clone(&uninterrupted)).unwrap();
        assert!(matches!(
            engine.ingest(&rejected),
            Err(ServeError::UnknownPage(77))
        ));
        for d in &good {
            engine.ingest(d).unwrap();
        }

        let (mut engine, _) = RefreshEngine::open_durable(
            cfg(),
            &dur,
            Arc::new(ShardedStore::new(1)),
            Some(&seed_series(3)),
        )
        .unwrap();
        assert!(engine.ingest(&rejected).is_err());
        engine.checkpoint_now().unwrap();
        drop(engine);
        let recovered = Arc::new(ShardedStore::new(1));
        let (mut engine, report) =
            RefreshEngine::open_durable(cfg(), &dur, Arc::clone(&recovered), None).unwrap();
        assert_eq!(
            report.replayed_records, 0,
            "the checkpoint is the whole state"
        );
        for d in &good {
            engine.ingest(d).unwrap();
        }
        assert_eq!(served(&recovered), served(&uninterrupted));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parses_delta_files() {
        let text = "\
# two deltas
page 9
+ 0 9
commit 1.5
- 0 9   # drop it again
+ 1 2
commit 2.0
";
        let deltas = parse_deltas(text).unwrap();
        assert_eq!(deltas.len(), 2);
        assert_eq!(
            deltas[0],
            EdgeDelta {
                time: 1.5,
                new_pages: vec![9],
                added: vec![(0, 9)],
                removed: vec![],
            }
        );
        assert_eq!(deltas[1].removed, vec![(0, 9)]);
        assert_eq!(deltas[1].time, 2.0);
    }

    #[test]
    fn delta_parse_errors() {
        assert!(
            matches!(parse_deltas("+ 1 2\n"), Err(ServeError::Parse(_))),
            "no commit"
        );
        assert!(matches!(
            parse_deltas("frob 1\ncommit 1\n"),
            Err(ServeError::Parse(_))
        ));
        assert!(matches!(
            parse_deltas("+ 1\ncommit 1\n"),
            Err(ServeError::Parse(_))
        ));
        assert!(matches!(
            parse_deltas("commit nan\n"),
            Err(ServeError::Parse(_))
        ));
        assert!(parse_deltas("# only comments\n\n").unwrap().is_empty());
    }

    #[test]
    fn worker_quarantines_rejected_deltas_and_keeps_ingesting() {
        let dir = std::env::temp_dir().join(format!("qrank_quar_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let qfile = dir.join("quarantine.deltas");
        let handle = Arc::new(ShardedStore::new(1));
        let engine =
            RefreshEngine::from_series(&seed_series(3), cfg(), Arc::clone(&handle)).unwrap();
        let (tx, join) = spawn_refresh_worker_with(
            engine,
            RefreshWorkerOptions {
                quarantine: Some(qfile.clone()),
            },
        );
        let bad = EdgeDelta {
            time: 3.0,
            removed: vec![(77, 78)],
            ..Default::default()
        };
        tx.send(RefreshMsg::Delta(bad.clone())).unwrap();
        // ingestion continues past the reject
        tx.send(RefreshMsg::Delta(EdgeDelta {
            time: 4.0,
            added: vec![(0, 1)],
            ..Default::default()
        }))
        .unwrap();
        tx.send(RefreshMsg::Shutdown).unwrap();
        let (engine, errors) = join.join().unwrap();
        assert_eq!(engine.generation(), 2, "the good delta still published");
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("unknown page"), "{errors:?}");
        let text = std::fs::read_to_string(&qfile).unwrap();
        assert!(
            text.lines().next().unwrap().starts_with("# quarantined: "),
            "reason comment leads the entry: {text}"
        );
        // the quarantine file is re-parseable and reproduces the delta
        let reparsed = parse_deltas(&text).unwrap();
        assert_eq!(reparsed, vec![bad]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_processes_deltas_and_shuts_down() {
        let handle = Arc::new(ShardedStore::new(1));
        let engine =
            RefreshEngine::from_series(&seed_series(3), cfg(), Arc::clone(&handle)).unwrap();
        let (tx, join) = spawn_refresh_worker(engine);
        tx.send(RefreshMsg::Delta(EdgeDelta {
            time: 3.0,
            added: vec![(0, 1)],
            ..Default::default()
        }))
        .unwrap();
        // a bad delta is recorded, not fatal
        tx.send(RefreshMsg::Delta(EdgeDelta {
            time: 4.0,
            removed: vec![(77, 78)],
            ..Default::default()
        }))
        .unwrap();
        tx.send(RefreshMsg::Shutdown).unwrap();
        let (engine, errors) = join.join().unwrap();
        assert_eq!(engine.generation(), 2);
        assert_eq!(handle.current().generation(), 2);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("unknown page"), "{errors:?}");
    }

    /// `n` pages on a ring plus `4n` links that churn with each of
    /// `snapshots` crawls.
    fn churning_web(n: u32, snapshots: u32) -> SnapshotSeries {
        let pages: Vec<PageId> = (0..u64::from(n)).map(PageId).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut series = SnapshotSeries::new();
        for t in 0..snapshots {
            let mut edges: Vec<(u32, u32)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
            for _ in 0..4 * n {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                edges.push(((state >> 33) as u32 % n, (state >> 13) as u32 % n));
            }
            let graph = CsrGraph::from_edges(n as usize, &edges);
            series
                .push(Snapshot::new(f64::from(t), graph, pages.clone()).unwrap())
                .unwrap();
        }
        series
    }

    #[test]
    fn refresh_trace_stages_cover_the_cycle() {
        let _obs = crate::obs_lock();
        let dir = std::env::temp_dir().join(format!("qrank_trace_cover_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dur = DurabilityConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Never,
            checkpoint_every: 1,
        };
        // large enough that a debug-build ingest takes well over 10 ms,
        // next to which beginning and finishing a trace is noise
        let web = churning_web(1_500, 3);
        let handle = Arc::new(ShardedStore::new(1));
        let (mut engine, _) = RefreshEngine::open_durable(cfg(), &dur, handle, Some(&web)).unwrap();
        let tracer = Arc::new(Tracer::new(qrank_obs::TraceConfig::default()));
        engine.set_tracer(Some(Arc::clone(&tracer)));
        qrank_obs::set_enabled(true);
        for i in 0..3u64 {
            let delta = EdgeDelta {
                time: 3.0 + i as f64,
                added: vec![(i, 7 * i + 11)],
                ..Default::default()
            };
            engine.ingest(&delta).unwrap();
        }
        qrank_obs::set_enabled(false);
        std::fs::remove_dir_all(&dir).unwrap();
        let traces = tracer.slowest(Some("refresh"));
        assert_eq!(traces.len(), 3);
        for t in &traces {
            let top = t.stages.iter().filter(|s| s.depth == 1);
            assert_eq!(
                top.map(|s| s.name.as_str()).collect::<Vec<_>>(),
                [
                    "wal.append",
                    "refresh.apply",
                    "refresh.snapshot",
                    "refresh.rerank",
                    "refresh.checkpoint"
                ]
            );
        }
        // best of three: one preemption cannot fail it
        let (covered, total_ns) = traces
            .iter()
            .map(|t| {
                let top = t.stages.iter().filter(|s| s.depth == 1);
                let covered = top.map(|s| s.dur_ns).sum::<u64>() as f64 / t.total_ns as f64;
                (covered, t.total_ns)
            })
            .fold((0.0, 0), |best, c| if c.0 > best.0 { c } else { best });
        assert!(
            covered >= 0.98,
            "top-level stages cover {:.2} % of a {:.1} ms cycle",
            covered * 100.0,
            total_ns as f64 / 1e6
        );
    }

    #[test]
    fn a_contained_panic_leaves_the_next_refresh_trace_its_own() {
        let _obs = crate::obs_lock();
        qrank_obs::set_enabled(true);
        let tracer = Arc::new(Tracer::new(qrank_obs::TraceConfig::default()));
        let mut engine =
            RefreshEngine::from_series(&seed_series(3), cfg(), Arc::new(ShardedStore::new(1)))
                .unwrap();
        engine.set_tracer(Some(Arc::clone(&tracer)));
        // a traced cycle that panics after one stage closed, inside another
        let mut poisoned = false;
        let failed =
            crate::worker::contained(&mut poisoned, "refresh", || -> Result<(), ServeError> {
                let _cycle = qrank_obs::span!("refresh.ingest");
                let _trace = tracer.begin("refresh");
                drop(qrank_obs::span!("t.done"));
                let _doomed = qrank_obs::span!("t.doomed");
                panic!("injected")
            });
        assert!(poisoned);
        assert_eq!(failed.as_deref(), Some("refresh panicked: injected"));
        {
            // a muted thread's spans time nothing unless a trace is current
            let _quiet = qrank_obs::span::mute();
            drop(qrank_obs::span!("t.after"));
        }
        let snap = qrank_obs::global().snapshot();
        assert!(
            snap.histogram("span.t.after").is_none(),
            "the unwind detached the trace"
        );
        assert!(
            tracer.slowest(None).is_empty(),
            "an unfinished trace is not kept"
        );
        drop(qrank_obs::span!("t.between"));
        let next = EdgeDelta {
            time: 3.0,
            added: vec![(0, 1)],
            ..Default::default()
        };
        engine.ingest(&next).unwrap();
        qrank_obs::set_enabled(false);
        let traces = tracer.slowest(None);
        assert_eq!(traces.len(), 1);
        let names: Vec<&str> = traces[0].stages.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"refresh.rerank"), "{names:?}");
        assert!(!names.iter().any(|n| n.starts_with("t.")), "{names:?}");
    }
}
