//! What an ingest builds from its predecessor equals what it would build
//! from nothing: the snapshot `push_snapshot` captures by extending the
//! previous capture is `DynamicGraph::snapshot_at` of the whole history,
//! and a `ScoreStore` built next to the generation it replaces is the one
//! built alone. The oracles here share nothing with the engine but the
//! delta stream: a log the test appends to itself, and a fresh store per
//! report.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use qrank_core::{run_pipeline, PipelineConfig, PipelineReport, PopularityMetric};
use qrank_graph::{CsrGraph, DynamicGraph, NodeId, PageId, Snapshot, SnapshotSeries};
use qrank_serve::{
    DurabilityConfig, EdgeDelta, FsyncPolicy, RefreshConfig, RefreshEngine, ShardedStore,
};

/// The capture counters are process-global; tests that capture take
/// turns so the one that reads them sees only its own ingests.
static CAPTURES: Mutex<()> = Mutex::new(());

/// The engine's graph state rebuilt from the deltas alone: every event
/// of the whole history in one log, pages numbered in first-seen order
/// as `RefreshEngine::apply_delta` numbers them.
#[derive(Default)]
struct History {
    log: DynamicGraph,
    node_of_page: HashMap<u64, NodeId>,
    page_of_node: Vec<u64>,
}

impl History {
    fn node(&mut self, page: u64, at: f64) -> NodeId {
        if let Some(&n) = self.node_of_page.get(&page) {
            return n;
        }
        let n = self.log.add_node(at).unwrap();
        self.node_of_page.insert(page, n);
        self.page_of_node.push(page);
        n
    }

    fn apply(&mut self, delta: &EdgeDelta) {
        for &p in &delta.new_pages {
            self.node(p, delta.time);
        }
        for &(s, d) in &delta.added {
            let (s, d) = (self.node(s, delta.time), self.node(d, delta.time));
            self.log.add_edge(s, d, delta.time).unwrap();
        }
        for &(s, d) in &delta.removed {
            let (s, d) = (self.node_of_page[&s], self.node_of_page[&d]);
            self.log.remove_edge(s, d, delta.time).unwrap();
        }
    }

    /// The snapshot at `t`, from nothing.
    fn snapshot_at(&self, t: f64) -> Snapshot {
        let (graph, alive) = self.log.snapshot_at(t);
        let pages = alive
            .iter()
            .map(|&n| PageId(self.page_of_node[n as usize]))
            .collect();
        Snapshot::new(t, graph, pages).unwrap()
    }
}

fn assert_same_snapshot(captured: &Snapshot, want: &Snapshot) {
    assert_eq!(captured.time, want.time);
    assert_eq!(captured.graph, want.graph, "graph at t = {}", want.time);
    assert_eq!(captured.pages(), want.pages(), "pages at t = {}", want.time);
    assert_eq!(captured.fingerprint(), want.fingerprint());
}

/// Pages the opening delta links into a ring; removals name only these,
/// so every generated delta is accepted.
const RING: u64 = 6;
/// Ids a delta may create on top of the ring.
const PAGES: u64 = 14;

type RawDelta = (Vec<u64>, Vec<(u64, u64)>, Vec<(u64, u64)>, u8);

fn raw_deltas() -> impl Strategy<Value = Vec<RawDelta>> {
    prop::collection::vec(
        (
            prop::collection::vec(RING..PAGES, 0..2),
            prop::collection::vec((0..PAGES, 0..PAGES), 0..5),
            prop::collection::vec((0..RING, 0..RING), 0..3),
            0u8..3,
        ),
        6..14,
    )
}

/// The ring, a removal of one of its links and that link's return (a
/// remove-then-re-add with a capture in between), then the generated
/// deltas: few ids, so re-adds, removals of absent links and duplicate
/// adds keep coming; about one delta in three shares its predecessor's
/// timestamp.
fn stream(raw: Vec<RawDelta>) -> Vec<EdgeDelta> {
    let mut deltas = vec![
        EdgeDelta {
            time: 0.0,
            added: (0..RING).map(|p| (p, (p + 1) % RING)).collect(),
            ..Default::default()
        },
        EdgeDelta {
            time: 1.0,
            removed: vec![(0, 1)],
            ..Default::default()
        },
        EdgeDelta {
            time: 2.0,
            added: vec![(0, 1)],
            ..Default::default()
        },
    ];
    let mut time = 2.0;
    for (new_pages, added, removed, clock) in raw {
        if clock != 0 {
            time += 1.0;
        }
        deltas.push(EdgeDelta {
            time,
            new_pages,
            added,
            removed,
        });
    }
    deltas
}

fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qrank_serve_incremental_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &std::path::Path) -> RefreshEngine {
    let dur = DurabilityConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0,
    };
    let handle = Arc::new(ShardedStore::new(1));
    let (engine, report) =
        RefreshEngine::open_durable(RefreshConfig::default(), &dur, handle, None).unwrap();
    assert!(
        report.replay_errors.is_empty(),
        "{:?}",
        report.replay_errors
    );
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every snapshot an ingest pushes — the first of an empty engine,
    /// the ones that extend their predecessor, the ones after the
    /// window slid — is the capture from nothing, and so is every
    /// snapshot of the window a killed engine recovers: the checkpoint's
    /// and the ones its replay captures over the rebuilt log.
    #[test]
    fn every_capture_equals_the_capture_from_nothing(
        raw in raw_deltas(),
        checkpoint_at in 3usize..8,
        tail in 0usize..3,
    ) {
        let _turn = CAPTURES.lock().unwrap_or_else(|e| e.into_inner());
        let deltas = stream(raw);
        let dir = scratch_dir();
        let mut engine = open(&dir);
        let mut history = History::default();
        // the capture from nothing after each delta (two deltas may
        // share a timestamp, so the time alone does not name one)
        let mut from_nothing: Vec<Snapshot> = Vec::new();
        for (i, delta) in deltas.iter().enumerate() {
            if i == checkpoint_at {
                engine.checkpoint_now().unwrap();
            }
            if i == checkpoint_at + tail {
                drop(engine); // the kill
                engine = open(&dir);
                let window = engine.series().snapshots();
                let held = &from_nothing[from_nothing.len() - window.len()..];
                for (recovered, want) in window.iter().zip(held) {
                    assert_same_snapshot(recovered, want);
                }
            }
            engine.ingest(delta).unwrap();
            history.apply(delta);
            let want = history.snapshot_at(delta.time);
            assert_same_snapshot(engine.series().snapshots().last().unwrap(), &want);
            from_nothing.push(want);
        }
        prop_assert!(engine.series().len() == RefreshConfig::default().max_window);
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A report over pages `0..pages`, in-degree scored (integers, so
/// qualities tie in droves and the page-id tiebreak decides), whose
/// links depend on `salt`.
fn report(pages: u32, salt: u32) -> PipelineReport {
    let ids: Vec<PageId> = (0..u64::from(pages)).map(PageId).collect();
    let mut series = SnapshotSeries::new();
    for t in 0..4u32 {
        let edges: Vec<(u32, u32)> = (0..pages * (2 + t))
            .map(|i| {
                let x = i.wrapping_mul(2_654_435_761).wrapping_add(salt * 40_503);
                (i % pages, (x >> 7) % pages)
            })
            .collect();
        let graph = CsrGraph::from_edges(pages as usize, &edges);
        series
            .push(Snapshot::new(f64::from(t), graph, ids.clone()).unwrap())
            .unwrap();
    }
    let cfg = PipelineConfig {
        metric: PopularityMetric::InDegree,
        ..Default::default()
    };
    run_pipeline(&series, &cfg).unwrap()
}

#[test]
fn store_built_after_a_predecessor_equals_the_store_built_alone() {
    // same pages twice (the index is taken over, the sort starts from
    // the old order), then a grown page list, a shrunk one, and the
    // first again — each after whatever the previous publish left
    let reports = [
        report(40, 1),
        report(40, 2),
        report(40, 2),
        report(64, 3),
        report(25, 4),
        report(40, 1),
    ];
    for shards in [1usize, 8] {
        let adjacent = ShardedStore::new(shards);
        for (i, r) in reports.iter().enumerate() {
            let generation = i as u64 + 1;
            adjacent.publish_report(r, generation, 2.0);
            let alone = ShardedStore::new(shards);
            alone.publish_report(r, generation, 2.0);
            let (got, want) = (adjacent.current(), alone.current());
            assert_eq!(got.len(), r.pages.len());
            assert_eq!(got.generation(), want.generation());
            let bits = |ranked: Vec<(PageId, qrank_serve::PageScores)>| -> Vec<_> {
                ranked
                    .into_iter()
                    .map(|(p, s)| (p, s.quality.to_bits(), s.pagerank.to_bits(), s.trend))
                    .collect()
            };
            assert_eq!(
                bits(got.topk(got.len())),
                bits(want.topk(want.len())),
                "report {i} on {shards} shard(s)"
            );
            // every page any of the reports serves, present or not
            for page in (0..64).map(PageId) {
                assert_eq!(got.score(page), want.score(page), "{page} of report {i}");
            }
        }
    }
}

#[test]
fn a_capture_sorts_each_event_once_and_says_so() {
    let _turn = CAPTURES.lock().unwrap_or_else(|e| e.into_inner());
    let deltas = stream(vec![
        (vec![7], vec![(7, 0), (2, 4)], vec![], 1),
        (vec![], vec![(8, 7), (0, 1)], vec![(2, 4)], 0),
        (vec![9], vec![], vec![(3, 4), (0, 1)], 1),
        (vec![], vec![(2, 4), (9, 2)], vec![], 1),
    ]);
    let (seed, live) = deltas.split_at(3);
    let mut engine =
        RefreshEngine::new(RefreshConfig::default(), Arc::new(ShardedStore::new(1))).unwrap();
    for delta in seed {
        engine.ingest(delta).unwrap();
    }
    let counter = |name: &str| qrank_obs::global().counter(name).get();
    let sorted = counter("refresh.snapshot.events_sorted");
    let copied = counter("refresh.snapshot.edges_copied");
    let captures = || {
        qrank_obs::global()
            .snapshot()
            .histograms
            .iter()
            .filter(|(name, _)| name.ends_with("refresh.snapshot"))
            .map(|(_, h)| h.count)
            .sum::<u64>()
    };
    let captured = captures();
    qrank_obs::set_enabled(true);
    let mut appended = 0;
    let mut alive_before = 0;
    for delta in live {
        alive_before += engine
            .series()
            .snapshots()
            .last()
            .unwrap()
            .graph
            .num_edges();
        engine.ingest(delta).unwrap();
        appended += delta.added.len() + delta.removed.len();
    }
    qrank_obs::set_enabled(false);
    // the events the deltas appended, each sorted by one capture, and
    // the previous snapshot's edges merged through by each
    assert_eq!(
        counter("refresh.snapshot.events_sorted") - sorted,
        appended as u64
    );
    assert_eq!(
        counter("refresh.snapshot.edges_copied") - copied,
        alive_before as u64
    );
    assert_eq!(captures() - captured, live.len() as u64);
}
