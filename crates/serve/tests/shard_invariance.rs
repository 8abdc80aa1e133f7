//! Shard-count invariance: the served bytes must not depend on how the
//! store is partitioned. For any shard count N, `score` (single-shard
//! dispatch) and `topk` (scatter-gather with a k-way merge) must return
//! responses **bitwise identical** to the 1-shard store — including the
//! order of quality ties — and every page must be owned by exactly one
//! shard.

use std::sync::Arc;

use proptest::prelude::*;
use qrank_graph::{CsrGraph, PageId, Snapshot, SnapshotSeries};
use qrank_serve::{
    handle_request, shard_of, EdgeDelta, LruCache, Metrics, RefreshConfig, RefreshEngine,
    ShardedStore,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// The e2e fixture web: pages 3, 4, and 5 are structurally symmetric,
/// so their qualities tie exactly and the global order must fall back
/// to the PageId tiebreak — the part of the comparator a k-way merge
/// gets wrong first.
fn seed_series(snapshots: usize) -> SnapshotSeries {
    let pages: Vec<PageId> = (0..6).map(PageId).collect();
    let base = vec![(3u32, 2u32), (4, 2), (5, 2), (2, 0), (0, 2), (1, 0)];
    let riser: Vec<(u32, u32)> = vec![(3, 1), (4, 1), (5, 1), (0, 1), (2, 1)];
    let mut s = SnapshotSeries::new();
    for i in 0..snapshots {
        let mut edges = base.clone();
        edges.extend_from_slice(&riser[..(i + 1).min(riser.len())]);
        s.push(Snapshot::new(i as f64, CsrGraph::from_edges(6, &edges), pages.clone()).unwrap())
            .unwrap();
    }
    s
}

/// Serve `score` for every page plus one `topk` through the public
/// request path, returning the raw response strings for comparison.
fn responses(handle: &ShardedStore, pages: u64, k: usize) -> Vec<String> {
    let metrics = Metrics::new();
    let cache = parking_lot::Mutex::new(LruCache::new(8));
    let mut out = Vec::new();
    for p in 0..pages {
        out.push(handle_request(
            &format!("score {p}"),
            handle,
            &metrics,
            &cache,
        ));
    }
    out.push(handle_request(
        &format!("topk {k}"),
        handle,
        &metrics,
        &cache,
    ));
    // stats carries wall-clock latency fields; compare only the leading
    // deterministic part (generation, pages, snapshot_time, counters)
    let stats = handle_request("stats", handle, &metrics, &cache);
    out.push(
        stats
            .split(",\"mean_latency_us\"")
            .next()
            .unwrap()
            .to_string(),
    );
    out
}

#[test]
fn tied_qualities_serve_identically_at_every_shard_count() {
    let series = seed_series(3);
    let mut reference: Option<Vec<String>> = None;
    for &n in &SHARD_COUNTS {
        let handle = Arc::new(ShardedStore::new(n));
        RefreshEngine::from_series(&series, RefreshConfig::default(), Arc::clone(&handle)).unwrap();
        let got = responses(&handle, 6, 6);
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(want, &got, "shard count {n} diverged"),
        }
    }
}

/// Remap self-loops and drop duplicate edges so most generated deltas
/// ingest cleanly; what matters is that every shard count sees the
/// exact same stream.
fn clean_deltas(rounds: Vec<Vec<(u64, u64)>>) -> Vec<EdgeDelta> {
    let mut seen = std::collections::HashSet::new();
    let mut deltas = Vec::new();
    for (i, edges) in rounds.into_iter().enumerate() {
        let added: Vec<(u64, u64)> = edges
            .into_iter()
            .map(|(s, d)| if s == d { (s, (d + 1) % 10) } else { (s, d) })
            .filter(|e| seen.insert(*e))
            .collect();
        if !added.is_empty() {
            deltas.push(EdgeDelta {
                time: i as f64,
                added,
                ..Default::default()
            });
        }
    }
    deltas
}

proptest! {
    // Each case runs the real pipeline once per shard count; keep the
    // case budget small so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn served_bits_are_invariant_to_shard_count(
        rounds in prop::collection::vec(
            prop::collection::vec((0u64..10, 0u64..10), 1..8),
            1..4,
        )
    ) {
        let deltas = clean_deltas(rounds);
        let mut reference: Option<Vec<String>> = None;
        for &n in &SHARD_COUNTS {
            let handle = Arc::new(ShardedStore::new(n));
            let mut engine =
                RefreshEngine::new(RefreshConfig::default(), Arc::clone(&handle)).unwrap();
            for d in &deltas {
                // A rejected delta must be rejected identically at every
                // shard count; either way the stream stays comparable.
                let _ = engine.ingest(d);
            }
            let got = responses(&handle, 10, 5);
            match &reference {
                None => reference = Some(got),
                Some(want) => prop_assert_eq!(want, &got, "shard count {} diverged", n),
            }
        }
    }

    #[test]
    // u64::MAX itself would overflow the vendored range strategy's span
    fn routing_is_total_stable_and_in_range(page in 0u64..=u64::MAX - 1, shards in 1usize..=16) {
        let s = shard_of(page, shards);
        prop_assert!(s < shards);
        prop_assert_eq!(s, shard_of(page, shards), "routing must be deterministic");
        prop_assert_eq!(shard_of(page, 1), 0, "one shard owns everything");
    }
}
