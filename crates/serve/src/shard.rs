//! Deterministic sharding of the serving core.
//!
//! One page → one shard, decided by [`shard_of`] — **the only place in
//! the workspace where the page→shard hash exists** (CI greps for
//! stray copies). A [`ShardedStore`] holds one sealed [`ShardView`]:
//! every shard's [`ScoreStore`] together with the generation and
//! snapshot time they were published under. Every verb — `score`,
//! `topk`, `stats`, `health`, `metrics` — reads one view for the whole
//! request, and a publish swaps the whole view at once, so no reader
//! can see one shard at generation g+1 and another at g, or a `score`
//! from a generation `health` does not show yet.
//!
//! ## Shard-count invariance
//!
//! The global `topk` order is a strict total order — quality descending
//! by `f64::total_cmp`, ties broken by ascending `PageId`. Restricting
//! the rows of one [`qrank_core::PipelineReport`] to a shard preserves
//! relative order, and the scatter-gather k-way merge in
//! [`ShardView::topk`] uses the identical comparator, so the merged
//! order — and every rendered byte — is independent of the shard count.
//! The shard-invariance proptest pins this for shards ∈ {1, 2, 3, 8}.
//!
//! This module also owns delta partitioning for the sharded journal:
//! `partition_delta` splits one [`EdgeDelta`] into per-shard
//! [`DeltaRecord`]s carrying *slot* arrays (each element's index in the
//! original delta), and `merge_partitions` is its exact inverse. At one
//! shard the partition is the delta itself as a slotless record, which
//! encodes as v1 — the flat journal's format since before sharding.
//! Reconstructing the original interleaving matters because node
//! numbering — and therefore float summation order and published score
//! bits — follows first-seen order during apply.

use std::sync::Arc;

use parking_lot::RwLock;
use qrank_core::PipelineReport;
use qrank_graph::PageId;
use qrank_wal::DeltaRecord;

use crate::delta::EdgeDelta;
use crate::store::{PageScores, ScoreStore};

fn bump(name: &'static str) {
    if qrank_obs::enabled() {
        qrank_obs::global().counter(name).inc();
    }
}

/// The page→shard mapping: FNV-1a over the page id's eight
/// little-endian bytes, reduced mod `shards`.
///
/// Stable across processes, platforms, and releases — the on-disk
/// per-shard WAL layout depends on it. Defined here and nowhere else.
pub fn shard_of(page: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in page.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// Static per-shard `score` labels for SLO/latency attribution (the
/// tracer keys its windows by `&'static str`). Shards beyond the table
/// fall back to the plain verb.
const SCORE_SHARD_LABELS: [&str; 16] = [
    "score@00", "score@01", "score@02", "score@03", "score@04", "score@05", "score@06", "score@07",
    "score@08", "score@09", "score@10", "score@11", "score@12", "score@13", "score@14", "score@15",
];

/// The per-shard SLO label for a `score` request routed to `shard`, if
/// the shard index is within the static label table.
pub(crate) fn score_shard_label(shard: usize) -> Option<&'static str> {
    SCORE_SHARD_LABELS.get(shard).copied()
}

/// A sealed, coherent view over every shard's store, stamped with the
/// one generation and snapshot time they serve under. Reads run
/// entirely against one view and can never mix generations.
#[derive(Debug)]
pub struct ShardView {
    stores: Vec<ScoreStore>,
    generation: u64,
    snapshot_time: f64,
    total_pages: usize,
}

impl ShardView {
    fn of(stores: Vec<ScoreStore>, generation: u64, snapshot_time: f64) -> Self {
        let total_pages = stores.iter().map(|s| s.len()).sum();
        ShardView {
            stores,
            generation,
            snapshot_time,
            total_pages,
        }
    }

    /// Number of shards in the view.
    pub fn shards(&self) -> usize {
        self.stores.len()
    }

    /// The generation this view was published under (0 = the empty
    /// pre-refresh view).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total pages served across all shards.
    pub fn len(&self) -> usize {
        self.total_pages
    }

    /// True when no shard serves any pages.
    pub fn is_empty(&self) -> bool {
        self.total_pages == 0
    }

    /// Capture time of the newest snapshot ranked into this view
    /// (`NEG_INFINITY` pre-refresh).
    pub fn snapshot_time(&self) -> f64 {
        self.snapshot_time
    }

    /// One shard's store within this view.
    pub fn store(&self, shard: usize) -> &ScoreStore {
        &self.stores[shard]
    }

    /// Scores of `page`, looked up in its owning shard.
    pub fn score(&self, page: PageId) -> Option<PageScores> {
        self.stores[shard_of(page.0, self.stores.len())].score(page)
    }

    /// The `k` highest-quality pages across all shards, best first.
    ///
    /// A k-way merge over the shards' precomputed quality orderings,
    /// tying on `(quality, PageId)` with the exact comparator the
    /// unsharded sort uses — output is bitwise identical to a single
    /// store built from the same report, for any shard count.
    pub fn topk(&self, k: usize) -> Vec<(PageId, PageScores)> {
        if self.stores.len() == 1 {
            return self.stores[0].topk(k);
        }
        let mut cursors = vec![0usize; self.stores.len()];
        let mut out = Vec::with_capacity(k.min(self.total_pages));
        while out.len() < k {
            let mut best: Option<(usize, PageId, PageScores)> = None;
            for (shard, store) in self.stores.iter().enumerate() {
                let Some((page, scores)) = store.nth_best(cursors[shard]) else {
                    continue;
                };
                let wins = match &best {
                    None => true,
                    Some((_, best_page, best_scores)) => {
                        match scores.quality.total_cmp(&best_scores.quality) {
                            std::cmp::Ordering::Greater => true,
                            std::cmp::Ordering::Equal => page < *best_page,
                            std::cmp::Ordering::Less => false,
                        }
                    }
                };
                if wins {
                    best = Some((shard, page, scores));
                }
            }
            let Some((shard, page, scores)) = best else {
                break; // every shard exhausted
            };
            cursors[shard] += 1;
            out.push((page, scores));
        }
        out
    }
}

/// The sharded serving core: the one sealed [`ShardView`] every read
/// goes through, swapped whole by
/// [`publish_report`](Self::publish_report).
#[derive(Debug)]
pub struct ShardedStore {
    view: RwLock<Arc<ShardView>>,
}

impl ShardedStore {
    /// A sharded store over `shards` empty generation-0 shards
    /// (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        let stores = (0..shards.max(1)).map(|_| ScoreStore::empty()).collect();
        ShardedStore {
            view: RwLock::new(Arc::new(ShardView::of(stores, 0, f64::NEG_INFINITY))),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.view.read().shards()
    }

    /// The shard owning `page`.
    pub fn route(&self, page: u64) -> usize {
        shard_of(page, self.shards())
    }

    /// The sealed view (cheap `Arc` clone under a briefly-held read
    /// lock, so a publish never stalls a reader).
    pub fn current(&self) -> Arc<ShardView> {
        self.view.read().clone()
    }

    /// Publish one pipeline report as a full generation: partition the
    /// report's rows by owning shard, build each shard's store next to
    /// that shard's store in the current view (`ScoreStore::after`),
    /// then swap the new view in once. Every shard serves under the same
    /// `generation` and `snapshot_time`, so rendered responses carry the
    /// same bytes an unsharded store would.
    pub fn publish_report(&self, report: &PipelineReport, generation: u64, snapshot_time: f64) {
        let _span = qrank_obs::span!("shard.publish_report");
        let view = {
            let _s = qrank_obs::span!("shard.build");
            let previous = self.current();
            let n = previous.shards();
            let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
            for (row, page) in report.pages.iter().enumerate() {
                rows[shard_of(page.0, n)].push(row as u32);
            }
            let stores = previous
                .stores
                .iter()
                .zip(&rows)
                .map(|(store, shard_rows)| {
                    bump("shard.publish");
                    ScoreStore::after(store, report, shard_rows)
                })
                .collect();
            ShardView::of(stores, generation, snapshot_time)
        };
        let _s = qrank_obs::span!("shard.seal");
        *self.view.write() = Arc::new(view);
        bump("shard.seal");
    }
}

/// Split one delta into per-shard journal records.
///
/// Pages go to [`shard_of`] their id; edges (added and removed) go to
/// the shard owning their **source** page. Every element records its
/// original index in a slot array so [`merge_partitions`] can rebuild
/// the delta's exact interleaving. Every shard gets a record — possibly
/// empty — so per-shard WAL LSNs stay aligned one-to-one. One shard's
/// record is the whole delta in its own order, so it carries no slots.
pub(crate) fn partition_delta(delta: &EdgeDelta, shards: usize) -> Vec<DeltaRecord> {
    let _span = qrank_obs::span!("shard.partition");
    if shards <= 1 {
        return vec![DeltaRecord {
            time: delta.time,
            new_pages: delta.new_pages.clone(),
            added: delta.added.clone(),
            removed: delta.removed.clone(),
            ..Default::default()
        }];
    }
    let mut parts: Vec<DeltaRecord> = (0..shards.max(1))
        .map(|_| DeltaRecord {
            time: delta.time,
            ..Default::default()
        })
        .collect();
    for (slot, &page) in delta.new_pages.iter().enumerate() {
        let part = &mut parts[shard_of(page, shards)];
        part.new_pages.push(page);
        part.new_slots.push(slot as u32);
    }
    for (slot, &(src, dst)) in delta.added.iter().enumerate() {
        let part = &mut parts[shard_of(src, shards)];
        part.added.push((src, dst));
        part.added_slots.push(slot as u32);
    }
    for (slot, &(src, dst)) in delta.removed.iter().enumerate() {
        let part = &mut parts[shard_of(src, shards)];
        part.removed.push((src, dst));
        part.removed_slots.push(slot as u32);
    }
    parts
}

/// Merge per-shard journal records (one per shard, same LSN) back into
/// the original delta — the exact inverse of [`partition_delta`].
///
/// Slot arrays place every element at its original index; a missing,
/// duplicate, or out-of-range slot means the shard logs disagree and is
/// reported as an error rather than silently reordering the delta.
pub(crate) fn merge_partitions(parts: &[DeltaRecord]) -> Result<EdgeDelta, String> {
    let _span = qrank_obs::span!("shard.merge");
    let Some(first) = parts.first() else {
        return Err("no shard records to merge".into());
    };
    for p in parts {
        if p.time.to_bits() != first.time.to_bits() {
            return Err(format!(
                "shard records disagree on delta time ({} vs {})",
                p.time, first.time
            ));
        }
    }
    fn place<T: Copy>(
        total: usize,
        what: &str,
        items: impl Iterator<Item = (u32, T)>,
    ) -> Result<Vec<T>, String> {
        let mut slots: Vec<Option<T>> = vec![None; total];
        for (slot, item) in items {
            let cell = slots
                .get_mut(slot as usize)
                .ok_or_else(|| format!("{what} slot {slot} out of range (total {total})"))?;
            if cell.replace(item).is_some() {
                return Err(format!("duplicate {what} slot {slot}"));
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, cell)| cell.ok_or_else(|| format!("missing {what} slot {i}")))
            .collect()
    }
    // A v1 (slotless) record can only appear as a whole unpartitioned
    // delta; treat its implicit order as identity slots.
    fn with_slots<'a, T: Copy>(
        items: &'a [T],
        slots: &'a [u32],
    ) -> impl Iterator<Item = (u32, T)> + 'a {
        items.iter().copied().enumerate().map(move |(i, item)| {
            let slot = slots.get(i).copied().unwrap_or(i as u32);
            (slot, item)
        })
    }
    let n_new: usize = parts.iter().map(|p| p.new_pages.len()).sum();
    let n_added: usize = parts.iter().map(|p| p.added.len()).sum();
    let n_removed: usize = parts.iter().map(|p| p.removed.len()).sum();
    Ok(EdgeDelta {
        time: first.time,
        new_pages: place(
            n_new,
            "new_pages",
            parts
                .iter()
                .flat_map(|p| with_slots(&p.new_pages, &p.new_slots)),
        )?,
        added: place(
            n_added,
            "added",
            parts
                .iter()
                .flat_map(|p| with_slots(&p.added, &p.added_slots)),
        )?,
        removed: place(
            n_removed,
            "removed",
            parts
                .iter()
                .flat_map(|p| with_slots(&p.removed, &p.removed_slots)),
        )?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_total() {
        for n in [1usize, 2, 3, 8, 16] {
            for page in 0..500u64 {
                let s = shard_of(page, n);
                assert!(s < n, "page {page} routed to shard {s} of {n}");
                assert_eq!(s, shard_of(page, n), "routing must be deterministic");
            }
        }
        // the documented FNV-1a constants, pinned
        assert_eq!(
            shard_of(0, 2),
            (0xcbf29ce484222325u64
                .wrapping_mul(0x100000001b3)
                .wrapping_mul(0x100000001b3)
                .wrapping_mul(0x100000001b3)
                .wrapping_mul(0x100000001b3)
                .wrapping_mul(0x100000001b3)
                .wrapping_mul(0x100000001b3)
                .wrapping_mul(0x100000001b3)
                .wrapping_mul(0x100000001b3)
                % 2) as usize
        );
    }

    #[test]
    fn partition_merge_roundtrips() {
        let delta = EdgeDelta {
            time: 3.5,
            new_pages: vec![9, 2, 77, 140, 5],
            added: vec![(1, 2), (9, 3), (140, 9), (2, 77)],
            removed: vec![(5, 1), (77, 2)],
        };
        for n in [1usize, 2, 3, 8] {
            let parts = partition_delta(&delta, n);
            assert_eq!(parts.len(), n);
            let merged = merge_partitions(&parts).unwrap();
            assert_eq!(merged, delta, "roundtrip at {n} shards");
        }
    }

    #[test]
    fn merge_rejects_disagreeing_records() {
        let delta = EdgeDelta {
            time: 1.0,
            new_pages: vec![1, 2, 3],
            ..Default::default()
        };
        let mut parts = partition_delta(&delta, 2);
        // duplicate slot
        let (shard, other) = if parts[0].new_pages.is_empty() {
            (1, 0)
        } else {
            (0, 1)
        };
        if !parts[shard].new_slots.is_empty() && parts[shard].new_slots.len() >= 2 {
            parts[shard].new_slots[1] = parts[shard].new_slots[0];
            assert!(
                merge_partitions(&parts).is_err(),
                "duplicate slot must fail"
            );
        }
        let mut parts = partition_delta(&delta, 2);
        parts[other].time = 2.0;
        assert!(
            merge_partitions(&parts).is_err(),
            "time disagreement must fail"
        );
        let mut parts = partition_delta(&delta, 2);
        if let Some(s) = parts[shard].new_slots.first_mut() {
            *s = 99;
            assert!(
                merge_partitions(&parts).is_err(),
                "out-of-range slot must fail"
            );
        }
    }

    #[test]
    fn sealed_view_starts_empty_and_coherent() {
        let store = ShardedStore::new(4);
        let view = store.current();
        assert_eq!(view.shards(), 4);
        assert_eq!(view.generation(), 0);
        assert_eq!(view.snapshot_time(), f64::NEG_INFINITY);
        assert!(view.is_empty());
        assert!(view.topk(5).is_empty());
        assert!(view.score(PageId(7)).is_none());
    }

    #[test]
    fn publish_report_swaps_the_view_and_old_views_stay_valid() {
        let report = crate::store::tests::report();
        let store = ShardedStore::new(3);
        store.publish_report(&report, 1, 2.0);
        let seen = store.current();
        assert_eq!((seen.generation(), seen.snapshot_time()), (1, 2.0));
        assert_eq!(seen.len(), 6);
        // an old view stays whole after the next publish
        store.publish_report(&report, 2, 3.0);
        assert_eq!((seen.generation(), seen.snapshot_time()), (1, 2.0));
        assert_eq!(seen.topk(6), store.current().topk(6));
        assert_eq!(store.current().generation(), 2);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let store = ShardedStore::new(0);
        assert_eq!(store.shards(), 1);
        assert_eq!(store.route(7), 0);
    }
}
