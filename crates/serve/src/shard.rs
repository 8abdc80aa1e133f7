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
//! Nothing on disk depends on the shard count: a data directory holds
//! one journal whatever N the store is served with.

use std::sync::Arc;

use parking_lot::RwLock;
use qrank_core::PipelineReport;
use qrank_graph::PageId;

use crate::store::{PageScores, ScoreStore};

fn bump(name: &'static str) {
    if qrank_obs::enabled() {
        qrank_obs::global().counter(name).inc();
    }
}

/// The page→shard mapping: FNV-1a over the page id's eight
/// little-endian bytes, reduced mod `shards`.
///
/// Stable across processes, platforms, and releases. Defined here and
/// nowhere else.
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
    }
}
