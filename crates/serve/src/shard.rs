//! One store per generation: the served store's sealed view.
//!
//! A [`ShardedStore`] holds one sealed [`ShardView`]: the generation's
//! one [`ScoreStore`] together with the generation and snapshot time it
//! was published under. Every verb — `score`, `topk`, `stats`, `health`,
//! `metrics` — reads one view for the whole request, and a publish
//! swaps the whole view at once, so no reader can see a `score` from a
//! generation `health` does not show yet.
//!
//! The names `ShardedStore`, `ShardView`, [`ShardedStore::new`]'s
//! argument, [`ShardView::shards`] and [`shard_of`] outlive the
//! in-process shards they were written for: `benchmark/src` names them,
//! so they stay until the benchmark stops doing so. Nothing else calls
//! `shard_of`, and no shard count reaches a store.

use std::sync::Arc;

use parking_lot::RwLock;
use qrank_core::PipelineReport;
use qrank_graph::PageId;

use crate::store::{PageScores, ScoreStore};

/// The page→shard mapping: FNV-1a over the page id's eight
/// little-endian bytes, reduced mod `shards`.
///
/// Stable across processes, platforms, and releases. No layer of the
/// system routes pages any more; the function stays, with its
/// constants defined here and nowhere else, only because
/// `benchmark/src` names it.
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

/// A sealed view of one generation: its store, stamped with the
/// generation and snapshot time it serves under. Reads run entirely
/// against one view and can never mix generations.
#[derive(Debug)]
pub struct ShardView {
    store: ScoreStore,
    generation: u64,
    snapshot_time: f64,
}

impl ShardView {
    /// Always 1: a generation is one store. Kept only because
    /// `benchmark/src` calls it.
    pub fn shards(&self) -> usize {
        1
    }

    /// The generation this view was published under (0 = the empty
    /// pre-refresh view).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of pages served.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no pages are served.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Capture time of the newest snapshot ranked into this view
    /// (`NEG_INFINITY` pre-refresh).
    pub fn snapshot_time(&self) -> f64 {
        self.snapshot_time
    }

    /// Scores of `page`, if it is in the serving set.
    pub fn score(&self, page: PageId) -> Option<PageScores> {
        self.store.score(page)
    }

    /// The `k` highest-quality pages, best first (quality descending by
    /// `f64::total_cmp`, ties by ascending `PageId`).
    pub fn topk(&self, k: usize) -> Vec<(PageId, PageScores)> {
        self.store.topk(k)
    }
}

/// The serving core: the one sealed [`ShardView`] every read goes
/// through, swapped whole by [`publish_report`](Self::publish_report).
#[derive(Debug)]
pub struct ShardedStore {
    view: RwLock<Arc<ShardView>>,
}

impl ShardedStore {
    /// An empty generation-0 store. The argument is ignored: it is a
    /// shard count from when the store was partitioned, kept only
    /// because `benchmark/src` passes one.
    pub fn new(_shards: usize) -> Self {
        ShardedStore {
            view: RwLock::new(Arc::new(ShardView {
                store: ScoreStore::empty(),
                generation: 0,
                snapshot_time: f64::NEG_INFINITY,
            })),
        }
    }

    /// The sealed view (cheap `Arc` clone under a briefly-held read
    /// lock, so a publish never stalls a reader).
    pub fn current(&self) -> Arc<ShardView> {
        self.view.read().clone()
    }

    /// Publish one pipeline report as a full generation: build its store
    /// next to the store in the current view (`ScoreStore::after`), then
    /// swap the new view in once.
    pub fn publish_report(&self, report: &PipelineReport, generation: u64, snapshot_time: f64) {
        let _span = qrank_obs::span!("shard.publish_report");
        let view = {
            let _s = qrank_obs::span!("shard.build");
            ShardView {
                store: ScoreStore::after(&self.current().store, report),
                generation,
                snapshot_time,
            }
        };
        let _s = qrank_obs::span!("shard.seal");
        *self.view.write() = Arc::new(view);
        qrank_obs::count("shard.seal", 1);
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
        assert_eq!(view.shards(), 1);
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
        assert_eq!(store.current().shards(), 1);
    }
}
