//! The immutable, atomically-swappable score store.
//!
//! A [`ScoreStore`] is one *generation* of serving state: per-page
//! quality estimates, current PageRank, and trend classification, plus a
//! precomputed quality ordering for `topk` queries. Stores are built off
//! the request path (by the refresh worker) and published through a
//! [`StoreHandle`]; readers grab an `Arc` clone under a briefly-held read
//! lock, so a publish never blocks an in-flight request and a request
//! never observes a half-updated store.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;
use qrank_core::{PipelineReport, Trend};
use qrank_graph::PageId;

/// One page's serving scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageScores {
    /// Estimated quality (Equation 1).
    pub quality: f64,
    /// Current popularity (PageRank at the latest estimation snapshot).
    pub pagerank: f64,
    /// Trend over the estimation window.
    pub trend: Trend,
}

/// An immutable generation of scores.
#[derive(Debug, Clone)]
pub struct ScoreStore {
    generation: u64,
    snapshot_time: f64,
    pages: Vec<PageId>,
    quality: Vec<f64>,
    pagerank: Vec<f64>,
    trends: Vec<Trend>,
    index: HashMap<u64, u32>,
    by_quality: Vec<u32>,
}

impl ScoreStore {
    /// An empty generation-0 store (served before the first refresh).
    pub fn empty() -> Self {
        ScoreStore {
            generation: 0,
            snapshot_time: f64::NEG_INFINITY,
            pages: Vec::new(),
            quality: Vec::new(),
            pagerank: Vec::new(),
            trends: Vec::new(),
            index: HashMap::new(),
            by_quality: Vec::new(),
        }
    }

    /// Build a store from a pipeline report.
    pub fn from_report(report: &PipelineReport, generation: u64, snapshot_time: f64) -> Self {
        let all: Vec<u32> = (0..report.pages.len() as u32).collect();
        Self::from_report_rows(report, &all, generation, snapshot_time)
    }

    /// Build a store from a subset of a pipeline report's rows — the
    /// per-shard constructor. Score columns are copied verbatim (bit for
    /// bit), and the quality ordering is sorted with the exact
    /// comparator [`from_report`](Self::from_report) uses, so restricting
    /// rows commutes with sorting: a k-way merge of per-shard stores
    /// reproduces the unsharded order bitwise.
    pub fn from_report_rows(
        report: &PipelineReport,
        rows: &[u32],
        generation: u64,
        snapshot_time: f64,
    ) -> Self {
        Self::after(None, report, rows, generation, snapshot_time)
    }

    /// [`from_report_rows`](Self::from_report_rows) for a publisher that
    /// holds the generation being replaced. When `previous` serves the
    /// same pages in the same rows — the steady state of a refresh — its
    /// page→row index is taken over (a table copy, not a rehash of every
    /// page; a copy rather than a shared pointer, so `score` reads it
    /// exactly as before) and the sort starts from its quality order,
    /// which a delta leaves nearly sorted. The comparator is a total
    /// order without ties (page ids are distinct), so the sorted order
    /// is unique and the store equals the one built from nothing.
    pub(crate) fn after(
        previous: Option<&ScoreStore>,
        report: &PipelineReport,
        rows: &[u32],
        generation: u64,
        snapshot_time: f64,
    ) -> Self {
        let take = |col: &[f64]| -> Vec<f64> { rows.iter().map(|&r| col[r as usize]).collect() };
        let pages: Vec<PageId> = rows.iter().map(|&r| report.pages[r as usize]).collect();
        let quality = take(&report.estimates);
        let (index, mut by_quality) = match previous.filter(|p| p.pages == pages) {
            Some(p) => (p.index.clone(), p.by_quality.clone()),
            None => (
                pages
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (p.0, i as u32))
                    .collect(),
                (0..pages.len() as u32).collect(),
            ),
        };
        by_quality.sort_by(|&a, &b| {
            quality[b as usize]
                .total_cmp(&quality[a as usize])
                .then(pages[a as usize].cmp(&pages[b as usize]))
        });
        ScoreStore {
            generation,
            snapshot_time,
            pages,
            quality,
            pagerank: take(&report.current),
            trends: rows.iter().map(|&r| report.trends[r as usize]).collect(),
            index,
            by_quality,
        }
    }

    /// Generation counter (monotonic; 0 = empty pre-refresh store).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Capture time of the latest estimation snapshot in this store.
    pub fn snapshot_time(&self) -> f64 {
        self.snapshot_time
    }

    /// Number of pages served.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when no pages are served yet.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Scores of `page`, if it is in the serving set.
    pub fn score(&self, page: PageId) -> Option<PageScores> {
        let &row = self.index.get(&page.0)?;
        let i = row as usize;
        Some(PageScores {
            quality: self.quality[i],
            pagerank: self.pagerank[i],
            trend: self.trends[i],
        })
    }

    /// The `i`-th best page in this store's quality order (0 = best), or
    /// `None` past the end — the cursor primitive the sharded k-way
    /// merge walks.
    pub fn nth_best(&self, i: usize) -> Option<(PageId, PageScores)> {
        let row = *self.by_quality.get(i)? as usize;
        Some((
            self.pages[row],
            PageScores {
                quality: self.quality[row],
                pagerank: self.pagerank[row],
                trend: self.trends[row],
            },
        ))
    }

    /// The `k` highest-quality pages, best first (ties broken by page
    /// id). Precomputed at build time — a `topk` query is a slice copy.
    pub fn topk(&self, k: usize) -> Vec<(PageId, PageScores)> {
        self.by_quality
            .iter()
            .take(k)
            .map(|&row| {
                let i = row as usize;
                (
                    self.pages[i],
                    PageScores {
                        quality: self.quality[i],
                        pagerank: self.pagerank[i],
                        trend: self.trends[i],
                    },
                )
            })
            .collect()
    }
}

/// Shared handle through which readers see the current store and the
/// refresh worker publishes new generations.
///
/// The lock is only held long enough to clone or replace an `Arc` — a
/// few nanoseconds — so readers are effectively never blocked by a
/// publish (this is asserted by the concurrent-reader test).
#[derive(Debug)]
pub struct StoreHandle {
    current: RwLock<Arc<ScoreStore>>,
}

impl StoreHandle {
    /// A handle serving the empty generation-0 store.
    pub fn new() -> Self {
        StoreHandle {
            current: RwLock::new(Arc::new(ScoreStore::empty())),
        }
    }

    /// A handle starting from an existing store.
    pub fn with_store(store: ScoreStore) -> Self {
        StoreHandle {
            current: RwLock::new(Arc::new(store)),
        }
    }

    /// The current generation (cheap `Arc` clone).
    pub fn current(&self) -> Arc<ScoreStore> {
        self.current.read().clone()
    }

    /// Atomically swap in a new generation.
    pub fn publish(&self, store: ScoreStore) {
        *self.current.write() = Arc::new(store);
    }
}

impl Default for StoreHandle {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_core::{run_pipeline, PipelineConfig};
    use qrank_graph::{CsrGraph, Snapshot, SnapshotSeries};

    fn report() -> PipelineReport {
        let pages: Vec<PageId> = (0..6).map(PageId).collect();
        let base = vec![(3u32, 2u32), (4, 2), (5, 2), (2, 0), (0, 2), (1, 0)];
        let mut s = SnapshotSeries::new();
        for (i, extra) in [
            vec![(3u32, 1u32)],
            vec![(3, 1), (4, 1)],
            vec![(3, 1), (4, 1), (5, 1)],
            vec![(3, 1), (4, 1), (5, 1), (0, 1)],
        ]
        .iter()
        .enumerate()
        {
            let mut edges = base.clone();
            edges.extend_from_slice(extra);
            s.push(
                Snapshot::new(i as f64, CsrGraph::from_edges(6, &edges), pages.clone()).unwrap(),
            )
            .unwrap();
        }
        run_pipeline(&s, &PipelineConfig::default()).unwrap()
    }

    #[test]
    fn lookup_matches_report_rows() {
        let r = report();
        let store = ScoreStore::from_report(&r, 3, 2.0);
        assert_eq!(store.generation(), 3);
        assert_eq!(store.len(), 6);
        for (i, &p) in r.pages.iter().enumerate() {
            let s = store.score(p).unwrap();
            assert_eq!(s.quality, r.estimates[i]);
            assert_eq!(s.pagerank, r.current[i]);
            assert_eq!(s.trend, r.trends[i]);
        }
        assert!(store.score(PageId(999)).is_none());
    }

    #[test]
    fn topk_is_sorted_by_quality() {
        let store = ScoreStore::from_report(&report(), 1, 2.0);
        let top = store.topk(6);
        assert_eq!(top.len(), 6);
        for w in top.windows(2) {
            assert!(w[0].1.quality >= w[1].1.quality);
        }
        // k beyond the page count truncates
        assert_eq!(store.topk(100).len(), 6);
        assert_eq!(store.topk(2).len(), 2);
    }

    #[test]
    fn row_restriction_preserves_bits_and_order() {
        let r = report();
        let full = ScoreStore::from_report(&r, 1, 2.0);
        let sub = ScoreStore::from_report_rows(&r, &[4, 1, 3], 1, 2.0);
        assert_eq!(sub.len(), 3);
        for &row in &[4usize, 1, 3] {
            let s = sub.score(r.pages[row]).unwrap();
            assert_eq!(s.quality.to_bits(), r.estimates[row].to_bits());
            assert_eq!(s.pagerank.to_bits(), r.current[row].to_bits());
        }
        assert!(sub.score(r.pages[0]).is_none());
        // the restricted quality order is the full order filtered
        let full_order: Vec<PageId> = full
            .topk(6)
            .into_iter()
            .map(|(p, _)| p)
            .filter(|p| [r.pages[4], r.pages[1], r.pages[3]].contains(p))
            .collect();
        let sub_order: Vec<PageId> = (0..3).map(|i| sub.nth_best(i).unwrap().0).collect();
        assert_eq!(sub_order, full_order);
        assert!(sub.nth_best(3).is_none());
    }

    #[test]
    fn handle_swaps_generations_atomically() {
        let handle = StoreHandle::new();
        assert_eq!(handle.current().generation(), 0);
        assert!(handle.current().is_empty());
        let r = report();
        handle.publish(ScoreStore::from_report(&r, 1, 2.0));
        let seen = handle.current();
        assert_eq!(seen.generation(), 1);
        // an old Arc stays valid after the next publish
        handle.publish(ScoreStore::from_report(&r, 2, 3.0));
        assert_eq!(seen.generation(), 1);
        assert_eq!(handle.current().generation(), 2);
    }
}
