//! The immutable score store of one generation.
//!
//! A [`ScoreStore`] holds a published generation's scores: per-page
//! quality estimates, current PageRank, and trend classification, plus
//! a precomputed quality ordering for `topk` queries. Stores are built
//! off the request path (by the refresh worker) and published inside a
//! [`ShardView`](crate::ShardView), which carries the generation and
//! snapshot time they serve under.

use std::collections::HashMap;

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

/// One generation's immutable scores.
#[derive(Debug, Clone)]
pub struct ScoreStore {
    pages: Vec<PageId>,
    quality: Vec<f64>,
    pagerank: Vec<f64>,
    trends: Vec<Trend>,
    index: HashMap<u64, u32>,
    by_quality: Vec<u32>,
}

impl ScoreStore {
    /// An empty store (served before the first refresh).
    pub(crate) fn empty() -> Self {
        ScoreStore {
            pages: Vec::new(),
            quality: Vec::new(),
            pagerank: Vec::new(),
            trends: Vec::new(),
            index: HashMap::new(),
            by_quality: Vec::new(),
        }
    }

    /// Build the store of a pipeline report, next to the store it
    /// replaces. Score columns are copied verbatim (bit for bit), and
    /// the quality ordering is sorted with one comparator — quality
    /// descending by `total_cmp`, ties by ascending page id.
    ///
    /// When `previous` serves the same pages in the same rows — the
    /// steady state of a refresh — its page→row index is taken over (a
    /// table copy, not a rehash of every page; a copy rather than a
    /// shared pointer, so `score` reads it exactly as before) and the
    /// sort starts from its quality order, which a delta leaves nearly
    /// sorted. The comparator is a total order without ties (page ids
    /// are distinct), so the sorted order is unique and the store equals
    /// the one built next to an empty store.
    pub(crate) fn after(previous: &ScoreStore, report: &PipelineReport) -> Self {
        let pages = report.pages.clone();
        let quality = report.estimates.clone();
        let (index, mut by_quality) = if previous.pages == pages {
            (previous.index.clone(), previous.by_quality.clone())
        } else {
            (
                pages
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (p.0, i as u32))
                    .collect(),
                (0..pages.len() as u32).collect(),
            )
        };
        by_quality.sort_by(|&a, &b| {
            quality[b as usize]
                .total_cmp(&quality[a as usize])
                .then(pages[a as usize].cmp(&pages[b as usize]))
        });
        ScoreStore {
            pages,
            quality,
            pagerank: report.current.clone(),
            trends: report.trends.clone(),
            index,
            by_quality,
        }
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qrank_core::{run_pipeline, PipelineConfig};
    use qrank_graph::{CsrGraph, Snapshot, SnapshotSeries};

    /// A six-page report over a four-snapshot series.
    pub(crate) fn report() -> PipelineReport {
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

    /// The store of `r` built from nothing.
    fn whole(r: &PipelineReport) -> ScoreStore {
        ScoreStore::after(&ScoreStore::empty(), r)
    }

    #[test]
    fn lookup_matches_report_rows() {
        let r = report();
        let store = whole(&r);
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
        let store = whole(&report());
        let top = store.topk(6);
        assert_eq!(top.len(), 6);
        for w in top.windows(2) {
            assert!(w[0].1.quality >= w[1].1.quality);
        }
        // k beyond the page count truncates
        assert_eq!(store.topk(100).len(), 6);
        assert_eq!(store.topk(2).len(), 2);
    }
}
