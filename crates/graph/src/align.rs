//! Incremental common-page-set maintenance for sliding snapshot windows.
//!
//! The paper intersects the page sets of all snapshots once, offline. A
//! serving system re-runs that intersection on every refresh as its
//! window of snapshots slides, and re-intersecting from scratch is
//! O(window · pages log pages) per refresh. [`AlignmentTracker`] instead
//! diffs the new window against the previous one: snapshots shared
//! between the two windows (matched by their structural
//! [`fingerprint`](crate::Snapshot::fingerprint)) keep their per-page
//! presence counts, only the dropped and appended snapshots touch the
//! counter map, and the common set falls out as "pages whose count
//! equals the window length". The tracker also reports *whether* the
//! common set changed, which is what lets the pipeline engine decide
//! between reusing cached trajectory columns and recomputing them.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::fingerprint::pages_fingerprint;
use crate::snapshot::{PageId, PageSet, Snapshot, SnapshotSeries};
use crate::GraphError;

/// What [`AlignmentTracker::realign`] did and what it found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Realignment {
    /// True when the new window was reconciled by popping dropped
    /// snapshots and pushing appended ones; false when nothing of the
    /// previous window survived and the counts were rebuilt from
    /// scratch.
    pub incremental: bool,
    /// True when the common page set differs from the previous call
    /// (always true on the first call with a non-empty window).
    pub common_changed: bool,
}

/// Tracks the page set common to every snapshot of a sliding window.
///
/// Feed it the full window on every refresh via [`realign`]; it
/// internally diffs against the previous window so steady-state appends
/// and slides cost O(pages of the snapshots that actually entered or
/// left), not O(whole window).
///
/// [`realign`]: AlignmentTracker::realign
#[derive(Debug, Clone)]
pub struct AlignmentTracker {
    /// Fingerprint and page set of each snapshot currently counted,
    /// oldest first. `Arc` bumps of the snapshots' own universes — the
    /// tracker never copies a page vector.
    window: VecDeque<(u64, Arc<PageSet>)>,
    /// How many window snapshots each page appears in.
    counts: HashMap<PageId, u32>,
    /// Pages with `counts == window.len()`, ascending — shared with
    /// every snapshot aligned against this tracker.
    common: Arc<PageSet>,
    common_fp: u64,
}

impl Default for AlignmentTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl AlignmentTracker {
    /// A tracker that has seen no snapshots.
    pub fn new() -> Self {
        AlignmentTracker {
            window: VecDeque::new(),
            counts: HashMap::new(),
            common: PageSet::from_sorted(Vec::new()),
            common_fp: pages_fingerprint(&[]),
        }
    }

    /// Reconcile the tracker with `series` (the new window, oldest
    /// first) and recompute the common page set.
    ///
    /// The diff recognizes the production window shapes directly: if
    /// some suffix of the previous window is a prefix of the new one
    /// (append: whole window survives; slide: all but the oldest
    /// survive), only the dropped and appended snapshots are counted.
    /// Any other shape falls back to rebuilding the counts.
    pub fn realign(&mut self, series: &SnapshotSeries) -> Realignment {
        let new_fps: Vec<u64> = series.snapshots().iter().map(|s| s.fingerprint()).collect();
        let (drop_front, keep) = self.reusable_overlap(&new_fps);
        let incremental = keep > 0;
        if incremental {
            for _ in 0..drop_front {
                if let Some((_, pages)) = self.window.pop_front() {
                    self.uncount(pages);
                }
            }
            while self.window.len() > keep {
                if let Some((_, pages)) = self.window.pop_back() {
                    self.uncount(pages);
                }
            }
        } else {
            self.window.clear();
            self.counts.clear();
        }
        for snap in &series.snapshots()[self.window.len()..] {
            for &p in snap.pages() {
                *self.counts.entry(p).or_insert(0) += 1;
            }
            self.window
                .push_back((snap.fingerprint(), Arc::clone(snap.page_set())));
        }
        debug_assert_eq!(self.window.len(), series.len());

        let full = self.window.len() as u32;
        let mut common: Vec<PageId> = if full == 0 {
            Vec::new()
        } else {
            self.counts
                .iter()
                .filter(|&(_, &c)| c == full)
                .map(|(&p, _)| p)
                .collect()
        };
        common.sort_unstable();
        let common_fp = pages_fingerprint(&common);
        let common_changed = common_fp != self.common_fp;
        if common_changed {
            self.common = PageSet::from_sorted(common);
            self.common_fp = common_fp;
        }
        Realignment {
            incremental,
            common_changed,
        }
    }

    /// Remove one departed snapshot's pages from the presence counts.
    fn uncount(&mut self, pages: Arc<PageSet>) {
        for &p in pages.ids() {
            match self.counts.get_mut(&p) {
                Some(c) if *c > 1 => *c -= 1,
                _ => {
                    self.counts.remove(&p);
                }
            }
        }
    }

    /// `(drop_front, keep)`: the largest contiguous run of tracked
    /// snapshots `window[drop_front..drop_front + keep]` equal to the
    /// first `keep` snapshots of the new window — the snapshots whose
    /// counts can be kept. An append keeps the whole window, a slide
    /// keeps all but the oldest, a replaced-newest keeps the prefix.
    /// Windows are short (a serving window is a handful of snapshots),
    /// so the quadratic scan is cheaper than any cleverness.
    fn reusable_overlap(&self, new_fps: &[u64]) -> (usize, usize) {
        for keep in (1..=self.window.len().min(new_fps.len())).rev() {
            for drop_front in 0..=self.window.len() - keep {
                if (0..keep).all(|i| self.window[drop_front + i].0 == new_fps[i]) {
                    return (drop_front, keep);
                }
            }
        }
        (0, 0)
    }

    /// Pages present in every snapshot of the last realigned window,
    /// ascending by id.
    pub fn common_pages(&self) -> &[PageId] {
        self.common.ids()
    }

    /// The common page universe as a shareable set. Snapshots restricted
    /// against it ([`Snapshot::restrict_to_set`]) hold an `Arc` of this
    /// set rather than their own page vector, so a window of W aligned
    /// snapshots stores one page universe. The `Arc` is only replaced
    /// when the common set actually changes, so unchanged realignments
    /// keep previously aligned snapshots pointer-equal too.
    pub fn common_page_set(&self) -> &Arc<PageSet> {
        &self.common
    }

    /// Fingerprint of [`common_pages`](AlignmentTracker::common_pages),
    /// suitable as a cache key for artifacts derived from the common
    /// set.
    pub fn common_fingerprint(&self) -> u64 {
        self.common_fp
    }

    /// Number of snapshots in the last realigned window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }
}

/// Restrict each snapshot in `snaps` to the shared universe `keep`,
/// on up to `threads` threads, the calling thread included.
///
/// Each restriction is a pure function of its input snapshot, so the
/// work parallelizes without coordination: every worker fills result
/// slots no other worker touches ([`crate::par::for_each_slot`]) and
/// results land in input order. Output is therefore **bitwise
/// thread-count-independent** — budgets 1, 2, and 8 produce identical
/// snapshots with identical fingerprints.
///
/// Errors (an unknown page in some snapshot) are reported for the
/// earliest failing snapshot, again independent of thread count.
pub fn restrict_snapshots<S: std::borrow::Borrow<Snapshot> + Sync>(
    snaps: &[S],
    keep: &Arc<PageSet>,
    threads: usize,
) -> Result<Vec<Snapshot>, GraphError> {
    let workers = threads.clamp(1, snaps.len().max(1));
    if qrank_obs::enabled() && !snaps.is_empty() {
        qrank_obs::global()
            .counter("align.parallel_chunks")
            .add(workers as u64);
    }
    let mut slots: Vec<Option<Result<Snapshot, GraphError>>> = Vec::new();
    slots.resize_with(snaps.len(), || None);
    crate::par::for_each_slot(&mut slots, snaps, workers, |slot, snap| {
        *slot = Some(snap.borrow().restrict_to_set(keep));
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every slot is filled by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, NodeId, Snapshot};

    fn snap(time: f64, edges: &[(NodeId, NodeId)], pages: &[u64]) -> Snapshot {
        let mut b = GraphBuilder::with_nodes(pages.len());
        b.add_edges(edges.iter().copied());
        Snapshot::new(time, b.build(), pages.iter().map(|&p| PageId(p)).collect()).unwrap()
    }

    fn series(snaps: Vec<Snapshot>) -> SnapshotSeries {
        let mut s = SnapshotSeries::new();
        for sn in snaps {
            s.push(sn).unwrap();
        }
        s
    }

    #[test]
    fn first_realign_is_full_rebuild() {
        let mut t = AlignmentTracker::new();
        let s = series(vec![snap(0.0, &[], &[1, 2, 3]), snap(1.0, &[], &[2, 3, 4])]);
        let r = t.realign(&s);
        assert!(!r.incremental);
        assert!(r.common_changed);
        assert_eq!(t.common_pages(), &[PageId(2), PageId(3)]);
        assert_eq!(t.window_len(), 2);
    }

    #[test]
    fn matches_series_common_pages() {
        let mut t = AlignmentTracker::new();
        let s = series(vec![
            snap(0.0, &[(0, 1)], &[1, 2, 3, 4]),
            snap(1.0, &[], &[2, 3, 4, 5]),
            snap(2.0, &[], &[3, 4, 5, 6]),
        ]);
        t.realign(&s);
        assert_eq!(t.common_pages(), s.common_pages().as_slice());
    }

    #[test]
    fn append_is_incremental_and_tracks_common() {
        let mut t = AlignmentTracker::new();
        let s0 = snap(0.0, &[], &[1, 2, 3]);
        let s1 = snap(1.0, &[], &[1, 2, 3]);
        t.realign(&series(vec![s0.clone(), s1.clone()]));
        let fp_before = t.common_fingerprint();

        // Same pages appended: incremental, common unchanged.
        let s2 = snap(2.0, &[], &[1, 2, 3]);
        let r = t.realign(&series(vec![s0.clone(), s1.clone(), s2]));
        assert!(r.incremental);
        assert!(!r.common_changed);
        assert_eq!(t.common_fingerprint(), fp_before);

        // Page 3 missing from the appended snapshot: common shrinks.
        let s2b = snap(2.0, &[], &[1, 2]);
        let r = t.realign(&series(vec![s0, s1, s2b]));
        assert!(r.incremental);
        assert!(r.common_changed);
        assert_eq!(t.common_pages(), &[PageId(1), PageId(2)]);
    }

    #[test]
    fn window_slide_is_incremental() {
        let mut t = AlignmentTracker::new();
        let s0 = snap(0.0, &[], &[1, 2]);
        let s1 = snap(1.0, &[], &[1, 2, 3]);
        let s2 = snap(2.0, &[], &[1, 2, 3]);
        let s3 = snap(3.0, &[], &[1, 2, 3]);
        t.realign(&series(vec![s0, s1.clone(), s2.clone()]));
        assert_eq!(t.common_pages(), &[PageId(1), PageId(2)]);

        // Slide: drop s0 (which lacked page 3), append s3. Page 3 is now
        // in every window snapshot, so the common set *grows*.
        let r = t.realign(&series(vec![s1, s2, s3]));
        assert!(r.incremental);
        assert!(r.common_changed);
        assert_eq!(t.common_pages(), &[PageId(1), PageId(2), PageId(3)]);
    }

    #[test]
    fn disjoint_window_rebuilds() {
        let mut t = AlignmentTracker::new();
        t.realign(&series(vec![snap(0.0, &[], &[1]), snap(1.0, &[], &[1])]));
        let r = t.realign(&series(vec![snap(5.0, &[], &[7]), snap(6.0, &[], &[7])]));
        assert!(!r.incremental);
        assert!(r.common_changed);
        assert_eq!(t.common_pages(), &[PageId(7)]);
    }

    #[test]
    fn empty_series_clears_common() {
        let mut t = AlignmentTracker::new();
        t.realign(&series(vec![snap(0.0, &[], &[1])]));
        assert_eq!(t.common_pages(), &[PageId(1)]);
        let r = t.realign(&SnapshotSeries::new());
        assert!(!r.incremental);
        assert!(r.common_changed);
        assert!(t.common_pages().is_empty());
        assert_eq!(t.window_len(), 0);
    }
}
