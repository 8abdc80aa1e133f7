//! Restricting a window of snapshots to its common page universe.
//!
//! The paper intersects the page sets of all snapshots once, offline; a
//! serving system does it on every refresh as its window slides. The
//! intersection itself is [`SnapshotSeries::common_pages`] — a stateless
//! sorted merge, linear in the window — and this module holds the step
//! after it: restricting every snapshot the window has not restricted
//! before to that set, side by side.
//!
//! [`SnapshotSeries::common_pages`]: crate::SnapshotSeries::common_pages

use std::sync::Arc;

use crate::snapshot::{PageSet, Snapshot};
use crate::GraphError;

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
    use crate::{GraphBuilder, NodeId, PageId, SnapshotSeries};

    fn snap(time: f64, edges: &[(NodeId, NodeId)], pages: &[u64]) -> Snapshot {
        let mut b = GraphBuilder::with_nodes(pages.len());
        b.add_edges(edges.iter().copied());
        Snapshot::new(time, b.build(), ids(pages)).unwrap()
    }

    fn series(snaps: &[&Snapshot]) -> SnapshotSeries {
        let mut s = SnapshotSeries::new();
        for &sn in snaps {
            s.push(sn.clone()).unwrap();
        }
        s
    }

    fn ids(pages: &[u64]) -> Vec<PageId> {
        pages.iter().map(|&p| PageId(p)).collect()
    }

    // The window shapes a refresh produces. The intersection keeps no
    // state between windows, so each shape is just another series.

    #[test]
    fn matches_series_common_pages() {
        let s = series(&[
            &snap(0.0, &[(0, 1), (2, 3)], &[1, 2, 3, 4]),
            &snap(1.0, &[(0, 1)], &[2, 3, 4, 5]),
            &snap(2.0, &[(2, 3)], &[3, 4, 5, 6]),
        ]);
        let keep = PageSet::from_sorted(s.common_pages());
        let aligned = restrict_snapshots(s.snapshots(), &keep, 2).unwrap();
        assert_eq!(aligned.len(), 3);
        for a in &aligned {
            assert_eq!(a.pages(), s.common_pages().as_slice());
            assert!(Arc::ptr_eq(a.page_set(), &keep));
        }
        // only t = 0 links page 3 to page 4
        let edges = |a: &Snapshot| a.graph.edges().collect::<Vec<_>>();
        assert_eq!(edges(&aligned[0]), vec![(0, 1)]);
        assert!(edges(&aligned[1]).is_empty() && edges(&aligned[2]).is_empty());
    }

    #[test]
    fn append_tracks_common() {
        let s0 = snap(0.0, &[], &[1, 2, 3]);
        let s1 = snap(1.0, &[], &[1, 2, 3]);
        assert_eq!(series(&[&s0, &s1]).common_pages(), ids(&[1, 2, 3]));
        // same pages appended: unchanged
        let same = snap(2.0, &[], &[1, 2, 3]);
        assert_eq!(series(&[&s0, &s1, &same]).common_pages(), ids(&[1, 2, 3]));
        // page 3 missing from the appended snapshot: the set shrinks
        let fewer = snap(2.0, &[], &[1, 2]);
        assert_eq!(series(&[&s0, &s1, &fewer]).common_pages(), ids(&[1, 2]));
    }

    #[test]
    fn window_slide_can_grow_common() {
        let s0 = snap(0.0, &[], &[1, 2]);
        let s1 = snap(1.0, &[], &[1, 2, 3]);
        let s2 = snap(2.0, &[], &[1, 2, 3]);
        let s3 = snap(3.0, &[], &[1, 2, 3]);
        let mut window = series(&[&s0, &s1, &s2]);
        assert_eq!(window.common_pages(), ids(&[1, 2]));
        // s0 lacked page 3; once it slides out page 3 is everywhere
        window.push(s3).unwrap();
        window.pop_front();
        assert_eq!(window.common_pages(), ids(&[1, 2, 3]));
    }

    #[test]
    fn replaced_newest_snapshot_changes_common() {
        let s0 = snap(0.0, &[], &[1, 2, 3]);
        let s1 = snap(1.0, &[], &[1, 2, 3]);
        let newest = snap(2.0, &[], &[2, 3]);
        let replacement = snap(2.0, &[], &[1, 3, 4]);
        assert_eq!(series(&[&s0, &s1, &newest]).common_pages(), ids(&[2, 3]));
        assert_eq!(
            series(&[&s0, &s1, &replacement]).common_pages(),
            ids(&[1, 3])
        );
    }

    #[test]
    fn disjoint_window_rebuilds() {
        // slide until nothing of the first window is left
        let mut window = series(&[&snap(0.0, &[], &[1]), &snap(1.0, &[], &[1])]);
        assert_eq!(window.common_pages(), ids(&[1]));
        window.push(snap(5.0, &[], &[7])).unwrap();
        assert!(window.common_pages().is_empty(), "1 and 7 share no page");
        window.push(snap(6.0, &[], &[7])).unwrap();
        window.pop_front();
        window.pop_front();
        assert_eq!(window.common_pages(), ids(&[7]));
    }

    #[test]
    fn empty_series_clears_common() {
        let mut window = series(&[&snap(0.0, &[], &[1])]);
        assert_eq!(window.common_pages(), ids(&[1]));
        window.pop_front();
        assert!(window.common_pages().is_empty());
        let keep = PageSet::from_sorted(Vec::new());
        assert!(restrict_snapshots(window.snapshots(), &keep, 2)
            .unwrap()
            .is_empty());
    }
}
