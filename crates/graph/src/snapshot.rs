//! Web snapshots and snapshot series.
//!
//! Section 8 of the paper: download the same sites several times, keep
//! the pages *common to all snapshots* (2.7M of 5M in the paper), and
//! compute PageRank on each snapshot's induced subgraph. A [`Snapshot`]
//! pairs a [`CsrGraph`] with the stable external identity ([`PageId`]) of
//! each node; a [`SnapshotSeries`] aligns several snapshots onto a shared
//! node numbering so per-page time series (PageRank trajectories) are a
//! simple array lookup.
//!
//! Page identities live in an [`Arc`]-shared [`PageSet`]: aligning a
//! window of W snapshots to a common page universe stores **one** page
//! vector and **one** lookup index for the whole window, not W clones of
//! each. The set is also hash-free — lookups binary-search the sorted
//! ids (or a sorted view of them), so the alignment hot path never
//! constructs a `HashMap` (a CI grep guard keeps it that way).

use std::borrow::Cow;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{CsrGraph, GraphError, NodeId};

/// Stable external identity of a page (URL hash in a real crawler; the
/// simulator's page index here). Unlike [`NodeId`], a `PageId` means the
/// same page in every snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId(pub u64);

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page:{}", self.0)
    }
}

/// An immutable, shareable page universe: `ids[node]` is the external
/// identity of `node`, plus a lookup structure for the reverse mapping.
///
/// Always handled as `Arc<PageSet>` so every snapshot aligned to the
/// same universe shares one allocation. Lookups never hash: when the ids
/// are sorted ascending
/// (the common case — crawler captures and common-page intersections are
/// sorted by construction) [`node_of`](PageSet::node_of) is a direct
/// binary search; otherwise a sorted permutation built once at
/// construction is searched instead.
#[derive(Debug, Clone)]
pub struct PageSet {
    ids: Vec<PageId>,
    /// Node ids permuted so `ids[order[k]]` ascends; `None` when `ids`
    /// itself is sorted ascending.
    order: Option<Vec<NodeId>>,
}

impl PartialEq for PageSet {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids
    }
}

impl Eq for PageSet {}

impl PageSet {
    /// Build a page set, validating that every id is unique. Accepts any
    /// order; the sorted-input fast path skips building the permutation.
    pub fn new(ids: Vec<PageId>) -> Result<Arc<PageSet>, GraphError> {
        let _span = qrank_obs::span!("align.index");
        if ids.windows(2).all(|w| w[0] < w[1]) {
            return Ok(Arc::new(PageSet { ids, order: None }));
        }
        let mut order: Vec<NodeId> = (0..ids.len() as NodeId).collect();
        order.sort_unstable_by_key(|&n| ids[n as usize]);
        for w in order.windows(2) {
            if ids[w[0] as usize] == ids[w[1] as usize] {
                return Err(GraphError::MisalignedSnapshots(format!(
                    "duplicate page id {} in snapshot",
                    ids[w[0] as usize]
                )));
            }
        }
        Ok(Arc::new(PageSet {
            ids,
            order: Some(order),
        }))
    }

    /// Trusted constructor for ids already sorted strictly ascending
    /// (sortedness implies uniqueness). Debug builds assert the
    /// precondition; release builds trust the caller. This is the
    /// alignment path: common-page intersections and crawler captures
    /// are sorted by construction.
    pub fn from_sorted(ids: Vec<PageId>) -> Arc<PageSet> {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted strictly ascending"
        );
        Arc::new(PageSet { ids, order: None })
    }

    /// The ids in node order (`ids()[node]` identifies `node`).
    pub fn ids(&self) -> &[PageId] {
        &self.ids
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Node labeled `page`, if present. O(log n) binary search; no
    /// hashing.
    pub fn node_of(&self, page: PageId) -> Option<NodeId> {
        match &self.order {
            None => self.ids.binary_search(&page).ok().map(|i| i as NodeId),
            Some(order) => order
                .binary_search_by(|&n| self.ids[n as usize].cmp(&page))
                .ok()
                .map(|k| order[k]),
        }
    }

    /// The ids in ascending order: a borrow of `ids` when already
    /// sorted, the stored permutation applied otherwise.
    pub fn sorted_ids(&self) -> Cow<'_, [PageId]> {
        match &self.order {
            None => Cow::Borrowed(&self.ids),
            Some(order) => order.iter().map(|&n| self.ids[n as usize]).collect(),
        }
    }

    /// `old_to_new[node]`: the node of `keep` labeled like this set's
    /// `node`, `NodeId::MAX` for a page `keep` lacks — one merge of the
    /// two sets' ids in ascending order, walking `order` where the ids
    /// are unsorted.
    ///
    /// A page of `keep` that this set lacks is an
    /// [`UnknownPage`](GraphError::UnknownPage) naming the first such
    /// page in `keep`'s node order, whatever order the merge meets them.
    fn renaming_onto(&self, keep: &PageSet) -> Result<Vec<NodeId>, GraphError> {
        let mut old_to_new = vec![NodeId::MAX; self.len()];
        let mut unknown = NodeId::MAX;
        let mut k = 0;
        for rank in 0..keep.len() {
            let new = keep.node_by_rank(rank);
            let page = keep.ids[new as usize];
            while k < self.len() && self.ids[self.node_by_rank(k) as usize] < page {
                k += 1;
            }
            if k < self.len() && self.ids[self.node_by_rank(k) as usize] == page {
                old_to_new[self.node_by_rank(k) as usize] = new;
                k += 1;
            } else {
                unknown = unknown.min(new);
            }
        }
        match keep.ids.get(unknown as usize) {
            Some(page) => Err(GraphError::UnknownPage(page.0)),
            None => Ok(old_to_new),
        }
    }

    /// The node holding the `rank`-th smallest id.
    #[inline]
    fn node_by_rank(&self, rank: usize) -> NodeId {
        match &self.order {
            None => rank as NodeId,
            Some(order) => order[rank],
        }
    }
}

impl std::ops::Deref for PageSet {
    type Target = [PageId];

    fn deref(&self) -> &[PageId] {
        &self.ids
    }
}

/// The link structure of a page corpus captured at one instant.
///
/// Construction builds two derived artifacts exactly once: the shared
/// [`PageSet`] (reverse lookup without hashing, see
/// [`Snapshot::page_set`]) and a 64-bit structural
/// [`fingerprint`](Snapshot::fingerprint) over the CSR arrays, the page
/// ids, and the capture time. The incremental pipeline engine keys its
/// cached stage artifacts by that fingerprint.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Capture time (same unit as the simulator clock; months in the
    /// paper's timeline).
    pub time: f64,
    /// Link graph among the captured pages.
    pub graph: CsrGraph,
    pages: Arc<PageSet>,
    fingerprint: u64,
}

impl Snapshot {
    /// Construct, validating that `pages` labels every node exactly once.
    pub fn new(time: f64, graph: CsrGraph, pages: Vec<PageId>) -> Result<Self, GraphError> {
        Snapshot::from_page_set(time, graph, PageSet::new(pages)?)
    }

    /// Construct around an existing (already-validated) page universe —
    /// the trusted path used by alignment and the snapshot crawler. The
    /// set is shared by reference: restricting W snapshots to one common
    /// universe stores one page vector, not W.
    pub fn from_page_set(
        time: f64,
        graph: CsrGraph,
        pages: Arc<PageSet>,
    ) -> Result<Self, GraphError> {
        if pages.len() != graph.num_nodes() {
            return Err(GraphError::MisalignedSnapshots(format!(
                "{} page ids for {} nodes",
                pages.len(),
                graph.num_nodes()
            )));
        }
        let _span = qrank_obs::span!("align.fingerprint");
        let mut h = crate::fingerprint::Fingerprinter::new();
        h.word(time.to_bits());
        graph.fold_structure(&mut h);
        h.words(pages.ids().iter().map(|p| p.0));
        Ok(Snapshot {
            time,
            graph,
            pages,
            fingerprint: h.finish(),
        })
    }

    /// Number of pages captured.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// `pages()[node]` = external identity of `node`. Length equals
    /// `graph.num_nodes()`.
    pub fn pages(&self) -> &[PageId] {
        self.pages.ids()
    }

    /// The shared page universe. Snapshots aligned to the same common
    /// set return the same `Arc` (pointer-equal).
    pub fn page_set(&self) -> &Arc<PageSet> {
        &self.pages
    }

    /// Structural content fingerprint: 64-bit FNV-1a over the capture
    /// time, the CSR arrays, and the page ids, computed once at
    /// construction. Equal snapshots have equal fingerprints; the
    /// pipeline engine treats equal fingerprints as equal content.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Node id of `page`, if captured. O(log n) via the shared page set;
    /// no hashing.
    pub fn node_of(&self, page: PageId) -> Option<NodeId> {
        self.pages.node_of(page)
    }

    /// Restrict this snapshot to `keep` (any order; unknown or duplicate
    /// pages are an error), relabeling nodes so that node `i` is
    /// `keep[i]`.
    pub fn restrict_to(&self, keep: &[PageId]) -> Result<Snapshot, GraphError> {
        self.restrict_to_set(&PageSet::new(keep.to_vec())?)
    }

    /// [`Snapshot::restrict_to`] against a shared page universe: the
    /// restricted snapshot holds an `Arc` of `keep` rather than its own
    /// copy. Old ids are mapped to new ones by one merge of the two id
    /// lists in ascending order, and the graph is restricted in one
    /// filtering pass ([`CsrGraph::restrict_relabel`]) — no per-page
    /// search, no intermediate edge list, no second relabel pass, no
    /// hashing. An unknown page is reported as the first one in `keep`'s
    /// node order.
    ///
    /// When `keep` lists exactly this snapshot's pages in this snapshot's
    /// node order the restriction is the identity: the result is this
    /// graph under the shared `keep`, fingerprint carried over (it covers
    /// the time, the graph and the page ids, all unchanged) — what the
    /// fused pass would rebuild, without the pass or the re-hash. A
    /// window whose snapshots all hold the same pages takes this path on
    /// every restriction; a growing crawl never does.
    pub fn restrict_to_set(&self, keep: &Arc<PageSet>) -> Result<Snapshot, GraphError> {
        if keep.ids() == self.pages.ids() {
            return Ok(Snapshot {
                time: self.time,
                graph: self.graph.clone(),
                pages: Arc::clone(keep),
                fingerprint: self.fingerprint,
            });
        }
        let graph = {
            let _span = qrank_obs::span!("align.restrict");
            let old_to_new = self.pages.renaming_onto(keep)?;
            self.graph.restrict_relabel(&old_to_new, keep.len())
        };
        Snapshot::from_page_set(self.time, graph, Arc::clone(keep))
    }
}

/// A time-ordered sequence of snapshots of the same (evolving) corpus.
///
/// Supports amortized-O(1) removal from the front (sliding-window
/// consumers such as the serving layer's refresh engine evict the
/// oldest snapshot on every slide): instead of shifting the vector,
/// [`pop_front`](SnapshotSeries::pop_front) advances a head offset and
/// the storage is compacted only when at least half of it is dead, so
/// each element is moved O(1) times over its lifetime and
/// [`snapshots`](SnapshotSeries::snapshots) can keep returning a
/// contiguous slice.
#[derive(Debug, Clone, Default)]
pub struct SnapshotSeries {
    snapshots: Vec<Snapshot>,
    head: usize,
}

impl SnapshotSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a snapshot; times must be non-decreasing.
    pub fn push(&mut self, s: Snapshot) -> Result<(), GraphError> {
        if let Some(last) = self.snapshots.last() {
            if s.time < last.time {
                return Err(GraphError::OutOfOrderEvent {
                    at: s.time,
                    latest: last.time,
                });
            }
        }
        self.snapshots.push(s);
        Ok(())
    }

    /// Remove and return the oldest snapshot in amortized O(1) — no
    /// clone, no shift of the remaining elements.
    pub fn pop_front(&mut self) -> Option<Snapshot> {
        if self.head >= self.snapshots.len() {
            return None;
        }
        // Take the head element without shifting: swap an empty
        // placeholder in (never observable — `snapshots()` starts at
        // `head`, and compaction drains placeholders away).
        let out = std::mem::replace(
            &mut self.snapshots[self.head],
            Snapshot {
                time: f64::NEG_INFINITY,
                graph: crate::GraphBuilder::with_nodes(0).build(),
                pages: PageSet::from_sorted(Vec::new()),
                fingerprint: 0,
            },
        );
        self.head += 1;
        if self.head * 2 > self.snapshots.len() {
            self.snapshots.drain(..self.head);
            self.head = 0;
        }
        Some(out)
    }

    /// The snapshots, oldest first.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots[self.head..]
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len() - self.head
    }

    /// True when the series holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pages present in *every* snapshot, ascending by id — the paper's
    /// "2.7 million pages were common in all four snapshots" step.
    ///
    /// Computed by merging the sorted views of each snapshot's
    /// [`PageSet`] — O(total pages), no hashing, no state: a sliding
    /// window re-intersects on every refresh with this same merge, which
    /// at a handful of snapshots is cheaper than keeping presence counts
    /// per page. Ids already sorted are read in place; only the running
    /// intersection is owned.
    pub fn common_pages(&self) -> Vec<PageId> {
        let mut sorted = self.snapshots().iter().map(|s| s.page_set().sorted_ids());
        let Some(first) = sorted.next() else {
            return Vec::new();
        };
        let mut common = first.into_owned();
        for other in sorted {
            if common.is_empty() {
                break;
            }
            let (mut i, mut j, mut k) = (0, 0, 0);
            while i < common.len() && j < other.len() {
                match common[i].cmp(&other[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        common[k] = common[i];
                        k += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            common.truncate(k);
        }
        common
    }

    /// Restrict every snapshot to the common page set, producing an
    /// *aligned* series: node `i` is the same page in every snapshot,
    /// and every aligned snapshot shares one `Arc`'d page universe.
    pub fn aligned_to_common(&self) -> Result<SnapshotSeries, GraphError> {
        let keep = PageSet::from_sorted(self.common_pages());
        let mut out = SnapshotSeries::new();
        for s in self.snapshots() {
            out.push(s.restrict_to_set(&keep)?)?;
        }
        Ok(out)
    }

    /// Check that all snapshots share an identical page labeling.
    pub fn is_aligned(&self) -> bool {
        match self.snapshots().split_first() {
            None => true,
            Some((first, rest)) => rest
                .iter()
                .all(|s| Arc::ptr_eq(s.page_set(), first.page_set()) || s.pages() == first.pages()),
        }
    }

    /// Capture times of all snapshots.
    pub fn times(&self) -> Vec<f64> {
        self.snapshots().iter().map(|s| s.time).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn snap(time: f64, edges: &[(NodeId, NodeId)], pages: &[u64]) -> Snapshot {
        let mut b = GraphBuilder::with_nodes(pages.len());
        b.add_edges(edges.iter().copied());
        Snapshot::new(time, b.build(), pages.iter().map(|&p| PageId(p)).collect()).unwrap()
    }

    #[test]
    fn snapshot_validates_page_labels() {
        let g = GraphBuilder::with_nodes(2).build();
        assert!(Snapshot::new(0.0, g.clone(), vec![PageId(1)]).is_err());
        assert!(Snapshot::new(0.0, g.clone(), vec![PageId(1), PageId(1)]).is_err());
        assert!(Snapshot::new(0.0, g, vec![PageId(1), PageId(2)]).is_ok());
    }

    #[test]
    fn page_set_detects_duplicates_in_any_order() {
        assert!(PageSet::new(vec![PageId(3), PageId(1), PageId(3)]).is_err());
        assert!(PageSet::new(vec![PageId(1), PageId(1)]).is_err());
        let unsorted = PageSet::new(vec![PageId(9), PageId(2), PageId(5)]).unwrap();
        assert_eq!(unsorted.node_of(PageId(9)), Some(0));
        assert_eq!(unsorted.node_of(PageId(2)), Some(1));
        assert_eq!(unsorted.node_of(PageId(5)), Some(2));
        assert_eq!(unsorted.node_of(PageId(4)), None);
        assert_eq!(unsorted.sorted_ids(), vec![PageId(2), PageId(5), PageId(9)]);
    }

    #[test]
    fn node_lookup() {
        let s = snap(0.0, &[(0, 1)], &[10, 20, 30]);
        assert_eq!(s.node_of(PageId(20)), Some(1));
        assert_eq!(s.node_of(PageId(99)), None);
        assert_eq!(s.page_set().node_of(PageId(30)), Some(2));
    }

    #[test]
    fn restrict_preserves_order_and_edges() {
        // pages 10,20,30 with edges 10->20, 20->30, 30->10
        let s = snap(0.0, &[(0, 1), (1, 2), (2, 0)], &[10, 20, 30]);
        let r = s.restrict_to(&[PageId(30), PageId(10)]).unwrap();
        assert_eq!(r.pages(), &[PageId(30), PageId(10)]);
        // surviving edge 30->10 becomes node 0 -> node 1
        assert_eq!(r.graph.edges().collect::<Vec<_>>(), vec![(0, 1)]);
    }

    #[test]
    fn restrict_unknown_page_errors() {
        let s = snap(0.0, &[], &[1, 2]);
        assert!(matches!(
            s.restrict_to(&[PageId(9)]),
            Err(GraphError::UnknownPage(9))
        ));
    }

    #[test]
    fn restrict_to_set_shares_the_universe() {
        let s0 = snap(0.0, &[(0, 1)], &[1, 2, 3]);
        let s1 = snap(1.0, &[(1, 0)], &[2, 3, 4]);
        let keep = PageSet::from_sorted(vec![PageId(2), PageId(3)]);
        let r0 = s0.restrict_to_set(&keep).unwrap();
        let r1 = s1.restrict_to_set(&keep).unwrap();
        assert!(Arc::ptr_eq(r0.page_set(), &keep));
        assert!(Arc::ptr_eq(r0.page_set(), r1.page_set()));
    }

    #[test]
    fn common_pages_intersects_all() {
        let mut series = SnapshotSeries::new();
        series.push(snap(0.0, &[], &[1, 2, 3, 4])).unwrap();
        series.push(snap(1.0, &[], &[2, 3, 4, 5])).unwrap();
        series.push(snap(2.0, &[], &[3, 4, 5, 6])).unwrap();
        assert_eq!(series.common_pages(), vec![PageId(3), PageId(4)]);
    }

    #[test]
    fn common_pages_handles_unsorted_labelings() {
        let mut series = SnapshotSeries::new();
        series.push(snap(0.0, &[], &[4, 1, 3])).unwrap();
        series.push(snap(1.0, &[], &[3, 9, 4])).unwrap();
        assert_eq!(series.common_pages(), vec![PageId(3), PageId(4)]);
        // sorted (borrowed) and unsorted (permuted) views merge alike,
        // whichever comes first
        let mut mixed = SnapshotSeries::new();
        mixed.push(snap(0.0, &[], &[1, 3, 4, 8])).unwrap();
        mixed.push(snap(1.0, &[], &[8, 4, 2, 3])).unwrap();
        mixed.push(snap(2.0, &[], &[3, 4, 8, 9])).unwrap();
        assert_eq!(mixed.common_pages(), vec![PageId(3), PageId(4), PageId(8)]);
        mixed.pop_front();
        assert_eq!(mixed.common_pages(), vec![PageId(3), PageId(4), PageId(8)]);
        // the inputs are read, never reordered
        assert_eq!(
            mixed.snapshots()[0].pages(),
            &[PageId(8), PageId(4), PageId(2), PageId(3)]
        );
    }

    #[test]
    fn empty_series_has_no_common_pages() {
        let s = SnapshotSeries::new();
        assert!(s.common_pages().is_empty());
        assert!(s.is_aligned());
        assert!(s.is_empty());
    }

    #[test]
    fn aligned_series_shares_numbering() {
        let mut series = SnapshotSeries::new();
        // t0: pages 1,2,3 ; edges 1->2, 2->3
        series
            .push(snap(0.0, &[(0, 1), (1, 2)], &[1, 2, 3]))
            .unwrap();
        // t1: pages 2,3,4 ; edges 2->3 (nodes 0->1)
        series.push(snap(1.0, &[(0, 1)], &[2, 3, 4])).unwrap();
        let aligned = series.aligned_to_common().unwrap();
        assert!(aligned.is_aligned());
        let common = aligned.snapshots()[0].pages().to_vec();
        assert_eq!(common, vec![PageId(2), PageId(3)]);
        // snapshot 0 keeps edge 2->3 as 0->1; so does snapshot 1
        for s in aligned.snapshots() {
            assert_eq!(s.graph.edges().collect::<Vec<_>>(), vec![(0, 1)]);
        }
        // one page universe for the whole aligned window
        let first = aligned.snapshots()[0].page_set();
        for s in aligned.snapshots() {
            assert!(Arc::ptr_eq(s.page_set(), first));
        }
    }

    #[test]
    fn identity_restriction_shares_keep_and_carries_the_fingerprint() {
        // unsorted labels: identity means "same ids in the same node
        // order", not "sorted"
        let s = snap(1.5, &[(0, 1), (1, 2), (2, 0)], &[30, 10, 20]);
        let ids = |pages: &[u64]| pages.iter().map(|&p| PageId(p)).collect::<Vec<_>>();
        let keep = PageSet::new(ids(&[30, 10, 20])).unwrap();
        let r = s.restrict_to_set(&keep).unwrap();
        assert!(Arc::ptr_eq(r.page_set(), &keep));
        assert!(!Arc::ptr_eq(r.page_set(), s.page_set()));
        assert_eq!(r.graph, s.graph);
        assert_eq!(r.fingerprint(), s.fingerprint());
        assert_eq!(r.time, s.time);
        // the same pages in another order is a relabel, not the identity
        let reordered = s.restrict_to(&ids(&[10, 20, 30])).unwrap();
        assert_ne!(reordered.fingerprint(), s.fingerprint());
        assert_eq!(
            reordered.graph.edges().collect::<Vec<_>>(),
            vec![(0, 1), (1, 2), (2, 0)]
        );
    }

    #[test]
    fn series_rejects_time_regression() {
        let mut series = SnapshotSeries::new();
        series.push(snap(5.0, &[], &[1])).unwrap();
        assert!(series.push(snap(4.0, &[], &[1])).is_err());
        assert_eq!(series.times(), vec![5.0]);
    }

    #[test]
    fn pop_front_slides_the_window() {
        let mut series = SnapshotSeries::new();
        for t in 0..6 {
            series.push(snap(t as f64, &[], &[t as u64])).unwrap();
        }
        let popped = series.pop_front().unwrap();
        assert_eq!(popped.time, 0.0);
        assert_eq!(popped.pages(), &[PageId(0)]);
        assert_eq!(series.len(), 5);
        assert_eq!(series.snapshots()[0].time, 1.0);
        assert_eq!(series.times(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        // Interleave pops and pushes across several compactions.
        for t in 6..30u64 {
            series.push(snap(t as f64, &[], &[t])).unwrap();
            let p = series.pop_front().unwrap();
            assert_eq!(p.pages(), &[PageId(t - 5)]);
            assert_eq!(series.len(), 5);
            assert_eq!(series.snapshots().len(), 5);
        }
        assert_eq!(series.times(), vec![25.0, 26.0, 27.0, 28.0, 29.0]);
    }

    #[test]
    fn pop_front_drains_to_empty_and_recovers() {
        let mut series = SnapshotSeries::new();
        assert!(series.pop_front().is_none());
        series.push(snap(1.0, &[], &[1])).unwrap();
        series.push(snap(2.0, &[], &[2])).unwrap();
        assert_eq!(series.pop_front().unwrap().time, 1.0);
        assert_eq!(series.pop_front().unwrap().time, 2.0);
        assert!(series.pop_front().is_none());
        assert!(series.is_empty());
        assert!(series.common_pages().is_empty());
        // An emptied series accepts any time again after compaction
        // only if the placeholder never leaks into the tail check.
        series.push(snap(0.5, &[], &[3])).unwrap();
        assert_eq!(series.times(), vec![0.5]);
    }

    #[test]
    fn is_aligned_detects_mismatch() {
        let mut series = SnapshotSeries::new();
        series.push(snap(0.0, &[], &[1, 2])).unwrap();
        series.push(snap(1.0, &[], &[2, 1])).unwrap();
        assert!(!series.is_aligned());
    }
}
