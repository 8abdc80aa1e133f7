//! A timestamped, append-only view of an evolving directed graph.
//!
//! The paper's estimator is *temporal*: it needs the web "as of" several
//! points in time. [`DynamicGraph`] records node births and edge
//! additions/removals as a time-ordered event log and can materialize the
//! graph at any instant as a [`CsrGraph`]. The `qrank-sim` crate drives
//! one of these while simulated users create links; the snapshot crawler
//! then calls [`DynamicGraph::snapshot_at`] on the paper's schedule.

use crate::{CsrGraph, GraphError, NodeId};

/// Node ids the log can name: a destination takes 31 bits of a record.
const MAX_NODES: usize = 1 << 31;

/// Edge `src -> dst` appearing (`added`) or disappearing, as one log
/// record: `src << 32 | dst << 1 | added`. The low half is the key
/// [`DynamicGraph::materialize`] sorts a source's events by.
fn record(src: NodeId, dst: NodeId, added: bool) -> u64 {
    u64::from(src) << 32 | u64::from(dst) << 1 | u64::from(added)
}

/// The source node of a record.
fn source(rec: u64) -> NodeId {
    (rec >> 32) as NodeId
}

/// A record's sort key within its source's row, `dst << 1 | added`.
fn row_key(rec: u64) -> u64 {
    rec & u64::from(u32::MAX)
}

/// The id a log holding `held` nodes gives its next one, or the error
/// for a node past the ids a record can name.
fn next_node_id(held: usize) -> Result<NodeId, GraphError> {
    if held < MAX_NODES {
        Ok(held as NodeId)
    } else {
        Err(GraphError::NodeOutOfBounds {
            node: held as u64,
            num_nodes: MAX_NODES as u64,
        })
    }
}

/// An evolving directed graph recorded as an event log.
///
/// Events must be appended in non-decreasing time order (enforced), which
/// lets [`snapshot_at`](Self::snapshot_at) replay a prefix found by a
/// binary search instead of a full scan sort. The log stores no time per
/// event: one 8-byte record per event, and one *run* per distinct event
/// time holding that time and the number of events logged up to it.
#[derive(Debug, Clone, Default)]
pub struct DynamicGraph {
    /// `node_birth[u]` = time node `u` was created.
    node_birth: Vec<f64>,
    /// Every edge event in log order, one [`record`] each.
    events: Vec<u64>,
    /// `(time, events logged at or before it)` per distinct event time,
    /// ascending in both.
    runs: Vec<(f64, usize)>,
}

impl DynamicGraph {
    /// An empty evolving graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes ever created.
    pub fn num_nodes(&self) -> usize {
        self.node_birth.len()
    }

    /// Create a node at time `at`; returns its id.
    ///
    /// Node creations may interleave with edge events but must also be
    /// non-decreasing in time relative to the event log. A log holds at
    /// most 2³¹ nodes; the next one is refused as out of bounds.
    pub fn add_node(&mut self, at: f64) -> Result<NodeId, GraphError> {
        self.check_order(at)?;
        let id = next_node_id(self.node_birth.len())?;
        self.node_birth.push(at);
        Ok(id)
    }

    /// Record edge `src -> dst` appearing at time `at`.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, at: f64) -> Result<(), GraphError> {
        self.push_event(src, dst, true, at)
    }

    /// Record edge `src -> dst` disappearing at time `at`.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId, at: f64) -> Result<(), GraphError> {
        self.push_event(src, dst, false, at)
    }

    fn push_event(
        &mut self,
        src: NodeId,
        dst: NodeId,
        added: bool,
        at: f64,
    ) -> Result<(), GraphError> {
        self.check_order(at)?;
        self.check_node(src)?;
        self.check_node(dst)?;
        self.events.push(record(src, dst, added));
        match self.runs.last_mut() {
            Some(run) if run.0 == at => run.1 = self.events.len(),
            _ => self.runs.push((at, self.events.len())),
        }
        Ok(())
    }

    fn latest_time(&self) -> f64 {
        let ev = self.runs.last().map_or(f64::NEG_INFINITY, |run| run.0);
        let nb = self.node_birth.last().copied().unwrap_or(f64::NEG_INFINITY);
        ev.max(nb)
    }

    fn check_order(&self, at: f64) -> Result<(), GraphError> {
        if !at.is_finite() {
            return Err(GraphError::NonFiniteTime(at));
        }
        let latest = self.latest_time();
        if at < latest {
            return Err(GraphError::OutOfOrderEvent { at, latest });
        }
        Ok(())
    }

    fn check_node(&self, u: NodeId) -> Result<(), GraphError> {
        if (u as usize) < self.node_birth.len() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfBounds {
                node: u as u64,
                num_nodes: self.node_birth.len() as u64,
            })
        }
    }

    /// Number of events at or before `t`: the log prefix a graph at `t`
    /// is built from.
    fn events_at(&self, t: f64) -> usize {
        match self.runs.partition_point(|&(at, _)| at <= t) {
            0 => 0,
            i => self.runs[i - 1].1,
        }
    }

    /// Nodes alive at time `t` (created at or before `t`). Births are
    /// appended in non-decreasing time order, so the alive nodes are an
    /// id prefix.
    pub fn nodes_at(&self, t: f64) -> Vec<NodeId> {
        let alive = self.node_birth.partition_point(|&born| born <= t);
        (0..alive as NodeId).collect()
    }

    /// Edges alive at time `t`: added at or before `t` and not
    /// subsequently removed at or before `t`. Sorted, deduplicated.
    pub fn edges_at(&self, t: f64) -> Vec<(NodeId, NodeId)> {
        self.graph_at_full(t).edges().collect()
    }

    /// Materialize the graph at time `t` over *all ever-created* node ids
    /// (nodes not yet born appear isolated). Use
    /// [`snapshot_at`](Self::snapshot_at) to restrict to alive nodes.
    pub fn graph_at_full(&self, t: f64) -> CsrGraph {
        self.graph_at_full_from(None, t).graph
    }

    /// [`graph_at_full`](Self::graph_at_full) for a caller that kept an
    /// earlier result: `base` must be a graph this log gave and the
    /// number of leading events it is the graph of (a [`Materialized`]'s
    /// `graph` and `events`). The log is append-only, so its length
    /// identifies a prefix for good, and the graph at `t` is the base
    /// merged with the events after it. A base that is no prefix of what
    /// is asked for — it holds events later than `t` — is set aside and
    /// the graph is built from nothing, as it is from `None`; the result
    /// is the same either way.
    pub fn graph_at_full_from(&self, base: Option<(&CsrGraph, usize)>, t: f64) -> Materialized {
        self.materialize(base, t, self.num_nodes())
    }

    /// Materialize the graph at time `t`, restricted to nodes alive at
    /// `t`. Returns the relabeled graph plus `new id -> original id`.
    pub fn snapshot_at(&self, t: f64) -> (CsrGraph, Vec<NodeId>) {
        let (built, alive) = self.snapshot_at_from(None, t);
        (built.graph, alive)
    }

    /// [`snapshot_at`](Self::snapshot_at) for a caller that kept an
    /// earlier capture: `base` is a graph `snapshot_at` gave for this
    /// log and the log's length at that capture (a [`Materialized`]'s
    /// `graph` and `events`), extended as
    /// [`graph_at_full_from`](Self::graph_at_full_from) extends its base
    /// and set aside on the same terms — events later than `t`, or more
    /// nodes than are alive at `t`.
    pub fn snapshot_at_from(
        &self,
        base: Option<(&CsrGraph, usize)>,
        t: f64,
    ) -> (Materialized, Vec<NodeId>) {
        // The alive nodes are an id prefix and an event can only name
        // nodes born by its own time, so restricting to them is choosing
        // the node count: no relabeling, no second pass.
        let alive = self.nodes_at(t);
        (self.materialize(base, t, alive.len()), alive)
    }

    /// The graph at time `t` over node ids `0..n`, as `base` — a graph
    /// and the number of leading log events it is the graph of —
    /// extended by the events after those; every event at or before `t`
    /// must name nodes below `n`. `None` is the empty graph of zero
    /// events, which also stands in for a base that cannot be extended:
    /// one with events past `t` or nodes at or above `n`.
    ///
    /// An edge is alive iff the last event naming it at or before `t` is
    /// an add, or no event after the base names it and the base holds
    /// it. The log is time-ordered, so "last" is "latest position": a
    /// stable counting sort of the new events by source, then a stable
    /// sort of each source's events by destination, leaves every edge's
    /// events adjacent and in log order, and the final one of each run
    /// decides. Those verdicts come out in destination order, which is
    /// the order of the base's row, so one two-finger merge per source
    /// writes the new row: base edges no event names are copied
    /// through, an add is inserted (or kept), a remove drops the base's
    /// copy. Rows are written in source order, which is the CSR layout
    /// itself — no edge-pair list, no tree, no hashing — and a row no
    /// new event names costs one `memcpy`. The only scratch is one word
    /// per new event (plus one per event of the longest row), freed on
    /// return.
    fn materialize(&self, base: Option<(&CsrGraph, usize)>, t: f64, n: usize) -> Materialized {
        let events = self.events_at(t);
        let base = base.filter(|&(g, held)| held <= events && g.num_nodes() <= n);
        let (base_nodes, base_edges, base_events) =
            base.map_or((0, 0, 0), |(g, held)| (g.num_nodes(), g.num_edges(), held));
        let tail = &self.events[base_events..events];

        // `row_end[u]` starts as the first slot of source `u`'s events
        // and, once the scatter has filled the row, is one past its last.
        let mut row_end = vec![0usize; n + 1];
        let mut adds = 0;
        for &rec in tail {
            row_end[source(rec) as usize + 1] += 1;
            adds += (rec & 1) as usize;
        }
        for u in 0..n {
            row_end[u + 1] += row_end[u];
        }
        // `dst << 1 | is_add`, so that sorting by `>> 1` groups by edge.
        let mut keyed = vec![0u64; tail.len()];
        for &rec in tail {
            let slot = &mut row_end[source(rec) as usize];
            keyed[*slot] = row_key(rec);
            *slot += 1;
        }

        let mut out_offsets = vec![0usize; n + 1];
        let mut out_targets: Vec<NodeId> = Vec::with_capacity(base_edges + adds);
        let mut in_degree = vec![0usize; n];
        if let Some((g, _)) = base {
            for (v, d) in in_degree[..base_nodes].iter_mut().enumerate() {
                *d = g.in_degree(v as NodeId);
            }
        }
        let mut tmp = Vec::new();
        // node ids are below `n`
        let dst_bits = usize::BITS - n.leading_zeros();
        let mut start = 0;
        for u in 0..n {
            let mut old = match base {
                Some((g, _)) if u < base_nodes => g.out_neighbors(u as NodeId),
                _ => &[],
            };
            let end = row_end[u];
            let row = &mut keyed[start..end];
            sort_row_by_dst(row, &mut tmp, dst_bits);
            for (i, &k) in row.iter().enumerate() {
                if i + 1 < row.len() && row[i + 1] >> 1 == k >> 1 {
                    continue; // a later event names the same edge
                }
                let dst = (k >> 1) as NodeId;
                while let Some((&v, rest)) = old.split_first() {
                    if v >= dst {
                        break;
                    }
                    out_targets.push(v);
                    old = rest;
                }
                let was_alive = old.first() == Some(&dst);
                if was_alive {
                    old = &old[1..];
                }
                if k & 1 == 1 {
                    out_targets.push(dst);
                    in_degree[dst as usize] += usize::from(!was_alive);
                } else if was_alive {
                    in_degree[dst as usize] -= 1;
                }
            }
            out_targets.extend_from_slice(old);
            start = end;
            out_offsets[u + 1] = out_targets.len();
        }
        Materialized {
            edges_copied: base_edges,
            graph: CsrGraph::from_sorted_rows(out_offsets, out_targets, &in_degree),
            events,
            events_sorted: tail.len(),
        }
    }
}

/// What [`DynamicGraph::graph_at_full_from`] or
/// [`DynamicGraph::snapshot_at_from`] built, and from how much.
#[derive(Debug, Clone, PartialEq)]
pub struct Materialized {
    /// The graph of the log's first `events` events.
    pub graph: CsrGraph,
    /// Length of the log prefix the graph holds — with `graph`, the base
    /// of a later call.
    pub events: usize,
    /// Events sorted by this call: the ones after the base, or all of
    /// `events` when the base was set aside.
    pub events_sorted: usize,
    /// Edges of the base merged through (0 when it was set aside).
    pub edges_copied: usize,
}

/// Rows shorter than this go to the standard stable sort: a radix pass
/// pays for 256 counters whatever the row length.
const RADIX_MIN_ROW: usize = 128;

/// Stable sort of one source's events, keyed `dst << 1 | is_add`, by
/// destination. Most rows hold a few navigation links; a home page's row
/// holds a like-link event per page its owner ever liked, thousands of
/// them, and those take a byte-wise LSD radix sort over the `dst_bits`
/// bits a node id can occupy — stable by construction and linear in the
/// row, which keeps the whole materializer linear in the log.
fn sort_row_by_dst(row: &mut [u64], tmp: &mut Vec<u64>, dst_bits: u32) {
    if row.len() < RADIX_MIN_ROW {
        row.sort_by_key(|&k| k >> 1);
        return;
    }
    if tmp.len() < row.len() {
        tmp.resize(row.len(), 0);
    }
    let tmp = &mut tmp[..row.len()];
    // bit 0 is the add flag; the destination starts at bit 1
    for shift in (1..=dst_bits).step_by(8) {
        let digit = |k: u64| (k >> shift) as usize & 0xFF;
        let mut slot = [0usize; 256];
        for &k in row.iter() {
            slot[digit(k)] += 1;
        }
        let mut next = 0;
        for s in &mut slot {
            let count = *s;
            *s = next;
            next += count;
        }
        for &k in row.iter() {
            let s = &mut slot[digit(k)];
            tmp[*s] = k;
            *s += 1;
        }
        row.copy_from_slice(tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The log as `(time, src, dst, is an add)` per event, each event's
    /// time read off its run by a forward walk, not a search.
    fn timed_events(d: &DynamicGraph) -> Vec<(f64, NodeId, NodeId, bool)> {
        let mut out = Vec::new();
        let mut first = 0;
        for &(at, end) in &d.runs {
            for &rec in &d.events[first..end] {
                out.push((at, source(rec), (row_key(rec) >> 1) as NodeId, rec & 1 == 1));
            }
            first = end;
        }
        assert_eq!(out.len(), d.events.len(), "the runs cover the log");
        out
    }

    /// The materializer's oracle: replay the log prefix into an ordered
    /// set, one insert or remove per event. Obviously right, and what
    /// `edges_at` did before it became a sort.
    fn replayed_edges_at(d: &DynamicGraph, t: f64) -> Vec<(NodeId, NodeId)> {
        let mut alive = BTreeSet::new();
        for (_, src, dst, added) in timed_events(d).into_iter().take_while(|e| e.0 <= t) {
            if added {
                alive.insert((src, dst));
            } else {
                alive.remove(&(src, dst));
            }
        }
        alive.into_iter().collect()
    }

    /// A generated log, one `(clock, kind, src, dst)` per step. The clock
    /// advances when `clock == 0`, so most steps share a timestamp with
    /// their predecessor. `kind` 0 gives birth to a node, 1..=4 adds the
    /// edge, 5..=7 removes it; endpoints are taken modulo the nodes that
    /// exist by then, and there are few of them, so duplicate adds,
    /// removes of absent edges and remove-then-re-add come up constantly.
    fn arbitrary_log() -> impl Strategy<Value = Vec<(u32, u32, u32, u32)>> {
        prop::collection::vec((0u32..5, 0u32..8, 0u32..5, 0u32..5), 0..120)
    }

    /// Build the log; returns it with the last timestamp used.
    fn build(log: &[(u32, u32, u32, u32)]) -> (DynamicGraph, f64) {
        let mut d = DynamicGraph::new();
        d.add_node(0.0).unwrap();
        let last = append(&mut d, 0.0, log);
        (d, last)
    }

    /// Append `log` to `d`, whose clock stands at `now`; returns the last
    /// timestamp used.
    fn append(d: &mut DynamicGraph, mut now: f64, log: &[(u32, u32, u32, u32)]) -> f64 {
        for &(clock, kind, src, dst) in log {
            if clock == 0 {
                now += 1.0;
            }
            let n = d.num_nodes() as u32;
            match kind {
                0 => {
                    d.add_node(now).unwrap();
                }
                1..=4 => d.add_edge(src % n, dst % n, now).unwrap(),
                _ => d.remove_edge(src % n, dst % n, now).unwrap(),
            }
        }
        now
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// At every query time — before the first event, on every
        /// timestamp, between timestamps, after the last — the sort-based
        /// materializer agrees with the log replay: same edge list, and a
        /// graph equal in all four CSR arrays (`CsrGraph: PartialEq`
        /// compares offsets, targets and both transposed arrays).
        #[test]
        fn materializer_matches_log_replay(log in arbitrary_log()) {
            let (d, last) = build(&log);
            let mut t = -1.0;
            while t <= last + 1.0 {
                let oracle = replayed_edges_at(&d, t);
                prop_assert_eq!(&d.edges_at(t), &oracle, "edges_at({})", t);
                let reference = CsrGraph::from_sorted_dedup_edges(d.num_nodes(), &oracle);
                prop_assert_eq!(d.graph_at_full(t), reference, "graph_at_full({})", t);
                let born: Vec<NodeId> = (0..d.num_nodes() as NodeId)
                    .filter(|&u| d.node_birth[u as usize] <= t)
                    .collect();
                prop_assert_eq!(&d.nodes_at(t), &born, "nodes_at({})", t);
                let (alive_graph, alive) = d.snapshot_at(t);
                prop_assert_eq!(alive_graph, reference.induced_subgraph_sorted(&born));
                prop_assert_eq!(alive, born, "snapshot_at({})", t);
                t += 0.5;
            }
        }

        /// A graph materialized at any time `t1` of a log, handed back
        /// as the base at any time `t2` of the same log grown further
        /// (so nodes are born and events land, some on `t1`'s own
        /// timestamp, in between), gives the graph built from nothing:
        /// extended when `t1`'s events are a prefix of `t2`'s, set
        /// aside when `t2` is the earlier one or asks for fewer nodes
        /// than the base holds.
        #[test]
        fn extending_any_base_matches_log_replay(
            log in arbitrary_log(),
            cut in 0usize..=120,
        ) {
            let cut = cut.min(log.len());
            let (mut d, mid) = build(&log[..cut]);
            let mut bases = Vec::new();
            let mut t1 = -1.0;
            while t1 <= mid + 1.0 {
                bases.push(d.graph_at_full_from(None, t1));
                t1 += 0.5;
            }
            let last = append(&mut d, mid, &log[cut..]);
            for base in &bases {
                let mut t2 = -1.0;
                while t2 <= last + 1.0 {
                    let oracle = replayed_edges_at(&d, t2);
                    let fresh = d.graph_at_full(t2);
                    prop_assert_eq!(
                        &fresh,
                        &CsrGraph::from_sorted_dedup_edges(d.num_nodes(), &oracle)
                    );
                    let built = d.graph_at_full_from(Some((&base.graph, base.events)), t2);
                    prop_assert_eq!(&built.graph, &fresh, "{} events to t = {}", base.events, t2);
                    prop_assert_eq!(
                        built.events,
                        timed_events(&d).iter().take_while(|e| e.0 <= t2).count()
                    );
                    let extended = base.events <= built.events;
                    prop_assert_eq!(
                        built.events_sorted,
                        built.events - if extended { base.events } else { 0 }
                    );
                    prop_assert_eq!(
                        built.edges_copied,
                        if extended { base.graph.num_edges() } else { 0 }
                    );
                    // over the alive nodes only, as `snapshot_at` builds
                    // it: a base with more nodes than that is set aside
                    let (restricted, alive) =
                        d.snapshot_at_from(Some((&base.graph, base.events)), t2);
                    prop_assert_eq!(&alive, &d.nodes_at(t2));
                    let alive = alive.len();
                    prop_assert_eq!(restricted.graph, d.snapshot_at(t2).0);
                    prop_assert_eq!(
                        restricted.edges_copied > 0,
                        extended && base.graph.num_nodes() <= alive && base.graph.num_edges() > 0
                    );
                    t2 += 0.5;
                }
            }
        }
    }

    #[test]
    fn extension_decides_base_edges_by_the_events_after_them() {
        let mut d = DynamicGraph::new();
        for _ in 0..4 {
            d.add_node(0.0).unwrap();
        }
        d.add_edge(0, 1, 1.0).unwrap(); // removed after the base
        d.add_edge(0, 2, 1.0).unwrap(); // added again after the base
        d.add_edge(0, 3, 1.0).unwrap(); // removed before the base, re-added after
        d.remove_edge(0, 3, 2.0).unwrap();
        d.add_edge(1, 0, 2.0).unwrap(); // removed and re-added after the base
        d.add_edge(2, 0, 2.0).unwrap(); // untouched
        let base = d.graph_at_full_from(None, 2.0);
        assert_eq!(
            (base.events, base.events_sorted, base.edges_copied),
            (6, 6, 0)
        );
        assert_eq!(
            base.graph.edges().collect::<Vec<_>>(),
            vec![(0, 1), (0, 2), (1, 0), (2, 0)]
        );

        let late = d.add_node(3.0).unwrap();
        d.remove_edge(0, 1, 3.0).unwrap();
        d.add_edge(0, 2, 3.0).unwrap();
        d.add_edge(0, 3, 3.0).unwrap();
        d.remove_edge(1, 0, 3.0).unwrap();
        d.add_edge(1, 0, 4.0).unwrap();
        d.remove_edge(3, 0, 4.0).unwrap(); // never existed
        d.add_edge(late, 0, 4.0).unwrap(); // from a node the base lacks
        for (t, sorted) in [(2.0, 0), (3.0, 4), (4.0, 7)] {
            let built = d.graph_at_full_from(Some((&base.graph, base.events)), t);
            assert_eq!(built.graph, d.graph_at_full(t), "t = {t}");
            assert_eq!(
                built.graph.edges().collect::<Vec<_>>(),
                replayed_edges_at(&d, t)
            );
            assert_eq!((built.events_sorted, built.edges_copied), (sorted, 4));
        }
        assert_eq!(
            d.edges_at(4.0),
            vec![(0, 2), (0, 3), (1, 0), (2, 0), (late, 0)]
        );
        // an earlier time than the base's: built from nothing
        let early = d.graph_at_full_from(Some((&base.graph, base.events)), 1.0);
        assert_eq!(early.graph, d.graph_at_full(1.0));
        assert_eq!((early.events_sorted, early.edges_copied), (3, 0));
    }

    #[test]
    fn long_rows_match_log_replay() {
        // Rows long enough for the radix sort, over enough nodes that a
        // destination spans three digits: two sources each add, re-add
        // and remove their way through destinations scattered over
        // 70 000 ids.
        let mut d = DynamicGraph::new();
        for _ in 0..70_000 {
            d.add_node(0.0).unwrap();
        }
        let mut x = 12345u64;
        for i in 0..6_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // 2 000 distinct destinations, so each is hit about thrice
            let dst = ((x >> 33) % 2_000 * 35) as NodeId;
            let at = f64::from(i / 500);
            if (x >> 20).is_multiple_of(3) {
                d.remove_edge(i % 2, dst, at).unwrap();
            } else {
                d.add_edge(i % 2, dst, at).unwrap();
            }
        }
        for t in [-1.0, 0.0, 5.5, 11.0] {
            let oracle = replayed_edges_at(&d, t);
            assert_eq!(
                d.graph_at_full(t),
                CsrGraph::from_sorted_dedup_edges(70_000, &oracle),
                "t = {t}"
            );
        }
        assert!(replayed_edges_at(&d, 11.0).len() > 1_000);
        // radix-sorted rows of new events (250 a source and time unit)
        // merged into long base rows
        let base = d.graph_at_full_from(None, 5.5);
        for t in [6.0, 11.0] {
            let built = d.graph_at_full_from(Some((&base.graph, base.events)), t);
            assert_eq!(built.graph, d.graph_at_full(t), "5.5 extended to {t}");
            assert_eq!(built.events_sorted, built.events - base.events);
            assert!(built.events_sorted / 2 >= RADIX_MIN_ROW);
        }
    }

    fn sample() -> DynamicGraph {
        let mut d = DynamicGraph::new();
        let a = d.add_node(0.0).unwrap();
        let b = d.add_node(0.0).unwrap();
        d.add_edge(a, b, 1.0).unwrap();
        let c = d.add_node(2.0).unwrap();
        d.add_edge(b, c, 3.0).unwrap();
        d.add_edge(c, a, 3.0).unwrap();
        d.remove_edge(a, b, 4.0).unwrap();
        d
    }

    #[test]
    fn nodes_appear_at_birth() {
        let d = sample();
        assert_eq!(d.nodes_at(0.0), vec![0, 1]);
        assert_eq!(d.nodes_at(1.9), vec![0, 1]);
        assert_eq!(d.nodes_at(2.0), vec![0, 1, 2]);
    }

    #[test]
    fn edges_respect_add_and_remove_times() {
        let d = sample();
        assert!(d.edges_at(0.5).is_empty());
        assert_eq!(d.edges_at(1.0), vec![(0, 1)]);
        assert_eq!(d.edges_at(3.5), vec![(0, 1), (1, 2), (2, 0)]);
        // after removal at t=4, 0->1 is gone
        assert_eq!(d.edges_at(4.0), vec![(1, 2), (2, 0)]);
    }

    #[test]
    fn snapshot_restricts_to_alive_nodes() {
        let d = sample();
        let (g, map) = d.snapshot_at(1.0);
        assert_eq!(map, vec![0, 1]);
        assert_eq!(g.num_nodes(), 2);
        assert!(g.has_edge(0, 1));
        let (g3, map3) = d.snapshot_at(10.0);
        assert_eq!(map3, vec![0, 1, 2]);
        assert_eq!(g3.num_edges(), 2);
    }

    #[test]
    fn rejects_out_of_order_events() {
        let mut d = DynamicGraph::new();
        let a = d.add_node(5.0).unwrap();
        let b = d.add_node(5.0).unwrap();
        assert!(matches!(
            d.add_edge(a, b, 4.0),
            Err(GraphError::OutOfOrderEvent { .. })
        ));
        // equal times are fine
        d.add_edge(a, b, 5.0).unwrap();
        // node births are also ordered
        assert!(d.add_node(1.0).is_err());
    }

    #[test]
    fn rejects_unknown_nodes() {
        let mut d = DynamicGraph::new();
        let a = d.add_node(0.0).unwrap();
        assert!(matches!(
            d.add_edge(a, 7, 1.0),
            Err(GraphError::NodeOutOfBounds { node: 7, .. })
        ));
        assert!(d.remove_edge(9, a, 1.0).is_err());
    }

    #[test]
    fn re_adding_removed_edge_revives_it() {
        let mut d = DynamicGraph::new();
        let a = d.add_node(0.0).unwrap();
        let b = d.add_node(0.0).unwrap();
        d.add_edge(a, b, 1.0).unwrap();
        d.remove_edge(a, b, 2.0).unwrap();
        d.add_edge(a, b, 3.0).unwrap();
        assert!(d.edges_at(2.5).is_empty());
        assert_eq!(d.edges_at(3.0), vec![(0, 1)]);
    }

    #[test]
    fn duplicate_adds_are_idempotent() {
        let mut d = DynamicGraph::new();
        let a = d.add_node(0.0).unwrap();
        let b = d.add_node(0.0).unwrap();
        d.add_edge(a, b, 1.0).unwrap();
        d.add_edge(a, b, 2.0).unwrap();
        assert_eq!(d.edges_at(3.0), vec![(0, 1)]);
        // one remove kills it (set semantics, matching the web: a link
        // either exists on the page or it does not)
        d.remove_edge(a, b, 3.5).unwrap();
        assert!(d.edges_at(4.0).is_empty());
    }

    #[test]
    fn rejects_non_finite_times() {
        let mut d = DynamicGraph::new();
        let a = d.add_node(0.0).unwrap();
        for at in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(d.add_node(at), Err(GraphError::NonFiniteTime(_))));
            assert!(matches!(
                d.add_edge(a, a, at),
                Err(GraphError::NonFiniteTime(_))
            ));
            assert!(matches!(
                d.remove_edge(a, a, at),
                Err(GraphError::NonFiniteTime(_))
            ));
        }
        // nothing was logged, so the clock still stands at 0
        assert_eq!((d.num_nodes(), d.events.len(), d.runs.len()), (1, 0, 0));
        d.add_edge(a, a, 0.0).unwrap();
        assert_eq!(d.edges_at(0.0), vec![(a, a)]);
    }

    #[test]
    fn node_ids_stop_where_a_record_runs_out_of_bits() {
        // a log of 2^31 nodes is 16 GiB of birth times, so the limit is
        // checked where `add_node` takes its id
        assert_eq!(next_node_id(0).unwrap(), 0);
        let last = next_node_id(MAX_NODES - 1).unwrap();
        assert_eq!(last, (1 << 31) - 1);
        assert!(matches!(
            next_node_id(MAX_NODES),
            Err(GraphError::NodeOutOfBounds { node, num_nodes })
                if node == 1 << 31 && num_nodes == 1 << 31
        ));
        // the highest id round-trips through a record as either endpoint
        for added in [false, true] {
            let rec = record(last, last, added);
            assert_eq!(source(rec), last);
            assert_eq!(row_key(rec), u64::from(last) << 1 | u64::from(added));
        }
    }

    #[test]
    fn events_at_one_time_form_one_run() {
        let mut d = DynamicGraph::new();
        for _ in 0..3 {
            d.add_node(0.0).unwrap();
        }
        d.add_edge(0, 1, 1.0).unwrap();
        // a node birth between events of one time starts no run
        let late = d.add_node(2.0).unwrap();
        for i in 0..500u32 {
            d.add_edge(i % 3, late, 2.0).unwrap();
            d.remove_edge(i % 3, late, 2.0).unwrap();
        }
        d.add_edge(2, late, 2.0).unwrap();
        d.add_edge(late, 0, 3.0).unwrap();
        assert_eq!(d.runs, vec![(1.0, 1), (2.0, 1002), (3.0, 1003)]);
        let below = |t: f64| t - t * f64::EPSILON;
        let above = |t: f64| t + t * f64::EPSILON;
        for (t, events) in [
            (below(1.0), 0),
            (1.0, 1),
            (above(1.0), 1),
            (below(2.0), 1),
            (2.0, 1002),
            (above(2.0), 1002),
            (below(3.0), 1002),
            (3.0, 1003),
            (above(3.0), 1003),
        ] {
            assert_eq!(d.events_at(t), events, "t = {t}");
            let built = d.graph_at_full_from(None, t);
            assert_eq!(built.events, events, "t = {t}");
            assert_eq!(d.edges_at(t), replayed_edges_at(&d, t), "t = {t}");
        }
        assert_eq!(d.edges_at(2.0), vec![(0, 1), (2, late)]);
        assert_eq!(d.edges_at(3.0), vec![(0, 1), (2, late), (late, 0)]);
    }
}
