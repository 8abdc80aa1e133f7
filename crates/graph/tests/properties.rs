//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use qrank_graph::io::{decode_graph, decode_series, encode_graph, encode_series};
use qrank_graph::relabel::Relabeling;
use qrank_graph::scc::tarjan_scc;
use qrank_graph::traversal::{bfs, weakly_connected_components};
use qrank_graph::{CsrGraph, GraphError, NodeId, PageId, PageSet, Snapshot, SnapshotSeries};

fn arbitrary_edges(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_nodes, 0..max_nodes), 0..max_edges)
}

/// Shuffle `items` in place with a seeded LCG (Fisher–Yates).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut s = seed;
    for i in (1..items.len()).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        items.swap(i, (s >> 33) as usize % (i + 1));
    }
}

/// Reachability test via BFS.
fn reaches(g: &CsrGraph, from: NodeId, to: NodeId) -> bool {
    bfs(g, from).contains(&to)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every SCC is actually strongly connected, and distinct components
    /// are not mutually reachable.
    #[test]
    fn scc_components_are_strongly_connected(edges in arbitrary_edges(12, 50)) {
        let g = CsrGraph::from_edges(12, &edges);
        let scc = tarjan_scc(&g);
        for u in 0..12u32 {
            for v in 0..12u32 {
                if u == v {
                    continue;
                }
                let same = scc.component[u as usize] == scc.component[v as usize];
                let mutual = reaches(&g, u, v) && reaches(&g, v, u);
                prop_assert_eq!(same, mutual, "nodes {} and {}", u, v);
            }
        }
    }

    /// The SCC condensation numbering is reverse-topological: every edge
    /// goes from a higher-numbered component to a lower-or-equal one.
    #[test]
    fn scc_numbering_is_reverse_topological(edges in arbitrary_edges(15, 60)) {
        let g = CsrGraph::from_edges(15, &edges);
        let scc = tarjan_scc(&g);
        for (u, v) in g.edges() {
            let cu = scc.component[u as usize];
            let cv = scc.component[v as usize];
            prop_assert!(cu >= cv, "edge {u}->{v}: component {cu} -> {cv}");
        }
    }

    /// Weak components are coarser than strong components.
    #[test]
    fn weak_components_refine_strong(edges in arbitrary_edges(15, 60)) {
        let g = CsrGraph::from_edges(15, &edges);
        let scc = tarjan_scc(&g);
        let (wcc, _) = weakly_connected_components(&g);
        for u in 0..15usize {
            for v in 0..15usize {
                if scc.component[u] == scc.component[v] {
                    prop_assert_eq!(wcc[u], wcc[v]);
                }
            }
        }
    }

    /// Graph binary encoding round-trips exactly.
    #[test]
    fn graph_binary_roundtrip(edges in arbitrary_edges(30, 150)) {
        let g = CsrGraph::from_edges(30, &edges);
        let back = decode_graph(&encode_graph(&g)).expect("decode");
        prop_assert_eq!(back, g);
    }

    /// Decoding never panics on mutated bytes — it returns an error or a
    /// (possibly different) valid graph, but must not crash.
    #[test]
    fn decode_is_panic_free_under_mutation(
        edges in arbitrary_edges(10, 40),
        flips in prop::collection::vec((0usize..10_000, 0u8..=255), 1..8),
    ) {
        let g = CsrGraph::from_edges(10, &edges);
        let mut bytes = encode_graph(&g).to_vec();
        for &(pos, val) in &flips {
            let idx = pos % bytes.len();
            bytes[idx] = val;
        }
        let _ = decode_graph(&bytes); // must not panic
    }

    /// Series decoding never panics on truncation.
    #[test]
    fn series_decode_survives_truncation(
        edges in arbitrary_edges(8, 30),
        cut_frac in 0.0f64..1.0,
    ) {
        let g = CsrGraph::from_edges(8, &edges);
        let pages: Vec<PageId> = (0..8u64).map(PageId).collect();
        let mut series = SnapshotSeries::new();
        series.push(Snapshot::new(0.0, g.clone(), pages.clone()).unwrap()).unwrap();
        series.push(Snapshot::new(1.0, g, pages).unwrap()).unwrap();
        let bytes = encode_series(&series);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let _ = decode_series(&bytes[..cut]); // must not panic
        // full payload always decodes
        prop_assert!(decode_series(&bytes).is_ok());
    }

    /// Snapshot-series binary encoding round-trips exactly, including
    /// graphs with no edges, trailing isolated nodes, and duplicate edge
    /// input (deduplicated at construction; the roundtrip must preserve
    /// the deduplicated structure, bit for bit — checked via the
    /// structural fingerprint, which also covers time and page ids).
    #[test]
    fn series_binary_roundtrip(
        specs in prop::collection::vec((arbitrary_edges(9, 25), 0u64..4), 1..5),
    ) {
        let mut series = SnapshotSeries::new();
        for (i, (edges, isolated)) in specs.iter().enumerate() {
            let n = 9 + *isolated as usize;
            let mut doubled = edges.clone();
            doubled.extend_from_slice(edges);
            let g = CsrGraph::from_edges(n, &doubled);
            let pages: Vec<PageId> = (0..n as u64).map(PageId).collect();
            series.push(Snapshot::new(i as f64, g, pages).unwrap()).unwrap();
        }
        let back = decode_series(&encode_series(&series)).unwrap();
        prop_assert_eq!(back.len(), series.len());
        for (a, b) in series.snapshots().iter().zip(back.snapshots()) {
            prop_assert_eq!(a.time, b.time);
            prop_assert_eq!(a.pages(), b.pages());
            prop_assert_eq!(&a.graph, &b.graph);
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    /// Corrupting any single header byte of an encoded series never
    /// panics, and flips of the magic or version fields are rejected.
    #[test]
    fn series_decode_rejects_header_corruption(pos in 0usize..6, flip in 1u8..=255) {
        let g = CsrGraph::from_edges(3, &[(0, 1), (2, 0)]);
        let pages: Vec<PageId> = (0..3u64).map(PageId).collect();
        let mut series = SnapshotSeries::new();
        series.push(Snapshot::new(0.0, g, pages).unwrap()).unwrap();
        let mut bytes = encode_series(&series).to_vec();
        // bytes 0..4 magic, 4..6 version: any flip must be rejected
        bytes[pos] ^= flip;
        prop_assert!(decode_series(&bytes).is_err());
    }

    /// Transpose is an involution and preserves degree sums.
    #[test]
    fn transpose_involution(edges in arbitrary_edges(20, 100)) {
        let g = CsrGraph::from_edges(20, &edges);
        let t = g.transpose();
        prop_assert_eq!(t.transpose(), g.clone());
        for u in 0..20u32 {
            prop_assert_eq!(g.out_degree(u), t.in_degree(u));
            prop_assert_eq!(g.in_degree(u), t.out_degree(u));
        }
    }

    /// `relabeled` emits the permuted rows directly; the oracle is the
    /// edge-list detour it replaced (`from_edges` on the mapped edges).
    /// Equality covers row order, which fixes a solver's summation
    /// order and with it the score bits.
    #[test]
    fn relabeled_matches_from_edges_on_the_mapped_edge_list(
        edges in arbitrary_edges(24, 120),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let g = CsrGraph::from_edges(24, &edges);
        let mut perm: Vec<NodeId> = (0..24).collect();
        let mut s = shuffle_seed;
        for i in (1..perm.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            perm.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mapped: Vec<(NodeId, NodeId)> = g
            .edges()
            .map(|(u, v)| (perm[u as usize], perm[v as usize]))
            .collect();
        let oracle = CsrGraph::from_edges(24, &mapped);
        prop_assert_eq!(g.relabeled(&Relabeling { perm }), oracle);
    }

    /// The fused single-pass restriction (`restrict_relabel`) is
    /// edge-for-edge identical to the reference two-pass path
    /// (`induced_subgraph` of the sorted keep set, then `relabeled` into
    /// keep order) on arbitrary graphs, keep sets, and keep *orders*.
    #[test]
    fn fused_restriction_matches_two_pass_reference(
        edges in arbitrary_edges(24, 120),
        keep_sel in prop::collection::vec(0u8..2, 24..25),
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let g = CsrGraph::from_edges(24, &edges);
        let sorted_keep: Vec<NodeId> =
            (0..24u32).filter(|&u| keep_sel[u as usize] == 1).collect();
        // An arbitrary keep order: restriction must honor any labeling.
        let mut keep = sorted_keep.clone();
        shuffle(&mut keep, shuffle_seed);

        // Reference: induced subgraph in sorted order, then a full
        // relabel pass mapping sorted position -> keep position.
        let sub_sorted = g.induced_subgraph_sorted(&sorted_keep);
        let mut perm = vec![0 as NodeId; keep.len()];
        for (pos, &u) in keep.iter().enumerate() {
            perm[sorted_keep.binary_search(&u).unwrap()] = pos as NodeId;
        }
        let reference = sub_sorted.relabeled(&Relabeling { perm });

        // Fused: one counting pass + one fill pass.
        let mut old_to_new = vec![NodeId::MAX; g.num_nodes()];
        for (new, &old) in keep.iter().enumerate() {
            old_to_new[old as usize] = new as NodeId;
        }
        let fused = g.restrict_relabel(&old_to_new, keep.len());
        prop_assert_eq!(fused, reference);
    }

    /// Restricting to an id prefix equals the general fused restriction
    /// for every prefix length, whether the prefix holds every edge (the
    /// truncating shortcut applies) or cuts through some.
    #[test]
    fn prefix_restriction_matches_general_restriction(
        edges in arbitrary_edges(24, 120),
        populated in 1u32..25,
    ) {
        // nodes `populated..24` are isolated, like pages not yet born
        let edges: Vec<(u32, u32)> =
            edges.iter().map(|&(u, v)| (u % populated, v % populated)).collect();
        let g = CsrGraph::from_edges(24, &edges);
        for k in 0..=24usize {
            let keep: Vec<NodeId> = (0..k as NodeId).collect();
            let mut old_to_new = vec![NodeId::MAX; 24];
            old_to_new[..k].copy_from_slice(&keep);
            prop_assert_eq!(
                g.induced_subgraph_sorted(&keep),
                g.restrict_relabel(&old_to_new, k),
                "prefix {}", k
            );
        }
    }

    /// `Snapshot::restrict_to` through the fused path produces the same
    /// snapshot (graph, pages, fingerprint) as rebuilding from the
    /// reference restriction with `Snapshot::new`.
    #[test]
    fn snapshot_restriction_matches_rebuilt_reference(
        edges in arbitrary_edges(16, 80),
        keep_sel in prop::collection::vec(0u8..2, 16..17),
    ) {
        let g = CsrGraph::from_edges(16, &edges);
        let pages: Vec<PageId> = (0..16u64).map(|p| PageId(p * 7 + 1)).collect();
        let snap = Snapshot::new(2.5, g.clone(), pages.clone()).unwrap();
        let keep_nodes: Vec<NodeId> =
            (0..16u32).filter(|&u| keep_sel[u as usize] == 1).collect();
        let keep_pages: Vec<PageId> =
            keep_nodes.iter().map(|&u| pages[u as usize]).collect();

        let restricted = snap.restrict_to(&keep_pages).unwrap();

        let reference_graph = g.induced_subgraph_sorted(&keep_nodes);
        let reference =
            Snapshot::new(2.5, reference_graph, keep_pages.clone()).unwrap();
        prop_assert_eq!(&restricted.graph, &reference.graph);
        prop_assert_eq!(restricted.pages(), reference.pages());
        prop_assert_eq!(restricted.fingerprint(), reference.fingerprint());
    }

    /// Restriction with unsorted labels on both sides: the snapshot's
    /// labels are shuffled and `keep` lists its pages in an arbitrary
    /// order, so the id merge walks both sets' sorted permutations and
    /// the renamed rows need sorting. The result is `induced_subgraph` +
    /// `relabel` rebuilt through `Snapshot::new`, fingerprint included.
    /// With two unknown pages in `keep`, the error names the first of
    /// them in `keep`'s order, whichever the merge meets first.
    #[test]
    fn unsorted_restriction_matches_rebuilt_reference(
        edges in arbitrary_edges(16, 80),
        keep_sel in prop::collection::vec(0u8..2, 16..17),
        label_seed in 0u64..u64::MAX,
        keep_seed in 0u64..u64::MAX,
        unknown_at in (0usize..17, 0usize..18),
    ) {
        let g = CsrGraph::from_edges(16, &edges);
        let mut pages: Vec<PageId> = (0..16u64).map(|p| PageId(p * 7 + 1)).collect();
        shuffle(&mut pages, label_seed);
        let snap = Snapshot::new(2.5, g.clone(), pages.clone()).unwrap();
        let mut keep_nodes: Vec<NodeId> =
            (0..16u32).filter(|&u| keep_sel[u as usize] == 1).collect();
        shuffle(&mut keep_nodes, keep_seed);
        let keep_pages: Vec<PageId> =
            keep_nodes.iter().map(|&u| pages[u as usize]).collect();

        let restricted = snap.restrict_to(&keep_pages).unwrap();

        // Reference: the induced subgraph in ascending node order, then
        // renamed into keep order by the edge-list relabel.
        let (sub, sorted_nodes) = g.induced_subgraph(&keep_nodes);
        let perm: Vec<NodeId> = sorted_nodes
            .iter()
            .map(|u| keep_nodes.iter().position(|k| k == u).unwrap() as NodeId)
            .collect();
        let reference =
            Snapshot::new(2.5, sub.relabel(&perm).unwrap(), keep_pages.clone()).unwrap();
        prop_assert_eq!(&restricted.graph, &reference.graph);
        prop_assert_eq!(restricted.pages(), reference.pages());
        prop_assert_eq!(restricted.fingerprint(), reference.fingerprint());

        // Labels are 1 mod 7: page 700 sorts after every label and page
        // 14 among them, so the merge meets 14 first wherever it stands.
        let mut with_unknown = keep_pages;
        with_unknown.insert(unknown_at.0.min(with_unknown.len()), PageId(700));
        with_unknown.insert(unknown_at.1.min(with_unknown.len()), PageId(14));
        let first_unknown = *with_unknown
            .iter()
            .find(|&&p| snap.node_of(p).is_none())
            .unwrap();
        prop_assert!(
            matches!(
                snap.restrict_to(&with_unknown),
                Err(GraphError::UnknownPage(p)) if p == first_unknown.0
            ),
            "the error must name {}", first_unknown
        );
    }

    /// Restricting a snapshot to exactly its own pages in its own node
    /// order skips the fused pass; what comes back is what the pass
    /// would have built — the four CSR arrays, the fingerprint — under
    /// the caller's `Arc`, whether the labels are sorted or not.
    #[test]
    fn identity_restriction_matches_the_fused_pass(
        edges in arbitrary_edges(16, 80),
        shuffle_seed in 0u64..u64::MAX,
        sorted in 0u8..2,
    ) {
        let g = CsrGraph::from_edges(16, &edges);
        let mut pages: Vec<PageId> = (0..16u64).map(|p| PageId(p * 7 + 1)).collect();
        if sorted == 0 {
            shuffle(&mut pages, shuffle_seed);
        }
        let snap = Snapshot::new(2.5, g.clone(), pages.clone()).unwrap();
        let keep = PageSet::new(pages).unwrap();

        let shortcut = snap.restrict_to_set(&keep).unwrap();

        let identity: Vec<NodeId> = (0..16).collect();
        let fused = Snapshot::from_page_set(
            2.5,
            g.restrict_relabel(&identity, 16),
            std::sync::Arc::clone(&keep),
        )
        .unwrap();
        prop_assert_eq!(&shortcut.graph, &fused.graph);
        prop_assert_eq!(shortcut.fingerprint(), fused.fingerprint());
        prop_assert_eq!(shortcut.time.to_bits(), fused.time.to_bits());
        prop_assert!(std::sync::Arc::ptr_eq(shortcut.page_set(), &keep));
        prop_assert!(std::sync::Arc::ptr_eq(fused.page_set(), &keep));
    }

    /// Aligning a series puts every snapshot on one shared `Arc` page
    /// universe — pointer equality, not just equal contents.
    #[test]
    fn aligned_series_shares_one_page_universe(
        page_sel in prop::collection::vec(prop::collection::vec(0u8..2, 10..11), 2..5),
    ) {
        let mut series = SnapshotSeries::new();
        for (t, sel) in page_sel.iter().enumerate() {
            let pages: Vec<PageId> = (0..10u64)
                .filter(|&p| sel[p as usize] == 1)
                .map(PageId)
                .collect();
            let n = pages.len();
            let g = CsrGraph::from_edges(
                n,
                &(1..n as u32).map(|u| (u - 1, u)).collect::<Vec<_>>(),
            );
            series.push(Snapshot::new(t as f64, g, pages).unwrap()).unwrap();
        }
        let aligned = series.aligned_to_common().unwrap();
        prop_assert!(aligned.is_aligned());
        if let Some(first) = aligned.snapshots().first() {
            for s in aligned.snapshots() {
                prop_assert!(std::sync::Arc::ptr_eq(s.page_set(), first.page_set()));
            }
        }
    }

    /// `restrict_snapshots` is thread-count-independent: budgets 1, 2,
    /// and 8 produce bitwise-identical snapshots and fingerprints.
    #[test]
    fn parallel_restriction_is_thread_count_independent(
        page_sel in prop::collection::vec(prop::collection::vec(0u8..2, 12..13), 2..6),
    ) {
        let mut series = SnapshotSeries::new();
        for (t, sel) in page_sel.iter().enumerate() {
            let pages: Vec<PageId> = (0..12u64)
                .filter(|&p| sel[p as usize] == 1)
                .map(PageId)
                .collect();
            let n = pages.len();
            let g = CsrGraph::from_edges(
                n,
                &(0..n as u32).map(|u| (u, (u * 5 + 1) % n.max(1) as u32)).collect::<Vec<_>>(),
            );
            series.push(Snapshot::new(t as f64, g, pages).unwrap()).unwrap();
        }
        let keep = PageSet::from_sorted(series.common_pages());
        let solo = qrank_graph::restrict_snapshots(series.snapshots(), &keep, 1).unwrap();
        for threads in [2usize, 8] {
            let multi =
                qrank_graph::restrict_snapshots(series.snapshots(), &keep, threads).unwrap();
            prop_assert_eq!(solo.len(), multi.len());
            for (a, b) in solo.iter().zip(&multi) {
                prop_assert_eq!(a.fingerprint(), b.fingerprint());
                prop_assert_eq!(&a.graph, &b.graph);
                prop_assert_eq!(a.pages(), b.pages());
            }
        }
    }

    /// BFS visits exactly the reachable set, each node once.
    #[test]
    fn bfs_visits_reachable_set_once(edges in arbitrary_edges(15, 60), start in 0u32..15) {
        let g = CsrGraph::from_edges(15, &edges);
        let order = bfs(&g, start);
        let unique: std::collections::HashSet<_> = order.iter().collect();
        prop_assert_eq!(unique.len(), order.len(), "no duplicates");
        prop_assert!(order.contains(&start));
        // closure: every out-neighbor of a visited node is visited
        for &u in &order {
            for &v in g.out_neighbors(u) {
                prop_assert!(order.contains(&v));
            }
        }
    }
}

/// Snapshot edge cases the strategy above cannot hit: a zero-node graph,
/// page ids at the u64 ceiling, and node ids at the format's plausibility
/// ceiling for a near-edgeless graph.
#[test]
fn series_roundtrip_edge_cases() {
    let mut series = SnapshotSeries::new();
    series
        .push(Snapshot::new(0.0, CsrGraph::from_edges(0, &[]), vec![]).unwrap())
        .unwrap();
    series
        .push(
            Snapshot::new(
                1.0,
                CsrGraph::from_edges(2, &[(0, 1)]),
                vec![PageId(u64::MAX), PageId(0)],
            )
            .unwrap(),
        )
        .unwrap();
    // max node id allowed for a single-edge graph by the decoder's
    // plausibility guard (64 * edges + 2^20 isolated-node allowance)
    let n = (1 << 20) + 64;
    let pages: Vec<PageId> = (0..n as u64).map(PageId).collect();
    series
        .push(Snapshot::new(2.0, CsrGraph::from_edges(n, &[(0, n as u32 - 1)]), pages).unwrap())
        .unwrap();
    let back = decode_series(&encode_series(&series)).unwrap();
    assert_eq!(back.len(), 3);
    for (a, b) in series.snapshots().iter().zip(back.snapshots()) {
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(&a.graph, &b.graph);
        assert_eq!(a.pages(), b.pages());
    }
}

/// Golden fingerprint values captured from the pre-fused-restriction
/// implementation (built at the commit before this refactor): the
/// alignment rework must not change a single bit of any fingerprint,
/// because the incremental stage engine keys its caches on them.
#[test]
fn snapshot_fingerprints_match_pre_refactor_golden_values() {
    let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
    let s = Snapshot::new(1.5, g, vec![PageId(10), PageId(20), PageId(30)]).unwrap();
    assert_eq!(s.fingerprint(), 0x931a_8678_37fc_c563);
    let r = s.restrict_to(&[PageId(30), PageId(10)]).unwrap();
    assert_eq!(r.fingerprint(), 0x18b0_2247_5148_4eb6);
    assert_eq!(qrank_graph::pages_fingerprint(&[]), 0xa8c7_f832_281a_39c5);
    assert_eq!(
        qrank_graph::pages_fingerprint(&[PageId(10), PageId(30)]),
        0x62f6_bf35_2f2a_4613
    );
}

/// Every strict prefix of an encoded series is rejected — the decoder
/// must detect truncation anywhere in the payload, never return a
/// silently shortened series.
#[test]
fn series_rejects_every_truncated_payload() {
    let mut series = SnapshotSeries::new();
    for t in 0..3 {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (3, 0)]);
        let pages: Vec<PageId> = (0..4u64).map(PageId).collect();
        series
            .push(Snapshot::new(t as f64, g, pages).unwrap())
            .unwrap();
    }
    let bytes = encode_series(&series);
    for cut in 0..bytes.len() {
        assert!(
            decode_series(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes must not decode",
            bytes.len()
        );
    }
    assert!(decode_series(&bytes).is_ok());
}
