//! Criterion micro-benchmarks for the graph substrate: construction,
//! subgraph extraction (the paper's common-page restriction), traversal,
//! binary I/O and link-graph materialization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qrank_graph::generators::barabasi_albert;
use qrank_graph::traversal::bfs;
use qrank_graph::{CsrGraph, DynamicGraph, GraphBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_edges(n: u32, m: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
        .collect()
}

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_construction");
    group.sample_size(20);
    for &m in &[100_000usize, 500_000] {
        let edges = random_edges(50_000, m, 3);
        group.bench_with_input(BenchmarkId::new("builder_build", m), &edges, |b, edges| {
            b.iter(|| {
                let mut builder = GraphBuilder::with_nodes(50_000);
                builder.add_edges(edges.iter().copied());
                black_box(builder.build())
            })
        });
    }
    group.finish();
}

fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_ops");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(4);
    let g = barabasi_albert(50_000, 5, &mut rng);
    let keep: Vec<NodeId> = (0..50_000).filter(|i| i % 2 == 0).collect();
    group.bench_function("induced_subgraph_half", |b| {
        b.iter(|| black_box(g.induced_subgraph(&keep)))
    });
    group.bench_function("transpose", |b| b.iter(|| black_box(g.transpose())));
    group.bench_function("bfs_full", |b| b.iter(|| black_box(bfs(&g, 0))));
    group.finish();
}

fn bench_io(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_io");
    group.sample_size(20);
    let g = CsrGraph::from_edges(20_000, &random_edges(20_000, 200_000, 5));
    let bytes = qrank_graph::io::encode_graph(&g);
    group.bench_function("encode_binary", |b| {
        b.iter(|| black_box(qrank_graph::io::encode_graph(&g)))
    });
    group.bench_function("decode_binary", |b| {
        b.iter(|| black_box(qrank_graph::io::decode_graph(&bytes).unwrap()))
    });
    group.finish();
}

/// The link log of a `batch_cold`-shaped world without running one: a
/// thousand home pages gather like-links to pages as those are born,
/// ever faster (the log's second half holds its last fifth of time, as
/// the benchmark's does), and every page gets its two navigation links.
/// Times run 0..8.5.
fn cold_shaped_log(pages: u32) -> DynamicGraph {
    let mut rng = StdRng::seed_from_u64(6);
    let homes = 1_000u32;
    let mut d = DynamicGraph::new();
    for _ in 0..homes {
        d.add_node(0.0).expect("births are in time order");
    }
    for p in homes..pages {
        let at = 8.5 * f64::from(p - homes) / f64::from(pages - homes);
        d.add_node(at).expect("births are in time order");
        d.add_edge(rng.random_range(0..p), p, at).expect("in order");
        d.add_edge(p, p % homes, at).expect("in order");
        // likes of pages born earlier: twenty a page on average
        let age = f64::from(p) / f64::from(pages);
        for _ in 0..(80.0 * age.powi(3)) as u32 {
            let liked = rng.random_range(0..=p);
            d.add_edge(rng.random_range(0..homes), liked, at)
                .expect("in order");
        }
    }
    d
}

/// The materializer's two ways to the graph at the last crawl time of
/// the benchmark's schedule: from the empty graph, and from the graph of
/// the crawl before it. Then the same pair as a refresh engine meets it:
/// a capture over the alive pages, one small delta (half a percent of
/// the log) after the capture it keeps.
fn bench_materialize(c: &mut Criterion) {
    let mut group = c.benchmark_group("link_graph");
    group.sample_size(20);
    let d = cold_shaped_log(40_000);
    let base = d.graph_at_full_from(None, 7.0);
    group.bench_function("at_8.5_from_empty", |b| {
        b.iter(|| black_box(d.graph_at_full(black_box(8.5))))
    });
    group.bench_function("at_8.5_extending_7.0", |b| {
        b.iter(|| {
            let base = Some((&base.graph, base.events));
            black_box(d.graph_at_full_from(base, black_box(8.5)))
        })
    });
    let (held, _) = d.snapshot_at_from(None, 8.45);
    group.bench_function("capture_8.5_from_empty", |b| {
        b.iter(|| black_box(d.snapshot_at(black_box(8.5))))
    });
    group.bench_function("capture_8.5_extending_8.45", |b| {
        b.iter(|| {
            let held = Some((&held.graph, held.events));
            black_box(d.snapshot_at_from(held, black_box(8.5)))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_construction,
    bench_ops,
    bench_io,
    bench_materialize
);
criterion_main!(benches);
