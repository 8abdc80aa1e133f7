//! Criterion micro-benchmarks for the ranking solvers.
//!
//! Measures the solver families from `qrank-rank` on Barabási–Albert
//! graphs (power-law in-degree, like the web). Complements the
//! figure/table binaries: these benches answer "which solver should the
//! pipeline use", not "does the paper reproduce".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qrank_graph::generators::barabasi_albert;
use qrank_graph::CsrGraph;
use qrank_rank::{
    colored_gauss_seidel, gauss_seidel, pagerank, solve_auto, solve_many, PageRankConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("pagerank_solvers");
    group.sample_size(10);
    for &n in &[10_000usize, 50_000] {
        let mut rng = StdRng::seed_from_u64(1);
        let g = barabasi_albert(n, 5, &mut rng);
        let cfg = PageRankConfig {
            tolerance: 1e-9,
            ..Default::default()
        };

        group.bench_with_input(BenchmarkId::new("power", n), &g, |b, g| {
            b.iter(|| black_box(pagerank(g, &cfg)))
        });
        group.bench_with_input(BenchmarkId::new("gauss_seidel", n), &g, |b, g| {
            b.iter(|| black_box(gauss_seidel(g, &cfg)))
        });
        // the colored sweep itself, even below PARALLEL_MIN_NODES where
        // `auto` takes the sequential one
        group.bench_with_input(BenchmarkId::new("colored_gs", n), &g, |b, g| {
            b.iter(|| black_box(colored_gauss_seidel(g, &cfg)))
        });
        group.bench_with_input(BenchmarkId::new("auto", n), &g, |b, g| {
            b.iter(|| black_box(solve_auto(g, &cfg, None)))
        });
    }
    group.finish();
}

/// A web in arrival order, as the refresh workloads serve it: a page
/// links to three earlier pages when it arrives — mostly to an endpoint
/// of an earlier link, so popular pages gather links — and one more link
/// appears between two pages that exist by then. About 3.6 distinct
/// in-links a node; a third of the rows are empty.
fn arrival_ordered_web(pages: u32, rng: &mut StdRng) -> CsrGraph {
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(4 * pages as usize);
    let mut pool: Vec<u32> = Vec::with_capacity(8 * pages as usize);
    for p in 2..pages {
        for i in 0..4 {
            let src = if i < 3 { p } else { rng.random_range(0..p) };
            let dst = if pool.is_empty() || rng.random_range(0..4) == 0 {
                rng.random_range(0..p)
            } else {
                pool[rng.random_range(0..pool.len())]
            };
            if src != dst {
                edges.push((src, dst));
                pool.extend([dst, src]);
            }
        }
    }
    CsrGraph::from_edges(pages as usize, &edges)
}

/// A crawled graph as the simulator's worlds give it: every page is
/// linked from its site's home page and one earlier page, and liked
/// from two dozen of a thousand home pages. About 26 in-links a node,
/// hardly a row inside the head.
fn crawled_web(pages: u32, rng: &mut StdRng) -> CsrGraph {
    let homes = 1_000;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(27 * pages as usize);
    for p in homes..pages {
        edges.push((p % homes, p));
        edges.push((rng.random_range(0..p), p));
        edges.push((p, p % homes));
        for _ in 0..24 {
            edges.push((rng.random_range(0..homes), p));
        }
    }
    CsrGraph::from_edges(pages as usize, &edges)
}

/// The sequential sweep on the two row-length profiles it meets: short
/// rows (one re-ranked column of a refresh) and long ones (a crawl).
fn bench_gauss_seidel_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gauss_seidel");
    group.sample_size(10);
    let cfg = PageRankConfig::default();
    let mut rng = StdRng::seed_from_u64(7);
    let sparse = arrival_ordered_web(36_000, &mut rng);
    let dense = crawled_web(20_000, &mut rng);
    group.bench_function("sparse_arrival_36k", |b| {
        b.iter(|| black_box(gauss_seidel(&sparse, &cfg)))
    });
    group.bench_function("dense_crawled_20k", |b| {
        b.iter(|| black_box(gauss_seidel(&dense, &cfg)))
    });
    group.finish();
}

/// The colored sweep at the `batch_rank` size: one column (the kernel in
/// the graph's own order) beside the sequential sweep on the same web,
/// and a window of four nested prefixes of the web through `solve_many`,
/// which renames every column by degree and solves the columns side by
/// side with the colored sweep, one thread a column.
fn bench_colored(c: &mut Criterion) {
    let mut group = c.benchmark_group("colored");
    group.sample_size(10);
    let cfg = PageRankConfig::default();
    let mut rng = StdRng::seed_from_u64(42);
    let web = arrival_ordered_web(105_000, &mut rng);
    group.bench_function("colored", |b| {
        b.iter(|| black_box(colored_gauss_seidel(&web, &cfg)))
    });
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(gauss_seidel(&web, &cfg)))
    });
    let columns: Vec<CsrGraph> = [101_000u32, 102_000, 103_500, 105_000]
        .into_iter()
        .map(|pages| web.induced_subgraph_sorted(&(0..pages).collect::<Vec<u32>>()))
        .collect();
    let window: Vec<&CsrGraph> = columns.iter().collect();
    group.bench_function("solve_many_4", |b| {
        b.iter(|| black_box(solve_many(&window, &cfg)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_solvers,
    bench_gauss_seidel_shapes,
    bench_colored,
);
criterion_main!(benches);
