//! Criterion micro-benchmarks for the web-evolution simulator: step
//! throughput at several population sizes and crawl cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qrank_sim::{Crawler, QualityDist, SimConfig, World};
use std::hint::black_box;

fn bench_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("world_step");
    group.sample_size(10);
    for &(users, sites) in &[(1_000usize, 20usize), (4_000, 154)] {
        let cfg = SimConfig {
            num_users: users,
            num_sites: sites,
            visit_ratio: 1.0,
            page_birth_rate: 50.0,
            dt: 0.05,
            seed: 11,
            ..Default::default()
        };
        // measure steady-state steps after a warmup
        let mut world = World::bootstrap(cfg).expect("bootstrap");
        world.run_until(3.0);
        group.bench_with_input(
            BenchmarkId::new("month_of_steps", format!("{users}u_{sites}s")),
            &(),
            |b, ()| {
                b.iter(|| {
                    // 20 steps = one month at dt = 0.05
                    for _ in 0..20 {
                        world.step().expect("step");
                    }
                    black_box(world.num_pages())
                })
            },
        );
    }
    group.finish();
}

/// One step of a world of the benchmark's `batch_cold` shape (its
/// `cold_config` at the default 0.3 scale) at its first crawl time: some
/// 28 000 pages, most of them young and barely known, a thousand users.
/// The world keeps growing under the timer, as it does in the benchmark.
fn bench_cold_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("world_step");
    group.sample_size(10);
    let cfg = SimConfig {
        num_users: 1_000,
        num_sites: 30,
        visit_ratio: 1.0,
        page_birth_rate: 4_500.0,
        quality_dist: QualityDist::Uniform { lo: 0.05, hi: 0.95 },
        dt: 0.05,
        seed: 7,
        ..Default::default()
    };
    let mut world = World::bootstrap(cfg).expect("bootstrap");
    world.run_until(6.0);
    group.bench_function("step/batch_cold_shape", |b| {
        b.iter(|| {
            world.step().expect("step");
            black_box(world.num_pages())
        })
    });
    group.finish();
}

fn bench_crawl(c: &mut Criterion) {
    let mut group = c.benchmark_group("crawler");
    group.sample_size(10);
    let cfg = SimConfig {
        num_users: 2_000,
        num_sites: 50,
        visit_ratio: 1.0,
        page_birth_rate: 60.0,
        dt: 0.05,
        seed: 13,
        ..Default::default()
    };
    let mut world = World::bootstrap(cfg).expect("bootstrap");
    world.run_until(6.0);
    let crawler = Crawler::default();
    group.bench_function("crawl_mature_world", |b| {
        b.iter(|| black_box(crawler.crawl(&world, 6.0).expect("crawl")))
    });
    group.finish();
}

criterion_group!(benches, bench_steps, bench_cold_step, bench_crawl);
criterion_main!(benches);
