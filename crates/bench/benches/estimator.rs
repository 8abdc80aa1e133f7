//! Criterion micro-benchmarks for the quality-estimation layer: the
//! estimator itself (cheap), the per-snapshot trajectory computation
//! (PageRank-dominated), and the end-to-end pipeline on a crawled
//! series.

use criterion::{criterion_group, criterion_main, Criterion};
use qrank_core::estimator::{LogisticFit, PaperEstimator, QualityEstimator};
use qrank_core::{run_pipeline, PipelineConfig, PopularityTrajectories};
use qrank_graph::PageId;
use qrank_sim::{Crawler, SimConfig, SnapshotSchedule, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn synthetic_trajectories(pages: usize, snapshots: usize, seed: u64) -> PopularityTrajectories {
    let mut rng = StdRng::seed_from_u64(seed);
    let values = (0..pages)
        .map(|_| {
            let start: f64 = rng.random::<f64>() + 0.1;
            let growth: f64 = 1.0 + rng.random::<f64>() * 0.2;
            (0..snapshots)
                .map(|k| start * growth.powi(k as i32))
                .collect()
        })
        .collect();
    PopularityTrajectories {
        times: (0..snapshots).map(|i| i as f64).collect(),
        values,
        pages: (0..pages).map(|i| PageId(i as u64)).collect(),
    }
}

fn bench_estimators(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimators");
    let traj = synthetic_trajectories(100_000, 3, 7);
    group.bench_function("paper_estimator_100k_pages", |b| {
        b.iter(|| black_box(PaperEstimator::default().estimate(&traj).unwrap()))
    });
    let fit = LogisticFit {
        visit_ratio: 1.0,
        q_max: 10.0,
        flat_tolerance: 1e-3,
        max_boost: 10.0,
    };
    let small = synthetic_trajectories(5_000, 4, 8);
    group.bench_function("logistic_fit_5k_pages", |b| {
        b.iter(|| black_box(fit.estimate(&small).unwrap()))
    });
    group.finish();
}

fn bench_run_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    // pre-crawl a small world once; the bench measures estimation only
    let cfg = SimConfig {
        num_users: 500,
        num_sites: 10,
        visit_ratio: 1.0,
        page_birth_rate: 20.0,
        dt: 0.1,
        seed: 9,
        ..Default::default()
    };
    let mut world = World::bootstrap(cfg).expect("bootstrap");
    let schedule = SnapshotSchedule::paper_timeline(4.0);
    let series = Crawler::default()
        .crawl_schedule(&mut world, &schedule)
        .expect("crawl");
    group.bench_function("full_pipeline_small_series", |b| {
        b.iter(|| black_box(run_pipeline(&series, &PipelineConfig::default()).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_estimators, bench_run_pipeline);
criterion_main!(benches);
