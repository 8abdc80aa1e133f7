//! A crawl at `t` of a world that has run past `t` is the crawl a
//! schedule takes at `t`: graph, pages, fingerprint and time, bit for
//! bit. `qrank-bench`'s `Study` rests on this — it runs each simulated
//! web once, to its last capture, and crawls it at earlier times on
//! demand.

use qrank_graph::SnapshotSeries;
use qrank_sim::{Crawler, QualityDist, SimConfig, SnapshotSchedule, VisitModel, World};

fn config(forget_rate: f64, visit_model: VisitModel) -> SimConfig {
    SimConfig {
        num_users: 300,
        num_sites: 4,
        visit_ratio: 2.0,
        page_birth_rate: 40.0,
        quality_dist: QualityDist::Uniform { lo: 0.1, hi: 0.9 },
        forget_rate,
        visit_model,
        dt: 0.05,
        seed: 43,
    }
}

/// `crawler`'s captures of one world run to the schedule's end, taken
/// latest first, against `crawl_schedule` on a second world, whose
/// series is returned.
fn assert_past_crawls_match_the_schedule(cfg: SimConfig, crawler: Crawler) -> SnapshotSeries {
    let schedule = SnapshotSchedule {
        times: vec![1.0, 1.25, 2.0, 3.0],
    };
    let mut scheduled = World::bootstrap(cfg).expect("bootstrap");
    let want = crawler
        .crawl_schedule(&mut scheduled, &schedule)
        .expect("crawl schedule");

    let mut finished = World::bootstrap(cfg).expect("bootstrap");
    finished.run_until(3.0);
    for (i, &t) in schedule.times.iter().enumerate().rev() {
        let got = crawler.crawl(&finished, t).expect("crawl");
        let want = &want.snapshots()[i];
        let at = format!("{cfg:?}, {crawler:?}, t = {t}");
        assert_eq!(got.time.to_bits(), want.time.to_bits(), "{at}");
        assert_eq!(got.pages(), want.pages(), "{at}");
        assert_eq!(got.graph, want.graph, "{at}");
        assert_eq!(got.fingerprint(), want.fingerprint(), "{at}");
    }
    want
}

#[test]
fn a_crawl_of_the_finished_world_is_the_scheduled_crawl() {
    let uncapped = Crawler::default();
    let capped = Crawler {
        max_pages_per_site: 25,
    };
    for cfg in [
        config(0.0, VisitModel::ByPopularity),
        // forgetting removes links, so a later log holds removes of
        // edges an earlier capture still sees
        config(0.5, VisitModel::ByPopularity),
        config(0.0, VisitModel::ByPageRank),
    ] {
        let all = assert_past_crawls_match_the_schedule(cfg, uncapped);
        let some = assert_past_crawls_match_the_schedule(cfg, capped);
        // the cap binds, or the capped case would repeat the uncapped one
        let last = |s: &SnapshotSeries| s.snapshots()[3].num_pages();
        assert!(last(&some) < last(&all), "{cfg:?}");
    }
}
