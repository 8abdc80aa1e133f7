//! The simulated web the paper's experiments measure: one [`Study`] per
//! configuration, crawled on demand. The paper crawls one web four times
//! (Figure 4); a study is a [`World`] run once to the last capture any
//! experiment takes. A crawl reads only the links and births up to its
//! time, so crawling the finished world at an earlier time is the crawl
//! a schedule would have taken then (`crates/sim/tests/crawl_in_the_past.rs`).
//! The process keeps one study per (config, end time), and a study each
//! (crawler, time) crawl: no configuration is simulated twice.

use std::sync::{Mutex, OnceLock};

use qrank_core::{run_pipeline, PipelineConfig, PipelineReport};
use qrank_graph::{Snapshot, SnapshotSeries};
use qrank_sim::{Crawler, QualityDist, SimConfig, SnapshotSchedule, World};

/// Experiment scale: `Small` keeps tests fast; `Paper` is the headline
/// configuration sized after the paper's setup (154 sites, a multi-month
/// timeline, thousands of pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast configuration for tests and smoke runs.
    Small,
    /// The full experiment (tens of seconds in release mode).
    Paper,
}

impl Scale {
    /// The simulator configuration for this scale.
    pub fn sim_config(self, seed: u64) -> SimConfig {
        match self {
            Scale::Small => SimConfig {
                num_users: 800,
                num_sites: 20,
                visit_ratio: 0.8,
                page_birth_rate: 40.0,
                quality_dist: QualityDist::Uniform { lo: 0.05, hi: 0.95 },
                forget_rate: 0.0,
                dt: 0.05,
                seed,
                ..Default::default()
            },
            Scale::Paper => SimConfig {
                num_users: 3_000,
                num_sites: 154, // the paper's corpus size
                visit_ratio: 0.6,
                page_birth_rate: 400.0,
                quality_dist: QualityDist::Uniform { lo: 0.05, hi: 0.95 },
                forget_rate: 0.0,
                dt: 0.05,
                seed,
                ..Default::default()
            },
        }
    }

    /// Burn-in time before the first snapshot, so the corpus holds pages
    /// at every life stage when measurement starts.
    pub fn burn_in(self) -> f64 {
        match self {
            Scale::Small => 12.0,
            Scale::Paper => 16.0,
        }
    }

    /// The Equation 1 constant calibrated to this scenario's time units
    /// and growth rates, exactly as the paper calibrated `C = 0.1` to its
    /// own data ("the value 0.1 showed the best result out of all values
    /// that we tested"). See the ABL-C sweep for the sensitivity curve.
    pub fn calibrated_c(self) -> f64 {
        1.0
    }

    /// The paper's four capture times (Figure 4: months 0, 1, 2 and 6
    /// after the burn-in); the last is every experiment's held-out future.
    pub fn paper_times(self) -> Vec<f64> {
        SnapshotSchedule::paper_timeline(self.burn_in()).times
    }

    /// The study of `config` at this scale, run to its held-out future.
    pub fn study(self, config: SimConfig) -> &'static Study {
        Study::shared(config, self.paper_times()[3])
    }
}

/// One simulated web, run once to its end time and crawled on demand.
#[derive(Debug)]
pub struct Study {
    world: World,
    /// Every crawl taken so far.
    crawls: Mutex<Vec<(Crawler, f64, Snapshot)>>,
}

impl Study {
    /// The process's study of `config` run to `end`. The first request
    /// simulates it; every later one with an equal config and end gets
    /// the same study, which lives until the process exits.
    pub fn shared(config: SimConfig, end: f64) -> &'static Study {
        type Cell = &'static OnceLock<Study>;
        static STUDIES: Mutex<Vec<(SimConfig, f64, Cell)>> = Mutex::new(Vec::new());
        let mut studies = STUDIES.lock().expect("study registry poisoned");
        let found = studies
            .iter()
            .position(|(c, e, _)| *c == config && *e == end);
        let i = found.unwrap_or_else(|| {
            studies.push((config, end, Box::leak(Box::default())));
            studies.len() - 1
        });
        let cell = studies[i].2;
        // simulated outside the registry lock, so other configs proceed
        drop(studies);
        cell.get_or_init(|| {
            let mut world = World::bootstrap(config).expect("bootstrap");
            world.run_until(end);
            Study {
                world,
                crawls: Mutex::default(),
            }
        })
    }

    /// The simulated world, at the study's end time.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// `crawler`'s captures at `times` (ascending, none after the end).
    pub fn series(&self, crawler: &Crawler, times: &[f64]) -> SnapshotSeries {
        let mut crawls = self.crawls.lock().expect("crawl cache poisoned");
        let mut series = SnapshotSeries::new();
        for &t in times {
            let found = crawls.iter().position(|(c, u, _)| c == crawler && *u == t);
            let i = found.unwrap_or_else(|| {
                crawls.push((*crawler, t, crawler.crawl(&self.world, t).expect("crawl")));
                crawls.len() - 1
            });
            series.push(crawls[i].2.clone()).expect("ascending times");
        }
        series
    }
}

/// The paper's pipeline, Eq. 1 at constant `c`, over `series`.
pub fn paper_report(series: &SnapshotSeries, c: f64) -> PipelineReport {
    let config = PipelineConfig {
        c,
        ..Default::default()
    };
    run_pipeline(series, &config).expect("pipeline")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_study_produces_four_snapshots() {
        let study = Scale::Small.study(Scale::Small.sim_config(3));
        let series = study.series(&Crawler::default(), &Scale::Small.paper_times());
        assert_eq!(series.len(), 4);
        assert!(study.world().num_pages() > 800);
        let common = series.common_pages();
        assert!(!common.is_empty());
        // first snapshot at burn-in time
        assert_eq!(series.times()[0], 12.0);
        assert_eq!(series.times()[3], 18.0);
    }

    #[test]
    fn scales_are_ordered() {
        let s = Scale::Small.sim_config(1);
        let p = Scale::Paper.sim_config(1);
        assert!(p.num_users > s.num_users);
        assert!(p.num_sites > s.num_sites);
        assert_eq!(p.num_sites, 154);
    }

    #[test]
    fn equal_configs_share_one_study_and_unequal_ones_do_not() {
        let config = SimConfig {
            num_users: 60,
            num_sites: 2,
            page_birth_rate: 5.0,
            seed: 11,
            ..Default::default()
        };
        let study = Study::shared(config, 1.0);
        assert!(std::ptr::eq(study, Study::shared(config, 1.0)));
        let other_seed = SimConfig { seed: 12, ..config };
        assert!(!std::ptr::eq(study, Study::shared(other_seed, 1.0)));
        assert!(!std::ptr::eq(study, Study::shared(config, 2.0)));
        // one crawl per (crawler, time): a repeat reads the kept capture
        let first = study.series(&Crawler::default(), &[0.5, 1.0]);
        let again = study.series(&Crawler::default(), &[0.5, 1.0]);
        let prints = |s: &SnapshotSeries| -> Vec<u64> {
            s.snapshots().iter().map(Snapshot::fingerprint).collect()
        };
        assert_eq!(prints(&first), prints(&again));
        assert_eq!(study.crawls.lock().unwrap().len(), 2);
    }
}
