//! Popularity-trajectory recording.
//!
//! The paper's future-work "traffic data" application and the
//! cross-validation experiments both need per-page popularity time
//! series sampled from a running [`World`]. [`Tracer`] drives the world
//! through a list of sample times and collects aligned trajectories,
//! ready for `qrank-core` estimators or `qrank-model` fitting.

use crate::World;

/// Aligned per-page popularity time series.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Sample times, ascending.
    pub times: Vec<f64>,
    /// `values[page][k]` = popularity of `page` at `times[k]`. Pages born
    /// after a sample time show popularity 0 there.
    pub values: Vec<Vec<f64>>,
    /// Ground-truth quality per page (for evaluation).
    pub qualities: Vec<f64>,
    /// Creation time per page.
    pub created_at: Vec<f64>,
}

impl Trace {
    /// Number of pages traced.
    pub fn num_pages(&self) -> usize {
        self.values.len()
    }

    /// Restrict to pages born before the first sample time with a
    /// strictly positive first sample (the cohort estimators can work
    /// with). Returns `(trace, original page indices)`.
    pub fn observable(&self) -> (Trace, Vec<usize>) {
        let keep: Vec<usize> = (0..self.num_pages())
            .filter(|&p| self.created_at[p] <= self.times[0] && self.values[p][0] > 0.0)
            .collect();
        let trace = Trace {
            times: self.times.clone(),
            values: keep.iter().map(|&p| self.values[p].clone()).collect(),
            qualities: keep.iter().map(|&p| self.qualities[p]).collect(),
            created_at: keep.iter().map(|&p| self.created_at[p]).collect(),
        };
        (trace, keep)
    }
}

/// Records popularity trajectories from a running world.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tracer;

impl Tracer {
    /// Advance `world` through `times` (ascending, all at or after the
    /// current clock) and record every page's popularity at each time.
    ///
    /// # Panics
    /// Panics if `times` is empty, unsorted, or starts in the past.
    pub fn record(&self, world: &mut World, times: &[f64]) -> Trace {
        assert!(!times.is_empty(), "need at least one sample time");
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "sample times must be strictly increasing"
        );
        assert!(
            times[0] >= world.time(),
            "first sample {} is before the world clock {}",
            times[0],
            world.time()
        );
        let mut samples: Vec<Vec<f64>> = Vec::with_capacity(times.len());
        for &t in times {
            world.run_until(t);
            samples.push(world.popularities());
        }
        let n = world.num_pages();
        let values: Vec<Vec<f64>> = (0..n)
            .map(|p| {
                samples
                    .iter()
                    .map(|s| s.get(p).copied().unwrap_or(0.0))
                    .collect()
            })
            .collect();
        Trace {
            times: times.to_vec(),
            values,
            qualities: world.qualities(),
            created_at: (0..n as u32).map(|p| world.page(p).created_at).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QualityDist, SimConfig};

    fn world() -> World {
        World::bootstrap(SimConfig {
            num_users: 300,
            num_sites: 5,
            visit_ratio: 1.5,
            page_birth_rate: 10.0,
            quality_dist: QualityDist::Uniform { lo: 0.1, hi: 0.9 },
            dt: 0.1,
            seed: 77,
            ..Default::default()
        })
        .expect("bootstrap")
    }

    #[test]
    fn records_aligned_series() {
        let mut w = world();
        let trace = Tracer.record(&mut w, &[1.0, 2.0, 3.0]);
        assert_eq!(trace.times, vec![1.0, 2.0, 3.0]);
        assert_eq!(trace.num_pages(), w.num_pages());
        assert_eq!(trace.qualities.len(), trace.num_pages());
        for v in &trace.values {
            assert_eq!(v.len(), 3);
        }
        // popularity is monotone without forgetting
        for v in &trace.values {
            assert!(v.windows(2).all(|w| w[1] >= w[0]));
        }
    }

    #[test]
    fn pages_born_mid_trace_are_zero_before_birth() {
        let mut w = world();
        let trace = Tracer.record(&mut w, &[0.5, 4.0]);
        let late_born: Vec<usize> = (0..trace.num_pages())
            .filter(|&p| trace.created_at[p] > 0.5)
            .collect();
        assert!(
            !late_born.is_empty(),
            "pages should be born during the trace"
        );
        for p in late_born {
            assert_eq!(
                trace.values[p][0], 0.0,
                "page {p} born at {}",
                trace.created_at[p]
            );
        }
    }

    #[test]
    fn observable_filters_unborn_and_unliked() {
        let mut w = world();
        let trace = Tracer.record(&mut w, &[1.0, 3.0]);
        let (obs, keep) = trace.observable();
        assert_eq!(obs.num_pages(), keep.len());
        assert!(obs.num_pages() > 0);
        for p in 0..obs.num_pages() {
            assert!(obs.values[p][0] > 0.0);
            assert!(obs.created_at[p] <= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_times() {
        let mut w = world();
        let _ = Tracer.record(&mut w, &[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "before the world clock")]
    fn rejects_past_times() {
        let mut w = world();
        w.run_until(5.0);
        let _ = Tracer.record(&mut w, &[1.0]);
    }
}
