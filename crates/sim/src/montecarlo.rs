//! Single-page Monte-Carlo validation of the user-visitation model.
//!
//! The closed forms of `qrank-model` (Theorem 1 etc.) are derived in a
//! continuum limit. This module simulates *one page* at the level of
//! individual stochastic visits — the third, fully independent derivation
//! of the popularity curve (closed form, RK4, Monte Carlo) — so the
//! cross-validation tests can show all three agree.

use std::collections::HashSet;

use qrank_model::ModelParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dist::sample_poisson;

/// Simulate a single page under the user-visitation model and return its
/// popularity trajectory sampled after every step.
///
/// * visits per step: `Poisson(r · P(t) · dt)` (Proposition 1),
/// * each visit by a uniformly random user (Proposition 2),
/// * a newly-aware user likes the page with probability `Q` (Definition 1).
///
/// `params.num_users` is rounded to an integer population; the initial
/// `initial_popularity · n` users (at least one) like the page from the
/// start.
pub fn simulate_single_page(
    params: &ModelParams,
    dt: f64,
    t_max: f64,
    seed: u64,
) -> Vec<(f64, f64)> {
    assert!(dt > 0.0 && t_max >= 0.0, "need dt > 0 and t_max >= 0");
    let n = params.num_users.round().max(1.0) as u64;
    let r = params.visits_per_unit_time;
    let q = params.quality;
    let mut rng = StdRng::seed_from_u64(seed);

    let mut aware = HashSet::new();
    let mut likes: u64 = 0;
    let initial = ((params.initial_popularity * n as f64).round() as u64).max(1);
    for u in 0..initial.min(n) {
        aware.insert(u as u32);
        likes += 1;
    }

    let steps = (t_max / dt).ceil() as usize;
    let mut out = Vec::with_capacity(steps + 1);
    let mut t = 0.0;
    out.push((t, likes as f64 / n as f64));
    for _ in 0..steps {
        let pop = likes as f64 / n as f64;
        let visits = sample_poisson(&mut rng, r * pop * dt);
        for _ in 0..visits {
            let user = rng.random_range(0..n) as u32;
            if aware.insert(user) && rng.random::<f64>() < q {
                likes += 1;
            }
        }
        t += dt;
        out.push((t, likes as f64 / n as f64));
    }
    out
}

/// Average several Monte-Carlo trajectories pointwise (they share the
/// same time grid).
pub fn average_trajectories(runs: &[Vec<(f64, f64)>]) -> Vec<(f64, f64)> {
    assert!(!runs.is_empty(), "need at least one run");
    let len = runs[0].len();
    assert!(
        runs.iter().all(|r| r.len() == len),
        "all runs must share a time grid"
    );
    (0..len)
        .map(|i| {
            let t = runs[0][i].0;
            let mean = runs.iter().map(|r| r[i].1).sum::<f64>() / runs.len() as f64;
            (t, mean)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_model::popularity::popularity;

    #[test]
    fn monte_carlo_matches_closed_form() {
        // moderate population so the MC noise is small but the test fast
        let params = ModelParams::new(0.6, 20_000.0, 40_000.0, 0.001).unwrap();
        let runs: Vec<_> = (0..24)
            .map(|s| simulate_single_page(&params, 0.05, 8.0, 100 + s))
            .collect();
        let avg = average_trajectories(&runs);
        // compare at several times
        for &(t, mc) in avg.iter().step_by(30) {
            let cf = popularity(&params, t);
            assert!(
                (mc - cf).abs() < 0.05,
                "t={t}: monte-carlo {mc} vs closed form {cf}"
            );
        }
        // end state must be near saturation at Q
        let (t_end, p_end) = *avg.last().unwrap();
        let cf_end = popularity(&params, t_end);
        assert!((p_end - cf_end).abs() < 0.05, "end {p_end} vs {cf_end}");
    }

    #[test]
    fn trajectory_is_monotone_and_bounded() {
        let params = ModelParams::new(0.4, 5_000.0, 20_000.0, 0.001).unwrap();
        let run = simulate_single_page(&params, 0.1, 10.0, 7);
        for w in run.windows(2) {
            assert!(w[1].1 >= w[0].1, "popularity decreased without forgetting");
        }
        assert!(run.iter().all(|&(_, p)| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn zero_horizon_returns_initial_point() {
        let params = ModelParams::new(0.4, 1_000.0, 1_000.0, 0.01).unwrap();
        let run = simulate_single_page(&params, 0.1, 0.0, 7);
        assert_eq!(run.len(), 1);
        assert!((run[0].1 - 0.01).abs() < 1e-3);
    }

    #[test]
    fn deterministic_per_seed() {
        let params = ModelParams::new(0.5, 2_000.0, 4_000.0, 0.005).unwrap();
        let a = simulate_single_page(&params, 0.1, 5.0, 9);
        let b = simulate_single_page(&params, 0.1, 5.0, 9);
        assert_eq!(a, b);
        let c = simulate_single_page(&params, 0.1, 5.0, 10);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "time grid")]
    fn average_rejects_mismatched_grids() {
        let _ = average_trajectories(&[vec![(0.0, 0.1)], vec![(0.0, 0.1), (1.0, 0.2)]]);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn average_rejects_empty() {
        let _ = average_trajectories(&[]);
    }
}
