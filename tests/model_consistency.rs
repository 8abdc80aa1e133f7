//! Cross-crate consistency of the user-visitation model: the closed
//! forms (qrank-model), numerical integration (qrank-model::ode), and
//! the stochastic agent simulation (qrank-sim) must tell the same story.

use qrank::model::forgetting::ForgettingModel;
use qrank::model::ode::closed_form_deviation;
use qrank::model::popularity;
use qrank::model::ModelParams;
use qrank::sim::montecarlo::{average_trajectories, simulate_single_page};
use qrank::sim::{QualityDist, SimConfig, World};

#[test]
fn closed_form_solves_the_ode_for_paper_parameters() {
    for p in [ModelParams::figure1(), ModelParams::figure2()] {
        let dev = closed_form_deviation(&p, 100.0, 20_000);
        assert!(dev < 1e-7, "deviation {dev}");
    }
}

#[test]
fn monte_carlo_single_page_matches_theorem_1() {
    let params = ModelParams::new(0.5, 30_000.0, 60_000.0, 5e-4).unwrap();
    let runs: Vec<_> = (0..18)
        .map(|s| simulate_single_page(&params, 0.05, 10.0, 500 + s))
        .collect();
    let avg = average_trajectories(&runs);
    for &(t, mc) in avg.iter().step_by(40) {
        let cf = popularity::popularity(&params, t);
        assert!((mc - cf).abs() < 0.04, "t={t}: MC {mc} vs closed form {cf}");
    }
}

#[test]
fn full_world_pages_follow_the_logistic_curve() {
    // Track a site root's popularity in the full agent world and compare
    // with the closed form using the same parameters.
    let quality = 0.6;
    let n = 2_000.0;
    let params = ModelParams::new(quality, n, 2.0 * n, 1.0 / n).unwrap();

    let cfg = SimConfig {
        num_users: 2_000,
        num_sites: 2,
        visit_ratio: 2.0,
        page_birth_rate: 0.0, // frozen corpus: pure popularity dynamics
        quality_dist: QualityDist::Fixed(quality),
        dt: 0.05,
        seed: 77,
        ..Default::default()
    };
    let dt = cfg.dt;
    let mut world = World::bootstrap(cfg).expect("bootstrap");
    let root = world.site_roots()[0];

    // A page starting from a single like is a branching process: its
    // trajectory is the logistic curve of Theorem 1 with a *random time
    // shift* (take-off luck), so compare shapes after aligning the two
    // curves at their half-saturation crossings.
    let mut samples: Vec<(f64, f64)> = vec![(0.0, world.popularity(root))];
    while world.time() < 30.0 {
        world.run_until(world.time() + 0.5 * dt);
        samples.push((world.time(), world.popularity(root)));
    }
    let interp = |t: f64, pts: &[(f64, f64)]| -> f64 {
        let i = pts
            .partition_point(|&(pt, _)| pt < t)
            .min(pts.len() - 1)
            .max(1);
        let ((t0, p0), (t1, p1)) = (pts[i - 1], pts[i]);
        if t1 > t0 {
            p0 + (p1 - p0) * (t - t0) / (t1 - t0)
        } else {
            p1
        }
    };
    let crossing = |pts: &[(f64, f64)], level: f64| -> f64 {
        let i = pts
            .iter()
            .position(|&(_, p)| p >= level)
            .expect("curve must reach Q/2");
        let ((t0, p0), (t1, p1)) = (pts[i.saturating_sub(1)], pts[i]);
        if p1 > p0 {
            t0 + (t1 - t0) * (level - p0) / (p1 - p0)
        } else {
            t1
        }
    };
    let model: Vec<(f64, f64)> = (0..=600)
        .map(|k| {
            let t = k as f64 * 0.05;
            (t, popularity::popularity(&params, t))
        })
        .collect();
    let shift = crossing(&samples, quality / 2.0) - crossing(&model, quality / 2.0);
    assert!(
        shift.abs() < 8.0,
        "take-off shift {shift} implausibly large"
    );

    let mut max_err: f64 = 0.0;
    for step in 1..=12 {
        let t = step as f64;
        let sim_pop = interp(t + shift, &samples);
        let model_pop = popularity::popularity(&params, t);
        max_err = max_err.max((sim_pop - model_pop).abs());
    }
    // aligned single trajectory with n=2000: generous but meaningful
    assert!(max_err < 0.12, "world deviates from Theorem 1 by {max_err}");
    // and it must saturate near the quality (Corollary 1)
    let saturation = samples.last().unwrap().1;
    assert!(
        (saturation - quality).abs() < 0.08,
        "saturation at {saturation} vs quality {quality}"
    );
}

#[test]
fn theorem_2_discretized_recovers_quality_from_sim_popularity() {
    // The estimator identity Q = (n/r)(dP/dt)/P + P, applied to the
    // simulated popularity of a young page with finite differences.
    let quality = 0.7;
    let cfg = SimConfig {
        num_users: 5_000,
        num_sites: 2,
        visit_ratio: 1.0,
        page_birth_rate: 0.0,
        quality_dist: QualityDist::Fixed(quality),
        dt: 0.05,
        seed: 99,
        ..Default::default()
    };
    let mut world = World::bootstrap(cfg).expect("bootstrap");
    let root = world.site_roots()[0];
    // sample popularity in mid-expansion
    let (t1, t2) = (4.0, 6.0);
    world.run_until(t1);
    let p1 = world.popularity(root);
    world.run_until(t2);
    let p2 = world.popularity(root);
    assert!(p2 > p1, "page should be growing");
    let p_mid = (p1 + p2) / 2.0;
    let dpdt = (p2 - p1) / (t2 - t1);
    // n/r = 1/visit_ratio = 1.0
    let q_est = dpdt / p_mid + p_mid;
    assert!(
        (q_est - quality).abs() < 0.25,
        "discretized Theorem 2 gives {q_est}, want ~{quality}"
    );
}

#[test]
fn forgetting_world_saturates_at_the_effective_quality() {
    // Users forget pages at rate phi, so the analytic model saturates at
    // Q_eff = Q - phi*n/r = 0.6 - 0.3/1.5 = 0.4, not at Q. The agent
    // world with the same parameters (no births) must follow it there.
    let (quality, forget_rate, visit_ratio, users) = (0.6, 0.3, 1.5, 3_000);
    let n = users as f64;
    let params = ModelParams::new(quality, n, visit_ratio * n, 1.0 / n).unwrap();
    let model = ForgettingModel::new(params, forget_rate).unwrap();
    let q_eff = model.effective_quality();
    assert!((q_eff - 0.4).abs() < 1e-12, "Q_eff {q_eff}");

    let cfg = SimConfig {
        num_users: users,
        num_sites: 4,
        visit_ratio,
        page_birth_rate: 0.0,
        quality_dist: QualityDist::Fixed(quality),
        forget_rate,
        dt: 0.05,
        seed: 4242,
        ..Default::default()
    };
    let mut world = World::bootstrap(cfg).expect("bootstrap");
    let root = world.site_roots()[0];
    for step in 0..=10 {
        world.run_until(step as f64 * 2.0);
        let p = world.popularity(root);
        assert!(
            p < quality - 0.1,
            "popularity {p} at t = {} climbs towards Q = {quality}, not Q_eff = {q_eff}",
            world.time()
        );
    }
    let saturation = world.popularity(root);
    assert!(
        (saturation - q_eff).abs() < 0.05,
        "saturation {saturation} vs Q_eff {q_eff}"
    );
}
