//! Numerical integration of the model's differential equation.
//!
//! The proof of Theorem 1 reduces the user-visitation model to the
//! Verhulst (logistic growth) equation
//!
//! ```text
//! dP/dt = (r/n) · P · (Q − P)
//! ```
//!
//! This module provides a generic fixed-step RK4 integrator and a
//! convenience wrapper that integrates the Verhulst equation directly.
//! Its purpose is *cross-validation*: the closed form in
//! [`crate::popularity`] and the RK4 trajectory must agree, and both must
//! agree with the Monte-Carlo agent simulation in `qrank-sim`. Three
//! independent derivations agreeing is the strongest correctness evidence
//! available for the model layer.

use crate::ModelParams;

/// One fixed-step classical Runge–Kutta (RK4) step for `dy/dt = f(t, y)`.
fn rk4_step<F: Fn(f64, f64) -> f64>(f: &F, t: f64, y: f64, h: f64) -> f64 {
    let k1 = f(t, y);
    let k2 = f(t + h / 2.0, y + h / 2.0 * k1);
    let k3 = f(t + h / 2.0, y + h / 2.0 * k2);
    let k4 = f(t + h, y + h * k3);
    y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
}

/// Integrate `dy/dt = f(t, y)` from `(t0, y0)` to `t1` with `steps` RK4
/// steps, returning the full trajectory including both endpoints.
///
/// # Panics
/// Panics if `steps == 0` or `t1 < t0`.
pub fn integrate<F: Fn(f64, f64) -> f64>(
    f: F,
    t0: f64,
    y0: f64,
    t1: f64,
    steps: usize,
) -> Vec<(f64, f64)> {
    assert!(steps >= 1, "need at least one step");
    assert!(t1 >= t0, "integration interval must be forward in time");
    let h = (t1 - t0) / steps as f64;
    let mut out = Vec::with_capacity(steps + 1);
    let mut t = t0;
    let mut y = y0;
    out.push((t, y));
    for _ in 0..steps {
        y = rk4_step(&f, t, y, h);
        t += h;
        out.push((t, y));
    }
    out
}

/// Integrate the model's Verhulst equation numerically over `[0, t_max]`.
pub fn popularity_trajectory(p: &ModelParams, t_max: f64, steps: usize) -> Vec<(f64, f64)> {
    let a = p.visit_ratio();
    let q = p.quality;
    integrate(
        move |_, pop| a * pop * (q - pop),
        0.0,
        p.initial_popularity,
        t_max,
        steps,
    )
}

/// Maximum absolute deviation between the RK4 trajectory and the closed
/// form of Theorem 1 over the same grid. A direct numerical proof that
/// the closed form solves the ODE.
pub fn closed_form_deviation(p: &ModelParams, t_max: f64, steps: usize) -> f64 {
    popularity_trajectory(p, t_max, steps)
        .into_iter()
        .map(|(t, y)| (y - crate::popularity::popularity(p, t)).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rk4_solves_exponential_exactly_enough() {
        // dy/dt = y, y(0) = 1 -> y(1) = e
        let traj = integrate(|_, y| y, 0.0, 1.0, 1.0, 100);
        let (t_end, y_end) = *traj.last().unwrap();
        assert!((t_end - 1.0).abs() < 1e-12);
        assert!((y_end - std::f64::consts::E).abs() < 1e-8, "got {y_end}");
    }

    #[test]
    fn rk4_handles_time_dependent_rhs() {
        // dy/dt = 2t, y(0) = 0 -> y(t) = t^2 (RK4 is exact for cubics)
        let traj = integrate(|t, _| 2.0 * t, 0.0, 0.0, 3.0, 10);
        let (_, y_end) = *traj.last().unwrap();
        assert!((y_end - 9.0).abs() < 1e-12);
    }

    #[test]
    fn trajectory_shape() {
        let p = ModelParams::figure1();
        let traj = popularity_trajectory(&p, 40.0, 400);
        assert_eq!(traj.len(), 401);
        assert_eq!(traj[0], (0.0, 1e-8));
        // monotone increasing toward Q
        for w in traj.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-15);
        }
        assert!(traj.last().unwrap().1 <= p.quality + 1e-9);
    }

    #[test]
    fn rk4_matches_closed_form_figure1() {
        let p = ModelParams::figure1();
        let dev = closed_form_deviation(&p, 40.0, 4000);
        assert!(dev < 1e-8, "closed form deviates from RK4 by {dev}");
    }

    #[test]
    fn rk4_matches_closed_form_figure2() {
        let p = ModelParams::figure2();
        let dev = closed_form_deviation(&p, 150.0, 15000);
        assert!(dev < 1e-8, "closed form deviates from RK4 by {dev}");
    }

    #[test]
    fn rk4_matches_closed_form_across_parameter_grid() {
        for &q in &[0.1, 0.5, 1.0] {
            for &p0_frac in &[1e-6, 0.01, 0.5] {
                let p = ModelParams::new(q, 1e7, 1e7, q * p0_frac).unwrap();
                let dev = closed_form_deviation(&p, 100.0, 10000);
                assert!(dev < 1e-7, "q={q} p0_frac={p0_frac}: deviation {dev}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn integrate_rejects_zero_steps() {
        let _ = integrate(|_, y| y, 0.0, 1.0, 1.0, 0);
    }

    #[test]
    #[should_panic(expected = "forward in time")]
    fn integrate_rejects_backward_interval() {
        let _ = integrate(|_, y| y, 1.0, 1.0, 0.0, 10);
    }
}
