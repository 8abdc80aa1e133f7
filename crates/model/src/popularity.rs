//! Closed-form popularity evolution (Lemmas 1–3, Theorems 1–2,
//! Corollary 1 of the paper).

use crate::ModelParams;

/// Popularity `P(p,t)` at time `t` (Theorem 1):
///
/// ```text
/// P(p,t) = Q / (1 + (Q/P0 - 1) · e^{-(r/n)·Q·t})
/// ```
///
/// The logistic ("sigmoidal") curve of Figure 1: near-zero through the
/// infant stage, rapid growth through expansion, saturating at `Q`.
pub fn popularity(p: &ModelParams, t: f64) -> f64 {
    let q = p.quality;
    let c = q / p.initial_popularity - 1.0;
    q / (1.0 + c * (-p.visit_ratio() * q * t).exp())
}

/// User awareness `A(p,t) = P(p,t)/Q(p)` (Lemma 1 rearranged).
pub fn awareness(p: &ModelParams, t: f64) -> f64 {
    popularity(p, t) / p.quality
}

/// Time derivative `dP/dt` at `t`, from the Verhulst equation the proof
/// of Theorem 1 derives:
///
/// ```text
/// dP/dt = (r/n) · P · (Q - P)
/// ```
pub fn popularity_derivative(p: &ModelParams, t: f64) -> f64 {
    let pop = popularity(p, t);
    p.visit_ratio() * pop * (p.quality - pop)
}

/// Relative popularity increase `I(p,t) = (n/r)·(dP/dt)/P` (Section 7.2).
///
/// Good estimator of `Q` for young pages, decaying to zero once the page
/// is widely known (Figure 2).
pub fn relative_increase(p: &ModelParams, t: f64) -> f64 {
    // (n/r) · [(r/n)·P·(Q-P)] / P = Q - P, computed in the factored form
    // to mirror the paper's definition while staying numerically exact.
    p.quality - popularity(p, t)
}

/// The model's exact quality estimator `Q(p,t) = I(p,t) + P(p,t)`
/// (Theorem 2, Equation 3). Always equals `Q(p)` under the model; exposed
/// for cross-checking discrete estimators against the continuous ideal.
pub fn quality_estimate(p: &ModelParams, t: f64) -> f64 {
    relative_increase(p, t) + popularity(p, t)
}

/// Limiting popularity as `t → ∞` (Corollary 1): equals `Q(p)`.
pub fn limiting_popularity(p: &ModelParams) -> f64 {
    p.quality
}

/// Inverse of [`popularity`]: the time at which popularity reaches
/// `target`. Returns `None` unless `P0 <= target < Q` (the curve is
/// strictly increasing from `P0` toward the asymptote `Q`, never reaching
/// it; for `target < P0` the crossing would be in the past and we return
/// the negative time).
pub fn time_to_reach(p: &ModelParams, target: f64) -> Option<f64> {
    let q = p.quality;
    if target <= 0.0 || target >= q {
        return None;
    }
    // t = ln[ (Q/P0 - 1) / (Q/target - 1) ] / ((r/n)·Q)
    let c0 = q / p.initial_popularity - 1.0;
    let ct = q / target - 1.0;
    if c0 <= 0.0 {
        // born saturated (P0 == Q): never strictly below Q again
        return None;
    }
    Some((c0 / ct).ln() / (p.visit_ratio() * q))
}

/// Awareness via the visit-history form of Lemma 2,
/// `A(p,t) = 1 − exp(−(r/n)·∫ P dτ)`, evaluated through the paper's
/// Equation 5:
///
/// ```text
/// exp(−(r/n)·∫ P dτ) = 1 / (1 + C·e^{(r/n)·Q·t}),  C = P0/(Q−P0)
/// ```
///
/// The integration constant `C` encodes the boundary condition
/// `A(p,0) = P0/Q` — the `P0·n` users who already know the page at its
/// creation count as visit prehistory. (Integrating literally from `t=0`
/// would instead force `A(0)=0`, contradicting Theorem 1's boundary
/// condition; the paper resolves this the same way, by fixing `C` from
/// `P(p,0)`.) Provided separately from [`awareness`] so tests can verify
/// Lemma 2 is consistent with Lemma 1 + Theorem 1.
pub fn awareness_from_history(p: &ModelParams, t: f64) -> f64 {
    let q = p.quality;
    let p0 = p.initial_popularity;
    if (q - p0).abs() < f64::EPSILON * q {
        // Saturated from birth: every (relevant) user is already aware.
        return 1.0;
    }
    let c = p0 / (q - p0);
    let unaware = 1.0 / (1.0 + c * (p.visit_ratio() * q * t).exp());
    1.0 - unaware
}

/// Sample the popularity curve at `steps + 1` evenly spaced points over
/// `[0, t_max]`, returning `(t, P(t))` pairs — the series plotted in
/// Figure 1.
pub fn popularity_series(p: &ModelParams, t_max: f64, steps: usize) -> Vec<(f64, f64)> {
    series(p, t_max, steps, popularity)
}

/// Sample `I(p,t) + P(p,t)` — Figure 3's (flat) line.
pub fn quality_estimate_series(p: &ModelParams, t_max: f64, steps: usize) -> Vec<(f64, f64)> {
    series(p, t_max, steps, quality_estimate)
}

fn series(
    p: &ModelParams,
    t_max: f64,
    steps: usize,
    f: fn(&ModelParams, f64) -> f64,
) -> Vec<(f64, f64)> {
    assert!(steps >= 1, "need at least one step");
    assert!(t_max >= 0.0, "t_max must be non-negative");
    (0..=steps)
        .map(|i| {
            let t = t_max * i as f64 / steps as f64;
            (t, f(p, t))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    #[test]
    fn popularity_starts_at_p0() {
        let p = ModelParams::figure1();
        assert!((popularity(&p, 0.0) - p.initial_popularity).abs() < 1e-20);
    }

    #[test]
    fn popularity_converges_to_quality() {
        // Corollary 1
        let p = ModelParams::figure1();
        assert!((popularity(&p, 1e4) - p.quality).abs() < 1e-12);
        assert_eq!(limiting_popularity(&p), 0.8);
    }

    #[test]
    fn popularity_is_monotone_increasing() {
        let p = ModelParams::figure1();
        let series = popularity_series(&p, 60.0, 600);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1, "popularity decreased at t={}", w[1].0);
        }
    }

    #[test]
    fn popularity_never_exceeds_quality() {
        let p = ModelParams::figure2();
        for i in 0..1000 {
            let t = i as f64 * 0.5;
            let pop = popularity(&p, t);
            assert!(pop > 0.0 && pop <= p.quality + TOL);
        }
    }

    #[test]
    fn figure1_shape_matches_paper() {
        // The paper's Figure 1 narrative: "In the first infant stage
        // (between t = 0 and t = 15) the page is barely noticed ...
        // At some point (t = 15) the page enters the second expansion
        // stage (t = 15 and 30) ... In the third maturity stage the
        // popularity stabilizes" (at 0.8).
        let p = ModelParams::figure1();
        assert!(
            popularity(&p, 10.0) < 0.05,
            "infant stage should be near zero"
        );
        let mid = popularity(&p, 23.0);
        assert!(
            mid > 0.1 && mid < 0.75,
            "expansion stage should be midway, got {mid}"
        );
        assert!(
            popularity(&p, 40.0) > 0.75,
            "maturity stage should approach 0.8"
        );
    }

    #[test]
    fn theorem2_identity_everywhere() {
        for params in [ModelParams::figure1(), ModelParams::figure2()] {
            for i in 0..=300 {
                let t = i as f64 * 0.5;
                let q = quality_estimate(&params, t);
                assert!(
                    (q - params.quality).abs() < TOL,
                    "Q = I + P violated at t={t}: {q} vs {}",
                    params.quality
                );
            }
        }
    }

    #[test]
    fn lemma1_p_equals_a_times_q() {
        let p = ModelParams::figure2();
        for t in [0.0, 10.0, 50.0, 120.0] {
            assert!((popularity(&p, t) - awareness(&p, t) * p.quality).abs() < TOL);
        }
    }

    #[test]
    fn lemma2_history_integral_matches_lemma1_awareness() {
        let p = ModelParams::figure1();
        for t in [0.0, 5.0, 15.0, 25.0, 40.0, 80.0] {
            let a1 = awareness(&p, t);
            let a2 = awareness_from_history(&p, t);
            assert!(
                (a1 - a2).abs() < 1e-9,
                "awareness mismatch at t={t}: lemma1={a1} lemma2={a2}"
            );
        }
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let p = ModelParams::figure1();
        let h = 1e-6;
        for t in [1.0, 15.0, 22.0, 35.0] {
            let fd = (popularity(&p, t + h) - popularity(&p, t - h)) / (2.0 * h);
            let an = popularity_derivative(&p, t);
            assert!(
                (fd - an).abs() < 1e-6 * (1.0 + an.abs()),
                "derivative mismatch at t={t}: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn relative_increase_decays_to_zero() {
        // Figure 2: I(p,t) ≈ Q early, then decays as awareness saturates.
        let p = ModelParams::figure2();
        assert!((relative_increase(&p, 1.0) - p.quality).abs() < 0.01);
        assert!(relative_increase(&p, 1e4) < 1e-10);
    }

    #[test]
    fn figure2_crossover_narrative() {
        // "I(p,t) ≈ 0.2 = Q(p)" for t < 70; "I(p,t) gets much smaller
        // than Q(p) for t > 120"; P poor early, good late.
        let p = ModelParams::figure2();
        assert!((relative_increase(&p, 50.0) - 0.2).abs() < 0.02);
        assert!(relative_increase(&p, 150.0) < 0.05);
        assert!(popularity(&p, 50.0) < 0.05);
        assert!((popularity(&p, 150.0) - 0.2).abs() < 0.05);
    }

    #[test]
    fn time_to_reach_inverts_popularity() {
        let p = ModelParams::figure1();
        for target in [1e-6, 0.01, 0.4, 0.79] {
            let t = time_to_reach(&p, target).unwrap();
            assert!((popularity(&p, t) - target).abs() < 1e-9, "target {target}");
        }
    }

    #[test]
    fn time_to_reach_rejects_unreachable_targets() {
        let p = ModelParams::figure1();
        assert!(time_to_reach(&p, 0.8).is_none()); // asymptote
        assert!(time_to_reach(&p, 0.9).is_none()); // above Q
        assert!(time_to_reach(&p, 0.0).is_none());
        assert!(time_to_reach(&p, -0.5).is_none());
        // below P0: crossing lies in the past
        let t = time_to_reach(&p, 1e-9).unwrap();
        assert!(t < 0.0);
    }

    #[test]
    fn time_to_reach_saturated_page() {
        let p = ModelParams::new(0.5, 1e6, 1e6, 0.5).unwrap();
        assert!(time_to_reach(&p, 0.3).is_none());
    }

    #[test]
    fn series_sampling() {
        let p = ModelParams::figure1();
        let s = popularity_series(&p, 40.0, 4);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].0, 0.0);
        assert_eq!(s[4].0, 40.0);
        assert!((s[2].0 - 20.0).abs() < 1e-12);
        let qs = quality_estimate_series(&p, 40.0, 4);
        assert!(qs.iter().all(|&(_, v)| (v - 0.8).abs() < TOL));
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn series_rejects_zero_steps() {
        let _ = popularity_series(&ModelParams::figure1(), 1.0, 0);
    }

    #[test]
    fn saturated_page_is_constant() {
        let p = ModelParams::new(0.3, 1e6, 1e6, 0.3).unwrap();
        for t in [0.0, 10.0, 100.0] {
            assert!((popularity(&p, t) - 0.3).abs() < 1e-12);
            assert!(relative_increase(&p, t).abs() < 1e-12);
        }
        assert!((awareness_from_history(&p, 50.0) - 1.0).abs() < 1e-12);
    }
}
