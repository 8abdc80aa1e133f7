//! Quality distributions and discrete samplers.
//!
//! Page quality `Q(p)` is an intrinsic property (Definition 1 of the
//! paper); the simulator draws it at page creation from a configurable
//! distribution. Real page quality is plausibly heavy-tailed-ish on
//! `[0, 1]` — most pages mediocre, a few excellent — which the `Beta`
//! and `Bimodal` variants capture.

use qrank_model::noise::standard_normal;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Distribution of intrinsic page quality on `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QualityDist {
    /// Every page has the same quality.
    Fixed(f64),
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound (> 0).
        lo: f64,
        /// Upper bound (<= 1).
        hi: f64,
    },
    /// Beta(alpha, beta) — flexible unimodal shapes on (0, 1).
    Beta {
        /// First shape parameter (> 0).
        alpha: f64,
        /// Second shape parameter (> 0).
        beta: f64,
    },
    /// Mixture: with probability `p_high`, quality ~ Uniform[0.6, 0.95];
    /// otherwise ~ Uniform[0.02, 0.3]. A crude "gems among the mediocre"
    /// web, useful for testing whether the estimator surfaces young gems.
    Bimodal {
        /// Probability of a high-quality page.
        p_high: f64,
    },
}

impl Default for QualityDist {
    fn default() -> Self {
        QualityDist::Beta {
            alpha: 2.0,
            beta: 5.0,
        }
    }
}

impl QualityDist {
    /// Sample a quality value, clamped into `[1e-6, 1.0]` so every page
    /// satisfies the model's `Q > 0` requirement.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let q = match *self {
            QualityDist::Fixed(q) => q,
            QualityDist::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform bounds inverted: [{lo}, {hi}]");
                lo + (hi - lo) * rng.random::<f64>()
            }
            QualityDist::Beta { alpha, beta } => {
                let x = sample_gamma(rng, alpha);
                let y = sample_gamma(rng, beta);
                if x + y == 0.0 {
                    0.5
                } else {
                    x / (x + y)
                }
            }
            QualityDist::Bimodal { p_high } => {
                if rng.random::<f64>() < p_high {
                    0.6 + 0.35 * rng.random::<f64>()
                } else {
                    0.02 + 0.28 * rng.random::<f64>()
                }
            }
        };
        q.clamp(1e-6, 1.0)
    }
}

/// Sample `Gamma(shape, 1)` via Marsaglia–Tsang (with the standard boost
/// for `shape < 1`).
pub fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive, got {shape}");
    if shape < 1.0 {
        // boost: Gamma(a) = Gamma(a + 1) * U^(1/a)
        let u: f64 = rng.random();
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random();
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Sample `Poisson(lambda)`: Knuth's product method for small `lambda`,
/// normal approximation (rounded, clamped at 0) for large `lambda` where
/// the exact method would take O(lambda) time.
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    sample_poisson_rate(rng, PoissonRate::new(lambda))
}

/// A Poisson rate with the one transcendental its sampler needs, for a
/// caller that draws at the same few rates again and again and keeps
/// them in a table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonRate {
    lambda: f64,
    /// `exp(-lambda)`, the product method's stopping threshold.
    exp_neg_lambda: f64,
}

impl PoissonRate {
    /// The rate `lambda`.
    ///
    /// # Panics
    /// Panics unless `lambda` is finite and `>= 0`.
    pub fn new(lambda: f64) -> PoissonRate {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "lambda must be finite and >= 0, got {lambda}"
        );
        PoissonRate {
            lambda,
            exp_neg_lambda: (-lambda).exp(),
        }
    }
}

/// [`sample_poisson`] at a prepared rate: the same draws, bit for bit.
pub fn sample_poisson_rate<R: Rng + ?Sized>(rng: &mut R, rate: PoissonRate) -> u64 {
    let lambda = rate.lambda;
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = rate.exp_neg_lambda;
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.random::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
    let z = standard_normal(rng);
    (lambda + lambda.sqrt() * z + 0.5).max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn fixed_returns_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = QualityDist::Fixed(0.42);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 0.42);
        }
    }

    #[test]
    fn fixed_is_clamped() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(QualityDist::Fixed(2.0).sample(&mut rng), 1.0);
        assert_eq!(QualityDist::Fixed(0.0).sample(&mut rng), 1e-6);
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = QualityDist::Uniform { lo: 0.2, hi: 0.7 };
        for _ in 0..5000 {
            let q = d.sample(&mut rng);
            assert!((0.2..=0.7).contains(&q));
        }
    }

    #[test]
    fn uniform_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = QualityDist::Uniform { lo: 0.0, hi: 1.0 };
        let samples: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = mean_var(&samples);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.005, "var {var}");
    }

    #[test]
    fn beta_moments() {
        let mut rng = StdRng::seed_from_u64(4);
        let (a, b) = (2.0, 5.0);
        let d = QualityDist::Beta { alpha: a, beta: b };
        let samples: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = mean_var(&samples);
        let expect_mean = a / (a + b);
        let expect_var = a * b / ((a + b) * (a + b) * (a + b + 1.0));
        assert!(
            (mean - expect_mean).abs() < 0.01,
            "mean {mean} vs {expect_mean}"
        );
        assert!(
            (var - expect_var).abs() < 0.005,
            "var {var} vs {expect_var}"
        );
    }

    #[test]
    fn beta_with_shape_below_one() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = QualityDist::Beta {
            alpha: 0.5,
            beta: 0.5,
        };
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, _) = mean_var(&samples);
        assert!((mean - 0.5).abs() < 0.02, "arcsine mean {mean}");
        assert!(samples.iter().all(|&q| (0.0..=1.0).contains(&q)));
    }

    #[test]
    fn bimodal_respects_mixture_weight() {
        let mut rng = StdRng::seed_from_u64(6);
        let d = QualityDist::Bimodal { p_high: 0.2 };
        let samples: Vec<f64> = (0..50_000).map(|_| d.sample(&mut rng)).collect();
        let high = samples.iter().filter(|&&q| q >= 0.5).count() as f64 / samples.len() as f64;
        assert!((high - 0.2).abs() < 0.01, "high fraction {high}");
    }

    #[test]
    fn gamma_mean_and_variance() {
        let mut rng = StdRng::seed_from_u64(7);
        for shape in [0.5, 1.0, 3.5, 10.0] {
            let samples: Vec<f64> = (0..100_000)
                .map(|_| sample_gamma(&mut rng, shape))
                .collect();
            let (mean, var) = mean_var(&samples);
            assert!(
                (mean - shape).abs() < 0.05 * shape.max(1.0),
                "shape {shape} mean {mean}"
            );
            assert!(
                (var - shape).abs() < 0.1 * shape.max(1.0),
                "shape {shape} var {var}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn gamma_rejects_nonpositive_shape() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = sample_gamma(&mut rng, 0.0);
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn poisson_small_lambda_moments() {
        let mut rng = StdRng::seed_from_u64(10);
        let samples: Vec<f64> = (0..100_000)
            .map(|_| sample_poisson(&mut rng, 2.5) as f64)
            .collect();
        let (mean, var) = mean_var(&samples);
        assert!((mean - 2.5).abs() < 0.03, "mean {mean}");
        assert!((var - 2.5).abs() < 0.1, "var {var}");
    }

    #[test]
    fn poisson_large_lambda_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<f64> = (0..50_000)
            .map(|_| sample_poisson(&mut rng, 500.0) as f64)
            .collect();
        let (mean, var) = mean_var(&samples);
        assert!((mean - 500.0).abs() < 1.0, "mean {mean}");
        assert!((var - 500.0).abs() < 20.0, "var {var}");
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn poisson_rejects_negative() {
        let mut rng = StdRng::seed_from_u64(12);
        let _ = sample_poisson(&mut rng, -1.0);
    }
}
