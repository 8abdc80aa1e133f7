//! Sampling noise: the random draws the simulator is made of.
//!
//! The paper's discussion section flags **statistical noise** as a real
//! concern: "when we are measuring the rare event of a page with low
//! popularity receiving a new link, there is the potential that noise
//! could cause such a page to be promoted prematurely." In `qrank-sim`
//! that noise is not added to an observation afterwards; it comes from
//! the draws themselves. The number of users a page's visits make aware
//! of it is a [`binomial`] draw, whose relative spread scales like
//! `1/√(nP)`, so low-popularity pages are the noisiest, exactly as the
//! paper warns. [`standard_normal`] feeds the simulator's gamma and
//! large-mean Poisson draws.

use rand::Rng;

/// Draw a standard normal via Box–Muller (keeps `rand` as the only
/// dependency; `rand_distr` is not in the sanctioned set).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random();
        if u1 <= f64::MIN_POSITIVE {
            continue; // avoid ln(0)
        }
        let u2: f64 = rng.random();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Draw `Binomial(n, p)` exactly for small `n·p` (inversion) and via a
/// normal approximation for large `n·p` where exact sampling would be
/// slow and the approximation error is far below measurement relevance.
pub fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    if p == 0.0 || n == 0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    if mean < 30.0 && n as f64 * (1.0 - p) < 1e9 {
        // Inversion by sequential CDF walk: O(mean) expected.
        let q = 1.0 - p;
        let s = p / q;
        let a = (n + 1) as f64 * s;
        let mut r = q.powf(n as f64);
        if r <= 0.0 {
            // extreme underflow; fall through to normal approximation
        } else {
            let u: f64 = rng.random();
            let mut u = u;
            let mut x = 0u64;
            while u > r {
                u -= r;
                x += 1;
                if x > n {
                    return n;
                }
                r *= a / x as f64 - s;
            }
            return x;
        }
    }
    // Normal approximation with continuity correction.
    let sd = (n as f64 * p * (1.0 - p)).sqrt();
    let z = standard_normal(rng);
    (mean + sd * z + 0.5).clamp(0.0, n as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(binomial(&mut rng, 100, 1.0), 100);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn binomial_rejects_bad_p() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = binomial(&mut rng, 10, 1.5);
    }

    #[test]
    fn binomial_small_mean_statistics() {
        let mut rng = StdRng::seed_from_u64(4);
        let (n, p) = (1000u64, 0.005);
        let trials = 20_000;
        let sum: u64 = (0..trials).map(|_| binomial(&mut rng, n, p)).sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn binomial_large_mean_statistics() {
        let mut rng = StdRng::seed_from_u64(5);
        let (n, p) = (1_000_000u64, 0.3);
        let trials = 2_000;
        let mean = (0..trials)
            .map(|_| binomial(&mut rng, n, p) as f64)
            .sum::<f64>()
            / trials as f64;
        let expect = 300_000.0;
        assert!((mean - expect).abs() < expect * 0.001, "mean {mean}");
    }

    #[test]
    fn binomial_noise_is_worse_for_unpopular_pages() {
        // The paper's statistical-noise warning, quantified: relative
        // standard deviation shrinks as popularity grows.
        let mut rng = StdRng::seed_from_u64(6);
        let n = 100_000;
        let rel_sd = |p: f64, rng: &mut StdRng| {
            let k = 3000;
            let obs: Vec<f64> = (0..k)
                .map(|_| binomial(rng, n, p) as f64 / n as f64)
                .collect();
            let m = obs.iter().sum::<f64>() / k as f64;
            let v = obs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / k as f64;
            v.sqrt() / p
        };
        let noisy_low = rel_sd(1e-4, &mut rng);
        let noisy_high = rel_sd(1e-1, &mut rng);
        assert!(
            noisy_low > 5.0 * noisy_high,
            "low-pop rel sd {noisy_low} should dwarf high-pop {noisy_high}"
        );
    }
}
