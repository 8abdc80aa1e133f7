//! SplitMix64: the benchmark's only source of randomness.
//!
//! Owned here (not `vendor/rand`, not `qrank_sim::rng`) so that an edit
//! to either cannot change a generated input and thereby move a number.

/// Sequential SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated per `stream` label so the web,
    /// the deltas and each connection's requests never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). Multiply-shift; the bias for the
    /// `n` used here (< 2^32) is below 2^-32.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `(0, 1]`, 53 bits.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() <= p
    }

    /// Pareto(`alpha`, `min`) truncated at `cap`: the heavy-tailed delta
    /// size (web growth rates span orders of magnitude).
    pub fn pareto(&mut self, alpha: f64, min: f64, cap: f64) -> f64 {
        (min / self.unit().powf(1.0 / alpha)).min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42, 7);
        let mut b = SplitMix64::new(42, 7);
        let mut c = SplitMix64::new(42, 8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn distributions_stay_in_range() {
        let mut r = SplitMix64::new(1, 0);
        for _ in 0..10_000 {
            assert!(r.below(10) < 10);
            let u = r.unit();
            assert!(u > 0.0 && u <= 1.0);
            let p = r.pareto(1.2, 50.0, 20_000.0);
            assert!((50.0..=20_000.0).contains(&p));
        }
    }
}
