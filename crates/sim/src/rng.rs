//! Counter-based RNG streams for thread-count-independent simulation.
//!
//! The visit phase of [`crate::World::step`] used to pull every random
//! draw from one sequential generator, which welds the whole phase into
//! a single serial chain: processing pages in any other order (or on
//! several threads) would consume the stream differently and change the
//! history. A counter-based generator breaks the chain. Each `(seed,
//! step, page)` triple names an *independent* stream whose draws are a
//! pure function of the key and a position counter — so page 7 of step
//! 12 sees the same randomness whether it is processed first, last, or
//! on another thread, and the simulated history is bit-identical for
//! every thread count.
//!
//! The construction is SplitMix64 over `key + counter·γ` (γ the golden
//! -ratio increment): exactly the SplitMix64 sequence started at an
//! arbitrary point, a generator with solid statistical quality for its
//! cost. Keys are derived by chaining the same finalizer over the seed,
//! step, and page so that nearby triples land in unrelated streams. The
//! `(seed, step)` part of the chain is the same for every page of a
//! step, so the visit phase takes it once ([`StepStreams`]) and pays one
//! mix a page.

use rand::RngCore;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 finalizer: a strong 64-bit mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One independent random stream, addressed by key — see the module
/// docs. Implements [`rand::RngCore`], so every sampler in the
/// workspace (Poisson, binomial, quality distributions) works on it
/// unchanged.
#[derive(Debug, Clone)]
pub struct StreamRng {
    key: u64,
    counter: u64,
}

/// The streams of one `(seed, step)`: the shared prefix of their keys.
#[derive(Debug, Clone, Copy)]
pub struct StepStreams(u64);

impl StepStreams {
    /// The family of streams for `(seed, step)`.
    pub fn new(seed: u64, step: u64) -> StepStreams {
        StepStreams(mix(mix(seed ^ GOLDEN).wrapping_add(step)))
    }

    /// The stream for `page` within this step.
    #[inline]
    pub fn for_page(self, page: u64) -> StreamRng {
        StreamRng {
            key: mix(self.0.wrapping_add(page)),
            counter: 0,
        }
    }
}

impl RngCore for StreamRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.counter = self.counter.wrapping_add(1);
        mix(self.key.wrapping_add(self.counter.wrapping_mul(GOLDEN)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn stream(seed: u64, step: u64, page: u64) -> StreamRng {
        StepStreams::new(seed, step).for_page(page)
    }

    #[test]
    fn streams_are_deterministic_and_independent_of_draw_order() {
        let a: Vec<u64> = {
            let mut r = stream(1, 2, 3);
            (0..10).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = stream(1, 2, 3);
            (0..10).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_keys_give_different_streams() {
        let base = stream(1, 2, 3).next_u64();
        assert_ne!(base, stream(2, 2, 3).next_u64());
        assert_ne!(base, stream(1, 3, 3).next_u64());
        assert_ne!(base, stream(1, 2, 4).next_u64());
    }

    #[test]
    fn uniform_f64_has_sane_moments() {
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        let n = 50_000;
        // across many streams, one draw each — the access pattern the
        // simulation actually uses
        for page in 0..n as u64 {
            let mut r = stream(7, 11, page);
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.005, "var {var}");
    }

    #[test]
    fn low_bits_are_unbiased() {
        let mut ones = 0u32;
        for page in 0..10_000u64 {
            let mut r = stream(3, 5, page);
            ones += (r.next_u64() & 1) as u32;
        }
        assert!((4_700..5_300).contains(&ones), "ones {ones}");
    }
}
