/// SplitMix64: a tiny, high-quality, seedable PRNG (Steele, Lea & Flood,
/// "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014).
///
/// Used everywhere determinism matters: a simulated figure must produce
/// identical results for identical seeds.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, bound)`. `bound` must be positive.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Forks an independent generator (for per-actor streams).
    pub fn fork(&mut self) -> Self {
        Self::new(self.next_u64())
    }

    /// An exponentially distributed value with the given mean.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.gen_f64(); // (0, 1]
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn known_reference_values() {
        // Reference sequence for seed 0 (matches the published algorithm).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SplitMix64::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn uniformity_rough_check() {
        let mut rng = SplitMix64::new(1);
        let mut buckets = [0usize; 10];
        let samples = 100_000;
        for _ in 0..samples {
            buckets[rng.gen_range(10) as usize] += 1;
        }
        let expected = samples / 10;
        for count in buckets {
            assert!((count as i64 - expected as i64).abs() < expected as i64 / 10);
        }
    }

    #[test]
    fn exp_mean_rough_check() {
        let mut rng = SplitMix64::new(5);
        let mean = 40.0;
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen_exp(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < mean * 0.05, "observed mean {observed}");
    }
}
