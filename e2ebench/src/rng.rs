//! Seeded input generation: SplitMix64, so the same `--seed` always gives
//! the same statements on every platform.

/// SplitMix64 generator.
pub struct Rng(u64);

impl Rng {
    /// Generator for one workload and seed; the salt keeps workloads that
    /// share a seed from sharing a stream.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next() % span) as i64
    }

    /// Fair coin.
    pub fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_bounds_hold() {
        let (mut a, mut b) = (Rng::new(7, 1), Rng::new(7, 1));
        for _ in 0..1000 {
            let v = a.range(-3, 3);
            assert_eq!(v, b.range(-3, 3));
            assert!((-3..=3).contains(&v));
        }
        assert_ne!(Rng::new(7, 1).next(), Rng::new(7, 2).next());
    }
}
