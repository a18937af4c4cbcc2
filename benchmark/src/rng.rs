//! The harness's own seeded generator, shuffle and Zipf sampler.
//!
//! Kept apart from the vendored `rand` subset on purpose: the inputs of a
//! workload must stay the same for a seed even if a later change swaps
//! the generator the crates under test use.

/// SplitMix64: small, fast, and good enough to pick benchmark inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the harness uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Fisher–Yates shuffle, deterministic in `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Draws ranks `0..n` with probability proportional to `1 / (rank+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|k| {
                total += 1.0 / (k as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cumulative.last().expect("Zipf over an empty set");
        let u = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_permutation_and_repeats_per_seed() {
        let base: Vec<u32> = (0..200).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        let mut c = base.clone();
        shuffle(&mut a, &mut SplitMix64::new(7));
        shuffle(&mut b, &mut SplitMix64::new(7));
        shuffle(&mut c, &mut SplitMix64::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, base);
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, base);
    }

    #[test]
    fn zipf_repeats_per_seed_and_prefers_low_ranks() {
        let z = Zipf::new(432, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        assert_ne!(a, draw(4));
        assert!(a.iter().all(|&r| r < 432));
        let count = |r| a.iter().filter(|&&x| x == r).count() as f64;
        // P(rank 0) / P(rank 9) = 10 under s = 1.
        let ratio = count(0) / count(9);
        assert!((7.0..14.0).contains(&ratio), "ratio {ratio}");
    }
}
