//! SplitMix64: a tiny, fast, equidistributed 64-bit generator.
//!
//! Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
//! generators" (OOPSLA 2014); constants as popularized by Vigna's
//! `splitmix64.c`. Used throughout the workspace for seeding larger-state
//! generators and for cheap deterministic per-item randomness.

use crate::{Rng64, SeedableRng64};

/// SplitMix64 generator. State is a simple 64-bit counter with a strong
/// output mix, so any seed (including 0) is valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The additive constant ("golden gamma") of the SplitMix64 state walk.
    /// State after `n` draws is `seed + n·GAMMA`, which is what makes O(1)
    /// stream jumps ([`SplitMix64::at`]) possible.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Creates a generator positioned so its next output is the `pos`-th
    /// (0-based) output of `SplitMix64::new(seed)`'s stream — an O(1) jump,
    /// since the state is a plain counter in steps of [`SplitMix64::GAMMA`].
    #[inline]
    pub fn at(seed: u64, pos: u64) -> Self {
        Self {
            state: seed.wrapping_add(pos.wrapping_mul(Self::GAMMA)),
        }
    }

    /// Mixes a single value through the SplitMix64 finalizer.
    ///
    /// This is a high-quality 64-bit hash; handy for stateless "hash of
    /// index" randomness (e.g. deterministic vertex permutations).
    #[inline]
    pub fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(Self::GAMMA);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng64 for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        Self::new(seed)
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "test code: the set checks membership only; its order is never observed"
)]
mod tests {
    use super::*;

    /// Known-answer test against Vigna's reference `splitmix64.c` with
    /// seed 1234567.
    #[test]
    fn reference_vector_seed_1234567() {
        let mut rng = SplitMix64::new(1234567);
        let expect: [u64; 5] = [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for e in expect {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut rng = SplitMix64::new(0);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn mix_matches_stream() {
        // mix() adds the gamma internally, so mix(seed) equals the first
        // output of a generator seeded with `seed`.
        for seed in [0u64, 1, 99, u64::MAX] {
            assert_eq!(SplitMix64::new(seed).next_u64(), SplitMix64::mix(seed));
        }
    }

    #[test]
    fn mix_is_injective_on_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(SplitMix64::mix(i)), "collision at {i}");
        }
    }

    #[test]
    fn copies_diverge_independently() {
        let mut a = SplitMix64::new(5);
        let mut b = a;
        assert_eq!(a.next_u64(), b.next_u64());
        let _ = a.next_u64();
        assert_ne!(a, b);
    }
}
