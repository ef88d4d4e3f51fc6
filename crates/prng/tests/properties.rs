//! Property-based tests for the PRNG substrate.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench_prng::{seq, Pcg32, Rng64, SeedableRng64, SplitMix64, Xoshiro256pp};
use proptest::prelude::*;

proptest! {
    /// Bounded draws always land in range, for arbitrary seeds and bounds.
    #[test]
    fn next_below_in_range(seed: u64, bound in 1u64..=u64::MAX) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    /// The same holds for PCG32 (different output function, same contract).
    #[test]
    fn pcg_next_below_in_range(seed: u64, bound in 1u64..=u64::MAX) {
        let mut rng = Pcg32::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    /// Doubles stay in [0, 1) for every generator and seed.
    #[test]
    fn f64_unit_interval(seed: u64) {
        let mut xo = Xoshiro256pp::seed_from_u64(seed);
        let mut sm = SplitMix64::new(seed);
        for _ in 0..64 {
            let a = xo.next_f64();
            let b = sm.next_f64();
            prop_assert!((0.0..1.0).contains(&a));
            prop_assert!((0.0..1.0).contains(&b));
        }
    }

    /// Seeding is a pure function of the seed.
    #[test]
    fn seeding_deterministic(seed: u64) {
        let mut a = Xoshiro256pp::seed_from_u64(seed);
        let mut b = Xoshiro256pp::seed_from_u64(seed);
        prop_assert_eq!(a.next_u64(), b.next_u64());
    }

    /// Shuffling preserves the multiset of elements.
    #[test]
    fn shuffle_is_permutation(seed: u64, mut v in proptest::collection::vec(any::<i32>(), 0..200)) {
        let mut expected = v.clone();
        expected.sort_unstable();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        seq::shuffle(&mut v, &mut rng);
        v.sort_unstable();
        prop_assert_eq!(v, expected);
    }

    /// randperm output is a permutation and inversion round-trips.
    #[test]
    fn randperm_invertible(seed: u64, n in 0u64..300) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let p = seq::random_permutation(n, &mut rng);
        prop_assert!(seq::is_permutation(&p));
        let inv = seq::invert_permutation(&p);
        for i in 0..n as usize {
            prop_assert_eq!(inv[p[i] as usize], i as u64);
        }
    }

    /// Distinct sampling yields sorted distinct in-range values of the
    /// requested size.
    #[test]
    fn sample_distinct_contract(seed: u64, n in 1u64..1000, frac in 0.0f64..=1.0) {
        let k = ((n as f64) * frac) as usize;
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let s = seq::sample_distinct(n, k, &mut rng);
        prop_assert_eq!(s.len(), k);
        prop_assert!(s.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(s.iter().all(|&x| x < n));
    }
}

/// Cross-check our uniform doubles against a different generator family at
/// the distribution level (same mean/variance ballpark): SplitMix64 shares
/// no state-transition code with xoshiro256++, so it is an independent referee.
#[test]
fn distribution_cross_check_with_splitmix() {
    let n = 200_000;
    let mut ours = Xoshiro256pp::seed_from_u64(99);
    let mut theirs = SplitMix64::seed_from_u64(99);
    let (mut m_ours, mut m_theirs, mut v_ours, mut v_theirs) = (0.0, 0.0, 0.0, 0.0);
    for _ in 0..n {
        let a = ours.next_f64();
        let b = theirs.next_f64();
        m_ours += a;
        m_theirs += b;
        v_ours += a * a;
        v_theirs += b * b;
    }
    let n = n as f64;
    let (m_ours, m_theirs) = (m_ours / n, m_theirs / n);
    let var_ours = v_ours / n - m_ours * m_ours;
    let var_theirs = v_theirs / n - m_theirs * m_theirs;
    assert!(
        (m_ours - m_theirs).abs() < 0.005,
        "means disagree: {m_ours} vs {m_theirs}"
    );
    assert!(
        (var_ours - var_theirs).abs() < 0.005,
        "variances disagree: {var_ours} vs {var_theirs}"
    );
}
