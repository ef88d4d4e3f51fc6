//! Sequence utilities: shuffles, permutations and sampling.
//!
//! These replace the Matlab `randperm` calls in the paper's kernel-0
//! reference (vertex-label permutation and edge-order shuffle).

use crate::Rng64;

/// Shuffles `data` in place with the Fisher–Yates algorithm.
///
/// Every permutation is equally likely given a uniform generator.
pub fn shuffle<T, R: Rng64>(data: &mut [T], rng: &mut R) {
    for i in (1..data.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        data.swap(i, j);
    }
}

/// Returns a uniformly random permutation of `0..n` (Matlab `randperm(n) - 1`).
pub fn random_permutation<R: Rng64>(n: u64, rng: &mut R) -> Vec<u64> {
    let mut perm: Vec<u64> = (0..n).collect();
    shuffle(&mut perm, rng);
    perm
}

/// Returns `true` if `perm` is a permutation of `0..perm.len()`.
pub fn is_permutation(perm: &[u64]) -> bool {
    let n = perm.len();
    let mut seen = vec![false; n];
    for &p in perm {
        let Ok(i) = usize::try_from(p) else {
            return false;
        };
        if i >= n || seen[i] {
            return false;
        }
        seen[i] = true;
    }
    true
}

/// Inverts a permutation: `inv[perm[i]] == i`.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..perm.len()`.
pub fn invert_permutation(perm: &[u64]) -> Vec<u64> {
    assert!(
        is_permutation(perm),
        "invert_permutation: input not a permutation"
    );
    let mut inv = vec![0u64; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p as usize] = i as u64;
    }
    inv
}

/// Draws `k` distinct indices uniformly from `0..n` (Floyd's algorithm),
/// returned in ascending order.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_distinct<R: Rng64>(n: u64, k: usize, rng: &mut R) -> Vec<u64> {
    assert!(k as u64 <= n, "sample_distinct: k must not exceed n");
    let mut chosen = std::collections::BTreeSet::new();
    for j in (n - k as u64)..n {
        let t = rng.next_below(j + 1);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().collect()
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "test code: the map counts outcomes; its order is never observed"
)]
mod tests {
    use super::*;
    use crate::{SeedableRng64, Xoshiro256pp};

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut v: Vec<u32> = (0..1000).collect();
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..1000).collect::<Vec<_>>(),
            "shuffle left data in order"
        );
    }

    #[test]
    fn shuffle_handles_degenerate_sizes() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut empty: [u8; 0] = [];
        shuffle(&mut empty, &mut rng);
        let mut one = [42];
        shuffle(&mut one, &mut rng);
        assert_eq!(one, [42]);
    }

    #[test]
    fn random_permutation_is_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for n in [0u64, 1, 2, 17, 256] {
            let p = random_permutation(n, &mut rng);
            assert_eq!(p.len(), n as usize);
            assert!(is_permutation(&p), "not a permutation for n={n}");
        }
    }

    #[test]
    fn permutation_is_roughly_uniform() {
        // Over many draws of randperm(3), each of the 6 orders should appear
        // about 1/6 of the time.
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut counts = std::collections::HashMap::new();
        let n = 60_000;
        for _ in 0..n {
            let p = random_permutation(3, &mut rng);
            *counts.entry(p).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 6);
        for (p, c) in counts {
            let frac = c as f64 / n as f64;
            assert!(
                (frac - 1.0 / 6.0).abs() < 0.01,
                "permutation {p:?} freq {frac}"
            );
        }
    }

    #[test]
    fn invert_permutation_roundtrips() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let p = random_permutation(100, &mut rng);
        let inv = invert_permutation(&p);
        for i in 0..100 {
            assert_eq!(inv[p[i] as usize], i as u64);
            assert_eq!(p[inv[i] as usize], i as u64);
        }
    }

    #[test]
    fn is_permutation_rejects_bad_inputs() {
        assert!(is_permutation(&[]));
        assert!(is_permutation(&[0]));
        assert!(!is_permutation(&[1]));
        assert!(!is_permutation(&[0, 0]));
        assert!(!is_permutation(&[0, 2]));
        assert!(is_permutation(&[2, 0, 1]));
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let s = sample_distinct(1000, 50, &mut rng);
        assert_eq!(s.len(), 50);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "not strictly ascending");
        assert!(s.iter().all(|&x| x < 1000));
        // k == n returns everything.
        let all = sample_distinct(10, 10, &mut rng);
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // k == 0 returns nothing.
        assert!(sample_distinct(10, 0, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "k must not exceed n")]
    fn sample_distinct_rejects_oversample() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let _ = sample_distinct(5, 6, &mut rng);
    }
}
