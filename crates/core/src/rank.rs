//! Rank-order comparison utilities.
//!
//! The benchmark's *numbers* are validated by digests and the eigenvector
//! check; what a downstream user of PageRank actually consumes is the
//! *ordering* of vertices. These helpers quantify ordering agreement —
//! used by the validation tests to show that all backends (and the
//! distributed runner) produce not just close values but the same ranking,
//! and available to applications comparing ranking variants (e.g. the
//! dangling strategies).

/// Returns vertex ids ordered by descending rank value, ties broken by
/// ascending vertex id (deterministic).
pub fn ordering(ranks: &[f64]) -> Vec<u64> {
    let mut idx: Vec<u64> = (0..ranks.len() as u64).collect();
    idx.sort_by(|&a, &b| {
        ranks[b as usize]
            .total_cmp(&ranks[a as usize])
            .then(a.cmp(&b))
    });
    idx
}

/// Kendall rank correlation τ between two rank vectors of equal length,
/// computed in O(n log n) by merge-sort inversion counting.
///
/// Returns a value in `[-1, 1]`: 1 for identical orderings, −1 for exactly
/// reversed ones. Ties in rank values are broken by vertex id before
/// comparison (consistent with [`ordering`]).
///
/// # Panics
///
/// Panics if the lengths differ or `n < 2`.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rank vectors must have equal length");
    let n = a.len();
    assert!(n >= 2, "need at least two items to correlate");
    // Position of each vertex in b's ordering.
    let order_b = ordering(b);
    let mut pos_b = vec![0u64; n];
    for (p, &v) in order_b.iter().enumerate() {
        pos_b[v as usize] = p as u64;
    }
    // Walk a's ordering and count inversions of the induced b-positions.
    let seq: Vec<u64> = ordering(a).iter().map(|&v| pos_b[v as usize]).collect();
    let inversions = count_inversions(seq);
    let pairs = (n as u64 * (n as u64 - 1) / 2) as f64;
    1.0 - 2.0 * inversions as f64 / pairs
}

/// Counts inversions with an iterative bottom-up merge sort.
fn count_inversions(mut seq: Vec<u64>) -> u64 {
    let n = seq.len();
    let mut buf = vec![0u64; n];
    let mut inversions = 0u64;
    let mut width = 1;
    while width < n {
        let mut lo = 0;
        while lo + width < n {
            let mid = lo + width;
            let hi = (mid + width).min(n);
            // Merge seq[lo..mid] and seq[mid..hi] counting cross pairs.
            let (mut i, mut j, mut k) = (lo, mid, lo);
            while i < mid && j < hi {
                if seq[i] <= seq[j] {
                    buf[k] = seq[i];
                    i += 1;
                } else {
                    buf[k] = seq[j];
                    j += 1;
                    inversions += (mid - i) as u64;
                }
                k += 1;
            }
            buf[k..k + (mid - i)].copy_from_slice(&seq[i..mid]);
            let k = k + (mid - i);
            buf[k..k + (hi - j)].copy_from_slice(&seq[j..hi]);
            seq[lo..hi].copy_from_slice(&buf[lo..hi]);
            lo += 2 * width;
        }
        width *= 2;
    }
    inversions
}

/// The `k` highest-ranked vertices as `(vertex, rank)` pairs under the
/// same comparator as [`ordering`]: descending rank, ties by ascending id.
/// `k` past the length clamps.
///
/// Selected in O(n) expected time with `select_nth_unstable_by`, and only
/// the `k` survivors are sorted — at benchmark scales the caller wants the
/// top handful out of millions of vertices, so sorting everything to keep
/// five entries is almost all wasted work.
pub fn top_k(ranks: &[f64], k: usize) -> Vec<(u64, f64)> {
    let k = k.min(ranks.len());
    if k == 0 {
        return Vec::new();
    }
    let by_rank = |&a: &u64, &b: &u64| {
        ranks[b as usize]
            .total_cmp(&ranks[a as usize])
            .then(a.cmp(&b))
    };
    let mut idx: Vec<u64> = (0..ranks.len() as u64).collect();
    if k < idx.len() {
        // Positions 0..k now hold the k least elements under the
        // comparator — which orders by descending rank — i.e. the top k.
        idx.select_nth_unstable_by(k - 1, by_rank);
        idx.truncate(k);
    }
    idx.sort_unstable_by(by_rank);
    idx.into_iter().map(|i| (i, ranks[i as usize])).collect()
}

/// Ids of [`top_k`]'s vertices in ascending id order (set semantics).
pub fn top_k_ids(ranks: &[f64], k: usize) -> Vec<u64> {
    let mut ids: Vec<u64> = top_k(ranks, k).into_iter().map(|(i, _)| i).collect();
    ids.sort_unstable();
    ids
}

/// Jaccard overlap of the top-`k` sets of two rank vectors: 1.0 when both
/// agree on which vertices matter most, regardless of their order within
/// the top `k`.
///
/// # Panics
///
/// Panics if the lengths differ or `k == 0`.
pub fn top_k_overlap(a: &[f64], b: &[f64], k: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "rank vectors must have equal length");
    assert!(k > 0, "k must be positive");
    let sa = top_k_ids(a, k);
    let sb = top_k_ids(b, k);
    // Both sides are ascending, so the intersection is a two-pointer merge.
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < sa.len() && j < sb.len() {
        match sa[i].cmp(&sb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_descends_with_stable_ties() {
        assert_eq!(ordering(&[0.1, 0.5, 0.5, 0.2]), vec![1, 2, 3, 0]);
    }

    #[test]
    fn tau_extremes() {
        let a = [4.0, 3.0, 2.0, 1.0];
        let reversed = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(kendall_tau(&a, &a), 1.0);
        assert_eq!(kendall_tau(&a, &reversed), -1.0);
    }

    #[test]
    fn tau_single_swap() {
        // Orderings [0,1,2,3] vs [1,0,2,3]: one discordant pair of six.
        let a = [4.0, 3.0, 2.0, 1.0];
        let b = [3.0, 4.0, 2.0, 1.0];
        let tau = kendall_tau(&a, &b);
        assert!((tau - (1.0 - 2.0 / 6.0)).abs() < 1e-12, "tau {tau}");
    }

    #[test]
    fn tau_matches_naive_on_random_input() {
        // Pseudo-random vectors, O(n²) reference.
        let mut state = 123u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let a: Vec<f64> = (0..200).map(|_| next()).collect();
        let b: Vec<f64> = (0..200).map(|_| next()).collect();
        let fast = kendall_tau(&a, &b);
        // Naive pair count.
        let n = a.len();
        let mut concordant = 0i64;
        let mut discordant = 0i64;
        for i in 0..n {
            for j in i + 1..n {
                let da = a[i].partial_cmp(&a[j]).unwrap();
                let db = b[i].partial_cmp(&b[j]).unwrap();
                if da == db {
                    concordant += 1;
                } else {
                    discordant += 1;
                }
            }
        }
        let naive = (concordant - discordant) as f64 / (concordant + discordant) as f64;
        assert!((fast - naive).abs() < 1e-12, "fast {fast} vs naive {naive}");
    }

    #[test]
    fn inversion_counter_basics() {
        assert_eq!(count_inversions(vec![]), 0);
        assert_eq!(count_inversions(vec![1]), 0);
        assert_eq!(count_inversions(vec![1, 2, 3]), 0);
        assert_eq!(count_inversions(vec![3, 2, 1]), 3);
        assert_eq!(count_inversions(vec![2, 1, 3, 5, 4]), 2);
    }

    #[test]
    fn top_k_overlap_behaviour() {
        let a = [0.9, 0.8, 0.1, 0.05];
        let b = [0.8, 0.9, 0.07, 0.2];
        // Top-2 sets identical.
        assert_eq!(top_k_overlap(&a, &b, 2), 1.0);
        // Top-3: {0,1,2} vs {0,1,3} → 2/4.
        assert_eq!(top_k_overlap(&a, &b, 3), 0.5);
        // k past the length clamps.
        assert_eq!(top_k_overlap(&a, &b, 100), 1.0);
    }

    #[test]
    fn top_k_ids_agree_with_full_ordering() {
        // Quantized pseudo-random ranks: plenty of exact ties, so the
        // selection's tie-break has to match the full sort's exactly.
        let mut state = 99u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) % 16) as f64 / 16.0
        };
        let ranks: Vec<f64> = (0..257).map(|_| next()).collect();
        for k in [0, 1, 2, 7, 64, 256, 257, 500] {
            let order: Vec<u64> = ordering(&ranks).into_iter().take(k).collect();
            let pairs: Vec<(u64, f64)> = order.iter().map(|&i| (i, ranks[i as usize])).collect();
            assert_eq!(top_k(&ranks, k), pairs, "k = {k}");
            let mut expect = order;
            expect.sort_unstable();
            assert_eq!(top_k_ids(&ranks, k), expect, "k = {k}");
        }
        assert!(top_k(&[], 3).is_empty());
        assert!(top_k_ids(&[], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn tau_length_checked() {
        let _ = kendall_tau(&[1.0], &[1.0, 2.0]);
    }
}
