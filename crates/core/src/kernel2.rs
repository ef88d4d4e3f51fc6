//! Kernel 2 — Filter: shared mathematical steps.
//!
//! From the spec (§IV.C), in Matlab notation:
//!
//! ```text
//! A   = sparse(u, v, 1, N, N)      % duplicates accumulate
//! din = sum(A, 1)                  % in-degree (weighted by multiplicity)
//! A(:, din == max(din)) = 0        % kill the super-node column(s)
//! A(:, din == 1)        = 0        % kill the leaf columns
//! dout = sum(A, 2)
//! A(i, :) = A(i, :) ./ dout(i)     % for rows with dout > 0
//! ```
//!
//! Every backend that assembles a count matrix hands it to [`filter`] by
//! value, so the *policy* is defined once; what differs between backends
//! is how the matrix gets assembled from the files. Like the Matlab, the
//! filter works on that one matrix: the zeroed columns are compacted out
//! of its own arrays, the optional diagonal repair shifts entries within
//! them, and normalization rewrites the `u64` counts into `f64` weights in
//! the same value storage. Besides the matrix, the only O(N) state is the
//! in-degree and out-degree vectors and the column mask.

use ppbench_sparse::{ops, Csr};

/// Statistics recorded by the filter stage (part of the validation outputs
/// the paper's §V asks about).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterStats {
    /// Sum of all matrix values before filtering — must equal M.
    pub total_edge_count: u64,
    /// Stored entries before filtering (≤ M because duplicates collapse).
    pub nnz_before: usize,
    /// The maximum weighted in-degree.
    pub max_in_degree: u64,
    /// Columns zeroed as super-nodes (`din == max(din)`).
    pub supernode_columns: u64,
    /// Columns zeroed as leaves (`din == 1`).
    pub leaf_columns: u64,
    /// Stored entries after filtering and normalization.
    pub nnz_after: usize,
    /// Rows with no out-edges after filtering (dangling states).
    pub dangling_rows: u64,
    /// Diagonal entries added by the §V repair option (0 when disabled).
    pub diagonal_repairs: u64,
}

/// Applies the kernel-2 filtering policy to an assembled count matrix and
/// normalizes rows, returning the row-stochastic matrix and statistics.
/// The result lives in `counts`' own storage; no copy of the matrix is
/// made.
///
/// With `add_diagonal_to_empty`, rows left with no out-edges get a unit
/// diagonal entry *before* normalization (the paper's §V "should a diagonal
/// entry be added to empty rows/columns to allow the PageRank algorithm to
/// converge?" option) — those rows then hold all their mass in place
/// instead of leaking it.
pub fn filter(counts: Csr<u64>, add_diagonal_to_empty: bool) -> (Csr<f64>, FilterStats) {
    let din = ops::col_sums(&counts);
    let max_in_degree = din.iter().copied().max().unwrap_or(0);

    // max(din) of an all-empty matrix is 0; guard so we do not flag every
    // empty column as "the super-node".
    let is_supernode = |d: u64| max_in_degree > 0 && d == max_in_degree;
    let mask: Vec<bool> = din.iter().map(|&d| is_supernode(d) || d == 1).collect();
    let supernode_columns = din.iter().filter(|&&d| is_supernode(d)).count() as u64;
    let leaf_columns = din.iter().filter(|&&d| d == 1).count() as u64;
    drop(din);
    let total_edge_count = counts.value_sum();
    let nnz_before = counts.nnz();

    let mut filtered = ops::zero_columns(counts, &mask);
    drop(mask);

    let mut diagonal_repairs = 0u64;
    if add_diagonal_to_empty {
        diagonal_repairs = ops::empty_row_count(&filtered);
        filtered = ops::add_diagonal_to_empty_rows(filtered, 1);
    }

    let normalized = ops::normalize_rows(filtered);

    let stats = FilterStats {
        total_edge_count,
        nnz_before,
        max_in_degree,
        supernode_columns,
        leaf_columns,
        nnz_after: normalized.nnz(),
        dangling_rows: ops::empty_row_count(&normalized),
        diagonal_repairs,
    };
    (normalized, stats)
}

/// [`filter`] on a borrowed matrix, through one clone. Kept only because
/// the `ppmark` harness (`benchmark/`) imports this signature and must
/// build unchanged; product code passes its matrix to [`filter`] by value.
pub fn filter_matrix(counts: &Csr<u64>, add_diagonal_to_empty: bool) -> (Csr<f64>, FilterStats) {
    filter(counts.clone(), add_diagonal_to_empty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppbench_sparse::Coo;

    /// Graph: 0→1 ×3 (1 is the super-node), 2→3 (3 is a leaf), 1→0, 3→0,
    /// 0→0. N = 5; vertex 4 untouched.
    fn counts() -> Csr<u64> {
        let mut coo = Coo::new(5, 5);
        for _ in 0..3 {
            coo.push(0, 1, 1);
        }
        coo.push(2, 3, 1);
        coo.push(1, 0, 1);
        coo.push(3, 0, 1);
        coo.push(0, 0, 1);
        coo.compress()
    }

    #[test]
    fn spec_example_filters_supernode_and_leaves() {
        let (a, stats) = filter(counts(), false);
        assert_eq!(stats.total_edge_count, 7);
        assert_eq!(stats.nnz_before, 5);
        // din = [3, 3, 0, 1, 0]: column 0 gets 0→0, 1→0 and 3→0; column 1
        // gets 0→1 three times; column 3 gets 2→3.
        assert_eq!(stats.max_in_degree, 3);
        // Both col 0 and col 1 hit the max ⇒ both are super-node columns.
        assert_eq!(stats.supernode_columns, 2);
        // Column 3 is the one leaf.
        assert_eq!(stats.leaf_columns, 1);
        // Every entry sits in column 0, 1 or 3, so nothing survives.
        assert_eq!(stats.nnz_after, 0);
        assert_eq!(a.nnz(), 0);
        assert_eq!(stats.dangling_rows, 5);
    }

    #[test]
    fn normalization_is_row_stochastic() {
        // No duplicate max tie: column 1 in-degree 3 (max), column 2 gets 2,
        // col 0 gets 2, no leaves.
        let mut coo = Coo::new(4, 4);
        for _ in 0..3 {
            coo.push(0, 1, 1);
        }
        for (u, v) in [(1, 2), (3, 2), (2, 0), (3, 0)] {
            coo.push(u, v, 1);
        }
        let (a, stats) = filter(coo.compress(), false);
        assert_eq!(stats.supernode_columns, 1);
        assert_eq!(stats.leaf_columns, 0);
        for (r, &s) in ppbench_sparse::ops::row_sums(&a).iter().enumerate() {
            if a.row_nnz(r as u64) > 0 {
                assert!((s - 1.0).abs() < 1e-12, "row {r} sums to {s}");
            }
        }
        // Column 1 is gone.
        assert_eq!(ppbench_sparse::ops::col_sums(&a)[1], 0.0);
    }

    #[test]
    fn diagonal_repair_eliminates_dangling_rows() {
        let (plain, stats_plain) = filter(counts(), false);
        assert!(stats_plain.dangling_rows > 0);
        let (repaired, stats_rep) = filter(counts(), true);
        assert_eq!(stats_rep.dangling_rows, 0);
        assert_eq!(stats_rep.diagonal_repairs, 5);
        // Repaired rows are self-loops with weight 1.
        assert_eq!(repaired.get(4, 4), Some(1.0));
        drop(plain);
    }

    #[test]
    fn empty_matrix_is_handled() {
        let empty = Coo::<u64>::new(3, 3).compress();
        let (a, stats) = filter(empty, false);
        assert_eq!(a.nnz(), 0);
        assert_eq!(stats.max_in_degree, 0);
        assert_eq!(stats.supernode_columns, 0);
        assert_eq!(stats.leaf_columns, 0);
    }

    #[test]
    fn duplicates_collapse_but_mass_is_preserved() {
        let mut coo = Coo::new(3, 3);
        for _ in 0..4 {
            coo.push(0, 2, 1); // multiplicity 4
        }
        coo.push(1, 2, 1);
        let counts = coo.compress();
        assert_eq!(counts.nnz(), 2);
        assert_eq!(counts.value_sum(), 5);
        let (_, stats) = filter(counts.clone(), false);
        assert_eq!(stats.total_edge_count, 5);
        assert_eq!(stats.nnz_before, 2);
        assert_eq!(filter_matrix(&counts, false).1, stats);
    }
}
