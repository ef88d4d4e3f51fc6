//! Structural operations used by kernel 2: degree sums, column zeroing,
//! row normalization, and the optional dangling-node diagonal repair.

use crate::{Csr, Scalar};

/// `sum(A, 1)`: per-column sum of stored values (the in-degree vector when
/// values are edge counts).
pub fn col_sums<T: Scalar>(a: &Csr<T>) -> Vec<T> {
    let mut sums = vec![T::ZERO; a.cols() as usize];
    for (&c, &v) in a.col_indices().iter().zip(a.values()) {
        sums[c as usize] = sums[c as usize].add(v);
    }
    sums
}

/// `sum(A, 2)`: per-row sum of stored values (the out-degree vector when
/// values are edge counts).
pub fn row_sums<T: Scalar>(a: &Csr<T>) -> Vec<T> {
    let mut sums = vec![T::ZERO; a.rows() as usize];
    for r in 0..a.rows() {
        let (_, vals) = a.row(r);
        sums[r as usize] = vals.iter().fold(T::ZERO, |acc, &v| acc.add(v));
    }
    sums
}

/// Per-column count of stored entries (structural in-degree, ignoring
/// multiplicities).
pub fn col_nnz<T: Scalar>(a: &Csr<T>) -> Vec<u64> {
    let mut counts = vec![0u64; a.cols() as usize];
    for &c in a.col_indices() {
        counts[c as usize] += 1;
    }
    counts
}

/// `A(:, mask) = 0`: drops every stored entry whose column is flagged,
/// compacting the matrix's own `col_idx`/`values` in place.
///
/// # Panics
///
/// Panics if `mask.len() != a.cols()`.
pub fn zero_columns<T: Scalar>(mut a: Csr<T>, mask: &[bool]) -> Csr<T> {
    assert_eq!(
        mask.len() as u64,
        a.cols(),
        "mask length must equal column count"
    );
    a.retain(|_, c, _| !mask[c as usize]);
    a
}

/// Kernel 2's normalization: `A(i,:) = A(i,:) ./ dout(i)` for rows with
/// positive sum. Converts counts to row-stochastic doubles, each entry
/// `v as f64 / dout as f64`; empty rows stay empty (the "dangling node"
/// rows the paper deliberately leaves alone). The index arrays are reused
/// and the `u64` value storage becomes the `f64` storage in place.
pub fn normalize_rows(a: Csr<u64>) -> Csr<f64> {
    let dout = row_sums(&a);
    a.map_values(|r, v| v as f64 / dout[r as usize] as f64)
}

/// Generic row scaling: multiplies row `r` by `factors[r]`. Entries scaled
/// to exactly zero are dropped.
pub fn scale_rows(a: &Csr<f64>, factors: &[f64]) -> Csr<f64> {
    assert_eq!(
        factors.len() as u64,
        a.rows(),
        "factor length must equal row count"
    );
    a.map(|r, _, v| v * factors[r as usize])
}

/// Puts `value` on the diagonal of every empty row — the paper's §V option
/// of giving empty rows a diagonal entry so PageRank converges. The
/// entries shift within the matrix's own storage; no copy is made.
pub fn add_diagonal_to_empty_rows<T: Scalar>(mut a: Csr<T>, value: T) -> Csr<T> {
    a.fill_empty_diagonal(value);
    a
}

/// Rows with no stored entries (dangling nodes once values are weights).
pub fn empty_rows<T: Scalar>(a: &Csr<T>) -> Vec<bool> {
    (0..a.rows()).map(|r| a.row_nnz(r) == 0).collect()
}

/// How many rows have no stored entries, read off `row_ptr`.
pub fn empty_row_count<T: Scalar>(a: &Csr<T>) -> u64 {
    a.row_ptr().windows(2).filter(|w| w[0] == w[1]).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    /// [ 1 2 . ]
    /// [ . . 3 ]
    /// [ 1 . . ]
    fn sample() -> Csr<u64> {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1);
        coo.push(0, 1, 2);
        coo.push(1, 2, 3);
        coo.push(2, 0, 1);
        coo.compress()
    }

    #[test]
    fn sums_match_matlab_semantics() {
        let a = sample();
        assert_eq!(col_sums(&a), vec![2, 2, 3]);
        assert_eq!(row_sums(&a), vec![3, 3, 1]);
        assert_eq!(col_nnz(&a), vec![2, 1, 1]);
    }

    #[test]
    fn zero_columns_drops_only_flagged() {
        let z = zero_columns(sample(), &[true, false, false]);
        assert_eq!(z.get(0, 0), None);
        assert_eq!(z.get(2, 0), None);
        assert_eq!(z.get(0, 1), Some(2));
        assert_eq!(z.get(1, 2), Some(3));
        assert_eq!(z.nnz(), 2);
        assert_eq!(z.row_ptr(), &[0, 1, 2, 2]);
        z.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn zero_columns_checks_mask_length() {
        let _ = zero_columns(sample(), &[true]);
    }

    #[test]
    fn normalize_makes_rows_stochastic() {
        let n = normalize_rows(sample());
        let sums = row_sums(&n);
        assert!((sums[0] - 1.0).abs() < 1e-12);
        assert!((sums[1] - 1.0).abs() < 1e-12);
        assert!((sums[2] - 1.0).abs() < 1e-12);
        assert_eq!(n.get(0, 0), Some(1.0 / 3.0));
        assert_eq!(n.get(0, 1), Some(2.0 / 3.0));
    }

    #[test]
    fn normalize_rewrites_the_value_storage_in_place() {
        let a = sample();
        let (cols, vals) = (a.col_indices().as_ptr(), a.values().as_ptr());
        let n = normalize_rows(a);
        assert_eq!(n.col_indices().as_ptr(), cols, "index array moved");
        assert_eq!(n.values().as_ptr().cast::<u64>(), vals, "values copied");
    }

    #[test]
    fn normalize_leaves_empty_rows_empty() {
        let mut coo = Coo::<u64>::new(3, 3);
        coo.push(0, 1, 4);
        let n = normalize_rows(coo.compress());
        assert_eq!(n.row_nnz(0), 1);
        assert_eq!(n.row_nnz(1), 0);
        assert_eq!(n.row_nnz(2), 0);
        assert_eq!(n.get(0, 1), Some(1.0));
        assert_eq!(empty_row_count(&n), 2);
    }

    #[test]
    fn scale_rows_drops_zeroed() {
        let a = normalize_rows(sample());
        let s = scale_rows(&a, &[1.0, 0.0, 2.0]);
        assert_eq!(s.row_nnz(1), 0);
        assert_eq!(s.get(2, 0), Some(2.0));
    }

    #[test]
    fn diagonal_repair_targets_empty_rows() {
        let mut coo = Coo::<u64>::new(4, 4);
        coo.push(0, 1, 1);
        coo.push(2, 2, 5); // row 2 already has its diagonal
        let a = coo.compress();
        assert_eq!(empty_rows(&a), vec![false, true, false, true]);
        assert_eq!(empty_row_count(&a), 2);
        let repaired = add_diagonal_to_empty_rows(a, 1);
        assert_eq!(repaired.get(1, 1), Some(1));
        assert_eq!(repaired.get(3, 3), Some(1));
        assert_eq!(repaired.get(2, 2), Some(5), "existing diagonal untouched");
        assert_eq!(repaired.get(0, 0), None, "non-empty rows not touched");
        assert_eq!(repaired.row_ptr(), &[0, 1, 2, 3, 4]);
        repaired.check_invariants().unwrap();
    }

    #[test]
    fn diagonal_repair_stays_inside_a_rectangle() {
        // Rows past min(rows, cols) have no diagonal slot to fill.
        let repaired = add_diagonal_to_empty_rows(Csr::<u64>::zero(3, 2), 7);
        assert_eq!(repaired.nnz(), 2);
        assert_eq!(repaired.get(0, 0), Some(7));
        assert_eq!(repaired.get(1, 1), Some(7));
        assert_eq!(repaired.row_nnz(2), 0);
        repaired.check_invariants().unwrap();
    }
}
