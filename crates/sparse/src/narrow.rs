//! Narrow-index CSR: `u32` column indices for matrices whose column
//! count fits in 32 bits.
//!
//! Every scale the paper benchmarks (16–22) has far fewer than `2^32`
//! vertices, so the wide `u64` column indices of [`Csr`] waste half the
//! index bandwidth of the kernel-3 hot loop. [`Csr32`] stores the same
//! structure with `u32` columns; [`crate::spmv`]'s view-based kernels run
//! unchanged over either width, and the parallel backend builds its
//! gather-form transpose straight into the narrow form
//! ([`Csr32::try_transpose`]) whenever the vertex count fits.

use crate::csr::CsrView;
use crate::Csr;

/// CSR storage with `u32` column indices and `f64` values.
///
/// Structurally identical to [`Csr<f64>`] — same row-pointer layout, same
/// (row, sorted-column) entry order — only the index width differs, which
/// is why equality against the wide form ([`Csr32::eq_wide`],
/// `PartialEq<Csr<f64>>`) is well defined entry-by-entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr32 {
    rows: u64,
    cols: u64,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csr32 {
    /// Converts a wide-index matrix to the narrow form, or returns `None`
    /// when the column count does not fit `u32` indices (i.e. any column
    /// index could be `>= 2^32`).
    pub fn try_from_wide(wide: &Csr<f64>) -> Option<Self> {
        if wide.cols() > u64::from(u32::MAX) + 1 {
            return None;
        }
        let col_idx: Vec<u32> = wide.col_indices().iter().map(|&c| c as u32).collect();
        Some(Self {
            rows: wide.rows(),
            cols: wide.cols(),
            row_ptr: wide.row_ptr().to_vec(),
            col_idx,
            values: wide.values().to_vec(),
        })
    }

    /// The transpose of `a`, built straight into the narrow form: a
    /// counting-sort scatter that writes `u32` columns directly, so no
    /// wide transpose exists on the way. Returns `None`, before allocating
    /// anything, when either dimension exceeds `2^32`.
    ///
    /// Equal, entry for entry and bit for bit, to
    /// `Csr32::try_from_wide(&a.transpose())`: rows of `a` are scanned in
    /// order, so each output row comes out sorted.
    pub fn try_transpose(a: &Csr<f64>) -> Option<Self> {
        let fits = |d: u64| d <= u64::from(u32::MAX) + 1;
        if !fits(a.rows()) || !fits(a.cols()) {
            return None;
        }
        // Count column c into slot c + 2, so that after the prefix sum
        // slot c + 1 is where output row c starts and can serve as its
        // write cursor; once the scatter is done it holds where row c
        // ends, which is where row c + 1 starts. The spare last slot goes.
        let mut row_ptr = vec![0usize; a.cols() as usize + 2];
        for &c in a.col_indices() {
            row_ptr[c as usize + 2] += 1;
        }
        for i in 2..row_ptr.len() {
            row_ptr[i] += row_ptr[i - 1];
        }
        let mut col_idx = vec![0u32; a.nnz()];
        let mut values = vec![0.0f64; a.nnz()];
        for r in 0..a.rows() {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = &mut row_ptr[c as usize + 1];
                col_idx[*slot] = r as u32;
                values[*slot] = v;
                *slot += 1;
            }
        }
        row_ptr.pop();
        Some(Self {
            rows: a.cols(),
            cols: a.rows(),
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Widens back to the canonical `u64`-index form.
    pub fn to_wide(&self) -> Csr<f64> {
        let mut coo = crate::Coo::<f64>::new(self.rows, self.cols);
        for r in 0..self.rows as usize {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(r as u64, u64::from(c), v);
            }
        }
        coo.compress()
    }

    /// Entry-by-entry equality with a wide-index matrix: same shape, same
    /// row structure, same columns (widened), bitwise-equal values.
    pub fn eq_wide(&self, wide: &Csr<f64>) -> bool {
        self.rows == wide.rows()
            && self.cols == wide.cols()
            && self.row_ptr == wide.row_ptr()
            && self
                .col_idx
                .iter()
                .zip(wide.col_indices())
                .all(|(&n, &w)| u64::from(n) == w)
            && self
                .values
                .iter()
                .zip(wide.values())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The row pointer array (length `rows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The entries of row `r` as parallel (columns, values) slices.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// A borrowed [`CsrView`] over this matrix's storage.
    pub fn view(&self) -> CsrView<'_, u32> {
        CsrView::from_parts(
            self.rows,
            self.cols,
            &self.row_ptr,
            &self.col_idx,
            &self.values,
        )
    }
}

impl PartialEq<Csr<f64>> for Csr32 {
    fn eq(&self, other: &Csr<f64>) -> bool {
        self.eq_wide(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample() -> Csr<f64> {
        let mut coo = Coo::<f64>::new(4, 4);
        coo.push(0, 1, 0.5);
        coo.push(0, 3, 0.5);
        coo.push(2, 0, 1.0);
        coo.push(3, 2, 0.25);
        coo.push(3, 3, 0.75);
        coo.compress()
    }

    #[test]
    fn narrow_roundtrip_preserves_everything() {
        let wide = sample();
        let narrow = Csr32::try_from_wide(&wide).expect("4 cols fit u32");
        assert_eq!(narrow.rows(), wide.rows());
        assert_eq!(narrow.cols(), wide.cols());
        assert_eq!(narrow.nnz(), wide.nnz());
        assert!(narrow.eq_wide(&wide));
        assert!(narrow == wide);
        let back = narrow.to_wide();
        assert_eq!(back.row_ptr(), wide.row_ptr());
        assert_eq!(back.col_indices(), wide.col_indices());
        assert_eq!(back.values(), wide.values());
    }

    #[test]
    fn narrow_rejects_oversized_column_space() {
        let wide = Csr::<f64>::zero(2, u64::from(u32::MAX) + 2);
        assert!(Csr32::try_from_wide(&wide).is_none());
        // Exactly 2^32 columns still fits: max index is u32::MAX.
        let edge = Csr::<f64>::zero(2, u64::from(u32::MAX) + 1);
        assert!(Csr32::try_from_wide(&edge).is_some());
    }

    #[test]
    fn try_transpose_equals_narrowed_wide_transpose() {
        let a = sample();
        let t = Csr32::try_transpose(&a).expect("4 cols fit u32");
        assert_eq!(Some(t), Csr32::try_from_wide(&a.transpose()));
        let empty = Csr::<f64>::zero(0, 0);
        assert_eq!(
            Csr32::try_transpose(&empty),
            Csr32::try_from_wide(&empty.transpose())
        );
    }

    #[test]
    fn try_transpose_refuses_more_than_2_pow_32_columns() {
        // A one-row zero matrix is small; its transpose's 2^33 + 1 row
        // pointers would not be, and are never allocated.
        assert!(Csr32::try_transpose(&Csr::<f64>::zero(1, 1 << 33)).is_none());
    }

    #[test]
    fn eq_wide_detects_value_differences() {
        let wide = sample();
        let narrow = Csr32::try_from_wide(&wide).unwrap();
        let mut coo = Coo::<f64>::new(4, 4);
        coo.push(0, 1, 0.5);
        coo.push(0, 3, 0.5);
        coo.push(2, 0, 1.0);
        coo.push(3, 2, 0.25);
        coo.push(3, 3, 0.5); // differs
        let other = coo.compress();
        assert!(!narrow.eq_wide(&other));
    }

    #[test]
    fn views_agree_across_widths() {
        let wide = sample();
        let narrow = Csr32::try_from_wide(&wide).unwrap();
        let wv = wide.view();
        let nv = narrow.view();
        assert_eq!(wv.rows(), nv.rows());
        assert_eq!(wv.nnz(), nv.nnz());
        for r in 0..wide.rows() as usize {
            let (wc, wvals) = wv.row(r);
            let (nc, nvals) = nv.row(r);
            assert_eq!(wvals, nvals);
            assert!(wc.iter().zip(nc).all(|(&w, &n)| w == u64::from(n)));
        }
    }
}
