//! Compressed sparse row storage.

use crate::Scalar;

/// A column-index type a CSR matrix can store: `u64` (the canonical wide
/// form) or `u32` (the narrow form of [`crate::Csr32`], half the index
/// bandwidth for every matrix whose column count fits).
pub trait ColIndex: Copy + Send + Sync + 'static {
    /// Widens to a slice index.
    fn to_index(self) -> usize;
}

impl ColIndex for u64 {
    #[inline(always)]
    fn to_index(self) -> usize {
        self as usize
    }
}

impl ColIndex for u32 {
    #[inline(always)]
    fn to_index(self) -> usize {
        self as usize
    }
}

/// A borrowed view of CSR storage with `f64` values, generic over the
/// column-index width. The SpMV kernels in [`crate::spmv`] operate on
/// views so one implementation serves both [`Csr`] and [`crate::Csr32`].
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a, I> {
    rows: u64,
    cols: u64,
    row_ptr: &'a [usize],
    col_idx: &'a [I],
    values: &'a [f64],
}

impl<'a, I: ColIndex> CsrView<'a, I> {
    /// Assembles a view from raw parts (lengths checked).
    ///
    /// # Panics
    ///
    /// Panics if `row_ptr.len() != rows + 1` or the index/value slices
    /// disagree in length.
    pub fn from_parts(
        rows: u64,
        cols: u64,
        row_ptr: &'a [usize],
        col_idx: &'a [I],
        values: &'a [f64],
    ) -> Self {
        assert_eq!(row_ptr.len() as u64, rows + 1, "row_ptr length mismatch");
        assert_eq!(
            col_idx.len(),
            values.len(),
            "col_idx/values length mismatch"
        );
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
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
    pub fn row_ptr(&self) -> &'a [usize] {
        self.row_ptr
    }

    /// The entries of row `r` as parallel (columns, values) slices.
    #[inline]
    pub fn row(&self, r: usize) -> (&'a [I], &'a [f64]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }
}

/// A sparse matrix in CSR form: `row_ptr` (length rows+1) delimits, for each
/// row, a slice of `col_idx`/`values`. Column indices are strictly
/// increasing within each row and no explicit zeros are stored.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T> {
    rows: u64,
    cols: u64,
    row_ptr: Vec<usize>,
    col_idx: Vec<u64>,
    values: Vec<T>,
}

impl<T: Scalar> Csr<T> {
    /// An empty (all-zero) `rows × cols` matrix.
    pub fn zero(rows: u64, cols: u64) -> Self {
        Self {
            rows,
            cols,
            row_ptr: vec![0; rows as usize + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from triplets that are already sorted by (row, col) with no
    /// duplicates and no zeros — the contract [`crate::Coo::compress`]
    /// establishes.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the contract is violated.
    pub(crate) fn from_sorted_dedup_triplets(
        rows: u64,
        cols: u64,
        triplets: Vec<(u64, u64, T)>,
    ) -> Self {
        let mut row_ptr = vec![0usize; rows as usize + 1];
        for &(r, _, _) in &triplets {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..rows as usize {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        let mut prev: Option<(u64, u64)> = None;
        for (r, c, v) in triplets {
            debug_assert!(r < rows && c < cols);
            debug_assert!(prev < Some((r, c)), "triplets not sorted/deduped");
            debug_assert!(v != T::ZERO, "explicit zero slipped through");
            prev = Some((r, c));
            col_idx.push(c);
            values.push(v);
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Kernel 2's staged construction: consumes an iterator of `(u, v)`
    /// pairs sorted by start vertex (kernel 1's output), accumulating
    /// duplicate pairs, without materializing the edge list. Each row's
    /// ends are sorted here and fed to a [`CsrStreamBuilder`] — the one
    /// dedup/row-pointer implementation, shared with the fused path — so
    /// the peak memory is the builder's arrays plus one row's worth of end
    /// vertices.
    ///
    /// # Panics
    ///
    /// Panics if the stream is not sorted by start vertex or goes out of
    /// bounds.
    pub fn from_sorted_edge_iter(n: u64, edges: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut builder = CsrStreamBuilder::new(n);
        let mut ends: Vec<u64> = Vec::new();
        let mut flush = |row: u64, ends: &mut Vec<u64>| {
            ends.sort_unstable();
            for &v in ends.iter() {
                builder.push(row, v);
            }
            ends.clear();
        };
        let mut current_row: Option<u64> = None;
        for (u, v) in edges {
            assert!(u < n, "start vertex {u} out of bounds {n}");
            if current_row != Some(u) {
                if let Some(row) = current_row {
                    assert!(row < u, "edges not sorted by start vertex");
                    flush(row, &mut ends);
                }
                current_row = Some(u);
            }
            ends.push(v);
        }
        if let Some(row) = current_row {
            flush(row, &mut ends);
        }
        builder.finish()
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

    /// The stored values, row-major.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The column indices, row-major.
    pub fn col_indices(&self) -> &[u64] {
        &self.col_idx
    }

    /// The row pointer array (length `rows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The entries of row `r` as parallel (columns, values) slices.
    #[inline]
    pub fn row(&self, r: u64) -> (&[u64], &[T]) {
        let lo = self.row_ptr[r as usize];
        let hi = self.row_ptr[r as usize + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: u64) -> usize {
        self.row_ptr[r as usize + 1] - self.row_ptr[r as usize]
    }

    /// Looks up the entry at `(r, c)`, if stored.
    pub fn get(&self, r: u64, c: u64) -> Option<T> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&c).ok().map(|i| vals[i])
    }

    /// Iterates all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, T)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Maps every stored value into a new matrix, row by row, dropping
    /// results equal to zero.
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(u64, u64, T) -> U) -> Csr<U> {
        let mut row_ptr = Vec::with_capacity(self.row_ptr.len());
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let u = f(r, c, v);
                if u != U::ZERO {
                    col_idx.push(c);
                    values.push(u);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Keeps only the stored entries for which `keep(row, col, &value)`
    /// holds, compacting `col_idx`/`values` in place and rewriting
    /// `row_ptr` as it goes. The freed tail goes back to the allocator.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64, u64, &T) -> bool) {
        let mut write = 0;
        let mut lo = 0;
        for r in 0..self.rows as usize {
            let hi = self.row_ptr[r + 1];
            for read in lo..hi {
                if keep(r as u64, self.col_idx[read], &self.values[read]) {
                    self.col_idx[write] = self.col_idx[read];
                    self.values[write] = self.values[read];
                    write += 1;
                }
            }
            self.row_ptr[r + 1] = write;
            lo = hi;
        }
        self.col_idx.truncate(write);
        self.col_idx.shrink_to_fit();
        self.values.truncate(write);
        self.values.shrink_to_fit();
    }

    /// Converts every stored value with `f(row, value)`, keeping the
    /// structure. The index arrays move over as they are; when `U` has the
    /// size and alignment of `T` (`u64` counts to `f64` weights) the value
    /// storage is rewritten in place instead of copied.
    ///
    /// `f` must not map a stored value to zero (checked in debug builds).
    pub(crate) fn map_values<U: Scalar>(self, mut f: impl FnMut(u64, T) -> U) -> Csr<U> {
        let Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        } = self;
        let (mut r, mut k) = (0usize, 0usize);
        let values = values
            .into_iter()
            .map(|v| {
                while row_ptr[r + 1] <= k {
                    r += 1;
                }
                k += 1;
                let u = f(r as u64, v);
                debug_assert!(u != U::ZERO, "map_values stored an explicit zero");
                u
            })
            .collect();
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Stores `value` on the diagonal of every empty row `i < min(rows,
    /// cols)`. The storage grows by one slot per such row and the entries
    /// shift right in place, back to front, so no second matrix exists.
    pub(crate) fn fill_empty_diagonal(&mut self, value: T) {
        let n = self.rows.min(self.cols) as usize;
        let mut shift = (0..n)
            .filter(|&i| self.row_ptr[i] == self.row_ptr[i + 1])
            .count();
        let nnz = self.nnz();
        self.col_idx.resize(nnz + shift, 0);
        self.values.resize(nnz + shift, T::ZERO);
        // `hi` is the old end of row `r`; `shift` counts the insertions in
        // rows `0..=r`, which is how far row `r`'s entries move.
        let mut hi = nnz;
        for r in (0..self.rows as usize).rev() {
            if shift == 0 {
                break;
            }
            let lo = self.row_ptr[r];
            self.row_ptr[r + 1] = hi + shift;
            if lo == hi && r < n {
                shift -= 1;
                self.col_idx[hi + shift] = r as u64;
                self.values[hi + shift] = value;
            } else {
                self.col_idx.copy_within(lo..hi, lo + shift);
                self.values.copy_within(lo..hi, lo + shift);
            }
            hi = lo;
        }
    }

    /// The transpose as a new CSR matrix (i.e. CSC view of `self`).
    ///
    /// Linear-time bucket transpose; output rows are sorted because input
    /// rows are scanned in order.
    pub fn transpose(&self) -> Csr<T> {
        let mut row_ptr = vec![0usize; self.cols as usize + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols as usize {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0u64; self.nnz()];
        let mut values = vec![T::ZERO; self.nnz()];
        let mut cursor = row_ptr.clone();
        for (r, c, v) in self.iter() {
            let slot = cursor[c as usize];
            col_idx[slot] = r;
            values[slot] = v;
            cursor[c as usize] += 1;
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sum of all stored values.
    pub fn value_sum(&self) -> T {
        self.values.iter().fold(T::ZERO, |acc, &v| acc.add(v))
    }

    /// Checks internal invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.rows as usize + 1 {
            return Err("row_ptr length mismatch".into());
        }
        if self.row_ptr.last().copied() != Some(self.nnz()) {
            return Err("row_ptr tail != nnz".into());
        }
        if self.values.len() != self.col_idx.len() {
            return Err("values/col_idx length mismatch".into());
        }
        for r in 0..self.rows {
            let (lo, hi) = (self.row_ptr[r as usize], self.row_ptr[r as usize + 1]);
            if lo > hi {
                return Err(format!("row {r} has negative extent"));
            }
            let cols = &self.col_idx[lo..hi];
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {r} columns not strictly increasing"));
                }
            }
            if let Some(&c) = cols.last() {
                if c >= self.cols {
                    return Err(format!("row {r} column {c} out of bounds"));
                }
            }
        }
        if self.values.contains(&T::ZERO) {
            return Err("explicit zero stored".into());
        }
        Ok(())
    }
}

impl Csr<f64> {
    /// A borrowed [`CsrView`] over this matrix's storage, with the wide
    /// (`u64`) column indices. The SpMV kernels in [`crate::spmv`] accept
    /// views so the narrow-index form ([`crate::Csr32`]) shares one
    /// implementation with this one.
    pub fn view(&self) -> CsrView<'_, u64> {
        CsrView::from_parts(
            self.rows,
            self.cols,
            &self.row_ptr,
            &self.col_idx,
            &self.values,
        )
    }
}

/// Internal column buffer of [`CsrStreamBuilder`]: `u32` whenever the
/// column bound fits (half the index bandwidth and footprint during the
/// build), widened to the canonical `u64` form only at finish.
#[derive(Debug)]
enum ColBuf {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl ColBuf {
    fn new(col_bound: u64) -> Self {
        if col_bound <= u64::from(u32::MAX) + 1 {
            ColBuf::Narrow(Vec::new())
        } else {
            ColBuf::Wide(Vec::new())
        }
    }

    #[inline]
    fn push(&mut self, c: u64) {
        match self {
            // The bound check in `CsrStreamBuilder::push` guarantees the
            // narrow form is only chosen when every column fits.
            ColBuf::Narrow(v) => v.push(c as u32),
            ColBuf::Wide(v) => v.push(c),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            ColBuf::Narrow(v) => v.len(),
            ColBuf::Wide(v) => v.len(),
        }
    }

    /// Appends the columns to `out` in the canonical `u64` form.
    fn widen_into(self, out: &mut Vec<u64>) {
        match self {
            ColBuf::Narrow(v) => out.extend(v.iter().map(|&c| u64::from(c))),
            ColBuf::Wide(v) => out.extend_from_slice(&v),
        }
    }
}

/// One finished row range `[lo, hi)` of a matrix under construction, with
/// row offsets relative to the segment. Segments built over disjoint,
/// contiguous ranges concatenate into a full matrix via
/// [`Csr::from_row_segments`] — this is how the fused kernel-2 path builds
/// per-vertex-range pieces on separate workers and joins them without a
/// global fix-up pass.
#[derive(Debug)]
pub struct CsrSegment<T> {
    lo: u64,
    hi: u64,
    row_ptr: Vec<usize>,
    col_idx: ColBuf,
    values: Vec<T>,
}

impl<T> CsrSegment<T> {
    /// The row range `[lo, hi)` this segment covers.
    pub fn row_range(&self) -> (u64, u64) {
        (self.lo, self.hi)
    }

    /// Number of stored entries in the segment.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

/// Streaming CSR construction from a `(row, col)`-sorted stream with
/// duplicate accumulation — the one builder under both kernel-2 paths. It
/// holds only the open `(row, col, count)` cell plus the growing output
/// arrays, with narrow (`u32`) column indices during the build whenever
/// the column bound fits.
///
/// The stream must be sorted by `(row, col)` — exactly what a
/// `SortKey::StartEnd` merge produces, and what
/// [`Csr::from_sorted_edge_iter`] establishes row by row for a stream
/// sorted by start only — which is what makes dedup a constant-state
/// comparison.
#[derive(Debug)]
pub struct CsrStreamBuilder<T> {
    cols: u64,
    lo: u64,
    hi: u64,
    row_ptr: Vec<usize>,
    col_idx: ColBuf,
    values: Vec<T>,
    cur: Option<(u64, u64, T)>,
    closed: u64,
}

impl<T: Scalar> CsrStreamBuilder<T> {
    /// A builder for the full `n × n` matrix.
    pub fn new(n: u64) -> Self {
        Self::for_rows(n, 0, n)
    }

    /// A builder for rows `[lo, hi)` of an `n × n` matrix, producing a
    /// [`CsrSegment`].
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > n`.
    pub fn for_rows(n: u64, lo: u64, hi: u64) -> Self {
        assert!(lo <= hi && hi <= n, "row range [{lo}, {hi}) outside 0..{n}");
        Self {
            cols: n,
            lo,
            hi,
            row_ptr: vec![0],
            col_idx: ColBuf::new(n),
            values: Vec::new(),
            cur: None,
            closed: lo,
        }
    }

    /// Feeds one `(u, v)` pair; consecutive duplicates accumulate.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside the builder's row range, `v >= n`, or the
    /// stream is not sorted by `(row, col)`.
    #[inline]
    pub fn push(&mut self, u: u64, v: u64) {
        assert!(
            self.lo <= u && u < self.hi,
            "start vertex {u} outside row range [{}, {})",
            self.lo,
            self.hi
        );
        assert!(v < self.cols, "end vertex {v} out of bounds {}", self.cols);
        match &mut self.cur {
            Some((r, c, acc)) if *r == u && *c == v => {
                *acc = acc.add(T::ONE);
            }
            Some((prev_r, prev_c, prev_acc)) => {
                let (r, c, acc) = (*prev_r, *prev_c, *prev_acc);
                assert!(
                    (r, c) < (u, v),
                    "edges not sorted by (start, end): ({r}, {c}) before ({u}, {v})"
                );
                self.col_idx.push(c);
                self.values.push(acc);
                while self.closed < u {
                    self.row_ptr.push(self.col_idx.len());
                    self.closed += 1;
                }
                self.cur = Some((u, v, T::ONE));
            }
            None => {
                while self.closed < u {
                    self.row_ptr.push(self.col_idx.len());
                    self.closed += 1;
                }
                self.cur = Some((u, v, T::ONE));
            }
        }
    }

    fn seal(mut self) -> CsrSegment<T> {
        if let Some((_, c, acc)) = self.cur.take() {
            self.col_idx.push(c);
            self.values.push(acc);
        }
        while self.closed < self.hi {
            self.row_ptr.push(self.col_idx.len());
            self.closed += 1;
        }
        CsrSegment {
            lo: self.lo,
            hi: self.hi,
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            values: self.values,
        }
    }

    /// Finishes a range builder into its segment.
    pub fn finish_segment(self) -> CsrSegment<T> {
        self.seal()
    }

    /// Finishes a full-matrix builder (`lo == 0`, `hi == n`).
    ///
    /// # Panics
    ///
    /// Panics if the builder covers only a sub-range.
    pub fn finish(self) -> Csr<T> {
        let n = self.cols;
        assert!(
            self.lo == 0 && self.hi == n,
            "finish() needs a full-matrix builder; use finish_segment()"
        );
        Csr::from_row_segments(n, vec![self.seal()])
    }
}

impl<T: Scalar> Csr<T> {
    /// Concatenates segments covering `0..n` contiguously (in order, no
    /// gaps, no overlap) into the full `n × n` matrix. Row pointers are
    /// offset by the running entry count; columns widen from the narrow
    /// build form one segment at a time, straight into the output, so the
    /// transient overhead is one segment's narrow buffer rather than the
    /// whole matrix's. The first segment's value storage becomes the
    /// matrix's, so a single-segment build copies no values at all.
    ///
    /// # Panics
    ///
    /// Panics if the segments do not tile `0..n` exactly.
    pub fn from_row_segments(n: u64, segments: Vec<CsrSegment<T>>) -> Self {
        let nnz: usize = segments.iter().map(CsrSegment::nnz).sum();
        let mut row_ptr = Vec::with_capacity(n as usize + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<u64> = Vec::with_capacity(nnz);
        let mut values: Vec<T> = Vec::new();
        let mut next_row = 0u64;
        for seg in segments {
            assert!(
                seg.lo == next_row && seg.hi <= n,
                "segment [{}, {}) does not continue coverage at row {next_row}",
                seg.lo,
                seg.hi
            );
            let base = col_idx.len();
            row_ptr.extend(seg.row_ptr[1..].iter().map(|&p| base + p));
            seg.col_idx.widen_into(&mut col_idx);
            if values.is_empty() {
                values = seg.values;
                values.reserve_exact(nnz - values.len());
            } else {
                values.extend(seg.values);
            }
            next_row = seg.hi;
        }
        assert!(next_row == n, "segments cover only 0..{next_row} of 0..{n}");
        let m = Self {
            rows: n,
            cols: n,
            row_ptr,
            col_idx,
            values,
        };
        debug_assert_eq!(m.check_invariants(), Ok(()));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    fn sample() -> Csr<u64> {
        // [ . 2 . ]
        // [ 1 . 3 ]
        // [ . . . ]
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 2);
        coo.push(1, 0, 1);
        coo.push(1, 2, 3);
        coo.compress()
    }

    #[test]
    fn shape_and_access() {
        let m = sample();
        assert_eq!((m.rows(), m.cols(), m.nnz()), (3, 3, 3));
        assert_eq!(m.get(0, 1), Some(2));
        assert_eq!(m.get(1, 0), Some(1));
        assert_eq!(m.get(0, 0), None);
        assert_eq!(m.row(1).0, &[0, 2]);
        assert_eq!(m.row(2).0, &[] as &[u64]);
        assert_eq!(m.row_nnz(1), 2);
        m.check_invariants().unwrap();
    }

    #[test]
    fn iter_yields_row_major() {
        let m = sample();
        let entries: Vec<_> = m.iter().collect();
        assert_eq!(entries, vec![(0, 1, 2), (1, 0, 1), (1, 2, 3)]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let t = m.transpose();
        t.check_invariants().unwrap();
        assert_eq!(t.get(1, 0), Some(2));
        assert_eq!(t.get(0, 1), Some(1));
        assert_eq!(t.get(2, 1), Some(3));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn map_converts_and_drops_zeros() {
        let m = sample();
        let f = m.map(|_, _, v| if v > 1 { v as f64 } else { 0.0 });
        assert_eq!(f.nnz(), 2);
        assert_eq!(f.get(0, 1), Some(2.0));
        assert_eq!(f.get(1, 0), None);
        f.check_invariants().unwrap();
    }

    #[test]
    fn from_sorted_edge_iter_accumulates() {
        let edges = [(0u64, 2u64), (0, 1), (0, 2), (2, 0)];
        let m = Csr::<u64>::from_sorted_edge_iter(3, edges);
        assert_eq!(m.get(0, 2), Some(2));
        assert_eq!(m.get(0, 1), Some(1));
        assert_eq!(m.get(2, 0), Some(1));
        assert_eq!(m.value_sum(), 4);
        m.check_invariants().unwrap();
    }

    #[test]
    fn from_sorted_edge_iter_equals_coo_path() {
        // Pseudo-random edges, both construction paths must agree.
        let edges: Vec<(u64, u64)> = (0..500u64).map(|i| ((i * 7) % 16, (i * 13) % 16)).collect();
        let mut sorted = edges.clone();
        sorted.sort_by_key(|&(u, _)| u);
        let fast = Csr::<u64>::from_sorted_edge_iter(16, sorted);
        let slow = Coo::<u64>::from_edges(16, edges).compress();
        assert_eq!(fast, slow);
    }

    #[test]
    fn streaming_construction_handles_empty_and_single() {
        let empty = Csr::<u64>::from_sorted_edge_iter(4, std::iter::empty());
        assert_eq!(empty.nnz(), 0);
        let one = Csr::<u64>::from_sorted_edge_iter(4, [(2u64, 3u64)]);
        assert_eq!(one.get(2, 3), Some(1));
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn streaming_construction_rejects_unsorted() {
        let _ = Csr::<u64>::from_sorted_edge_iter(4, [(2u64, 0u64), (1, 0)]);
    }

    fn sorted_pairs(n: u64, count: u64) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(u64, u64)> = (0..count)
            .map(|i| ((i * 7 + 3) % n, (i * 13 + 1) % n))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn stream_builder_equals_coo_construction() {
        let pairs = sorted_pairs(32, 900);
        let oracle = Coo::<u64>::from_edges(32, pairs.iter().copied()).compress();
        let mut b = CsrStreamBuilder::<u64>::new(32);
        for &(u, v) in &pairs {
            b.push(u, v);
        }
        let m = b.finish();
        assert_eq!(m, oracle);
        m.check_invariants().unwrap();
    }

    #[test]
    fn stream_builder_handles_empty_all_duplicate_and_hub() {
        // Empty stream: the zero matrix.
        let empty = CsrStreamBuilder::<u64>::new(5).finish();
        assert_eq!(empty, Csr::<u64>::zero(5, 5));
        // All duplicates of one pair: a single accumulated cell.
        let mut dup = CsrStreamBuilder::<u64>::new(5);
        for _ in 0..40 {
            dup.push(2, 3);
        }
        let dup = dup.finish();
        assert_eq!(dup.nnz(), 1);
        assert_eq!(dup.get(2, 3), Some(40));
        // Single hub row holding every entry.
        let mut hub = CsrStreamBuilder::<u64>::new(8);
        for v in 0..8 {
            hub.push(4, v);
        }
        let hub = hub.finish();
        assert_eq!(hub.row_nnz(4), 8);
        assert_eq!(hub.nnz(), 8);
        hub.check_invariants().unwrap();
    }

    #[test]
    fn stream_builder_segments_concat_to_full_matrix() {
        let pairs = sorted_pairs(40, 1200);
        let oracle = Coo::<u64>::from_edges(40, pairs.iter().copied()).compress();
        for buckets in [1u64, 2, 3, 7, 40] {
            let mut segments = Vec::new();
            for b in 0..buckets {
                let lo = 40 * b / buckets;
                let hi = 40 * (b + 1) / buckets;
                let mut builder = CsrStreamBuilder::<u64>::for_rows(40, lo, hi);
                for &(u, v) in pairs.iter().filter(|&&(u, _)| lo <= u && u < hi) {
                    builder.push(u, v);
                }
                segments.push(builder.finish_segment());
            }
            let m = Csr::from_row_segments(40, segments);
            assert_eq!(m, oracle, "{buckets} buckets");
        }
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn stream_builder_rejects_unsorted() {
        let mut b = CsrStreamBuilder::<u64>::new(4);
        b.push(1, 3);
        b.push(1, 2);
    }

    #[test]
    #[should_panic(expected = "outside row range")]
    fn stream_builder_rejects_rows_outside_range() {
        let mut b = CsrStreamBuilder::<u64>::for_rows(8, 2, 4);
        b.push(5, 0);
    }

    #[test]
    #[should_panic(expected = "does not continue coverage")]
    fn from_row_segments_rejects_gaps() {
        let a = CsrStreamBuilder::<u64>::for_rows(8, 0, 3).finish_segment();
        let c = CsrStreamBuilder::<u64>::for_rows(8, 5, 8).finish_segment();
        let _ = Csr::from_row_segments(8, vec![a, c]);
    }

    #[test]
    fn col_buf_narrow_for_small_bounds_wide_above_u32() {
        assert!(matches!(ColBuf::new(1 << 20), ColBuf::Narrow(_)));
        assert!(matches!(
            ColBuf::new(u64::from(u32::MAX) + 1),
            ColBuf::Narrow(_)
        ));
        assert!(matches!(
            ColBuf::new(u64::from(u32::MAX) + 2),
            ColBuf::Wide(_)
        ));
        let mut buf = ColBuf::new(1 << 62);
        buf.push(1 << 40);
        let mut out = vec![3];
        buf.widen_into(&mut out);
        assert_eq!(out, vec![3, 1u64 << 40]);
        let mut narrow = ColBuf::new(1 << 20);
        narrow.push(7);
        narrow.widen_into(&mut out);
        assert_eq!(out, vec![3, 1u64 << 40, 7]);
    }

    #[test]
    fn zero_matrix() {
        let m = Csr::<f64>::zero(4, 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!((m.rows(), m.cols()), (4, 5));
        assert_eq!(m.value_sum(), 0.0);
        m.check_invariants().unwrap();
        assert_eq!(m.transpose().rows(), 5);
    }

    #[test]
    fn value_sum_accumulates() {
        assert_eq!(sample().value_sum(), 6);
    }
}
