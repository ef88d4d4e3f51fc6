//! Coordinate-format (triplet) matrix assembly.
//!
//! The Matlab reference builds the adjacency matrix with
//! `A = sparse(u, v, 1, N, N)`, whose semantics are: duplicate `(u, v)`
//! pairs *accumulate*. [`Coo`] reproduces exactly that: push triplets in any
//! order, then [`Coo::compress`] sorts, merges duplicates by addition, and
//! drops explicit zeros.

use crate::{Csr, Scalar};

/// A matrix under assembly: unordered (row, col, value) triplets.
#[derive(Debug, Clone, PartialEq)]
pub struct Coo<T> {
    rows: u64,
    cols: u64,
    triplets: Vec<(u64, u64, T)>,
}

impl<T: Scalar> Coo<T> {
    /// Creates an empty `rows × cols` assembly.
    pub fn new(rows: u64, cols: u64) -> Self {
        Self {
            rows,
            cols,
            triplets: Vec::new(),
        }
    }

    /// Creates an assembly with pre-reserved capacity.
    pub fn with_capacity(rows: u64, cols: u64, capacity: usize) -> Self {
        Self {
            rows,
            cols,
            triplets: Vec::with_capacity(capacity),
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

    /// Number of triplets pushed so far (before duplicate merging).
    pub fn len(&self) -> usize {
        self.triplets.len()
    }

    /// True if no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.triplets.is_empty()
    }

    /// Adds `value` at `(row, col)`; duplicates accumulate at compression.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn push(&mut self, row: u64, col: u64, value: T) {
        assert!(
            row < self.rows && col < self.cols,
            "({row}, {col}) outside {}x{}",
            self.rows,
            self.cols
        );
        self.triplets.push((row, col, value));
    }

    /// `A = sparse(u, v, 1, N, N)`: one unit entry per edge.
    pub fn from_edges(n: u64, edges: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let iter = edges.into_iter();
        let mut coo = Self::with_capacity(n, n, iter.size_hint().0);
        for (u, v) in iter {
            coo.push(u, v, T::ONE);
        }
        coo
    }

    /// Sorts, merges duplicates by [`Scalar::add`], drops zeros, and builds
    /// the CSR matrix.
    pub fn compress(mut self) -> Csr<T> {
        self.triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Fold each run of equal (row, col) into its first entry, left to
        // right, in the one sorted vector: f64 sums keep their bits and no
        // second triplet vector is held.
        self.triplets.dedup_by(|next, kept| {
            let same = next.0 == kept.0 && next.1 == kept.1;
            if same {
                kept.2 = kept.2.add(next.2);
            }
            same
        });
        self.triplets.retain(|&(_, _, v)| v != T::ZERO);
        Csr::from_sorted_dedup_triplets(self.rows, self.cols, self.triplets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_accumulate() {
        let mut coo = Coo::<u64>::new(3, 3);
        coo.push(1, 2, 1);
        coo.push(1, 2, 1);
        coo.push(0, 0, 1);
        let csr = coo.compress();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(1, 2), Some(2));
        assert_eq!(csr.get(0, 0), Some(1));
        assert_eq!(csr.get(2, 2), None);
    }

    #[test]
    fn zeros_are_dropped() {
        let mut coo = Coo::<f64>::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, -1.0); // cancels to explicit zero
        coo.push(1, 1, 2.0);
        let csr = coo.compress();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 0), None);
    }

    #[test]
    fn from_edges_counts_multiplicity() {
        let edges = [(0u64, 1u64), (0, 1), (0, 1), (2, 0)];
        let csr = Coo::<u64>::from_edges(3, edges).compress();
        assert_eq!(csr.get(0, 1), Some(3));
        assert_eq!(csr.get(2, 0), Some(1));
        // Sum of values equals the raw edge count M — the invariant the
        // paper states for kernel 2.
        assert_eq!(csr.values().iter().sum::<u64>(), 4);
    }

    #[test]
    fn empty_assembly_compresses_to_empty_matrix() {
        let csr = Coo::<u64>::new(4, 4).compress();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.rows(), 4);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_push_panics() {
        Coo::<u64>::new(2, 2).push(2, 0, 1);
    }

    #[test]
    fn accessors() {
        let mut coo = Coo::<u64>::new(5, 7);
        assert!(coo.is_empty());
        assert_eq!((coo.rows(), coo.cols()), (5, 7));
        coo.push(0, 0, 1);
        assert_eq!(coo.len(), 1);
        assert!(!coo.is_empty());
    }
}
