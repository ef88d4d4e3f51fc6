//! Small dense matrices: the test oracle and the paper's eigenvector check.
//!
//! "For small enough problems where the above dense matrix fits into
//! memory, the first eigenvector can be computed" — this module holds that
//! dense matrix (`c·Aᵀ + (1−c)/N`) and the oracle products the tests
//! compare the sparse kernels against.

use crate::{Csr, Scalar};

/// A row-major dense `rows × cols` matrix of doubles.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Dense {
    /// An all-zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A constant-filled matrix.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Densifies a sparse matrix (converting values to `f64` via
    /// [`DenseConvert`]).
    pub fn from_csr<T: Scalar + DenseConvert>(a: &Csr<T>) -> Self {
        let mut d = Self::zero(a.rows() as usize, a.cols() as usize);
        for (r, c, v) in a.iter() {
            *d.get_mut(r as usize, c as usize) = v.to_f64();
        }
        d
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// Transpose.
    pub fn transpose(&self) -> Dense {
        let mut t = Dense::zero(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                *t.get_mut(c, r) = self.get(r, c);
            }
        }
        t
    }

    /// `self * alpha`, element-wise, in place.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Adds `delta` to every element in place (the `+ (1−c)/N` rank-one
    /// shift of the PageRank matrix).
    pub fn shift(&mut self, delta: f64) {
        for x in &mut self.data {
            *x += delta;
        }
    }

    /// `y = A x` (column vector).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec length mismatch");
        (0..self.rows)
            .map(|r| (0..self.cols).map(|c| self.get(r, c) * x[c]).sum())
            .collect()
    }

    /// `y = x A` (row vector).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn vec_mat(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "vec_mat length mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for (c, o) in out.iter_mut().enumerate() {
                *o += xr * self.get(r, c);
            }
        }
        out
    }

    /// Builds the paper's validation matrix `c·Aᵀ + (1−c)/N·𝟙` from a
    /// (normalized) sparse adjacency matrix.
    pub fn pagerank_matrix(a: &Csr<f64>, damping: f64) -> Dense {
        let n = a.rows() as usize;
        let mut m = Dense::from_csr(&a.transpose());
        m.scale(damping);
        m.shift((1.0 - damping) / n as f64);
        m
    }
}

/// Conversion of sparse scalar types into doubles for densification.
pub trait DenseConvert {
    /// The value as an `f64`.
    fn to_f64(self) -> f64;
}

impl DenseConvert for f64 {
    fn to_f64(self) -> f64 {
        self
    }
}

impl DenseConvert for u64 {
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl DenseConvert for u32 {
    fn to_f64(self) -> f64 {
        self as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    #[test]
    fn from_csr_and_access() {
        let mut coo = Coo::<u64>::new(2, 3);
        coo.push(0, 1, 5);
        coo.push(1, 2, 7);
        let d = Dense::from_csr(&coo.compress());
        assert_eq!((d.rows(), d.cols()), (2, 3));
        assert_eq!(d.get(0, 1), 5.0);
        assert_eq!(d.get(1, 2), 7.0);
        assert_eq!(d.get(0, 0), 0.0);
    }

    #[test]
    fn matvec_and_vec_mat() {
        // [1 2]
        // [3 4]
        let mut d = Dense::zero(2, 2);
        *d.get_mut(0, 0) = 1.0;
        *d.get_mut(0, 1) = 2.0;
        *d.get_mut(1, 0) = 3.0;
        *d.get_mut(1, 1) = 4.0;
        assert_eq!(d.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(d.vec_mat(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn vec_mat_is_matvec_of_transpose() {
        let mut d = Dense::zero(3, 2);
        for (i, v) in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0].iter().enumerate() {
            d.data[i] = *v;
        }
        let x = [1.0, 0.5, 2.0];
        assert_eq!(d.vec_mat(&x), d.transpose().matvec(&x));
    }

    #[test]
    fn scale_and_shift() {
        let mut d = Dense::filled(2, 2, 1.0);
        d.scale(3.0);
        d.shift(0.5);
        assert_eq!(d.get(1, 1), 3.5);
    }

    #[test]
    fn pagerank_matrix_columns_sum_to_one_for_stochastic_a() {
        // Row-stochastic A: every column of c·Aᵀ + (1−c)/N sums to 1.
        let mut coo = Coo::<u64>::new(3, 3);
        coo.push(0, 1, 1);
        coo.push(1, 0, 1);
        coo.push(1, 2, 1);
        coo.push(2, 2, 1);
        let a = crate::ops::normalize_rows(coo.compress());
        let m = Dense::pagerank_matrix(&a, 0.85);
        for c in 0..3 {
            let col_sum: f64 = (0..3).map(|r| m.get(r, c)).sum();
            assert!(
                (col_sum - 1.0).abs() < 1e-12,
                "column {c} sums to {col_sum}"
            );
        }
    }
}
