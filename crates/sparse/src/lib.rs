//! Sparse linear algebra for kernels 2 and 3 of the PageRank Pipeline
//! Benchmark.
//!
//! Kernel 2 builds an `N × N` sparse adjacency matrix from the sorted edge
//! list (accumulating duplicate edges as counts), computes column sums,
//! zeroes the super-node and leaf columns, and row-normalizes; kernel 3 runs
//! 20 PageRank iterations of a row-vector × matrix product. Everything those
//! steps need is implemented here from scratch:
//!
//! * [`Coo`] — triplet accumulation from edge lists;
//! * [`Csr`] — compressed sparse row storage, generic over the value type
//!   (`u64` counts before normalization, `f64` weights after — the paper's
//!   §V "are floating point values required?" question is answered by
//!   keeping both), with construction fast paths for sorted input;
//! * [`ops`] — column/row sums, structural filtering, row normalization;
//! * [`spmv`] — the row-vector × matrix product in both *scatter* (CSR, as
//!   written in the paper) and *gather* (transposed, parallelizable) forms,
//!   including nnz-balanced partitioned kernels with a fused PageRank
//!   epilogue;
//! * [`narrow`] — the `u32`-column-index CSR form ([`Csr32`]) that halves
//!   index bandwidth at every paper scale;
//! * [`bitset`] — the frontier/visited bitmap the `ppbench-algo`
//!   graph-traversal workloads share;
//! * [`vector`] — the dense-vector helpers the PageRank update needs;
//! * [`eigen`] — matrix-free power iteration, used to validate kernel 3
//!   against the dominant eigenvector of `c·Aᵀ + (1−c)/N·𝟙` exactly as the
//!   paper prescribes;
//! * [`graphblas`] — a miniature GraphBLAS-style layer (semirings, vxm,
//!   element-wise ops, reductions), reflecting the paper's observation that
//!   "the linear algebraic nature of PageRank makes it well suited to being
//!   implemented using the GraphBLAS standard";
//! * [`dense`] — a small dense matrix for oracle computations in tests.

//!
//! # Example
//!
//! ```
//! use ppbench_sparse::{ops, spmv, Coo};
//!
//! // Build a 2-cycle, normalize rows, multiply.
//! let mut coo = Coo::<u64>::new(2, 2);
//! coo.push(0, 1, 1);
//! coo.push(1, 0, 1);
//! let a = ops::normalize_rows(coo.compress());
//! assert_eq!(spmv::vxm(&[0.25, 0.75], &a), vec![0.75, 0.25]);
//! ```

pub mod bitset;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod eigen;
pub mod graphblas;
pub mod narrow;
pub mod ops;
pub mod spmv;
pub mod vector;

pub use bitset::BitSet;
pub use coo::Coo;
pub use csr::{ColIndex, Csr, CsrSegment, CsrStreamBuilder, CsrView};
pub use dense::Dense;
pub use narrow::Csr32;

/// Value types storable in a sparse matrix.
///
/// The only algebra construction needs is addition (to merge duplicate
/// entries); everything richer lives in [`graphblas`] semirings.
pub trait Scalar: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Additive identity; entries equal to `ZERO` are considered explicit
    /// zeros and may be dropped by construction.
    const ZERO: Self;
    /// The canonical "one edge" value.
    const ONE: Self;
    /// Addition, used to accumulate duplicate entries.
    fn add(self, other: Self) -> Self;
}

impl Scalar for u64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    fn add(self, other: Self) -> Self {
        self + other
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    fn add(self, other: Self) -> Self {
        self + other
    }
}

impl Scalar for u32 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    fn add(self, other: Self) -> Self {
        self + other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_identities() {
        assert_eq!(u64::ZERO.add(u64::ONE), 1);
        assert_eq!(f64::ZERO.add(f64::ONE), 1.0);
        assert_eq!(u32::ONE.add(u32::ONE), 2);
    }
}
