//! Sparse matrix–vector products — the heart of kernel 3.
//!
//! The paper writes the PageRank update as a *row vector times matrix*
//! product `r * A`. On CSR storage that is a **scatter**: each row `u`
//! contributes `r[u] · A[u, v]` to every `out[v]` it points at. The
//! alternative is to precompute `Aᵀ` and **gather**: `out[v]` is a dot
//! product over the incoming edges of `v`. The two forms are numerically
//! reordered but algebraically identical; the gather form has no write
//! contention and is what the rayon-parallel kernel uses. The serial
//! backends scatter ([`vxm_into`]); the gather is [`mxv`] over a
//! precomputed transpose, which is also what the ablation bench times
//! against the scatter.
//!
//! The hot-path kernels at the bottom of this module go further, following
//! the GAP Benchmark Suite playbook for power-law graphs:
//!
//! * [`balanced_boundaries`] partitions rows into chunks of ~equal
//!   *nonzero* span (binary search on the `row_ptr` offsets), so one hub
//!   row cannot serialize a whole chunk the way equal-row partitioning
//!   does;
//! * [`step_fused`] runs the partitioned gather into a caller-provided
//!   buffer — no per-iteration allocation — and in the same pass applies
//!   the PageRank epilogue (`c·x + teleport (+ dangling term)`) and
//!   accumulates the L1 delta and the new mass, collapsing the three
//!   memory sweeps of the naive iteration (multiply, scale-and-shift,
//!   distance) into one.
//!
//! It is generic over the column-index width via [`CsrView`], so the
//! narrow `u32` form ([`crate::Csr32`]) shares this implementation.

use rayon::prelude::*;

use crate::csr::{ColIndex, CsrView};
use crate::Csr;

/// `out = x * A` (row vector × matrix) via CSR scatter.
///
/// # Panics
///
/// Panics if `x.len() != A.rows()`.
pub fn vxm(x: &[f64], a: &Csr<f64>) -> Vec<f64> {
    let mut out = vec![0.0; a.cols() as usize];
    vxm_into(x, a, &mut out);
    out
}

/// Scatter form writing into a caller-provided buffer (zeroed first).
///
/// # Panics
///
/// Panics if `x.len() != A.rows()` or `out.len() != A.cols()`.
pub fn vxm_into(x: &[f64], a: &Csr<f64>, out: &mut [f64]) {
    assert_eq!(
        x.len() as u64,
        a.rows(),
        "vector length must equal row count"
    );
    assert_eq!(
        out.len() as u64,
        a.cols(),
        "output length must equal column count"
    );
    out.fill(0.0);
    for (u, &xu) in x.iter().enumerate() {
        if xu == 0.0 {
            continue;
        }
        let (cols, vals) = a.row(u as u64);
        for (&v, &w) in cols.iter().zip(vals) {
            out[v as usize] += xu * w;
        }
    }
}

/// `out = A * x` (matrix × column vector) via CSR gather.
///
/// # Panics
///
/// Panics if `x.len() != A.cols()`.
pub fn mxv(a: &Csr<f64>, x: &[f64]) -> Vec<f64> {
    assert_eq!(
        x.len() as u64,
        a.cols(),
        "vector length must equal column count"
    );
    // Shares the unrolled [`gather_row`] dot with [`step_fused`], so both
    // gather forms produce bit-identical rows.
    let view = a.view();
    (0..a.rows() as usize)
        .map(|r| gather_row(x, &view, r))
        .collect()
}

/// Partitions rows `0..rows` into `chunks` contiguous ranges of roughly
/// equal *nonzero* count, returned as a boundary list of length
/// `chunks + 1` with `b[0] = 0` and `b[chunks] = rows`.
///
/// Each interior boundary is found by binary search on the `row_ptr`
/// offsets for the ideal nnz split point, so a handful of hub rows in a
/// power-law graph land in chunks of their own instead of dragging a
/// thousand light rows with them. Boundaries are non-decreasing; a chunk
/// may be empty when a single row holds more than `nnz / chunks`
/// nonzeros.
pub fn balanced_boundaries(row_ptr: &[usize], chunks: usize) -> Vec<usize> {
    assert!(!row_ptr.is_empty(), "row_ptr must have length rows + 1");
    let rows = row_ptr.len() - 1;
    let chunks = chunks.max(1);
    let nnz = row_ptr[rows];
    let mut bounds = Vec::with_capacity(chunks + 1);
    bounds.push(0usize);
    let mut prev = 0usize;
    for i in 1..chunks {
        let target = (nnz as u128 * i as u128 / chunks as u128) as usize;
        let split = row_ptr.partition_point(|&p| p < target).min(rows);
        prev = split.max(prev);
        bounds.push(prev);
    }
    bounds.push(rows);
    bounds
}

/// Splits `out` into per-chunk mutable slices according to `boundaries`,
/// pairing each with its starting row, so the parallel kernels can write
/// disjoint regions without synchronization (and without `unsafe`).
fn chunk_slices<'a>(out: &'a mut [f64], boundaries: &[usize]) -> Vec<(&'a mut [f64], usize)> {
    assert!(boundaries.len() >= 2, "need at least one chunk");
    assert_eq!(boundaries[0], 0, "boundaries must start at row 0");
    assert_eq!(
        boundaries[boundaries.len() - 1],
        out.len(),
        "boundaries must end at the row count"
    );
    let mut parts = Vec::with_capacity(boundaries.len() - 1);
    let mut rest = out;
    for w in boundaries.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        assert!(lo <= hi, "boundaries must be non-decreasing");
        let (head, tail) = rest.split_at_mut(hi - lo);
        parts.push((head, lo));
        rest = tail;
    }
    parts
}

/// Dot product of row `r` of the transposed matrix with `x` — the gather
/// form of one output element.
///
/// Four independent accumulators break the loop-carried add dependency, so
/// the gathers for a heavy row overlap instead of serializing on one
/// register; callers document the resulting (deterministic) reassociation
/// under their 1e-12 tolerance.
#[inline(always)]
fn gather_row<I: ColIndex>(x: &[f64], at: &CsrView<'_, I>, r: usize) -> f64 {
    let (cols, vals) = at.row(r);
    let c4 = cols.chunks_exact(4);
    let v4 = vals.chunks_exact(4);
    let (c_tail, v_tail) = (c4.remainder(), v4.remainder());
    let mut acc = [0.0f64; 4];
    for (c, v) in c4.zip(v4) {
        acc[0] += x[c[0].to_index()] * v[0];
        acc[1] += x[c[1].to_index()] * v[1];
        acc[2] += x[c[2].to_index()] * v[2];
        acc[3] += x[c[3].to_index()] * v[3];
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&c, &w) in c_tail.iter().zip(v_tail) {
        sum += x[c.to_index()] * w;
    }
    sum
}

/// The per-iteration PageRank coefficients [`step_fused`] applies on top
/// of the raw product.
///
/// With `m = (x * A)[v]`, the new rank is
/// `damping · m + teleport + spread (+ damping · x[v] if sink[v])` — the
/// exact update each [`DanglingStrategy`] induces, with the strategy
/// encoded by which terms are zero/absent:
///
/// * *Omit*: `spread = 0`, `sink = None`;
/// * *Redistribute*: `spread = damping · dangling_mass / n`, `sink = None`;
/// * *Sink*: `spread = 0`, `sink = Some(dangling mask)`.
///
/// `DanglingStrategy` lives in `ppbench-core`; this struct is the
/// algebra-only residue of it that the sparse layer needs.
#[derive(Debug, Clone, Copy)]
pub struct StepCoeffs<'a> {
    /// The damping factor `c`.
    pub damping: f64,
    /// The uniform teleport term `(1 − c) · mass / n`.
    pub teleport: f64,
    /// The uniform dangling redistribution term, `0.0` when unused.
    pub spread: f64,
    /// Dangling-row mask for the self-loop (sink) strategy, `None`
    /// otherwise. Indexed by output row.
    pub sink: Option<&'a [bool]>,
}

/// What one fused step reports back: the L1 distance between the new and
/// old rank vectors, and the new vector's total mass — both accumulated
/// during the single write sweep, so the caller never re-reads `out`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// `Σ |out[v] − x[v]|`.
    pub delta: f64,
    /// `Σ out[v]`.
    pub mass: f64,
}

/// One fused PageRank step: nnz-balanced parallel gather plus epilogue
/// plus L1-delta/mass accumulation, in a single pass over `out`.
///
/// Per-chunk partial sums are combined in chunk order, so the result is
/// deterministic for a fixed boundary list; different chunk counts
/// reassociate the sums within the documented 1e-12 tolerance.
///
/// # Panics
///
/// Panics if the matrix is not square, vector lengths disagree with it,
/// the sink mask (when present) has the wrong length, or the boundary
/// list does not span `0..at.rows()`.
pub fn step_fused<I: ColIndex>(
    x: &[f64],
    at: &CsrView<'_, I>,
    out: &mut [f64],
    coeffs: &StepCoeffs<'_>,
    boundaries: &[usize],
) -> StepOutcome {
    assert_eq!(
        at.rows(),
        at.cols(),
        "fused PageRank step needs a square matrix"
    );
    assert_eq!(
        x.len() as u64,
        at.cols(),
        "vector length must equal A's row count"
    );
    assert_eq!(out.len(), x.len(), "output length must match input");
    if let Some(mask) = coeffs.sink {
        assert_eq!(mask.len(), x.len(), "sink mask length must match");
    }
    let partials: Vec<(f64, f64)> = chunk_slices(out, boundaries)
        .into_par_iter()
        .map(|(slice, lo)| {
            let mut delta = 0.0;
            let mut mass = 0.0;
            for (k, o) in slice.iter_mut().enumerate() {
                let v = lo + k;
                let mut next = coeffs.damping * gather_row(x, at, v) + coeffs.teleport;
                next += coeffs.spread;
                if let Some(mask) = coeffs.sink {
                    if mask[v] {
                        next += coeffs.damping * x[v];
                    }
                }
                delta += (next - x[v]).abs();
                mass += next;
                *o = next;
            }
            (delta, mass)
        })
        .collect();
    let mut outcome = StepOutcome {
        delta: 0.0,
        mass: 0.0,
    };
    for (d, m) in partials {
        outcome.delta += d;
        outcome.mass += m;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ops, Coo};

    /// [ .5 .5  . ]
    /// [  .  .  1 ]
    /// [ 1.  .  . ]
    fn stochastic() -> Csr<f64> {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1u64);
        coo.push(0, 1, 1);
        coo.push(1, 2, 2);
        coo.push(2, 0, 3);
        ops::normalize_rows(&coo.compress())
    }

    #[test]
    fn vxm_known_answer() {
        let a = stochastic();
        let x = [1.0, 2.0, 4.0];
        // out[0] = 1*.5 + 4*1 = 4.5 ; out[1] = 1*.5 ; out[2] = 2*1
        assert_eq!(vxm(&x, &a), vec![4.5, 0.5, 2.0]);
    }

    #[test]
    fn gather_forms_agree_with_scatter() {
        let a = stochastic();
        let at = a.transpose();
        let x = [0.3, 0.5, 0.2];
        let scatter = vxm(&x, &a);
        let gather = mxv(&at, &x);
        for i in 0..3 {
            assert!((scatter[i] - gather[i]).abs() < 1e-15);
        }
    }

    #[test]
    fn stochastic_matrix_preserves_mass() {
        let a = stochastic();
        let x = [0.2, 0.3, 0.5];
        let y = vxm(&x, &a);
        assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mxv_known_answer() {
        let a = stochastic();
        let x = [1.0, 2.0, 3.0];
        // y[r] = Σ A[r, c] x[c]
        assert_eq!(mxv(&a, &x), vec![1.5, 3.0, 1.0]);
    }

    #[test]
    fn empty_rows_contribute_nothing() {
        let mut coo = Coo::<u64>::new(3, 3);
        coo.push(0, 1, 1);
        let a = ops::normalize_rows(&coo.compress());
        let y = vxm(&[1.0, 1.0, 1.0], &a);
        assert_eq!(y, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn zero_matrix_maps_to_zero() {
        let a = Csr::<f64>::zero(4, 4);
        assert_eq!(vxm(&[1.0; 4], &a), vec![0.0; 4]);
        assert_eq!(mxv(&a, &[1.0; 4]), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "must equal row count")]
    fn vxm_length_checked() {
        let _ = vxm(&[1.0, 2.0], &stochastic());
    }

    /// A skewed 6-vertex matrix: vertex 0 is a hub holding most nonzeros.
    fn skewed() -> Csr<f64> {
        let mut coo = Coo::<u64>::new(6, 6);
        for c in 1..6 {
            coo.push(0, c, 1); // hub out-edges
            coo.push(c, 0, 1); // and everything points back at the hub
        }
        coo.push(2, 3, 1);
        ops::normalize_rows(&coo.compress())
    }

    #[test]
    fn balanced_boundaries_span_all_rows_and_balance_nnz() {
        let at = skewed().transpose();
        for chunks in 1..=8 {
            let b = balanced_boundaries(at.row_ptr(), chunks);
            assert_eq!(b.len(), chunks + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), at.rows() as usize);
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
        // On a strongly skewed row_ptr, nnz-balancing must not put every
        // row in the first chunk the way equal-row splitting of the
        // prefix-heavy matrix would: with 2 chunks, the hub row's span
        // (5 of 11 nonzeros in Aᵀ column 0's row) ends chunk 1 early.
        let b = balanced_boundaries(at.row_ptr(), 2);
        let nnz = at.nnz();
        let first_span = at.row_ptr()[b[1]] - at.row_ptr()[b[0]];
        assert!(
            first_span <= nnz.div_ceil(2) + at.row_ptr()[1],
            "first chunk holds {first_span} of {nnz} nonzeros"
        );
    }

    #[test]
    fn balanced_boundaries_handle_empty_and_zero_nnz() {
        assert_eq!(balanced_boundaries(&[0], 4), vec![0, 0, 0, 0, 0]);
        assert_eq!(balanced_boundaries(&[0, 0, 0], 2), vec![0, 0, 2]);
    }

    #[test]
    fn step_fused_matches_unfused_pipeline() {
        let a = skewed();
        let at = a.transpose();
        let n = 6usize;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) / 21.0).collect();
        let c = 0.85;
        let mass: f64 = x.iter().sum();
        let teleport = (1.0 - c) * mass / n as f64;
        // Unfused oracle: multiply, then scale-shift, then delta/mass.
        let mx = vxm(&x, &a);
        let expect: Vec<f64> = mx.iter().map(|&m| c * m + teleport).collect();
        let expect_delta: f64 = expect.iter().zip(&x).map(|(a, b)| (a - b).abs()).sum();
        let expect_mass: f64 = expect.iter().sum();
        let coeffs = StepCoeffs {
            damping: c,
            teleport,
            spread: 0.0,
            sink: None,
        };
        for chunks in [1usize, 3, 6] {
            let b = balanced_boundaries(at.row_ptr(), chunks);
            let mut out = vec![0.0; n];
            let got = step_fused(&x, &at.view(), &mut out, &coeffs, &b);
            for v in 0..n {
                assert!((out[v] - expect[v]).abs() < 1e-14);
            }
            assert!((got.delta - expect_delta).abs() < 1e-13);
            assert!((got.mass - expect_mass).abs() < 1e-13);
        }
    }

    #[test]
    fn step_fused_sink_term_adds_damped_self_rank() {
        // Row 1 dangles: strategy Sink keeps its mass in place.
        let mut coo = Coo::<u64>::new(3, 3);
        coo.push(0, 1, 1);
        coo.push(2, 0, 1);
        let a = ops::normalize_rows(&coo.compress());
        let at = a.transpose();
        let x = [0.2, 0.3, 0.5];
        let c = 0.85;
        let teleport = (1.0 - c) * 1.0 / 3.0;
        let dangling = [false, true, false];
        let coeffs = StepCoeffs {
            damping: c,
            teleport,
            spread: 0.0,
            sink: Some(&dangling),
        };
        let b = balanced_boundaries(at.row_ptr(), 2);
        let mut out = vec![0.0; 3];
        let got = step_fused(&x, &at.view(), &mut out, &coeffs, &b);
        let mx = vxm(&x, &a);
        for v in 0..3 {
            let want = c * mx[v] + teleport + if dangling[v] { c * x[v] } else { 0.0 };
            assert!((out[v] - want).abs() < 1e-15);
        }
        // Sink conserves mass: everything the dangling row would lose
        // stays with it, so total stays 1 up to rounding.
        assert!((got.mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fused_step_works_on_the_empty_matrix() {
        let a = Csr::<f64>::zero(0, 0);
        let at = a.transpose();
        let b = balanced_boundaries(at.row_ptr(), 4);
        let mut out: Vec<f64> = Vec::new();
        let got = step_fused(
            &[],
            &at.view(),
            &mut out,
            &StepCoeffs {
                damping: 0.85,
                teleport: 0.0,
                spread: 0.0,
                sink: None,
            },
            &b,
        );
        assert_eq!(
            got,
            StepOutcome {
                delta: 0.0,
                mass: 0.0
            }
        );
    }

    #[test]
    fn random_matrix_scatter_equals_dense_oracle() {
        use crate::dense::Dense;
        let mut coo = Coo::<f64>::new(8, 8);
        let mut state = 12345u64;
        for _ in 0..32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) % 8;
            let c = (state >> 13) % 8;
            let v = ((state >> 3) % 100) as f64 / 10.0 + 0.1;
            coo.push(r, c, v);
        }
        let a = coo.compress();
        let dense = Dense::from_csr(&a);
        let x: Vec<f64> = (0..8).map(|i| i as f64 * 0.25).collect();
        let sparse_result = vxm(&x, &a);
        let dense_result = dense.vec_mat(&x);
        for i in 0..8 {
            assert!((sparse_result[i] - dense_result[i]).abs() < 1e-12);
        }
    }
}
