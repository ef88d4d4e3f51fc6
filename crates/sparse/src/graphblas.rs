//! A miniature GraphBLAS-style layer.
//!
//! The paper notes that "the linear algebraic nature of PageRank makes it
//! well suited to being implemented using the GraphBLAS standard" and lists
//! GraphBLAS reference implementations as future work. This module provides
//! the minimal slice of that standard the benchmark exercises — enough to
//! write kernel 3 as semiring algebra and to build the BFS example:
//!
//! * [`Semiring`] — (⊕, ⊗) pairs over a domain, with the classic instances
//!   [`PlusTimes`], [`MinPlus`] (shortest paths), [`MaxTimes`], and
//!   [`OrAnd`] (reachability);
//! * [`vxm`] / [`mxv`] — vector–matrix products over any semiring;
//! * [`ewise_add`] / [`ewise_mul`] — element-wise vector combination;
//! * [`reduce`] — ⊕-reduction of a vector;
//! * [`apply`] — unary operator applied to every vector element;
//! * [`select`] — entry filtering on a matrix (GraphBLAS `GrB_select`).

use crate::{Csr, Scalar};

/// An algebraic semiring: a domain with an associative, commutative ⊕ (with
/// identity [`Semiring::zero`]) and an associative ⊗ that distributes over
/// it.
pub trait Semiring {
    /// Element domain. Bounded by [`Scalar`] so semiring vectors and
    /// matrices share the [`Csr`] storage (whose structural zero is the
    /// scalar's additive zero, not necessarily the semiring's ⊕ identity).
    type T: Scalar;

    /// The ⊕ identity.
    fn zero() -> Self::T;
    /// The ⊕ operation.
    fn add(a: Self::T, b: Self::T) -> Self::T;
    /// The ⊗ operation.
    fn mul(a: Self::T, b: Self::T) -> Self::T;
}

/// The arithmetic semiring (ℝ, +, ×): ordinary linear algebra, PageRank.
pub struct PlusTimes;

impl Semiring for PlusTimes {
    type T = f64;
    fn zero() -> f64 {
        0.0
    }
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
}

/// The tropical semiring (ℝ∪{∞}, min, +): single-source shortest paths.
pub struct MinPlus;

impl Semiring for MinPlus {
    type T = f64;
    fn zero() -> f64 {
        f64::INFINITY
    }
    fn add(a: f64, b: f64) -> f64 {
        a.min(b)
    }
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }
}

/// (ℝ≥0, max, ×): widest-path / best-probability problems.
pub struct MaxTimes;

impl Semiring for MaxTimes {
    type T = f64;
    fn zero() -> f64 {
        0.0
    }
    fn add(a: f64, b: f64) -> f64 {
        a.max(b)
    }
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
}

/// The boolean semiring ({0,1}, ∨, ∧): reachability and BFS frontiers.
pub struct OrAnd;

impl Semiring for OrAnd {
    type T = bool;
    fn zero() -> bool {
        false
    }
    fn add(a: bool, b: bool) -> bool {
        a || b
    }
    fn mul(a: bool, b: bool) -> bool {
        a && b
    }
}

impl Scalar for bool {
    const ZERO: Self = false;
    const ONE: Self = true;
    fn add(self, other: Self) -> Self {
        self || other
    }
}

/// `w = u ⊕.⊗ A` (row vector × matrix over the semiring `S`).
///
/// # Panics
///
/// Panics if `u.len() != a.rows()`.
pub fn vxm<S: Semiring>(u: &[S::T], a: &Csr<S::T>) -> Vec<S::T> {
    assert_eq!(u.len() as u64, a.rows(), "vxm length mismatch");
    let mut out = vec![S::zero(); a.cols() as usize];
    for (r, &ur) in u.iter().enumerate() {
        if ur == S::zero() {
            continue;
        }
        let (cols, vals) = a.row(r as u64);
        for (&c, &v) in cols.iter().zip(vals) {
            out[c as usize] = S::add(out[c as usize], S::mul(ur, v));
        }
    }
    out
}

/// `w = A ⊕.⊗ u` (matrix × column vector over the semiring `S`).
///
/// # Panics
///
/// Panics if `u.len() != a.cols()`.
pub fn mxv<S: Semiring>(a: &Csr<S::T>, u: &[S::T]) -> Vec<S::T> {
    assert_eq!(u.len() as u64, a.cols(), "mxv length mismatch");
    (0..a.rows())
        .map(|r| {
            let (cols, vals) = a.row(r);
            cols.iter().zip(vals).fold(S::zero(), |acc, (&c, &v)| {
                S::add(acc, S::mul(v, u[c as usize]))
            })
        })
        .collect()
}

/// Element-wise ⊕ of two vectors.
pub fn ewise_add<S: Semiring>(a: &[S::T], b: &[S::T]) -> Vec<S::T> {
    assert_eq!(a.len(), b.len(), "ewise_add length mismatch");
    a.iter().zip(b).map(|(&x, &y)| S::add(x, y)).collect()
}

/// Element-wise ⊗ of two vectors.
pub fn ewise_mul<S: Semiring>(a: &[S::T], b: &[S::T]) -> Vec<S::T> {
    assert_eq!(a.len(), b.len(), "ewise_mul length mismatch");
    a.iter().zip(b).map(|(&x, &y)| S::mul(x, y)).collect()
}

/// ⊕-reduction of a vector to a scalar.
pub fn reduce<S: Semiring>(v: &[S::T]) -> S::T {
    v.iter().fold(S::zero(), |acc, &x| S::add(acc, x))
}

/// Applies a unary operator to every element (GraphBLAS `GrB_apply`).
pub fn apply<T: Copy, U>(v: &[T], f: impl Fn(T) -> U) -> Vec<U> {
    v.iter().map(|&x| f(x)).collect()
}

/// Keeps the matrix entries satisfying `keep` (GraphBLAS `GrB_select`
/// with the output aliasing the input), compacting `a`'s own storage.
pub fn select<T: Scalar>(mut a: Csr<T>, keep: impl Fn(u64, u64, T) -> bool) -> Csr<T> {
    a.retain(|r, c, &v| keep(r, c, v));
    a
}

/// `C = A ⊕.⊗ B` — matrix–matrix multiply over the semiring `S`
/// (GraphBLAS `GrB_mxm`), using the classic row-wise SpGEMM with a dense
/// accumulator.
///
/// Entries whose accumulated value equals the *storage* zero
/// ([`Scalar::ZERO`]) are dropped, matching [`Csr`]'s structural-zero
/// convention. For semirings whose ⊕ identity differs from the storage
/// zero (e.g. [`MinPlus`]), entries equal to `S::zero()` are also dropped
/// — an absent entry *means* "⊕ identity" to subsequent semiring ops.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn mxm<S: Semiring>(a: &Csr<S::T>, b: &Csr<S::T>) -> Csr<S::T> {
    assert_eq!(a.cols(), b.rows(), "mxm inner dimensions must agree");
    let out_cols = b.cols() as usize;
    let mut spa: Vec<S::T> = vec![S::zero(); out_cols];
    let mut touched: Vec<u64> = Vec::new();
    let mut coo = crate::Coo::with_capacity(a.rows(), b.cols(), a.nnz());
    for i in 0..a.rows() {
        let (ks, avs) = a.row(i);
        for (&k, &aik) in ks.iter().zip(avs) {
            if aik == S::zero() {
                continue;
            }
            let (js, bvs) = b.row(k);
            for (&j, &bkj) in js.iter().zip(bvs) {
                let slot = &mut spa[j as usize];
                if *slot == S::zero() {
                    touched.push(j);
                }
                *slot = S::add(*slot, S::mul(aik, bkj));
            }
        }
        for &j in &touched {
            let v = std::mem::replace(&mut spa[j as usize], S::zero());
            if v != S::zero() && v != crate::Scalar::ZERO {
                coo.push(i, j, v);
            }
        }
        touched.clear();
    }
    coo.compress()
}

/// Element-wise (Hadamard) ⊗ of two matrices on their structural
/// intersection (GraphBLAS `GrB_eWiseMult`).
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn ewise_mul_matrix<S: Semiring>(a: &Csr<S::T>, b: &Csr<S::T>) -> Csr<S::T> {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "shape mismatch");
    let mut coo = crate::Coo::with_capacity(a.rows(), a.cols(), a.nnz().min(b.nnz()));
    for (i, j, av) in a.iter() {
        if let Some(bv) = b.get(i, j) {
            let v = S::mul(av, bv);
            if v != crate::Scalar::ZERO {
                coo.push(i, j, v);
            }
        }
    }
    coo.compress()
}

/// ⊕-reduction of every stored matrix entry to a scalar
/// (GraphBLAS `GrB_reduce` to scalar).
pub fn reduce_matrix<S: Semiring>(a: &Csr<S::T>) -> S::T {
    a.values().iter().fold(S::zero(), |acc, &v| S::add(acc, v))
}

/// Counts triangles of an *undirected simple* graph given as a boolean
/// adjacency matrix (symmetric, no self-loops), via the masked SpGEMM
/// identity `Δ = Σ (L·L) ∘ L` where `L` is the strictly-lower-triangular
/// part — each triangle is counted exactly once.
///
/// The numeric work runs over [`PlusTimes`] on a 0/1 matrix.
pub fn triangle_count(adj: &Csr<bool>) -> u64 {
    // Strictly lower-triangular 0/1 matrix.
    let l = adj.map(|i, j, v| if v && j < i { 1.0f64 } else { 0.0 });
    let ll = mxm::<PlusTimes>(&l, &l);
    let masked = ewise_mul_matrix::<PlusTimes>(&ll, &l);
    reduce_matrix::<PlusTimes>(&masked) as u64
}

/// The (min, right-projection) semiring over vertex labels: `vxm` computes,
/// for every vertex, the minimum label among its in-neighbors. The
/// workhorse of label-propagation algorithms like
/// [`connected_components`].
pub struct MinSecond;

impl Semiring for MinSecond {
    type T = u64;
    fn zero() -> u64 {
        u64::MAX
    }
    fn add(a: u64, b: u64) -> u64 {
        a.min(b)
    }
    fn mul(a: u64, _b: u64) -> u64 {
        // The matrix entry is a structural 1; the propagated value is the
        // source's label (`a`, since vxm multiplies x[r] ⊗ A[r, c]).
        a
    }
}

/// Connected components of an *undirected* graph (symmetric boolean
/// adjacency) by min-label propagation over [`MinSecond`]: every vertex
/// ends up labeled with the smallest vertex id in its component.
///
/// Runs until fixpoint — at most `diameter + 1` rounds.
pub fn connected_components(adj: &Csr<bool>) -> Vec<u64> {
    let n = adj.rows() as usize;
    // Relabel the matrix over u64 so MinSecond's vxm type-checks.
    let ones = adj.map(|_, _, v| u64::from(v));
    let mut labels: Vec<u64> = (0..n as u64).collect();
    loop {
        let incoming = vxm::<MinSecond>(&labels, &ones);
        let mut changed = false;
        for (l, inc) in labels.iter_mut().zip(incoming) {
            if inc < *l {
                *l = inc;
                changed = true;
            }
        }
        if !changed {
            return labels;
        }
    }
}

/// Level-synchronous BFS over the boolean semiring: returns the hop count
/// from `source` for every vertex (`u64::MAX` for unreachable). The
/// "extend search / hop" operation from the paper's Figure 2, expressed as
/// repeated `vxm` over [`OrAnd`].
pub fn bfs_levels(adj: &Csr<bool>, source: u64) -> Vec<u64> {
    let n = adj.rows() as usize;
    assert!((source as usize) < n, "source out of range");
    let mut levels = vec![u64::MAX; n];
    let mut frontier = vec![false; n];
    frontier[source as usize] = true;
    levels[source as usize] = 0;
    let mut level = 0u64;
    loop {
        level += 1;
        let next = vxm::<OrAnd>(&frontier, adj);
        let mut any = false;
        frontier = vec![false; n];
        for (i, (&reached, l)) in next.iter().zip(levels.iter_mut()).enumerate() {
            if reached && *l == u64::MAX {
                *l = level;
                frontier[i] = true;
                any = true;
            }
        }
        if !any {
            return levels;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ops, Coo};

    fn weighted() -> Csr<f64> {
        // 0 --2.0--> 1 --3.0--> 2 ;  0 --10.0--> 2
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 2.0);
        coo.push(1, 2, 3.0);
        coo.push(0, 2, 10.0);
        coo.compress()
    }

    #[test]
    fn plus_times_vxm_matches_spmv() {
        let mut coo = Coo::<u64>::new(4, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            coo.push(u, v, 1);
        }
        let a = ops::normalize_rows(coo.compress());
        let x = [0.1, 0.2, 0.3, 0.4];
        let semiring = vxm::<PlusTimes>(&x, &a);
        let direct = crate::spmv::vxm(&x, &a);
        assert_eq!(semiring, direct);
    }

    #[test]
    fn min_plus_computes_shortest_paths() {
        let a = weighted();
        // Distances from vertex 0 after repeated relaxation.
        let mut dist = vec![f64::INFINITY; 3];
        dist[0] = 0.0;
        for _ in 0..3 {
            let relaxed = vxm::<MinPlus>(&dist, &a);
            dist = ewise_add::<MinPlus>(&dist, &relaxed); // min with previous
        }
        assert_eq!(dist, vec![0.0, 2.0, 5.0], "0→1→2 (5.0) beats 0→2 (10.0)");
    }

    #[test]
    fn max_times_finds_best_probability_path() {
        // Probabilities on edges; best path product wins.
        let mut coo = Coo::<f64>::new(3, 3);
        coo.push(0, 1, 0.9);
        coo.push(1, 2, 0.9);
        coo.push(0, 2, 0.5);
        let a = coo.compress();
        let mut p = vec![0.0; 3];
        p[0] = 1.0;
        for _ in 0..2 {
            let step = vxm::<MaxTimes>(&p, &a);
            p = ewise_add::<MaxTimes>(&p, &step);
        }
        assert!((p[2] - 0.81).abs() < 1e-12, "0→1→2 (0.81) beats 0→2 (0.5)");
    }

    #[test]
    fn or_and_reachability() {
        let mut coo = Coo::<bool>::new(4, 4);
        coo.push(0, 1, true);
        coo.push(1, 2, true);
        let a = coo.compress();
        let frontier = [true, false, false, false];
        let one_hop = vxm::<OrAnd>(&frontier, &a);
        assert_eq!(one_hop, vec![false, true, false, false]);
        let two_hop = vxm::<OrAnd>(&one_hop, &a);
        assert_eq!(two_hop, vec![false, false, true, false]);
    }

    #[test]
    fn bfs_levels_on_path_with_island() {
        let mut coo = Coo::<bool>::new(5, 5);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            coo.push(u, v, true);
        }
        let a = coo.compress();
        let levels = bfs_levels(&a, 0);
        assert_eq!(levels, vec![0, 1, 2, 3, u64::MAX]);
    }

    #[test]
    fn bfs_handles_cycles() {
        let mut coo = Coo::<bool>::new(3, 3);
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            coo.push(u, v, true);
        }
        let levels = bfs_levels(&coo.compress(), 1);
        assert_eq!(levels, vec![2, 0, 1]);
    }

    #[test]
    fn reduce_and_apply() {
        assert_eq!(reduce::<PlusTimes>(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(reduce::<MinPlus>(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(apply(&[1.0, 4.0], |x: f64| x.sqrt()), vec![1.0, 2.0]);
    }

    #[test]
    fn select_filters_entries() {
        let a = weighted();
        let big = select(a, |_, _, v| v > 2.5);
        assert_eq!(big.nnz(), 2);
        assert_eq!(big.get(0, 1), None);
        assert_eq!(big.get(0, 2), Some(10.0));
    }

    #[test]
    fn mxm_matches_dense_oracle() {
        use crate::dense::Dense;
        let a = weighted();
        let b = {
            let mut coo = Coo::<f64>::new(3, 3);
            coo.push(0, 0, 1.5);
            coo.push(1, 0, 2.0);
            coo.push(2, 1, 4.0);
            coo.compress()
        };
        let c = mxm::<PlusTimes>(&a, &b);
        let da = Dense::from_csr(&a);
        let db = Dense::from_csr(&b);
        for i in 0..3u64 {
            for j in 0..3u64 {
                let expect: f64 = (0..3)
                    .map(|k| da.get(i as usize, k) * db.get(k, j as usize))
                    .sum();
                let got = c.get(i, j).unwrap_or(0.0);
                assert!((got - expect).abs() < 1e-12, "C[{i},{j}] {got} vs {expect}");
            }
        }
        c.check_invariants().unwrap();
    }

    #[test]
    fn mxm_boolean_is_two_hop_reachability() {
        let mut coo = Coo::<bool>::new(4, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            coo.push(u, v, true);
        }
        let a = coo.compress();
        let a2 = mxm::<OrAnd>(&a, &a);
        assert_eq!(a2.get(0, 2), Some(true));
        assert_eq!(a2.get(1, 3), Some(true));
        assert_eq!(a2.get(0, 1), None, "one-hop edges are not in A²");
        assert_eq!(a2.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mxm_checks_shapes() {
        let a = Csr::<f64>::zero(2, 3);
        let b = Csr::<f64>::zero(2, 2);
        let _ = mxm::<PlusTimes>(&a, &b);
    }

    #[test]
    fn ewise_mul_matrix_intersects() {
        let a = weighted(); // entries (0,1)=2, (1,2)=3, (0,2)=10
        let mut coo = Coo::<f64>::new(3, 3);
        coo.push(0, 1, 5.0);
        coo.push(2, 2, 7.0);
        let b = coo.compress();
        let c = ewise_mul_matrix::<PlusTimes>(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 1), Some(10.0));
    }

    fn symmetric(edges: &[(u64, u64)], n: u64) -> Csr<bool> {
        let mut coo = Coo::<bool>::new(n, n);
        for &(u, v) in edges {
            coo.push(u, v, true);
            coo.push(v, u, true);
        }
        coo.compress()
    }

    #[test]
    fn triangle_count_known_graphs() {
        // Triangle graph: exactly 1.
        assert_eq!(triangle_count(&symmetric(&[(0, 1), (1, 2), (0, 2)], 3)), 1);
        // K4: C(4,3) = 4 triangles.
        let k4: Vec<(u64, u64)> = (0..4)
            .flat_map(|i| (i + 1..4).map(move |j| (i, j)))
            .collect();
        assert_eq!(triangle_count(&symmetric(&k4, 4)), 4);
        // A path has none.
        assert_eq!(triangle_count(&symmetric(&[(0, 1), (1, 2), (2, 3)], 4)), 0);
        // Two disjoint triangles.
        assert_eq!(
            triangle_count(&symmetric(
                &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
                6
            )),
            2
        );
        // Empty graph.
        assert_eq!(triangle_count(&Csr::<bool>::zero(5, 5)), 0);
    }

    #[test]
    fn connected_components_labels_by_minimum() {
        // Components {0,1,2}, {3,4}, {5}.
        let adj = symmetric(&[(0, 1), (1, 2), (3, 4)], 6);
        assert_eq!(connected_components(&adj), vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn connected_components_on_long_path() {
        // Propagation must cross the full diameter.
        let edges: Vec<(u64, u64)> = (0..63).map(|i| (i, i + 1)).collect();
        let adj = symmetric(&edges, 64);
        assert!(connected_components(&adj).iter().all(|&l| l == 0));
    }

    #[test]
    fn connected_components_empty_graph() {
        let adj = Csr::<bool>::zero(4, 4);
        assert_eq!(connected_components(&adj), vec![0, 1, 2, 3]);
    }

    #[test]
    fn mxm_min_plus_composes_shortest_paths() {
        // Two-hop min-plus product gives the best 2-edge distances.
        let a = weighted(); // 0→1 (2), 1→2 (3), 0→2 (10)
        let two_hop = mxm::<MinPlus>(&a, &a);
        assert_eq!(two_hop.get(0, 2), Some(5.0), "0→1→2 costs 2+3");
    }

    #[test]
    fn mxv_transposes_vxm() {
        let a = weighted();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(mxv::<PlusTimes>(&a, &x), crate::spmv::mxv(&a, &x));
    }
}
