//! Matrix-free power iteration.
//!
//! The paper validates kernel 3 by comparing `r` with "the first eigenvector
//! of `c·Aᵀ + (1−c)/N`", computed via `eigs` for problems small enough to
//! densify. Power iteration gets the same dominant eigenvector without ever
//! forming the dense matrix: the operator is supplied as a closure, so the
//! `(1−c)/N·𝟙` rank-one part costs O(N) per application instead of O(N²)
//! storage. Tests use it both ways (dense oracle and matrix-free) to check
//! they agree.

use crate::vector;

/// Result of a power iteration run.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerIteration {
    /// The estimated dominant eigenvector, L1-normalized.
    pub vector: Vec<f64>,
    /// The estimated dominant eigenvalue (Rayleigh-style, via L1 growth).
    pub eigenvalue: f64,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the tolerance was met before the iteration cap.
    pub converged: bool,
}

/// Runs power iteration on the operator `apply: v ↦ M v`.
///
/// `start` seeds the iteration (it is L1-normalized internally); iteration
/// stops when the L1 change between successive normalized iterates drops
/// below `tol`, or after `max_iters`.
///
/// For a non-negative irreducible operator (like the PageRank matrix) this
/// converges to the unique positive dominant eigenvector.
///
/// # Panics
///
/// Panics if `start` is empty or has zero L1 norm.
pub fn power_iteration(
    apply: impl Fn(&[f64]) -> Vec<f64>,
    start: &[f64],
    max_iters: usize,
    tol: f64,
) -> PowerIteration {
    assert!(
        !start.is_empty(),
        "power iteration needs a nonempty start vector"
    );
    let mut v = start.to_vec();
    assert!(
        vector::norm_l1(&v) > 0.0,
        "start vector must have positive L1 norm"
    );
    vector::normalize_l1(&mut v);
    let mut eigenvalue = 0.0;
    for it in 1..=max_iters {
        let mut next = apply(&v);
        let growth = vector::norm_l1(&next);
        if growth == 0.0 {
            // Operator annihilated the iterate; the dominant eigenvalue on
            // this starting subspace is 0.
            return PowerIteration {
                vector: next,
                eigenvalue: 0.0,
                iterations: it,
                converged: true,
            };
        }
        vector::normalize_l1(&mut next);
        let delta = vector::l1_distance(&next, &v);
        v = next;
        eigenvalue = growth;
        if delta < tol {
            return PowerIteration {
                vector: v,
                eigenvalue,
                iterations: it,
                converged: true,
            };
        }
    }
    PowerIteration {
        vector: v,
        eigenvalue,
        iterations: max_iters,
        converged: false,
    }
}

/// Power iteration applied to the PageRank validation operator
/// `v ↦ c·Aᵀv + (1−c)/N · sum(v)` without densifying: pass `at` as the
/// transpose of the row-normalized adjacency matrix.
pub fn pagerank_eigenvector(
    at: &crate::Csr<f64>,
    damping: f64,
    max_iters: usize,
    tol: f64,
) -> PowerIteration {
    let n = at.rows() as usize;
    let start = vec![1.0 / n as f64; n];
    power_iteration(
        |v| {
            let mut out = crate::spmv::mxv(at, v);
            let shift = (1.0 - damping) / n as f64 * vector::sum(v);
            for o in out.iter_mut() {
                *o = *o * damping + shift;
            }
            out
        },
        &start,
        max_iters,
        tol,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::{ops, Coo};

    #[test]
    fn finds_dominant_eigenvector_of_known_matrix() {
        // M = [[2, 0], [0, 1]]: dominant eigenvector e1, eigenvalue 2.
        let apply = |v: &[f64]| vec![2.0 * v[0], v[1]];
        let r = power_iteration(apply, &[0.5, 0.5], 200, 1e-12);
        assert!(r.converged);
        assert!(
            (r.eigenvalue - 2.0).abs() < 1e-6,
            "eigenvalue {}",
            r.eigenvalue
        );
        assert!((r.vector[0] - 1.0).abs() < 1e-6);
        assert!(r.vector[1].abs() < 1e-6);
    }

    #[test]
    fn stochastic_matrix_has_eigenvalue_one() {
        // Column-stochastic 3x3: dominant eigenvalue exactly 1.
        let m = [[0.5, 0.2, 0.3], [0.25, 0.5, 0.3], [0.25, 0.3, 0.4]];
        let apply = |v: &[f64]| {
            (0..3)
                .map(|r| (0..3).map(|c| m[r][c] * v[c]).sum())
                .collect::<Vec<f64>>()
        };
        let r = power_iteration(apply, &[1.0, 1.0, 1.0], 500, 1e-13);
        assert!(r.converged);
        assert!((r.eigenvalue - 1.0).abs() < 1e-9);
        // The eigenvector is the stationary distribution: check fixpoint.
        let fixed = apply(&r.vector);
        assert!(crate::vector::l1_distance(&fixed, &r.vector) < 1e-9);
    }

    #[test]
    fn matrix_free_pagerank_matches_dense_oracle() {
        let mut coo = Coo::<u64>::new(4, 4);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (0, 2)] {
            coo.push(u, v, 1);
        }
        let a = ops::normalize_rows(coo.compress());
        let at = a.transpose();

        let sparse = pagerank_eigenvector(&at, 0.85, 2000, 1e-14);
        assert!(sparse.converged);

        let dense = Dense::pagerank_matrix(&a, 0.85);
        let oracle = power_iteration(|v| dense.matvec(v), &[1.0; 4], 2000, 1e-14);
        assert!(oracle.converged);

        assert!(
            crate::vector::l1_distance(&sparse.vector, &oracle.vector) < 1e-9,
            "matrix-free {:?} vs dense {:?}",
            sparse.vector,
            oracle.vector
        );
        assert!((sparse.eigenvalue - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_operator_converges_to_zero() {
        let r = power_iteration(|v| vec![0.0; v.len()], &[1.0, 1.0], 10, 1e-12);
        assert!(r.converged);
        assert_eq!(r.eigenvalue, 0.0);
    }

    #[test]
    fn iteration_cap_respected() {
        // A rotation-like operator never converges in L1; must stop at cap.
        let apply = |v: &[f64]| vec![v[1], v[0] * 2.0];
        let r = power_iteration(apply, &[1.0, 0.0], 7, 0.0);
        assert_eq!(r.iterations, 7);
        assert!(!r.converged);
    }

    #[test]
    #[should_panic(expected = "positive L1 norm")]
    fn zero_start_rejected() {
        let _ = power_iteration(|v| v.to_vec(), &[0.0, 0.0], 10, 1e-6);
    }
}
