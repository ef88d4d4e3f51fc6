//! Correctness validation — the paper's §V "what outputs should be recorded
//! to validate correctness?" question, answered.
//!
//! Two levels:
//!
//! * **Invariants** (cheap, always on by default): kernel 1 preserved the
//!   edge multiset; kernel 2's matrix mass equals M; ranks are non-negative
//!   with plausible L1 mass.
//! * **Eigenvector** (the paper's check): the normalized rank vector must
//!   match the dominant eigenvector of `c·Aᵀ + (1−c)/N·𝟙`, computed by
//!   matrix-free power iteration. The 20-iteration benchmark vector is an
//!   *approximation* of that eigenvector, so the comparison uses a
//!   tolerance derived from the damping factor (`c^20 ≈ 0.04` bounds the
//!   remaining error for a well-behaved chain).

use ppbench_io::checksum::EdgeDigest;
use ppbench_sparse::{eigen, vector, Csr};

use crate::kernel2::FilterStats;

/// One named validation check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// Human-readable detail (measured values).
    pub detail: String,
}

/// The collected validation outcome of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationReport {
    /// All executed checks.
    pub checks: Vec<Check>,
    /// L1 distance between the normalized rank vector and the reference
    /// eigenvector, when the eigenvector check ran.
    pub eigen_residual: Option<f64>,
}

impl ValidationReport {
    /// True if every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    fn push(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }

    /// One-line summary.
    pub fn summary_line(&self) -> String {
        let failed: Vec<&str> = self
            .checks
            .iter()
            .filter(|c| !c.passed)
            .map(|c| c.name)
            .collect();
        if failed.is_empty() {
            format!(
                "{} checks passed{}",
                self.checks.len(),
                self.eigen_residual
                    .map(|r| format!(" (eigen residual {r:.2e})"))
                    .unwrap_or_default()
            )
        } else {
            format!("FAILED: {}", failed.join(", "))
        }
    }

    /// Full multi-line report.
    pub fn detail(&self) -> String {
        self.checks
            .iter()
            .map(|c| {
                format!(
                    "[{}] {}: {}",
                    if c.passed { "ok" } else { "FAIL" },
                    c.name,
                    c.detail
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Checks the cross-kernel invariants.
///
/// Any argument may be `None` when that kernel did not run; only the checks
/// whose inputs are present execute.
pub fn check_invariants(
    expected_edges: u64,
    n: u64,
    k0_digest: Option<&EdgeDigest>,
    k1_digest: Option<&EdgeDigest>,
    k2_stats: Option<&FilterStats>,
    ranks: Option<&[f64]>,
) -> ValidationReport {
    let mut report = ValidationReport::default();

    if let Some(d0) = k0_digest {
        report.push(
            "k0-edge-count",
            d0.count == expected_edges,
            format!("wrote {} of {} expected edges", d0.count, expected_edges),
        );
    }
    if let (Some(d0), Some(d1)) = (k0_digest, k1_digest) {
        report.push(
            "k1-multiset-preserved",
            d0.same_multiset(d1),
            "sort must permute, not alter, the edge multiset".into(),
        );
    }
    if let Some(stats) = k2_stats {
        report.push(
            "k2-mass-equals-m",
            stats.total_edge_count == expected_edges,
            format!(
                "sum(A(:)) = {} vs M = {}",
                stats.total_edge_count, expected_edges
            ),
        );
        report.push(
            "k2-nnz-at-most-m",
            stats.nnz_before as u64 <= expected_edges,
            format!("nnz(A) = {} vs M = {}", stats.nnz_before, expected_edges),
        );
    }
    if let Some(r) = ranks {
        report.push(
            "k3-rank-length",
            r.len() as u64 == n,
            format!("len {} vs N {}", r.len(), n),
        );
        report.push(
            "k3-ranks-nonnegative",
            r.iter().all(|&x| x >= 0.0 && x.is_finite()),
            "ranks must be finite and non-negative".into(),
        );
        let mass = vector::sum(r);
        report.push(
            "k3-mass-bounded",
            mass > 0.0 && mass <= 1.0 + 1e-9,
            format!("L1 mass {mass:.6} (leaks below 1.0 with dangling rows)"),
        );
    }
    report
}

/// Sanity checks on an analytics-workload output (the non-PageRank
/// kernel-3 slot): the output vector must have one entry per vertex (one
/// total for triangle counting) and the headline statistic must be
/// consistent with it.
pub fn check_workload_output(
    workload: &str,
    n: u64,
    values: &[u64],
    stat: u64,
    stat_name: &str,
) -> ValidationReport {
    let mut report = ValidationReport::default();
    let expected_len = if workload == "tc" { 1 } else { n };
    report.push(
        "workload-output-length",
        values.len() as u64 == expected_len,
        format!(
            "{workload} produced {} values, expected {expected_len}",
            values.len()
        ),
    );
    let stat_ok = match stat_name {
        // A traversal reaches at least its source and at most every vertex;
        // components number between 1 and N.
        "reached" | "components" => stat >= 1 && stat <= n,
        // The count workloads report their own value back.
        "triangles" => values.first().copied() == Some(stat),
        _ => false,
    };
    report.push(
        "workload-stat-consistent",
        stat_ok,
        format!("{workload}: {stat} {stat_name} over {n} vertices"),
    );
    report
}

/// Structural checks on the kernel-2 output matrix: every row must be
/// stochastic (sums to 1) or empty, entries must lie in (0, 1], and the
/// stored structure must satisfy the CSR invariants.
pub fn check_matrix(a: &Csr<f64>) -> ValidationReport {
    let mut report = ValidationReport::default();
    report.push(
        "k2-csr-invariants",
        a.check_invariants().is_ok(),
        a.check_invariants()
            .err()
            .unwrap_or_else(|| "structure valid".into()),
    );
    let mut worst: f64 = 0.0;
    let mut rows_ok = true;
    for (r, &s) in ppbench_sparse::ops::row_sums(a).iter().enumerate() {
        if a.row_nnz(r as u64) > 0 {
            worst = worst.max((s - 1.0).abs());
            if (s - 1.0).abs() > 1e-9 {
                rows_ok = false;
            }
        }
    }
    report.push(
        "k2-rows-stochastic",
        rows_ok,
        format!("worst |row sum - 1| = {worst:.3e}"),
    );
    let entries_ok = a.values().iter().all(|&v| v > 0.0 && v <= 1.0);
    report.push(
        "k2-entries-in-unit-interval",
        entries_ok,
        "normalized entries must lie in (0, 1]".into(),
    );
    report
}

/// The paper's eigenvector check: compares normalized `ranks` against the
/// dominant eigenvector of `c·Aᵀ + (1−c)/N·𝟙` (computed matrix-free).
///
/// `a` is the row-normalized kernel-2 matrix. Returns the report with
/// `eigen_residual` set.
pub fn check_eigenvector(
    a: &Csr<f64>,
    ranks: &[f64],
    damping: f64,
    iterations: u32,
) -> ValidationReport {
    let mut report = ValidationReport::default();
    let at = a.transpose();
    let eig = eigen::pagerank_eigenvector(&at, damping, 10_000, 1e-13);
    let mut r = ranks.to_vec();
    vector::normalize_l1(&mut r);
    let residual = vector::l1_distance(&r, &eig.vector);
    // After `iterations` power steps the iterate is within O(c^iterations)
    // of the fixed point (times a modest constant for the starting error).
    let tol = 4.0 * damping.powi(iterations as i32) + 1e-9;
    report.push(
        "k3-eigenvector-agreement",
        eig.converged && residual <= tol,
        format!(
            "L1 residual {residual:.3e} (tolerance {tol:.3e}, reference converged: {})",
            eig.converged
        ),
    );
    report.eigen_residual = Some(residual);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernel2, kernel3};
    use ppbench_io::Edge;
    use ppbench_sparse::{ops, spmv, Coo};

    #[test]
    fn invariants_pass_on_consistent_run() {
        let edges: Vec<Edge> = (0..50).map(|i| Edge::new(i % 7, (i * 3) % 7)).collect();
        let d0 = EdgeDigest::of_edges(&edges);
        let mut sorted = edges.clone();
        sorted.sort();
        let d1 = EdgeDigest::of_edges(&sorted);
        let stats = FilterStats {
            total_edge_count: 50,
            nnz_before: 30,
            max_in_degree: 9,
            supernode_columns: 1,
            leaf_columns: 0,
            nnz_after: 20,
            dangling_rows: 1,
            diagonal_repairs: 0,
        };
        let ranks = vec![0.1; 7];
        let report = check_invariants(50, 7, Some(&d0), Some(&d1), Some(&stats), Some(&ranks));
        assert!(report.passed(), "{}", report.detail());
        assert_eq!(report.checks.len(), 7);
    }

    #[test]
    fn tampered_sort_detected() {
        let edges: Vec<Edge> = (0..10).map(|i| Edge::new(i, i + 1)).collect();
        let d0 = EdgeDigest::of_edges(&edges);
        let mut tampered = edges.clone();
        tampered[3] = Edge::new(99, 99);
        let d1 = EdgeDigest::of_edges(&tampered);
        let report = check_invariants(10, 16, Some(&d0), Some(&d1), None, None);
        assert!(!report.passed());
        assert!(report.summary_line().contains("k1-multiset-preserved"));
    }

    #[test]
    fn bad_mass_detected() {
        let ranks = vec![0.9, 0.9]; // mass 1.8 > 1
        let report = check_invariants(0, 2, None, None, None, Some(&ranks));
        assert!(!report.passed());
        let nan_ranks = vec![f64::NAN, 0.0];
        let report = check_invariants(0, 2, None, None, None, Some(&nan_ranks));
        assert!(!report.passed());
    }

    #[test]
    fn eigenvector_check_accepts_real_pagerank() {
        let mut coo = Coo::<u64>::new(6, 6);
        for (u, v) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (0, 3),
            (2, 5),
        ] {
            coo.push(u, v, 1);
        }
        let (a, _) = kernel2::filter(coo.compress(), true);
        let ranks = kernel3::pagerank(kernel3::init_ranks(6, 1), |x| spmv::vxm(x, &a), 0.85, 20);
        let report = check_eigenvector(&a, &ranks, 0.85, 20);
        assert!(report.passed(), "{}", report.detail());
        assert!(report.eigen_residual.unwrap() < 0.2);
    }

    #[test]
    fn eigenvector_check_rejects_garbage_ranks() {
        let mut coo = Coo::<u64>::new(6, 6);
        for (u, v) in [
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 5),
            (5, 3),
            (0, 4),
            (4, 0),
        ] {
            coo.push(u, v, 1);
        }
        let a = ops::normalize_rows(coo.compress());
        // A wildly wrong "rank" vector concentrated on one vertex.
        let mut garbage = vec![0.0; 6];
        garbage[3] = 1.0;
        let report = check_eigenvector(&a, &garbage, 0.85, 20);
        assert!(!report.passed(), "{}", report.detail());
    }

    #[test]
    fn workload_output_checks_catch_inconsistencies() {
        let good = check_workload_output("bfs", 4, &[0, 1, 1, u64::MAX], 3, "reached");
        assert!(good.passed(), "{}", good.detail());
        let short = check_workload_output("bfs", 4, &[0, 1], 2, "reached");
        assert!(!short.passed());
        let zero = check_workload_output("cc", 4, &[0, 0, 0, 0], 0, "components");
        assert!(!zero.passed(), "zero components is impossible");
        let tc_ok = check_workload_output("tc", 4, &[7], 7, "triangles");
        assert!(tc_ok.passed(), "{}", tc_ok.detail());
        let tc_bad = check_workload_output("tc", 4, &[7], 8, "triangles");
        assert!(!tc_bad.passed());
        let unknown = check_workload_output("bfs", 4, &[0, 1, 1, 2], 3, "mystery");
        assert!(!unknown.passed());
    }

    #[test]
    fn partial_inputs_run_partial_checks() {
        let report = check_invariants(10, 4, None, None, None, None);
        assert!(report.checks.is_empty());
        assert!(report.passed(), "vacuously true");
    }
}
