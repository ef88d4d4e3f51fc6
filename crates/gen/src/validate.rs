//! Statistical validation of generated edge lists.
//!
//! The paper's §V asks whether a "more deterministic generator \[should\] be
//! used in kernel 0 to facilitate validation of all kernels". Until then,
//! the stochastic Kronecker output can at least be checked *statistically*:
//! this module verifies that an edge list is plausibly the output of the
//! configured generator — counts, ranges, and the marginal bit
//! probabilities the R-MAT recursion implies.

use ppbench_io::Edge;

use crate::kronecker::KroneckerProbs;
use crate::spec::GraphSpec;

/// One validation finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// What was checked.
    pub check: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// Measured-vs-expected detail.
    pub detail: String,
}

/// Outcome of a validation pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GeneratorReport {
    /// Individual findings.
    pub findings: Vec<Finding>,
}

impl GeneratorReport {
    /// True when every finding passed.
    pub fn passed(&self) -> bool {
        self.findings.iter().all(|f| f.passed)
    }

    fn push(&mut self, check: &'static str, passed: bool, detail: String) {
        self.findings.push(Finding {
            check,
            passed,
            detail,
        });
    }

    /// Multi-line rendering.
    pub fn detail(&self) -> String {
        self.findings
            .iter()
            .map(|f| {
                format!(
                    "[{}] {}: {}",
                    if f.passed { "ok" } else { "FAIL" },
                    f.check,
                    f.detail
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Structural checks every generator must satisfy: exactly `M` edges, all
/// endpoints inside `0..N`.
pub fn check_structure(spec: &GraphSpec, edges: &[Edge]) -> GeneratorReport {
    let mut report = GeneratorReport::default();
    report.push(
        "edge-count",
        edges.len() as u64 == spec.num_edges(),
        format!("{} edges vs M = {}", edges.len(), spec.num_edges()),
    );
    let n = spec.num_vertices();
    let out_of_range = edges.iter().filter(|e| e.u >= n || e.v >= n).count();
    report.push(
        "vertex-range",
        out_of_range == 0,
        format!("{out_of_range} endpoints outside 0..{n}"),
    );
    report
}

/// Statistical checks specific to the (unpermuted!) Kronecker generator:
/// the marginal probability that any given vertex-label bit is 0 equals
/// `A + B` for start vertices and `A + C` for end vertices, independently
/// per level. A vertex permutation destroys this structure by design —
/// validate on a generator built with
/// [`crate::Kronecker::without_vertex_permutation`].
///
/// `tolerance` is the allowed absolute deviation of each measured marginal
/// (0.01 is comfortable at benchmark sizes: the standard error at
/// M = 2^20 is ≈ 0.0004).
pub fn check_kronecker_marginals(
    spec: &GraphSpec,
    probs: &KroneckerProbs,
    edges: &[Edge],
    tolerance: f64,
) -> GeneratorReport {
    let mut report = GeneratorReport::default();
    if edges.is_empty() {
        report.push("marginals", false, "no edges to test".into());
        return report;
    }
    let m = edges.len() as f64;
    let expect_u0 = probs.a + probs.b; // P(start bit = 0) per level
    let expect_v0 = probs.a + probs.c; // P(end bit = 0) per level
    let mut worst_u: f64 = 0.0;
    let mut worst_v: f64 = 0.0;
    for level in 0..spec.scale() {
        let zeros_u = edges.iter().filter(|e| (e.u >> level) & 1 == 0).count() as f64;
        let zeros_v = edges.iter().filter(|e| (e.v >> level) & 1 == 0).count() as f64;
        worst_u = worst_u.max((zeros_u / m - expect_u0).abs());
        worst_v = worst_v.max((zeros_v / m - expect_v0).abs());
    }
    report.push(
        "start-bit-marginals",
        worst_u <= tolerance,
        format!("worst |P(u bit=0) − {expect_u0:.3}| = {worst_u:.4} (tol {tolerance})"),
    );
    report.push(
        "end-bit-marginals",
        worst_v <= tolerance,
        format!("worst |P(v bit=0) − {expect_v0:.3}| = {worst_v:.4} (tol {tolerance})"),
    );
    report
}

/// Statistical check that (unpermuted!) edges take each R-MAT quadrant with
/// the initiator probabilities, per bit level: the joint distribution of
/// `(u bit, v bit)` at every level must be `[a, b, c, d]`. Stronger than
/// [`check_kronecker_marginals`] (which only tests the two marginals), this
/// is the natural cross-check between the faithful coin-flip port and the
/// linear-work block sampler — both must agree with the same quadrant law
/// even though their streams differ.
///
/// `tolerance` bounds the absolute deviation of each measured quadrant
/// frequency (standard error is ≈ `0.5/sqrt(M)`).
pub fn check_kronecker_quadrants(
    spec: &GraphSpec,
    probs: &KroneckerProbs,
    edges: &[Edge],
    tolerance: f64,
) -> GeneratorReport {
    let mut report = GeneratorReport::default();
    if edges.is_empty() {
        report.push("quadrant-counts", false, "no edges to test".into());
        return report;
    }
    let m = edges.len() as f64;
    let expect = [probs.a, probs.b, probs.c, 1.0 - probs.a - probs.b - probs.c];
    let mut worst: f64 = 0.0;
    let mut worst_at = (0u32, 0usize);
    for level in 0..spec.scale() {
        let mut counts = [0u64; 4];
        for e in edges {
            let q = (((e.u >> level) & 1) << 1) | ((e.v >> level) & 1);
            counts[q as usize] += 1;
        }
        for (q, &c) in counts.iter().enumerate() {
            let dev = (c as f64 / m - expect[q]).abs();
            if dev > worst {
                worst = dev;
                worst_at = (level, q);
            }
        }
    }
    report.push(
        "quadrant-counts",
        worst <= tolerance,
        format!(
            "worst quadrant deviation {worst:.4} at level {} quadrant {} (tol {tolerance})",
            worst_at.0, worst_at.1
        ),
    );
    report
}

/// Checks that two edge lists have matching degree distributions — the
/// acceptance test for swapping one sampler for another (faithful vs
/// linear-work R-MAT): their streams differ edge for edge, but the
/// distribution of vertex degrees must agree.
///
/// Compares the in- and out-degree CCDFs (fraction of vertices with degree
/// ≥ 2^k) at every power of two; `tolerance` bounds the worst absolute gap.
/// Label permutations do not matter, so this check works on permuted output.
pub fn check_degree_agreement(
    spec: &GraphSpec,
    reference: &[Edge],
    candidate: &[Edge],
    tolerance: f64,
) -> GeneratorReport {
    let mut report = GeneratorReport::default();
    let n = spec.num_vertices();
    if reference.is_empty() || candidate.is_empty() {
        report.push("degree-agreement", false, "no edges to test".into());
        return report;
    }
    let ccdf = |degs: &[u64]| -> Vec<f64> {
        // ccdf[k] = fraction of vertices with degree >= 2^k.
        let mut out = Vec::new();
        let mut threshold = 1u64;
        loop {
            let frac = degs.iter().filter(|&&d| d >= threshold).count() as f64 / n as f64;
            out.push(frac);
            if frac == 0.0 || threshold > u64::MAX / 2 {
                break;
            }
            threshold *= 2;
        }
        out
    };
    let mut worst: f64 = 0.0;
    let mut worst_side = "in";
    for (side, degrees) in [
        (
            "in",
            crate::degree::in_degrees as fn(&[Edge], u64) -> Vec<u64>,
        ),
        (
            "out",
            crate::degree::out_degrees as fn(&[Edge], u64) -> Vec<u64>,
        ),
    ] {
        let a = ccdf(&degrees(reference, n));
        let b = ccdf(&degrees(candidate, n));
        for k in 0..a.len().max(b.len()) {
            let fa = a.get(k).copied().unwrap_or(0.0);
            let fb = b.get(k).copied().unwrap_or(0.0);
            if (fa - fb).abs() > worst {
                worst = (fa - fb).abs();
                worst_side = side;
            }
        }
    }
    report.push(
        "degree-agreement",
        worst <= tolerance,
        format!("worst CCDF gap {worst:.4} on {worst_side}-degrees (tol {tolerance})"),
    );
    report
}

/// Checks that the duplicate-edge fraction is in the ballpark the
/// birthday-style collision estimate for an R-MAT distribution predicts —
/// very loose (a factor-of-covers band), intended to catch gross generator
/// bugs like constant outputs, not to certify the distribution.
pub fn check_duplicate_fraction(spec: &GraphSpec, edges: &[Edge]) -> GeneratorReport {
    let mut report = GeneratorReport::default();
    #[expect(
        clippy::disallowed_types,
        reason = "membership-only set: only insert() return values are observed, never iteration order"
    )]
    let mut seen = std::collections::HashSet::with_capacity(edges.len());
    let mut dupes = 0usize;
    for e in edges {
        if !seen.insert((e.u, e.v)) {
            dupes += 1;
        }
    }
    let frac = dupes as f64 / edges.len().max(1) as f64;
    // Power-law concentration makes collisions common but never dominant
    // at k = 16 and benchmark scales: expect single-digit to low-double-
    // digit percentages.
    let plausible = frac < 0.8;
    report.push(
        "duplicate-fraction",
        plausible,
        format!(
            "{dupes} duplicates of {} edges ({:.1}%) at {}",
            edges.len(),
            frac * 100.0,
            spec
        ),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeGenerator, Kronecker};

    fn spec() -> GraphSpec {
        GraphSpec::new(12, 16)
    }

    #[test]
    fn real_kronecker_output_passes_all_checks() {
        let g = Kronecker::new(spec(), 5).without_vertex_permutation();
        let edges = g.edges();
        let s = check_structure(&spec(), &edges);
        assert!(s.passed(), "{}", s.detail());
        let m = check_kronecker_marginals(&spec(), &KroneckerProbs::default(), &edges, 0.01);
        assert!(m.passed(), "{}", m.detail());
        let d = check_duplicate_fraction(&spec(), &edges);
        assert!(d.passed(), "{}", d.detail());
    }

    #[test]
    fn truncated_edge_list_fails_structure() {
        let g = Kronecker::new(spec(), 5);
        let mut edges = g.edges();
        edges.truncate(100);
        assert!(!check_structure(&spec(), &edges).passed());
    }

    #[test]
    fn out_of_range_vertex_detected() {
        let mut edges = Kronecker::new(spec(), 5).edges();
        edges[0] = Edge::new(spec().num_vertices(), 0);
        let report = check_structure(&spec(), &edges);
        assert!(!report.passed());
        assert!(
            report.detail().contains("vertex-range"),
            "{}",
            report.detail()
        );
    }

    #[test]
    fn uniform_edges_fail_the_marginal_check() {
        // An Erdős–Rényi list has P(bit = 0) = 0.5 per level, far from the
        // Kronecker 0.76.
        let edges = crate::ErdosRenyi::new(spec(), 5).edges();
        let report = check_kronecker_marginals(&spec(), &KroneckerProbs::default(), &edges, 0.01);
        assert!(!report.passed(), "{}", report.detail());
    }

    #[test]
    fn permuted_labels_fail_the_marginal_check() {
        // The vertex permutation deliberately destroys bit structure; the
        // validator must notice (which is why it documents the
        // no-permutation requirement).
        let edges = Kronecker::new(spec(), 5).edges();
        let report = check_kronecker_marginals(&spec(), &KroneckerProbs::default(), &edges, 0.01);
        assert!(!report.passed());
    }

    #[test]
    fn linear_sampler_agrees_with_faithful_at_scales_8_to_14() {
        // The acceptance suite for the linear-work sampler: at every scale
        // in 8..=14 its quadrant counts must match the initiator law and its
        // degree distribution must match the faithful port's. Tolerances
        // scale with 1/sqrt(M).
        use crate::LinearKronecker;
        for scale in (8..=14u32).step_by(2) {
            let s = GraphSpec::new(scale, 16);
            let seed = 1000 + scale as u64;
            let faithful_raw = Kronecker::new(s, seed).without_vertex_permutation().edges();
            let linear_raw = LinearKronecker::new(s, seed)
                .without_vertex_permutation()
                .edges();
            let tol = (3.0 / (s.num_edges() as f64).sqrt()).max(0.01);
            for (name, edges) in [("faithful", &faithful_raw), ("linear", &linear_raw)] {
                let q = check_kronecker_quadrants(&s, &KroneckerProbs::default(), edges, tol);
                assert!(q.passed(), "scale {scale} {name}: {}", q.detail());
                let m = check_kronecker_marginals(&s, &KroneckerProbs::default(), edges, tol);
                assert!(m.passed(), "scale {scale} {name}: {}", m.detail());
            }
            // Degree agreement holds on the permuted (production) output too.
            let faithful = Kronecker::new(s, seed).edges();
            let linear = LinearKronecker::new(s, seed).edges();
            let d = check_degree_agreement(&s, &faithful, &linear, 2.5 * tol);
            assert!(d.passed(), "scale {scale}: {}", d.detail());
            let st = check_structure(&s, &linear);
            assert!(st.passed(), "scale {scale}: {}", st.detail());
        }
    }

    #[test]
    fn quadrant_check_rejects_uniform_edges() {
        let edges = crate::ErdosRenyi::new(spec(), 5).edges();
        let report = check_kronecker_quadrants(&spec(), &KroneckerProbs::default(), &edges, 0.01);
        assert!(!report.passed(), "{}", report.detail());
    }

    #[test]
    fn degree_agreement_rejects_a_different_distribution() {
        // Erdős–Rényi degrees are binomial — nothing like the R-MAT tail.
        let kron = Kronecker::new(spec(), 5).edges();
        let er = crate::ErdosRenyi::new(spec(), 5).edges();
        let report = check_degree_agreement(&spec(), &kron, &er, 0.02);
        assert!(!report.passed(), "{}", report.detail());
    }

    #[test]
    fn degree_agreement_accepts_identical_lists() {
        let edges = Kronecker::new(spec(), 5).edges();
        let report = check_degree_agreement(&spec(), &edges, &edges, 1e-12);
        assert!(report.passed(), "{}", report.detail());
    }

    #[test]
    fn quadrant_and_degree_checks_handle_empty_input() {
        assert!(
            !check_kronecker_quadrants(&spec(), &KroneckerProbs::default(), &[], 0.01).passed()
        );
        let edges = Kronecker::new(spec(), 5).edges();
        assert!(!check_degree_agreement(&spec(), &edges, &[], 0.01).passed());
    }

    #[test]
    fn constant_generator_fails_duplicate_check() {
        let edges = vec![Edge::new(1, 2); 1000];
        assert!(!check_duplicate_fraction(&spec(), &edges).passed());
    }

    #[test]
    fn empty_edge_list_handled() {
        let report = check_kronecker_marginals(&spec(), &KroneckerProbs::default(), &[], 0.01);
        assert!(!report.passed());
    }
}
