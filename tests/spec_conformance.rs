//! Conformance to the benchmark specification (§IV of the paper): the
//! kernel-by-kernel mathematical contracts, checked end-to-end through the
//! public API at a non-trivial scale.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench::core::{kernel3, Pipeline, PipelineConfig, ValidationLevel};
use ppbench::gen::GeneratorKind;
use ppbench::io::tempdir::TempDir;
use ppbench::io::EdgeReader;
use ppbench::sparse::{ops, vector};

fn run(scale: u32) -> (PipelineConfig, TempDir, ppbench::core::PipelineResult) {
    let cfg = PipelineConfig::builder()
        .scale(scale)
        .seed(1)
        .num_files(4)
        .validation(ValidationLevel::Invariants)
        .build();
    let td = TempDir::new("spec").unwrap();
    let result = Pipeline::new(cfg.clone(), td.path()).run().unwrap();
    (cfg, td, result)
}

#[test]
fn kernel0_writes_m_equals_k_times_n_edges_in_spec_format() {
    let (cfg, td, result) = run(10);
    // M = k·N = 16·2^10.
    assert_eq!(result.kernel0.as_ref().unwrap().edges, 16 << 10);
    assert_eq!(result.kernel0.as_ref().unwrap().files, 4);
    // Files are tab-separated decimal pairs, newline-terminated.
    let manifest = ppbench::io::Manifest::load(&td.path().join("k0")).unwrap();
    let first =
        std::fs::read_to_string(td.path().join("k0").join(&manifest.files[0].name)).unwrap();
    for line in first.lines().take(100) {
        let mut parts = line.split('\t');
        let u: u64 = parts.next().unwrap().parse().unwrap();
        let v: u64 = parts.next().unwrap().parse().unwrap();
        assert!(parts.next().is_none());
        assert!(u < cfg.spec.num_vertices() && v < cfg.spec.num_vertices());
    }
}

#[test]
fn kernel1_output_is_nondecreasing_in_start_vertex_across_files() {
    let (_, td, _) = run(10);
    let (manifest, edges) = EdgeReader::read_dir_all(&td.path().join("k1")).unwrap();
    assert!(manifest.sort_state.is_sorted_by_start());
    assert!(
        edges.windows(2).all(|w| w[0].u <= w[1].u),
        "global order must hold across file boundaries"
    );
}

#[test]
fn kernel2_invariants_from_the_paper() {
    // "Because of collisions, A should have fewer than M non-zero entries,
    // but all the entries in A should sum to M."
    let (cfg, _, result) = run(12);
    let stats = result.kernel2.as_ref().unwrap().stats;
    let m = cfg.spec.num_edges();
    assert_eq!(stats.total_edge_count, m);
    assert!(
        (stats.nnz_before as u64) < m,
        "scale 12 Kronecker must have duplicate edges: nnz {} vs M {m}",
        stats.nnz_before
    );
    // The super-node and leaves exist in a power-law graph.
    assert!(stats.supernode_columns >= 1);
    assert!(stats.leaf_columns > 0);
    assert!(
        stats.max_in_degree > 16,
        "hub should far exceed mean degree"
    );
}

#[test]
fn kernel3_metric_counts_twenty_m() {
    let (cfg, _, result) = run(9);
    let k3 = result.kernel3.as_ref().unwrap();
    assert_eq!(k3.timing.work_items, cfg.spec.num_edges() * 20);
    assert_eq!(k3.ranks.len() as u64, cfg.spec.num_vertices());
}

#[test]
fn eigenvector_validation_passes_at_scale_10() {
    let cfg = PipelineConfig::builder()
        .scale(10)
        .seed(3)
        .add_diagonal_to_empty(true)
        .validation(ValidationLevel::Eigenvector)
        .build();
    let td = TempDir::new("spec-eig").unwrap();
    let result = Pipeline::new(cfg, td.path()).run().unwrap();
    let v = result.validation.unwrap();
    assert!(v.passed(), "{}", v.detail());
    assert!(v.eigen_residual.unwrap() < 0.1);
}

#[test]
fn damping_factor_is_085_and_iterations_20_by_default() {
    assert_eq!(ppbench::core::DAMPING, 0.85);
    assert_eq!(ppbench::core::ITERATIONS, 20);
    let cfg = PipelineConfig::builder().build();
    assert_eq!(cfg.damping, 0.85);
    assert_eq!(cfg.iterations, 20);
    assert_eq!(cfg.spec.edge_factor(), 16);
}

#[test]
fn rank_vector_mass_conserved_with_diagonal_repair() {
    // With the §V diagonal repair there are no dangling rows and the
    // matrix is exactly row-stochastic, so sum(r) stays 1 to roundoff.
    let cfg = PipelineConfig::builder()
        .scale(9)
        .seed(5)
        .add_diagonal_to_empty(true)
        .build();
    let td = TempDir::new("spec-mass").unwrap();
    let result = Pipeline::new(cfg, td.path()).run().unwrap();
    let mass = result.kernel3.unwrap().mass;
    assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");
}

#[test]
fn alternative_generators_satisfy_the_same_contracts() {
    for kind in [GeneratorKind::PerfectPowerLaw, GeneratorKind::ErdosRenyi] {
        let cfg = PipelineConfig::builder()
            .scale(8)
            .seed(4)
            .generator(kind)
            .build();
        let td = TempDir::new("spec-gen").unwrap();
        let result = Pipeline::new(cfg, td.path()).run().unwrap();
        assert!(
            result.validation.unwrap().passed(),
            "generator {} violates invariants",
            kind.name()
        );
    }
}

#[test]
fn pagerank_update_matches_papers_appendix_formula() {
    // One hand-computed step on a 2-vertex graph: A = [[0,1],[1,0]]
    // row-normalized is itself; r0 = (0.25, 0.75), c = 0.85.
    // r1 = c·(r0·A) + (1−c)·sum(r0)/N = 0.85·(0.75, 0.25) + 0.15·1/2
    //    = (0.7125, 0.2875)
    let mut coo = ppbench::sparse::Coo::<u64>::new(2, 2);
    coo.push(0, 1, 1);
    coo.push(1, 0, 1);
    let a = ops::normalize_rows(coo.compress());
    let r1 = kernel3::step(&[0.25, 0.75], |x| ppbench::sparse::spmv::vxm(x, &a), 0.85);
    assert!((r1[0] - 0.7125).abs() < 1e-15, "{r1:?}");
    assert!((r1[1] - 0.2875).abs() < 1e-15, "{r1:?}");
    assert!((vector::sum(&r1) - 1.0).abs() < 1e-15);
}
