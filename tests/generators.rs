//! Generator-focused integration tests: every generator kind must drive the
//! full pipeline, and the Kronecker output must pass its statistical
//! validator end-to-end (§V's "validation of all kernels" concern).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench::core::{Pipeline, PipelineConfig, ValidationLevel};
use ppbench::gen::{validate, EdgeGenerator, GeneratorKind, GraphSpec, Kronecker, KroneckerProbs};
use ppbench::io::tempdir::TempDir;
use ppbench::io::EdgeReader;

#[test]
fn every_generator_kind_drives_the_full_pipeline() {
    for kind in GeneratorKind::ALL {
        let cfg = PipelineConfig::builder()
            .scale(7)
            .edge_factor(8)
            .seed(12)
            .generator(kind)
            .add_diagonal_to_empty(true)
            .validation(ValidationLevel::Eigenvector)
            .build();
        let td = TempDir::new("gen-integration").unwrap();
        let result = Pipeline::new(cfg, td.path()).run().unwrap();
        let v = result.validation.unwrap();
        assert!(v.passed(), "{}: {}", kind.name(), v.detail());
    }
}

#[test]
fn kernel0_files_pass_the_statistical_validator() {
    // Write kernel-0 output with the pipeline, read it back from disk, and
    // run the generator validator over what is actually on storage.
    let spec = GraphSpec::new(10, 16);
    let cfg = PipelineConfig::builder()
        .scale(10)
        .seed(77)
        .permute_vertices(false) // marginals are defined on raw labels
        .validation(ValidationLevel::None)
        .build();
    let td = TempDir::new("gen-integration").unwrap();
    let pipeline = Pipeline::new(cfg, td.path());
    pipeline.run_through(0).unwrap();
    let (_, edges) = EdgeReader::read_dir_all(&pipeline.k0_dir()).unwrap();

    let structure = validate::check_structure(&spec, &edges);
    assert!(structure.passed(), "{}", structure.detail());
    let marginals =
        validate::check_kronecker_marginals(&spec, &KroneckerProbs::default(), &edges, 0.02);
    assert!(marginals.passed(), "{}", marginals.detail());
    let dupes = validate::check_duplicate_fraction(&spec, &edges);
    assert!(dupes.passed(), "{}", dupes.detail());
}

#[test]
fn custom_probabilities_flow_through_the_validator() {
    // Generate with non-default initiator probabilities and confirm the
    // validator checks against the *configured* ones, not the defaults.
    let spec = GraphSpec::new(10, 8);
    let probs = KroneckerProbs {
        a: 0.45,
        b: 0.25,
        c: 0.2,
    };
    let edges = Kronecker::with_probs(spec, 9, probs)
        .without_vertex_permutation()
        .edges();
    let right = validate::check_kronecker_marginals(&spec, &probs, &edges, 0.02);
    assert!(right.passed(), "{}", right.detail());
    let wrong =
        validate::check_kronecker_marginals(&spec, &KroneckerProbs::default(), &edges, 0.02);
    assert!(
        !wrong.passed(),
        "default probs should not match a custom graph"
    );
}

#[test]
fn bter_pipeline_produces_community_biased_ranks() {
    // BTER is the one generator with community structure; the pipeline must
    // still validate, and the graph must differ structurally from ER.
    let cfg = PipelineConfig::builder()
        .scale(9)
        .edge_factor(8)
        .seed(4)
        .generator(GeneratorKind::Bter)
        .build();
    let td = TempDir::new("gen-integration").unwrap();
    let result = Pipeline::new(cfg, td.path()).run().unwrap();
    assert!(result.validation.unwrap().passed());
    let stats = result.kernel2.unwrap().stats;
    // Community blocks concentrate edges → duplicates → nnz < M.
    assert!((stats.nnz_before as u64) < result.edges);
}
