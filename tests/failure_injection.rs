//! Failure injection: a benchmark harness that silently produces wrong
//! numbers is worse than one that crashes. These tests corrupt the
//! pipeline's on-disk state between kernels and check every corruption is
//! caught with a useful error.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench::core::{PipelineConfig, Variant};
use ppbench::io::tempdir::TempDir;
use ppbench::io::Manifest;

fn cfg() -> PipelineConfig {
    PipelineConfig::builder()
        .scale(6)
        .edge_factor(4)
        .seed(8)
        .num_files(2)
        .build()
}

fn prepared_dirs(td: &TempDir) -> (std::path::PathBuf, std::path::PathBuf) {
    let backend = Variant::Optimized.backend();
    let k0 = td.join("k0");
    let k1 = td.join("k1");
    backend.kernel0(&cfg(), &k0).unwrap();
    backend.kernel1(&cfg(), &k0, &k1).unwrap();
    (k0, k1)
}

#[test]
fn kernel1_on_missing_directory_fails_cleanly() {
    let td = TempDir::new("fail").unwrap();
    let err = Variant::Optimized
        .backend()
        .kernel1(&cfg(), &td.join("does-not-exist"), &td.join("out"))
        .unwrap_err();
    assert!(err.to_string().contains("manifest"), "{err}");
}

#[test]
fn kernel2_on_unsorted_input_is_a_contract_error_for_every_backend() {
    let td = TempDir::new("fail").unwrap();
    let k0 = td.join("k0");
    Variant::Optimized.backend().kernel0(&cfg(), &k0).unwrap();
    for variant in Variant::ALL {
        let err = variant.backend().kernel2(&cfg(), &k0).unwrap_err();
        assert!(
            err.to_string().contains("sorted"),
            "{}: {err}",
            variant.name()
        );
    }
}

#[test]
fn truncated_edge_file_detected() {
    let td = TempDir::new("fail").unwrap();
    let (_, k1) = prepared_dirs(&td);
    // Chop the first file in half, mid-line.
    let manifest = Manifest::load(&k1).unwrap();
    let path = k1.join(&manifest.files[0].name);
    let data = std::fs::read(&path).unwrap();
    std::fs::write(&path, &data[..data.len() / 2 - 1]).unwrap();
    let err = Variant::Optimized
        .backend()
        .kernel2(&cfg(), &k1)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("parse") || msg.contains("digest") || msg.contains("edge"),
        "unhelpful error: {msg}"
    );
}

#[test]
fn garbage_line_reported_with_location() {
    let td = TempDir::new("fail").unwrap();
    let (_, k1) = prepared_dirs(&td);
    let manifest = Manifest::load(&k1).unwrap();
    let path = k1.join(&manifest.files[1].name);
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.insert_str(0, "12\tnot-a-number\n");
    std::fs::write(&path, text).unwrap();
    let err = Variant::Optimized
        .backend()
        .kernel2(&cfg(), &k1)
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains(&manifest.files[1].name),
        "no file name in: {msg}"
    );
    assert!(msg.contains(":1"), "no line number in: {msg}");
}

#[test]
fn manifest_edge_count_mismatch_detected() {
    let td = TempDir::new("fail").unwrap();
    let (_, k1) = prepared_dirs(&td);
    // Append an extra valid edge the manifest does not know about.
    let manifest = Manifest::load(&k1).unwrap();
    let path = k1.join(&manifest.files[0].name);
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str("1\t1\n");
    std::fs::write(&path, text).unwrap();
    let err = Variant::Optimized
        .backend()
        .kernel2(&cfg(), &k1)
        .unwrap_err();
    // Caught either as a digest mismatch or as a sort-order violation at
    // the injected edge, depending on where the edge lands.
    let msg = err.to_string();
    assert!(msg.contains("digest") || msg.contains("sorted"), "{msg}");
}

#[test]
fn deleted_manifest_detected() {
    let td = TempDir::new("fail").unwrap();
    let (_, k1) = prepared_dirs(&td);
    std::fs::remove_file(k1.join("manifest.tsv")).unwrap();
    for variant in Variant::ALL {
        assert!(
            variant.backend().kernel2(&cfg(), &k1).is_err(),
            "{} ignored a missing manifest",
            variant.name()
        );
    }
}

#[test]
fn forged_sort_state_passes_contract_but_fails_construction() {
    // A manifest that *claims* sorted order over unsorted data: the
    // contract check passes (it trusts the manifest), but the optimized
    // backend's sorted-input construction catches the lie.
    let td = TempDir::new("fail").unwrap();
    let k0 = td.join("k0");
    Variant::Optimized.backend().kernel0(&cfg(), &k0).unwrap();
    let mut manifest = Manifest::load(&k0).unwrap();
    manifest.sort_state = ppbench::io::SortState::ByStart;
    manifest.save(&k0).unwrap();
    let result = std::panic::catch_unwind(|| Variant::Optimized.backend().kernel2(&cfg(), &k0));
    assert!(
        result.is_err() || result.unwrap().is_err(),
        "forged sort state must not produce a silent wrong matrix"
    );
}
