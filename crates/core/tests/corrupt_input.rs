//! Corrupt-input coverage for every consumer of a published file set.
//!
//! Kernels 1 and 2 consume on-disk state they did not produce in the same
//! process, so every class of corruption — hostile counts, appended or
//! truncated records, missing files — must surface as a clean `Err` from
//! `EdgeReader::read_dir_all` and from `kernel1`/`kernel2`/`kernel12_fused`
//! of **every** backend: never a panic, an abort, silently wrong output, a
//! published output manifest, or spilled runs left behind. One table:
//! corruption × `Variant::ALL` × {kernel 1, fused kernel 1+2} × {in memory,
//! spilling} plus kernel 2.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use std::path::Path;

use ppbench_core::{PipelineConfig, Variant};
use ppbench_io::tempdir::TempDir;
use ppbench_io::{Edge, EdgeReader, Manifest, SortState};

/// 50 edges over the 32 vertices of scale 5, sorted by start (stably), so
/// the same list is a valid kernel-2 input and, declared unsorted, a
/// kernel-1 input.
fn edges() -> Vec<Edge> {
    let mut edges: Vec<Edge> = (0..50u64)
        .map(|i| Edge::new((i * 7 + 3) % 32, (i * 5) % 32))
        .collect();
    edges.sort_by_key(|e| e.u);
    edges
}

fn cfg(sort_budget_bytes: Option<u64>) -> PipelineConfig {
    let builder = PipelineConfig::builder().scale(5).num_files(2);
    match sort_budget_bytes {
        Some(bytes) => builder.sort_budget_bytes(bytes).build(),
        None => builder.build(),
    }
}

/// True when `dir` is missing or holds nothing.
fn is_empty_dir(dir: &Path) -> bool {
    std::fs::read_dir(dir).map_or(true, |mut d| d.next().is_none())
}

/// `result` must be an error whose text contains `needle`.
fn assert_rejected<T, E: std::fmt::Display>(what: &str, result: Result<T, E>, needle: &str) {
    let Err(e) = result else {
        panic!("{what} accepted a corrupt file set");
    };
    let msg = e.to_string();
    assert!(msg.contains(needle), "{what}: {msg}");
}

/// Writes a two-file set in each sort state, applies `corrupt` to it, and
/// requires every reader of the directory to fail with `needle` in the
/// message.
fn assert_every_consumer_rejects(corrupt: impl Fn(&Path, &Manifest), needle: &str) {
    let td = TempDir::new("corrupt-input").unwrap();
    for state in [SortState::Unsorted, SortState::ByStart] {
        let dir = td.join(&format!("{state:?}"));
        let manifest =
            ppbench_io::write_edges(&dir, "edges", 2, &edges(), Some(5), Some(32), state).unwrap();
        corrupt(&dir, &manifest);
        assert_rejected("read_dir_all", EdgeReader::read_dir_all(&dir), needle);
        for variant in Variant::ALL {
            let (backend, name) = (variant.backend(), variant.name());
            if state == SortState::ByStart {
                let k2 = backend.kernel2(&cfg(None), &dir);
                assert_rejected(&format!("{name} kernel2"), k2, needle);
                continue;
            }
            for (label, budget) in [("inmem", None), ("spill", Some(64))] {
                let out = td.join(&format!("{name}-{label}"));
                let k1 = backend.kernel1(&cfg(budget), &dir, &out);
                assert_rejected(&format!("{name} kernel1 {label}"), k1, needle);
                // The manifest is the commit point: a failed kernel 1 must
                // not publish one for its partial output.
                assert!(
                    !out.join(ppbench_io::MANIFEST_NAME).exists(),
                    "{name} {label}: failed sort committed a manifest"
                );
                // ... and must not leave its spilled runs behind (the digest
                // verdict arrives after the whole input has been spilled).
                assert!(
                    !out.join("sort-scratch").exists(),
                    "{name} {label}: failed sort left scratch behind"
                );

                // The fused pass spills into the same run engine, one
                // bucket per worker, and owes the same cleanup.
                let scratch = td.join(&format!("{name}-fused-{label}"));
                let fused = backend.kernel12_fused(&cfg(budget), &dir, &scratch);
                assert_rejected(&format!("{name} fused {label}"), fused, needle);
                assert!(
                    !scratch.join(ppbench_io::MANIFEST_NAME).exists(),
                    "{name} fused {label}: failed pass committed a manifest"
                );
                assert!(
                    is_empty_dir(&scratch),
                    "{name} fused {label}: failed pass left scratch behind"
                );
            }
        }
    }
}

#[test]
fn hostile_edge_count_rejected_without_allocating() {
    // `edges: u64::MAX` with internally consistent per-file counts and
    // digest: only the bytes-on-disk bound can catch it, and it must do so
    // before any `Vec::with_capacity` turns the lie into an abort.
    assert_every_consumer_rejects(
        |dir, _| {
            let mut m = Manifest::load(dir).unwrap();
            m.edges = u64::MAX;
            m.digest.count = u64::MAX;
            m.files[0].edges = u64::MAX - m.files[1].edges;
            m.save(dir).unwrap();
        },
        "at most",
    );
}

#[test]
fn manifest_count_disagreeing_with_contents_rejected() {
    // The manifest claims fewer edges than the files contain (an append
    // behind the manifest's back; start 31 keeps the sorted set sorted).
    // The stream digest is what catches it.
    assert_every_consumer_rejects(
        |dir, m| {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join(&m.files[1].name))
                .unwrap();
            writeln!(f, "31\t9").unwrap();
        },
        "digest",
    );
}

#[test]
fn truncated_final_line_rejected() {
    // Chop the file mid-record (a torn write): the partial final line must
    // parse-fail or digest-fail, never be silently dropped.
    assert_every_consumer_rejects(
        |dir, m| {
            let path = dir.join(&m.files[1].name);
            let data = std::fs::read(&path).unwrap();
            std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        },
        "",
    );
}

#[test]
fn manifest_naming_missing_file_rejected() {
    assert_every_consumer_rejects(
        |dir, m| std::fs::remove_file(dir.join(&m.files[0].name)).unwrap(),
        "",
    );
}
