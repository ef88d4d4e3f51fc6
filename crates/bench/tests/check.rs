//! The `ppsweep check` gate over the five committed `BENCH_*.json`
//! baselines: each passes, each rejects drift in either direction, and
//! none depends on the canonical writer's exact spacing.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench_bench::check_document;

/// `(committed file, its schema tag)`, one per sweep.
const COMMITTED: [(&str, &str); 5] = [
    ("BENCH_k01.json", "ppbench-k01-v3"),
    ("BENCH_k3.json", "ppbench-k3-v2"),
    ("BENCH_pipeline.json", "ppbench-pipeline-v1"),
    ("BENCH_algo.json", "ppbench-algo-v1"),
    ("BENCH_serve.json", "ppbench-serve-v1"),
];

fn committed(file: &str) -> String {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// First key of the first result row (rows follow `"results":[`).
fn first_row_key(text: &str) -> &str {
    let rows = text
        .split_once("\"results\":[{\"")
        .expect("results array")
        .1;
    rows.split_once('"').expect("closing quote").0
}

#[test]
fn every_committed_baseline_passes_check() {
    for (file, tag) in COMMITTED {
        assert_eq!(check_document(&committed(file)), Ok(tag), "{file}");
    }
}

#[test]
fn check_rejects_drift_in_both_directions_for_every_sweep() {
    for (file, tag) in COMMITTED {
        let good = committed(file);
        let key = first_row_key(&good);
        let (head, rows) = good.split_once("\"results\":[").unwrap();
        let tail = rows.split_once(']').unwrap().1;
        let other = if tag.contains("k3") {
            "ppbench-k01-v3"
        } else {
            "ppbench-k3-v2"
        };
        let drifted = [
            (
                "missing row key",
                good.replacen(&format!("{{\"{key}\":"), "{\"renamed\":", 1),
            ),
            (
                "extra row key",
                good.replacen(
                    &format!("{{\"{key}\":"),
                    &format!("{{\"bonus\":1,\"{key}\":"),
                    1,
                ),
            ),
            (
                "extra top-level key",
                good.replacen("{\"benchmark\"", "{\"bonus\":1,\"benchmark\"", 1),
            ),
            (
                "missing top-level key",
                good.replacen("\"seed\":", "\"sede\":", 1),
            ),
            (
                "unknown version tag",
                good.replacen(tag, "ppbench-next-v9", 1),
            ),
            ("another sweep's tag", good.replacen(tag, other, 1)),
            ("empty results", format!("{head}\"results\":[]{tail}")),
            (
                "row that is not an object",
                format!("{head}\"results\":[7,{rows}"),
            ),
            ("truncated document", good[..good.len() / 2].to_string()),
        ];
        for (what, text) in &drifted {
            assert!(check_document(text).is_err(), "{file}: {what} accepted");
        }
    }
}

#[test]
fn check_rejects_a_rate_that_disagrees_with_its_raw_fields() {
    for (file, rate) in [
        ("BENCH_k01.json", "mb_per_s"),
        ("BENCH_serve.json", "achieved_rps"),
    ] {
        let good = committed(file);
        let at = good.find(&format!("\"{rate}\":")).unwrap() + rate.len() + 3;
        // A leading extra digit inflates the first row's rate ≥ 10×.
        let doctored = format!("{}9{}", &good[..at], &good[at..]);
        let err = check_document(&doctored).unwrap_err();
        assert!(err.contains(rate), "{file}: {err}");
    }
}

#[test]
fn check_reads_json_not_byte_patterns() {
    // Whitespace after `:` and `,` — what any pretty-printer or hand edit
    // produces — is still the same document. (The pre-parser scanner
    // demanded `"key":` adjacency and rejected this.)
    for (file, tag) in COMMITTED {
        let pretty = committed(file)
            .replace("\":", "\": ")
            .replace(",\"", ",\n  \"")
            .replace("[{", "[\n{");
        assert_eq!(check_document(&pretty), Ok(tag), "{file}");
    }
}
