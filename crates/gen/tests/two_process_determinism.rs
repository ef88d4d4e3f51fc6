//! Cross-process determinism: the same `(spec, seed)` must produce the
//! identical edge stream in a *different OS process*, not just a different
//! call. This is the property the serving layer's cache identity and the
//! benchmark's digest gates lean on — any hidden dependence on process
//! state (ASLR-derived hashes, global RNG seeding, iteration order of a
//! runtime map) would pass every in-process test and still break it.
//!
//! The test re-executes its own test binary with a marker environment
//! variable; the child prints a digest of the streams it generates and the
//! parent compares it against the digest it computed itself.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test and example code is exempt: a panic is its assertion or error report, and no kernel result depends on it"
)]

use ppbench_gen::{EdgeGenerator, GraphSpec, Kronecker, LinearKronecker};
use ppbench_io::Edge;

const SCALE: u32 = 12;
const EDGE_FACTOR: u64 = 8;
const SEED: u64 = 0xD1CE;
const CHILD_MARKER: &str = "PPBENCH_TWO_PROCESS_CHILD";

/// FNV-1a over the little-endian edge words, chunk size deliberately not a
/// divisor of the edge count so chunk-boundary handling is exercised too.
fn stream_digest<G: EdgeGenerator>(generator: &G, num_edges: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut step = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    let mut chunk: Vec<Edge> = Vec::new();
    let mut lo = 0;
    while lo < num_edges {
        let hi = (lo + 1000).min(num_edges);
        generator.edges_into(&mut chunk, lo, hi);
        for e in &chunk {
            step(e.u);
            step(e.v);
        }
        lo = hi;
    }
    hash
}

/// Digest over both samplers, permuted and unpermuted, so the child
/// certifies the faithful path, the linear path, and the Feistel layer.
fn combined_digest() -> u64 {
    let spec = GraphSpec::new(SCALE, EDGE_FACTOR);
    let m = spec.num_edges();
    let mut hash = 0u64;
    let faithful = Kronecker::new(spec, SEED);
    let linear = LinearKronecker::new(spec, SEED);
    let faithful_plain = Kronecker::new(spec, SEED).without_vertex_permutation();
    let linear_plain = LinearKronecker::new(spec, SEED).without_vertex_permutation();
    for d in [
        stream_digest(&faithful, m),
        stream_digest(&linear, m),
        stream_digest(&faithful_plain, m),
        stream_digest(&linear_plain, m),
    ] {
        hash = hash.rotate_left(17) ^ d;
    }
    hash
}

#[test]
fn same_seed_in_a_separate_process_reproduces_the_stream() {
    if std::env::var_os(CHILD_MARKER).is_some() {
        // Child mode: emit the digest on a marked line and stop.
        println!("PPBENCH_DIGEST={:#018x}", combined_digest());
        return;
    }

    let exe = std::env::current_exe().expect("test binary path");
    let output = std::process::Command::new(exe)
        .args([
            "same_seed_in_a_separate_process_reproduces_the_stream",
            "--exact",
            "--nocapture",
        ])
        .env(CHILD_MARKER, "1")
        .output()
        .expect("re-running the test binary");
    assert!(
        output.status.success(),
        "child process failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // Libtest prints its own `test <name> ...` prefix on the same line as
    // the child's first println, so search within lines rather than
    // anchoring at the start.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let child_digest = stdout
        .lines()
        .find_map(|l| {
            let at = l.find("PPBENCH_DIGEST=")?;
            l[at + "PPBENCH_DIGEST=".len()..].split_whitespace().next()
        })
        .unwrap_or_else(|| panic!("no digest line in child output:\n{stdout}"));
    let child_digest = u64::from_str_radix(child_digest.trim_start_matches("0x"), 16)
        .expect("digest line parses as hex");
    assert_eq!(
        child_digest,
        combined_digest(),
        "a fresh process produced a different edge stream for the same seed"
    );
}
