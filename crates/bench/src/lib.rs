//! Evaluation harness for the PageRank Pipeline Benchmark.
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Artifact | Binary | Library pieces |
//! |---|---|---|
//! | Table I (source lines of code) | `table1` | [`sloc`] |
//! | Table II (run sizes) | `table2` | `ppbench_core::table` |
//! | Figures 4–7 (kernel throughput vs. edges, per variant) | `figures` | [`sweep`], [`plot`] |
//!
//! plus Criterion microbenches (`cargo bench`) for each kernel and the
//! ablations DESIGN.md calls out (sort algorithm, SpMV form, generator,
//! file count), and the five committed-baseline sweeps, all driven by one
//! binary (`ppsweep <kind>`, `ppsweep check FILE...`) over one [`harness`]:
//!
//! | `ppsweep` kind | Module | Baseline file | Axis |
//! |---|---|---|---|
//! | `k01` | [`k01`] | `BENCH_k01.json` | K0 write strategy × sampler, K1 sort path |
//! | `k3` | [`k3`] | `BENCH_k3.json` | kernel-3 SpMV variant |
//! | `pipeline` | [`pipe`] | `BENCH_pipeline.json` | staged vs fused K1→K2 |
//! | `algo` | [`algo`] | `BENCH_algo.json` | analytics workload, serial vs optimized |
//! | `serve` | [`serve`] | `BENCH_serve.json` | serving-layer latency/saturation |
//!
//! Each module holds only what is specific to its sweep — the measured
//! bodies, its flags, and one typed field list from which the JSON, the
//! table and the schema gate are all derived.

#![allow(
    clippy::disallowed_methods,
    reason = "the harness times the system under test; timings are its output"
)]

pub mod algo;
pub mod harness;
pub mod k01;
pub mod k3;
pub mod pipe;
pub mod plot;
pub mod serve;
pub mod sloc;
pub mod sweep;

use harness::Sweep;
use ppbench_core::json::Json;

/// Validates a `BENCH_*.json` document against the schema gate of the
/// sweep its `"benchmark"` tag names, returning that tag.
pub fn check_document(text: &str) -> Result<&'static str, String> {
    type Gate = fn(&Json) -> Result<(), String>;
    let gates: [(&'static str, Gate); 5] = [
        (k01::SweepConfig::TAG, harness::check::<k01::SweepConfig>),
        (k3::SweepConfig::TAG, harness::check::<k3::SweepConfig>),
        (pipe::SweepConfig::TAG, harness::check::<pipe::SweepConfig>),
        (algo::SweepConfig::TAG, harness::check::<algo::SweepConfig>),
        (
            serve::SweepConfig::TAG,
            harness::check::<serve::SweepConfig>,
        ),
    ];
    let doc = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let tag = doc.get("benchmark").and_then(Json::as_str);
    let tag = tag.ok_or("no \"benchmark\" version tag")?;
    let known = gates.iter().find(|(t, _)| *t == tag);
    let (tag, gate) = known.ok_or_else(|| format!("unknown benchmark tag {tag:?}"))?;
    gate(&doc)?;
    Ok(tag)
}
