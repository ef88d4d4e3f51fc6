//! The PageRank Pipeline Benchmark: kernels 0–3, pipeline orchestration,
//! timing, and validation.
//!
//! The benchmark (Dreher et al., IPPS 2016) is four mathematically specified
//! kernels run as a pipeline, each fully completing before the next begins:
//!
//! * **Kernel 0 — Generate.** Emit `M = k·2^S` edges of an approximately
//!   power-law graph (Graph500 generator) and write them to files as
//!   tab-separated vertex pairs. Untimed in the official metric, measured
//!   anyway for the paper's Figure 4.
//! * **Kernel 1 — Sort.** Read the files, sort edges by start vertex,
//!   rewrite them. Metric: edges/second.
//! * **Kernel 2 — Filter.** Read the sorted files, assemble the `N×N`
//!   adjacency matrix (duplicates accumulate), compute in-degrees, zero the
//!   max-in-degree column(s) (super-node) and in-degree-1 columns (leaves),
//!   and divide each row by its out-degree. Metric: edges/second.
//! * **Kernel 3 — PageRank.** 20 iterations of
//!   `r ← c·(r·A) + (1−c)·sum(r)/N`, `c = 0.85`. Metric: 20·edges/second.
//!
//! The paper evaluates the same spec implemented in six languages; this
//! crate reproduces that axis as four [`backend`]s — [`Variant::Optimized`]
//! (tuned native), [`Variant::Naive`] (line-at-a-time interpreter style),
//! [`Variant::Dataframe`] (columnar, on `ppbench-frame`), and
//! [`Variant::Parallel`] (rayon, the paper's stated future work) — all of
//! which must produce *identical ranks* up to floating-point reassociation,
//! which [`validate`] checks.
//!
//! # Quickstart
//!
//! ```
//! use ppbench_core::{Pipeline, PipelineConfig};
//!
//! let cfg = PipelineConfig::builder().scale(7).seed(42).build();
//! let dir = std::env::temp_dir().join(format!("ppbench-core-doc-{}", std::process::id()));
//! let result = Pipeline::new(cfg, &dir).run().unwrap();
//! println!("{}", result.summary());
//! std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod backend;
mod config;
mod error;
pub mod fused;
pub mod json;
pub mod kernel0;
pub mod kernel1;
pub mod kernel2;
pub mod kernel3;
pub mod model;
mod pipeline;
pub mod rank;
pub mod report;
mod results;
pub mod table;
mod timing;
pub mod validate;
pub mod workload;

pub use backend::Variant;
pub use config::{Cli, ConfigField, Wire, FIELDS};
pub use config::{PipelineConfig, PipelineConfigBuilder, ValidationLevel};
pub use error::{Error, Result};
pub use fused::FusedOutcome;
pub use kernel3::DanglingStrategy;
pub use pipeline::{NoopObserver, Pipeline, PipelineObserver};
pub use report::RunRecord;
pub use results::{Kernel0Result, Kernel1Result, Kernel2Result, Kernel3Result, PipelineResult};
pub use timing::{timed, KernelTiming, Stopwatch};
pub use workload::Workload;

/// The damping factor `c` fixed by the benchmark specification.
pub const DAMPING: f64 = 0.85;

/// The iteration count fixed by the benchmark specification.
pub const ITERATIONS: u32 = 20;
