//! `ppbench-analyze` — a from-scratch workspace lint pass enforcing the
//! two invariants this codebase lives or dies by: **kernels are
//! deterministic given a seed** (the paper's bit-reproducible Table II
//! checksums) and **library code ends in an error, not a panic** (the
//! serving stack's contract).
//!
//! No rustc plumbing, no syn: a hand-rolled comment/string/lifetime-aware
//! [`lexer`] feeds one token layer, a per-file code-token view with
//! `#[cfg(test)]` modules excluded. Every rule is a pass over that view:
//!
//! | Rule | Invariant |
//! |---|---|
//! | `panic` | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library code |
//! | `indexing` | no panicking slice indexing in the serving crates |
//! | `time-source` | `Instant`/`SystemTime` only inside `core/src/timing.rs` on the kernel path |
//! | `hash-iteration` | no `HashMap`/`HashSet` where iteration order could reach hashed or serialized state |
//! | `forbid-unsafe` | every crate root carries `#![forbid(unsafe_code)]` |
//! | `discarded-result` | no `let _ =` discarding a value in library code |
//! | `waiver` | waivers are well-formed, name a real rule, and carry a reason |
//! | `stale-waiver` | every waiver still suppresses something |
//!
//! Every finding is a hard CI error. The escape hatch is an inline
//! waiver with a mandatory reason:
//!
//! ```text
//! // ppbench: allow(hash-iteration, reason = "membership-only; order never observed")
//! ```
//!
//! An unused waiver is itself a finding (`stale-waiver`): the set of
//! reviewed exceptions only ratchets downward, tracked by the committed
//! [`baseline`] (`ANALYZE_BASELINE.json`) that CI checks. Findings can
//! also be rendered as SARIF 2.1.0 ([`sarif`]) for code-scanning upload.
//!
//! Tests, benches, examples, and `#[cfg(test)]` modules are exempt —
//! panicking is the assertion mechanism there. The vendored `shims/`
//! crates are excluded: they mirror third-party APIs, not project
//! invariants.
//!
//! Run it exactly as CI does:
//!
//! ```text
//! cargo run -p ppbench-analyze -- --workspace --check-baseline
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod baseline;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod sarif;
pub mod source;
pub mod waiver;
pub mod walk;

pub use diag::Diagnostic;
pub use engine::analyze;
pub use source::{FileKind, SourceFile};
