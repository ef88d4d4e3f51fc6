//! `ppbench-analyze` — a from-scratch workspace lint pass enforcing the
//! two invariants this codebase lives or dies by: **kernels are
//! deterministic given a seed** (the paper's bit-reproducible Table II
//! checksums) and **library code never panics or deadlocks under load**
//! (the serving stack's contract).
//!
//! No rustc plumbing, no syn: a hand-rolled comment/string/lifetime-aware
//! [`lexer`] feeds two analysis layers. The token layer sees the code
//! token stream; the structure layer ([`parse`]) adds a delimiter match
//! map, `fn`/`const` items, and loop ranges per file. Rules:
//!
//! | Rule | Layer | Invariant |
//! |---|---|---|
//! | `panic` | token | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in library code |
//! | `indexing` | token | no panicking slice indexing in the serving crates |
//! | `time-source` | token | `Instant`/`SystemTime` only inside `core/src/timing.rs` on the kernel path |
//! | `hash-iteration` | token | no `HashMap`/`HashSet` where iteration order could reach hashed or serialized state |
//! | `env-dependence` | token | no `env::var*` / `available_parallelism` / `num_cpus` in kernel result paths |
//! | `lock-order` | token | no cycles in the workspace lock-acquisition graph |
//! | `lock-panic` | token | no `.lock().unwrap()` while already holding a lock |
//! | `condvar-wait` | structure | every single-guard `Condvar::wait` sits inside a loop (spurious wakeups) |
//! | `join-order` | structure | channel endpoints drop before the consuming thread is joined |
//! | `shared-accumulator` | structure | no indexed compound-assign into shared buffers inside parallel closures |
//! | `forbid-unsafe` | token | every crate root carries `#![forbid(unsafe_code)]` |
//! | `discarded-result` | token | no `let _ =` discarding a value in library code |
//! | `waiver` | meta | waivers are well-formed, name a real rule, and carry a reason |
//! | `stale-waiver` | meta | every waiver still suppresses something |
//!
//! Violations are hard CI errors, except `shared-accumulator` (a
//! heuristic, reported as a warning). The escape hatch is an inline
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
//! cargo run -p ppbench-analyze -- --workspace --deny-all --check-baseline
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod baseline;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod source;
pub mod waiver;
pub mod walk;

pub use diag::Diagnostic;
pub use engine::analyze;
pub use source::{FileKind, SourceFile};
