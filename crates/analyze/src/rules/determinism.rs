//! Determinism: the pipeline must be bit-reproducible given a seed.
//!
//! Two lexical proxies for the real invariant (which the digest and
//! two-process determinism tests assert directly):
//!
//! * **time-source** — `Instant`/`SystemTime` anywhere in a kernel crate
//!   outside `timing.rs` means a wall-clock value can leak into results
//!   (and timing policy fragments across the codebase).
//! * **hash-iteration** — `HashMap`/`HashSet` iteration order is
//!   randomized per process; in a crate whose data is checksummed,
//!   serialized, or hashed for cache identity, any use is a hazard
//!   unless proven membership-only (that proof is the waiver's reason).

use crate::diag::Diagnostic;
use crate::rules::in_scope;
use crate::source::SourceFile;

/// Runs the two determinism rules over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let time_scope = in_scope("time-source", file);
    let hash_scope = in_scope("hash-iteration", file);
    for i in 0..file.code_len() {
        if file.in_test_code(i) {
            continue;
        }
        let tok = *file.code_token(i);
        let text = file.code_text(i);
        let diag = |rule: &'static str, message: String| Diagnostic {
            rule,
            path: file.path.clone(),
            line: tok.line,
            col: tok.col,
            message,
        };

        if time_scope && (text == "Instant" || text == "SystemTime") {
            out.push(diag(
                "time-source",
                format!(
                    "{text} read in a kernel crate; route timing through \
                     ppbench_core::timing (timing.rs is the one sanctioned clock)"
                ),
            ));
        }

        if hash_scope && (text == "HashMap" || text == "HashSet") {
            out.push(diag(
                "hash-iteration",
                format!(
                    "{text} has randomized iteration order; use BTreeMap/BTreeSet or a \
                     sorted Vec, or waive with a reason proving order is never observed"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;
    use std::path::PathBuf;

    fn check_named(path: &str, src: &str, crate_name: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new(
            PathBuf::from(path),
            src.to_string(),
            crate_name.into(),
            FileKind::Lib,
        );
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    fn check_src(src: &str, crate_name: &str) -> Vec<Diagnostic> {
        check_named("crates/x/src/lib.rs", src, crate_name)
    }

    #[test]
    fn instant_flagged_in_kernel_crate_only() {
        let src = "use std::time::Instant;\nfn f() { let _t = Instant::now(); }";
        let out = check_src(src, "ppbench-core");
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.rule == "time-source"));
        assert!(check_src(src, "ppbench-serve").is_empty());
    }

    #[test]
    fn timing_rs_is_sanctioned() {
        let out = check_named(
            "crates/core/src/timing.rs",
            "use std::time::Instant;",
            "ppbench-core",
        );
        assert!(out.is_empty());
    }

    #[test]
    fn hashmap_flagged_in_serve_too() {
        let src = "use std::collections::HashMap;";
        assert_eq!(check_src(src, "ppbench-serve").len(), 1);
        assert_eq!(check_src(src, "ppbench-gen").len(), 1);
        assert!(check_src(src, "ppbench-analyze").is_empty());
    }
}
