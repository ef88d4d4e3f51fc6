//! `join-order` — shutdown ordering between channels and thread joins.
//!
//! The deadlock this automates (PR 4 found it by hand in the pipelined
//! sorter, since deleted): a worker loops on a channel until the far
//! endpoint closes; the coordinating thread calls `handle.join()` *first*
//! and only drops its endpoint afterwards. The worker never sees the
//! hangup, the join never returns. The sound shape keeps every
//! `drop(endpoint)` **before** the joins, which is what that sorter did
//! and what the channel-fed threads that remain — the `ppbench-dist`
//! fabric and the `ppbench-serve` workers — must keep doing:
//!
//! ```text
//! drop(out_rx);                 // unblocks a worker stuck on send()
//! worker.join()                 // now guaranteed to finish
//! ```
//!
//! Detection is per-function: bindings from
//! `let (tx, rx) = channel()/bounded()/unbounded()/sync_channel()` (plus
//! `.clone()`s of either endpoint) are channel endpoints; a
//! `drop(endpoint)` that appears *after* a `.join()` in the same body is
//! reported at the join. Endpoints moved into spawned closures never see
//! a later `drop` in the coordinator, so they cannot false-positive.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::parse::Structure;
use crate::source::SourceFile;

/// Constructor idents whose call produces a `(sender, receiver)` pair.
const CHANNEL_CTORS: &[&str] = &["channel", "bounded", "unbounded", "sync_channel"];

/// Scans each function body for joins that precede an endpoint drop.
pub fn check(file: &SourceFile, structure: &Structure, out: &mut Vec<Diagnostic>) {
    for f in &structure.fns {
        let Some((body_open, body_close)) = f.body else {
            continue;
        };
        if file.in_test_code(body_open) {
            continue;
        }
        check_body(file, body_open, body_close, out);
    }
}

fn check_body(file: &SourceFile, body_open: usize, body_close: usize, out: &mut Vec<Diagnostic>) {
    let mut endpoints: Vec<String> = Vec::new();
    // (code index of the join's `join` ident, receiver name)
    let mut joins: Vec<(usize, String)> = Vec::new();
    // (code index of the drop, endpoint name)
    let mut drops: Vec<(usize, String)> = Vec::new();

    let mut i = body_open + 1;
    while i < body_close {
        let text = file.code_text(i);
        match text {
            // `let (a, b) = …ctor…(` — both idents become endpoints when
            // the initializer's callee (everything up to its argument
            // paren) mentions a channel constructor.
            "let" if i + 5 < body_close && file.code_text(i + 1) == "(" => {
                let a = i + 2;
                if file.code_token(a).kind == TokenKind::Ident
                    && file.code_text(a + 1) == ","
                    && file.code_token(a + 2).kind == TokenKind::Ident
                    && file.code_text(a + 3) == ")"
                    && file.code_text(a + 4) == "="
                {
                    let mut j = a + 5;
                    let mut is_channel = false;
                    while j < body_close {
                        let t = file.code_text(j);
                        if t == "(" || t == ";" {
                            break;
                        }
                        if CHANNEL_CTORS.contains(&t) {
                            is_channel = true;
                        }
                        j += 1;
                    }
                    if is_channel {
                        endpoints.push(file.code_text(a).to_string());
                        endpoints.push(file.code_text(a + 2).to_string());
                    }
                }
            }
            // `let tx2 = tx.clone()` — clones of endpoints are endpoints.
            "clone"
                if i >= 2
                    && file.code_text(i - 1) == "."
                    && endpoints.iter().any(|e| e == file.code_text(i - 2))
                    && i >= 4
                    && file.code_text(i - 3) == "="
                    && file.code_token(i - 4).kind == TokenKind::Ident =>
            {
                endpoints.push(file.code_text(i - 4).to_string());
            }
            "join"
                if i > 0
                    && file.code_text(i - 1) == "."
                    && i + 2 < body_close
                    && file.code_text(i + 1) == "("
                    && file.code_text(i + 2) == ")"
                    && i >= 2
                    && file.code_token(i - 2).kind == TokenKind::Ident =>
            {
                joins.push((i, file.code_text(i - 2).to_string()));
            }
            "drop"
                if i + 2 < body_close
                    && file.code_text(i + 1) == "("
                    && file.code_token(i + 2).kind == TokenKind::Ident
                    && file.code_text(i + 3) == ")" =>
            {
                drops.push((i + 2, file.code_text(i + 2).to_string()));
            }
            _ => {}
        }
        i += 1;
    }

    for &(drop_idx, ref name) in &drops {
        if !endpoints.iter().any(|e| e == name) {
            continue;
        }
        // The first join that precedes this endpoint's drop is the bug
        // site: at that point the endpoint is still open.
        if let Some(&(join_idx, ref handle)) = joins.iter().find(|&&(j, _)| j < drop_idx) {
            let join_tok = file.code_token(join_idx);
            let drop_tok = file.code_token(drop_idx);
            out.push(Diagnostic {
                rule: "join-order",
                path: file.path.clone(),
                line: join_tok.line,
                col: join_tok.col,
                message: format!(
                    "`{handle}.join()` runs before `drop({name})` (line {}): a thread \
                     blocked on that channel never sees the hangup and the join \
                     deadlocks — drop the endpoint first",
                    drop_tok.line
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new(
            PathBuf::from("crates/x/src/lib.rs"),
            src.to_string(),
            "ppbench-sort".into(),
            FileKind::Lib,
        );
        let s = Structure::build(&f);
        let mut out = Vec::new();
        check(&f, &s, &mut out);
        out
    }

    #[test]
    fn drop_before_join_is_clean() {
        let out = run("fn f() { let (tx, rx) = channel::bounded::<u64>(4); \
             let h = spawn_worker(tx); consume(&rx); drop(rx); \
             let r = h.join(); use_(r); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn drop_after_join_is_flagged() {
        let out = run("fn f() { let (tx, rx) = channel::bounded::<u64>(4); \
             let h = spawn_worker(tx); consume(&rx); \
             let r = h.join(); drop(rx); use_(r); }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "join-order");
        assert!(out[0].message.contains("drop(rx)"), "{}", out[0].message);
    }

    #[test]
    fn cloned_endpoint_dropped_after_join_is_flagged() {
        let out = run(
            "fn f() { let (tx, rx) = unbounded(); let tx2 = tx.clone(); \
             let h = spawn_worker(tx, rx); let r = h.join(); drop(tx2); use_(r); }",
        );
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn dropping_a_non_endpoint_after_join_is_clean() {
        let out = run(
            "fn f() { let (tx, rx) = sync_channel(4); let buf = make_buf(); \
             let h = spawn_worker(tx, rx); let r = h.join(); drop(buf); use_(r); }",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn joins_without_channels_are_clean() {
        let out = run("fn f() { let h = std::thread::spawn(work); \
             match h.join() { Ok(r) => use_(r), Err(p) => resume(p) } }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn tuple_destructuring_without_channel_ctor_is_ignored() {
        let out = run("fn f() { let (a, b) = split_pair(); let h = go(a); \
             let r = h.join(); drop(b); use_(r); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let out = run(
            "#[cfg(test)] mod tests { fn f() { let (tx, rx) = channel(); \
             let h = go(tx); let r = h.join(); drop(rx); use_(r); } }",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
