//! A lightweight token-tree/block view over a [`SourceFile`] — the
//! structure layer between the lexer and the rules that need more than a
//! flat token scan.
//!
//! This is deliberately **not** an AST. It computes exactly three things
//! the structural rules consume:
//!
//! * a delimiter match map (`(` ↔ `)`, `[` ↔ `]`, `{` ↔ `}`) over the
//!   code-token view, so rules can skip argument lists and bodies in O(1);
//! * item headers: every `fn` with its name and body range (`join-order`
//!   scans one body at a time);
//! * loop body ranges (`loop`/`while`/`for`), so `Condvar::wait` sites can
//!   be classified as inside or outside a retry loop.
//!
//! All positions are indices into the file's *code-token* view (comments
//! excluded), matching what every rule already iterates over.

use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// One `fn` item: its name and (when present) the code-index range of its
/// body braces.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name (`r#`-prefix stripped is not attempted; names in this
    /// workspace are plain identifiers).
    pub name: String,
    /// Code indices of the body `{` and `}` (inclusive), or `None` for
    /// trait-method declarations (`fn f();`).
    pub body: Option<(usize, usize)>,
}

/// The structural view of one file. Built once per file by the engine and
/// shared by every structural rule.
pub struct Structure {
    /// `match_map[i]` is the code index of the delimiter matching the one
    /// at code index `i` (`None` for non-delimiters and unbalanced ones).
    match_map: Vec<Option<usize>>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Body ranges (code indices of `{` and `}`) of every `loop`, `while`,
    /// and `for`, in source order.
    loop_bodies: Vec<(usize, usize)>,
}

impl Structure {
    /// Builds the structural view for `file`.
    pub fn build(file: &SourceFile) -> Self {
        let match_map = build_match_map(file);
        let mut s = Structure {
            match_map,
            fns: Vec::new(),
            loop_bodies: Vec::new(),
        };
        s.collect_items(file);
        s.collect_loops(file);
        s
    }

    /// The code index matching the delimiter at code index `i`.
    pub fn matching(&self, i: usize) -> Option<usize> {
        self.match_map.get(i).copied().flatten()
    }

    /// True when code index `i` lies strictly inside the body of some
    /// `loop`/`while`/`for`.
    pub fn in_loop(&self, i: usize) -> bool {
        self.loop_bodies.iter().any(|&(s, e)| i > s && i < e)
    }

    /// The innermost `fn` whose body contains code index `i`.
    pub fn fn_containing(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter_map(|f| {
                let (s, e) = f.body?;
                (i > s && i < e).then_some((f, e - s))
            })
            .min_by_key(|&(_, span)| span)
            .map(|(f, _)| f)
    }

    /// The named function, if the file defines one.
    pub fn fn_named(&self, name: &str) -> Option<&FnItem> {
        self.fns.iter().find(|f| f.name == name)
    }

    /// Starting at code index `i`, skips forward over complete delimiter
    /// groups until a token satisfying `stop` is found at the current
    /// nesting level. Returns its index.
    fn scan_to(
        &self,
        file: &SourceFile,
        mut i: usize,
        stop: impl Fn(&str) -> bool,
    ) -> Option<usize> {
        let n = file.code_len();
        while i < n {
            let t = file.code_text(i);
            if stop(t) {
                return Some(i);
            }
            if matches!(t, "(" | "[" | "{") {
                match self.matching(i) {
                    Some(close) => i = close + 1,
                    None => return None,
                }
            } else {
                i += 1;
            }
        }
        None
    }

    fn collect_items(&mut self, file: &SourceFile) {
        let n = file.code_len();
        let mut i = 0;
        while i < n {
            match file.code_text(i) {
                // `fn name` — but not the `fn(args)` of a function-pointer
                // type, whose next token is `(` (a Punct, so the kind
                // check below rejects it).
                "fn" if i + 1 < n && file.code_token(i + 1).kind == TokenKind::Ident => {
                    let name_idx = i + 1;
                    let name = file.code_text(name_idx).to_string();
                    // The body is the first `{` after the header; the
                    // header can contain `(`/`[` groups (args, array types)
                    // which scan_to skips whole. A `;` first means a
                    // bodyless declaration.
                    let body = self
                        .scan_to(file, name_idx + 1, |t| t == "{" || t == ";")
                        .filter(|&j| file.code_text(j) == "{")
                        .and_then(|j| self.matching(j).map(|e| (j, e)));
                    self.fns.push(FnItem { name, body });
                    if let Some((body_open, _)) = self.fns.last().and_then(|f| f.body) {
                        // Nested fns are rare here; descend into bodies so
                        // they are still collected.
                        i = body_open + 1;
                        continue;
                    }
                    i = name_idx + 1;
                }
                _ => i += 1,
            }
        }
    }

    fn collect_loops(&mut self, file: &SourceFile) {
        let n = file.code_len();
        for i in 0..n {
            if !matches!(file.code_text(i), "loop" | "while" | "for") {
                continue;
            }
            if file.code_token(i).kind != TokenKind::Ident {
                continue;
            }
            // `for` also appears in `impl Trait for Type`; in that position
            // the body brace belongs to the impl, not a loop. Disambiguate
            // by what precedes: a loop's `for` begins a statement or
            // follows a label, an impl's follows a type path.
            if file.code_text(i) == "for" && i > 0 {
                let prev = file.code_text(i - 1);
                let prev_kind = file.code_token(i - 1).kind;
                let statement_like = matches!(prev, "{" | "}" | ";" | ":" | "=" | ",");
                if !statement_like && (prev_kind == TokenKind::Ident || matches!(prev, ">" | ")")) {
                    continue;
                }
            }
            // The first `{` outside any `(`/`[` group after the keyword is
            // the loop body (Rust forbids bare struct literals in loop
            // headers, so no earlier `{` can appear at this level).
            if let Some(open) = self.scan_to(file, i + 1, |t| t == "{" || t == ";") {
                if file.code_text(open) == "{" {
                    if let Some(close) = self.matching(open) {
                        self.loop_bodies.push((open, close));
                    }
                }
            }
        }
    }
}

/// Builds the delimiter match map over the code-token view with a single
/// stack pass. Mismatched pairs (possible on torn input) stay `None`.
fn build_match_map(file: &SourceFile) -> Vec<Option<usize>> {
    let n = file.code_len();
    let mut map = vec![None; n];
    let mut stack: Vec<(usize, &str)> = Vec::new();
    for i in 0..n {
        match file.code_text(i) {
            t @ ("(" | "[" | "{") => stack.push((i, t)),
            ")" | "]" | "}" => {
                let want = match file.code_text(i) {
                    ")" => "(",
                    "]" => "[",
                    _ => "{",
                };
                // Pop through mismatches so one stray delimiter cannot
                // poison the rest of the file.
                while let Some((open, kind)) = stack.pop() {
                    if kind == want {
                        map[open] = Some(i);
                        map[i] = Some(open);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::FileKind;
    use std::path::PathBuf;

    fn file(src: &str) -> SourceFile {
        SourceFile::new(
            PathBuf::from("crates/x/src/parse_fixture.rs"),
            src.to_string(),
            "x".into(),
            FileKind::Lib,
        )
    }

    #[test]
    fn match_map_pairs_all_three_delimiters() {
        let f = file("fn f(a: [u8; 2]) { g(a[0]); }");
        let s = Structure::build(&f);
        for i in 0..f.code_len() {
            if matches!(f.code_text(i), "(" | "[" | "{") {
                let close = s.matching(i).expect("every open has a close");
                assert_eq!(s.matching(close), Some(i));
            }
        }
    }

    #[test]
    fn fn_items_carry_names_and_bodies() {
        let f = file(
            "pub fn alpha(x: u64) -> u64 { x + 1 }\n\
             fn beta();\n\
             const CB: fn(u8) -> u8 = conv;\n\
             fn gamma<T: Clone>(t: &T) -> Vec<T> where T: Send { vec![t.clone()] }",
        );
        let s = Structure::build(&f);
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
        assert!(s.fn_named("alpha").expect("alpha").body.is_some());
        assert!(s.fn_named("beta").expect("beta").body.is_none());
        assert!(s.fn_named("gamma").expect("gamma").body.is_some());
    }

    #[test]
    fn nested_fns_are_collected() {
        let f = file("fn outer() { fn inner() { work(); } inner(); }");
        let s = Structure::build(&f);
        let names: Vec<&str> = s.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
        // fn_containing picks the innermost body.
        let work = (0..f.code_len())
            .find(|&i| f.code_text(i) == "work")
            .expect("work");
        assert_eq!(s.fn_containing(work).expect("inner").name, "inner");
    }

    #[test]
    fn loop_bodies_cover_all_three_loop_forms() {
        let f =
            file("fn f() { loop { a(); } while cond(x) { b(); } for i in 0..n { c(i); } d(); }");
        let s = Structure::build(&f);
        for name in ["a", "b", "c"] {
            let i = (0..f.code_len())
                .find(|&i| f.code_text(i) == name)
                .expect(name);
            assert!(s.in_loop(i), "`{name}` should be inside a loop");
        }
        let d = (0..f.code_len())
            .find(|&i| f.code_text(i) == "d")
            .expect("d");
        assert!(!s.in_loop(d));
    }

    #[test]
    fn impl_trait_for_type_is_not_a_loop() {
        let f = file("impl Display for Thing { fn fmt(&self) { x(); } }");
        let s = Structure::build(&f);
        let x = (0..f.code_len())
            .find(|&i| f.code_text(i) == "x")
            .expect("x");
        assert!(!s.in_loop(x));
    }

    #[test]
    fn while_let_header_groups_are_skipped() {
        let f = file("fn f() { while let Some(v) = it.next() { use_(v); } }");
        let s = Structure::build(&f);
        let u = (0..f.code_len())
            .find(|&i| f.code_text(i) == "use_")
            .expect("use_");
        assert!(s.in_loop(u));
    }
}
