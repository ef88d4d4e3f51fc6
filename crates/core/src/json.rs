//! The workspace's one JSON module: a canonical writer — byte-deterministic
//! serialization for every machine-readable surface (`pprank --json`, run
//! records, the service API's record payloads, the `BENCH_*.json` files) —
//! and the lossless recursive-descent parser ([`Json`]) that reads request
//! bodies, disk-cache entries and those same files back. Hand-rolled to
//! honor the workspace's no-heavy-deps ethos (no serde).
//!
//! Two rules make the output canonical:
//!
//! * **Object keys render sorted** (bytewise), whatever order they were
//!   inserted in — so the same logical record is the same byte string no
//!   matter which code path built it. Arrays keep insertion order; their
//!   order is part of the data.
//! * **Numbers render via Rust's shortest-roundtrip formatting** and
//!   strings through one escaping routine, so there is exactly one
//!   spelling of every value.
//!
//! This matters here because run records are diffed, cached by content
//! hash, and committed as fixtures: a benchmark suite whose own reports
//! are non-reproducible would fail its own determinism bar. Analogue of
//! the kernel-side invariant enforced by `ppbench-analyze`'s
//! `hash-iteration` rule.

use std::collections::BTreeMap;
use std::fmt;

/// Escapes `s` into JSON string syntax, including the surrounding quotes.
///
/// Escapes the two mandatory characters (`"` and `\`), the named control
/// escapes, and all other control characters as `\u00XX`. Everything
/// else — including non-ASCII — passes through as UTF-8.
pub fn escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` the canonical way: shortest string that round-trips,
/// with the JSON-illegal specials mapped to `null`.
pub fn format_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON object whose keys always render in sorted order.
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    // Key → pre-rendered value. BTreeMap is the sorting.
    fields: BTreeMap<String, String>,
}

impl JsonObject {
    /// An empty object (`{}`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a string field (escaped).
    pub fn set_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.fields.insert(key.to_string(), escape_string(value));
        self
    }

    /// Sets an unsigned integer field.
    pub fn set_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.insert(key.to_string(), value.to_string());
        self
    }

    /// Sets a float field (canonical formatting; non-finite → `null`).
    pub fn set_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.fields.insert(key.to_string(), format_f64(value));
        self
    }

    /// Sets a boolean field.
    pub fn set_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.fields.insert(key.to_string(), value.to_string());
        self
    }

    /// Sets a literal `null` field.
    pub fn set_null(&mut self, key: &str) -> &mut Self {
        self.fields.insert(key.to_string(), "null".to_string());
        self
    }

    /// Sets a field to already-rendered JSON (a nested object or array).
    pub fn set_raw(&mut self, key: &str, rendered: String) -> &mut Self {
        self.fields.insert(key.to_string(), rendered);
        self
    }

    /// Renders the object with keys in sorted order.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape_string(key));
            out.push(':');
            out.push_str(value);
        }
        out.push('}');
        out
    }
}

/// A JSON array; elements keep insertion order (order is data).
#[derive(Debug, Default, Clone)]
pub struct JsonArray {
    elements: Vec<String>,
}

impl JsonArray {
    /// An empty array (`[]`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a nested object.
    pub fn push_obj(&mut self, obj: &JsonObject) -> &mut Self {
        self.elements.push(obj.render());
        self
    }

    /// Renders the array.
    pub fn render(&self) -> String {
        format!("[{}]", self.elements.join(","))
    }
}

/// A parsed JSON value. Object keys are kept in a sorted map, which makes
/// request canonicalization (field-order independence) automatic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer written without a fraction or exponent,
    /// kept lossless so values above 2^53 (e.g. 64-bit seeds) survive
    /// parsing exactly.
    Uint(u64),
    /// Any other number (fractions, exponents, negatives).
    Number(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<Json>),
    /// Object.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.get(key),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integral number.
    /// Float-syntax integers above 2^53 are rejected rather than silently
    /// rounded to the nearest representable f64.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Uint(n) => Some(*n),
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `f64` number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Uint(n) => Some(*n as f64),
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object member names, for unknown-field diagnostics.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(members) => members.keys().map(String::as_str).collect(),
            _ => Vec::new(),
        }
    }
}

/// Parse failure: message plus byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level and its input arrives from the network (64 KiB
/// request bodies), so without a cap a body of `[[[[…` overflows the stack.
pub const MAX_NESTING: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseError> {
        let matches = self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(text.as_bytes()));
        if matches {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{text}'")))
        }
    }

    /// Parses one value sitting inside `depth` enclosing containers.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_NESTING => Err(self.err("nesting too deep")),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.consume(b'{')?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            if members.insert(key, value).is_some() {
                return Err(self.err("duplicate object key"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are out of scope for this
                            // API's config payloads; reject them plainly.
                            let ch = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(byte) if byte < 0x20 => return Err(self.err("control byte in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash
                    // or control byte verbatim: one UTF-8 check and one
                    // copy per run, so a string parses in linear time.
                    // Those stop bytes are ASCII, so they never split a
                    // multi-byte character.
                    let rest = self.bytes.get(self.pos..).unwrap_or_default();
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let run = rest.get(..len).unwrap_or_default();
                    let text = std::str::from_utf8(run)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(text);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|t| std::str::from_utf8(t).ok())
            .ok_or_else(|| self.err("malformed number"))?;
        // Plain non-negative integers stay lossless; everything else
        // (fractions, exponents, negatives, > u64::MAX) becomes f64.
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_render_sorted_regardless_of_insertion_order() {
        let mut a = JsonObject::new();
        a.set_u64("zulu", 1)
            .set_str("alpha", "x")
            .set_bool("mid", true);
        let mut b = JsonObject::new();
        b.set_bool("mid", true)
            .set_u64("zulu", 1)
            .set_str("alpha", "x");
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render(), "{\"alpha\":\"x\",\"mid\":true,\"zulu\":1}");
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(escape_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(escape_string("a\nb\t"), "\"a\\nb\\t\"");
        assert_eq!(escape_string("\u{01}"), "\"\\u0001\"");
        assert_eq!(escape_string("π"), "\"π\"");
    }

    #[test]
    fn floats_are_shortest_roundtrip_and_specials_are_null() {
        assert_eq!(format_f64(0.1), "0.1");
        assert_eq!(format_f64(1.0), "1");
        assert_eq!(format_f64(f64::NAN), "null");
        assert_eq!(format_f64(f64::INFINITY), "null");
        let rendered = format_f64(1.0 / 3.0);
        let back: f64 = rendered.parse().expect("roundtrips");
        assert_eq!(back, 1.0 / 3.0);
    }

    #[test]
    fn arrays_keep_insertion_order() {
        let mut arr = JsonArray::new();
        let (mut a, mut b) = (JsonObject::new(), JsonObject::new());
        a.set_u64("k", 2);
        b.set_u64("k", 1);
        arr.push_obj(&a).push_obj(&b);
        assert_eq!(arr.render(), "[{\"k\":2},{\"k\":1}]");
        assert_eq!(JsonArray::new().render(), "[]");
    }

    #[test]
    fn nested_objects_render_in_place() {
        let mut inner = JsonObject::new();
        inner.set_f64("seconds", 0.25);
        let mut outer = JsonObject::new();
        outer.set_raw("timing", inner.render()).set_null("error");
        assert_eq!(
            outer.render(),
            "{\"error\":null,\"timing\":{\"seconds\":0.25}}"
        );
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "s": "x\ny"}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Array(vec![
                Json::Uint(1),
                Json::Number(2.5),
                Json::Number(-300.0),
            ]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\ny"));
    }

    #[test]
    fn key_order_does_not_matter() {
        let a = Json::parse(r#"{"x": 1, "y": 2}"#).unwrap();
        let b = Json::parse(r#"{"y": 2, "x": 1}"#).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "\"\\q\"",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_not_recursed_into() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        assert!(Json::parse(&arrays(MAX_NESTING)).is_ok());
        assert!(Json::parse(&objects(MAX_NESTING)).is_ok());
        for deep in [arrays(MAX_NESTING + 1), objects(MAX_NESTING + 1)] {
            let err = Json::parse(&deep).unwrap_err();
            assert_eq!(err.message, "nesting too deep", "{deep}");
        }
        // The crash that motivated the cap: an unclosed 60 KB run of `[`.
        assert!(Json::parse(&"[".repeat(60_000)).is_err());
        // Siblings do not accumulate depth.
        assert!(Json::parse(&format!("[{}]", vec!["[[1]]"; 100].join(","))).is_ok());
    }

    #[test]
    fn numbers_convert_conservatively() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("7.5").unwrap().as_f64(), Some(7.5));
        assert_eq!(Json::parse("7").unwrap().as_f64(), Some(7.0));
        // Integer-valued float syntax still converts while exact.
        assert_eq!(Json::parse("1e2").unwrap().as_u64(), Some(100));
    }

    #[test]
    fn integers_above_2_pow_53_are_lossless() {
        // 2^53 + 1 rounds to 2^53 as f64; the parser must not go through
        // f64 for plain integers.
        let v = Json::parse("9007199254740993").unwrap();
        assert_eq!(v, Json::Uint(9_007_199_254_740_993));
        assert_eq!(v.as_u64(), Some(9_007_199_254_740_993));
        let max = u64::MAX.to_string();
        assert_eq!(Json::parse(&max).unwrap().as_u64(), Some(u64::MAX));
        // Beyond u64 the value cannot be exact; as_u64 must refuse rather
        // than saturate, and so must float-syntax integers above 2^53.
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e16").unwrap().as_u64(), None);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f\u{8}g\u{c}";
        let doc = format!("{{\"k\":{}}}", escape_string(nasty));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn an_8_mib_string_parses_in_linear_time() {
        // Runs of plain text between escapes, multi-byte characters at
        // every run boundary. A parser that re-validates the rest of the
        // input per character copied needs hours here; a linear one needs
        // well under a second, so the bound is generous on any machine.
        let chunk = "plain ascii run → ünïcödé \"quoted\" back\\slash\ttab\n";
        let text = chunk.repeat((8 << 20) / chunk.len() + 1);
        let doc = escape_string(&text);
        let start = std::time::Instant::now();
        let parsed = Json::parse(&doc).unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(parsed.as_str(), Some(text.as_str()));
        assert!(secs < 60.0, "8 MiB string took {secs:.1} s");
    }

    #[test]
    fn unicode_passes_through() {
        let v = Json::parse("\"héllo → wörld\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → wörld"));
    }
}
