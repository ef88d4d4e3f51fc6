//! The one sweep harness: everything the five `BENCH_*.json` sweeps share.
//!
//! A sweep ([`Sweep`]) is a config type that names its schema tag, lists
//! its top-level fields and row columns **once** ([`Field`]: a JSON key
//! plus the accessor that produces its value), parses its own flags, and
//! measures rows. From that one definition this module derives
//!
//! * the canonical-JSON document ([`to_json`], rendered through
//!   `ppbench_core::json`), the human table ([`table`]), and the schema
//!   gate ([`check`]: a document parsed by `ppbench_core::json::Json` must
//!   have exactly the sweep's key set at the top level and on every row,
//!   and obey its optional 1% rate-vs-raw-measurement rule) — so the keys
//!   a sweep emits and the keys its gate demands cannot drift apart: they
//!   are the same list;
//! * the `variant × threads × trials` measurement loop ([`sweep_points`]):
//!   serial variants once at one thread, parallel variants once per thread
//!   count with the global pool resized, best-of-N seconds per point, and
//!   **every** repetition of every variant judged against the first
//!   measurement of the group (the reference) — a fast wrong answer is a
//!   failed sweep, not a benchmark row;
//! * the CLI plumbing `ppsweep` needs ([`parse_args`] and the list
//!   parsers).
//!
//! Thread counts are always explicit: a sweep's rows depend on its flags,
//! so nothing here consults the machine.

use std::path::PathBuf;
use std::str::FromStr;

use ppbench_core::json::{Json, JsonArray, JsonObject};

/// A scalar [`Json`] value as a table cell: floats at four decimals, or
/// three significant exponent digits when that would print as zeros or a
/// wall of digits.
fn cell(value: &Json) -> String {
    match value {
        Json::String(s) => s.clone(),
        Json::Uint(n) => n.to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Number(v) if *v == 0.0 || (1e-3..1e6).contains(&v.abs()) => format!("{v:.4}"),
        Json::Number(v) => format!("{v:.3e}"),
        Json::Null | Json::Array(_) | Json::Object(_) => "?".to_string(),
    }
}

/// One key of a sweep document and the accessor producing its (scalar)
/// value from a `T` (a result row, or the sweep config for top-level
/// fields): `Uint` for counts, `Number` for measurements, `String`, `Bool`.
/// The key set, the emitted JSON, the table header and the schema gate are
/// all read off a `&[Field<T>]`.
pub struct Field<T: 'static> {
    /// JSON key (and table header).
    pub key: &'static str,
    /// Extracts the value.
    pub get: fn(&T) -> Json,
}

impl<T> Field<T> {
    /// A field named `key` whose value `get` extracts.
    pub const fn new(key: &'static str, get: fn(&T) -> Json) -> Self {
        Self { key, get }
    }
}

/// "Each row's reported rates must agree with its own raw measurements":
/// `rate ≈ size / seconds × factor` within [`RATE_TOLERANCE`], so a stale
/// or hand-edited rate is rejected even though the shape is intact.
#[derive(Debug, Clone, Copy)]
pub struct RateRule {
    /// Key of the numerator (megabytes, requests).
    pub size: &'static str,
    /// Key of the wall-clock seconds.
    pub seconds: &'static str,
    /// `(rate key, factor)` pairs to cross-check.
    pub rates: &'static [(&'static str, f64)],
}

/// Relative error a reported rate may have against its raw measurements.
pub const RATE_TOLERANCE: f64 = 0.01;

/// One `BENCH_*.json` sweep, defined once. Implemented by each sweep's
/// config type.
pub trait Sweep: Default + 'static {
    /// One measured point.
    type Row: 'static;
    /// `ppsweep` subcommand.
    const NAME: &'static str;
    /// The document's `"benchmark"` tag; bumped on any schema change.
    const TAG: &'static str;
    /// Default output path.
    const OUT: &'static str;
    /// Usage text of the flags [`Sweep::flag`] accepts.
    const FLAGS: &'static str;
    /// Top-level fields (besides `benchmark` and `results`).
    const TOP: &'static [Field<Self>];
    /// Row columns, in table order.
    const COLUMNS: &'static [Field<Self::Row>];
    /// Rate-consistency rule of the schema gate, if the rows carry rates
    /// derived from raw fields of the same row.
    const RATES: Option<RateRule> = None;

    /// Applies one command-line flag, pulling its argument (if it takes
    /// one) from `value`. `None` means unknown flag or bad argument.
    fn flag(&mut self, flag: &str, value: &mut dyn FnMut() -> Option<String>) -> Option<()>;

    /// Runs the sweep. Row order is deterministic.
    fn run(&self) -> Result<Vec<Self::Row>, String>;
}

fn object<T>(fields: &[Field<T>], of: &T) -> JsonObject {
    let mut obj = JsonObject::new();
    for field in fields {
        match (field.get)(of) {
            Json::String(s) => obj.set_str(field.key, &s),
            Json::Uint(n) => obj.set_u64(field.key, n),
            Json::Number(v) => obj.set_f64(field.key, v),
            Json::Bool(b) => obj.set_bool(field.key, b),
            Json::Null | Json::Array(_) | Json::Object(_) => obj.set_null(field.key),
        };
    }
    obj
}

/// Renders the sweep as its canonical `BENCH_*.json` document (sorted
/// keys, shortest-roundtrip floats).
pub fn to_json<S: Sweep>(cfg: &S, rows: &[S::Row]) -> String {
    let mut results = JsonArray::new();
    for row in rows {
        results.push_obj(&object(S::COLUMNS, row));
    }
    let mut doc = object(S::TOP, cfg);
    doc.set_str("benchmark", S::TAG)
        .set_raw("results", results.render());
    doc.render()
}

/// Renders the rows as a right-aligned text table, one column per
/// [`Sweep::COLUMNS`] entry, headed by its key.
pub fn table<S: Sweep>(rows: &[S::Row]) -> String {
    let mut lines: Vec<Vec<String>> = vec![S::COLUMNS.iter().map(|c| c.key.to_string()).collect()];
    for row in rows {
        lines.push(S::COLUMNS.iter().map(|c| cell(&(c.get)(row))).collect());
    }
    let mut widths = vec![0; S::COLUMNS.len()];
    for line in &lines {
        for (width, text) in widths.iter_mut().zip(line) {
            *width = text.len().max(*width);
        }
    }
    let mut out = String::new();
    for line in &lines {
        for (text, width) in line.iter().zip(&widths) {
            out.push_str(&format!("{text:>width$} "));
        }
        out.truncate(out.trim_end().len());
        out.push('\n');
    }
    out
}

/// The schema gate of sweep `S` over a parsed document: exactly `S`'s top
/// keys (plus `benchmark` and `results`) at the top level, at least one
/// result row, exactly `S`'s column keys on every row — drift fails in
/// either direction, missing *or* extra — and the rate rule, if any, on
/// every row. The caller has matched the `"benchmark"` tag to `S`.
pub fn check<S: Sweep>(doc: &Json) -> Result<(), String> {
    let mut top_keys: Vec<_> = S::TOP.iter().map(|f| f.key).collect();
    top_keys.extend(["benchmark", "results"]);
    top_keys.sort_unstable();
    let mut row_keys: Vec<_> = S::COLUMNS.iter().map(|f| f.key).collect();
    row_keys.sort_unstable();
    if doc.keys() != top_keys {
        let got = doc.keys();
        return Err(format!("top-level keys {got:?} != expected {top_keys:?}"));
    }
    let Some(Json::Array(rows)) = doc.get("results") else {
        return Err("\"results\" is not an array".to_string());
    };
    if rows.is_empty() {
        return Err("no result rows".to_string());
    }
    for (r, row) in rows.iter().enumerate() {
        if row.keys() != row_keys {
            let got = row.keys();
            return Err(format!("row {r} keys {got:?} != expected {row_keys:?}"));
        }
        if let Some(rule) = &S::RATES {
            rule.check(row).map_err(|e| format!("row {r}: {e}"))?;
        }
    }
    Ok(())
}

impl RateRule {
    fn check(&self, row: &Json) -> Result<(), String> {
        let num = |key: &str| {
            let value = row.get(key).and_then(Json::as_f64);
            value.ok_or_else(|| format!("field {key:?} is not a number"))
        };
        let (size, seconds) = (num(self.size)?, num(self.seconds)?);
        if seconds <= 0.0 {
            return Err(format!("non-positive seconds {seconds}"));
        }
        for &(rate_key, factor) in self.rates {
            let (reported, implied) = (num(rate_key)?, size / seconds * factor);
            let rel = (reported - implied).abs() / implied.abs().max(f64::MIN_POSITIVE);
            if rel > RATE_TOLERANCE {
                let (pct, raw) = (rel * 100.0, format!("{}/{}", self.size, self.seconds));
                return Err(format!(
                    "{rate_key} = {reported} is {pct:.1}% off {raw}·{factor} = {implied}"
                ));
            }
        }
        Ok(())
    }
}

/// One alternative on a sweep's variant axis: what `measure` is handed to
/// run it, its stable JSON name, and whether it uses the thread pool
/// (serial variants are measured once, at `threads = 1`).
pub type Variant<V> = (V, &'static str, bool);

/// One measured point of [`sweep_points`].
#[derive(Debug, Clone)]
pub struct Point<S> {
    /// Name of the variant that ran.
    pub variant: &'static str,
    /// Thread count the pool was sized to (1 for serial variants).
    pub threads: usize,
    /// Fastest repetition's seconds (best-of-N damps scheduler and
    /// page-cache noise).
    pub seconds: f64,
    /// What `judge` returned for that repetition.
    pub summary: S,
}

/// What [`sweep_points`] measured.
#[derive(Debug)]
pub struct Swept<M, S> {
    /// One point per `(variant, thread count)`, in measurement order.
    pub points: Vec<Point<S>>,
    /// The first output measured — what every other was judged against.
    pub reference: Option<M>,
}

/// Sizes the global thread pool, surfacing the error as a string (the
/// shim never fails; real rayon could). `0` leaves it unpinned.
pub fn size_pool(threads: usize) -> Result<(), String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| format!("failed to size thread pool to {threads}: {e}"))
}

/// The shared measurement loop: `variants` in order, each at one thread
/// (serial) or at every entry of `threads` (parallel), each point measured
/// `trials` times keeping the fastest.
///
/// `measure(variant, threads)` runs one repetition and returns its seconds
/// and output, or `None` when the variant cannot run here (the point is
/// skipped). The very first output becomes the group's reference; `judge`
/// sees **every** output — the kept repetition or not — beside the
/// reference (`None` while judging the reference itself) and either fails
/// the sweep or condenses the output into the summary a row needs, so the
/// output itself (a matrix, a file set) is dropped at once. Leaves the
/// pool unpinned for whatever runs next in this process.
pub fn sweep_points<V: Copy, M, S>(
    variants: &[Variant<V>],
    threads: &[usize],
    trials: usize,
    mut measure: impl FnMut(V, usize) -> Result<Option<(f64, M)>, String>,
    mut judge: impl FnMut(Option<&M>, &M) -> Result<S, String>,
) -> Result<Swept<M, S>, String> {
    let mut points = Vec::new();
    let mut reference: Option<M> = None;
    for &(run, variant, parallel) in variants {
        let counts: &[usize] = if parallel { threads } else { &[1] };
        for &threads in counts {
            size_pool(threads)?;
            let mut best: Option<(f64, S)> = None;
            for trial in 0..trials.max(1) {
                let Some((seconds, output)) = measure(run, threads)? else {
                    break;
                };
                let summary = judge(reference.as_ref(), &output)
                    .map_err(|e| format!("{variant} (t{threads}, trial {trial}): {e}"))?;
                if best.as_ref().is_none_or(|(b, _)| seconds < *b) {
                    best = Some((seconds, summary));
                }
                reference.get_or_insert(output);
            }
            if let Some((seconds, summary)) = best {
                points.push(Point {
                    variant,
                    threads,
                    seconds,
                    summary,
                });
            }
        }
    }
    size_pool(0)?;
    Ok(Swept { points, reference })
}

/// Parses a sweep's flags (everything after the `ppsweep` subcommand)
/// into its config and output path. `None` means a usage error.
pub fn parse_args<S: Sweep>(mut argv: impl Iterator<Item = String>) -> Option<(S, PathBuf)> {
    let mut cfg = S::default();
    let mut out = PathBuf::from(S::OUT);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next();
        if flag == "--out" {
            out = PathBuf::from(value()?);
        } else {
            cfg.flag(&flag, &mut value)?;
        }
    }
    Some((cfg, out))
}

/// Parses a `lo:hi` (inclusive) scale-range CLI argument.
pub fn parse_scale_range(s: &str) -> Option<std::ops::RangeInclusive<u32>> {
    let (lo, hi) = s.split_once(':')?;
    let lo: u32 = lo.parse().ok()?;
    let hi: u32 = hi.parse().ok()?;
    if lo > hi || hi > 40 {
        return None;
    }
    Some(lo..=hi)
}

/// Parses a scale-list CLI argument: comma-separated entries, each either
/// a single scale (`22`) or an inclusive `lo:hi` range (`16:20`), e.g.
/// `16:18,22,24`. Sparse lists let a sweep mix a dense comparison band
/// with isolated stress points.
pub fn parse_scale_list(s: &str) -> Option<Vec<u32>> {
    let mut scales = Vec::new();
    for part in s.split(',') {
        if part.contains(':') {
            scales.extend(parse_scale_range(part)?);
        } else {
            scales.push(part.parse().ok().filter(|&v: &u32| v <= 40)?);
        }
    }
    Some(scales).filter(|s| !s.is_empty())
}

/// Parses a nonempty comma-separated list whose every entry passes `ok`.
fn parse_list<T: FromStr>(s: &str, ok: fn(&T) -> bool) -> Option<Vec<T>> {
    let parts = s.split(',').map(|p| p.trim().parse().ok().filter(ok));
    parts.collect::<Option<Vec<T>>>().filter(|v| !v.is_empty())
}

/// Parses a comma-separated list of positive integers (`"1,2,4,8"`):
/// thread counts, burst sizes.
pub fn parse_thread_list(s: &str) -> Option<Vec<usize>> {
    parse_list(s, |n| *n > 0)
}

/// Parses a comma-separated list of positive finite rates, e.g.
/// `500,1000,2500.5`.
pub fn parse_rate_list(s: &str) -> Option<Vec<f64>> {
    parse_list(s, |r| r.is_finite() && *r > 0.0)
}

/// Parses one integer argument that must be at least 1 (`--trials`,
/// `--num-files`, …).
pub fn parse_positive<T: FromStr + PartialOrd + From<u8>>(s: &str) -> Option<T> {
    s.parse().ok().filter(|n| *n >= T::from(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_range_parses() {
        assert_eq!(parse_scale_range("16:22"), Some(16..=22));
        assert_eq!(parse_scale_range("5:5"), Some(5..=5));
        assert_eq!(parse_scale_range("9:4"), None);
        assert_eq!(parse_scale_range("junk"), None);
        assert_eq!(parse_scale_range("1:99"), None);
    }

    #[test]
    fn scale_list_parses_singles_ranges_and_mixes() {
        assert_eq!(parse_scale_list("22"), Some(vec![22]));
        assert_eq!(parse_scale_list("16:18"), Some(vec![16, 17, 18]));
        assert_eq!(
            parse_scale_list("16:18,22,24"),
            Some(vec![16, 17, 18, 22, 24])
        );
        assert_eq!(parse_scale_list("junk"), None);
        assert_eq!(parse_scale_list("5,99"), None);
        assert_eq!(parse_scale_list("9:4"), None);
        assert_eq!(parse_scale_list(""), None);
    }

    #[test]
    fn thread_and_rate_lists_parse_strictly() {
        assert_eq!(parse_thread_list("1,2,4,8"), Some(vec![1, 2, 4, 8]));
        assert_eq!(parse_thread_list("4"), Some(vec![4]));
        for bad in ["0", "", "two", "1,,2"] {
            assert_eq!(parse_thread_list(bad), None, "{bad:?}");
        }
        assert_eq!(parse_rate_list("500"), Some(vec![500.0]));
        assert_eq!(
            parse_rate_list("500,1000,2500.5"),
            Some(vec![500.0, 1000.0, 2500.5])
        );
        for bad in ["0", "-5", "junk", "", "inf", "NaN"] {
            assert_eq!(parse_rate_list(bad), None, "{bad:?}");
        }
        assert_eq!(parse_positive::<usize>("3"), Some(3));
        assert_eq!(parse_positive::<u32>("0"), None);
    }

    /// `(runs here?, name, parallel)`.
    const TOYS: [Variant<bool>; 3] = [
        (true, "serial", false),
        (false, "absent", true),
        (true, "parallel", true),
    ];

    #[test]
    fn points_loop_keeps_the_fastest_trial_and_judges_every_one() {
        let mut clock = [5.0, 3.0, 4.0, 9.0, 8.0, 7.0, 1.0, 2.0, 6.0].into_iter();
        let mut judged = 0;
        let Swept { points, reference } = sweep_points(
            &TOYS,
            &[2, 4],
            3,
            |runs, threads| Ok(runs.then(|| (clock.next().unwrap(), threads))),
            |reference, &output| {
                judged += 1;
                assert_eq!(reference.is_none(), judged == 1);
                Ok(output * 10)
            },
        )
        .unwrap();
        assert_eq!(judged, 9, "3 points × 3 trials, none skipped");
        assert_eq!(reference, Some(1), "the first output is the reference");
        let got: Vec<_> = points
            .iter()
            .map(|p| (p.variant, p.threads, p.seconds, p.summary))
            .collect();
        let want = vec![
            ("serial", 1, 3.0, 10),
            ("parallel", 2, 7.0, 20),
            ("parallel", 4, 1.0, 40),
        ];
        assert_eq!(got, want, "serial once at t1; absent variant skipped");
    }

    #[test]
    fn points_loop_fails_the_sweep_when_any_trial_is_judged_wrong() {
        let mut calls = 0;
        let err = sweep_points(
            &TOYS[2..],
            &[2],
            3,
            |_, _| {
                calls += 1;
                Ok(Some((1.0, calls)))
            },
            |_, &output| if output == 3 { Err("drifted") } else { Ok(()) }.map_err(String::from),
        )
        .unwrap_err();
        assert!(err.contains("parallel (t2, trial 2): drifted"), "{err}");
    }
}
