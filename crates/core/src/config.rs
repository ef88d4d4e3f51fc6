//! Pipeline configuration.
//!
//! Every knob the benchmark specification exposes — plus every option the
//! paper's §V "community feedback" list raises — lives here, so a single
//! config value describes a run completely and two runs with equal configs
//! are bit-identical (up to the floating-point reassociation of the
//! parallel backend).
//!
//! A run is spelled once: [`FIELDS`] holds one row per [`PipelineConfig`]
//! field — its canonical/JSON key, its `pprank` flag, whether HTTP may set
//! it, what it accepts, how it renders into the cache identity and how a
//! wire value is typed into it. The canonical form, the `POST /runs`
//! parser and the `pprank` flag parser and usage text are all loops over
//! that table, so they cannot disagree.

use std::path::PathBuf;

use ppbench_gen::{GeneratorKind, GraphSpec, RmatSampler};
use ppbench_sort::SortKey;

use crate::backend::Variant;
use crate::json::Json;
use crate::kernel3::{DanglingStrategy, PageRankOptions};
use crate::workload::Workload;
use crate::{DAMPING, ITERATIONS};

/// How much checking the pipeline performs after the kernels finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValidationLevel {
    /// No validation (pure benchmark timing).
    None,
    /// Cheap invariants: digests between kernels, adjacency mass, row
    /// stochasticity, rank-vector sanity. The default.
    #[default]
    Invariants,
    /// Invariants plus the paper's eigenvector check: compare kernel 3's
    /// output against the dominant eigenvector of `c·Aᵀ + (1−c)/N·𝟙`
    /// computed by matrix-free power iteration.
    Eigenvector,
}

impl ValidationLevel {
    /// Stable name for CLI flags, request bodies and the canonical form.
    pub fn name(self) -> &'static str {
        match self {
            ValidationLevel::None => "none",
            ValidationLevel::Invariants => "invariants",
            ValidationLevel::Eigenvector => "eigen",
        }
    }

    /// Parses a [`ValidationLevel::name`] (or the long form `eigenvector`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Self::None),
            "invariants" => Some(Self::Invariants),
            "eigen" | "eigenvector" => Some(Self::Eigenvector),
            _ => None,
        }
    }
}

/// Stable name of a kernel-1 sort key (`SortKey` lives in `ppbench-sort`,
/// which knows nothing of wire formats).
fn sort_key_name(key: SortKey) -> &'static str {
    match key {
        SortKey::Start => "start",
        SortKey::StartEnd => "start-end",
    }
}

/// Parses a [`sort_key_name`].
fn parse_sort_key(s: &str) -> Option<SortKey> {
    [SortKey::Start, SortKey::StartEnd]
        .into_iter()
        .find(|&k| sort_key_name(k) == s)
}

/// Complete description of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Graph size: scale and edge factor.
    pub spec: GraphSpec,
    /// Master seed; all randomness (generation, permutations, PageRank
    /// init) derives from it deterministically.
    pub seed: u64,
    /// Number of files kernel 0 and kernel 1 write (the spec's free
    /// parameter).
    pub num_files: usize,
    /// Which generator kernel 0 uses (§V: "should a more deterministic
    /// generator be used?").
    pub generator: GeneratorKind,
    /// Which R-MAT sampling algorithm realizes the Kronecker generator:
    /// the faithful Graph500 coin-flip port or the linear-work block
    /// sampler. The two emit different (equally distributed) streams for
    /// the same seed, so the choice is canonical-hash-bearing. Ignored by
    /// non-Kronecker generators.
    pub gen: RmatSampler,
    /// Whether kernel 0 permutes vertex labels (Graph500's `randperm(N)`).
    pub permute_vertices: bool,
    /// Whether kernel 0 shuffles edge order (Graph500's `randperm(M)`).
    pub shuffle_edges: bool,
    /// Which implementation style runs the kernels.
    pub variant: Variant,
    /// Sort key for kernel 1 (§V: "should the end vertices also be
    /// sorted?").
    pub sort_key: SortKey,
    /// In-memory budget for kernel 1 in **bytes** (16 bytes per resident
    /// edge); when the input's footprint exceeds it the run engine spills
    /// sorted runs and merges them back. `None` = always in memory.
    pub sort_budget_bytes: Option<u64>,
    /// §V option: add a diagonal entry to empty rows/columns so the chain
    /// has no dangling states.
    pub add_diagonal_to_empty: bool,
    /// PageRank damping factor (`c`, 0.85 in the spec).
    pub damping: f64,
    /// Number of PageRank iterations (20 in the spec).
    pub iterations: u32,
    /// Dangling-row treatment in kernel 3 (the spec omits the correction;
    /// the appendix names the alternatives).
    pub dangling: DanglingStrategy,
    /// Optional convergence tolerance: stop kernel 3 early once the L1
    /// change per iteration drops below it (the "real application" mode
    /// §IV.D describes before fixing the iteration count).
    pub convergence_tolerance: Option<f64>,
    /// Post-run validation level.
    pub validation: ValidationLevel,
    /// What runs in the kernel-3 slot: the spec's PageRank (default) or
    /// one of the GAP-style analytics workloads.
    pub workload: Workload,
    /// Optional on-disk TSV edge list to ingest in place of the kernel-0
    /// generator; kernels 1–3 run unchanged on the ingested data.
    pub input_tsv: Option<PathBuf>,
    /// Fuse kernels 1 and 2: build the CSR directly from the sorted-run
    /// merge stream instead of materializing the sorted edge files. The
    /// resulting matrix and filter statistics are bit-identical to the
    /// staged path; only the data movement differs.
    pub fused: bool,
}

impl PipelineConfig {
    /// Starts a builder with the spec's defaults.
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder::default()
    }

    /// The kernel-3 options implied by this configuration.
    pub fn pagerank_options(&self) -> PageRankOptions {
        PageRankOptions {
            damping: self.damping,
            max_iterations: self.iterations,
            dangling: self.dangling,
            tolerance: self.convergence_tolerance,
        }
    }

    /// Every field as a canonical `(key, value)` pair, sorted by key — one
    /// per [`FIELDS`] row.
    ///
    /// This is the identity of a run for caching purposes: two configs
    /// with equal canonical fields produce bit-identical results (up to the
    /// floating-point reassociation of the parallel backend). Floats are
    /// rendered via their IEEE-754 bit patterns so the encoding is exact,
    /// and the fixed key sort makes the form independent of the order in
    /// which a caller (builder chain, JSON body, CLI flags) supplied the
    /// fields.
    pub fn canonical_fields(&self) -> Vec<(&'static str, String)> {
        FIELDS.iter().map(|f| (f.key, (f.render)(self))).collect()
    }

    /// Stable 64-bit hash of the canonical field list (FNV-1a over
    /// `key=value\n` lines). Equal configs hash equal regardless of how
    /// they were constructed; any changed field changes the hash.
    pub fn canonical_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for (key, value) in self.canonical_fields() {
            eat(key.as_bytes());
            eat(b"=");
            eat(value.as_bytes());
            eat(b"\n");
        }
        h
    }

    /// Human-readable one-line description.
    pub fn describe(&self) -> String {
        format!(
            "{} | seed {} | {} files | gen {} | backend {} | {} iter, c={}",
            self.spec,
            self.seed,
            self.num_files,
            self.generator.name(),
            self.variant.name(),
            self.iterations,
            self.damping,
        )
    }
}

/// How `pprank` spells a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cli {
    /// No flag: the command line leaves the field at its default.
    None,
    /// `--flag VALUE`.
    Takes(&'static str),
    /// A bare `--flag`, standing for this value.
    Bare(&'static str, &'static str),
}

/// A value on its way into a field, as one of the two wires delivers it.
#[derive(Debug, Clone, Copy)]
pub enum Wire<'a> {
    /// A member of a `POST /runs` body.
    Json(&'a Json),
    /// The text following (or implied by) a `pprank` flag.
    Text(&'a str),
}

/// One row of [`FIELDS`]: everything the workspace knows about one
/// [`PipelineConfig`] field.
pub struct ConfigField {
    /// The canonical-form key, which is also the `POST /runs` JSON key.
    pub key: &'static str,
    /// The accepted values, for usage and error text.
    pub accepts: &'static str,
    /// The `pprank` spelling.
    pub cli: Cli,
    /// Whether a `POST /runs` body may set the field.
    pub http: bool,
    /// The field's range bound — written here and nowhere else. Checked
    /// after every [`ConfigField::apply`] and, for values handed to the
    /// builder's setters, by [`PipelineConfigBuilder::check`].
    pub ok: fn(&PipelineConfigBuilder) -> bool,
    /// The field's canonical rendering (see
    /// [`PipelineConfig::canonical_fields`]).
    pub render: fn(&PipelineConfig) -> String,
    /// Types a wire value into the field.
    pub set: Setter,
}

/// The type of [`ConfigField::set`]: the builder to change, the row itself
/// (so a rejection can name the field and what it accepts) and the value.
type Setter = fn(&mut PipelineConfigBuilder, &ConfigField, Wire<'_>) -> Result<(), String>;

impl ConfigField {
    /// A row with the common answers filled in — no flag, open to HTTP,
    /// any value of the right type in range — for the chain below to
    /// override. Every row must chain `render` and `set`.
    const fn new(key: &'static str, accepts: &'static str) -> Self {
        Self {
            key,
            accepts,
            cli: Cli::None,
            http: true,
            ok: |_| true,
            render: |_| String::new(),
            set: |_, field, _| Err(field.reject()),
        }
    }

    const fn cli(mut self, cli: Cli) -> Self {
        self.cli = cli;
        self
    }

    const fn closed_to_http(mut self) -> Self {
        self.http = false;
        self
    }

    const fn bound(mut self, ok: fn(&PipelineConfigBuilder) -> bool) -> Self {
        self.ok = ok;
        self
    }

    const fn render(mut self, render: fn(&PipelineConfig) -> String) -> Self {
        self.render = render;
        self
    }

    const fn set(mut self, set: Setter) -> Self {
        self.set = set;
        self
    }

    /// Sets the field on `b` from a wire value, rejecting a value of the
    /// wrong type or outside the field's bound with a message that names
    /// the field and what it accepts.
    pub fn apply(&self, b: &mut PipelineConfigBuilder, wire: Wire<'_>) -> Result<(), String> {
        (self.set)(b, self, wire)?;
        (self.ok)(b).then_some(()).ok_or_else(|| self.reject())
    }

    fn reject(&self) -> String {
        format!("{} must be {}", self.key, self.accepts)
    }

    /// The wire value as `T`: a JSON member through `json`, flag text
    /// parsed.
    fn read<T: std::str::FromStr>(wire: Wire<'_>, json: fn(&Json) -> Option<T>) -> Option<T> {
        match wire {
            Wire::Json(j) => json(j),
            Wire::Text(t) => t.parse().ok(),
        }
    }

    fn typed<T>(&self, value: Option<T>) -> Result<T, String> {
        value.ok_or_else(|| self.reject())
    }

    /// Reads a non-negative integer no wider than the field.
    fn uint<T: TryFrom<u64>>(&self, wire: Wire<'_>) -> Result<T, String> {
        self.typed(Self::read(wire, Json::as_u64).and_then(|n| T::try_from(n).ok()))
    }

    fn number(&self, wire: Wire<'_>) -> Result<f64, String> {
        self.typed(Self::read(wire, Json::as_f64).filter(|x| x.is_finite()))
    }

    fn boolean(&self, wire: Wire<'_>) -> Result<bool, String> {
        self.typed(Self::read(wire, Json::as_bool))
    }

    fn text<'a>(&self, wire: Wire<'a>) -> Result<&'a str, String> {
        match wire {
            Wire::Json(j) => self.typed(j.as_str()),
            Wire::Text(t) => Ok(t),
        }
    }

    /// Reads one of an enum's stable names.
    fn named<T>(&self, wire: Wire<'_>, parse: fn(&str) -> Option<T>) -> Result<T, String> {
        let name = self.text(wire)?;
        parse(name).ok_or_else(|| format!("unknown {} {name:?} ({})", self.key, self.accepts))
    }
}

fn f64_bits(v: f64) -> String {
    format!("f64:{:016x}", v.to_bits())
}

fn or_none<T>(v: Option<T>, render: impl FnOnce(T) -> String) -> String {
    v.map_or_else(|| "none".to_string(), render)
}

/// The field table: one row per [`PipelineConfig`] field, sorted by key.
pub static FIELDS: [ConfigField; 20] = [
    ConfigField::new("add_diagonal_to_empty", "true|false")
        .cli(Cli::Bare("--diagonal", "true"))
        .render(|c| c.add_diagonal_to_empty.to_string())
        .set(|b, f, w| f.boolean(w).map(|v| b.cfg.add_diagonal_to_empty = v)),
    ConfigField::new("convergence_tolerance", "a positive number")
        .cli(Cli::Takes("--converge"))
        .bound(|b| b.cfg.convergence_tolerance.is_none_or(|tol| tol > 0.0))
        .render(|c| or_none(c.convergence_tolerance, f64_bits))
        .set(|b, f, w| f.number(w).map(|v| b.cfg.convergence_tolerance = Some(v))),
    ConfigField::new("damping", "a number strictly between 0 and 1")
        .cli(Cli::Takes("--damping"))
        .bound(|b| b.cfg.damping > 0.0 && b.cfg.damping < 1.0)
        .render(|c| f64_bits(c.damping))
        .set(|b, f, w| f.number(w).map(|v| b.cfg.damping = v)),
    ConfigField::new("dangling", "omit|redistribute|sink")
        .cli(Cli::Takes("--dangling"))
        .render(|c| c.dangling.name().to_string())
        .set(|b, f, w| {
            f.named(w, DanglingStrategy::parse)
                .map(|v| b.cfg.dangling = v)
        }),
    ConfigField::new("edge_factor", "an integer, at least 1")
        .cli(Cli::Takes("--edge-factor"))
        .bound(|b| b.edge_factor >= 1)
        .render(|c| c.spec.edge_factor().to_string())
        .set(|b, f, w| f.uint(w).map(|v| b.edge_factor = v)),
    ConfigField::new("fused", "true|false")
        .cli(Cli::Bare("--fused", "true"))
        .render(|c| c.fused.to_string())
        .set(|b, f, w| f.boolean(w).map(|v| b.cfg.fused = v)),
    ConfigField::new("gen", "faithful|linear")
        .cli(Cli::Takes("--gen"))
        .render(|c| c.gen.name().to_string())
        .set(|b, f, w| f.named(w, RmatSampler::parse).map(|v| b.cfg.gen = v)),
    ConfigField::new("generator", "kronecker|ppl|erdos-renyi|bter")
        .cli(Cli::Takes("--generator"))
        .render(|c| c.generator.name().to_string())
        .set(|b, f, w| {
            f.named(w, GeneratorKind::parse)
                .map(|v| b.cfg.generator = v)
        }),
    ConfigField::new("input_tsv", "a path to a TSV edge list")
        .cli(Cli::Takes("--input-tsv"))
        // The one field HTTP may not set: accepting a server-side path over
        // the network would let clients probe the filesystem, so TSV
        // ingestion stays a CLI/library feature.
        .closed_to_http()
        .render(|c| or_none(c.input_tsv.as_ref(), |p| p.display().to_string()))
        .set(|b, f, w| f.text(w).map(|path| b.cfg.input_tsv = Some(path.into()))),
    ConfigField::new("iterations", "an integer from 1 to 2^32-1")
        .cli(Cli::Takes("--iterations"))
        .bound(|b| b.cfg.iterations >= 1)
        .render(|c| c.iterations.to_string())
        .set(|b, f, w| f.uint(w).map(|v| b.cfg.iterations = v)),
    ConfigField::new("num_files", "an integer, at least 1")
        .cli(Cli::Takes("--files"))
        .bound(|b| b.cfg.num_files >= 1)
        .render(|c| c.num_files.to_string())
        .set(|b, f, w| f.uint(w).map(|v| b.cfg.num_files = v)),
    ConfigField::new("permute_vertices", "true|false")
        .render(|c| c.permute_vertices.to_string())
        .set(|b, f, w| f.boolean(w).map(|v| b.cfg.permute_vertices = v)),
    ConfigField::new("scale", "an integer from 0 to 57")
        .cli(Cli::Takes("--scale"))
        .bound(|b| b.scale <= 57)
        .render(|c| c.spec.scale().to_string())
        .set(|b, f, w| f.uint(w).map(|v| b.scale = v)),
    ConfigField::new("seed", "an integer from 0 to 2^64-1")
        .cli(Cli::Takes("--seed"))
        .render(|c| c.seed.to_string())
        .set(|b, f, w| f.uint(w).map(|v| b.cfg.seed = v)),
    ConfigField::new("shuffle_edges", "true|false")
        .render(|c| c.shuffle_edges.to_string())
        .set(|b, f, w| f.boolean(w).map(|v| b.cfg.shuffle_edges = v)),
    ConfigField::new("sort_budget_bytes", "a byte count")
        .cli(Cli::Takes("--budget"))
        .render(|c| or_none(c.sort_budget_bytes, |bytes| bytes.to_string()))
        .set(|b, f, w| f.uint(w).map(|v| b.cfg.sort_budget_bytes = Some(v))),
    ConfigField::new("sort_key", "start|start-end")
        .cli(Cli::Bare("--sort-end", "start-end"))
        .render(|c| sort_key_name(c.sort_key).to_string())
        .set(|b, f, w| f.named(w, parse_sort_key).map(|v| b.cfg.sort_key = v)),
    ConfigField::new("validation", "none|invariants|eigen|eigenvector")
        .cli(Cli::Takes("--validate"))
        .render(|c| c.validation.name().to_string())
        .set(|b, f, w| {
            f.named(w, ValidationLevel::parse)
                .map(|v| b.cfg.validation = v)
        }),
    ConfigField::new("variant", "optimized|naive|dataframe|parallel|graphblas")
        .cli(Cli::Takes("--variant"))
        .render(|c| c.variant.name().to_string())
        .set(|b, f, w| f.named(w, Variant::parse).map(|v| b.cfg.variant = v)),
    ConfigField::new("workload", "pagerank|bfs|cc|sssp|tc")
        .cli(Cli::Takes("--workload"))
        .render(|c| c.workload.name().to_string())
        .set(|b, f, w| f.named(w, Workload::parse).map(|v| b.cfg.workload = v)),
];

/// Builder for [`PipelineConfig`]; every setter has a spec-conformant
/// default.
#[derive(Debug, Clone)]
pub struct PipelineConfigBuilder {
    /// Every field but `spec`, which [`PipelineConfigBuilder::build`]
    /// derives from the two raw parts below: a `GraphSpec` cannot hold an
    /// out-of-range pair, and a chain of setters may pass through one on
    /// its way to a valid end state.
    cfg: PipelineConfig,
    scale: u32,
    edge_factor: u64,
}

impl Default for PipelineConfigBuilder {
    fn default() -> Self {
        let spec = GraphSpec::with_scale(16);
        Self {
            scale: spec.scale(),
            edge_factor: spec.edge_factor(),
            cfg: PipelineConfig {
                spec,
                seed: 1,
                num_files: 1,
                generator: GeneratorKind::Kronecker,
                gen: RmatSampler::Faithful,
                permute_vertices: true,
                shuffle_edges: false,
                variant: Variant::Optimized,
                sort_key: SortKey::Start,
                sort_budget_bytes: None,
                add_diagonal_to_empty: false,
                damping: DAMPING,
                iterations: ITERATIONS,
                dangling: DanglingStrategy::Omit,
                convergence_tolerance: None,
                validation: ValidationLevel::Invariants,
                workload: Workload::PageRank,
                input_tsv: None,
                fused: false,
            },
        }
    }
}

impl PipelineConfigBuilder {
    /// Sets the Graph500 scale factor `S` (N = 2^S).
    pub fn scale(mut self, scale: u32) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the edges-per-vertex factor `k` (spec default 16).
    pub fn edge_factor(mut self, k: u64) -> Self {
        self.edge_factor = k;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets how many files kernels 0 and 1 write.
    pub fn num_files(mut self, n: usize) -> Self {
        self.cfg.num_files = n;
        self
    }

    /// Selects the kernel-0 generator.
    pub fn generator(mut self, g: GeneratorKind) -> Self {
        self.cfg.generator = g;
        self
    }

    /// Selects the R-MAT sampling algorithm (faithful coin flips or the
    /// linear-work block sampler) for the Kronecker generator.
    pub fn gen(mut self, s: RmatSampler) -> Self {
        self.cfg.gen = s;
        self
    }

    /// Toggles the kernel-0 vertex-label permutation.
    pub fn permute_vertices(mut self, on: bool) -> Self {
        self.cfg.permute_vertices = on;
        self
    }

    /// Toggles the kernel-0 edge-order shuffle.
    pub fn shuffle_edges(mut self, on: bool) -> Self {
        self.cfg.shuffle_edges = on;
        self
    }

    /// Selects the implementation variant.
    pub fn variant(mut self, v: Variant) -> Self {
        self.cfg.variant = v;
        self
    }

    /// Selects the kernel-1 sort key.
    pub fn sort_key(mut self, k: SortKey) -> Self {
        self.cfg.sort_key = k;
        self
    }

    /// Caps kernel 1's in-memory buffer at `bytes` (16 bytes per resident
    /// edge), forcing the out-of-core path beyond it.
    pub fn sort_budget_bytes(mut self, bytes: u64) -> Self {
        self.cfg.sort_budget_bytes = Some(bytes);
        self
    }

    /// Enables the §V dangling-node diagonal repair in kernel 2.
    pub fn add_diagonal_to_empty(mut self, on: bool) -> Self {
        self.cfg.add_diagonal_to_empty = on;
        self
    }

    /// Overrides the damping factor.
    pub fn damping(mut self, c: f64) -> Self {
        self.cfg.damping = c;
        self
    }

    /// Overrides the PageRank iteration count.
    pub fn iterations(mut self, n: u32) -> Self {
        self.cfg.iterations = n;
        self
    }

    /// Selects the dangling-row strategy for kernel 3.
    pub fn dangling(mut self, d: DanglingStrategy) -> Self {
        self.cfg.dangling = d;
        self
    }

    /// Enables convergence-test stopping for kernel 3.
    pub fn convergence_tolerance(mut self, tol: f64) -> Self {
        self.cfg.convergence_tolerance = Some(tol);
        self
    }

    /// Sets the validation level.
    pub fn validation(mut self, v: ValidationLevel) -> Self {
        self.cfg.validation = v;
        self
    }

    /// Selects the kernel-3-slot workload (PageRank or a GAP analytic).
    pub fn workload(mut self, w: Workload) -> Self {
        self.cfg.workload = w;
        self
    }

    /// Feeds kernels 1–3 from an on-disk TSV edge list instead of the
    /// kernel-0 generator.
    pub fn input_tsv(mut self, path: impl Into<PathBuf>) -> Self {
        self.cfg.input_tsv = Some(path.into());
        self
    }

    /// Fuses kernels 1 and 2 into a single streaming pass (CSR built
    /// straight from the sorted-run merge; bit-identical output).
    pub fn fused(mut self, on: bool) -> Self {
        self.cfg.fused = on;
        self
    }

    /// The first bound the current values break, as the message every
    /// surface reports: each row's own range, then the one cross-field
    /// rule — the edge count `2^scale · edge_factor` must fit a `u64`.
    fn violation(&self) -> Option<String> {
        if let Some(f) = FIELDS.iter().find(|f| !(f.ok)(self)) {
            return Some(f.reject());
        }
        // No row's bound is broken, so scale ≤ 57 and the shift is in range.
        let (scale, k) = (self.scale, self.edge_factor);
        ((1u64 << scale).checked_mul(k).is_none())
            .then(|| format!("2^{scale} vertices x edge_factor {k} overflows the edge count"))
    }

    /// Finalizes a configuration built from outside data (a request body,
    /// a command line): an out-of-range value is an `Err` naming the field
    /// and what it accepts.
    pub fn check(self) -> Result<PipelineConfig, String> {
        match self.violation() {
            Some(why) => Err(why),
            None => Ok(self.finish()),
        }
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics on the values [`PipelineConfigBuilder::check`] rejects (zero
    /// files, damping outside (0, 1), zero iterations, …) — handed to a
    /// setter by the program itself these are programming errors, not
    /// runtime data.
    pub fn build(self) -> PipelineConfig {
        let why = self.violation();
        assert!(why.is_none(), "{}", why.unwrap_or_default());
        self.finish()
    }

    /// The configuration, once [`Self::violation`] has passed it.
    fn finish(self) -> PipelineConfig {
        PipelineConfig {
            spec: GraphSpec::new(self.scale, self.edge_factor),
            ..self.cfg
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "test code: the sets only count distinct hashes; their order is never observed"
)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_spec() {
        let cfg = PipelineConfig::builder().build();
        assert_eq!(cfg.spec.scale(), 16);
        assert_eq!(cfg.spec.edge_factor(), 16);
        assert_eq!(cfg.damping, 0.85);
        assert_eq!(cfg.iterations, 20);
        assert_eq!(cfg.sort_key, SortKey::Start);
        assert!(cfg.permute_vertices);
        assert!(!cfg.shuffle_edges);
        assert!(!cfg.add_diagonal_to_empty);
        assert_eq!(cfg.workload, Workload::PageRank);
        assert_eq!(cfg.gen, RmatSampler::Faithful);
        assert!(cfg.input_tsv.is_none());
        assert!(!cfg.fused);
    }

    #[test]
    fn workloads_never_share_a_cache_identity() {
        // The serve cache keys on canonical_hash; a BFS run and a PageRank
        // run over the same graph config must never collide.
        let hashes: Vec<u64> = Workload::ALL
            .iter()
            .map(|&w| {
                PipelineConfig::builder()
                    .scale(9)
                    .seed(7)
                    .workload(w)
                    .build()
                    .canonical_hash()
            })
            .collect();
        let unique: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(unique.len(), Workload::ALL.len());
    }

    #[test]
    fn builder_setters_apply() {
        let cfg = PipelineConfig::builder()
            .scale(8)
            .edge_factor(4)
            .seed(99)
            .num_files(3)
            .variant(Variant::Naive)
            .sort_key(SortKey::StartEnd)
            .sort_budget_bytes(1000)
            .add_diagonal_to_empty(true)
            .damping(0.9)
            .iterations(5)
            .validation(ValidationLevel::Eigenvector)
            .build();
        assert_eq!(cfg.spec.num_vertices(), 256);
        assert_eq!(cfg.spec.num_edges(), 1024);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.num_files, 3);
        assert_eq!(cfg.variant, Variant::Naive);
        assert_eq!(cfg.sort_key, SortKey::StartEnd);
        assert_eq!(cfg.sort_budget_bytes, Some(1000));
        assert!(cfg.add_diagonal_to_empty);
        assert_eq!(cfg.damping, 0.9);
        assert_eq!(cfg.iterations, 5);
        assert_eq!(cfg.validation, ValidationLevel::Eigenvector);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn damping_must_be_in_unit_interval() {
        let _ = PipelineConfig::builder().damping(1.0).build();
    }

    #[test]
    #[should_panic(expected = "num_files")]
    fn zero_files_rejected() {
        let _ = PipelineConfig::builder().num_files(0).build();
    }

    #[test]
    fn canonical_hash_is_setter_order_independent() {
        let a = PipelineConfig::builder().scale(9).seed(7).build();
        let b = PipelineConfig::builder().seed(7).scale(9).build();
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        assert_eq!(a.canonical_fields(), b.canonical_fields());
    }

    #[test]
    fn canonical_hashes_are_the_ones_recorded_before_the_field_table() {
        // Computed at a4fd8b0 by the hand-written `canonical_fields`: the
        // cache identity of every stored result did not move.
        let base = PipelineConfig::builder;
        assert_eq!(base().build().canonical_hash(), 0x7c91_e964_99d4_70e6);
        let fast = base()
            .scale(17)
            .variant(Variant::Parallel)
            .fused(true)
            .gen(RmatSampler::Linear)
            .seed(7);
        assert_eq!(fast.build().canonical_hash(), 0x5257_61e4_3e45_4ad6);
        let every_field = base()
            .scale(10)
            .edge_factor(8)
            .seed(42)
            .num_files(2)
            .generator(GeneratorKind::PerfectPowerLaw)
            .permute_vertices(false)
            .shuffle_edges(true)
            .variant(Variant::Naive)
            .sort_key(SortKey::StartEnd)
            .sort_budget_bytes(5000)
            .add_diagonal_to_empty(true)
            .damping(0.9)
            .iterations(5)
            .dangling(DanglingStrategy::Sink)
            .convergence_tolerance(1e-9)
            .validation(ValidationLevel::Eigenvector)
            .workload(Workload::Bfs);
        assert_eq!(every_field.build().canonical_hash(), 0x8ee6_dd06_64bd_8e73);
    }

    /// A non-default value per field, as flag text.
    fn sample(key: &str) -> &'static str {
        match key {
            "add_diagonal_to_empty" | "fused" | "shuffle_edges" => "true",
            "permute_vertices" => "false",
            "convergence_tolerance" => "1e-9",
            "damping" => "0.5",
            "dangling" => "sink",
            "edge_factor" => "4",
            "gen" => "linear",
            "generator" => "ppl",
            "input_tsv" => "/tmp/edges.tsv",
            "iterations" => "5",
            "num_files" => "3",
            "scale" => "9",
            "seed" => "7",
            "sort_budget_bytes" => "1000",
            "sort_key" => "start-end",
            "validation" => "eigenvector",
            "variant" => "naive",
            "workload" => "bfs",
            other => panic!("FIELDS grew a row the test has no sample for: {other}"),
        }
    }

    #[test]
    fn every_row_of_the_field_table_behaves_on_both_wires() {
        let default_hash = PipelineConfig::builder().build().canonical_hash();
        let hash_after = |f: &ConfigField, wire: Wire<'_>| {
            let mut b = PipelineConfig::builder();
            f.apply(&mut b, wire).map(|()| b.build().canonical_hash())
        };
        for f in &FIELDS {
            let text = match f.cli {
                Cli::Bare(_, implied) => implied,
                _ => sample(f.key),
            };
            // The JSON spelling of the same value: a number or boolean
            // where the text reads as one, a string otherwise.
            let json = match Json::parse(text) {
                Ok(v @ (Json::Uint(_) | Json::Number(_) | Json::Bool(_))) => v,
                _ => Json::String(text.to_string()),
            };
            let via_text = hash_after(f, Wire::Text(text)).expect(f.key);
            let via_json = hash_after(f, Wire::Json(&json)).expect(f.key);
            assert_eq!(via_text, via_json, "{}: flag and JSON key disagree", f.key);
            assert_ne!(via_text, default_hash, "{}: not in the hash", f.key);

            let wrong_type = match json {
                Json::String(_) => Json::Uint(1),
                _ => Json::String("yes".to_string()),
            };
            let err = hash_after(f, Wire::Json(&wrong_type)).unwrap_err();
            assert!(err.contains(f.key) && err.contains(f.accepts), "{err}");
        }

        let keys: Vec<&str> = FIELDS.iter().map(|f| f.key).collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "sorted, no duplicates"
        );
        let fields = PipelineConfig::builder().build().canonical_fields();
        assert_eq!(keys, fields.iter().map(|(k, _)| *k).collect::<Vec<_>>());
        let closed_to_http: Vec<&str> = FIELDS.iter().filter(|f| !f.http).map(|f| f.key).collect();
        assert_eq!(closed_to_http, ["input_tsv"]);
    }

    #[test]
    fn accepts_text_lists_every_name_an_enum_parses() {
        let listed = |key: &str, names: &[&str]| {
            let f = FIELDS.iter().find(|f| f.key == key).unwrap();
            let accepted: Vec<&str> = f.accepts.split('|').collect();
            for name in names {
                assert!(accepted.contains(name), "{key} omits {name}");
            }
        };
        listed("variant", &Variant::ALL.map(Variant::name));
        listed("workload", &Workload::ALL.map(Workload::name));
        listed("generator", &GeneratorKind::ALL.map(GeneratorKind::name));
        listed("gen", &RmatSampler::ALL.map(RmatSampler::name));
        listed("dangling", &["omit", "redistribute", "sink"]);
        listed("sort_key", &["start", "start-end"]);
        listed(
            "validation",
            &["none", "invariants", "eigen", "eigenvector"],
        );
    }

    #[test]
    fn out_of_range_values_are_errors_on_the_wires_and_in_check() {
        let set = |key: &str, text: &str| {
            let f = FIELDS.iter().find(|f| f.key == key).unwrap();
            let mut b = PipelineConfig::builder();
            f.apply(&mut b, Wire::Text(text)).map(|()| b)
        };
        for (key, text) in [
            ("damping", "1.5"),
            ("damping", "0"),
            ("damping", "nan"),
            ("scale", "58"),
            ("iterations", "0"),
            ("iterations", "4294967296"),
            ("num_files", "0"),
            ("edge_factor", "0"),
            ("convergence_tolerance", "-1"),
            ("seed", "-1"),
            ("fused", "yes"),
        ] {
            let err = set(key, text).map(|_| ()).unwrap_err();
            assert!(err.starts_with(key), "{key}={text}: {err}");
        }
        // The same bounds guard values handed to the builder's setters.
        let err = PipelineConfig::builder().damping(1.5).check().unwrap_err();
        assert!(
            err.contains("damping") && err.contains("between 0 and 1"),
            "{err}"
        );
        assert!(PipelineConfig::builder().scale(60).check().is_err());

        // The cross-field rule looks at the end state only: an edge factor
        // of 2^50 overflows at the default scale 16 but fits at scale 4.
        let dense = set("edge_factor", "1125899906842624").unwrap();
        assert!(dense.clone().check().unwrap_err().contains("overflows"));
        assert_eq!(dense.scale(4).check().unwrap().spec.num_edges(), 1 << 54);
        let err = PipelineConfig::builder()
            .scale(40)
            .edge_factor(100_000_000)
            .check()
            .unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn canonical_hash_distinguishes_every_axis() {
        let base = || PipelineConfig::builder().scale(9).seed(7);
        let reference = base().build().canonical_hash();
        let variations = [
            base().scale(10).build(),
            base().seed(8).build(),
            base().edge_factor(4).build(),
            base().num_files(2).build(),
            base().variant(Variant::Naive).build(),
            base().generator(GeneratorKind::PerfectPowerLaw).build(),
            base().gen(RmatSampler::Linear).build(),
            base().sort_key(SortKey::StartEnd).build(),
            base().sort_budget_bytes(100).build(),
            base().add_diagonal_to_empty(true).build(),
            base().damping(0.9).build(),
            base().iterations(10).build(),
            base().dangling(DanglingStrategy::Sink).build(),
            base().convergence_tolerance(1e-9).build(),
            base().permute_vertices(false).build(),
            base().shuffle_edges(true).build(),
            base().validation(ValidationLevel::None).build(),
            base().workload(Workload::Bfs).build(),
            base().input_tsv("/tmp/edges.tsv").build(),
            base().fused(true).build(),
        ];
        let mut hashes: Vec<u64> = variations.iter().map(|c| c.canonical_hash()).collect();
        hashes.push(reference);
        let unique: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(
            unique.len(),
            hashes.len(),
            "every axis must change the hash"
        );
    }

    #[test]
    fn describe_mentions_key_facts() {
        let d = PipelineConfig::builder().scale(5).build().describe();
        assert!(d.contains("scale 5"), "{d}");
        assert!(d.contains("optimized"), "{d}");
    }
}
