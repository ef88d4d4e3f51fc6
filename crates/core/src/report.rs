//! Machine-readable run records.
//!
//! A benchmark is only useful if its numbers outlive the process. This
//! module turns a [`crate::PipelineResult`] into a [`RunRecord`] and gives
//! the record its one format: the canonical JSON object
//! [`RunRecord::to_json`] writes and [`RunRecord::from_json`] reads back
//! bit-exactly. `pprank --json`, `pprank --report`, the `ppbench-serve`
//! API and its disk cache all carry that same object.

use std::path::Path;

use crate::json::{Json, JsonArray, JsonObject};
use crate::results::PipelineResult;
use crate::Error;

/// The `record` tag of the one format this module reads and writes.
const RECORD_TAG: &str = "ppbench-run-v1";

/// A persisted (or reloaded) run record: the subset of a
/// [`PipelineResult`] that is meaningful across processes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Backend name.
    pub variant: String,
    /// Kernel-3-slot workload name (`"pagerank"`, `"bfs"`, …).
    pub workload: String,
    /// Scale factor.
    pub scale: u32,
    /// Edge count M.
    pub edges: u64,
    /// Per-kernel `(seconds, edges_per_second)`, index 0–3; `None` for
    /// kernels that did not run.
    pub kernels: [Option<(f64, f64)>; 4],
    /// Whether validation passed (`None` if validation did not run).
    pub validation_passed: Option<bool>,
    /// Worker-thread count the run was attributed to (`None` when the
    /// caller did not pin one, e.g. runs that never set `pprank --threads`).
    pub threads: Option<u64>,
    /// Output fingerprint of an analytics workload (`None` for PageRank
    /// runs) — lets two archived runs be compared for bit-identical
    /// outputs, not just rates.
    pub checksum: Option<u64>,
}

impl RunRecord {
    /// Extracts the record from a completed result.
    pub fn from_result(result: &PipelineResult) -> Self {
        let timing = |t: Option<&crate::KernelTiming>| t.map(|t| (t.seconds, t.rate()));
        // The kernel-3 slot is PageRank or the analytics workload,
        // whichever ran; both report through kernels[3].
        let k3_slot = result
            .kernel3
            .as_ref()
            .map(|k| &k.timing)
            .or_else(|| result.algo.as_ref().map(|a| &a.timing));
        Self {
            variant: result.variant.to_string(),
            workload: result.workload.to_string(),
            scale: result.scale,
            edges: result.edges,
            kernels: [
                timing(result.kernel0.as_ref().map(|k| &k.timing)),
                timing(result.kernel1.as_ref().map(|k| &k.timing)),
                timing(result.kernel2.as_ref().map(|k| &k.timing)),
                timing(k3_slot),
            ],
            validation_passed: result.validation.as_ref().map(|v| v.passed()),
            threads: None,
            checksum: result.algo.as_ref().map(|a| a.checksum),
        }
    }

    /// Serializes the record as a canonical JSON object.
    ///
    /// A `record` version tag, the run identity, one entry per kernel that
    /// ran (with `seconds` and `edges_per_second`), and the validation
    /// outcome, thread count and checksum (`null` when absent). Rendering goes
    /// through [`crate::json`], so keys are sorted and the same record is
    /// always the same byte string — records are diffed and content-hashed,
    /// and the report surface holds to the same determinism bar as the
    /// kernels.
    pub fn to_json(&self) -> String {
        let mut kernels = JsonArray::new();
        for (k, slot) in self.kernels.iter().enumerate() {
            if let Some((secs, rate)) = slot {
                let mut entry = JsonObject::new();
                entry
                    .set_u64("kernel", k as u64)
                    .set_f64("seconds", *secs)
                    .set_f64("edges_per_second", *rate);
                kernels.push_obj(&entry);
            }
        }
        let mut obj = JsonObject::new();
        obj.set_str("record", RECORD_TAG)
            .set_str("variant", &self.variant)
            .set_str("workload", &self.workload)
            .set_u64("scale", u64::from(self.scale))
            .set_u64("edges", self.edges)
            .set_raw("kernels", kernels.render());
        match self.validation_passed {
            Some(passed) => obj.set_bool("validation_passed", passed),
            None => obj.set_null("validation_passed"),
        };
        match self.threads {
            Some(threads) => obj.set_u64("threads", threads),
            None => obj.set_null("threads"),
        };
        match self.checksum {
            Some(checksum) => obj.set_str("checksum", &format!("{checksum:016x}")),
            None => obj.set_null("checksum"),
        };
        obj.render()
    }

    /// Parses the object [`RunRecord::to_json`] renders. Seconds and rates
    /// come back bit-exactly because `to_json` emits shortest round-trip
    /// decimals; a missing or mistyped member is an error, never a default.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        if v.get("record").and_then(Json::as_str) != Some(RECORD_TAG) {
            return Err(format!("record is not {RECORD_TAG}"));
        }
        let Some(Json::Array(entries)) = v.get("kernels") else {
            return Err("record is missing kernels".into());
        };
        let mut kernels = [None; 4];
        for entry in entries {
            let k = member(entry, "kernel", Json::as_u64)?;
            let slot = kernels.get_mut(k as usize).ok_or("bad kernel index")?;
            let seconds = member(entry, "seconds", Json::as_f64)?;
            *slot = Some((seconds, member(entry, "edges_per_second", Json::as_f64)?));
        }
        let text = |j: &Json| j.as_str().map(str::to_string);
        let hex = |j: &Json| j.as_str().and_then(|h| u64::from_str_radix(h, 16).ok());
        Ok(RunRecord {
            variant: member(v, "variant", text)?,
            workload: member(v, "workload", text)?,
            scale: member(v, "scale", |j| u32::try_from(j.as_u64()?).ok())?,
            edges: member(v, "edges", Json::as_u64)?,
            kernels,
            validation_passed: optional(v, "validation_passed", Json::as_bool)?,
            threads: optional(v, "threads", Json::as_u64)?,
            checksum: optional(v, "checksum", hex)?,
        })
    }

    /// Writes the record to a file as one line of [`RunRecord::to_json`].
    pub fn save(&self, path: &Path) -> crate::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
            .map_err(|e| Error::Storage(ppbench_io::Error::io(path, e)))
    }
}

/// Reads member `key` of `v` through `read`; absent or mistyped is an error.
fn member<T>(v: &Json, key: &str, read: fn(&Json) -> Option<T>) -> Result<T, String> {
    let value = v.get(key).and_then(read);
    value.ok_or_else(|| format!("record has no valid {key}"))
}

/// [`member`] for the members `to_json` renders as `null` when absent.
fn optional<T>(v: &Json, key: &str, read: fn(&Json) -> Option<T>) -> Result<Option<T>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(_) => member(v, key, read).map(Some),
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "test code: a wall-clock bound catches a quadratic parser; no kernel result is timed"
)]
mod tests {
    use super::*;
    use crate::{Pipeline, PipelineConfig};
    use ppbench_io::tempdir::TempDir;

    fn sample() -> RunRecord {
        let td = TempDir::new("report").unwrap();
        let cfg = PipelineConfig::builder()
            .scale(6)
            .edge_factor(4)
            .seed(2)
            .build();
        let result = Pipeline::new(cfg, td.path()).run().unwrap();
        RunRecord::from_result(&result)
    }

    fn reparse(record: &RunRecord) -> RunRecord {
        RunRecord::from_json(&Json::parse(&record.to_json()).unwrap()).unwrap()
    }

    #[test]
    fn json_roundtrip_is_bit_exact() {
        // A measured record: whatever seconds and rates the clock produced
        // must come back as the same bits, with the absent members `null`.
        let measured = sample();
        assert_eq!(measured.validation_passed, Some(true));
        assert_eq!((measured.threads, measured.checksum), (None, None));
        assert_eq!(reparse(&measured), measured);
        // A constructed one: every optional member present, a kernel
        // missing, and values with no short decimal form.
        let full = RunRecord {
            variant: "parallel".to_string(),
            workload: "bfs".to_string(),
            scale: 7,
            edges: 512,
            kernels: [
                Some((0.1 + 0.2, 1.0 / 3.0)),
                None,
                Some((f64::MIN_POSITIVE, 1e300)),
                Some((0.001234567891234, 414_720.75)),
            ],
            validation_passed: Some(false),
            threads: Some(4),
            checksum: Some(0xdead_beef_cafe_f00d),
        };
        assert_eq!(reparse(&full), full);
        let bare = RunRecord {
            validation_passed: None,
            threads: None,
            checksum: None,
            ..full
        };
        assert!(bare.to_json().contains("\"threads\":null"));
        assert_eq!(reparse(&bare), bare);
    }

    #[test]
    fn a_million_rank_entry_round_trips_in_linear_time() {
        // The shape of a result-cache entry: the record beside 1 M ranks
        // as one 16 MB hex string. Parsing used to cost time quadratic in
        // that string's length (hours); the bound only catches that.
        let record = RunRecord {
            variant: "optimized".to_string(),
            workload: "pagerank".to_string(),
            scale: 20,
            edges: 16 << 20,
            kernels: [Some((0.5, 1e6)), Some((0.25, 2e6)), None, Some((1.5, 3e8))],
            validation_passed: Some(true),
            threads: Some(2),
            checksum: None,
        };
        let ranks: Vec<f64> = (0..1_000_000u32).map(|i| 1.0 / f64::from(i + 3)).collect();
        let hex: String = ranks
            .iter()
            .map(|r| format!("{:016x}", r.to_bits()))
            .collect();
        let mut entry = JsonObject::new();
        entry
            .set_raw("record", record.to_json())
            .set_str("ranks_hex", &hex);
        let text = entry.render();

        let start = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let secs = start.elapsed().as_secs_f64();
        assert!(secs < 60.0, "1 M-rank entry took {secs:.1} s");
        assert_eq!(
            RunRecord::from_json(parsed.get("record").unwrap()),
            Ok(record)
        );
        let back = parsed.get("ranks_hex").and_then(Json::as_str).unwrap();
        let revived: Vec<u64> = back
            .as_bytes()
            .chunks(16)
            .map(|h| u64::from_str_radix(std::str::from_utf8(h).unwrap(), 16).unwrap())
            .collect();
        assert!(revived.iter().zip(&ranks).all(|(&b, r)| b == r.to_bits()));
        assert_eq!(revived.len(), ranks.len());
    }

    #[test]
    fn save_writes_the_json_record() {
        let record = sample();
        let td = TempDir::new("report").unwrap();
        let path = td.join("run.json");
        record.save(&path).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, record.to_json() + "\n");
        let loaded = RunRecord::from_json(&Json::parse(&on_disk).unwrap()).unwrap();
        assert_eq!(loaded, record);
    }

    #[test]
    fn json_mentions_all_fields() {
        let record = sample();
        let json = record.to_json();
        // Canonical form: keys sorted bytewise, so `checksum` leads.
        assert!(json.starts_with("{\"checksum\":"), "{json}");
        assert!(json.contains("\"record\":\"ppbench-run-v1\""), "{json}");
        assert!(json.contains("\"variant\":\"optimized\""), "{json}");
        assert!(json.contains("\"scale\":6"), "{json}");
        assert!(json.contains("\"kernel\":3"), "{json}");
        assert!(json.contains("\"edges_per_second\""), "{json}");
        assert!(json.contains("\"validation_passed\":true"), "{json}");
    }

    #[test]
    fn json_skips_kernels_that_did_not_run() {
        let mut record = sample();
        record.kernels[2] = None;
        record.validation_passed = None;
        let json = record.to_json();
        assert!(!json.contains("\"kernel\":2"), "{json}");
        assert!(json.contains("\"validation_passed\":null"), "{json}");
    }

    #[test]
    fn rejects_malformed_records() {
        let parse = |text: &str| RunRecord::from_json(&Json::parse(text).unwrap());
        let good = sample().to_json();
        assert!(parse(&good).is_ok());
        assert!(parse("{}").is_err(), "missing tag");
        assert!(parse(&good.replace("ppbench-run-v1", "ppbench-run-v9")).is_err());
        assert!(
            parse(&good.replace("\"kernel\":3", "\"kernel\":7")).is_err(),
            "kernel index out of range"
        );
        assert!(
            parse(&good.replace("\"scale\":6", "\"scale\":\"six\"")).is_err(),
            "mistyped member"
        );
        assert!(
            parse(&good.replace("\"threads\":null", "\"threads\":-1")).is_err(),
            "a present optional member must still have its type"
        );
        assert!(parse(&good.replace("\"edges\":", "\"edgez\":")).is_err());
    }

    #[test]
    fn workload_and_checksum_are_recorded() {
        let td = TempDir::new("report").unwrap();
        let cfg = PipelineConfig::builder()
            .scale(6)
            .edge_factor(4)
            .seed(2)
            .workload(crate::Workload::Bfs)
            .build();
        let result = Pipeline::new(cfg, td.path()).run().unwrap();
        let record = RunRecord::from_result(&result);
        assert_eq!(record.workload, "bfs");
        assert!(record.checksum.is_some());
        assert!(
            record.kernels[3].is_some(),
            "the workload reports through the kernel-3 slot"
        );
        assert_eq!(reparse(&record), record);
        let json = record.to_json();
        assert!(json.contains("\"workload\":\"bfs\""), "{json}");
        assert!(json.contains("\"checksum\":\""), "{json}");
        // PageRank runs carry the workload name but no checksum.
        let pr = sample();
        assert_eq!(pr.workload, "pagerank");
        assert_eq!(pr.checksum, None);
        assert!(pr.to_json().contains("\"checksum\":null"));
    }

    #[test]
    fn partial_runs_serialize() {
        let td = TempDir::new("report").unwrap();
        let cfg = PipelineConfig::builder()
            .scale(5)
            .edge_factor(2)
            .seed(2)
            .build();
        let result = Pipeline::new(cfg, td.path()).run_through(1).unwrap();
        let record = RunRecord::from_result(&result);
        assert!(record.kernels[0].is_some());
        assert!(record.kernels[1].is_some());
        assert!(record.kernels[2].is_none());
        assert!(reparse(&record).kernels[3].is_none());
    }
}
