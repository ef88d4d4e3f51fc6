//! Tiered result cache: canonical config hash → completed run summary.
//!
//! Two tiers, both budgeted in **bytes** (rank vectors grow as 2^scale,
//! so entry counts are meaningless):
//!
//! * [`ResultCache`] — the in-memory LRU the submit path consults under
//!   the service lock.
//! * [`DiskCache`] — an on-disk canonical-JSON store (`run-<hash>.json`
//!   files, written tmp-then-rename) so cached results survive a service
//!   restart. Rank vectors are stored as IEEE-754 bit patterns in hex, so
//!   a revived summary is bit-identical to the run that produced it.
//!
//! The pipeline is deterministic for a fixed config (the paper's §IV
//! validation property), so a cached summary is exactly what a fresh run
//! would produce — the service returns it without queueing a job.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;

use ppbench_core::RunRecord;

use crate::job::RunSummary;
use crate::Json;

/// LRU map from canonical config hash to run summary, bounded by an
/// approximate byte budget rather than an entry count (rank vectors grow
/// as 2^scale, so entry sizes vary by orders of magnitude).
#[derive(Debug)]
pub struct ResultCache {
    budget_bytes: usize,
    used_bytes: usize,
    tick: u64,
    entries: BTreeMap<u64, Entry>,
}

#[derive(Debug)]
struct Entry {
    summary: Arc<RunSummary>,
    bytes: usize,
    last_used: u64,
}

impl ResultCache {
    /// Creates a cache that evicts down to `budget_bytes`. A zero budget
    /// disables caching entirely (every insert is immediately evicted).
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            used_bytes: 0,
            tick: 0,
            entries: BTreeMap::new(),
        }
    }

    /// Looks up `hash`, refreshing its recency on a hit.
    pub fn get(&mut self, hash: u64) -> Option<Arc<RunSummary>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&hash).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.summary)
        })
    }

    /// Inserts (or replaces) the summary for `hash`, then evicts
    /// least-recently-used entries until the budget holds. An entry larger
    /// than the whole budget is never retained.
    pub fn insert(&mut self, hash: u64, summary: Arc<RunSummary>) {
        let bytes = summary.approx_bytes();
        self.tick += 1;
        if let Some(old) = self.entries.insert(
            hash,
            Entry {
                summary,
                bytes,
                last_used: self.tick,
            },
        ) {
            self.used_bytes -= old.bytes;
        }
        self.used_bytes += bytes;
        while self.used_bytes > self.budget_bytes {
            let Some((&oldest, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            if let Some(evicted) = self.entries.remove(&oldest) {
                self.used_bytes -= evicted.bytes;
            }
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate bytes currently held.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// The configured budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Whether `hash` is present (without refreshing recency).
    pub fn contains(&self, hash: u64) -> bool {
        self.entries.contains_key(&hash)
    }
}

/// Version tag of the on-disk cache-entry format.
const DISK_SCHEMA: &str = "ppbench-serve-cache-v1";

/// The on-disk tier: one canonical-JSON file per cached result, an
/// in-memory index of `(hash → size, recency)`, and LRU eviction under a
/// byte budget measured in actual file sizes.
///
/// The store is scanned once at [`DiskCache::open`] (recency seeded from
/// file mtimes, oldest first); after that every operation goes through
/// the index, so `contains` is cheap enough to call on the submit path.
/// Corrupt or truncated files are deleted on first read rather than
/// poisoning the service.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    budget_bytes: u64,
    used_bytes: u64,
    tick: u64,
    entries: BTreeMap<u64, DiskEntry>,
}

#[derive(Debug)]
struct DiskEntry {
    bytes: u64,
    last_used: u64,
}

impl DiskCache {
    /// Opens (creating if needed) the store at `dir` and indexes every
    /// `run-<hash>.json` file already present, evicting oldest-first if
    /// the surviving set exceeds `budget_bytes`.
    pub fn open(dir: &Path, budget_bytes: u64) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let mut found: Vec<(SystemTime, u64, u64)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(hash) = name.to_str().and_then(parse_entry_name) else {
                continue;
            };
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            found.push((mtime, hash, meta.len()));
        }
        // Oldest first so the assigned recency ticks reproduce the
        // on-disk age order; ties break by hash for determinism.
        found.sort();
        let mut cache = Self {
            dir: dir.to_path_buf(),
            budget_bytes,
            used_bytes: 0,
            tick: 0,
            entries: BTreeMap::new(),
        };
        for (_, hash, bytes) in found {
            cache.tick += 1;
            cache.entries.insert(
                hash,
                DiskEntry {
                    bytes,
                    last_used: cache.tick,
                },
            );
            cache.used_bytes += bytes;
        }
        cache.evict_to_budget();
        Ok(cache)
    }

    fn path_for(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("run-{hash:016x}.json"))
    }

    /// Whether `hash` is indexed (no file I/O, no recency refresh).
    pub fn contains(&self, hash: u64) -> bool {
        self.entries.contains_key(&hash)
    }

    /// Reads and revives the summary for `hash`, refreshing its recency.
    /// A missing, unreadable, or corrupt file removes the entry (and the
    /// file, best-effort) and misses.
    pub fn get(&mut self, hash: u64) -> Option<Arc<RunSummary>> {
        if !self.entries.contains_key(&hash) {
            return None;
        }
        let path = self.path_for(hash);
        let revived = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| summary_from_json(&text, hash));
        match revived {
            Ok(summary) => {
                self.tick += 1;
                if let Some(e) = self.entries.get_mut(&hash) {
                    e.last_used = self.tick;
                }
                Some(Arc::new(summary))
            }
            Err(_) => {
                self.drop_entry(hash);
                None
            }
        }
    }

    /// Persists `summary` under `hash` (tmp file + atomic rename), then
    /// evicts least-recently-used entries until the byte budget holds. An
    /// entry larger than the whole budget is not written at all.
    pub fn insert(&mut self, hash: u64, summary: &RunSummary) -> std::io::Result<()> {
        let text = summary_to_json(hash, summary);
        let bytes = text.len() as u64;
        if bytes > self.budget_bytes {
            return Ok(());
        }
        let path = self.path_for(hash);
        let tmp = self.dir.join(format!("run-{hash:016x}.tmp"));
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, &path)?;
        self.tick += 1;
        if let Some(old) = self.entries.insert(
            hash,
            DiskEntry {
                bytes,
                last_used: self.tick,
            },
        ) {
            self.used_bytes -= old.bytes;
        }
        self.used_bytes += bytes;
        self.evict_to_budget();
        Ok(())
    }

    fn drop_entry(&mut self, hash: u64) {
        if let Some(e) = self.entries.remove(&hash) {
            self.used_bytes = self.used_bytes.saturating_sub(e.bytes);
        }
        let path = self.path_for(hash);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "evicting a cache file is best-effort; a leftover file is re-indexed (and re-aged) at next open"
        )]
        let _ = std::fs::remove_file(&path);
    }

    fn evict_to_budget(&mut self) {
        while self.used_bytes > self.budget_bytes {
            let Some((&oldest, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            self.drop_entry(oldest);
        }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently held on disk (sum of indexed file sizes).
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// The configured budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }
}

/// Parses `run-<16 hex digits>.json` into the hash, rejecting anything
/// else (tmp files, foreign files).
fn parse_entry_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("run-")?.strip_suffix(".json")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Renders one cache entry as canonical JSON. The rank vector is encoded
/// as a single hex string of IEEE-754 bit patterns (16 chars per f64):
/// compact, trivially canonical, and bit-exact by construction.
fn summary_to_json(hash: u64, summary: &RunSummary) -> String {
    let mut ranks_hex = String::with_capacity(summary.ranks.len() * 16);
    for rank in &summary.ranks {
        ranks_hex.push_str(&format!("{:016x}", rank.to_bits()));
    }
    let mut obj = ppbench_core::json::JsonObject::new();
    obj.set_str("schema", DISK_SCHEMA)
        .set_str("hash", &format!("{hash:016x}"))
        .set_raw("record", summary.record.to_json())
        .set_str("ranks_hex", &ranks_hex)
        .set_f64("total_seconds", summary.total_seconds);
    obj.render()
}

/// Parses a cache-entry file back into a summary, verifying the schema
/// tag and that the embedded hash matches the file we asked for (a
/// renamed or cross-copied file must not serve the wrong config).
fn summary_from_json(text: &str, expect_hash: u64) -> Result<RunSummary, String> {
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    if v.get("schema").and_then(Json::as_str) != Some(DISK_SCHEMA) {
        return Err(format!("not a {DISK_SCHEMA} entry"));
    }
    let hash = v
        .get("hash")
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("missing or malformed hash")?;
    if hash != expect_hash {
        return Err(format!(
            "entry hash {hash:016x} does not match file name {expect_hash:016x}"
        ));
    }
    let record = RunRecord::from_json(v.get("record").ok_or("missing record")?)?;
    let ranks_hex = v
        .get("ranks_hex")
        .and_then(Json::as_str)
        .ok_or("missing ranks_hex")?;
    let ranks = ranks_from_hex(ranks_hex)?;
    let total_seconds = v
        .get("total_seconds")
        .and_then(Json::as_f64)
        .ok_or("missing total_seconds")?;
    Ok(RunSummary {
        record,
        ranks,
        total_seconds,
    })
}

fn ranks_from_hex(hex: &str) -> Result<Vec<f64>, String> {
    let bytes = hex.as_bytes();
    if !bytes.len().is_multiple_of(16) {
        return Err("ranks_hex length is not a multiple of 16".into());
    }
    let mut ranks = Vec::with_capacity(bytes.len() / 16);
    for chunk in bytes.chunks_exact(16) {
        let s = std::str::from_utf8(chunk).map_err(|_| "ranks_hex is not ASCII hex")?;
        let bits = u64::from_str_radix(s, 16).map_err(|_| "ranks_hex is not ASCII hex")?;
        ranks.push(f64::from_bits(bits));
    }
    Ok(ranks)
}

#[cfg(test)]
#[allow(
    clippy::let_underscore_must_use,
    reason = "test code: clearing a scratch dir that may not exist yet"
)]
mod tests {
    use super::*;
    use ppbench_core::RunRecord;

    fn summary(rank_count: usize) -> Arc<RunSummary> {
        Arc::new(RunSummary {
            record: RunRecord {
                variant: "optimized".to_string(),
                workload: "pagerank".to_string(),
                scale: 4,
                edges: 64,
                kernels: [None; 4],
                validation_passed: Some(true),
                threads: None,
                checksum: None,
            },
            ranks: vec![0.5; rank_count],
            total_seconds: 1.0,
        })
    }

    #[test]
    fn hit_and_miss() {
        let mut cache = ResultCache::new(1 << 20);
        assert!(cache.get(1).is_none());
        cache.insert(1, summary(4));
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
    }

    #[test]
    fn eviction_respects_byte_budget() {
        let one = summary(128).approx_bytes();
        let mut cache = ResultCache::new(one * 3);
        for hash in 0..10u64 {
            cache.insert(hash, summary(128));
        }
        assert!(cache.used_bytes() <= cache.budget_bytes());
        assert!(cache.len() <= 3);
        assert!(!cache.is_empty(), "budget fits at least one entry");
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let one = summary(128).approx_bytes();
        let mut cache = ResultCache::new(one * 2);
        cache.insert(1, summary(128));
        cache.insert(2, summary(128));
        assert!(cache.get(1).is_some(), "touch 1 so 2 becomes the LRU");
        cache.insert(3, summary(128));
        assert!(cache.contains(1), "recently used survives");
        assert!(!cache.contains(2), "least recently used is evicted");
        assert!(cache.contains(3));
    }

    #[test]
    fn replacement_does_not_double_count() {
        let mut cache = ResultCache::new(1 << 20);
        cache.insert(1, summary(128));
        let used = cache.used_bytes();
        cache.insert(1, summary(128));
        assert_eq!(cache.used_bytes(), used);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn oversized_entry_never_sticks() {
        let mut cache = ResultCache::new(64);
        cache.insert(1, summary(1024));
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let mut cache = ResultCache::new(0);
        cache.insert(1, summary(4));
        assert!(cache.get(1).is_none());
    }

    // --- disk tier ---

    fn disk_summary() -> RunSummary {
        RunSummary {
            record: RunRecord {
                variant: "optimized".to_string(),
                workload: "bfs".to_string(),
                scale: 7,
                edges: 512,
                kernels: [
                    Some((0.125, 4096.0)),
                    Some((0.5, 1024.0)),
                    None,
                    Some((0.001234567891234, 414_720.75)),
                ],
                validation_passed: Some(true),
                threads: Some(2),
                checksum: Some(0xdead_beef_cafe_f00d),
            },
            // Awkward bit patterns on purpose: subnormal, -0.0, and a
            // value with no short decimal form.
            ranks: vec![0.1 + 0.2, f64::MIN_POSITIVE, -0.0, 1.0 / 3.0],
            total_seconds: 2.0,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ppbench-diskcache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_roundtrip_is_bit_identical_across_open() {
        let dir = tmp_dir("roundtrip");
        let original = disk_summary();
        {
            let mut disk = DiskCache::open(&dir, 1 << 20).unwrap();
            disk.insert(42, &original).unwrap();
            assert!(disk.contains(42));
            assert!(disk.used_bytes() > 0);
        }
        // A fresh open simulates a service restart.
        let mut disk = DiskCache::open(&dir, 1 << 20).unwrap();
        assert!(disk.contains(42));
        let revived = disk.get(42).expect("revives after reopen");
        assert_eq!(revived.record, original.record);
        assert_eq!(revived.total_seconds, original.total_seconds);
        assert_eq!(revived.ranks.len(), original.ranks.len());
        for (a, b) in revived.ranks.iter().zip(&original.ranks) {
            assert_eq!(a.to_bits(), b.to_bits(), "ranks must revive bit-exactly");
        }
        assert!(disk.get(43).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_budget_evicts_oldest_and_deletes_files() {
        let dir = tmp_dir("budget");
        let one = summary_to_json(0, &disk_summary()).len() as u64;
        let mut disk = DiskCache::open(&dir, one * 2).unwrap();
        for hash in 1..=5u64 {
            disk.insert(hash, &disk_summary()).unwrap();
        }
        assert!(disk.used_bytes() <= disk.budget_bytes());
        assert!(disk.len() <= 2);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, disk.len(), "evicted entries must leave no files");
        assert!(disk.contains(5), "newest entry survives");
        assert!(!disk.contains(1), "oldest entry evicted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_oversized_entry_is_not_written() {
        let dir = tmp_dir("oversized");
        let mut disk = DiskCache::open(&dir, 16).unwrap();
        disk.insert(7, &disk_summary()).unwrap();
        assert!(disk.is_empty());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_mismatched_files_are_removed_not_served() {
        let dir = tmp_dir("corrupt");
        {
            let mut disk = DiskCache::open(&dir, 1 << 20).unwrap();
            disk.insert(1, &disk_summary()).unwrap();
        }
        // Truncate entry 1 and plant a foreign file under another hash.
        std::fs::write(dir.join(format!("run-{:016x}.json", 1u64)), "{trunc").unwrap();
        let renamed = summary_to_json(9, &disk_summary());
        std::fs::write(dir.join(format!("run-{:016x}.json", 2u64)), renamed).unwrap();
        std::fs::write(dir.join("notes.txt"), "not a cache entry").unwrap();

        let mut disk = DiskCache::open(&dir, 1 << 20).unwrap();
        assert_eq!(disk.len(), 2, "foreign files are not indexed");
        assert!(disk.get(1).is_none(), "corrupt entry misses");
        assert!(!disk.contains(1), "…and is dropped from the index");
        assert!(
            !dir.join(format!("run-{:016x}.json", 1u64)).exists(),
            "…and its file is deleted"
        );
        assert!(
            disk.get(2).is_none(),
            "hash mismatch (renamed file) must not serve the wrong config"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_names_parse_strictly() {
        assert_eq!(parse_entry_name("run-00000000000000ff.json"), Some(255));
        assert_eq!(parse_entry_name("run-00000000000000ff.tmp"), None);
        assert_eq!(parse_entry_name("run-ff.json"), None);
        assert_eq!(parse_entry_name("other.json"), None);
    }

    #[test]
    fn an_entry_written_by_the_parent_build_still_loads_and_rewrites_identically() {
        // `run-b1c3d8ff526127f5.json` as `ppserved` wrote it at a4fd8b0,
        // before the record parser moved into core, for the body
        // {"scale":3,"edge_factor":2,"seed":5}.
        const ENTRY: &str = r#"{"hash":"b1c3d8ff526127f5","ranks_hex":"3dfdc4c5066c503e3dfdc4c5066c503e3dfdc4c5066c503e3e34592263088f8e3e1d0796a58900ec3dfdc4c5066c503e3dfdc4c5066c503e3dfdc4c5066c503e","record":{"checksum":null,"edges":16,"kernels":[{"edges_per_second":4332.578471796674,"kernel":0,"seconds":0.003692951},{"edges_per_second":14391.181084231584,"kernel":1,"seconds":0.001111792},{"edges_per_second":413116.4471985541,"kernel":2,"seconds":0.00003873},{"edges_per_second":67667582.99851978,"kernel":3,"seconds":0.000004729}],"record":"ppbench-run-v1","scale":3,"threads":null,"validation_passed":true,"variant":"optimized","workload":"pagerank"},"schema":"ppbench-serve-cache-v1","total_seconds":0.005734252}"#;
        let hash = 0xb1c3_d8ff_5261_27f5;
        let dir = tmp_dir("parent-entry");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("run-{hash:016x}.json")), ENTRY).unwrap();
        let mut disk = DiskCache::open(&dir, 1 << 20).unwrap();
        let revived = disk.get(hash).expect("a parent-written entry revives");
        assert_eq!(revived.record.workload, "pagerank");
        assert_eq!(
            revived.record.kernels[3],
            Some((0.000004729, 67667582.99851978))
        );
        assert_eq!(
            (revived.record.threads, revived.record.checksum),
            (None, None)
        );
        assert_eq!(revived.ranks.len(), 8);
        assert_eq!(
            summary_to_json(hash, &revived),
            ENTRY,
            "on-disk format moved"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
