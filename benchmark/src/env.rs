//! The environment header: what machine, toolchain and commit produced a
//! set of numbers. Printed with every run and stored in `result.json`;
//! never compared.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use ppbench_core::json::JsonObject;

/// Environment facts recorded beside the metrics.
#[derive(Debug, Clone)]
pub struct Env {
    fields: Vec<(&'static str, String)>,
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Value of the first `key: value` line in a `/proc`-style file.
fn proc_field(text: &str, key: &str) -> Option<String> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// Standard output of `program args…`, trimmed; `None` when the program
/// is missing or fails.
fn command_output(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Largest cache cpu0 reports, in bytes (`0` when sysfs has no cache
/// directory, as in some containers).
fn llc_bytes() -> u64 {
    let mut best = 0u64;
    for index in 0..8 {
        let Some(size) = read(&format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        )) else {
            continue;
        };
        let size = size.trim();
        let (digits, unit) = size.split_at(size.trim_end_matches(['K', 'M', 'G']).len());
        let scale = match unit {
            "K" => 1u64 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => 1,
        };
        best = best.max(digits.parse::<u64>().unwrap_or(0) * scale);
    }
    best
}

/// Filesystem type of the mount holding `path`, from the longest
/// matching mount point in `/proc/self/mountinfo`.
fn fs_type(path: &Path) -> String {
    let Some(info) = read("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mut best = (0usize, "unknown".to_string());
    for line in info.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> … - <fstype> …"
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (head.split(' ').nth(4), tail.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype.to_string());
        }
    }
    best.1
}

/// Writes and syncs 32 MiB under `dir` and returns MB/s. This is the
/// rate the pipeline's durable writers see, page cache included.
fn write_rate_mb_per_s(dir: &Path) -> f64 {
    use std::io::Write;
    const BYTES: usize = 32 << 20;
    let path = dir.join("write-rate.probe");
    let buf = vec![0x5au8; 1 << 20];
    let start = Instant::now();
    let outcome = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&path)?;
        for _ in 0..BYTES / buf.len() {
            f.write_all(&buf)?;
        }
        f.sync_all()
    })();
    let secs = start.elapsed().as_secs_f64();
    // A probe file that cannot be removed is reported by the work-root
    // cleanup; the rate itself is still valid.
    let _ = std::fs::remove_file(&path);
    match outcome {
        Ok(()) => BYTES as f64 / 1e6 / secs,
        Err(_) => 0.0,
    }
}

impl Env {
    /// Probes the host. `repo_root` is where `git` is asked for the
    /// commit (only when it holds a `.git`, so a plain checkout never
    /// sends git searching parent directories); `work_root` is the
    /// directory the workloads write under.
    pub fn probe(repo_root: &Path, work_root: &Path, seed: u64, seconds: f64) -> Self {
        let cpuinfo = read("/proc/cpuinfo").unwrap_or_default();
        let meminfo = read("/proc/meminfo").unwrap_or_default();
        let (commit, dirty) = if repo_root.join(".git").exists() {
            (
                command_output("git", &["rev-parse", "HEAD"], repo_root),
                command_output("git", &["status", "--porcelain"], repo_root)
                    .map(|s| (!s.is_empty()).to_string()),
            )
        } else {
            (None, None)
        };
        let unknown = || "unknown".to_string();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let fields = vec![
            (
                "cpu_model",
                proc_field(&cpuinfo, "model name").unwrap_or_else(unknown),
            ),
            ("logical_cores", cores.to_string()),
            (
                "mem_total",
                proc_field(&meminfo, "MemTotal").unwrap_or_else(unknown),
            ),
            (
                "kernel",
                read("/proc/sys/kernel/osrelease").map_or_else(unknown, |s| s.trim().to_string()),
            ),
            (
                "rustc",
                command_output("rustc", &["-V"], work_root).unwrap_or_else(unknown),
            ),
            ("git_commit", commit.unwrap_or_else(unknown)),
            ("git_dirty", dirty.unwrap_or_else(unknown)),
            ("work_root_fs", fs_type(work_root)),
            (
                "work_root_write_mb_per_s",
                format!("{:.1}", write_rate_mb_per_s(work_root)),
            ),
            ("llc_bytes", llc_bytes().to_string()),
            ("seed", seed.to_string()),
            ("seconds", seconds.to_string()),
        ];
        Self { fields }
    }

    /// Adds a fact learned later (e.g. the trial counts a run reached).
    pub fn set(&mut self, key: &'static str, value: String) {
        self.fields.push((key, value));
    }

    /// Prints the header as `env.<key>  <value>` lines.
    pub fn print(&self) {
        for (k, v) in &self.fields {
            println!("env.{k:<28} {v}");
        }
    }

    /// The header as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        for (k, v) in &self.fields {
            o.set_str(k, v);
        }
        o.render()
    }
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| proc_field(&s, "VmHWM"))
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process (all threads, ended ones
/// included) has consumed, from `/proc/self/stat`. Resolution is one
/// clock tick (10 ms on Linux), so callers difference it over whole
/// segments, not single calls.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let Some(stat) = read("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // after its closing parenthesis, where field 3 (state) comes first.
    let Some((_, rest)) = stat.rsplit_once(") ") else {
        return 0.0;
    };
    let mut fields = rest.split(' ').skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SECOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_field_finds_first_matching_key() {
        let text = "MemTotal:       16483328 kB\nMemFree: 1 kB\nMemTotal: 2 kB\n";
        assert_eq!(proc_field(text, "MemTotal").unwrap(), "16483328 kB");
        assert!(proc_field(text, "Swap").is_none());
    }

    #[test]
    fn process_counters_are_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
    }
}
