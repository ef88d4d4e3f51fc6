//! CLI for `ppbench-analyze`.
//!
//! ```text
//! ppbench-analyze [--workspace] [--root DIR] [--format text|sarif] [--out FILE]
//!                 [--baseline FILE] [--check-baseline] [--write-baseline]
//!                 [--list-rules] [PATH]...
//! ```
//!
//! Exit codes: 0 clean, 1 violations or baseline regression, 2 usage or
//! I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use ppbench_analyze::baseline::Baseline;
use ppbench_analyze::rules::RULE_DESCRIPTIONS;
use ppbench_analyze::{engine, sarif, walk};

struct Options {
    workspace: bool,
    root: Option<PathBuf>,
    list_rules: bool,
    format: Format,
    out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    check_baseline: bool,
    write_baseline: bool,
    paths: Vec<PathBuf>,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Sarif,
}

const BASELINE_FILE: &str = "ANALYZE_BASELINE.json";

fn usage(to_stderr: bool) {
    let text =
        "usage: ppbench-analyze [--workspace] [--root DIR] [--format text|sarif] [--out FILE]\n\
                \x20                      [--baseline FILE] [--check-baseline] [--write-baseline]\n\
                \x20                      [--list-rules] [PATH]...\n\
                \n\
                --workspace       scan the whole workspace (default when no PATH given)\n\
                --root DIR        workspace root (default: discovered from the cwd)\n\
                --format FMT      output format: text (default) or sarif\n\
                --out FILE        write the report to FILE instead of stdout\n\
                --baseline FILE   ratchet file (default: <root>/ANALYZE_BASELINE.json)\n\
                --check-baseline  fail if waiver counts grew past the baseline\n\
                --write-baseline  rewrite the baseline from the current counts\n\
                --list-rules      print the rule catalogue and exit\n";
    if to_stderr {
        eprint!("{text}");
    } else {
        print!("{text}");
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workspace: false,
        root: None,
        list_rules: false,
        format: Format::Text,
        out: None,
        baseline: None,
        check_baseline: false,
        write_baseline: false,
        paths: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--root" => {
                let v = argv.next().ok_or("--root needs a directory")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--format" => {
                let v = argv.next().ok_or("--format needs `text` or `sarif`")?;
                opts.format = match v.as_str() {
                    "text" => Format::Text,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--out" => {
                let v = argv.next().ok_or("--out needs a file path")?;
                opts.out = Some(PathBuf::from(v));
            }
            "--baseline" => {
                let v = argv.next().ok_or("--baseline needs a file path")?;
                opts.baseline = Some(PathBuf::from(v));
            }
            "--check-baseline" => opts.check_baseline = true,
            "--write-baseline" => opts.write_baseline = true,
            "--list-rules" => opts.list_rules = true,
            "--help" | "-h" => {
                usage(false);
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => opts.paths.push(PathBuf::from(path)),
        }
    }
    if !opts.workspace && opts.paths.is_empty() {
        opts.workspace = true;
    }
    if opts.check_baseline && opts.write_baseline {
        return Err("--check-baseline and --write-baseline are mutually exclusive".into());
    }
    Ok(opts)
}

fn emit(opts: &Options, report: &str) -> Result<(), String> {
    match &opts.out {
        Some(path) => {
            std::fs::write(path, report).map_err(|e| format!("writing {}: {e}", path.display()))
        }
        None => {
            print!("{report}");
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("ppbench-analyze: {msg}");
            usage(true);
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for (rule, desc) in RULE_DESCRIPTIONS {
            println!("{rule:<18} {desc}");
        }
        return ExitCode::SUCCESS;
    }

    let mut files = Vec::new();
    // The workspace root doubles as the default baseline location, so the
    // ratchet flags need it resolved even for explicit-path runs.
    let mut baseline_path = opts.baseline.clone();
    if opts.workspace || (baseline_path.is_none() && (opts.check_baseline || opts.write_baseline)) {
        let root = match opts.root.clone().map(Ok).unwrap_or_else(|| {
            std::env::current_dir().and_then(|cwd| walk::find_workspace_root(&cwd))
        }) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ppbench-analyze: locating workspace: {e}");
                return ExitCode::from(2);
            }
        };
        if baseline_path.is_none() {
            baseline_path = Some(root.join(BASELINE_FILE));
        }
        if opts.workspace {
            match walk::load_workspace(&root) {
                Ok(fs) => files.extend(fs),
                Err(e) => {
                    eprintln!("ppbench-analyze: reading workspace: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    if !opts.paths.is_empty() {
        match walk::load_paths(&opts.paths) {
            Ok(fs) => files.extend(fs),
            Err(e) => {
                eprintln!("ppbench-analyze: reading paths: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let report = engine::analyze_report(&files);

    if opts.format == Format::Sarif {
        if let Err(e) = emit(&opts, &sarif::render(&report.diags)) {
            eprintln!("ppbench-analyze: {e}");
            return ExitCode::from(2);
        }
    }

    let errors = report.diags.len();
    let mut text: String = report.diags.iter().map(|d| format!("{d}\n")).collect();
    text.push_str(&format!(
        "ppbench-analyze: {} file(s) scanned, {errors} error(s)\n",
        files.len()
    ));
    if opts.format == Format::Text {
        if let Err(e) = emit(&opts, &text) {
            eprintln!("ppbench-analyze: {e}");
            return ExitCode::from(2);
        }
    } else {
        // SARIF went to --out/stdout; keep the human summary on stderr.
        eprint!("{text}");
    }

    let current = Baseline {
        waivers: report.used_waivers,
    };
    let mut ratchet_failed = false;
    if let (true, Some(path)) = (opts.check_baseline || opts.write_baseline, baseline_path) {
        if opts.write_baseline {
            if let Err(e) = std::fs::write(&path, current.render()) {
                eprintln!("ppbench-analyze: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
            eprintln!("ppbench-analyze: wrote baseline to {}", path.display());
        } else {
            let committed = match std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))
                .and_then(|t| Baseline::parse(&t))
            {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("ppbench-analyze: {e} (create one with --write-baseline)");
                    return ExitCode::from(2);
                }
            };
            let (regressions, improvements) = committed.compare(&current);
            for msg in &regressions {
                eprintln!("ppbench-analyze: baseline regression: {msg}");
            }
            for msg in &improvements {
                eprintln!("ppbench-analyze: baseline: {msg}");
            }
            ratchet_failed = !regressions.is_empty();
        }
    }

    if errors > 0 || ratchet_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
