//! CLI entry point: `cargo run -p netaware-xtask -- lint [--format sarif]`.
//!
//! Exit codes: 0 = clean (or warn-only without `--deny-warnings`),
//! 1 = unsuppressed deny findings (or any finding under
//! `--deny-warnings`), 2 = usage or I/O error.

use netaware_xtask::{apply_baseline, baseline, perf as perf_mod, sarif, LintReport};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Counting allocator: lets `perf` report allocation and peak-heap
/// series in its BENCH snapshots. Near-free when idle (two relaxed
/// atomic adds per allocation).
#[global_allocator]
static ALLOC: netaware_obs::alloc::CountingAlloc = netaware_obs::alloc::CountingAlloc;

/// Writes to stdout, tolerating a closed pipe (e.g. `lint | head`).
fn out(s: std::fmt::Arguments<'_>) {
    let _ = writeln!(std::io::stdout(), "{s}");
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: netaware-xtask <command>\n\n\
         commands:\n  \
         lint [options]   run the workspace lint pass\n  \
         perf [options]   run the perf matrix (6 app cells + 2 scenario cells); write BENCH_*.json snapshots\n  \
         rules [--json]   print the lint catalogue\n\n\
         lint options:\n  \
         --format <text|json|sarif>  output format (default text)\n  \
         --json                      shorthand for --format json\n  \
         --out <file>                write the report to a file instead of stdout\n  \
         --root <dir>                workspace root (default: two above the xtask crate)\n  \
         --baseline <file>           suppression baseline (default: <root>/lint-baseline.json)\n  \
         --no-baseline               ignore any baseline file\n  \
         --write-baseline [<file>]   record all current findings as the new baseline\n  \
         --deny-warnings             treat warn-level findings as failures (CI mode)\n\n\
         perf options:\n  \
         --out-dir <dir>             where BENCH_<scenario>.json land (default: workspace root)\n  \
         --check [<file>]            gate against a baseline (default: <root>/perf-baseline.json)\n  \
         --write-baseline [<file>]   record the gated series of this run as the new baseline\n  \
         --tolerance <f>             allowed drift for deterministic series (default 0.10)\n  \
         --wall-tolerance <f>        allowed growth for wall/heap series (default 1.0)\n  \
         --seed <n> --scale <f> --sim-secs <n>   matrix cell parameters (default 777/0.02/20)"
    );
    ExitCode::from(2)
}

/// Output formats for `lint`.
enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("perf") => perf(&args[1..]),
        Some("rules") => {
            let json = args[1..].iter().any(|a| a == "--json");
            if json {
                out(format_args!("{}", netaware_xtask::catalogue_json()));
            } else {
                let _ = write!(std::io::stdout(), "{}", netaware_xtask::catalogue());
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut no_baseline = false;
    let mut write_baseline: Option<Option<PathBuf>> = None;
    let mut deny_warnings = false;
    let mut out_path: Option<PathBuf> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => format = Format::Json,
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                _ => return usage(),
            },
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--no-baseline" => no_baseline = true,
            "--write-baseline" => {
                // Optional file operand: consume the next arg unless it
                // looks like another flag.
                let file = it
                    .peek()
                    .filter(|n| !n.starts_with("--"))
                    .map(|n| PathBuf::from(n.as_str()));
                if file.is_some() {
                    it.next();
                }
                write_baseline = Some(file);
            }
            "--deny-warnings" => deny_warnings = true,
            "--out" => match it.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    let diags = match netaware_xtask::lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!(
                "netaware-xtask: cannot walk workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    if let Some(file) = write_baseline {
        let path = file.unwrap_or_else(|| root.join("lint-baseline.json"));
        let text = baseline::render(&diags);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("netaware-xtask: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        out(format_args!(
            "netaware-xtask lint: wrote {} suppression(s) to {}",
            diags.len(),
            path.display()
        ));
        return ExitCode::SUCCESS;
    }

    let base = if no_baseline {
        None
    } else {
        let path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.json"));
        if path.exists() {
            match std::fs::read_to_string(&path) {
                Ok(text) => match baseline::Baseline::parse(&text) {
                    Ok(b) => Some(b),
                    Err(e) => {
                        eprintln!("netaware-xtask: {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                },
                Err(e) => {
                    eprintln!("netaware-xtask: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        } else if baseline_path_was_explicit(args) {
            eprintln!("netaware-xtask: baseline {} not found", path.display());
            return ExitCode::from(2);
        } else {
            None
        }
    };
    let report = apply_baseline(diags, base.as_ref());

    let rendered = match format {
        Format::Text => None,
        Format::Json => Some(netaware_xtask::json_report(&report.active)),
        Format::Sarif => Some(sarif::report(&report.active, &report.suppressed)),
    };
    match (rendered, &out_path) {
        (Some(text), Some(path)) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("netaware-xtask: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        (Some(text), None) => {
            let _ = write!(std::io::stdout(), "{text}");
            if !text.ends_with('\n') {
                out(format_args!(""));
            }
        }
        (None, _) => render_text(&report),
    }

    let failing = report.deny_count() + if deny_warnings { report.warn_count() } else { 0 };
    if failing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn perf(args: &[String]) -> ExitCode {
    let mut cfg = perf_mod::PerfConfig::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut check: Option<Option<PathBuf>> = None;
    let mut write_baseline: Option<Option<PathBuf>> = None;
    let mut tolerance = 0.10f64;
    let mut wall_tolerance = 1.0f64;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        // `--check` and `--write-baseline` take an optional file operand.
        let optional_file = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
            let file = it
                .peek()
                .filter(|n| !n.starts_with("--"))
                .map(|n| PathBuf::from(n.as_str()));
            if file.is_some() {
                it.next();
            }
            file
        };
        match a.as_str() {
            "--out-dir" => match it.next() {
                Some(d) => out_dir = Some(PathBuf::from(d)),
                None => return usage(),
            },
            "--check" => check = Some(optional_file(&mut it)),
            "--write-baseline" => write_baseline = Some(optional_file(&mut it)),
            "--tolerance" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => tolerance = v,
                None => return usage(),
            },
            "--wall-tolerance" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => wall_tolerance = v,
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.seed = v,
                None => return usage(),
            },
            "--scale" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.scale = v,
                None => return usage(),
            },
            "--sim-secs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => cfg.sim_secs = v,
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let root = workspace_root();
    let out_dir = out_dir.unwrap_or_else(|| root.clone());
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("netaware-xtask: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    let reports = perf_mod::run_matrix(&cfg);
    for r in &reports {
        let path = out_dir.join(format!("BENCH_{}.json", r.meta.scenario));
        if let Err(e) = std::fs::write(&path, r.to_json()) {
            eprintln!("netaware-xtask: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        let wall_ms = r.profile.total(|n| n.wall_ns) as f64 / 1e6;
        out(format_args!(
            "perf: {:<16} {:>9.1} ms wall, {:>8} events, peak heap {:.2} MiB -> {}",
            r.meta.scenario,
            wall_ms,
            r.profile.total(|n| n.events),
            r.peak_heap_bytes as f64 / (1 << 20) as f64,
            path.display(),
        ));
    }

    if let Some(file) = write_baseline {
        let path = file.unwrap_or_else(|| root.join("perf-baseline.json"));
        if let Err(e) = std::fs::write(&path, perf_mod::render_baseline(&reports)) {
            eprintln!("netaware-xtask: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        out(format_args!(
            "perf: wrote {} gated series to {}",
            perf_mod::gated_series(&reports).len(),
            path.display()
        ));
        return ExitCode::SUCCESS;
    }

    if let Some(file) = check {
        let path = file.unwrap_or_else(|| root.join("perf-baseline.json"));
        let body = match std::fs::read_to_string(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("netaware-xtask: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let baseline = match perf_mod::Baseline::parse(&body) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("netaware-xtask: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let breaches = perf_mod::check(
            &perf_mod::gated_series(&reports),
            &baseline.series,
            tolerance,
            wall_tolerance,
        );
        if breaches.is_empty() {
            out(format_args!(
                "perf: {} gated series within budget (tolerance {:.0}%, wall {:.0}%)",
                baseline.series.len(),
                tolerance * 100.0,
                wall_tolerance * 100.0
            ));
            return ExitCode::SUCCESS;
        }
        for b in &breaches {
            eprintln!("{}", b.render());
        }
        eprintln!(
            "netaware-xtask perf: {} series over budget against {}",
            breaches.len(),
            path.display()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Whether `--baseline` appeared explicitly (a missing default baseline
/// is fine; a missing explicit one is an error).
fn baseline_path_was_explicit(args: &[String]) -> bool {
    args.iter().any(|a| a == "--baseline")
}

fn render_text(report: &LintReport) {
    for d in &report.active {
        out(format_args!("{}", d.render()));
    }
    for stale in &report.stale {
        out(format_args!(
            "netaware-xtask lint: stale baseline entry {stale} — regenerate with --write-baseline"
        ));
    }
    let deny = report.deny_count();
    let warn = report.warn_count();
    if deny == 0 && warn == 0 {
        if report.suppressed.is_empty() {
            out(format_args!("netaware-xtask lint: clean"));
        } else {
            out(format_args!(
                "netaware-xtask lint: clean ({} baselined finding(s))",
                report.suppressed.len()
            ));
        }
    } else {
        out(format_args!(
            "netaware-xtask lint: {deny} deny, {warn} warn ({} baselined)",
            report.suppressed.len()
        ));
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `crates/xtask`, two up.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}
