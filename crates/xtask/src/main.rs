//! Workspace tasks: `cargo run -p netaware-xtask -- perf [options]`
//! runs the perf-snapshot matrix and its budget gate (see [`perf`]).
//!
//! Exit codes: 0 = success (or every gated series within budget),
//! 1 = series over budget, 2 = usage or I/O error.

mod perf;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// Counting allocator: lets `perf` report allocation and peak-heap
/// series in its BENCH snapshots. Near-free when idle (two relaxed
/// atomic adds per allocation).
#[global_allocator]
static ALLOC: netaware_obs::alloc::CountingAlloc = netaware_obs::alloc::CountingAlloc;

/// Writes to stdout, tolerating a closed pipe (e.g. `perf | head`).
fn out(s: std::fmt::Arguments<'_>) {
    let _ = writeln!(std::io::stdout(), "{s}");
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: netaware-xtask perf [options]\n\n\
         Runs the perf matrix (6 app cells + 2 scenario cells) and writes\n\
         one BENCH_<scenario>.json snapshot per cell.\n\n\
         options:\n  \
         --out-dir <dir>             where BENCH_<scenario>.json land (default: workspace root)\n  \
         --check [<file>]            gate against a baseline (default: <root>/perf-baseline.json)\n  \
         --write-baseline [<file>]   record the gated series of this run as the new baseline\n  \
         --tolerance <f>             allowed drift for deterministic series (default 0.10)\n  \
         --wall-tolerance <f>        allowed growth for wall/heap series (default 1.0)\n  \
         --seed <n> --scale <f> --sim-secs <n>   matrix cell parameters (default 777/0.02/20)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("perf") => run_perf(&args[1..]),
        _ => usage(),
    }
}

fn run_perf(args: &[String]) -> ExitCode {
    let mut cfg = perf::PerfConfig::default();
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

    let reports = perf::run_matrix(&cfg);
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
        if let Err(e) = std::fs::write(&path, perf::render_baseline(&reports)) {
            eprintln!("netaware-xtask: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        out(format_args!(
            "perf: wrote {} gated series to {}",
            perf::gated_series(&reports).len(),
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
        let baseline = match perf::Baseline::parse(&body) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("netaware-xtask: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let breaches = perf::check(
            &perf::gated_series(&reports),
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

/// The workspace root: `CARGO_MANIFEST_DIR` is `crates/xtask`, two up.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}
