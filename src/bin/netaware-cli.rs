//! `netaware-cli` — run and analyse P2P-TV network-awareness experiments.
//!
//! ```text
//! netaware-cli suite     [--scale F] [--secs N] [--seed N] [FAULTS]
//!                        [--json FILE] [--csv DIR] [--markdown FILE]
//! netaware-cli replicate APP [--runs N] [--scale F] [--secs N] [--seed N] [FAULTS]
//! netaware-cli run APP [--uniform] [--persite] [--spill DIR] [--scale F] [--secs N] [--seed N]
//!                      [--json FILE] [--obs-log FILE] [--metrics FILE] [--profile FILE] [FAULTS]
//! netaware-cli nextgen [--scale F] [--secs N] [--seed N] [FAULTS]
//! netaware-cli matrix  --config FILE [--out DIR] [--seed N] [--json FILE]
//! netaware-cli matrix  --example
//! netaware-cli testbed [--scale F]
//! netaware-cli mesh    [--peers N] [--secs N] [--seed N]
//! netaware-cli export  --dir DIR [--app APP] [--scale F] [--secs N] [--seed N] [FAULTS]
//! netaware-cli analyze --dir CORPUS | --probe IP FILE.pcap [--probe IP FILE.pcap …]
//!                      [--json FILE] [--profile FILE]
//! netaware-cli obs summarize FILE [--metrics FILE]
//! netaware-cli obs profile FILE
//! netaware-cli obs diff A.json B.json
//!
//! FAULTS = [--faults FILE] [--loss P] [--jitter-us N] [--churn]
//! ```
//!
//! `APP` is any registered profile name or alias (`pplive`, `sopcast`,
//! `tvants`, `nextgen`, `pplive-unpop`, `epidemic-rp`, `epidemic-ba` —
//! see `AppProfile::all`).
//!
//! `suite` prints Table I, Tables II–IV and Figs. 1–2, then the hop
//! distributions, the network-friendliness table and one `[truth]`
//! ground-truth line per application. `nextgen` sets the three paper
//! applications beside the locality-aware NAPA-NG profile and states
//! the transit share it saves. `testbed` prints Table I, the AS/prefix
//! plan and a census of the external population at `--scale`. `mesh`
//! runs a full chunk-level mesh of `--peers` peers (default 800), every
//! one simulated, and checks the swarm's statistical external-peer model
//! against it: the emergent acquisition-lag distribution against the
//! assumed 0.5–5 s playout lag.
//!
//! `matrix --config FILE` sweeps a scenario grid (profiles × scales ×
//! session models × fault plans, JSON `MatrixConfig`; start from
//! `matrix --example`) through the streaming pipeline and emits one
//! deterministic cross-scenario awareness report (markdown on stdout;
//! `--out DIR` additionally writes `report.json`/`report.md` plus a
//! re-analysable per-cell trace corpus). `--seed` overrides the
//! config's seed; same seed ⇒ byte-identical report.
//! `run --spill DIR` spills the capture to an on-disk corpus as the
//! swarm runs, one second of simulated time at a time, and streams the
//! analysis back off disk. The run's peak memory is the swarm's own
//! state plus about two seconds of records (the one being captured and
//! the one being written beside it), and the corpus stays behind
//! for `analyze --dir`.
//! `analyze --dir` streams a saved corpus through the single-pass engine
//! without loading it; `analyze --probe …` ingests classic pcap captures
//! (e.g. produced by `export` or by tcpdump against the same address
//! plan) and runs the passive framework over them using the
//! reconstructed testbed registry.
//!
//! `run --faults FILE` loads a fault-injection plan (JSON `FaultPlan`:
//! link loss/jitter/outages plus peer churn and tracker-outage windows);
//! `--loss P`, `--jitter-us N` and `--churn` are shorthands that
//! override/extend the plan (churn uses the default preset). Fault
//! draws ride dedicated RNG streams, so same-seed fault runs are
//! byte-identical too. The continuity ground truth printed at the end
//! (and the `swarm.continuity` events / `proto.continuity_*` metrics)
//! quantify the protocol's graceful degradation.
//!
//! `run --obs-log FILE` writes the run's structured event log as JSONL
//! (byte-identical across same-seed runs); `run --metrics FILE` writes
//! the metrics-registry snapshot (JSON, or CSV when FILE ends in
//! `.csv`). `obs summarize FILE` renders an event log: top targets,
//! error events, and the chunk-scheduler decision rate; pass
//! `--metrics FILE` to fold a metrics snapshot (counter throughput,
//! histogram percentiles) into the same report.
//!
//! `run --profile FILE` and `analyze --profile FILE` arm the span
//! profiler and write the finished run's span tree (`ProfileNode`) to
//! FILE as JSON, printing the peak heap on stderr; `obs profile FILE`
//! renders such a tree as an indented flame-style table with
//! total/self wall time, calls, allocations and work items. `obs diff
//! A.json B.json` pairs the spans of two such trees by path and prints
//! each one's self time A → B with its change, calls and allocations;
//! it exits 1 naming the first span whose `events` or `records` differ,
//! since the two runs then did different work.
//!
//! Each subcommand takes only the flags it reads (see `flags_read_by`);
//! any other flag is a usage error (exit 2) before anything runs.

// The library crates' panic denies, for this binary's own crate root:
// every failure here exits with a message instead.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netaware::analysis::tables;
use netaware::analysis::AnalysisConfig;
use netaware::net::{CountryCode, Ip};
use netaware::obs::{
    alloc, EventSink, JsonlSink, LogSummary, MetricsSnapshot, NullSink, ProfileNode, WallClock,
};
use netaware::proto::mesh::{run_mesh, MeshConfig};
use netaware::proto::StreamParams;
use netaware::testbed::{
    self, run_experiment, run_paper_suite, BuiltScenario, ExperimentOptions, ScenarioConfig,
};
use netaware::trace::pcap::{export_pcap, import_pcap};
use netaware::trace::{ProbeTrace, TraceError, TraceSet};
use netaware::{AppProfile, FaultPlan, Obs};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

/// Counting allocator: fills the allocation column and the peak heap of
/// `--profile` runs. Two relaxed atomic adds per allocation when
/// nothing reads the counters.
#[global_allocator]
static ALLOC: netaware::obs::alloc::CountingAlloc = netaware::obs::alloc::CountingAlloc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: netaware-cli <suite|run|replicate|nextgen|matrix|testbed|mesh|export|analyze|obs> [options]\n\
         see the crate docs (cargo doc --open) for details"
    );
    ExitCode::from(2)
}

struct Common {
    scale: f64,
    secs: u64,
    seed: u64,
    runs: u64,
    peers: usize,
    json: Option<String>,
    csv: Option<String>,
    markdown: Option<String>,
    uniform: bool,
    persite: bool,
    spill: Option<String>,
    dir: Option<String>,
    app: Option<String>,
    pcaps: Vec<(Ip, String)>,
    obs_log: Option<String>,
    metrics: Option<String>,
    profile_out: Option<String>,
    faults: FaultPlan,
    config: Option<String>,
    out: Option<String>,
    example: bool,
    seed_set: bool,
    /// Every flag given, in order, for the per-subcommand check.
    flags: Vec<String>,
}

fn parse_common(args: &[String]) -> Result<Common, String> {
    let mut c = Common {
        scale: 0.05,
        secs: 240,
        seed: 42,
        runs: 3,
        peers: 800,
        json: None,
        csv: None,
        markdown: None,
        uniform: false,
        persite: false,
        spill: None,
        dir: None,
        app: None,
        pcaps: Vec::new(),
        obs_log: None,
        metrics: None,
        profile_out: None,
        faults: FaultPlan::none(),
        config: None,
        out: None,
        example: false,
        seed_set: false,
        flags: Vec::new(),
    };
    let mut i = 0;
    let mut pending_probe: Option<Ip> = None;
    let mut faults_file: Option<String> = None;
    let mut loss: Option<f64> = None;
    let mut jitter_us: Option<u64> = None;
    let mut churn = false;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        if args[i].starts_with("--") {
            c.flags.push(args[i].clone());
        }
        match args[i].as_str() {
            "--scale" => {
                let s: f64 = take(&mut i)?.parse().map_err(|e| format!("scale: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("scale {s} must be finite and > 0"));
                }
                c.scale = s;
            }
            "--secs" => {
                c.secs = take(&mut i)?.parse().map_err(|e| format!("secs: {e}"))?;
                if c.secs == 0 {
                    return Err(String::from("secs 0 must be > 0"));
                }
                if c.secs.checked_mul(1_000_000).is_none() {
                    return Err(format!("secs {} overflows the microsecond clock", c.secs));
                }
            }
            "--seed" => {
                c.seed = take(&mut i)?.parse().map_err(|e| format!("seed: {e}"))?;
                c.seed_set = true;
            }
            "--config" => c.config = Some(take(&mut i)?),
            "--out" => c.out = Some(take(&mut i)?),
            "--example" => c.example = true,
            "--json" => c.json = Some(take(&mut i)?),
            "--csv" => c.csv = Some(take(&mut i)?),
            "--markdown" => c.markdown = Some(take(&mut i)?),
            "--spill" => c.spill = Some(take(&mut i)?),
            "--obs-log" => c.obs_log = Some(take(&mut i)?),
            "--metrics" => c.metrics = Some(take(&mut i)?),
            "--profile" => c.profile_out = Some(take(&mut i)?),
            "--dir" => c.dir = Some(take(&mut i)?),
            "--faults" => faults_file = Some(take(&mut i)?),
            "--loss" => loss = Some(take(&mut i)?.parse().map_err(|e| format!("loss: {e}"))?),
            "--jitter-us" => {
                jitter_us = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("jitter-us: {e}"))?,
                )
            }
            "--churn" => churn = true,
            "--app" => c.app = Some(take(&mut i)?),
            "--uniform" => c.uniform = true,
            "--persite" => c.persite = true,
            "--runs" => {
                c.runs = take(&mut i)?.parse().map_err(|e| format!("runs: {e}"))?;
                if c.runs == 0 {
                    return Err(String::from("runs 0 must be > 0"));
                }
            }
            "--peers" => {
                c.peers = take(&mut i)?.parse().map_err(|e| format!("peers: {e}"))?;
                if c.peers < 2 {
                    let n = c.peers;
                    return Err(format!("--peers {n} must be >= 2: a mesh needs two peers"));
                }
            }
            "--probe" => {
                let ip: Ip = take(&mut i)?.parse().map_err(|e| format!("--probe: {e}"))?;
                pending_probe = Some(ip);
            }
            other if !other.starts_with("--") => {
                if let Some(probe) = pending_probe.take() {
                    c.pcaps.push((probe, other.to_string()));
                } else if c.app.is_none() {
                    c.app = Some(other.to_string());
                } else {
                    return Err(format!("unexpected argument {other}"));
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    // Compile the fault plan: the plan file first, shorthand flags
    // overriding/extending it.
    let plan = match &faults_file {
        Some(path) => {
            let body =
                std::fs::read_to_string(path).map_err(|e| format!("--faults {path}: {e}"))?;
            FaultPlan::from_json(&body).map_err(|e| format!("--faults {path}: {e}"))?
        }
        None => FaultPlan::none(),
    }
    .with_flags(loss, jitter_us, churn);
    plan.validate()?;
    c.faults = plan;
    Ok(c)
}

/// The flags each subcommand reads. `parse_common` accepts the union;
/// `None` for an unknown subcommand.
fn flags_read_by(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "suite" => &[
            "--scale",
            "--secs",
            "--seed",
            "--faults",
            "--loss",
            "--jitter-us",
            "--churn",
            "--json",
            "--csv",
            "--markdown",
        ],
        "run" => &[
            "--app",
            "--uniform",
            "--persite",
            "--spill",
            "--scale",
            "--secs",
            "--seed",
            "--faults",
            "--loss",
            "--jitter-us",
            "--churn",
            "--json",
            "--obs-log",
            "--metrics",
            "--profile",
        ],
        "replicate" => &[
            "--app",
            "--runs",
            "--scale",
            "--secs",
            "--seed",
            "--faults",
            "--loss",
            "--jitter-us",
            "--churn",
        ],
        "nextgen" => &[
            "--scale",
            "--secs",
            "--seed",
            "--faults",
            "--loss",
            "--jitter-us",
            "--churn",
        ],
        "matrix" => &["--config", "--out", "--seed", "--json", "--example"],
        "testbed" => &["--scale"],
        "mesh" => &["--peers", "--secs", "--seed"],
        "export" => &[
            "--app",
            "--dir",
            "--scale",
            "--secs",
            "--seed",
            "--faults",
            "--loss",
            "--jitter-us",
            "--churn",
        ],
        "analyze" => &["--dir", "--probe", "--json", "--profile"],
        _ => return None,
    })
}

/// Writes the `--profile` span tree as JSON, if one was requested, and
/// reports the run's peak heap.
fn write_profile(obs: &Obs, c: &Common) -> Result<(), String> {
    let Some(path) = &c.profile_out else {
        return Ok(());
    };
    let tree = obs.profile_tree().ok_or("the profiler was not armed")?;
    let body = serde_json::to_string_pretty(&tree).map_err(|e| e.to_string())?;
    write_file(path, body)?;
    eprintln!(
        "profile written to {path} (peak heap {:.2} MiB)",
        alloc::snapshot().peak_bytes as f64 / (1u64 << 20) as f64
    );
    Ok(())
}

fn profile_by_name(name: &str) -> Option<AppProfile> {
    // Single source of truth: the profile registry (names and aliases).
    AppProfile::by_name(name)
}

fn opts_of(c: &Common) -> ExperimentOptions {
    ExperimentOptions {
        seed: c.seed,
        scale: c.scale,
        duration_us: c.secs * 1_000_000,
        faults: c.faults.clone(),
        ..Default::default()
    }
}

fn print_all_tables(outs: &[testbed::ExperimentOutput]) {
    let summaries: Vec<_> = outs.iter().map(|o| o.analysis.summary.clone()).collect();
    println!("{}", tables::render_table2(&summaries));
    let fig1: Vec<_> = outs
        .iter()
        .map(|o| (o.app.clone(), o.analysis.geo.clone()))
        .collect();
    println!("{}", tables::render_fig1(&fig1));
    let t3: Vec<_> = outs
        .iter()
        .map(|o| (o.app.clone(), o.analysis.selfbias))
        .collect();
    println!("{}", tables::render_table3(&t3));
    let blocks: Vec<_> = outs
        .iter()
        .map(|o| (o.app.clone(), o.analysis.preferences.clone()))
        .collect();
    println!("{}", tables::render_table4(&blocks));
    let fig2: Vec<_> = outs
        .iter()
        .map(|o| (o.app.clone(), o.analysis.asmatrix.clone()))
        .collect();
    println!("{}", tables::render_fig2(&fig2));
}

/// Exit 0, or exit 1 after printing `cmd: error`.
fn exit_on(cmd: &str, result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes `body` to `path`; the error names the path.
fn write_file(path: &str, body: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("writing {path} failed: {e}"))
}

fn write_json(path: &str, outs: &[testbed::ExperimentOutput]) -> Result<(), String> {
    let all: Vec<_> = outs.iter().map(|o| &o.analysis).collect();
    let body = serde_json::to_string_pretty(&all)
        .map_err(|e| format!("serialising the analysis for {path} failed: {e}"))?;
    write_file(path, body)?;
    eprintln!("analysis written to {path}");
    Ok(())
}

fn cmd_suite(c: &Common) -> ExitCode {
    println!("{}", testbed::hosts::render_table1());
    let outs = run_paper_suite(&opts_of(c));
    print_all_tables(&outs);

    println!("HOP DISTRIBUTIONS (§III-B: medians should sit near the fixed threshold 19)");
    for o in &outs {
        print!("{}", o.analysis.hop_distribution.render(&o.app));
    }
    println!();

    println!("NETWORK FRIENDLINESS (extension metrics)");
    println!(
        "  {:<8} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "app", "subnet%", "intraAS%", "intraCC%", "transit%", "hops/byte"
    );
    for o in &outs {
        let f = &o.analysis.friendliness;
        println!(
            "  {:<8} {:>9.1} {:>9.1} {:>9.1} {:>10.1} {:>10.1}",
            o.app,
            f.subnet_pct,
            f.intra_as_pct,
            f.intra_cc_pct,
            f.transit_pct,
            f.mean_hops_per_byte
        );
    }
    println!();

    for o in &outs {
        println!(
            "[truth] {:<8} continuity {:.3}, {} pkts captured, {} events",
            o.app,
            o.report.continuity(),
            o.analysis.total_packets,
            o.report.events_dispatched
        );
    }
    exit_on("suite", write_suite_artifacts(c, &outs))
}

/// Writes the `--json`, `--csv` and `--markdown` artifacts of `suite`.
fn write_suite_artifacts(c: &Common, outs: &[testbed::ExperimentOutput]) -> Result<(), String> {
    if let Some(p) = &c.json {
        write_json(p, outs)?;
    }
    let refs: Vec<&netaware::ExperimentAnalysis> = outs.iter().map(|o| &o.analysis).collect();
    if let Some(dir) = &c.csv {
        use netaware::analysis::csv;
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir} failed: {e}"))?;
        write_file(&format!("{dir}/table4.csv"), csv::table4_csv(&refs))?;
        write_file(&format!("{dir}/fig1.csv"), csv::fig1_csv(&refs))?;
        write_file(&format!("{dir}/fig2.csv"), csv::fig2_csv(&refs))?;
        write_file(&format!("{dir}/hopdist.csv"), csv::hopdist_csv(&refs))?;
        eprintln!("CSV artifacts written to {dir}/");
    }
    if let Some(path) = &c.markdown {
        let md = netaware::analysis::markdown::render_report(&refs, "netaware reproduction suite");
        write_file(path, md)?;
        eprintln!("markdown report written to {path}");
    }
    Ok(())
}

fn cmd_run(c: &Common) -> ExitCode {
    let Some(name) = &c.app else {
        eprintln!("run: which app? (see AppProfile::all: pplive|sopcast|tvants|nextgen|pplive-unpop|epidemic-rp|epidemic-ba)");
        return ExitCode::from(2);
    };
    let Some(mut profile) = profile_by_name(name) else {
        eprintln!("unknown app {name}");
        return ExitCode::from(2);
    };
    if c.uniform {
        profile = profile.uniform_selection();
    }
    let mut opts = opts_of(c);
    opts.keep_traces = c.persite;
    // Observability: a JSONL sink when an event log is requested, a
    // counting null sink when only metrics/profiling are (events still
    // flow so the counters fill, but nothing is built or written).
    if c.obs_log.is_some() || c.metrics.is_some() || c.profile_out.is_some() {
        let sink: Arc<dyn EventSink> = match &c.obs_log {
            Some(path) => match JsonlSink::create(std::path::Path::new(path)) {
                Ok(s) => Arc::new(s),
                Err(e) => {
                    eprintln!("run: cannot create event log {path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => Arc::new(NullSink::new()),
        };
        opts.obs = if c.profile_out.is_some() {
            Obs::with_profiler(sink, Arc::new(WallClock::new()))
        } else {
            Obs::new(sink)
        };
    }
    let out = if let Some(dir) = &c.spill {
        if c.persite {
            eprintln!("run: --persite needs in-memory traces and cannot be combined with --spill");
            return ExitCode::from(2);
        }
        match netaware::run_streamed(profile, &opts, std::path::Path::new(dir)) {
            Ok(out) => {
                eprintln!("trace corpus spilled to {dir}/ (manifest.json + .nawt)");
                out
            }
            Err(e) => {
                eprintln!("run: streaming to {dir} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_experiment(profile, &opts)
    };
    if c.persite {
        let Some(traces) = out.traces.as_ref() else {
            eprintln!("run: --persite found no in-memory traces to read");
            return ExitCode::FAILURE;
        };
        let scenario = BuiltScenario::build(
            &ScenarioConfig {
                seed: c.seed,
                scale: c.scale,
                ..Default::default()
            },
            1, // registry only; population size irrelevant here
        );
        let pfs = netaware::analysis::flows::aggregate(traces, &AnalysisConfig::default());
        let rows = netaware::analysis::persite::per_probe(
            &pfs,
            &scenario.registry,
            &AnalysisConfig::default(),
            out.analysis.hop_threshold,
        );
        println!("{}", netaware::analysis::persite::render(&rows));
    }
    let outs = vec![out];
    print_all_tables(&outs);
    let o = &outs[0];
    let f = &o.analysis.friendliness;
    println!(
        "friendliness: subnet {:.1}%  intra-AS {:.1}%  intra-CC {:.1}%  transit {:.1}%  {:.1} hops/byte",
        f.subnet_pct, f.intra_as_pct, f.intra_cc_pct, f.transit_pct, f.mean_hops_per_byte
    );
    println!(
        "ground truth: continuity {:.3}, {} events, {} chunks delivered",
        o.report.continuity(),
        o.report.events_dispatched,
        o.report.chunks_delivered
    );
    if !opts.faults.is_noop() {
        println!(
            "faults: {} packets dropped, {} departures, {} arrivals, {} requests re-queued, worst probe continuity {:.3}",
            o.report.packets_dropped,
            o.report.peers_departed,
            o.report.peers_arrived,
            o.report.requests_requeued,
            o.report.worst_probe().map_or(1.0, |p| p.continuity),
        );
    }
    if let Some(p) = &c.json {
        if let Err(e) = write_json(p, &outs) {
            eprintln!("run: {e}");
            return ExitCode::FAILURE;
        }
    }
    let obs = &opts.obs;
    if let Err(e) = obs.flush() {
        eprintln!("run: flushing event log failed: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &c.obs_log {
        eprintln!("event log written to {path}");
    }
    if let Some(path) = &c.metrics {
        let Some(snap) = obs.metrics() else {
            eprintln!("run: no metrics recorded");
            return ExitCode::FAILURE;
        };
        let body = if path.ends_with(".csv") {
            snap.to_csv()
        } else {
            snap.to_json()
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("run: writing metrics to {path} failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("metrics snapshot written to {path}");
    }
    if let Err(e) = write_profile(obs, c) {
        eprintln!("run: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(tree) = obs.profile_tree() {
        for phase in tree.phases() {
            eprintln!(
                "timing: {:<20} {:>10.3} ms",
                phase.name,
                phase.wall_ns as f64 / 1e6
            );
        }
    }
    ExitCode::SUCCESS
}

/// `obs summarize FILE [--metrics FILE]` — render an event-log summary,
/// optionally folding a metrics snapshot into the same report. Fails
/// (non-zero) on unreadable or malformed inputs, including truncated
/// JSONL lines. `obs profile FILE` renders a `--profile` span tree as
/// the flame-style table; `obs diff A B` compares two of them.
fn cmd_obs(rest: &[String]) -> ExitCode {
    match rest {
        [sub, file, tail @ ..] if sub == "summarize" => {
            let metrics_path = match tail {
                [] => None,
                [flag, path] if flag == "--metrics" => Some(path.clone()),
                _ => {
                    eprintln!("usage: netaware-cli obs summarize FILE [--metrics FILE]");
                    return ExitCode::from(2);
                }
            };
            let f = match std::fs::File::open(file) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("obs summarize: cannot open {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let summary = match LogSummary::from_reader(std::io::BufReader::new(f)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("obs summarize: {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let metrics: Option<MetricsSnapshot> = match &metrics_path {
                None => None,
                Some(path) => {
                    let body = match std::fs::read_to_string(path) {
                        Ok(b) => b,
                        Err(e) => {
                            eprintln!("obs summarize: cannot open {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    match LogSummary::parse_metrics(&body) {
                        Ok(m) => Some(m),
                        Err(e) => {
                            eprintln!("obs summarize: {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            };
            print!("{}", summary.render_with_metrics(metrics.as_ref()));
            ExitCode::SUCCESS
        }
        [sub, file] if sub == "profile" => match read_profile(file) {
            Ok(tree) => {
                print!("{}", tree.render());
                ExitCode::SUCCESS
            }
            Err(e) => exit_on("obs profile", Err(e)),
        },
        [sub, a, b] if sub == "diff" => {
            let (tree_a, tree_b) = match (read_profile(a), read_profile(b)) {
                (Ok(ta), Ok(tb)) => (ta, tb),
                (Err(e), _) | (_, Err(e)) => return exit_on("obs diff", Err(e)),
            };
            let diff = tree_a.diff(&tree_b);
            print!("{}", diff.render());
            match diff.drift() {
                None => ExitCode::SUCCESS,
                Some(d) => exit_on(
                    "obs diff",
                    Err(format!("{d} ({a} and {b} ran different work)")),
                ),
            }
        }
        _ => {
            eprintln!(
                "usage: netaware-cli obs summarize FILE [--metrics FILE]\n       \
                 netaware-cli obs profile FILE\n       \
                 netaware-cli obs diff A.json B.json"
            );
            ExitCode::from(2)
        }
    }
}

/// Reads a `--profile` span tree; the error names the file.
fn read_profile(file: &str) -> Result<ProfileNode, String> {
    let body = std::fs::read_to_string(file).map_err(|e| format!("cannot open {file}: {e}"))?;
    serde_json::from_str(&body).map_err(|e| format!("{file} is not a --profile span tree: {e}"))
}

fn cmd_replicate(c: &Common) -> ExitCode {
    let Some(name) = &c.app else {
        eprintln!("replicate: which app? (see AppProfile::all: pplive|sopcast|tvants|nextgen|pplive-unpop|epidemic-rp|epidemic-ba)");
        return ExitCode::from(2);
    };
    let Some(profile) = profile_by_name(name) else {
        eprintln!("unknown app {name}");
        return ExitCode::from(2);
    };
    let seeds: Vec<u64> = (0..c.runs)
        .map(|i| c.seed.wrapping_add(i.wrapping_mul(37)))
        .collect();
    let (summary, _) = netaware::testbed::run_replicated(&profile, &opts_of(c), &seeds);
    println!("{}", summary.render());
    ExitCode::SUCCESS
}

/// The three paper applications next to the locality-aware `NAPA-NG`
/// profile on the same testbed: how much transit traffic a
/// network-aware client could save, and at what continuity.
fn cmd_nextgen(c: &Common) -> ExitCode {
    let opts = opts_of(c);
    let incumbents: Vec<_> = AppProfile::paper_apps()
        .into_iter()
        .map(|p| run_experiment(p, &opts))
        .collect();
    let ng = run_experiment(AppProfile::nextgen(), &opts);
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>10} {:>11} {:>11}",
        "app", "subnet%", "intraAS%", "intraCC%", "transit%", "hops/byte", "continuity"
    );
    for o in incumbents.iter().chain([&ng]) {
        let f = &o.analysis.friendliness;
        println!(
            "{:<10} {:>9.1} {:>9.1} {:>9.1} {:>10.1} {:>11.1} {:>11.3}",
            o.app,
            f.subnet_pct,
            f.intra_as_pct,
            f.intra_cc_pct,
            f.transit_pct,
            f.mean_hops_per_byte,
            o.report.continuity()
        );
    }
    let incumbent_best = incumbents
        .iter()
        .map(|o| o.analysis.friendliness.transit_pct)
        .fold(f64::MAX, f64::min);
    let ng_transit = ng.analysis.friendliness.transit_pct;
    println!(
        "\nNAPA-NG transit share {ng_transit:.1}% vs best incumbent {incumbent_best:.1}% — {:.1} points of \
         inter-AS traffic removed, at continuity {:.3}.",
        incumbent_best - ng_transit,
        ng.report.continuity()
    );
    ExitCode::SUCCESS
}

/// `matrix --config FILE` — run the scenario matrix and emit the
/// deterministic cross-scenario awareness report.
fn cmd_matrix(c: &Common) -> ExitCode {
    if c.example {
        println!("{}", netaware::testbed::MatrixConfig::example_json());
        return ExitCode::SUCCESS;
    }
    let Some(path) = &c.config else {
        eprintln!("matrix: --config FILE is required (start from `matrix --example`)");
        return ExitCode::from(2);
    };
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("matrix: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = match netaware::testbed::MatrixConfig::from_json(&body) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("matrix: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if c.seed_set {
        cfg.seed = c.seed;
    }
    let out_dir = c.out.as_ref().map(std::path::PathBuf::from);
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("matrix: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let report = match netaware::testbed::run_matrix(&cfg, out_dir.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("matrix: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.to_markdown());
    if let Some(dir) = &out_dir {
        let json = dir.join("report.json");
        let md = dir.join("report.md");
        if std::fs::write(&json, report.to_json()).is_err()
            || std::fs::write(&md, report.to_markdown()).is_err()
        {
            eprintln!("matrix: writing report into {} failed", dir.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "matrix report and per-cell corpora written to {}/",
            dir.display()
        );
    }
    if let Some(p) = &c.json {
        if let Err(e) = std::fs::write(p, report.to_json()) {
            eprintln!("matrix: writing {p} failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("matrix report written to {p}");
    }
    ExitCode::SUCCESS
}

/// Table I, then the AS/prefix plan and a census of the external
/// population (seed 42, a 20 000-peer overlay) at `--scale`.
fn cmd_testbed(c: &Common) -> ExitCode {
    println!("{}", testbed::hosts::render_table1());

    let scale = c.scale;
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed: 42,
            scale,
            ..Default::default()
        },
        20_000,
    );
    let registry = &scenario.registry;
    println!("registered ASes ({}):", registry.ases().len());
    for info in registry.ases() {
        let prefixes: Vec<String> = registry
            .prefixes()
            .iter()
            .filter(|(_, a)| *a == info.id)
            .map(|(p, _)| p.to_string())
            .collect();
        println!(
            "  {:<6} {:<10} {:<3} {:?}  {}",
            info.id.to_string(),
            info.name,
            info.country.label(),
            info.kind,
            prefixes.join(", ")
        );
    }

    let externals = &scenario.externals;
    println!(
        "\nexternal population at scale {scale}: {} peers",
        externals.len()
    );
    let mut by_cc: std::collections::BTreeMap<&str, (usize, usize)> = Default::default();
    for e in externals {
        let cc = registry.country_of(e.ip).unwrap_or(CountryCode::Other);
        let entry = by_cc.entry(cc.label()).or_default();
        entry.0 += 1;
        if e.access.class.is_high_bw() {
            entry.1 += 1;
        }
    }
    println!(
        "  {:<4} {:>8} {:>10} {:>10}",
        "CC", "peers", "high-bw", "share"
    );
    for (cc, (n, high)) in &by_cc {
        println!(
            "  {:<4} {:>8} {:>10} {:>9.1}%",
            cc,
            n,
            high,
            100.0 * *n as f64 / externals.len() as f64
        );
    }

    let probes = scenario.probes.len();
    let highbw = scenario.highbw_probe_ips.len();
    println!(
        "\nprobes: {probes} total, {highbw} high-bandwidth (institution LANs), {} home DSL/CATV",
        probes - highbw
    );
    ExitCode::SUCCESS
}

/// Runs the full chunk-level mesh and compares its emergent
/// acquisition-lag distribution with the lag band the swarm's external
/// model assumes.
fn cmd_mesh(c: &Common) -> ExitCode {
    let peers = c.peers;
    eprintln!(
        "running a full {peers}-peer chunk-level mesh for {}s (every peer simulated)…",
        c.secs
    );
    let r = run_mesh(&MeshConfig::cctv1(peers, c.seed, c.secs * 1_000_000));

    let interval_ms = StreamParams::cctv1().chunk_interval_us() / 1000;
    println!(
        "\n{} chunk acquisitions, continuity {:.4}",
        r.delivered,
        r.continuity()
    );
    println!(
        "acquisition lag: mean {:.1} chunks ({:.1} s), median {} chunks, p95 {} chunks",
        r.mean_lag_chunks,
        r.mean_lag_chunks * interval_ms as f64 / 1000.0,
        r.median_lag_chunks,
        r.p95_lag_chunks
    );
    println!(
        "high-bandwidth peers acquire at {:.2} chunks mean lag, low-bandwidth at {:.2}",
        r.mean_lag_high, r.mean_lag_low
    );

    let total: u64 = r.lag_counts.iter().sum();
    println!("\nlag distribution (chunk intervals):");
    for (i, &n) in r.lag_counts.iter().take(16).enumerate() {
        let pct = 100.0 * n as f64 / total.max(1) as f64;
        let bar = "#".repeat((pct / 2.0).round() as usize);
        println!("  {i:>2} | {pct:>5.1}% {bar}");
    }

    let mass = r.lag_mass_in(1, 10);
    println!(
        "\nassumption check: the swarm's external model draws lags uniformly from\n\
         1–10 chunk intervals (0.5–5 s); the emergent mesh puts {:.0}% of its\n\
         non-seed acquisitions in that band — the substitution is {}.",
        100.0 * mass,
        if mass > 0.6 {
            "supported"
        } else {
            "NOT supported"
        }
    );
    ExitCode::SUCCESS
}

fn cmd_export(c: &Common) -> ExitCode {
    let Some(dir) = &c.dir else {
        eprintln!("export: --dir is required");
        return ExitCode::from(2);
    };
    let profile = match c.app.as_deref() {
        None => AppProfile::sopcast(),
        Some(name) => match profile_by_name(name) {
            Some(p) => p,
            None => {
                eprintln!("unknown app {name}");
                return ExitCode::from(2);
            }
        },
    };
    let mut opts = opts_of(c);
    opts.keep_traces = true;
    let out = run_experiment(profile, &opts);
    let Some(traces) = out.traces else {
        eprintln!("export: the run kept no traces to write");
        return ExitCode::FAILURE;
    };
    exit_on("export", export_corpus(&traces, dir))
}

/// Writes `traces` to `dir` as a corpus (manifest.json + per-probe
/// .nawt files), plus a classic pcap next to each capture for standard
/// tooling.
fn export_corpus(traces: &TraceSet, dir: &str) -> Result<(), String> {
    let manifest = traces
        .write_dir(std::path::Path::new(dir))
        .map_err(|e| format!("writing corpus to {dir} failed: {e}"))?;
    for t in &traces.traces {
        let path = format!("{dir}/{}.pcap", t.probe);
        write_pcap(t, &path).map_err(|e| format!("writing {path} failed: {e}"))?;
    }
    eprintln!(
        "{} probe traces ({} packets) exported to {dir}/ (manifest.json + .nawt + .pcap)",
        manifest.probes.len(),
        manifest.total_packets
    );
    Ok(())
}

fn write_pcap(trace: &ProbeTrace, path: &str) -> Result<(), TraceError> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    export_pcap(trace, &mut out)?;
    out.flush()?;
    Ok(())
}

fn cmd_analyze(c: &Common) -> ExitCode {
    if c.dir.is_none() && c.pcaps.is_empty() {
        eprintln!(
            "analyze: `--dir CORPUS` or at least one `--probe IP FILE.pcap` pair is required"
        );
        return ExitCode::from(2);
    }
    let obs = if c.profile_out.is_some() {
        Obs::profiled()
    } else {
        Obs::default()
    };
    // Resolve against the reconstructed testbed registry.
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed: 42,
            scale: 0.01,
            ..Default::default()
        },
        100,
    );
    let cfg = AnalysisConfig::default();
    let a = if let Some(dir) = &c.dir {
        // A saved corpus directory (from `export` or `run --spill`)
        // analyses in one step, streaming each probe's records straight
        // off disk.
        match netaware::analysis::analyze_corpus_with_obs(
            std::path::Path::new(dir),
            &scenario.registry,
            &cfg,
            &scenario.highbw_probe_ips,
            &obs,
        ) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("analyze: reading corpus {dir} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let set = match read_pcaps(&c.pcaps) {
            Ok(set) => set,
            Err(e) => {
                eprintln!("analyze: {e}");
                return ExitCode::FAILURE;
            }
        };
        netaware::analysis::analyze_with_obs(
            &set,
            &scenario.registry,
            &cfg,
            &scenario.highbw_probe_ips,
            &obs,
        )
    };
    println!(
        "{}",
        tables::render_table4(&[(a.app.clone(), a.preferences.clone())])
    );
    println!(
        "{} packets, {} peers observed, hop threshold {}",
        a.total_packets, a.geo.total_peers, a.hop_threshold
    );
    if let Some(p) = &c.json {
        if let Err(e) = write_file(p, a.to_json()) {
            eprintln!("analyze: {e}");
            return ExitCode::FAILURE;
        }
    }
    exit_on("analyze", write_profile(&obs, c))
}

/// Imports each `--probe IP FILE.pcap` capture into one trace set.
fn read_pcaps(pcaps: &[(Ip, String)]) -> Result<TraceSet, String> {
    let mut set = TraceSet::new("pcap-import", 0);
    let mut max_ts = 0u64;
    for (probe, path) in pcaps {
        let (trace, skipped) = std::fs::File::open(path)
            .map_err(TraceError::from)
            .and_then(|f| import_pcap(*probe, &mut std::io::BufReader::new(f)))
            .map_err(|e| format!("reading {path} failed: {e}"))?;
        if skipped > 0 {
            eprintln!("{path}: skipped {skipped} non-UDP/IPv4 frames");
        }
        max_ts = max_ts.max(
            trace
                .records_unsorted()
                .iter()
                .map(|r| r.ts_us)
                .max()
                .unwrap_or(0),
        );
        set.add(trace);
    }
    set.duration_us = max_ts + 1;
    set.finalize();
    Ok(set)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    // `obs` has positional subcommand syntax; route it before the flag parser.
    if cmd == "obs" {
        return cmd_obs(rest);
    }
    let Some(flags) = flags_read_by(cmd) else {
        return usage();
    };
    let common = match parse_common(rest) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(flag) = common.flags.iter().find(|f| !flags.contains(&f.as_str())) {
        eprintln!("{cmd} does not take {flag}");
        return ExitCode::from(2);
    }
    match cmd.as_str() {
        "suite" => cmd_suite(&common),
        "run" => cmd_run(&common),
        "replicate" => cmd_replicate(&common),
        "nextgen" => cmd_nextgen(&common),
        "matrix" => cmd_matrix(&common),
        "testbed" => cmd_testbed(&common),
        "mesh" => cmd_mesh(&common),
        "export" => cmd_export(&common),
        "analyze" => cmd_analyze(&common),
        _ => usage(),
    }
}
