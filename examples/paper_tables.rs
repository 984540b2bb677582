//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release --example paper_tables [-- --scale 0.1 --secs 600 --seed 42 --json out.json --spill DIR --timings]
//! ```
//!
//! Runs the three applications (PPLive-, SopCast-, TVAnts-like) on the
//! reconstructed NAPA-WINE testbed, applies the passive analysis, and
//! prints Tables I–IV and Figures 1–2 in the paper's layout. `--scale 1.0
//! --secs 3600` reproduces the original experiment size (minutes of CPU,
//! GBs of in-memory traces); the defaults are laptop-friendly. With
//! `--spill DIR`, each application's capture is streamed to an on-disk
//! corpus under `DIR/<app>/` and analysed back off disk, bounding peak
//! memory at paper scale. `--timings` arms the span profiler and prints
//! per-phase wall-clock times (testbed build, swarm, analysis sweep,
//! reduction) after the tables.

use netaware::analysis::tables;
use netaware::testbed::{self, ExperimentOptions};
use netaware::Obs;

struct Args {
    scale: f64,
    secs: u64,
    seed: u64,
    json: Option<String>,
    spill: Option<String>,
    timings: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.1,
        secs: 420,
        seed: 42,
        json: None,
        spill: None,
        timings: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--scale" => args.scale = val("--scale").parse().expect("scale"),
            "--secs" => args.secs = val("--secs").parse().expect("secs"),
            "--seed" => args.seed = val("--seed").parse().expect("seed"),
            "--json" => args.json = Some(val("--json")),
            "--spill" => args.spill = Some(val("--spill")),
            "--timings" => args.timings = true,
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let obs = if args.timings {
        Obs::profiled()
    } else {
        Obs::default()
    };
    let opts = ExperimentOptions {
        seed: args.seed,
        scale: args.scale,
        duration_us: args.secs * 1_000_000,
        obs: obs.clone(),
        ..Default::default()
    };

    println!("{}", testbed::hosts::render_table1());

    eprintln!(
        "running 3 experiments (scale {}, {} s, seed {}) …",
        args.scale, args.secs, args.seed
    );
    let t0 = std::time::Instant::now();
    let outs = match &args.spill {
        // Spilled variant: each app's capture goes to its own corpus
        // directory and the analysis streams it back off disk.
        Some(dir) => {
            use rayon::prelude::*;
            netaware::AppProfile::paper_apps()
                .into_par_iter()
                .map(|p| {
                    let sub = std::path::Path::new(dir).join(&p.name);
                    testbed::run_streamed(p, &opts, &sub).expect("streamed run")
                })
                .collect()
        }
        None => testbed::run_paper_suite(&opts),
    };
    eprintln!("done in {:.1?}\n", t0.elapsed());
    if let Some(dir) = &args.spill {
        eprintln!("trace corpora left under {dir}/<app>/\n");
    }

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
            o.app, f.subnet_pct, f.intra_as_pct, f.intra_cc_pct, f.transit_pct, f.mean_hops_per_byte
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

    if let Some(tree) = obs.profile_tree() {
        println!("PHASE TIMINGS (wall clock summed over the three apps, which run concurrently)");
        for phase in tree.phases() {
            println!("  {:<20} {:>10.3} ms", phase.name, phase.wall_ns as f64 / 1e6);
        }
        println!();
    }

    if let Some(path) = args.json {
        let all: Vec<_> = outs.iter().map(|o| &o.analysis).collect();
        let js = serde_json::to_string_pretty(&all).expect("serialise");
        std::fs::write(&path, js).expect("write json");
        eprintln!("analysis written to {path}");
    }
}
