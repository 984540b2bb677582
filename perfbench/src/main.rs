//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the pipeline benchmark from the repository root
//! and prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it
//! repeat every metric with its unit, the sample count, the failed
//! ratio and the output fingerprint. Traced runs also write their spans
//! to `.perfbench/spans-<workload>-seed<seed>.jsonl`.

use netaware_perfbench::{run, RunConfig, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: netaware_obs::alloc::CountingAlloc = netaware_obs::alloc::CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload pplive_steady|pplive_churn_spill|corpus_reanalyze \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds {value} outside 0..=3600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// A number as JSON: full precision, and 0 for what JSON cannot hold.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    let work_dir = out_dir.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let cfg = RunConfig {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: args.workload.size(),
        work_dir: work_dir.clone(),
    };
    let result = run(&cfg);
    let _ = std::fs::remove_dir_all(&work_dir);
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: {e}",
                args.workload.name(),
                args.seed
            );
            return ExitCode::FAILURE;
        }
    };
    for e in &r.errors {
        eprintln!("perfbench: failed iteration: {e}");
    }
    if args.trace {
        let path = out_dir.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(&path, r.spans.to_jsonl()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    println!(
        "workload={} seed={} trace={} samples={} attempted={} failed={} failed_ratio={} fingerprint={:016x} iteration_wall_s(min,q1,median,q3,max)={:.4?} setup_reps_s={:.4?}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        r.samples,
        r.attempted,
        r.failed,
        r.failed_ratio,
        r.fingerprint,
        r.wall_quartiles,
        r.setup_s,
    );
    for (name, value, unit) in &r.metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    let mut metrics = String::new();
    for (i, (name, value, unit)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
    );
    ExitCode::SUCCESS
}
