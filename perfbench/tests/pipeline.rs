//! The benchmark's own checks, on small swarms: the timing sink changes
//! nothing, the layer times account for the iteration, a damaged corpus
//! counts as a failed iteration, and any seed can be passed.

use netaware_analysis::{analyze, analyze_corpus, AnalysisConfig};
use netaware_perfbench::spans::TimingSink;
use netaware_perfbench::{
    env, fingerprint, layer_metrics, run, swarm_inputs, timed_loop, Bench, BenchError, RunConfig,
    Size, Tally, Workload, END_TO_END, MIN_ITERS, PER_LAYER,
};
use netaware_proto::Swarm;
use netaware_trace::{CorpusSink, CorpusStream, MemorySink, TraceError};
use std::path::PathBuf;

#[global_allocator]
static ALLOC: netaware_obs::alloc::CountingAlloc = netaware_obs::alloc::CountingAlloc;

const SMALL: Size = Size {
    scale: 0.01,
    duration_us: 15_000_000,
};

fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_run(workload: Workload, seed: u64, trace: bool, name: &str) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: SMALL,
        work_dir: work_dir(name),
    }
}

#[test]
fn timing_sink_leaves_the_fingerprint_unchanged() {
    let cfg = AnalysisConfig::default();
    let (scenario, swarm_cfg) = swarm_inputs(5, SMALL);
    let (reg, highbw) = (&scenario.registry, &scenario.highbw_probe_ips);
    let swarm = || Swarm::new(swarm_cfg.clone(), env(&scenario), scenario.peer_setup());

    let (plain, plain_report) = swarm().run_into(MemorySink::new()).unwrap();
    let (timed, timed_report) = swarm()
        .run_into(TimingSink::new(MemorySink::new()))
        .unwrap();
    let plain_fp = fingerprint(&analyze(&plain, reg, &cfg, highbw), &plain_report);
    let timed_fp = fingerprint(&analyze(&timed.output, reg, &cfg, highbw), &timed_report);
    assert_eq!(plain_fp, timed_fp);
    assert_eq!(timed.stamps.records, plain.total_packets() as u64);
    assert!(timed.stamps.first_probe_ns <= timed.stamps.finish_ns);

    let (a, b) = (work_dir("sink-plain"), work_dir("sink-timed"));
    let (manifest, report_a) = swarm().run_into(CorpusSink::create(&a).unwrap()).unwrap();
    let (spilled, report_b) = swarm()
        .run_into(TimingSink::new(CorpusSink::create(&b).unwrap()))
        .unwrap();
    let fp_a = fingerprint(&analyze_corpus(&a, reg, &cfg, highbw).unwrap(), &report_a);
    let fp_b = fingerprint(&analyze_corpus(&b, reg, &cfg, highbw).unwrap(), &report_b);
    assert_eq!(fp_a, fp_b);
    assert_eq!(
        fp_a, plain_fp,
        "spilled and in-memory captures analyse alike"
    );
    assert_eq!(spilled.output.total_packets, manifest.total_packets);
    assert_eq!(spilled.stamps.records, manifest.total_packets as u64);
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

#[test]
fn layer_times_account_for_the_iteration_and_counts_are_taken_once() {
    for workload in Workload::ALL {
        let dir = work_dir(&format!("accounting-{}", workload.name()));
        let mut bench = Bench::setup(workload, 3, SMALL, &dir).unwrap();
        let o = bench.iterate(true).unwrap();
        let m = layer_metrics(&o);
        let wall_s = o.spans.wall_ns() as f64 / 1e9;
        let layers_s: f64 = [
            "testbed.build_s",
            "proto.swarm_new_s",
            "proto.execute_s",
            "trace.collect_s",
            "analysis.analyze_s",
        ]
        .iter()
        .map(|k| m[k])
        .sum();
        let unattributed = m["bench.unattributed_share"];
        assert!(
            (0.0..1.0).contains(&unattributed),
            "{workload:?}: {unattributed}"
        );
        assert!(
            (layers_s + unattributed * wall_s - wall_s).abs() < 1e-9,
            "{workload:?}: layers {layers_s} + unattributed {unattributed} != wall {wall_s}"
        );

        let tree = o.profile.as_ref().unwrap();
        let sweep = tree.find("analysis.sweep").unwrap();
        assert_eq!(
            sweep.records, o.records,
            "{workload:?}: sweep counts each record once"
        );
        assert_eq!(m["trace.records"], o.records as f64);
        match &o.report {
            Some(report) => {
                assert_eq!(m["proto.events"], report.events_dispatched as f64);
                let run = tree.find("swarm.run").unwrap();
                assert_eq!(run.events, report.events_dispatched, "events counted once");
                assert!(m["proto.execute_s"] > 0.0 && m["trace.collect_s"] > 0.0);
            }
            None => {
                assert_eq!(m["proto.events"], 0.0);
                assert_eq!(m["proto.execute_s"], 0.0);
            }
        }
        if bench.has_corpus() {
            let manifest = CorpusStream::open(bench.dir()).unwrap().total_packets();
            assert_eq!(
                manifest as u64, o.records,
                "manifest == analysis.total_packets"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn truncated_probe_file_fails_the_iteration_not_the_run() {
    let dir = work_dir("truncated");
    let mut bench = Bench::setup(Workload::CorpusReanalyze, 9, SMALL, &dir).unwrap();
    let n = MIN_ITERS as u64;
    let mut tally = Tally::default();
    timed_loop(&mut bench, false, 0.0, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (n, 0));

    let corpus = CorpusStream::open(&dir).unwrap();
    let probe = corpus
        .probes()
        .iter()
        .copied()
        .find(|&p| corpus.open_probe(p).unwrap().expected() > 10)
        .unwrap();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(format!("{probe}.nawt")))
        .unwrap();
    let len = file.metadata().unwrap().len();
    file.set_len(len / 2).unwrap();

    match bench.iterate(false) {
        Err(BenchError::Trace(TraceError::Truncated { .. })) => {}
        other => panic!(
            "expected a typed truncation error, got {:?}",
            other.map(|o| o.records)
        ),
    }
    timed_loop(&mut bench, false, 0.0, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (2 * n, n));
    assert_eq!(tally.ok.len() as u64, n);
    assert!((tally.failed_ratio() - 0.5).abs() < 1e-12);
    assert!(
        tally.errors.iter().all(|e| e.contains("truncated")),
        "{:?}",
        tally.errors
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn any_seed_runs_with_the_same_metric_names() {
    let names = |r: &netaware_perfbench::RunResult| -> Vec<&str> {
        r.metrics.iter().map(|(n, _, _)| *n).collect()
    };
    let a = run(&small_run(Workload::PpliveSteady, 1, false, "seed-a")).unwrap();
    let again = run(&small_run(Workload::PpliveSteady, 1, false, "seed-a2")).unwrap();
    let held_out = run(&small_run(
        Workload::PpliveSteady,
        987_654_321,
        false,
        "seed-b",
    ))
    .unwrap();
    assert_eq!(a.fingerprint, again.fingerprint, "same seed, same outputs");
    assert_ne!(
        a.fingerprint, held_out.fingerprint,
        "another seed, another input"
    );
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names(&a), e2e);
    assert_eq!(names(&held_out), e2e);
    for r in [&a, &again, &held_out] {
        assert_eq!((r.failed, r.failed_ratio), (0, 0.0));
        assert!(r.metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0));
    }

    let per_layer: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    let mut counts = Vec::new();
    for (seed, name) in [(1, "trace-a"), (1, "trace-a2"), (55, "trace-b")] {
        let r = run(&small_run(Workload::PpliveChurnSpill, seed, true, name)).unwrap();
        assert_eq!(names(&r), per_layer);
        let get = |k: &str| r.metrics.iter().find(|(n, _, _)| *n == k).unwrap().1;
        counts.push((r.fingerprint, get("proto.events"), get("trace.records")));
    }
    assert_eq!(
        counts[0], counts[1],
        "counts repeat exactly on the same seed"
    );
    assert_ne!(counts[0].0, counts[2].0);
}

#[test]
fn benchmark_json_lists_every_metric_the_runs_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\"", w.name())));
    }
    let entries = json.matches("{\"name\": ").count();
    assert_eq!(
        entries,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
