//! Two identical runs must capture byte-identical traces.
//!
//! This is the end-to-end enforcement of the determinism contract: any
//! wall-clock read, hash-ordered iteration, or unordered parallel
//! reduction anywhere in the scenario → simulation → capture path will
//! eventually show up here as a byte diff between two same-seed runs.

use netaware::obs::{EventSink, Level, RingSink, WallClock};
use netaware::testbed::{run_experiment, ExperimentOptions};
use netaware::trace::write_trace;
use netaware::{AppProfile, FaultPlan, Obs};
use std::sync::Arc;

fn options() -> ExperimentOptions {
    ExperimentOptions {
        seed: 777,
        scale: 0.03,
        duration_us: 30_000_000,
        keep_traces: true,
        obs: netaware::Obs::default(),
        faults: FaultPlan::none(),
    }
}

/// A mixed fault plan: link loss + jitter + churn, all enabled.
fn fault_plan() -> FaultPlan {
    FaultPlan::none().with_flags(Some(0.05), Some(2_000), true)
}

/// Serialises every probe trace of one full experiment run.
fn run_bytes_with(opts: &ExperimentOptions) -> Vec<u8> {
    let out = run_experiment(AppProfile::pplive(), opts);
    let traces = out.traces.expect("keep_traces is set");
    let mut bytes = Vec::new();
    for t in &traces.traces {
        write_trace(t, &mut bytes).expect("in-memory write");
    }
    bytes
}

fn run_bytes() -> Vec<u8> {
    run_bytes_with(&options())
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let a = run_bytes();
    let b = run_bytes();
    assert!(!a.is_empty(), "experiment captured no traces");
    assert_eq!(a.len(), b.len(), "trace byte lengths diverged");
    assert!(a == b, "same-seed runs produced different trace bytes");
}

/// Runs one full observed experiment and returns the serialized obs
/// artifacts: the JSONL event log and the metrics snapshot JSON.
fn observed_run(seed: u64) -> (String, String) {
    observed_run_with(seed, FaultPlan::none(), Obs::new)
}

/// [`observed_run`] under a fault plan, on the handle `obs_over` builds
/// around the event sink.
fn observed_run_with(
    seed: u64,
    faults: FaultPlan,
    obs_over: fn(Arc<dyn EventSink>) -> Obs,
) -> (String, String) {
    let sink = Arc::new(RingSink::new(1 << 20));
    let obs = obs_over(sink.clone());
    let opts = ExperimentOptions {
        seed,
        obs: obs.clone(),
        faults,
        ..options()
    };
    run_experiment(AppProfile::pplive(), &opts);
    let log: String = sink
        .snapshot()
        .iter()
        .map(|e| {
            let mut line = e.to_jsonl();
            line.push('\n');
            line
        })
        .collect();
    let metrics = obs.metrics().expect("obs enabled").to_json();
    (log, metrics)
}

#[test]
fn same_seed_obs_artifacts_are_byte_identical() {
    let (log_a, metrics_a) = observed_run(777);
    let (log_b, metrics_b) = observed_run(777);
    assert!(
        log_a.lines().count() > 100,
        "event log suspiciously small: {} lines",
        log_a.lines().count()
    );
    // Every instrumented layer must appear in the log.
    for target in ["swarm.", "stream.", "pass.", "testbed."] {
        assert!(
            log_a.contains(&format!("\"target\":\"{target}")),
            "no {target}* events in the log"
        );
    }
    assert_eq!(log_a, log_b, "same-seed event logs diverged");
    assert_eq!(metrics_a, metrics_b, "same-seed metrics snapshots diverged");
    // The profiler reads the wall clock, but only into its own span
    // tree: arming it must leave the deterministic artifacts untouched.
    let profiled = |sink| Obs::with_profiler(sink, Arc::new(WallClock::new()));
    let (log_p, metrics_p) = observed_run_with(777, FaultPlan::none(), profiled);
    assert_eq!(log_a, log_p, "arming the profiler changed the event log");
    assert_eq!(
        metrics_a, metrics_p,
        "arming the profiler changed the metrics"
    );
}

#[test]
fn different_seed_obs_logs_diverge() {
    let (log_a, _) = observed_run(777);
    let (log_b, _) = observed_run(778);
    assert_ne!(log_a, log_b, "changing the seed changed no events");
}

#[test]
fn disabled_obs_skips_field_evaluation() {
    // The event macro must not evaluate field expressions when the
    // event is filtered out: a disabled handle sees no side effects.
    let obs = Obs::default();
    let mut evaluated = false;
    netaware::obs::event!(
        obs,
        Level::Info,
        "test.side_effect",
        netaware::sim::SimTime::ZERO,
        "x" = {
            evaluated = true;
            1u64
        },
    );
    assert!(!evaluated, "disabled obs evaluated event fields");
}

#[test]
fn different_seeds_actually_diverge() {
    // Guards against the vacuous version of the test above (e.g. the
    // seed being ignored entirely).
    let a = run_bytes();
    let out = run_experiment(
        AppProfile::pplive(),
        &ExperimentOptions {
            seed: 778,
            ..options()
        },
    );
    let traces = out.traces.expect("keep_traces is set");
    let mut b = Vec::new();
    for t in &traces.traces {
        write_trace(t, &mut b).expect("in-memory write");
    }
    assert!(a != b, "changing the seed changed nothing");
}

#[test]
fn same_seed_fault_runs_are_byte_identical() {
    // The whole determinism contract must survive with every fault
    // class armed: loss coins, jitter draws, outage renewals, churn
    // arrivals/departures and the recovery machinery all ride seeded
    // streams, so two same-seed fault runs are still byte-identical.
    let opts = ExperimentOptions {
        faults: fault_plan(),
        ..options()
    };
    let a = run_bytes_with(&opts);
    let b = run_bytes_with(&opts);
    assert!(!a.is_empty(), "fault run captured no traces");
    assert!(
        a == b,
        "same-seed fault runs produced different trace bytes"
    );
    // And faults must actually perturb the run vs the clean baseline.
    assert!(a != run_bytes(), "armed fault plan changed nothing");
}

#[test]
fn same_seed_fault_obs_artifacts_are_byte_identical() {
    let (log_a, metrics_a) = observed_run_with(777, fault_plan(), Obs::new);
    let (log_b, metrics_b) = observed_run_with(777, fault_plan(), Obs::new);
    assert_eq!(log_a, log_b, "same-seed fault event logs diverged");
    assert_eq!(metrics_a, metrics_b, "same-seed fault metrics diverged");
    // Churn and continuity must be visible in the artifacts.
    assert!(
        log_a.contains("\"target\":\"swarm.churn.peer_departed\""),
        "no churn events in the log"
    );
    assert!(
        log_a.contains("\"target\":\"swarm.continuity\""),
        "no continuity events in the log"
    );
    assert!(
        metrics_a.contains("proto.peers_departed"),
        "no churn metric"
    );
}

#[test]
fn noop_fault_plan_matches_fault_free_baseline() {
    // `FaultPlan::none()` consumes zero RNG draws and installs nothing:
    // options() already attaches it, so comparing against an explicitly
    // constructed plan-free ExperimentOptions would be vacuous — instead
    // check the no-op plan against a *disabled but present* link config.
    let noop_via_flags = ExperimentOptions {
        faults: FaultPlan::none().with_flags(None, None, false),
        ..options()
    };
    assert!(noop_via_flags.faults.is_noop());
    assert!(
        run_bytes() == run_bytes_with(&noop_via_flags),
        "no-op fault plan perturbed the run"
    );
}
