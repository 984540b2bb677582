//! Observability-overhead benches.
//!
//! ```text
//! cargo bench --bench obs_overhead
//! ```
//!
//! The `obs_overhead` group runs the same single-pass analysis four
//! ways: with the default disabled handle (instrumentation compiles to
//! an `is_enabled()` check on a `None` handle and nothing else), with a
//! counting null sink (fields are evaluated, the event is dropped at
//! the sink), with a live ring sink (events are built and
//! retained), and with the span profiler armed. The deltas bound what
//! instrumentation costs the hot analysis path. The `obs_profile` and
//! `obs_event` groups time the profiler and event-macro primitives on
//! their own. Set `NETAWARE_BENCH_JSON_DIR` to also write one
//! `BENCH_<name>.json` per bench.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netaware::analysis::{analyze_with_obs, AnalysisConfig};
use netaware::net::{GeoRegistry, Ip};
use netaware::obs::{Level, NullSink, RingSink};
use netaware::sim::SimTime;
use netaware::testbed::{run_on_scenario, BuiltScenario, ExperimentOptions, ScenarioConfig};
use netaware::trace::TraceSet;
use netaware::{AppProfile, Obs};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;

/// A captured SopCast run (seed 1234, 4 % scale, 90 s) and what its
/// analysis needs besides the traces.
struct Fixture {
    traces: TraceSet,
    registry: GeoRegistry,
    highbw: BTreeSet<Ip>,
}

fn sopcast_fixture() -> Fixture {
    let profile = AppProfile::sopcast();
    let cfg = ScenarioConfig {
        seed: 1234,
        scale: 0.04,
        ..Default::default()
    };
    let scenario = BuiltScenario::build(&cfg, profile.overlay_size);
    let opts = ExperimentOptions {
        seed: cfg.seed,
        scale: cfg.scale,
        duration_us: 90_000_000,
        keep_traces: true,
        ..Default::default()
    };
    let out = run_on_scenario(profile, &scenario, &opts);
    Fixture {
        traces: out.traces.expect("keep_traces is set"),
        registry: scenario.registry,
        highbw: scenario.highbw_probe_ips,
    }
}

fn analysis_overhead(c: &mut Criterion) {
    let f = sopcast_fixture();
    let cfg = AnalysisConfig::default();
    let mut g = c.benchmark_group("obs_overhead");
    g.throughput(Throughput::Elements(f.traces.total_packets() as u64));
    let handles = [
        ("disabled", Obs::default()),
        ("null_sink", Obs::new(Arc::new(NullSink::new()))),
        ("ring_sink", Obs::new(Arc::new(RingSink::new(8192)))),
        ("profiled", Obs::profiled()),
    ];
    for (name, obs) in handles {
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(analyze_with_obs(
                    &f.traces,
                    &f.registry,
                    &cfg,
                    &f.highbw,
                    &obs,
                ))
            })
        });
    }
    g.finish();
}

/// Micro-benches of the profiler primitives: a disabled handle's span
/// guard is the cost every un-profiled run pays at each instrumented
/// site; the enabled span/cell paths are the profiling overhead proper.
fn profiler_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_profile");
    for (state, obs) in [("disabled", Obs::default()), ("enabled", Obs::profiled())] {
        let mut n = 0u64;
        g.bench_function(&format!("pspan_{state}"), |b| {
            b.iter(|| {
                n += 1;
                let span = obs.pspan("bench.span");
                span.add_events(1);
                black_box(n)
            })
        });
        let span = obs.pspan("bench.span");
        let cell = span.cell("bench.cell");
        g.bench_function(&format!("cell_{state}"), |b| {
            b.iter(|| {
                n += 1;
                cell.time(|| black_box(n))
            })
        });
    }
    g.finish();
}

/// Micro-benches of the event macro itself: the disabled case is the
/// cost every call site pays when nobody is watching, the recorded case
/// is the full build-and-store path.
fn event_macro(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_event");
    let handles = [
        ("disabled", Obs::disabled()),
        ("ring_recorded", Obs::new(Arc::new(RingSink::new(64)))),
    ];
    for (name, obs) in handles {
        let mut n = 0u64;
        g.bench_function(name, |b| {
            b.iter(|| {
                n += 1;
                netaware::obs::event!(
                    obs,
                    Level::Debug,
                    "bench.tick",
                    SimTime::from_us(n),
                    "n" = n,
                );
                black_box(n)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = analysis_overhead, event_macro, profiler_primitives
}
criterion_main!(benches);
