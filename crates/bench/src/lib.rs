//! Shared fixtures for the benchmark harness.
//!
//! Criterion measures the *regeneration* of each table/figure from
//! captured traces; the (deterministic) trace capture itself is produced
//! once per process by [`fixture`] and shared across benches, so bench
//! times reflect analysis cost, not simulation cost. End-to-end
//! simulation throughput has its own benches in `sim_perf.rs`.

#![warn(missing_docs)]

use netaware_analysis::flows::{aggregate, ProbeFlows};
use netaware_analysis::AnalysisConfig;
use netaware_net::Ip;
use netaware_proto::AppProfile;
use netaware_testbed::ExperimentOptions;
use netaware_trace::TraceSet;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// A captured experiment ready for analysis benches.
pub struct Fixture {
    /// The application that ran.
    pub app: String,
    /// Captured traces.
    pub traces: TraceSet,
    /// Pre-aggregated flows (for benches that start downstream).
    pub flows: Vec<ProbeFlows>,
    /// The geolocation registry.
    pub registry: netaware_net::GeoRegistry,
    /// High-bandwidth probes (Fig. 2 restriction).
    pub highbw: BTreeSet<Ip>,
    /// Probe set `W`.
    pub probe_set: BTreeSet<Ip>,
}

/// Bench-scale experiment options: ~90 s at 4 % scale.
pub fn bench_options() -> ExperimentOptions {
    ExperimentOptions {
        seed: 1234,
        scale: 0.04,
        duration_us: 90_000_000,
        analysis: AnalysisConfig::default(),
        keep_traces: true,
        obs: netaware_obs::Obs::default(),
        ..Default::default()
    }
}

fn build_fixture(profile: AppProfile) -> Fixture {
    let scenario = netaware_testbed::BuiltScenario::build(
        &netaware_testbed::ScenarioConfig {
            seed: 1234,
            scale: 0.04,
            ..Default::default()
        },
        profile.overlay_size,
    );
    let out = netaware_testbed::run_on_scenario(profile, &scenario, &bench_options());
    #[expect(clippy::expect_used, reason = "bench_options sets keep_traces")]
    let traces = out.traces.expect("fixtures keep traces");
    let flows = aggregate(&traces, &AnalysisConfig::default());
    Fixture {
        app: out.app,
        probe_set: traces.probe_set(),
        flows,
        traces,
        registry: scenario.registry,
        highbw: scenario.highbw_probe_ips,
    }
}

/// The SopCast-like fixture (mid-sized overlay; the default corpus for
/// analysis benches).
pub fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| build_fixture(AppProfile::sopcast()))
}

/// The TVAnts-like fixture (strong locality; used by the AS-matrix and
/// locality benches).
pub fn tvants_fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| build_fixture(AppProfile::tvants()))
}

/// Tiny experiment options for end-to-end benches.
pub fn tiny_options() -> ExperimentOptions {
    ExperimentOptions {
        seed: 99,
        scale: 0.02,
        duration_us: 30_000_000,
        analysis: AnalysisConfig::default(),
        keep_traces: false,
        obs: netaware_obs::Obs::default(),
        ..Default::default()
    }
}
