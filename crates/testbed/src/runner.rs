//! Experiment orchestration: scenario → swarm → traces → analysis.
//!
//! [`run_experiment`] executes one application profile end-to-end;
//! [`run_paper_suite`] runs all three paper applications concurrently
//! (rayon) and returns their analyses in the paper's presentation order.
//! Independent experiments are the parallelism boundary: each swarm is
//! single-threaded and deterministic, so the suite is reproducible
//! regardless of thread scheduling.

use crate::scenario::{BuiltScenario, ScenarioConfig};
use netaware_analysis::{
    analyze_corpus_with_obs, analyze_with_obs, AnalysisConfig, ExperimentAnalysis,
};
use netaware_faults::FaultPlan;
use netaware_obs::{Level, Obs};
use netaware_proto::{AppProfile, NetworkEnv, StreamParams, Swarm, SwarmConfig, SwarmReport};
use netaware_sim::SimTime;
use netaware_trace::{CorpusSink, MemorySink, RecordSink, TraceError, TraceSet};
use rayon::prelude::*;
use std::path::Path;

/// Options for one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentOptions {
    /// Master seed.
    pub seed: u64,
    /// Population scale (1.0 = paper-size overlays).
    pub scale: f64,
    /// Experiment duration, µs (the paper ran 1 hour).
    pub duration_us: u64,
    /// Keep the raw traces in the output (they can be large).
    pub keep_traces: bool,
    /// Observability handle threaded through the swarm, the trace
    /// sinks, and the analysis. Defaults to disabled (all
    /// instrumentation is a no-op). Note: [`run_paper_suite`] and
    /// [`run_ablation`] run experiments concurrently, so a shared
    /// enabled handle interleaves their events nondeterministically —
    /// the per-run event-log determinism guarantee applies to a single
    /// experiment per handle.
    pub obs: Obs,
    /// Fault-injection plan (link loss/jitter/outages, peer churn).
    /// Defaults to the no-op plan, which installs nothing and leaves
    /// runs byte-identical to fault-unaware ones.
    pub faults: FaultPlan,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            seed: 42,
            scale: 0.05,
            duration_us: 120_000_000,
            keep_traces: false,
            obs: Obs::default(),
            faults: FaultPlan::none(),
        }
    }
}

/// Everything one experiment produced.
pub struct ExperimentOutput {
    /// Application name.
    pub app: String,
    /// The passive analysis (all tables/figures for this app).
    pub analysis: ExperimentAnalysis,
    /// Simulator ground truth (validation only).
    pub report: SwarmReport,
    /// Raw traces, when requested.
    pub traces: Option<TraceSet>,
}

/// Builds the testbed scenario `profile` runs on, inside the
/// `testbed.build` span.
fn build_scenario(profile: &AppProfile, opts: &ExperimentOptions) -> BuiltScenario {
    let _build = opts.obs.pspan("testbed.build");
    BuiltScenario::build(
        &ScenarioConfig {
            seed: opts.seed,
            scale: opts.scale,
            ..Default::default()
        },
        profile.overlay_size,
    )
}

/// Runs one application end-to-end.
pub fn run_experiment(profile: AppProfile, opts: &ExperimentOptions) -> ExperimentOutput {
    let scenario = build_scenario(&profile, opts);
    run_on_scenario(profile, &scenario, opts)
}

/// Runs one application on an already-built scenario.
pub fn run_on_scenario(
    profile: AppProfile,
    scenario: &BuiltScenario,
    opts: &ExperimentOptions,
) -> ExperimentOutput {
    let out = run_captured(
        profile,
        scenario,
        opts,
        false,
        || Ok(MemorySink::with_obs(opts.obs.clone())),
        |traces| {
            let analysis = analyze_with_obs(
                &traces,
                &scenario.registry,
                &AnalysisConfig::default(),
                &scenario.highbw_probe_ips,
                &opts.obs,
            );
            Ok((analysis, opts.keep_traces.then_some(traces)))
        },
    );
    match out {
        Ok(out) => out,
        // MemorySink fails only on an out-of-order segment, which the
        // swarm never hands it, and the in-memory analysis is infallible.
        Err(_) => unreachable!("in-memory run cannot fail"),
    }
}

/// Runs one application end-to-end with the capture spilled to an
/// on-disk corpus at `dir` and the analysis streamed back off disk. The
/// swarm hands the corpus each probe's records once per second of
/// simulated time (see [`Swarm::run_into`]), so the run's peak memory
/// is the swarm's own state plus about two seconds of records. The
/// analysis streams one record at a time into its accumulators, and the
/// corpus directory is left in place for re-analysis or sharing.
pub fn run_streamed(
    profile: AppProfile,
    opts: &ExperimentOptions,
    dir: &Path,
) -> Result<ExperimentOutput, TraceError> {
    let scenario = build_scenario(&profile, opts);
    run_captured(
        profile,
        &scenario,
        opts,
        true,
        || CorpusSink::create_with(dir, opts.obs.clone()),
        |manifest| {
            let analysis = analyze_corpus_with_obs(
                dir,
                &scenario.registry,
                &AnalysisConfig::default(),
                &scenario.highbw_probe_ips,
                &opts.obs,
            )?;
            debug_assert_eq!(manifest.total_packets, analysis.total_packets);
            Ok((analysis, None))
        },
    )
}

/// The pipeline behind [`run_on_scenario`] and [`run_streamed`]: wires
/// the swarm on `scenario`, runs it into the sink `make_sink` builds,
/// and hands the sink's output to `analyze`, which returns the analysis
/// plus any traces to keep. `streamed` labels the `testbed.experiment`
/// event.
fn run_captured<S: RecordSink>(
    profile: AppProfile,
    scenario: &BuiltScenario,
    opts: &ExperimentOptions,
    streamed: bool,
    make_sink: impl FnOnce() -> Result<S, TraceError>,
    analyze: impl FnOnce(S::Output) -> Result<(ExperimentAnalysis, Option<TraceSet>), TraceError>,
) -> Result<ExperimentOutput, TraceError> {
    let app = profile.name.clone();
    let _tspan = opts.obs.pspan("testbed.run");
    let env = NetworkEnv {
        registry: &scenario.registry,
        paths: scenario.paths,
        latency: scenario.latency,
    };
    let cfg = SwarmConfig {
        seed: opts.seed,
        duration_us: opts.duration_us,
        stream: StreamParams::cctv1(),
        profile,
    };
    netaware_obs::event!(
        opts.obs,
        Level::Info,
        "testbed.experiment",
        SimTime::ZERO,
        "app" = app.as_str(),
        "seed" = opts.seed,
        "scale" = opts.scale,
        "streamed" = streamed,
    );
    let mut swarm = Swarm::new(cfg, env, scenario.peer_setup());
    swarm.set_obs(opts.obs.clone());
    swarm.set_faults(&opts.faults);
    let (captured, report) = swarm.run_into(make_sink()?)?;
    let (analysis, traces) = analyze(captured)?;
    Ok(ExperimentOutput {
        app,
        analysis,
        report,
        traces,
    })
}

/// Runs the three paper applications (PPLive, SopCast, TVAnts)
/// concurrently and returns their outputs in that order.
pub fn run_paper_suite(opts: &ExperimentOptions) -> Vec<ExperimentOutput> {
    AppProfile::paper_apps()
        .into_par_iter()
        .map(|p| run_experiment(p, opts))
        .collect()
}

/// Runs native-vs-uniform ablation pairs for every paper application:
/// `(native output, uniform-selection output)` per app.
pub fn run_ablation(opts: &ExperimentOptions) -> Vec<(ExperimentOutput, ExperimentOutput)> {
    AppProfile::paper_apps()
        .into_par_iter()
        .map(|p| {
            let native = run_experiment(p.clone(), opts);
            let uniform = run_experiment(p.uniform_selection(), opts);
            (native, uniform)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaware_proto::AppProfile;

    fn quick_opts() -> ExperimentOptions {
        ExperimentOptions {
            seed: 7,
            scale: 0.02,
            duration_us: 40_000_000,
            keep_traces: false,
            obs: Obs::default(),
            faults: FaultPlan::none(),
        }
    }

    #[test]
    fn single_experiment_produces_analysis() {
        let out = run_experiment(AppProfile::tvants(), &quick_opts());
        assert_eq!(out.app, "TVAnts");
        assert!(out.analysis.total_packets > 0);
        assert!(out.report.chunks_delivered > 0);
        assert!(out.traces.is_none());
        // BW download preference must be measurable.
        let bw = out.analysis.preference("BW").unwrap();
        assert!(bw.download_all.is_measurable());
    }

    #[test]
    fn traces_kept_on_request() {
        let mut opts = quick_opts();
        opts.keep_traces = true;
        let out = run_experiment(AppProfile::sopcast(), &opts);
        let t = out.traces.expect("traces requested");
        assert_eq!(t.traces.len(), 46);
        assert_eq!(t.total_packets(), out.analysis.total_packets);
    }

    #[test]
    fn streamed_run_matches_in_memory_run() {
        let dir =
            std::env::temp_dir().join(format!("netaware_runner_streamed_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = quick_opts();
        opts.duration_us = 25_000_000;
        let mem = run_experiment(AppProfile::tvants(), &opts);
        let streamed = run_streamed(AppProfile::tvants(), &opts, &dir).unwrap();
        assert!(streamed.traces.is_none());
        assert_eq!(streamed.analysis.to_json(), mem.analysis.to_json());
        // The spilled corpus is a loadable artifact.
        let set = TraceSet::read_dir(&dir).unwrap();
        assert_eq!(set.total_packets(), mem.analysis.total_packets);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_experiment(AppProfile::sopcast(), &quick_opts());
        let b = run_experiment(AppProfile::sopcast(), &quick_opts());
        assert_eq!(a.analysis.total_packets, b.analysis.total_packets);
        assert_eq!(a.analysis.total_bytes, b.analysis.total_bytes);
        let (pa, pb) = (
            a.analysis.preference("AS").unwrap(),
            b.analysis.preference("AS").unwrap(),
        );
        assert_eq!(pa.download_all.peers_pct, pb.download_all.peers_pct);
    }

    #[test]
    fn suite_runs_all_three_apps_in_order() {
        let mut opts = quick_opts();
        opts.duration_us = 25_000_000;
        let outs = run_paper_suite(&opts);
        let names: Vec<&str> = outs.iter().map(|o| o.app.as_str()).collect();
        assert_eq!(names, vec!["PPLive", "SopCast", "TVAnts"]);
        for o in &outs {
            assert!(o.report.continuity() > 0.5, "{} starving", o.app);
        }
    }
}
