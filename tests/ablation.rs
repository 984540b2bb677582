//! Ablation A: the measured biases are caused by the selection policies,
//! not by the testbed composition — under uniform-random selection, on
//! the identical scenario, every preference collapses toward its
//! population baseline.
//!
//! Ablation B: the conclusions do not hang on the paper's two fixed
//! thresholds, the 1 ms packet-pair gap and the 19-hop split.

use netaware::analysis::flows::aggregate;
use netaware::analysis::partition::Metric;
use netaware::analysis::preference::{preference, Dir};
use netaware::analysis::AnalysisConfig;
use netaware::net::GeoRegistry;
use netaware::testbed::{
    run_experiment, run_on_scenario, BuiltScenario, ExperimentOptions, ScenarioConfig,
};
use netaware::trace::TraceSet;
use netaware::AppProfile;

fn opts() -> ExperimentOptions {
    ExperimentOptions {
        seed: 21,
        scale: 0.04,
        duration_us: 90_000_000,
        ..Default::default()
    }
}

#[test]
fn uniform_selection_collapses_bw_bias() {
    for profile in AppProfile::paper_apps() {
        let app = profile.name.clone();
        let native = run_experiment(profile.clone(), &opts());
        let uniform = run_experiment(profile.uniform_selection(), &opts());
        let nb = native
            .analysis
            .preference("BW")
            .unwrap()
            .download_nonw
            .bytes_pct;
        let ub = uniform
            .analysis
            .preference("BW")
            .unwrap()
            .download_nonw
            .bytes_pct;
        assert!(
            nb > ub + 15.0,
            "{app}: native B'_D {nb:.1}% vs uniform {ub:.1}%"
        );
        // Under uniform selection the byte share should approach the
        // population's high-bandwidth share (~35–55%), not 95+%.
        assert!(ub < 80.0, "{app}: uniform B'_D {ub:.1}% still biased");
    }
}

#[test]
fn uniform_selection_collapses_tvants_as_bias() {
    let native = run_experiment(AppProfile::tvants(), &opts());
    let uniform = run_experiment(AppProfile::tvants().uniform_selection(), &opts());
    let na = native
        .analysis
        .preference("AS")
        .unwrap()
        .download_all
        .bytes_pct;
    let ua = uniform
        .analysis
        .preference("AS")
        .unwrap()
        .download_all
        .bytes_pct;
    assert!(na > 2.0 * ua + 2.0, "native {na:.1}% vs uniform {ua:.1}%");
}

#[test]
fn hop_stays_unbiased_in_both_arms() {
    // HOP shows no preference natively; it must not *gain* one under
    // uniform selection either (guards against artifacts in the hop
    // model itself).
    let native = run_experiment(AppProfile::sopcast(), &opts());
    let uniform = run_experiment(AppProfile::sopcast().uniform_selection(), &opts());
    for (label, out) in [("native", &native), ("uniform", &uniform)] {
        let h = out.analysis.preference("HOP").unwrap().download_nonw;
        assert!(
            (25.0..70.0).contains(&h.bytes_pct),
            "{label}: HOP B'_D = {:.1}%",
            h.bytes_pct
        );
    }
}

#[test]
fn uniform_arm_still_delivers_the_stream() {
    // The control arm must be a fair control: same stream, same health.
    let uniform = run_experiment(AppProfile::sopcast().uniform_selection(), &opts());
    assert!(
        uniform.report.continuity() > 0.85,
        "uniform arm starving: {:.3}",
        uniform.report.continuity()
    );
    let rx = uniform.analysis.summary.rx_kbps.mean;
    assert!((350.0..700.0).contains(&rx), "RX {rx:.0} kb/s");
}

#[test]
fn ablation_runner_pairs_up() {
    let mut o = opts();
    o.scale = 0.02;
    o.duration_us = 30_000_000;
    let pairs = netaware::testbed::run_ablation(&o);
    assert_eq!(pairs.len(), 3);
    for (native, uniform) in &pairs {
        assert_eq!(format!("{}-random", native.app), uniform.app);
    }
}

/// One app's traces and registry at seed 1234, 4 % scale, 90 s.
fn captured(profile: AppProfile) -> (TraceSet, GeoRegistry) {
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
    (out.traces.expect("keep_traces is set"), scenario.registry)
}

#[test]
fn threshold_sweeps_keep_the_conclusions() {
    for profile in AppProfile::paper_apps() {
        let app = profile.name.clone();
        let (traces, registry) = captured(profile);
        let cfg = AnalysisConfig::default();
        let flows = aggregate(&traces, &cfg);
        // HOP stays unbiased around the fixed 19: excluding the probe
        // set, the byte share tracks the peer share at every threshold.
        let w = traces.probe_set();
        for thr in [15u8, 19, 23] {
            let h = preference(
                &flows,
                &registry,
                &cfg,
                thr,
                Metric::Hop,
                Dir::Download,
                Some(&w),
            );
            let gap = (h.bytes_pct - h.peers_pct).abs();
            assert!(
                gap < 5.0,
                "{app}: |B'_D - P'_D| of HOP is {gap:.1} at threshold {thr}"
            );
        }
        // "Traffic comes overwhelmingly from high-bandwidth peers" holds
        // for a packet-pair threshold from 0.3 ms to 3 ms.
        if app == "SopCast" {
            for ipg_high_bw_us in [300, 1_000, 3_000] {
                let cfg = AnalysisConfig {
                    ipg_high_bw_us,
                    ..Default::default()
                };
                let bw = preference(&flows, &registry, &cfg, 19, Metric::Bw, Dir::Download, None);
                assert!(
                    bw.bytes_pct > 75.0,
                    "{app}: B_D of BW is {:.1}% at {ipg_high_bw_us} us",
                    bw.bytes_pct
                );
            }
        }
    }
}
