//! Grading the passive inferences against simulator ground truth: the
//! analysis must *infer* correctly, not just produce plausible numbers.

use netaware::analysis::flows::aggregate;
use netaware::analysis::hopdist::hop_distribution;
use netaware::analysis::validation::validate_bw;
use netaware::analysis::AnalysisConfig;
use netaware::testbed::{run_on_scenario, BuiltScenario, ExperimentOptions, ScenarioConfig};
use netaware::AppProfile;

fn run(profile: AppProfile, seed: u64) -> (BuiltScenario, netaware::trace::TraceSet) {
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed,
            scale: 0.04,
            ..Default::default()
        },
        profile.overlay_size,
    );
    let opts = ExperimentOptions {
        seed,
        scale: 0.04,
        duration_us: 90_000_000,
        keep_traces: true,
        ..Default::default()
    };
    let out = run_on_scenario(profile, &scenario, &opts);
    (scenario, out.traces.unwrap())
}

#[test]
fn bw_inference_is_accurate_for_every_profile() {
    for profile in AppProfile::paper_apps() {
        let app = profile.name.clone();
        let (scenario, traces) = run(profile, 3);
        let cfg = AnalysisConfig::default();
        let pfs = aggregate(&traces, &cfg);
        let v = validate_bw(&pfs, &cfg, &scenario.ground_truth());
        assert!(
            v.accuracy() > 0.97,
            "{app}: BW accuracy {:.3} ({:?})",
            v.accuracy(),
            v
        );
        assert!(
            v.coverage() > 0.95,
            "{app}: BW coverage {:.3}",
            v.coverage()
        );
    }
}

#[test]
fn bw_inference_accurate_under_uniform_selection_too() {
    // The uniform arm stresses the classifier with overloaded low-bw
    // providers — the regime where a naive queueing model produced
    // false highs during development.
    let (scenario, traces) = run(AppProfile::sopcast().uniform_selection(), 21);
    let cfg = AnalysisConfig::default();
    let pfs = aggregate(&traces, &cfg);
    let v = validate_bw(&pfs, &cfg, &scenario.ground_truth());
    // Near-threshold senders (e.g. 8 Mb/s uplinks) can read high through
    // an interleaving modem — the same artifact that fooled real
    // packet-pair probes. Anything beyond a fraction of a percent would
    // indicate a timing-model bug.
    let classified = v.true_high + v.true_low + v.false_high + v.false_low;
    assert!(
        (v.false_high as f64) < 0.005 * classified as f64,
        "systematic false highs: {v:?}"
    );
    assert!(v.accuracy() > 0.97, "accuracy {:.3}", v.accuracy());
}

#[test]
fn hop_median_lands_in_the_papers_band() {
    // §III-B: "the actual HOP median ranges from 18 to 20 depending on
    // the application".
    for profile in AppProfile::paper_apps() {
        let app = profile.name.clone();
        let (_, traces) = run(profile, 5);
        let cfg = AnalysisConfig::default();
        let pfs = aggregate(&traces, &cfg);
        let d = hop_distribution(&pfs, &cfg, 19);
        let median = d.median.expect("measurable hop distribution");
        assert!(
            (14..=24).contains(&median),
            "{app}: hop median {median} (distribution {:?})",
            &d.counts[..30]
        );
        assert!(
            d.measurable > 50,
            "{app}: only {} measurable flows",
            d.measurable
        );
    }
}

#[test]
fn hop_threshold_splits_roughly_in_half_for_blind_apps() {
    // For a location-blind app the 19-hop split should leave a sizeable
    // share on both sides (the paper: "approximately 50% of the peers
    // falls in the preferential class").
    let (_, traces) = run(AppProfile::sopcast(), 7);
    let cfg = AnalysisConfig::default();
    let pfs = aggregate(&traces, &cfg);
    let d = hop_distribution(&pfs, &cfg, 19);
    assert!(
        (20.0..80.0).contains(&d.below_threshold_pct),
        "split {:.1}%",
        d.below_threshold_pct
    );
}

#[test]
fn ground_truth_census_is_consistent() {
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed: 1,
            scale: 0.05,
            ..Default::default()
        },
        4_000,
    );
    let t = scenario.ground_truth();
    // The source and the 39 LAN probes are high-bandwidth.
    assert!(t.high_bw.contains(&scenario.source.ip));
    for ip in &scenario.highbw_probe_ips {
        assert!(t.high_bw.contains(ip));
    }
    // Home probes have narrow downlinks (≤10 Mb/s) except ENST's 22 Mb/s line.
    assert!(!t.narrow_probes.is_empty());
    for ip in &t.narrow_probes {
        assert!(!scenario.highbw_probe_ips.contains(ip));
    }
    // A plausible population share is high-bandwidth.
    let ext_high = scenario
        .externals
        .iter()
        .filter(|e| t.high_bw.contains(&e.ip))
        .count();
    let share = ext_high as f64 / scenario.externals.len() as f64;
    assert!((0.25..0.55).contains(&share), "high-bw share {share:.2}");
}

#[test]
fn bw_preference_is_significant_by_probe_bootstrap() {
    use netaware::analysis::confidence::bootstrap_bytes_ci;
    use netaware::analysis::partition::Metric;
    use netaware::analysis::preference::Dir;

    let (scenario, traces) = run(AppProfile::sopcast(), 9);
    let cfg = AnalysisConfig::default();
    let pfs = aggregate(&traces, &cfg);
    let ci = bootstrap_bytes_ci(
        &pfs,
        &scenario.registry,
        &cfg,
        19,
        Metric::Bw,
        Dir::Download,
        None,
        0.95,
        200,
        9,
    )
    .expect("BW measurable");
    // The BW finding must be significant at the probe level, not an
    // artifact of a few lucky vantage points.
    assert!(ci.lo > 80.0, "CI [{:.1}, {:.1}]", ci.lo, ci.hi);
    assert!(ci.excludes(50.0));
    // HOP must NOT be significant once probes are excluded.
    let w = traces.probe_set();
    let hop = bootstrap_bytes_ci(
        &pfs,
        &scenario.registry,
        &cfg,
        19,
        Metric::Hop,
        Dir::Download,
        Some(&w),
        0.95,
        200,
        9,
    )
    .expect("HOP measurable");
    assert!(
        !hop.excludes(50.0) || (hop.lo - 50.0).abs() < 15.0,
        "HOP CI [{:.1}, {:.1}] claims a path-length preference",
        hop.lo,
        hop.hi
    );
}
