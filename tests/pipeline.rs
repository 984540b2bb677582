//! Cross-crate pipeline integration: simulation → trace persistence →
//! re-import → analysis must be lossless and deterministic.

use netaware::analysis::{analyze, AnalysisConfig};
use netaware::testbed::{run_experiment, BuiltScenario, ExperimentOptions, ScenarioConfig};
use netaware::trace::pcap::{export_pcap, import_pcap};
use netaware::trace::{read_trace, write_trace, ProbeTrace, TraceSet};
use netaware::AppProfile;

fn quick_opts() -> ExperimentOptions {
    ExperimentOptions {
        seed: 5,
        scale: 0.03,
        duration_us: 60_000_000,
        keep_traces: true,
        ..Default::default()
    }
}

fn run_with_traces() -> (TraceSet, BuiltScenario) {
    let profile = AppProfile::sopcast();
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed: 5,
            scale: 0.03,
            ..Default::default()
        },
        profile.overlay_size,
    );
    let out = netaware::testbed::run_on_scenario(profile, &scenario, &quick_opts());
    (out.traces.unwrap(), scenario)
}

#[test]
fn binary_roundtrip_preserves_analysis() {
    let (traces, scenario) = run_with_traces();
    let cfg = AnalysisConfig::default();
    let before = analyze(
        &traces,
        &scenario.registry,
        &cfg,
        &scenario.highbw_probe_ips,
    );

    // Serialise every probe trace and read it back.
    let mut rebuilt = TraceSet::new(traces.app.clone(), traces.duration_us);
    for t in &traces.traces {
        let mut buf = Vec::new();
        write_trace(t, &mut buf).unwrap();
        rebuilt.add(read_trace(&mut buf.as_slice()).unwrap());
    }
    rebuilt.finalize();
    let after = analyze(
        &rebuilt,
        &scenario.registry,
        &cfg,
        &scenario.highbw_probe_ips,
    );

    assert_eq!(before.total_packets, after.total_packets);
    assert_eq!(before.total_bytes, after.total_bytes);
    for (a, b) in before.preferences.iter().zip(&after.preferences) {
        assert_eq!(a.metric, b.metric);
        assert_eq!(
            a.download_all.bytes_pct.to_bits(),
            b.download_all.bytes_pct.to_bits(),
            "{} diverged across the binary format",
            a.metric
        );
    }
}

#[test]
fn pcap_roundtrip_preserves_headline_metrics() {
    let (traces, scenario) = run_with_traces();
    let cfg = AnalysisConfig::default();
    let before = analyze(
        &traces,
        &scenario.registry,
        &cfg,
        &scenario.highbw_probe_ips,
    );

    // pcap loses the ground-truth payload tag but none of the fields the
    // analysis reads; results must be bit-identical.
    let mut rebuilt = TraceSet::new(traces.app.clone(), traces.duration_us);
    for t in &traces.traces {
        let mut buf = Vec::new();
        export_pcap(t, &mut buf).unwrap();
        let (back, skipped) = import_pcap(t.probe, &mut buf.as_slice()).unwrap();
        assert_eq!(skipped, 0);
        rebuilt.add(back);
    }
    rebuilt.finalize();
    let after = analyze(
        &rebuilt,
        &scenario.registry,
        &cfg,
        &scenario.highbw_probe_ips,
    );

    assert_eq!(before.total_packets, after.total_packets);
    let (a, b) = (
        before.preference("BW").unwrap(),
        after.preference("BW").unwrap(),
    );
    assert_eq!(
        a.download_all.bytes_pct.to_bits(),
        b.download_all.bytes_pct.to_bits()
    );
    let (a, b) = (
        before.preference("HOP").unwrap(),
        after.preference("HOP").unwrap(),
    );
    assert_eq!(
        a.download_all.peers_pct.to_bits(),
        b.download_all.peers_pct.to_bits()
    );
}

#[test]
fn end_to_end_determinism() {
    let a = run_experiment(AppProfile::tvants(), &quick_opts());
    let b = run_experiment(AppProfile::tvants(), &quick_opts());
    assert_eq!(
        serde_json::to_string(&a.analysis).unwrap(),
        serde_json::to_string(&b.analysis).unwrap(),
        "same seed must produce bit-identical analysis"
    );
}

#[test]
fn different_seed_changes_traffic_but_not_conclusions() {
    let mut o1 = quick_opts();
    o1.keep_traces = false;
    let mut o2 = o1.clone();
    o2.seed = 6;
    let a = run_experiment(AppProfile::sopcast(), &o1);
    let b = run_experiment(AppProfile::sopcast(), &o2);
    assert_ne!(a.analysis.total_bytes, b.analysis.total_bytes);
    // Conclusions are seed-stable.
    for out in [&a, &b] {
        let bw = out.analysis.preference("BW").unwrap();
        assert!(bw.download_all.bytes_pct > 85.0);
    }
}

#[test]
fn probe_traces_only_contain_probe_touching_packets() {
    let (traces, _) = run_with_traces();
    for t in &traces.traces {
        for r in t.records_unsorted() {
            assert!(
                r.src == t.probe || r.dst == t.probe,
                "foreign packet in {}'s capture",
                t.probe
            );
        }
    }
}

#[test]
fn trace_timestamps_sorted_after_finalize() {
    let (traces, _) = run_with_traces();
    for t in &traces.traces {
        let recs = t.records_unsorted();
        assert!(
            recs.windows(2).all(|w| w[0].ts_us <= w[1].ts_us),
            "{} not time-sorted",
            t.probe
        );
    }
}

#[test]
fn json_export_round_trips() {
    let out = run_experiment(AppProfile::sopcast(), &quick_opts());
    let js = out.analysis.to_json();
    let back: netaware::ExperimentAnalysis = serde_json::from_str(&js).unwrap();
    assert_eq!(back.app, out.analysis.app);
    assert_eq!(back.total_packets, out.analysis.total_packets);
    // NaN cells must survive as nulls.
    let bw = back.preference("BW").unwrap();
    assert!(!bw.upload_all.is_measurable());
}

#[test]
fn empty_trace_set_analyzes_cleanly() {
    let set = TraceSet::new("Empty", 1_000_000);
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed: 1,
            scale: 0.01,
            ..Default::default()
        },
        100,
    );
    let a = analyze(
        &set,
        &scenario.registry,
        &AnalysisConfig::default(),
        &scenario.highbw_probe_ips,
    );
    assert_eq!(a.total_packets, 0);
    assert!(!a.preference("BW").unwrap().download_all.is_measurable());
    assert_eq!(a.geo.total_peers, 0);
}

#[test]
fn probes_without_traffic_still_count_in_probe_set() {
    let mut set = TraceSet::new("X", 1_000_000);
    set.add(ProbeTrace::new(netaware::net::Ip::from_octets(10, 0, 0, 1)));
    set.add(ProbeTrace::new(netaware::net::Ip::from_octets(10, 0, 0, 2)));
    assert_eq!(set.probe_set().len(), 2);
}
