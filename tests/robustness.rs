//! Robustness experiments: the analysis conclusions must not hinge on
//! arbitrary testbed composition choices or on middlebox luck.

use netaware::testbed::{run_on_scenario, BuiltScenario, ExperimentOptions, ScenarioConfig};
use netaware::AppProfile;

fn opts(seed: u64) -> ExperimentOptions {
    ExperimentOptions {
        seed,
        scale: 0.04,
        duration_us: 90_000_000,
        ..Default::default()
    }
}

fn run_with_cn(
    cn_fraction: f64,
    profile: AppProfile,
    seed: u64,
) -> netaware::testbed::ExperimentOutput {
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed,
            scale: 0.04,
            cn_fraction,
        },
        profile.overlay_size,
    );
    run_on_scenario(profile, &scenario, &opts(seed))
}

#[test]
fn bw_conclusion_robust_to_population_composition() {
    // Squeeze the audience geography from CN-dominant to EU-heavy: the
    // BW inference is about capacity, not geography, and must hold.
    for cn in [0.60, 0.87, 0.95] {
        let out = run_with_cn(cn, AppProfile::sopcast(), 31);
        let bw = out.analysis.preference("BW").unwrap();
        assert!(
            bw.download_all.bytes_pct > 90.0,
            "cn={cn}: B_D(BW) = {:.1}%",
            bw.download_all.bytes_pct
        );
        assert!(out.report.continuity() > 0.9);
    }
}

#[test]
fn as_awareness_grows_with_local_population() {
    // More European peers means more same-AS *external* candidates for
    // TVAnts to exploit. The all-contributor AS share is dominated by
    // probe↔probe traffic and barely moves, but the probe-excluded
    // (primed) peer share isolates the externals and must respond:
    // opportunity-weighted preference, not a profile constant.
    let low = run_with_cn(0.95, AppProfile::tvants(), 33);
    let high = run_with_cn(0.60, AppProfile::tvants(), 33);
    let p_low = low
        .analysis
        .preference("AS")
        .unwrap()
        .download_nonw
        .peers_pct;
    let p_high = high
        .analysis
        .preference("AS")
        .unwrap()
        .download_nonw
        .peers_pct;
    assert!(
        p_high > p_low,
        "P'_D(AS) with many EU peers {p_high:.2}% must exceed CN-saturated {p_low:.2}%"
    );
}

#[test]
fn sopcast_stays_location_blind_regardless_of_composition() {
    // SopCast's P≈B signature (no AS preference) must survive a
    // EU-heavy population — otherwise the metric would be confusing
    // opportunity with preference.
    let out = run_with_cn(0.60, AppProfile::sopcast(), 35);
    let a = out.analysis.preference("AS").unwrap();
    let ratio = a.download_nonw.bytes_pct / a.download_nonw.peers_pct.max(0.1);
    assert!(
        (0.2..5.0).contains(&ratio),
        "B'/P' = {:.2} suggests spurious AS preference",
        ratio
    );
}

#[test]
fn firewalled_probes_upload_less() {
    // ENST's LAN probes sit behind a firewall: external demand cannot
    // reach them as easily, so their TX volume must lag the open LAN
    // probes' — Table I's middlebox column has observable consequences.
    let profile = AppProfile::pplive();
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed: 11,
            scale: 0.04,
            ..Default::default()
        },
        profile.overlay_size,
    );
    let mut o = opts(11);
    o.keep_traces = true;
    let out = run_on_scenario(profile, &scenario, &o);
    let traces = out.traces.unwrap();

    let tx_of = |site: &str| -> f64 {
        let ips: Vec<_> = scenario
            .probes
            .iter()
            .zip(&scenario.probe_hosts)
            .filter(|(_, h)| h.site == site && !h.home)
            .map(|(p, _)| p.ip)
            .collect();
        let total: u64 = traces
            .traces
            .iter()
            .filter(|t| ips.contains(&t.probe))
            .map(|t| {
                t.records_unsorted()
                    .iter()
                    .filter(|r| r.src == t.probe)
                    .map(|r| r.size as u64)
                    .sum::<u64>()
            })
            .sum();
        total as f64 / ips.len() as f64
    };
    let enst = tx_of("ENST"); // firewalled LANs
    let wut = tx_of("WUT"); // open LANs
    assert!(
        enst < 0.6 * wut,
        "firewalled ENST {enst:.0} B/probe vs open WUT {wut:.0} B/probe"
    );
}

#[test]
fn nat_probes_upload_less_than_open_ones() {
    let profile = AppProfile::pplive();
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed: 13,
            scale: 0.04,
            ..Default::default()
        },
        profile.overlay_size,
    );
    let mut o = opts(13);
    o.keep_traces = true;
    let out = run_on_scenario(profile, &scenario, &o);
    let traces = out.traces.unwrap();

    // UniTN hosts 6–7 are NATted LANs; 1–5 are open LANs at the same site.
    let tx_of = |nat: bool| -> f64 {
        let ips: Vec<_> = scenario
            .probes
            .iter()
            .zip(&scenario.probe_hosts)
            .filter(|(_, h)| h.site == "UniTN" && !h.home && h.nat == nat)
            .map(|(p, _)| p.ip)
            .collect();
        assert!(!ips.is_empty());
        let total: u64 = traces
            .traces
            .iter()
            .filter(|t| ips.contains(&t.probe))
            .map(|t| {
                t.records_unsorted()
                    .iter()
                    .filter(|r| r.src == t.probe)
                    .map(|r| r.size as u64)
                    .sum::<u64>()
            })
            .sum();
        total as f64 / ips.len() as f64
    };
    let natted = tx_of(true);
    let open = tx_of(false);
    assert!(
        natted < open,
        "NATted UniTN probes {natted:.0} B vs open {open:.0} B"
    );
}
