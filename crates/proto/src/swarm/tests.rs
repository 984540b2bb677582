//! Swarm behaviour tests on a miniature scenario.

use super::behaviour::{Behaviour, Ctx};
use super::state::Event;
use super::*;
use crate::chunk::{ChunkId, StreamParams};
use crate::profiles::AppProfile;
use crate::swarm::state::{ExternalSpec, PeerSetup, ProbeSpec};
use netaware_net::{
    AccessClass, AccessLink, AsId, AsInfo, AsKind, CountryCode, GeoRegistry, GeoRegistryBuilder,
    Ip, LatencyModel, PathModel, Prefix,
};
use netaware_trace::{MemorySink, PayloadKind, ProbeTrace, RecordSink, TraceError};

fn mini_registry() -> GeoRegistry {
    let mut b = GeoRegistryBuilder::new();
    b.register_as(AsInfo::new(2, CountryCode::IT, AsKind::Academic, "GARR"));
    b.register_as(AsInfo::new(1, CountryCode::HU, AsKind::Academic, "BME"));
    b.register_as(AsInfo::new(100, CountryCode::CN, AsKind::Carrier, "CN-BB"));
    b.announce(Prefix::of(Ip::from_octets(130, 192, 0, 0), 16), AsId(2))
        .unwrap();
    b.announce(Prefix::of(Ip::from_octets(152, 66, 0, 0), 16), AsId(1))
        .unwrap();
    b.announce(Prefix::of(Ip::from_octets(58, 0, 0, 0), 8), AsId(100))
        .unwrap();
    b.build()
}

fn mini_setup(n_ext: usize) -> PeerSetup {
    let probes = vec![
        // Two LAN probes in the same subnet (PoliTO-style site).
        ProbeSpec {
            ip: Ip::from_octets(130, 192, 1, 10),
            access: AccessLink::lan(),
        },
        ProbeSpec {
            ip: Ip::from_octets(130, 192, 1, 11),
            access: AccessLink::lan(),
        },
        // LAN probe in another AS/country.
        ProbeSpec {
            ip: Ip::from_octets(152, 66, 7, 5),
            access: AccessLink::lan(),
        },
        // DSL home probe.
        ProbeSpec {
            ip: Ip::from_octets(58, 200, 1, 9),
            access: AccessLink::open(AccessClass::Dsl(6000, 512)),
        },
    ];
    let externals = (0..n_ext)
        .map(|i| {
            let high = i % 5 < 2; // 40% high-bw
            ExternalSpec {
                ip: Ip(Ip::from_octets(58, 1, 0, 0).0 + (i as u32) * 277 + 1),
                access: if high {
                    AccessLink::lan()
                } else {
                    AccessLink::open(AccessClass::Dsl(4000, 384))
                },
            }
        })
        .collect();
    PeerSetup {
        source: ExternalSpec {
            ip: Ip::from_octets(58, 99, 0, 1),
            access: AccessLink::lan(),
        },
        probes,
        externals,
    }
}

fn run_mini(profile: AppProfile, secs: u64, seed: u64) -> (netaware_trace::TraceSet, SwarmReport) {
    run_mini_into(profile, secs * 1_000_000, seed, MemorySink::new()).unwrap()
}

/// The miniature scenario run for `duration_us` into `sink`.
fn run_mini_into<S: RecordSink>(
    profile: AppProfile,
    duration_us: u64,
    seed: u64,
    sink: S,
) -> Result<(S::Output, SwarmReport), TraceError> {
    let reg = mini_registry();
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(seed),
        latency: LatencyModel::new(seed),
    };
    let cfg = SwarmConfig {
        seed,
        duration_us,
        stream: StreamParams::cctv1(),
        profile,
    };
    Swarm::new(cfg, env, mini_setup(80)).run_into(sink)
}

/// Logs every call it gets: `Some(segment)` per `sink_probe`, `None`
/// for `finish`. With `fail_at: Some(k)`, the k-th `sink_probe` call
/// (from zero) fails.
struct Recording<'a> {
    log: &'a mut Vec<Option<ProbeTrace>>,
    fail_at: Option<usize>,
}

impl RecordSink for Recording<'_> {
    type Output = ();

    fn sink_probe(&mut self, segment: ProbeTrace) -> Result<(), TraceError> {
        let call = self.log.len();
        self.log.push(Some(segment));
        match self.fail_at {
            Some(k) if k == call => Err(TraceError::BadManifest(format!("call {call}"))),
            _ => Ok(()),
        }
    }

    fn finish(self, _: &str, _: u64) -> Result<(), TraceError> {
        self.log.push(None);
        Ok(())
    }
}

/// Each whole simulated second, and the horizon, closes one round: a
/// segment per probe, in probe order, each time-sorted inside its
/// window, and a probe's segments join into exactly the capture an
/// in-memory run of the same seed keeps.
#[test]
fn the_sink_gets_one_round_per_started_second_in_probe_order() {
    let profile = || small_profile(AppProfile::tvants());
    let duration_us = 7_500_000;
    let mut log = Vec::new();
    let sink = Recording {
        log: &mut log,
        fail_at: None,
    };
    run_mini_into(profile(), duration_us, 5, sink).unwrap();
    assert!(log.pop().is_some_and(|finish| finish.is_none()));
    let (whole, _) = run_mini_into(profile(), duration_us, 5, MemorySink::new()).unwrap();
    let probes: Vec<Ip> = mini_setup(0).probes.iter().map(|p| p.ip).collect();
    let segments: Vec<ProbeTrace> = log.into_iter().flatten().collect();
    let rounds: Vec<&[ProbeTrace]> = segments.chunks(probes.len()).collect();
    assert_eq!(rounds.len(), 8, "ceil(7.5 s) rounds");
    let mut joined = vec![Vec::new(); probes.len()];
    for (k, round) in rounds.iter().enumerate() {
        let after = k as u64 * 1_000_000;
        let through = if k == 7 { u64::MAX } else { after + 1_000_000 };
        for ((segment, &probe), joined) in round.iter().zip(&probes).zip(&mut joined) {
            assert_eq!(segment.probe, probe, "round {k} out of probe order");
            let ts: Vec<u64> = segment.records().iter().map(|r| r.ts_us).collect();
            assert!(ts.is_sorted(), "round {k}, probe {probe}: unsorted segment");
            assert!(
                ts.iter().all(|&t| (k == 0 || t > after) && t <= through),
                "round {k}, probe {probe}: a record outside its window"
            );
            joined.extend_from_slice(segment.records());
        }
    }
    assert!(rounds.iter().all(|r| r.len() == probes.len()));
    assert!(rounds[..7]
        .iter()
        .flat_map(|r| r.iter())
        .any(|s| !s.is_empty()));
    for (t, joined) in whole.traces.iter().zip(&joined) {
        assert_eq!(
            t.records(),
            &joined[..],
            "probe {}: gaps or repeats",
            t.probe
        );
    }
}

/// A sink error in any round, pipelined or the last one, ends the run
/// with that error: no segment follows the failing one and the sink is
/// never finished.
#[test]
fn a_sink_error_ends_the_run_before_any_later_call() {
    let probes = mini_setup(0).probes.len();
    for round in [0, 2, 7] {
        let fail_at = round * probes + 1;
        let mut log = Vec::new();
        let sink = Recording {
            log: &mut log,
            fail_at: Some(fail_at),
        };
        let profile = small_profile(AppProfile::sopcast());
        let err = run_mini_into(profile, 7_500_000, 9, sink).unwrap_err();
        assert!(
            matches!(&err, TraceError::BadManifest(m) if *m == format!("call {fail_at}")),
            "round {round}: {err:?}"
        );
        assert_eq!(
            log.len(),
            fail_at + 1,
            "round {round}: calls after the error"
        );
        assert!(log.iter().all(Option::is_some), "round {round}: finished");
    }
}

fn small_profile(base: AppProfile) -> AppProfile {
    AppProfile {
        max_neighbors: 40,
        init_neighbors: 20,
        halo_contacts_per_sec: base.halo_contacts_per_sec.min(0.5),
        ..base
    }
}

#[test]
fn traces_are_captured_at_every_probe() {
    let (set, _) = run_mini(small_profile(AppProfile::sopcast()), 30, 1);
    assert_eq!(set.traces.len(), 4);
    for t in &set.traces {
        assert!(!t.is_empty(), "probe {} captured nothing", t.probe);
    }
}

#[test]
fn timestamps_within_reasonable_horizon() {
    let (set, _) = run_mini(small_profile(AppProfile::sopcast()), 20, 2);
    for t in &set.traces {
        for r in t.records_unsorted() {
            // In-flight packets may land shortly after the horizon.
            assert!(r.ts_us < 25_000_000, "stray packet at {}", r.ts_us);
        }
    }
}

#[test]
fn probes_receive_roughly_the_stream_rate() {
    let (set, report) = run_mini(small_profile(AppProfile::sopcast()), 60, 3);
    // Skip the warmup; measure RX video rate over the steady tail.
    for t in &set.traces {
        let bytes: u64 = t
            .records()
            .iter()
            .filter(|r| r.is_rx_at(t.probe) && r.size >= 1000)
            .filter(|r| (20_000_000..60_000_000).contains(&r.ts_us))
            .map(|r| r.size as u64)
            .sum();
        let kbps = bytes as f64 * 8.0 / 40.0 / 1000.0;
        assert!(
            (250.0..700.0).contains(&kbps),
            "probe {} RX video rate {kbps} kb/s",
            t.probe
        );
    }
    assert!(
        report.continuity() > 0.9,
        "continuity {}",
        report.continuity()
    );
}

#[test]
fn deterministic_same_seed_same_trace() {
    let (a, ra) = run_mini(small_profile(AppProfile::tvants()), 15, 7);
    let (b, rb) = run_mini(small_profile(AppProfile::tvants()), 15, 7);
    assert_eq!(a.total_packets(), b.total_packets());
    assert_eq!(a.total_bytes(), b.total_bytes());
    assert_eq!(ra.chunks_delivered, rb.chunks_delivered);
    for (ta, tb) in a.traces.iter().zip(&b.traces) {
        assert_eq!(ta.records_unsorted(), tb.records_unsorted());
    }
}

#[test]
fn different_seeds_differ() {
    let (a, _) = run_mini(small_profile(AppProfile::tvants()), 15, 7);
    let (b, _) = run_mini(small_profile(AppProfile::tvants()), 15, 8);
    assert_ne!(a.total_bytes(), b.total_bytes());
}

#[test]
fn video_and_signaling_sizes_are_separable() {
    let (set, _) = run_mini(small_profile(AppProfile::sopcast()), 20, 4);
    for t in &set.traces {
        for r in t.records_unsorted() {
            match r.kind {
                PayloadKind::Video => assert!(r.size >= 1000, "video pkt of {}", r.size),
                PayloadKind::Signaling => assert!(r.size < 400, "signal pkt of {}", r.size),
            }
        }
    }
}

#[test]
fn rx_video_ipg_reflects_sender_class() {
    // From LAN senders the min IPG at a LAN probe must be ~0.1 ms;
    // from DSL senders ~19 ms. Crank exploration so several distinct
    // providers contribute within a short run.
    let profile = AppProfile {
        exploration: 0.35,
        ..small_profile(AppProfile::sopcast())
    };
    let (set, _) = run_mini(profile, 60, 5);
    let reg = mini_registry();
    let lan_probe = Ip::from_octets(130, 192, 1, 10);
    let trace = set.traces.iter().find(|t| t.probe == lan_probe).unwrap();
    let mut min_gap: std::collections::BTreeMap<Ip, u64> = std::collections::BTreeMap::new();
    let mut last_ts: std::collections::BTreeMap<Ip, u64> = std::collections::BTreeMap::new();
    for r in trace.records() {
        if r.dst != lan_probe || r.size < 1000 {
            continue;
        }
        if let Some(&prev) = last_ts.get(&r.src) {
            let gap = r.ts_us - prev;
            min_gap
                .entry(r.src)
                .and_modify(|g| *g = (*g).min(gap))
                .or_insert(gap);
        }
        last_ts.insert(r.src, r.ts_us);
    }
    let _ = reg;
    let mut checked = 0;
    for (src, gap) in min_gap {
        // The mini population: LAN externals have up=100 Mb/s (gap 100 µs),
        // DSL 384 kb/s (gap ≈ 26 ms). Probes are LAN except the DSL one.
        if gap < 1_000 {
            checked += 1; // high-bw path observed
        } else {
            assert!(gap > 5_000, "ambiguous min IPG {gap} from {src}");
            checked += 1;
        }
    }
    assert!(checked >= 2, "too few video sources to check ({checked})");
}

#[test]
fn ttl_of_received_packets_encodes_hops() {
    let (set, _) = run_mini(small_profile(AppProfile::sopcast()), 20, 6);
    for t in &set.traces {
        for r in t.records_unsorted() {
            if r.dst == t.probe {
                assert!(r.ttl <= 128);
                assert!(r.ttl >= 60, "implausible TTL {}", r.ttl);
            } else {
                assert_eq!(r.ttl, 128, "TX capture must still have initial TTL");
            }
        }
    }
}

#[test]
fn same_subnet_probes_see_zero_hop_ttl() {
    let (set, _) = run_mini(small_profile(AppProfile::tvants()), 30, 9);
    let a = Ip::from_octets(130, 192, 1, 10);
    let b = Ip::from_octets(130, 192, 1, 11);
    let t = set.traces.iter().find(|t| t.probe == a).unwrap();
    let from_sibling: Vec<u8> = t
        .records_unsorted()
        .iter()
        .filter(|r| r.src == b && r.dst == a)
        .map(|r| r.ttl)
        .collect();
    assert!(!from_sibling.is_empty(), "siblings never exchanged packets");
    assert!(from_sibling.iter().all(|&ttl| ttl == 128));
}

#[test]
fn pplive_contacts_vastly_more_peers() {
    let pp = small_profile(AppProfile::pplive());
    let (set_pp, _) = run_mini(pp, 30, 10);
    let (set_tv, _) = run_mini(small_profile(AppProfile::tvants()), 30, 10);
    let distinct = |set: &netaware_trace::TraceSet| {
        let mut s = std::collections::BTreeSet::new();
        for t in &set.traces {
            for r in t.records_unsorted() {
                s.insert(if r.src == t.probe { r.dst } else { r.src });
            }
        }
        s.len()
    };
    let (n_pp, n_tv) = (distinct(&set_pp), distinct(&set_tv));
    assert!(n_pp > n_tv, "PPLive contacted {n_pp} ≤ TVAnts {n_tv}");
}

#[test]
fn upload_factor_orders_tx_volume() {
    let (set_pp, _) = run_mini(small_profile(AppProfile::pplive()), 60, 11);
    let (set_sc, _) = run_mini(small_profile(AppProfile::sopcast()), 60, 11);
    let tx_bytes = |set: &netaware_trace::TraceSet| -> u64 {
        set.traces
            .iter()
            .flat_map(|t| {
                t.records()
                    .iter()
                    .filter(|r| r.is_tx_at(t.probe) && r.size >= 1000)
            })
            .map(|r| r.size as u64)
            .sum()
    };
    let (pp, sc) = (tx_bytes(&set_pp), tx_bytes(&set_sc));
    assert!(pp > 2 * sc, "PPLive TX {pp} not ≫ SopCast TX {sc}");
}

#[test]
fn report_counters_are_consistent() {
    let (_, report) = run_mini(small_profile(AppProfile::sopcast()), 30, 12);
    assert!(report.chunks_delivered > 0);
    assert!(report.signal_packets > 0);
    assert!(report.events_dispatched > 0);
    assert!(report.chunks_served_by_externals + report.chunks_served_by_probes > 0);
}

#[test]
fn empty_external_population_still_runs() {
    // Probes + source only: the swarm must limp along on the source.
    let reg = mini_registry();
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(1),
        latency: LatencyModel::new(1),
    };
    let mut setup = mini_setup(0);
    setup.externals.clear();
    let cfg = SwarmConfig {
        seed: 1,
        duration_us: 20_000_000,
        stream: StreamParams::cctv1(),
        profile: small_profile(AppProfile::sopcast()),
    };
    let (set, report) = Swarm::new(cfg, env, setup).run();
    assert_eq!(set.traces.len(), 4);
    assert!(
        report.chunks_delivered > 0,
        "source alone must sustain the stream"
    );
}

// ---------- transfer-layer internals ----------

fn mini_swarm(_seed: u64) -> (netaware_net::GeoRegistry, PeerSetup) {
    (mini_registry(), mini_setup(20))
}

/// The swarm's external peers, in id order.
fn externals<'s>(swarm: &'s Swarm<'_>) -> impl Iterator<Item = PeerId> + 's {
    swarm
        .core
        .peers
        .iter()
        .filter(|p| p.role == PeerRole::External)
        .map(|p| p.id)
}

#[test]
fn deliver_to_probe_paces_per_flow() {
    let (reg, setup) = mini_swarm(1);
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(1),
        latency: LatencyModel::new(1),
    };
    let cfg = SwarmConfig {
        seed: 1,
        duration_us: 1,
        stream: StreamParams::cctv1(),
        profile: small_profile(AppProfile::sopcast()),
    };
    let mut swarm = Swarm::new(cfg, env, setup);
    let (a, b) = {
        let mut ext = externals(&swarm);
        (ext.next().unwrap(), ext.next().unwrap())
    };
    let t0 = netaware_sim::SimTime::from_ms(100);

    // Flow a: two packets arriving "simultaneously" must be spaced by
    // the downlink tx time (probe 0 is a LAN probe: 100 µs for 1250 B).
    let d1 = swarm.core.deliver_to_probe(0, a, t0, 1250);
    let d2 = swarm.core.deliver_to_probe(0, a, t0, 1250);
    assert_eq!(d2 - d1, 100);

    // A different flow is NOT paced against flow a, even if its packet
    // arrives at the same instant.
    let d3 = swarm.core.deliver_to_probe(0, b, t0, 1250);
    assert_eq!(d3, t0);

    // A far-future arrival on flow b must not delay later flow-a packets.
    let far = netaware_sim::SimTime::from_secs(500);
    let _ = swarm.core.deliver_to_probe(0, b, far, 1250);
    let d4 = swarm.core.deliver_to_probe(0, a, t0 + 10_000, 1250);
    assert!(
        d4 < netaware_sim::SimTime::from_secs(1),
        "poisoned by foreign flow: {d4:?}"
    );
}

#[test]
fn modem_probe_coalesces_bursts() {
    let (reg, setup) = mini_swarm(2);
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(2),
        latency: LatencyModel::new(2),
    };
    let cfg = SwarmConfig {
        seed: 2,
        duration_us: 1,
        stream: StreamParams::cctv1(),
        profile: small_profile(AppProfile::sopcast()),
    };
    let mut swarm = Swarm::new(cfg, env, setup);
    // Probe 3 is the DSL home probe (6 Mb/s down): it has a modem.
    assert!(swarm.core.probe_states[3].link.modem.is_some());
    assert!(swarm.core.probe_states[0].link.modem.is_none());
    let a = externals(&swarm).next().unwrap();
    let t0 = netaware_sim::SimTime::from_ms(100);
    // Packets paced at the 6 Mb/s drain (1.67 ms apart) mostly land in
    // the same 10 ms interleave bucket and are delivered 100 µs apart;
    // a train of 6 is guaranteed to contain at least one such pair.
    let deliveries: Vec<_> = (0..6)
        .map(|_| swarm.core.deliver_to_probe(3, a, t0, 1250))
        .collect();
    let min_gap = deliveries
        .windows(2)
        .map(|w| w[1].since(w[0]))
        .min()
        .unwrap();
    assert_eq!(min_gap, 100, "modem burst spacing");
    // And delivery is never before the nominal drain time.
    assert!(deliveries[0] >= t0);
}

#[test]
fn sample_held_uniformity_and_edges() {
    use crate::chunk::{BufferMap, ChunkId};
    use crate::swarm::transfer::sample_held;
    let empty = BufferMap::new();
    assert_eq!(sample_held(&empty, 7), None);

    let mut m = BufferMap::new();
    for c in [2u32, 5, 9] {
        m.insert(ChunkId(c));
    }
    let mut seen = std::collections::BTreeSet::new();
    for pick in 0..30u32 {
        let c = sample_held(&m, pick).unwrap();
        assert!(m.contains(c));
        seen.insert(c.0);
    }
    assert_eq!(seen, [2u32, 5, 9].into_iter().collect());
}

#[test]
fn halo_contacts_appear_as_signaling_only_peers() {
    // Crank the halo rate: the trace must contain many remotes that
    // exchanged only small packets (contacted, never contributing).
    let profile = AppProfile {
        halo_contacts_per_sec: 3.0,
        ..small_profile(AppProfile::sopcast())
    };
    let (set, _) = run_mini(profile, 30, 14);
    let mut signaling_only = 0;
    let mut with_video = 0;
    for t in &set.traces {
        let mut by_remote: std::collections::BTreeMap<Ip, bool> = std::collections::BTreeMap::new();
        for r in t.records_unsorted() {
            let remote = if r.src == t.probe { r.dst } else { r.src };
            let e = by_remote.entry(remote).or_insert(false);
            *e |= r.size >= 1000;
        }
        signaling_only += by_remote.values().filter(|v| !**v).count();
        with_video += by_remote.values().filter(|v| **v).count();
    }
    assert!(signaling_only > 0, "no signaling-only contacts captured");
    assert!(with_video > 0);
}

#[test]
fn demand_stickiness_narrows_the_requester_set() {
    // High stickiness: the same requesters come back; low stickiness:
    // the upload contributor set widens.
    let mk = |stickiness: f64, seed: u64| {
        let profile = AppProfile {
            demand_stickiness: stickiness,
            ..small_profile(AppProfile::sopcast())
        };
        let (set, _) = run_mini(profile, 60, seed);
        // Count distinct remotes the probes sent video to.
        let mut requesters = std::collections::BTreeSet::new();
        for t in &set.traces {
            for r in t.records_unsorted() {
                if r.src == t.probe && r.size >= 1000 {
                    requesters.insert(r.dst);
                }
            }
        }
        requesters.len()
    };
    let sticky = mk(0.95, 15);
    let loose = mk(0.0, 15);
    assert!(
        loose > sticky,
        "stickiness 0.95 → {sticky} requesters, 0.0 → {loose}"
    );
}

#[test]
fn upload_backlog_cap_limits_serving() {
    // A tiny backlog cap forces refusals under the same demand.
    let strict = AppProfile {
        upload_backlog_cap_us: 1, // effectively refuse when busy
        ..small_profile(AppProfile::pplive())
    };
    let (_, strict_report) = run_mini(strict, 30, 16);
    let lax = AppProfile {
        upload_backlog_cap_us: 10_000_000,
        ..small_profile(AppProfile::pplive())
    };
    let (_, lax_report) = run_mini(lax, 30, 16);
    assert!(
        strict_report.chunks_refused > lax_report.chunks_refused,
        "strict {} vs lax {}",
        strict_report.chunks_refused,
        lax_report.chunks_refused
    );
    assert!(
        strict_report.chunks_served_by_probes < lax_report.chunks_served_by_probes,
        "strict should serve less"
    );
}

#[test]
fn per_probe_report_rows_cover_every_probe() {
    let (set, report) = run_mini(small_profile(AppProfile::tvants()), 20, 17);
    assert_eq!(report.per_probe.len(), set.traces.len());
    let probes: std::collections::BTreeSet<Ip> = set.traces.iter().map(|t| t.probe).collect();
    for row in &report.per_probe {
        assert!(probes.contains(&row.probe));
        assert!((0.0..=1.0).contains(&row.continuity));
    }
    let sum: u64 = report.per_probe.iter().map(|p| p.delivered).sum();
    assert_eq!(sum, report.chunks_delivered);
}

// ---------- fault injection & recovery ----------

fn mini_cfg(secs: u64, seed: u64) -> SwarmConfig {
    SwarmConfig {
        seed,
        duration_us: secs * 1_000_000,
        stream: StreamParams::cctv1(),
        profile: small_profile(AppProfile::sopcast()),
    }
}

/// Regression test for the old "drop the request and let the timeout
/// catch it" behaviour: a pending request whose provider departs must
/// move to the prompt re-request queue immediately, not ride out the
/// full request timeout.
#[test]
fn departed_provider_pending_requests_move_to_requeue() {
    let reg = mini_registry();
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(1),
        latency: LatencyModel::new(1),
    };
    let mut swarm = Swarm::new(mini_cfg(1, 1), env, mini_setup(20));
    swarm.set_faults(&netaware_faults::FaultPlan::none().with_flags(None, None, true));

    // Pick an external neighbor of probe 0 (peers: source, 4 probes,
    // then externals — so any neighbor with id >= 5 is external).
    let provider = swarm.core.probe_states[0]
        .disc
        .neighbors()
        .iter()
        .map(|n| n.id)
        .find(|id| id.0 >= 5)
        .expect("bootstrap gave probe 0 an external neighbor");
    let chunk = ChunkId(123);
    swarm.core.probe_states[0]
        .sched
        .pending
        .push(state::Pending {
            chunk,
            provider,
            deadline_us: 10_000_000,
        });
    let neighbors_before = swarm.core.probe_states[0].disc.neighbors().len();

    let mut sched = netaware_sim::Scheduler::new();
    let mut actions = behaviour::Actions::default();
    {
        let Swarm { core, stack } = &mut swarm;
        let mut seq = dispatch::LaneSeqs::new(core.n_probes);
        dispatch::deliver(
            core,
            stack,
            &mut sched,
            &mut actions,
            &mut seq,
            netaware_sim::SimTime::from_ms(100),
            Event::Depart(provider),
            &dispatch::DispatchProf::disabled(),
        );
    }

    let s = &swarm.core.probe_states[0];
    assert!(
        s.sched.pending.iter().all(|p| p.provider != provider),
        "request still pending on a departed peer"
    );
    assert_eq!(
        s.rec.requeue,
        vec![chunk],
        "chunk must be promptly re-queued"
    );
    assert_eq!(
        s.disc.neighbors().len(),
        neighbors_before - 1,
        "departed peer must be evicted"
    );
    assert!(s.disc.neighbors().iter().all(|n| n.id != provider));
    assert_eq!(swarm.core.report.requests_requeued, 1);
    assert_eq!(swarm.core.report.peers_departed, 1);
    // The departed peer's return trip is scheduled.
    assert!(!sched.is_empty());
}

/// `mini_setup` plus three more LAN probes at the first site: seven
/// probes, one per peer slot and one spare.
fn seven_probe_setup(n_ext: usize) -> PeerSetup {
    let mut setup = mini_setup(n_ext);
    for host in 12..15 {
        setup.probes.push(ProbeSpec {
            ip: Ip::from_octets(130, 192, 1, host),
            access: AccessLink::lan(),
        });
    }
    setup
}

/// Runs one behaviour hook on a hand-built `Ctx`; the actions it emits
/// are dropped.
fn run_hook(
    swarm: &mut Swarm<'_>,
    now: netaware_sim::SimTime,
    hook: impl FnOnce(&mut BehaviourStack, &mut Ctx<'_, '_>),
) {
    let mut actions = behaviour::Actions::default();
    let Swarm { core, stack } = swarm;
    let mut ctx = behaviour::Ctx {
        core,
        actions: &mut actions,
        now,
    };
    hook(stack, &mut ctx);
}

/// Eviction scrubs only the probes in the departed peer's holder set,
/// so every site that stores a peer id in a probe's state must mark
/// the presence table. One external is put into each of the six slots,
/// each through its own storing site and at its own probe (and into
/// `sched.pending` a second time, at the last probe, first). After it
/// departs no slot names it, and the re-queue events come in ascending
/// probe order.
#[test]
fn departure_scrubs_every_slot_that_names_the_peer() {
    use netaware_obs::{FieldValue, RingSink};
    use presence::{slots_naming, PEER_SLOTS};
    use std::sync::Arc;

    let reg = mini_registry();
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(7),
        latency: LatencyModel::new(7),
    };
    // No tracker bootstrap: externals enter probe state only where the
    // test puts them.
    let cfg = SwarmConfig {
        profile: AppProfile {
            init_neighbors: 0,
            ..small_profile(AppProfile::sopcast())
        },
        ..mini_cfg(60, 7)
    };
    let mut swarm = Swarm::new(cfg, env, seven_probe_setup(20));
    let sink = Arc::new(RingSink::new(1 << 14));
    swarm.set_obs(Obs::new(sink.clone()));
    let x = externals(&swarm)
        .find(|id| !swarm.core.meta[id.0 as usize].nat)
        .unwrap();
    let now = netaware_sim::SimTime::from_secs(30);
    let probe = |k: usize| PeerId(1 + k as u32);
    let churn = netaware_faults::FaultPlan::none().with_flags(None, None, true);

    // link.ext_up at probe 4: an external serve whose every packet the
    // probe's link drops creates the uplink entry but no flow entry.
    swarm.set_faults(&netaware_faults::FaultPlan {
        link: netaware_faults::LinkFaultPlan {
            loss: 1.0,
            ..Default::default()
        },
        ..churn.clone()
    });
    run_hook(&mut swarm, now, |st, ctx| {
        st.scheduling.on_serve(ctx, x, probe(4), ChunkId(40))
    });
    swarm.set_faults(&churn);

    // disc.neighbors at probe 0: a handshake with a tracker that knows x only.
    let tables = std::mem::replace(
        &mut swarm.stack.discovery.tables,
        state::DiscoveryTables {
            ext_ids: vec![x],
            cum_weights: vec![1.0],
            by_as: std::collections::BTreeMap::new(),
        },
    );
    run_hook(&mut swarm, now, |st, ctx| {
        assert!(
            st.discovery.try_discover(ctx, 0, now.as_us()),
            "handshake with x failed"
        );
    });
    swarm.stack.discovery.tables = tables;

    // sched.pending at probes 6 then 1, and sched.active_requesters at
    // probe 2: x is the probe's only external neighbor for one tick (or
    // one demand arrival), an entry the test adds and removes itself.
    let as_sole_neighbor =
        |swarm: &mut Swarm<'_>, k: usize, hook: &dyn Fn(&mut BehaviourStack, &mut Ctx<'_, '_>)| {
            let entry = swarm.core.neighbor(k, x, u64::MAX);
            let saved = swarm.core.probe_states[k]
                .disc
                .replace_neighbors(vec![entry]);
            run_hook(swarm, now, |st, ctx| hook(st, ctx));
            swarm.core.probe_states[k].disc.replace_neighbors(saved);
        };
    for k in [6, 1] {
        as_sole_neighbor(&mut swarm, k, &|st, ctx| st.scheduling.on_tick(ctx, k));
    }
    as_sole_neighbor(&mut swarm, 2, &|st, ctx| st.scheduling.on_demand(ctx, 2));

    // sched.last_provider at probe 3: x delivers a chunk.
    run_hook(&mut swarm, now, |st, ctx| {
        st.scheduling
            .on_delivered(ctx, probe(3), x, ChunkId(40), 1_000_000)
    });
    // link.last_rx_from at probe 5: the first packet of x's flow.
    swarm.core.deliver_to_probe(5, x, now, 1250);

    let named_at = |swarm: &Swarm<'_>, k: usize| -> Vec<&str> {
        let named = slots_naming(&swarm.core.probe_states[k], x);
        PEER_SLOTS
            .iter()
            .zip(named)
            .filter(|(_, n)| *n)
            .map(|(s, _)| *s)
            .collect()
    };
    let placed = [
        "disc.neighbors",
        "sched.pending",
        "sched.active_requesters",
        "sched.last_provider",
        "link.ext_up",
        "link.last_rx_from",
        "sched.pending",
    ];
    for (k, slot) in placed.into_iter().enumerate() {
        assert_eq!(
            named_at(&swarm, k),
            vec![slot],
            "probe {k} before the departure"
        );
    }
    let pending_on_x = |k: usize| {
        swarm.core.probe_states[k]
            .sched
            .pending
            .iter()
            .filter(|p| p.provider == x)
            .count() as u64
    };
    let (pending_1, pending_6) = (pending_on_x(1), pending_on_x(6));

    let mut sched = netaware_sim::Scheduler::new();
    let mut actions = behaviour::Actions::default();
    {
        let Swarm { core, stack } = &mut swarm;
        let mut seq = dispatch::LaneSeqs::new(core.n_probes);
        dispatch::deliver(
            core,
            stack,
            &mut sched,
            &mut actions,
            &mut seq,
            now,
            Event::Depart(x),
            &dispatch::DispatchProf::disabled(),
        );
    }

    for k in 0..swarm.core.n_probes {
        assert!(
            named_at(&swarm, k).is_empty(),
            "probe {k} still names x: {:?}",
            named_at(&swarm, k)
        );
    }
    let field = |e: &netaware_obs::Event, key: &str| {
        e.fields.iter().find_map(|(k, v)| match (*k == key, v) {
            (true, FieldValue::U64(n)) => Some(*n),
            _ => None,
        })
    };
    let requeues: Vec<(Option<u64>, Option<u64>, Option<u64>)> = sink
        .snapshot()
        .iter()
        .filter(|e| e.target == "swarm.churn.requests_requeued")
        .map(|e| (field(e, "probe"), field(e, "peer"), field(e, "requests")))
        .collect();
    let x_id = Some(u64::from(x.0));
    assert_eq!(
        requeues,
        vec![
            (Some(1), x_id, Some(pending_1)),
            (Some(6), x_id, Some(pending_6))
        ],
        "re-queue events out of probe order"
    );
    assert_eq!(swarm.core.report.requests_requeued, pending_1 + pending_6);
}

/// A churn-heavy run keeps streaming: peers depart and re-arrive, the
/// stranded requests are re-queued, and continuity stays non-degenerate.
#[test]
fn churned_swarm_recovers_and_reports() {
    let reg = mini_registry();
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(21),
        latency: LatencyModel::new(21),
    };
    let mut swarm = Swarm::new(mini_cfg(60, 21), env, mini_setup(80));
    swarm.set_faults(&netaware_faults::FaultPlan::none().with_flags(Some(0.02), None, true));
    let (_, report) = swarm.run();
    assert!(report.peers_departed > 0, "no churn happened");
    assert!(report.peers_arrived > 0, "departed peers never came back");
    assert!(report.packets_dropped > 0, "loss coin never fired");
    assert!(report.chunks_delivered > 0, "stream starved entirely");
    assert!(
        report.continuity() > 0.5,
        "continuity collapsed: {}",
        report.continuity()
    );
}

/// Every neighbor entry's cached facts (role, locality, static lag,
/// inbound TTL, bandwidth term and measured flag) equal a fresh
/// derivation from the peer table, the registry, the path model and the
/// probe states, and each probe's external view equals a fresh filter
/// of its table, total included, bit for bit. Returns how many entries
/// were checked.
fn assert_neighbor_cache_coherent(core: &mut SwarmCore<'_>) -> usize {
    let reg = core.env.registry;
    let (download, upload) = (
        core.cfg.profile.download_policy,
        core.cfg.profile.upload_policy,
    );
    let mut checked = 0;
    for i in 0..core.n_probes {
        let s = &core.probe_states[i];
        let me = core.peers[1 + i].ip;
        let (mut ids, mut weights, mut ttls) = (Vec::new(), Vec::new(), Vec::new());
        for n in s.disc.neighbors() {
            let peer = &core.peers[n.id.0 as usize];
            let ctx = format!("probe {i}, neighbor {}", n.id.0);
            assert_eq!(n.role, peer.role, "{ctx}: role");
            assert_eq!(n.same_subnet, peer.ip.same_subnet(me), "{ctx}: subnet");
            let (asn, my_asn) = (reg.as_of(peer.ip), reg.as_of(me));
            assert_eq!(n.same_as, asn.is_some() && asn == my_asn, "{ctx}: AS");
            let (cc, my_cc) = (reg.country_of(peer.ip), reg.country_of(me));
            assert_eq!(n.same_cc, cc.is_some() && cc == my_cc, "{ctx}: country");
            let hold_lag_us = match peer.role {
                PeerRole::External => state::ext_lag_us(peer.ip),
                PeerRole::Probe => {
                    let q = &core.probe_states[n.id.0 as usize - 1];
                    let interval_us = core.cfg.stream.chunk_interval_us();
                    (2 + q.sched.fetch_lag_chunks as u64) * interval_us
                }
                PeerRole::Source => 0,
            };
            assert_eq!(u64::from(n.hold_lag_us), hold_lag_us, "{ctx}: hold lag");
            let ttl = netaware_net::ttl_at_receiver(core.env.paths.hops(reg, peer.ip, me));
            assert_eq!(n.ttl, ttl, "{ctx}: inbound TTL");
            let est = s.sched.est_bps.get(&n.id).copied();
            assert_eq!(n.measured, est.is_some(), "{ctx}: measured");
            assert_eq!(
                n.bw_term.to_bits(),
                download.bw_term(est).to_bits(),
                "{ctx}: bandwidth term under estimate {est:?}"
            );
            if n.role == PeerRole::External {
                let cand = crate::policy::Candidate {
                    est_up_bps: None,
                    same_subnet: n.same_subnet,
                    same_as: n.same_as,
                    same_cc: n.same_cc,
                    is_last_provider: false,
                };
                ids.push(n.id);
                weights.push(upload.weight(&cand).to_bits());
                ttls.push(ttl);
            }
            checked += 1;
        }
        let total: f64 = weights.iter().map(|&w| f64::from_bits(w)).sum();
        let view = core.probe_states[i].disc.external_view(&upload);
        assert_eq!(view.ids, ids, "probe {i}: external view ids");
        let view_weights: Vec<u64> = view.weights.iter().map(|w| w.to_bits()).collect();
        assert_eq!(view_weights, weights, "probe {i}: external view weights");
        assert_eq!(view.ttls, ttls, "probe {i}: external view TTLs");
        assert_eq!(
            view.total.to_bits(),
            total.to_bits(),
            "probe {i}: external view total"
        );
    }
    checked
}

#[test]
fn neighbor_cache_matches_a_fresh_derivation() {
    use netaware_faults::FaultPlan;
    use std::sync::Arc;
    // Returns the report and how many requests timed out.
    let run = |profile: AppProfile, plan: FaultPlan, seed: u64| {
        let reg = mini_registry();
        let env = NetworkEnv {
            registry: &reg,
            paths: PathModel::new(seed),
            latency: LatencyModel::new(seed),
        };
        let cfg = SwarmConfig {
            profile: small_profile(profile),
            ..mini_cfg(30, seed)
        };
        let mut swarm = Swarm::new(cfg, env, mini_setup(80));
        swarm.set_faults(&plan);
        swarm.set_obs(Obs::new(Arc::new(netaware_obs::NullSink::default())));
        let at_build = assert_neighbor_cache_coherent(&mut swarm.core);
        assert!(at_build > 0, "empty tables at build");
        swarm
            .execute(&mut netaware_trace::MemorySink::new())
            .unwrap();
        let at_end = assert_neighbor_cache_coherent(&mut swarm.core);
        assert!(at_end > 0, "no neighbor entries left to check");
        let timed_out = swarm
            .core
            .obs
            .metrics()
            .and_then(|m| m.counters.get("proto.requests_timed_out").copied())
            .unwrap_or(0);
        (swarm.core.report, timed_out)
    };
    let (clean, _) = run(AppProfile::pplive(), FaultPlan::none(), 41);
    assert!(clean.chunks_delivered > 0);
    // Churn evicts departed neighbors and re-discovers replacements, so
    // the tables end up holding entries made mid-run.
    let churn = FaultPlan::none().with_flags(None, None, true);
    let (churned, _) = run(AppProfile::sopcast(), churn, 42);
    assert!(churned.peers_departed > 0, "no departures");
    assert!(churned.peers_arrived > 0, "no re-arrivals");
    let (pushed, _) = run(AppProfile::epidemic_rp(), FaultPlan::none(), 43);
    assert!(pushed.chunks_pushed > 0, "Epidemic-RP never pushed");
    // Lost packets leave chunks incomplete, so requests time out and the
    // timeout cap re-prices their providers.
    let lossy = FaultPlan::none().with_flags(Some(0.05), None, false);
    let (_, timed_out) = run(AppProfile::pplive(), lossy, 44);
    assert!(timed_out > 0, "no request timed out at 5 % loss");
}

// ---------- per-behaviour units (hand-built Ctx, no dispatcher) ----------

#[test]
fn discovery_tick_evicts_expired_neighbors() {
    let reg = mini_registry();
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(31),
        latency: LatencyModel::new(31),
    };
    let mut swarm = Swarm::new(mini_cfg(1, 31), env, mini_setup(40));
    // Age out one external neighbor entry.
    let mut table = swarm.core.probe_states[0].disc.neighbors().to_vec();
    table
        .iter_mut()
        .find(|n| n.id.0 >= 5)
        .expect("bootstrap gave probe 0 an external neighbor")
        .expires_us = 1;
    swarm.core.probe_states[0].disc.replace_neighbors(table);
    let now = netaware_sim::SimTime::from_secs(10);
    let mut actions = behaviour::Actions::default();
    {
        let Swarm { core, stack } = &mut swarm;
        let mut ctx = behaviour::Ctx {
            core,
            actions: &mut actions,
            now,
        };
        stack.discovery.on_tick(&mut ctx, 0);
    }
    let s = &swarm.core.probe_states[0];
    assert!(
        s.disc
            .neighbors()
            .iter()
            .all(|n| n.expires_us > now.as_us()),
        "expired entry survived the tick"
    );
    assert!(
        actions.queue.is_empty(),
        "discovery tick must not emit actions"
    );
}

/// Each of the four changes to a neighbor table marks its external view
/// stale, so the next read rebuilds it. A run replaces a table only at
/// the bootstrap, before any read, so this test reads the view at one
/// probe between changes of every kind.
#[test]
fn every_table_change_refreshes_the_external_view() {
    let reg = mini_registry();
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(35),
        latency: LatencyModel::new(35),
    };
    let mut swarm = Swarm::new(mini_cfg(1, 35), env, mini_setup(40));
    let upload = swarm.core.cfg.profile.upload_policy;
    let assert_view_current = |swarm: &mut Swarm<'_>, after: &str| {
        let disc = &mut swarm.core.probe_states[0].disc;
        let want: Vec<PeerId> = disc
            .neighbors()
            .iter()
            .filter(|n| n.role == PeerRole::External)
            .map(|n| n.id)
            .collect();
        assert_eq!(disc.external_view(&upload).ids, want, "after {after}");
    };
    assert_view_current(&mut swarm, "the bootstrap");
    let entry = *swarm.core.probe_states[0]
        .disc
        .neighbors()
        .iter()
        .find(|n| n.role == PeerRole::External)
        .expect("bootstrap gave probe 0 an external neighbor");
    let disc = &mut swarm.core.probe_states[0].disc;
    assert!(disc.remove_neighbor(entry.id));
    assert_view_current(&mut swarm, "an eviction");
    swarm.core.probe_states[0].disc.push_neighbor(entry);
    assert_view_current(&mut swarm, "a handshake");
    let disc = &mut swarm.core.probe_states[0].disc;
    let mut table = disc.neighbors().to_vec();
    table.reverse();
    disc.replace_neighbors(table);
    assert_view_current(&mut swarm, "a replaced table");
    // Externals expire; the source and the probes never do.
    swarm.core.probe_states[0].disc.expire(u64::MAX - 1);
    assert_view_current(&mut swarm, "expiry");
    assert!(swarm.core.probe_states[0]
        .disc
        .external_view(&upload)
        .ids
        .is_empty());
}

#[test]
fn recovery_tick_times_out_overdue_requests() {
    let reg = mini_registry();
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(32),
        latency: LatencyModel::new(32),
    };
    let mut swarm = Swarm::new(mini_cfg(1, 32), env, mini_setup(20));
    let download = swarm.core.cfg.profile.download_policy;
    let entry_of = |swarm: &Swarm<'_>, id: PeerId| {
        *swarm.core.probe_states[0]
            .disc
            .neighbors()
            .iter()
            .find(|n| n.id == id)
            .expect("the provider stays in the table")
    };
    let provider = swarm.core.probe_states[0]
        .disc
        .neighbors()
        .iter()
        .find(|n| n.role == PeerRole::External)
        .expect("bootstrap gave probe 0 an external neighbor")
        .id;
    let before = entry_of(&swarm, provider);
    assert!(!before.measured, "fresh entry already measured");
    assert_eq!(before.bw_term.to_bits(), download.bw_term(None).to_bits());
    swarm.core.probe_states[0]
        .sched
        .pending
        .push(state::Pending {
            chunk: ChunkId(9),
            provider,
            deadline_us: 5_000,
        });
    let mut actions = behaviour::Actions::default();
    {
        let Swarm { core, stack } = &mut swarm;
        let mut ctx = behaviour::Ctx {
            core,
            actions: &mut actions,
            now: netaware_sim::SimTime::from_secs(1),
        };
        stack.recovery.on_tick(&mut ctx, 0);
    }
    let s = &swarm.core.probe_states[0];
    assert!(s.sched.pending.is_empty(), "overdue request survived");
    let est = s
        .sched
        .est_bps
        .get(&provider)
        .copied()
        .expect("timed-out provider must get a punitive estimate");
    assert!(est <= 200_000, "punitive estimate too generous: {est}");
    // The provider's entry is re-priced at the punitive estimate.
    let after = entry_of(&swarm, provider);
    assert!(after.measured, "capped provider still unmeasured");
    assert_eq!(
        after.bw_term.to_bits(),
        download.bw_term(Some(est)).to_bits()
    );
    assert_ne!(after.bw_term.to_bits(), before.bw_term.to_bits());
}

#[test]
fn scheduling_delivery_fills_buffer_once() {
    let reg = mini_registry();
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(33),
        latency: LatencyModel::new(33),
    };
    let mut swarm = Swarm::new(mini_cfg(1, 33), env, mini_setup(20));
    let (to, from, chunk) = (crate::peer::PeerId(1), crate::peer::PeerId(0), ChunkId(5));
    let mut actions = behaviour::Actions::default();
    for _ in 0..2 {
        let Swarm { core, stack } = &mut swarm;
        let mut ctx = behaviour::Ctx {
            core,
            actions: &mut actions,
            now: netaware_sim::SimTime::from_ms(500),
        };
        stack
            .scheduling
            .on_delivered(&mut ctx, to, from, chunk, 500_000);
    }
    let s = &swarm.core.probe_states[0];
    assert!(s.sched.bufmap.contains(chunk));
    assert_eq!(s.sched.delivered, 1, "duplicate delivery double-counted");
    assert_eq!(s.sched.est_bps.get(&from), Some(&500_000));
    assert_eq!(s.sched.last_provider, Some(from));
    // The provider's entry (the source is in every table) is re-priced
    // at the delivery's estimate.
    let download = swarm.core.cfg.profile.download_policy;
    let entry = s
        .disc
        .neighbors()
        .iter()
        .find(|n| n.id == from)
        .expect("the source is in every table");
    assert!(entry.measured, "delivering provider still unmeasured");
    assert_eq!(
        entry.bw_term.to_bits(),
        download.bw_term(Some(500_000)).to_bits()
    );
    assert_ne!(entry.bw_term.to_bits(), download.bw_term(None).to_bits());
}

#[test]
fn announce_tick_emits_buffer_maps() {
    let reg = mini_registry();
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(34),
        latency: LatencyModel::new(34),
    };
    let mut swarm = Swarm::new(mini_cfg(1, 34), env, mini_setup(40));
    let before = swarm.core.report.signal_packets;
    let mut actions = behaviour::Actions::default();
    {
        let Swarm { core, stack } = &mut swarm;
        let mut ctx = behaviour::Ctx {
            core,
            actions: &mut actions,
            now: netaware_sim::SimTime::from_secs(1),
        };
        stack.announce.on_tick(&mut ctx, 0);
    }
    assert!(
        swarm.core.report.signal_packets > before,
        "announce tick emitted no signalling"
    );
}

/// Attaching the no-op plan must leave the run byte-identical to never
/// attaching one (the structural zero-draw guarantee).
#[test]
fn noop_fault_plan_is_byte_identical_to_no_plan() {
    let run = |attach_noop: bool| {
        let reg = mini_registry();
        let env = NetworkEnv {
            registry: &reg,
            paths: PathModel::new(5),
            latency: LatencyModel::new(5),
        };
        let mut swarm = Swarm::new(mini_cfg(20, 5), env, mini_setup(40));
        if attach_noop {
            swarm.set_faults(&netaware_faults::FaultPlan::none());
        }
        swarm.run()
    };
    let (a, ra) = run(true);
    let (b, rb) = run(false);
    assert_eq!(ra.chunks_delivered, rb.chunks_delivered);
    assert_eq!(ra.signal_packets, rb.signal_packets);
    for (ta, tb) in a.traces.iter().zip(&b.traces) {
        assert_eq!(ta.records_unsorted(), tb.records_unsorted());
    }
}
