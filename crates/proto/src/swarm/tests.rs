//! Swarm behaviour tests on a miniature scenario.

use super::*;
use crate::chunk::{ChunkId, StreamParams};
use crate::profiles::AppProfile;
use crate::swarm::state::{ExternalSpec, PeerSetup, ProbeSpec};
use netaware_net::{
    AccessClass, AccessLink, AsId, AsInfo, AsKind, CountryCode, GeoRegistry, GeoRegistryBuilder,
    Ip, LatencyModel, PathModel, Prefix,
};
use netaware_trace::{Direction, PayloadKind, TraceView};

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
    let reg = mini_registry();
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(seed),
        latency: LatencyModel::new(seed),
    };
    let cfg = SwarmConfig {
        seed,
        duration_us: secs * 1_000_000,
        stream: StreamParams::cctv1(),
        profile,
    };
    let swarm = Swarm::new(cfg, env, mini_setup(80));
    swarm.run()
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
        let v = TraceView::of(t)
            .direction(Direction::Rx)
            .window(20_000_000, 60_000_000)
            .min_size(1000);
        let kbps = v.bytes() as f64 * 8.0 / 40.0 / 1000.0;
        assert!(
            (250.0..700.0).contains(&kbps),
            "probe {} RX video rate {kbps} kb/s",
            t.probe
        );
    }
    assert!(report.continuity() > 0.9, "continuity {}", report.continuity());
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
    let trace = set
        .traces
        .iter()
        .find(|t| t.probe == lan_probe)
        .unwrap();
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
    assert!(
        n_pp > n_tv,
        "PPLive contacted {n_pp} ≤ TVAnts {n_tv}"
    );
}

#[test]
fn upload_factor_orders_tx_volume() {
    let (set_pp, _) = run_mini(small_profile(AppProfile::pplive()), 60, 11);
    let (set_sc, _) = run_mini(small_profile(AppProfile::sopcast()), 60, 11);
    let tx_bytes = |set: &netaware_trace::TraceSet| -> u64 {
        set.traces
            .iter()
            .map(|t| TraceView::of(t).direction(Direction::Tx).min_size(1000).bytes())
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
    assert!(report.chunks_delivered > 0, "source alone must sustain the stream");
}

// ---------- transfer-layer internals ----------

fn mini_swarm(_seed: u64) -> (netaware_net::GeoRegistry, PeerSetup) {
    (mini_registry(), mini_setup(20))
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
    let a = crate::peer::PeerId(50); // some external
    let b = crate::peer::PeerId(51); // another external
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
    assert!(d4 < netaware_sim::SimTime::from_secs(1), "poisoned by foreign flow: {d4:?}");
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
    let a = crate::peer::PeerId(50);
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
    swarm.set_faults(&netaware_faults::FaultPlan::from_flags(None, None, true));

    // Pick an external neighbor of probe 0 (peers: source, 4 probes,
    // then externals — so any neighbor with id >= 5 is external).
    let provider = swarm.core.probe_states[0]
        .disc
        .neighbors
        .iter()
        .map(|n| n.id)
        .find(|id| id.0 >= 5)
        .expect("bootstrap gave probe 0 an external neighbor");
    let chunk = ChunkId(123);
    swarm.core.probe_states[0].sched.pending.push(state::Pending {
        chunk,
        provider,
        deadline_us: 10_000_000,
    });
    let neighbors_before = swarm.core.probe_states[0].disc.neighbors.len();

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
    assert_eq!(s.rec.requeue, vec![chunk], "chunk must be promptly re-queued");
    assert_eq!(s.disc.neighbors.len(), neighbors_before - 1, "departed peer must be evicted");
    assert!(s.disc.neighbors.iter().all(|n| n.id != provider));
    assert_eq!(swarm.core.report.requests_requeued, 1);
    assert_eq!(swarm.core.report.peers_departed, 1);
    // The departed peer's return trip is scheduled.
    assert!(!sched.is_empty());
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
    swarm.set_faults(&netaware_faults::FaultPlan::from_flags(Some(0.02), None, true));
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

/// Every neighbor entry's cached facts — role, locality, static lag —
/// equal a fresh derivation from the peer table, the registry and the
/// probe states. Returns how many entries were checked.
fn assert_neighbor_cache_coherent(core: &SwarmCore<'_>) -> usize {
    let reg = core.env.registry;
    let mut checked = 0;
    for (i, s) in core.probe_states.iter().enumerate() {
        let me = core.peers[1 + i].ip;
        for n in &s.disc.neighbors {
            let peer = &core.peers[n.id.0 as usize];
            let ctx = format!("probe {i}, neighbor {}", n.id.0);
            assert_eq!(n.role, peer.role, "{ctx}: role");
            assert_eq!(n.same_subnet, peer.ip.same_subnet(me), "{ctx}: subnet");
            let (asn, my_asn) = (reg.as_of(peer.ip), reg.as_of(me));
            assert_eq!(n.same_as, asn.is_some() && asn == my_asn, "{ctx}: AS");
            let (cc, my_cc) = (reg.country_of(peer.ip), reg.country_of(me));
            assert_eq!(n.same_cc, cc.is_some() && cc == my_cc, "{ctx}: country");
            let (lag_us, fetch_lag_chunks) = match peer.role {
                PeerRole::External => (state::ext_lag_us(peer.ip), 0),
                PeerRole::Probe => {
                    let q = &core.probe_states[n.id.0 as usize - 1];
                    (0, q.sched.fetch_lag_chunks)
                }
                PeerRole::Source => (0, 0),
            };
            assert_eq!(n.lag_us, lag_us, "{ctx}: playout lag");
            assert_eq!(n.fetch_lag_chunks, fetch_lag_chunks, "{ctx}: fetch lag");
            checked += 1;
        }
    }
    checked
}

#[test]
fn neighbor_cache_matches_a_fresh_derivation() {
    let run = |profile: AppProfile, churn: bool, seed: u64| {
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
        if churn {
            swarm.set_faults(&netaware_faults::FaultPlan::from_flags(None, None, true));
        }
        let at_build = assert_neighbor_cache_coherent(&swarm.core);
        assert!(at_build > 0, "empty tables at build");
        swarm.execute();
        let at_end = assert_neighbor_cache_coherent(&swarm.core);
        assert!(at_end > 0, "no neighbor entries left to check");
        swarm.core.report
    };
    let clean = run(AppProfile::pplive(), false, 41);
    assert!(clean.chunks_delivered > 0);
    // Churn evicts departed neighbors and re-discovers replacements, so
    // the tables end up holding entries made mid-run.
    let churned = run(AppProfile::sopcast(), true, 42);
    assert!(churned.peers_departed > 0, "no departures");
    assert!(churned.peers_arrived > 0, "no re-arrivals");
    let pushed = run(AppProfile::epidemic_rp(), false, 43);
    assert!(pushed.chunks_pushed > 0, "Epidemic-RP never pushed");
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
    swarm.core.probe_states[0]
        .disc
        .neighbors
        .iter_mut()
        .find(|n| n.id.0 >= 5)
        .expect("bootstrap gave probe 0 an external neighbor")
        .expires_us = 1;
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
        s.disc.neighbors.iter().all(|n| n.expires_us > now.as_us()),
        "expired entry survived the tick"
    );
    assert!(actions.queue.is_empty(), "discovery tick must not emit actions");
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
    let provider = crate::peer::PeerId(6);
    swarm.core.probe_states[0].sched.pending.push(state::Pending {
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
        stack.scheduling.on_delivered(&mut ctx, to, from, chunk, 500_000);
    }
    let s = &swarm.core.probe_states[0];
    assert!(s.sched.bufmap.contains(chunk));
    assert_eq!(s.sched.delivered, 1, "duplicate delivery double-counted");
    assert_eq!(s.sched.est_bps.get(&from), Some(&500_000));
    assert_eq!(s.sched.last_provider, Some(from));
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

/// The dispatcher must run custom behaviours (after the built-ins) on
/// every event, without any dispatcher or state-core change.
#[test]
fn dispatcher_runs_custom_behaviours() {
    use std::cell::Cell;
    use std::rc::Rc;

    struct TickSpy {
        ticks: Rc<Cell<u64>>,
    }
    impl Behaviour for TickSpy {
        fn on_tick(&mut self, _ctx: &mut Ctx<'_, '_>, _i: usize) {
            self.ticks.set(self.ticks.get() + 1);
        }
    }

    let reg = mini_registry();
    let env = NetworkEnv {
        registry: &reg,
        paths: PathModel::new(35),
        latency: LatencyModel::new(35),
    };
    let mut swarm = Swarm::new(mini_cfg(1, 35), env, mini_setup(20));
    let ticks = Rc::new(Cell::new(0));
    swarm.push_behaviour(Box::new(TickSpy { ticks: ticks.clone() }));

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
            Event::Tick(0),
            &dispatch::DispatchProf::disabled(),
        );
    }
    assert_eq!(ticks.get(), 1, "custom behaviour hook not dispatched");
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
