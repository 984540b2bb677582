//! Scenario assembly: registry, probes, population, network models.
//!
//! The address/AS plan mirrors the paper's setup:
//!
//! * six institution ASes (`AS1`–`AS6`) hosting the seven sites — PoliTO
//!   and UniTN share `AS2` (both on the Italian NREN) but sit in
//!   different subnets, which is exactly what makes Fig. 2's
//!   intra-AS-but-not-subnet cell measurable;
//! * one residential-ISP AS per home probe ("ASx" rows), shared with
//!   that country's external DSL population, so probes can have genuine
//!   same-AS external peers;
//! * four Chinese carrier ASes holding the bulk of the audience;
//! * a handful of rest-of-world ASes feeding the `*` bin of Fig. 1;
//! * a small academic-external contingent inside `AS1`–`AS6` (students
//!   watching the same channel from campus networks).

use crate::hosts::{table1_hosts, HostDef, SITES};
use crate::population::{generate, AccessMix, PopulationConfig, PopulationSlot};
use netaware_net::{
    AccessLink, AddressAllocator, AsId, AsInfo, AsKind, CountryCode, GeoRegistry,
    GeoRegistryBuilder, Ip, LatencyModel, PathModel, Prefix,
};
use netaware_proto::{ExternalSpec, ProbeSpec};
use std::collections::BTreeSet;

/// Scenario-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioConfig {
    /// Master seed (network models, population, swarm all derive from
    /// it).
    pub seed: u64,
    /// Population scale: 1.0 = the paper's overlay sizes; tests and CI
    /// run at a few percent.
    pub scale: f64,
    /// Fraction of the external population in China (the paper measured
    /// ≈0.87 for CCTV-1 at China peak hours). The European, academic and
    /// rest-of-world shares scale proportionally into the remainder —
    /// the knob behind the population-composition robustness experiment.
    pub cn_fraction: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 42,
            scale: 1.0,
            cn_fraction: 0.87,
        }
    }
}

/// A fully assembled scenario, ready to hand to a swarm.
pub struct BuiltScenario {
    /// The geolocation registry covering every participant.
    pub registry: GeoRegistry,
    /// Probe specs, parallel to `probe_hosts`.
    pub probes: Vec<ProbeSpec>,
    /// Table I rows behind each probe.
    pub probe_hosts: Vec<HostDef>,
    /// The external population (scaled).
    pub externals: Vec<ExternalSpec>,
    /// The broadcast source.
    pub source: ExternalSpec,
    /// High-bandwidth probe addresses (Table I knowledge, for Fig. 2).
    pub highbw_probe_ips: BTreeSet<Ip>,
    /// Hop model.
    pub paths: PathModel,
    /// Delay model.
    pub latency: LatencyModel,
}

const AS_ACADEMIC: [(u32, &str, CountryCode, [u8; 2]); 6] = [
    (1, "AS1-BME", CountryCode::HU, [152, 66]),
    (2, "AS2-GARR", CountryCode::IT, [130, 192]),
    (3, "AS3-MT", CountryCode::HU, [193, 6]),
    (4, "AS4-ENST", CountryCode::FR, [137, 194]),
    (5, "AS5-FFT", CountryCode::FR, [193, 252]),
    (6, "AS6-WUT", CountryCode::PL, [194, 29]),
];

/// Residential ISP ASes: id, name, country, /16 prefix. The first six
/// host the Table I home probes; the rest only external population.
const AS_RESIDENTIAL: [(u32, &str, CountryCode, [u8; 2]); 8] = [
    (301, "ISP-HU-A", CountryCode::HU, [84, 1]),
    (302, "ISP-IT-A", CountryCode::IT, [84, 2]),
    (303, "ISP-IT-B", CountryCode::IT, [84, 3]),
    (304, "ISP-FR-A", CountryCode::FR, [84, 4]),
    (305, "ISP-IT-C", CountryCode::IT, [84, 5]),
    (306, "ISP-PL-A", CountryCode::PL, [84, 6]),
    (307, "ISP-FR-B", CountryCode::FR, [84, 7]),
    (308, "ISP-HU-B", CountryCode::HU, [84, 8]),
];

const AS_CN: [(u32, &str, [u8; 2], f64); 4] = [
    (100, "CN-NET-A", [58, 0], 0.40),
    (101, "CN-NET-B", [59, 0], 0.28),
    (102, "CN-NET-C", [60, 0], 0.20),
    (103, "CN-NET-D", [61, 0], 0.12),
];

const AS_WORLD: [(u32, &str, CountryCode, [u8; 2]); 7] = [
    (400, "US-NET", CountryCode::US, [12, 0]),
    (401, "JP-NET", CountryCode::JP, [126, 0]),
    (402, "KR-NET", CountryCode::KR, [121, 128]),
    (403, "TW-NET", CountryCode::TW, [114, 32]),
    (404, "DE-NET", CountryCode::DE, [91, 0]),
    (405, "GB-NET", CountryCode::GB, [86, 0]),
    (406, "RU-NET", CountryCode::RU, [95, 0]),
];

/// Which residential AS hosts each Table I home probe.
fn home_as_for(site: &str, host: u8) -> u32 {
    match (site, host) {
        ("BME", _) => 301,
        ("PoliTO", 10) => 302,
        ("PoliTO", _) => 303,
        ("ENST", _) => 304,
        ("UniTN", _) => 305,
        ("WUT", _) => 306,
        _ => 302,
    }
}

impl BuiltScenario {
    /// Assembles the testbed for an overlay of `overlay_size` external
    /// peers (before scaling).
    pub fn build(cfg: &ScenarioConfig, overlay_size: usize) -> Self {
        let mut b = GeoRegistryBuilder::new();

        // The AS tables are compile-time constants with disjoint prefixes,
        // so registration cannot fail at runtime.
        for (id, name, cc, p) in AS_ACADEMIC {
            b.register_as(AsInfo::new(id, cc, AsKind::Academic, name));
            #[expect(clippy::expect_used, reason = "const table, disjoint by construction")]
            b.announce(Prefix::of(Ip::from_octets(p[0], p[1], 0, 0), 16), AsId(id))
                .expect("academic prefix");
        }
        for (id, name, cc, p) in AS_RESIDENTIAL {
            b.register_as(AsInfo::new(id, cc, AsKind::ResidentialIsp, name));
            #[expect(clippy::expect_used, reason = "const table, disjoint by construction")]
            b.announce(Prefix::of(Ip::from_octets(p[0], p[1], 0, 0), 16), AsId(id))
                .expect("residential prefix");
        }
        for (id, name, p, _) in AS_CN {
            b.register_as(AsInfo::new(id, CountryCode::CN, AsKind::Carrier, name));
            #[expect(clippy::expect_used, reason = "const table, disjoint by construction")]
            b.announce(Prefix::of(Ip::from_octets(p[0], p[1], 0, 0), 10), AsId(id))
                .expect("CN prefix");
        }
        for (id, name, cc, p) in AS_WORLD {
            b.register_as(AsInfo::new(id, cc, AsKind::Carrier, name));
            #[expect(clippy::expect_used, reason = "const table, disjoint by construction")]
            b.announce(Prefix::of(Ip::from_octets(p[0], p[1], 0, 0), 12), AsId(id))
                .expect("world prefix");
        }
        let registry = b.build();

        // ---- Probes: each site gets a /24 inside its institution AS;
        // home probes get addresses inside their ISP's space.
        let hosts = table1_hosts();
        let mut probes = Vec::with_capacity(hosts.len());
        let mut highbw = BTreeSet::new();
        let mut home_allocs: std::collections::BTreeMap<u32, AddressAllocator> =
            std::collections::BTreeMap::new();
        for h in &hosts {
            let site = h.site_def();
            let ip = if h.home {
                let asn = home_as_for(h.site, h.host);
                #[expect(clippy::expect_used, reason = "home_as_for only returns table ids")]
                let (_, _, _, p) = AS_RESIDENTIAL
                    .iter()
                    .find(|(id, ..)| *id == asn)
                    .expect("home AS registered");
                let alloc = home_allocs.entry(asn).or_insert_with(|| {
                    AddressAllocator::dense(Prefix::of(
                        Ip::from_octets(p[0], p[1], 77, 0),
                        24,
                    ))
                });
                #[expect(clippy::expect_used, reason = "a /24 holds every Table-1 home host")]
                alloc.next_ip().expect("home subnet has room")
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "every SITES label appears in AS_ACADEMIC"
                )]
                let (_, _, _, p) = AS_ACADEMIC
                    .iter()
                    .find(|(_, name, ..)| name.starts_with(site.as_label))
                    .expect("site AS registered");
                // Site subnet: one /24 per site, numbered by site index.
                #[expect(clippy::unwrap_used, reason = "host site names come from SITES itself")]
                let site_idx = SITES.iter().position(|s| s.name == h.site).unwrap() as u8;
                Ip::from_octets(p[0], p[1], 10 + site_idx, h.host)
            };
            let mut access = AccessLink::open(h.access);
            access.nat = h.nat;
            access.firewall = h.fw;
            probes.push(ProbeSpec { ip, access });
            if h.is_high_bw() {
                highbw.insert(ip);
            }
        }

        // ---- External population slots. Non-CN shares were designed
        // against the paper's 13% remainder; rescale them into whatever
        // remainder the configured CN fraction leaves.
        let cn_fraction = cfg.cn_fraction.clamp(0.0, 1.0);
        let rest_scale = (1.0 - cn_fraction) / 0.13;
        let mut slots = Vec::new();
        for (_, _, p, w) in AS_CN {
            slots.push(PopulationSlot {
                prefix: Prefix::of(Ip::from_octets(p[0], p[1], 0, 0), 10),
                weight: cn_fraction * w,
                mix: AccessMix::CnCarrier,
            });
        }
        // EU residential: HU 1%, IT 2%, FR 1.5%, PL 1% split across that
        // country's ISP ASes.
        let eu_weight = |cc: CountryCode| match cc {
            CountryCode::HU => 0.010,
            CountryCode::IT => 0.020,
            CountryCode::FR => 0.015,
            CountryCode::PL => 0.010,
            _ => 0.0,
        };
        for cc in [CountryCode::HU, CountryCode::IT, CountryCode::FR, CountryCode::PL] {
            let ases: Vec<_> = AS_RESIDENTIAL.iter().filter(|(_, _, c, _)| *c == cc).collect();
            for (_, _, _, p) in &ases {
                slots.push(PopulationSlot {
                    prefix: Prefix::of(Ip::from_octets(p[0], p[1], 0, 0), 16),
                    weight: rest_scale * eu_weight(cc) / ases.len() as f64,
                    mix: AccessMix::EuResidential,
                });
            }
        }
        // Academic externals: 0.3% spread over the six institution ASes,
        // in subnets away from the probe sites.
        for (_, _, _, p) in AS_ACADEMIC {
            slots.push(PopulationSlot {
                prefix: Prefix::of(Ip::from_octets(p[0], p[1], 128, 0), 17),
                weight: rest_scale * 0.003 / 6.0,
                mix: AccessMix::Academic,
            });
        }
        // Rest of world.
        for (_, _, _, p) in AS_WORLD {
            slots.push(PopulationSlot {
                prefix: Prefix::of(Ip::from_octets(p[0], p[1], 0, 0), 12),
                weight: rest_scale * 0.072 / 7.0,
                mix: AccessMix::Other,
            });
        }

        let size = ((overlay_size as f64) * cfg.scale).ceil().max(1.0) as usize;
        let mut externals = generate(
            &slots,
            &PopulationConfig {
                size,
                seed: cfg.seed ^ 0x9E37,
            },
        );

        // The CCTV-1 ingest: a high-capacity server in CN-NET-A.
        let source = ExternalSpec {
            ip: Ip::from_octets(58, 10, 0, 1),
            access: AccessLink::lan(),
        };

        // The scattered allocators roam whole ISP prefixes, which include
        // the home-probe subnets: drop the rare collisions.
        let taken: std::collections::BTreeSet<Ip> = probes
            .iter()
            .map(|p| p.ip)
            .chain([source.ip])
            .collect();
        externals.retain(|e| !taken.contains(&e.ip));

        BuiltScenario {
            registry,
            probes,
            probe_hosts: hosts,
            externals,
            source,
            highbw_probe_ips: highbw,
            paths: PathModel::new(cfg.seed ^ 0xA11),
            latency: LatencyModel::new(cfg.seed ^ 0x1A7),
        }
    }

    /// Simulator ground truth for grading the passive inferences
    /// (never visible to the analysis itself).
    pub fn ground_truth(&self) -> netaware_analysis::validation::GroundTruth {
        let mut t = netaware_analysis::validation::GroundTruth::default();
        for e in &self.externals {
            if e.access.class.is_high_bw() {
                t.high_bw.insert(e.ip);
            }
        }
        if self.source.access.class.is_high_bw() {
            t.high_bw.insert(self.source.ip);
        }
        for p in &self.probes {
            if p.access.class.is_high_bw() {
                t.high_bw.insert(p.ip);
            }
            if p.access.class.down_bps() <= 10_000_000 {
                t.narrow_probes.insert(p.ip);
            }
        }
        t
    }

    /// The probe set as peer specs for [`netaware_proto::PeerSetup`].
    pub fn peer_setup(&self) -> netaware_proto::PeerSetup {
        netaware_proto::PeerSetup {
            source: self.source.clone(),
            probes: self.probes.clone(),
            externals: self.externals.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_small() -> BuiltScenario {
        BuiltScenario::build(
            &ScenarioConfig {
                seed: 1,
                scale: 1.0,
                ..Default::default()
            },
            2_000,
        )
    }

    #[test]
    fn probe_count_matches_table1() {
        let s = build_small();
        assert_eq!(s.probes.len(), 46);
        assert_eq!(s.probe_hosts.len(), 46);
        assert_eq!(s.highbw_probe_ips.len(), 39);
    }

    #[test]
    fn every_probe_resolves_in_registry() {
        let s = build_small();
        for (p, h) in s.probes.iter().zip(&s.probe_hosts) {
            let asn = s.registry.as_of(p.ip).expect("probe must resolve");
            let cc = s.registry.country_of(p.ip).unwrap();
            assert_eq!(cc, h.site_def().cc, "{}:{}", h.site, h.host);
            if h.home {
                assert!(asn.0 >= 300, "home probe must sit in an ISP AS");
            } else {
                assert!(asn.0 <= 6, "site probe must sit in AS1–AS6");
            }
        }
    }

    #[test]
    fn polito_and_unitn_same_as_different_subnet() {
        let s = build_small();
        let polito = s
            .probes
            .iter()
            .zip(&s.probe_hosts)
            .find(|(_, h)| h.site == "PoliTO" && !h.home)
            .unwrap()
            .0
            .ip;
        let unitn = s
            .probes
            .iter()
            .zip(&s.probe_hosts)
            .find(|(_, h)| h.site == "UniTN" && !h.home)
            .unwrap()
            .0
            .ip;
        assert_eq!(s.registry.as_of(polito), s.registry.as_of(unitn));
        assert!(!polito.same_subnet(unitn));
    }

    #[test]
    fn site_hosts_share_a_subnet() {
        let s = build_small();
        let wut: Vec<Ip> = s
            .probes
            .iter()
            .zip(&s.probe_hosts)
            .filter(|(_, h)| h.site == "WUT" && !h.home)
            .map(|(p, _)| p.ip)
            .collect();
        assert!(wut.len() >= 2);
        assert!(wut.windows(2).all(|w| w[0].same_subnet(w[1])));
    }

    #[test]
    fn population_is_cn_dominant_and_resolvable() {
        let s = build_small();
        let mut cn = 0;
        for e in &s.externals {
            let cc = s
                .registry
                .country_of(e.ip)
                .expect("external must resolve");
            if cc == CountryCode::CN {
                cn += 1;
            }
        }
        let frac = cn as f64 / s.externals.len() as f64;
        assert!((0.82..0.92).contains(&frac), "CN fraction {frac}");
    }

    #[test]
    fn some_externals_share_probe_ases() {
        let s = build_small();
        let probe_as: std::collections::BTreeSet<_> = s
            .probes
            .iter()
            .filter_map(|p| s.registry.as_of(p.ip))
            .collect();
        let same_as_ext = s
            .externals
            .iter()
            .filter(|e| {
                s.registry
                    .as_of(e.ip)
                    .is_some_and(|a| probe_as.contains(&a))
            })
            .count();
        assert!(
            same_as_ext > 5,
            "population must include same-AS externals, got {same_as_ext}"
        );
    }

    #[test]
    fn scale_shrinks_population() {
        let full = BuiltScenario::build(&ScenarioConfig { seed: 1, scale: 1.0, ..Default::default() }, 4_000);
        let tenth = BuiltScenario::build(&ScenarioConfig { seed: 1, scale: 0.1, ..Default::default() }, 4_000);
        // Exact counts minus the rare probe-address collisions.
        assert!((3_995..=4_000).contains(&full.externals.len()));
        assert!((395..=400).contains(&tenth.externals.len()));
    }

    #[test]
    fn no_external_collides_with_probes() {
        let s = build_small();
        let probe_ips: std::collections::BTreeSet<Ip> = s.probes.iter().map(|p| p.ip).collect();
        for e in &s.externals {
            assert!(!probe_ips.contains(&e.ip));
        }
    }

    #[test]
    fn source_is_chinese_lan() {
        let s = build_small();
        assert_eq!(s.registry.country_of(s.source.ip), Some(CountryCode::CN));
        assert!(s.source.access.class.is_high_bw());
    }
}
