//! Network-friendliness metrics.
//!
//! The paper's conclusion calls for next-generation P2P-TV systems that
//! "better localize the traffic the network has to carry". This module
//! quantifies that: how much of the video volume crosses AS boundaries
//! (transit, the expensive part for carriers), how much crosses
//! country/continent boundaries, and the mean router distance each byte
//! travels — the cost function a network-aware application should be
//! minimising.

use crate::contributors::{is_rx_contributor, is_tx_contributor};
use crate::flows::ProbeFlows;
use crate::heuristics::AnalysisConfig;
use crate::hop::flow_hops;
use netaware_net::GeoRegistry;
use serde::{Deserialize, Serialize};

/// Traffic-locality summary of one experiment (contributor traffic,
/// both directions, as seen at the probes).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct Friendliness {
    /// Bytes that stayed inside the probe's subnet, %.
    pub subnet_pct: f64,
    /// Bytes that stayed inside the probe's AS (incl. subnet), %.
    pub intra_as_pct: f64,
    /// Bytes that stayed inside the probe's country, %.
    pub intra_cc_pct: f64,
    /// Transit share: bytes that crossed an AS boundary, %.
    pub transit_pct: f64,
    /// Mean router hops per received byte (download side only; hop
    /// counts are only measurable on received packets).
    pub mean_hops_per_byte: f64,
}

/// Computes the friendliness summary over contributor flows.
pub fn friendliness(pfs: &[ProbeFlows], reg: &GeoRegistry, cfg: &AnalysisConfig) -> Friendliness {
    let mut total = 0u64;
    let mut subnet = 0u64;
    let mut intra_as = 0u64;
    let mut intra_cc = 0u64;
    let mut hop_bytes = 0u128;
    let mut hop_total = 0u64;

    for pf in pfs {
        for f in pf.flows.values() {
            let rx = if is_rx_contributor(f, cfg) {
                f.bytes_rx
            } else {
                0
            };
            let tx = if is_tx_contributor(f, cfg) {
                f.bytes_tx
            } else {
                0
            };
            let bytes = rx + tx;
            if bytes == 0 {
                continue;
            }
            total += bytes;
            if f.probe.same_subnet(f.remote) {
                subnet += bytes;
            }
            let same_as = match (reg.as_of(f.probe), reg.as_of(f.remote)) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            if same_as || f.probe.same_subnet(f.remote) {
                intra_as += bytes;
            }
            let same_cc = match (reg.country_of(f.probe), reg.country_of(f.remote)) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            if same_cc || f.probe.same_subnet(f.remote) {
                intra_cc += bytes;
            }
            if rx > 0 {
                if let Some(h) = flow_hops(f.rx_ttl) {
                    hop_bytes += h as u128 * rx as u128;
                    hop_total += rx;
                }
            }
        }
    }
    if total == 0 {
        return Friendliness::default();
    }
    let pct = |x: u64| 100.0 * x as f64 / total as f64;
    Friendliness {
        subnet_pct: pct(subnet),
        intra_as_pct: pct(intra_as),
        intra_cc_pct: pct(intra_cc),
        transit_pct: 100.0 - pct(intra_as),
        mean_hops_per_byte: if hop_total == 0 {
            0.0
        } else {
            hop_bytes as f64 / hop_total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::FlowStats;
    use netaware_net::{AsId, AsInfo, AsKind, CountryCode, GeoRegistryBuilder, Ip, Prefix};

    fn reg() -> GeoRegistry {
        let mut b = GeoRegistryBuilder::new();
        b.register_as(AsInfo::new(2, CountryCode::IT, AsKind::Academic, "GARR"));
        b.register_as(AsInfo::new(
            3,
            CountryCode::IT,
            AsKind::ResidentialIsp,
            "IT-DSL",
        ));
        b.register_as(AsInfo::new(100, CountryCode::CN, AsKind::Carrier, "CN"));
        b.announce(Prefix::of(Ip::from_octets(130, 192, 0, 0), 16), AsId(2))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(151, 0, 0, 0), 16), AsId(3))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(58, 0, 0, 0), 8), AsId(100))
            .unwrap();
        b.build()
    }

    fn contributor_flow(probe: Ip, remote: Ip, bytes: u64, ttl: u8) -> FlowStats {
        FlowStats {
            probe,
            remote,
            bytes_rx: bytes,
            video_bytes_rx: bytes,
            video_pkts_rx: 100,
            rx_ttl: Some(ttl),
            ..Default::default()
        }
    }

    fn pfs(flows: Vec<FlowStats>) -> Vec<ProbeFlows> {
        let mut pf = ProbeFlows {
            probe: flows[0].probe,
            ..Default::default()
        };
        for f in flows {
            pf.flows.insert(f.remote, f);
        }
        vec![pf]
    }

    #[test]
    fn locality_ladder() {
        let probe = Ip::from_octets(130, 192, 1, 1);
        let f = friendliness(
            &pfs(vec![
                contributor_flow(probe, Ip::from_octets(130, 192, 1, 2), 25_000, 128), // subnet
                contributor_flow(probe, Ip::from_octets(130, 192, 9, 2), 25_000, 124), // AS
                contributor_flow(probe, Ip::from_octets(151, 0, 3, 3), 25_000, 118),   // CC
                contributor_flow(probe, Ip::from_octets(58, 1, 1, 1), 25_000, 109), // transit far
            ]),
            &reg(),
            &AnalysisConfig::default(),
        );
        assert!((f.subnet_pct - 25.0).abs() < 1e-9);
        assert!((f.intra_as_pct - 50.0).abs() < 1e-9);
        assert!((f.intra_cc_pct - 75.0).abs() < 1e-9);
        assert!((f.transit_pct - 50.0).abs() < 1e-9);
        // Hops: (0 + 4 + 10 + 19)/4 = 8.25 weighted equally by bytes.
        assert!((f.mean_hops_per_byte - 8.25).abs() < 1e-9);
    }

    #[test]
    fn non_contributors_excluded() {
        let probe = Ip::from_octets(130, 192, 1, 1);
        let mut tiny = contributor_flow(probe, Ip::from_octets(58, 1, 1, 1), 100, 109);
        tiny.video_bytes_rx = 100; // below contributor bar
        tiny.video_pkts_rx = 1;
        let f = friendliness(
            &pfs(vec![
                tiny,
                contributor_flow(probe, Ip::from_octets(130, 192, 1, 2), 25_000, 128),
            ]),
            &reg(),
            &AnalysisConfig::default(),
        );
        assert!((f.intra_as_pct - 100.0).abs() < 1e-9);
        assert_eq!(f.transit_pct, 0.0);
    }

    #[test]
    fn empty_is_default() {
        let f = friendliness(&[], &reg(), &AnalysisConfig::default());
        assert_eq!(f.transit_pct, 0.0);
        assert_eq!(f.mean_hops_per_byte, 0.0);
    }
}
