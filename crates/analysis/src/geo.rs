//! Figure 1: geographical breakdown of peers, received and transmitted
//! bytes.
//!
//! "Percentages are expressed over the total number of observed peers"
//! (and, for RX/TX, over total bytes); China plus the four probe
//! countries are called out, the rest binned as `*`.

use crate::flows::ProbeFlows;
use netaware_net::{CountryCode, GeoRegistry, Ip};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Per-country shares.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct GeoRow {
    /// Country label (`*` = rest of world).
    pub label: String,
    /// % of distinct observed peers.
    pub peers_pct: f64,
    /// % of received bytes.
    pub rx_pct: f64,
    /// % of transmitted bytes.
    pub tx_pct: f64,
}

/// Figure 1 data for one application.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct GeoBreakdown {
    /// Rows in display order (CN, HU, IT, FR, PL, *).
    pub rows: Vec<GeoRow>,
    /// Total distinct peers observed across all probes (the 4 057 /
    /// 550 / 181 729 of the paper).
    pub total_peers: usize,
}

/// Countries the figure names explicitly; everything else goes to `*`.
const NAMED: [CountryCode; 5] = [
    CountryCode::CN,
    CountryCode::HU,
    CountryCode::IT,
    CountryCode::FR,
    CountryCode::PL,
];

fn bucket(reg: &GeoRegistry, ip: Ip) -> &'static str {
    match reg.country_of(ip) {
        Some(cc) if NAMED.contains(&cc) => cc.label(),
        _ => "*",
    }
}

/// Computes Figure 1 for one experiment.
pub fn geo_breakdown(pfs: &[ProbeFlows], reg: &GeoRegistry) -> GeoBreakdown {
    let mut peers_by: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut rx_by: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut tx_by: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut distinct: BTreeSet<Ip> = BTreeSet::new();
    let mut rx_total = 0u64;
    let mut tx_total = 0u64;

    for pf in pfs {
        for f in pf.flows.values() {
            let b = bucket(reg, f.remote);
            if distinct.insert(f.remote) {
                *peers_by.entry(b).or_default() += 1;
            }
            *rx_by.entry(b).or_default() += f.bytes_rx;
            *tx_by.entry(b).or_default() += f.bytes_tx;
            rx_total += f.bytes_rx;
            tx_total += f.bytes_tx;
        }
    }

    let total_peers = distinct.len();
    let labels: Vec<&'static str> = NAMED.iter().map(|c| c.label()).chain(["*"]).collect();
    let pct = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    let rows = labels
        .into_iter()
        .map(|l| GeoRow {
            label: l.to_string(),
            peers_pct: pct(
                peers_by.get(l).copied().unwrap_or(0) as u64,
                total_peers as u64,
            ),
            rx_pct: pct(rx_by.get(l).copied().unwrap_or(0), rx_total),
            tx_pct: pct(tx_by.get(l).copied().unwrap_or(0), tx_total),
        })
        .collect();
    GeoBreakdown { rows, total_peers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::FlowStats;
    use netaware_net::{AsId, AsInfo, AsKind, GeoRegistryBuilder, Prefix};

    fn reg() -> GeoRegistry {
        let mut b = GeoRegistryBuilder::new();
        b.register_as(AsInfo::new(2, CountryCode::IT, AsKind::Academic, "GARR"));
        b.register_as(AsInfo::new(100, CountryCode::CN, AsKind::Carrier, "CN"));
        b.register_as(AsInfo::new(200, CountryCode::US, AsKind::Carrier, "US"));
        b.announce(Prefix::of(Ip::from_octets(130, 192, 0, 0), 16), AsId(2))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(58, 0, 0, 0), 8), AsId(100))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(12, 0, 0, 0), 8), AsId(200))
            .unwrap();
        b.build()
    }

    fn flow(probe: Ip, remote: Ip, rx: u64, tx: u64) -> FlowStats {
        FlowStats {
            probe,
            remote,
            bytes_rx: rx,
            bytes_tx: tx,
            ..Default::default()
        }
    }

    #[test]
    fn shares_sum_to_100() {
        let p = Ip::from_octets(130, 192, 1, 1);
        let mut pf = ProbeFlows {
            probe: p,
            ..Default::default()
        };
        pf.flows.insert(
            Ip::from_octets(58, 1, 1, 1),
            flow(p, Ip::from_octets(58, 1, 1, 1), 70, 10),
        );
        pf.flows.insert(
            Ip::from_octets(130, 192, 5, 5),
            flow(p, Ip::from_octets(130, 192, 5, 5), 20, 30),
        );
        pf.flows.insert(
            Ip::from_octets(12, 1, 1, 1),
            flow(p, Ip::from_octets(12, 1, 1, 1), 10, 60),
        );
        let g = geo_breakdown(&[pf], &reg());
        let peers: f64 = g.rows.iter().map(|r| r.peers_pct).sum();
        let rx: f64 = g.rows.iter().map(|r| r.rx_pct).sum();
        let tx: f64 = g.rows.iter().map(|r| r.tx_pct).sum();
        assert!((peers - 100.0).abs() < 1e-9);
        assert!((rx - 100.0).abs() < 1e-9);
        assert!((tx - 100.0).abs() < 1e-9);
        assert_eq!(g.total_peers, 3);
    }

    #[test]
    fn us_peers_fold_into_star() {
        let p = Ip::from_octets(130, 192, 1, 1);
        let us = Ip::from_octets(12, 1, 1, 1);
        let mut pf = ProbeFlows {
            probe: p,
            ..Default::default()
        };
        pf.flows.insert(us, flow(p, us, 100, 0));
        let g = geo_breakdown(&[pf], &reg());
        let star = g.rows.iter().find(|r| r.label == "*").unwrap();
        assert!((star.peers_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn distinct_peers_counted_once_across_probes() {
        let p1 = Ip::from_octets(130, 192, 1, 1);
        let p2 = Ip::from_octets(130, 192, 2, 1);
        let shared = Ip::from_octets(58, 1, 1, 1);
        let mk = |probe: Ip| {
            let mut pf = ProbeFlows {
                probe,
                ..Default::default()
            };
            pf.flows.insert(shared, flow(probe, shared, 10, 10));
            pf
        };
        let g = geo_breakdown(&[mk(p1), mk(p2)], &reg());
        assert_eq!(g.total_peers, 1);
    }

    #[test]
    fn rows_in_paper_order() {
        let g = geo_breakdown(&[], &reg());
        let labels: Vec<&str> = g.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, vec!["CN", "HU", "IT", "FR", "PL", "*"]);
    }
}
