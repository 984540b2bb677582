//! Figure 2: AS×AS traffic matrix among high-bandwidth probes.
//!
//! "The average amount of traffic transferred from a high bandwidth
//! NAPA-WINE peer belonging to AS-i to a high bandwidth NAPA-WINE peer
//! within AS-j, for all the AS pairs. […] the ratio between the average
//! amount of traffic exchanged among intra-AS peers versus inter-AS peers
//! R" — with same-subnet pairs excluded from R, since LAN-local exchange
//! is the NET effect, not AS awareness.

use crate::flows::ProbeFlows;
use netaware_net::{AsId, GeoRegistry, Ip};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Figure 2 data for one application.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AsMatrix {
    /// ASes hosting high-bandwidth probes, sorted by number.
    pub ases: Vec<u32>,
    /// `avg_bytes[i][j]`: average bytes one probe in `ases[i]` sent to
    /// one probe in `ases[j]` (averaged over ordered host pairs).
    pub avg_bytes: Vec<Vec<f64>>,
    /// Mean intra-AS pair traffic (same AS, different subnet).
    #[serde(with = "crate::preference::nan_as_null")]
    pub intra_mean: f64,
    /// Mean inter-AS pair traffic.
    #[serde(with = "crate::preference::nan_as_null")]
    pub inter_mean: f64,
    /// `R = intra_mean / inter_mean`; `NaN` when either side is empty.
    #[serde(with = "crate::preference::nan_as_null")]
    pub r_ratio: f64,
}

/// Computes Figure 2 over the high-bandwidth probes.
///
/// `highbw_probes` is testbed knowledge (Table I tells which probes sit
/// on institution LANs) — legitimately available to the experimenters.
pub fn as_matrix(pfs: &[ProbeFlows], reg: &GeoRegistry, highbw_probes: &BTreeSet<Ip>) -> AsMatrix {
    // TX bytes per ordered probe pair, read from the sender's trace.
    let mut pair_bytes: BTreeMap<(Ip, Ip), u64> = BTreeMap::new();
    for pf in pfs {
        if !highbw_probes.contains(&pf.probe) {
            continue;
        }
        for f in pf.flows.values() {
            if highbw_probes.contains(&f.remote) && f.bytes_tx > 0 {
                *pair_bytes.entry((pf.probe, f.remote)).or_default() += f.bytes_tx;
            }
        }
    }

    let as_of = |ip: Ip| reg.as_of(ip);
    let mut ases: BTreeSet<AsId> = BTreeSet::new();
    for &p in highbw_probes {
        if let Some(a) = as_of(p) {
            ases.insert(a);
        }
    }
    let ases: Vec<AsId> = ases.into_iter().collect();
    let idx: BTreeMap<AsId, usize> = ases.iter().enumerate().map(|(i, &a)| (a, i)).collect();

    // Sum bytes and count ordered host pairs per AS pair. Every ordered
    // pair of distinct high-bw probes counts in the denominator, whether
    // or not it exchanged traffic.
    let n = ases.len();
    let mut sum = vec![vec![0f64; n]; n];
    let mut cnt = vec![vec![0u64; n]; n];
    let probes: Vec<Ip> = highbw_probes.iter().copied().collect();
    let mut intra = (0f64, 0u64); // same AS, different subnet
    let mut inter = (0f64, 0u64);
    for &a in &probes {
        for &b in &probes {
            if a == b {
                continue;
            }
            let (Some(ia), Some(ib)) = (
                as_of(a).and_then(|x| idx.get(&x)),
                as_of(b).and_then(|x| idx.get(&x)),
            ) else {
                continue;
            };
            let bytes = pair_bytes.get(&(a, b)).copied().unwrap_or(0) as f64;
            sum[*ia][*ib] += bytes;
            cnt[*ia][*ib] += 1;
            if ia == ib {
                if !a.same_subnet(b) {
                    intra.0 += bytes;
                    intra.1 += 1;
                }
            } else {
                inter.0 += bytes;
                inter.1 += 1;
            }
        }
    }

    let avg_bytes = sum
        .into_iter()
        .zip(&cnt)
        .map(|(row, crow)| {
            row.into_iter()
                .zip(crow)
                .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
                .collect()
        })
        .collect();
    let intra_mean = if intra.1 == 0 {
        f64::NAN
    } else {
        intra.0 / intra.1 as f64
    };
    let inter_mean = if inter.1 == 0 {
        f64::NAN
    } else {
        inter.0 / inter.1 as f64
    };
    let r_ratio = if inter_mean > 0.0 {
        intra_mean / inter_mean
    } else {
        f64::NAN
    };

    AsMatrix {
        ases: ases.into_iter().map(|a| a.0).collect(),
        avg_bytes,
        intra_mean,
        inter_mean,
        r_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::FlowStats;
    use netaware_net::{AsInfo, AsKind, CountryCode, GeoRegistryBuilder, Prefix};

    fn reg() -> GeoRegistry {
        let mut b = GeoRegistryBuilder::new();
        b.register_as(AsInfo::new(2, CountryCode::IT, AsKind::Academic, "GARR"));
        b.register_as(AsInfo::new(1, CountryCode::HU, AsKind::Academic, "BME"));
        b.announce(Prefix::of(Ip::from_octets(130, 192, 0, 0), 16), AsId(2))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(152, 66, 0, 0), 16), AsId(1))
            .unwrap();
        b.build()
    }

    fn pf_with_tx(probe: Ip, txs: &[(Ip, u64)]) -> ProbeFlows {
        let mut pf = ProbeFlows {
            probe,
            ..Default::default()
        };
        for &(remote, bytes) in txs {
            pf.flows.insert(
                remote,
                FlowStats {
                    probe,
                    remote,
                    bytes_tx: bytes,
                    ..Default::default()
                },
            );
        }
        pf
    }

    #[test]
    fn r_ratio_detects_as_locality() {
        // Probes: two in AS2 (different subnets), one in AS1.
        let a1 = Ip::from_octets(130, 192, 1, 10);
        let a2 = Ip::from_octets(130, 192, 7, 10); // same AS, other subnet
        let b1 = Ip::from_octets(152, 66, 1, 10);
        let w: BTreeSet<Ip> = [a1, a2, b1].into_iter().collect();
        // a1 sends 100k to its AS-mate, 10k across.
        let pfs = vec![
            pf_with_tx(a1, &[(a2, 100_000), (b1, 10_000)]),
            pf_with_tx(a2, &[(a1, 100_000), (b1, 10_000)]),
            pf_with_tx(b1, &[(a1, 10_000), (a2, 10_000)]),
        ];
        let m = as_matrix(&pfs, &reg(), &w);
        assert_eq!(m.ases, vec![1, 2]);
        assert!(m.r_ratio > 5.0, "R = {}", m.r_ratio);
        // AS2→AS2 average: 2 ordered intra pairs with 100k each.
        assert!((m.avg_bytes[1][1] - 100_000.0).abs() < 1e-6);
    }

    #[test]
    fn same_subnet_pairs_excluded_from_r() {
        // Both AS2 probes share a subnet → no intra-AS (non-subnet)
        // pairs exist, R is NaN even with huge LAN traffic.
        let a1 = Ip::from_octets(130, 192, 1, 10);
        let a2 = Ip::from_octets(130, 192, 1, 11);
        let b1 = Ip::from_octets(152, 66, 1, 10);
        let w: BTreeSet<Ip> = [a1, a2, b1].into_iter().collect();
        let pfs = vec![pf_with_tx(a1, &[(a2, 1_000_000), (b1, 1_000)])];
        let m = as_matrix(&pfs, &reg(), &w);
        assert!(m.intra_mean.is_nan());
        assert!(m.r_ratio.is_nan());
        assert!(m.inter_mean > 0.0);
    }

    #[test]
    fn uniform_traffic_gives_r_near_one() {
        let a1 = Ip::from_octets(130, 192, 1, 10);
        let a2 = Ip::from_octets(130, 192, 7, 10);
        let b1 = Ip::from_octets(152, 66, 1, 10);
        let w: BTreeSet<Ip> = [a1, a2, b1].into_iter().collect();
        let pfs = vec![
            pf_with_tx(a1, &[(a2, 50_000), (b1, 50_000)]),
            pf_with_tx(a2, &[(a1, 50_000), (b1, 50_000)]),
            pf_with_tx(b1, &[(a1, 50_000), (a2, 50_000)]),
        ];
        let m = as_matrix(&pfs, &reg(), &w);
        assert!((m.r_ratio - 1.0).abs() < 1e-9, "R = {}", m.r_ratio);
    }

    #[test]
    fn non_highbw_probes_ignored() {
        let a1 = Ip::from_octets(130, 192, 1, 10);
        let a2 = Ip::from_octets(130, 192, 7, 10);
        let dsl = Ip::from_octets(152, 66, 1, 10);
        let w: BTreeSet<Ip> = [a1, a2].into_iter().collect(); // dsl not high-bw
        let pfs = vec![pf_with_tx(a1, &[(a2, 10_000), (dsl, 999_000)])];
        let m = as_matrix(&pfs, &reg(), &w);
        assert_eq!(m.ases, vec![2]);
        assert!((m.avg_bytes[0][0] - 5_000.0).abs() < 1e-6); // 10k over 2 ordered pairs
    }

    #[test]
    fn empty_input() {
        let m = as_matrix(&[], &reg(), &BTreeSet::new());
        assert!(m.ases.is_empty());
        assert!(m.r_ratio.is_nan());
    }
}
