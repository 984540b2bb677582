//! Table II: stream rates, peer counts, contributor counts.
//!
//! "Mean and maximum values, as seen by NAPA-WINE peers, of i) the
//! stream rates (in upload and download directions), ii) the number of
//! peers and iii) the number of contributing peers." Rates are windowed
//! per probe; the mean column averages per-probe means, the max column
//! takes the largest windowed rate any probe saw.

use crate::contributors::{rx_contributor_count, tx_contributor_count};
use crate::flows::ProbeFlows;
use crate::heuristics::AnalysisConfig;
use crate::pass::ProbeRates;
use serde::{Deserialize, Serialize};

/// A mean/max column pair.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct MeanMaxVal {
    /// Mean over probes.
    pub mean: f64,
    /// Maximum over probes (and, for rates, over windows).
    pub max: f64,
}

/// One application's Table II row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AppSummary {
    /// Application name.
    pub app: String,
    /// Download stream rate, kb/s.
    pub rx_kbps: MeanMaxVal,
    /// Upload stream rate, kb/s.
    pub tx_kbps: MeanMaxVal,
    /// Distinct peers seen per probe.
    pub peers: MeanMaxVal,
    /// Download contributors per probe.
    pub contrib_rx: MeanMaxVal,
    /// Upload contributors per probe.
    pub contrib_tx: MeanMaxVal,
}

/// Table II for one experiment: folds the per-probe [`ProbeRates`] and
/// [`ProbeFlows`] of one analysis sweep into the mean/max columns.
/// `rates` and `pfs` must be in the same (trace) order so streaming and
/// in-memory drivers produce bit-identical float accumulation.
pub fn summarize_with_rates(
    app: &str,
    rates: &[ProbeRates],
    pfs: &[ProbeFlows],
    cfg: &AnalysisConfig,
) -> AppSummary {
    let mut rx_kbps = MeanMaxVal::default();
    let mut tx_kbps = MeanMaxVal::default();
    let n = rates.len().max(1) as f64;
    for r in rates {
        rx_kbps.mean += r.rx_mean_kbps / n;
        rx_kbps.max = rx_kbps.max.max(r.rx_max_kbps);
        tx_kbps.mean += r.tx_mean_kbps / n;
        tx_kbps.max = tx_kbps.max.max(r.tx_max_kbps);
    }

    let mut peers = MeanMaxVal::default();
    let mut contrib_rx = MeanMaxVal::default();
    let mut contrib_tx = MeanMaxVal::default();
    let np = pfs.len().max(1) as f64;
    for pf in pfs {
        let seen = pf.peers_seen() as f64;
        let crx = rx_contributor_count(pf, cfg) as f64;
        let ctx = tx_contributor_count(pf, cfg) as f64;
        peers.mean += seen / np;
        peers.max = peers.max.max(seen);
        contrib_rx.mean += crx / np;
        contrib_rx.max = contrib_rx.max.max(crx);
        contrib_tx.mean += ctx / np;
        contrib_tx.max = contrib_tx.max.max(ctx);
    }

    AppSummary {
        app: app.to_string(),
        rx_kbps,
        tx_kbps,
        peers,
        contrib_rx,
        contrib_tx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaware_net::{GeoRegistryBuilder, Ip};
    use netaware_trace::{PacketRecord, PayloadKind, ProbeTrace, TraceSet};
    use std::collections::BTreeSet;

    /// Table II of `set` as the analysis driver computes it.
    fn table2(set: &TraceSet) -> AppSummary {
        let registry = GeoRegistryBuilder::new().build();
        crate::analyze(set, &registry, &AnalysisConfig::default(), &BTreeSet::new()).summary
    }

    fn rec(ts: u64, src: Ip, dst: Ip, size: u16) -> PacketRecord {
        PacketRecord {
            ts_us: ts,
            src,
            dst,
            sport: 1,
            dport: 2,
            size,
            ttl: 110,
            kind: PayloadKind::Video,
        }
    }

    #[test]
    fn constant_rate_stream_measures_correctly() {
        let p = Ip::from_octets(10, 0, 0, 1);
        let e = Ip::from_octets(58, 0, 0, 1);
        let mut set = TraceSet::new("X", 60_000_000);
        let mut t = ProbeTrace::new(p);
        // 48 kB/s down for 60 s = 384 kb/s; no upload.
        for s in 0..60u64 {
            for k in 0..48u64 {
                t.push(rec(s * 1_000_000 + k * 20_000, e, p, 1000));
            }
        }
        set.add(t);
        let sum = table2(&set);
        assert!((sum.rx_kbps.mean - 384.0).abs() < 4.0, "{}", sum.rx_kbps.mean);
        assert!(sum.tx_kbps.mean < 1.0);
        assert_eq!(sum.peers.mean, 1.0);
        assert_eq!(sum.peers.max, 1.0);
        assert_eq!(sum.contrib_rx.max, 1.0);
        assert_eq!(sum.contrib_tx.max, 0.0);
    }

    #[test]
    fn max_exceeds_mean_for_bursty_probes() {
        let p1 = Ip::from_octets(10, 0, 0, 1);
        let p2 = Ip::from_octets(10, 0, 1, 1);
        let e = Ip::from_octets(58, 0, 0, 1);
        let mut set = TraceSet::new("X", 40_000_000);
        let mut t1 = ProbeTrace::new(p1);
        for k in 0..1000u64 {
            t1.push(rec(k * 1_000, p1, e, 1200)); // 1.2 MB burst in w0
        }
        set.add(t1);
        let mut t2 = ProbeTrace::new(p2);
        t2.push(rec(5_000_000, p2, e, 1200));
        set.add(t2);
        let sum = table2(&set);
        assert!(sum.tx_kbps.max > sum.tx_kbps.mean * 1.5);
    }

    #[test]
    fn empty_experiment_is_all_zero() {
        let set = TraceSet::new("X", 1_000_000);
        let sum = table2(&set);
        assert_eq!(sum.peers.mean, 0.0);
        assert_eq!(sum.rx_kbps.max, 0.0);
    }
}
