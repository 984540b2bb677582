//! Per-remote flow aggregation.
//!
//! One linear pass over each probe's (time-sorted) trace produces a
//! [`FlowStats`] per remote endpoint — the unit everything downstream
//! (contributor classification, partitions, preference sums) operates
//! on. Probes aggregate independently, so the whole step is a rayon
//! `par_iter` over probes.

use crate::heuristics::AnalysisConfig;
use crate::pass::{run_pass, FlowPass};
use netaware_net::Ip;
use netaware_trace::{ProbeTrace, TraceSet};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregated statistics of one probe↔remote flow.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowStats {
    /// The probe that captured the flow.
    pub probe: Ip,
    /// The remote endpoint.
    pub remote: Ip,
    /// Packets received from the remote.
    pub pkts_rx: u64,
    /// Packets sent to the remote.
    pub pkts_tx: u64,
    /// Bytes received from the remote.
    pub bytes_rx: u64,
    /// Bytes sent to the remote.
    pub bytes_tx: u64,
    /// Received bytes in video-sized packets.
    pub video_bytes_rx: u64,
    /// Sent bytes in video-sized packets.
    pub video_bytes_tx: u64,
    /// Received video-sized packets.
    pub video_pkts_rx: u64,
    /// Sent video-sized packets.
    pub video_pkts_tx: u64,
    /// Minimum gap between consecutive received video packets, µs
    /// (`None` until two such packets arrive). The packet-pair capacity
    /// signal.
    pub min_ipg_us: Option<u64>,
    /// TTL of the last received packet (paths are stable, so any works;
    /// `None` for flows that are TX-only).
    pub rx_ttl: Option<u8>,
    /// First packet timestamp, µs.
    pub first_ts_us: u64,
    /// Last packet timestamp, µs.
    pub last_ts_us: u64,
}

/// All flows of one probe.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProbeFlows {
    /// The capturing probe.
    pub probe: Ip,
    /// Flows keyed by remote.
    pub flows: BTreeMap<Ip, FlowStats>,
}

impl ProbeFlows {
    /// Number of distinct remotes seen (the "# peers" of Table II).
    pub fn peers_seen(&self) -> usize {
        self.flows.len()
    }
}

/// Aggregates one probe trace — a [`crate::pass::FlowPass`] driven over
/// the records in one sweep. The trace must be time-sorted (call
/// [`ProbeTrace::finalize`] first, or let [`TraceSet::finalize`] do it):
/// the min-IPG and last-received-TTL accumulators depend on arrival
/// order.
pub fn aggregate_probe(trace: &ProbeTrace, cfg: &AnalysisConfig) -> ProbeFlows {
    run_pass(trace.records(), FlowPass::new(trace.probe, cfg))
}

/// Aggregates every probe of an experiment in parallel.
pub fn aggregate(set: &TraceSet, cfg: &AnalysisConfig) -> Vec<ProbeFlows> {
    set.traces
        .par_iter()
        .map(|t| aggregate_probe(t, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaware_trace::{PacketRecord, PayloadKind};

    fn rec(ts: u64, src: Ip, dst: Ip, size: u16, ttl: u8) -> PacketRecord {
        PacketRecord {
            ts_us: ts,
            src,
            dst,
            sport: 1,
            dport: 2,
            size,
            ttl,
            kind: if size >= 400 {
                PayloadKind::Video
            } else {
                PayloadKind::Signaling
            },
        }
    }

    fn probe() -> Ip {
        Ip::from_octets(10, 0, 0, 1)
    }
    fn remote_a() -> Ip {
        Ip::from_octets(58, 0, 0, 1)
    }
    fn remote_b() -> Ip {
        Ip::from_octets(60, 0, 0, 1)
    }

    #[test]
    fn splits_directions_and_sizes() {
        let p = probe();
        let a = remote_a();
        let mut t = ProbeTrace::new(p);
        t.push(rec(100, a, p, 1250, 110)); // video rx
        t.push(rec(200, a, p, 90, 110)); // signaling rx
        t.push(rec(300, p, a, 1250, 128)); // video tx
        t.push(rec(400, p, a, 60, 128)); // signaling tx
        let flows = aggregate_probe(&t, &AnalysisConfig::default());
        let f = &flows.flows[&a];
        assert_eq!(f.pkts_rx, 2);
        assert_eq!(f.pkts_tx, 2);
        assert_eq!(f.bytes_rx, 1340);
        assert_eq!(f.bytes_tx, 1310);
        assert_eq!(f.video_bytes_rx, 1250);
        assert_eq!(f.video_bytes_tx, 1250);
        assert_eq!(f.rx_ttl, Some(110));
        assert_eq!(f.first_ts_us, 100);
        assert_eq!(f.last_ts_us, 400);
    }

    #[test]
    fn min_ipg_over_video_only() {
        let p = probe();
        let a = remote_a();
        let mut t = ProbeTrace::new(p);
        t.push(rec(1_000, a, p, 1250, 110));
        t.push(rec(1_200, a, p, 80, 110)); // signaling must not break the train
        t.push(rec(1_500, a, p, 1250, 110)); // gap 500
        t.push(rec(9_000, a, p, 1250, 110)); // gap 7500
        let flows = aggregate_probe(&t, &AnalysisConfig::default());
        assert_eq!(flows.flows[&a].min_ipg_us, Some(500));
    }

    #[test]
    fn min_ipg_none_for_single_video_packet() {
        let p = probe();
        let a = remote_a();
        let mut t = ProbeTrace::new(p);
        t.push(rec(1_000, a, p, 1250, 110));
        let flows = aggregate_probe(&t, &AnalysisConfig::default());
        assert_eq!(flows.flows[&a].min_ipg_us, None);
    }

    #[test]
    fn ipg_tracked_per_remote_independently() {
        let p = probe();
        let (a, b) = (remote_a(), remote_b());
        let mut t = ProbeTrace::new(p);
        t.push(rec(0, a, p, 1250, 110));
        t.push(rec(100, b, p, 1250, 105)); // interleaved remote
        t.push(rec(200, a, p, 1250, 110)); // a's gap = 200, not 100
        t.push(rec(50_000, b, p, 1250, 105));
        let flows = aggregate_probe(&t, &AnalysisConfig::default());
        assert_eq!(flows.flows[&a].min_ipg_us, Some(200));
        assert_eq!(flows.flows[&b].min_ipg_us, Some(49_900));
    }

    #[test]
    fn tx_only_flow_has_no_ttl() {
        let p = probe();
        let a = remote_a();
        let mut t = ProbeTrace::new(p);
        t.push(rec(0, p, a, 90, 128));
        let flows = aggregate_probe(&t, &AnalysisConfig::default());
        let f = &flows.flows[&a];
        assert_eq!(f.rx_ttl, None);
        assert_eq!(f.pkts_rx, 0);
        assert_eq!(f.pkts_tx, 1);
    }

    #[test]
    fn peers_seen_counts_remotes() {
        let p = probe();
        let mut t = ProbeTrace::new(p);
        t.push(rec(0, remote_a(), p, 90, 110));
        t.push(rec(1, remote_b(), p, 90, 111));
        t.push(rec(2, p, remote_a(), 60, 128));
        let flows = aggregate_probe(&t, &AnalysisConfig::default());
        assert_eq!(flows.peers_seen(), 2);
    }

    #[test]
    fn parallel_aggregate_matches_sequential() {
        let p = probe();
        let mut set = TraceSet::new("X", 1_000_000);
        for k in 0..4u32 {
            let probe_ip = Ip(p.0 + k * 256);
            let mut t = ProbeTrace::new(probe_ip);
            for i in 0..100u64 {
                t.push(rec(
                    i * 10,
                    Ip(remote_a().0 + (i % 7) as u32),
                    probe_ip,
                    1250,
                    110,
                ));
            }
            set.add(t);
        }
        let cfg = AnalysisConfig::default();
        let par = aggregate(&set, &cfg);
        for (pf, t) in par.iter().zip(&set.traces) {
            let seq = aggregate_probe(t, &cfg);
            assert_eq!(pf.probe, seq.probe);
            assert_eq!(pf.flows.len(), seq.flows.len());
            for (r, f) in &pf.flows {
                assert_eq!(f.bytes_rx, seq.flows[r].bytes_rx);
                assert_eq!(f.min_ipg_us, seq.flows[r].min_ipg_us);
            }
        }
    }
}
