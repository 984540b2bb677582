//! Contributor identification (the heuristic of ref. \[14\]).
//!
//! "By contributing peers, we denote peers with whom some video segment
//! has been exchanged, either in upload (TX) or in download (RX)." A
//! remote qualifies in a direction when it moved at least a chunk's
//! worth of video-sized payload in enough packets — conservative against
//! large signalling bursts, exactly as the NAPA-WINE report verified.

use crate::flows::{FlowStats, ProbeFlows};
use crate::heuristics::AnalysisConfig;
use netaware_net::Ip;

/// Whether the remote contributed video *to* the probe (download side,
/// `e ∈ D(p)`).
pub fn is_rx_contributor(f: &FlowStats, cfg: &AnalysisConfig) -> bool {
    f.video_bytes_rx >= cfg.contributor_min_video_bytes
        && f.video_pkts_rx >= cfg.contributor_min_video_pkts
}

/// Whether the probe contributed video to the remote (upload side,
/// `e ∈ U(p)`).
pub fn is_tx_contributor(f: &FlowStats, cfg: &AnalysisConfig) -> bool {
    f.video_bytes_tx >= cfg.contributor_min_video_bytes
        && f.video_pkts_tx >= cfg.contributor_min_video_pkts
}

/// Whether the remote is a contributor in either direction
/// (`e ∈ P(p) = U(p) ∪ D(p)` restricted to actual video exchange).
pub fn is_contributor(f: &FlowStats, cfg: &AnalysisConfig) -> bool {
    is_rx_contributor(f, cfg) || is_tx_contributor(f, cfg)
}

/// The download contributor set `D(p)` of one probe.
pub fn rx_contributors<'a>(
    pf: &'a ProbeFlows,
    cfg: &'a AnalysisConfig,
) -> impl Iterator<Item = &'a FlowStats> {
    pf.flows.values().filter(move |f| is_rx_contributor(f, cfg))
}

/// The upload contributor set `U(p)` of one probe.
pub fn tx_contributors<'a>(
    pf: &'a ProbeFlows,
    cfg: &'a AnalysisConfig,
) -> impl Iterator<Item = &'a FlowStats> {
    pf.flows.values().filter(move |f| is_tx_contributor(f, cfg))
}

/// Count of download contributors.
pub fn rx_contributor_count(pf: &ProbeFlows, cfg: &AnalysisConfig) -> usize {
    rx_contributors(pf, cfg).count()
}

/// Count of upload contributors.
pub fn tx_contributor_count(pf: &ProbeFlows, cfg: &AnalysisConfig) -> usize {
    tx_contributors(pf, cfg).count()
}

/// Scores the heuristic against simulator ground truth: fraction of
/// video bytes (by the trace's ground-truth kind tags) that flows
/// classified as contributors account for. Used only by validation
/// tests.
pub fn heuristic_video_coverage(
    pf: &ProbeFlows,
    cfg: &AnalysisConfig,
    truth_video_bytes_by_remote: &std::collections::BTreeMap<Ip, u64>,
) -> f64 {
    let total: u64 = truth_video_bytes_by_remote.values().sum();
    if total == 0 {
        return 1.0;
    }
    let covered: u64 = pf
        .flows
        .iter()
        .filter(|(_, f)| is_contributor(f, cfg))
        .filter_map(|(remote, _)| truth_video_bytes_by_remote.get(remote))
        .sum();
    covered as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(video_rx: u64, pkts_rx: u64, video_tx: u64, pkts_tx: u64) -> FlowStats {
        FlowStats {
            video_bytes_rx: video_rx,
            video_pkts_rx: pkts_rx,
            video_bytes_tx: video_tx,
            video_pkts_tx: pkts_tx,
            ..Default::default()
        }
    }

    #[test]
    fn chunk_worth_of_video_is_contributor() {
        let cfg = AnalysisConfig::default();
        assert!(is_rx_contributor(&flow(25_000, 20, 0, 0), &cfg));
        assert!(!is_tx_contributor(&flow(25_000, 20, 0, 0), &cfg));
        assert!(is_tx_contributor(&flow(0, 0, 25_000, 20), &cfg));
    }

    #[test]
    fn bytes_without_enough_packets_rejected() {
        let cfg = AnalysisConfig::default();
        // 2 jumbo-ish packets summing over the byte bar must not qualify.
        assert!(!is_rx_contributor(&flow(25_000, 2, 0, 0), &cfg));
    }

    #[test]
    fn packets_without_enough_bytes_rejected() {
        let cfg = AnalysisConfig::default();
        assert!(!is_rx_contributor(&flow(4_000, 10, 0, 0), &cfg));
    }

    #[test]
    fn either_direction_makes_a_contributor() {
        let cfg = AnalysisConfig::default();
        assert!(is_contributor(&flow(25_000, 20, 0, 0), &cfg));
        assert!(is_contributor(&flow(0, 0, 25_000, 20), &cfg));
        assert!(!is_contributor(&flow(0, 0, 0, 0), &cfg));
    }

    #[test]
    fn counts_over_probe_flows() {
        let cfg = AnalysisConfig::default();
        let mut pf = ProbeFlows::default();
        let a = Ip::from_octets(1, 1, 1, 1);
        let b = Ip::from_octets(2, 2, 2, 2);
        let c = Ip::from_octets(3, 3, 3, 3);
        pf.flows.insert(a, flow(30_000, 24, 0, 0));
        pf.flows.insert(b, flow(0, 0, 50_000, 40));
        pf.flows.insert(c, flow(100, 1, 100, 1));
        assert_eq!(rx_contributor_count(&pf, &cfg), 1);
        assert_eq!(tx_contributor_count(&pf, &cfg), 1);
    }

    #[test]
    fn coverage_score() {
        let cfg = AnalysisConfig::default();
        let mut pf = ProbeFlows::default();
        let a = Ip::from_octets(1, 1, 1, 1);
        let b = Ip::from_octets(2, 2, 2, 2);
        pf.flows.insert(a, flow(30_000, 24, 0, 0));
        pf.flows.insert(b, flow(100, 1, 0, 0));
        let mut truth = std::collections::BTreeMap::new();
        truth.insert(a, 30_000u64);
        truth.insert(b, 10_000u64); // heuristic misses this one
        let cov = heuristic_video_coverage(&pf, &cfg, &truth);
        assert!((cov - 0.75).abs() < 1e-9);
    }

    #[test]
    fn coverage_of_empty_truth_is_one() {
        let cfg = AnalysisConfig::default();
        let pf = ProbeFlows::default();
        assert_eq!(
            heuristic_video_coverage(&pf, &cfg, &std::collections::BTreeMap::new()),
            1.0
        );
    }
}
