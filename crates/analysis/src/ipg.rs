//! Packet-pair bandwidth inference.
//!
//! "Being a chunk built of several packets, the source transmits them in
//! a burst […] they can be then considered as several packet-pairs, that
//! can be used to infer the bottleneck capacity. By measuring the
//! minimum IPG, it is possible to easily classify a peer as a high- or
//! low-bandwidth peer, using 1 ms threshold, which corresponds to the
//! transmission time of a 1250 bytes packet over a 10 Mbps link."

use crate::flows::FlowStats;
use crate::heuristics::AnalysisConfig;

/// Classification of the path from a remote to the probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BwClass {
    /// Bottleneck above 10 Mb/s.
    High,
    /// Bottleneck at or below 10 Mb/s.
    Low,
    /// Not classifiable: fewer than two video packets received from this
    /// remote (upload-only flows, signalling-only contacts).
    Unknown,
}

/// Classifies a flow's remote from its minimum received-video IPG.
pub fn bw_class(f: &FlowStats, cfg: &AnalysisConfig) -> BwClass {
    match f.min_ipg_us {
        Some(g) if g < cfg.ipg_high_bw_us => BwClass::High,
        Some(_) => BwClass::Low,
        None => BwClass::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_with_ipg(ipg: Option<u64>) -> FlowStats {
        FlowStats {
            min_ipg_us: ipg,
            ..Default::default()
        }
    }

    #[test]
    fn lan_gap_is_high() {
        let cfg = AnalysisConfig::default();
        assert_eq!(bw_class(&flow_with_ipg(Some(100)), &cfg), BwClass::High);
    }

    #[test]
    fn threshold_is_exclusive() {
        let cfg = AnalysisConfig::default();
        assert_eq!(bw_class(&flow_with_ipg(Some(999)), &cfg), BwClass::High);
        assert_eq!(bw_class(&flow_with_ipg(Some(1_000)), &cfg), BwClass::Low);
    }

    #[test]
    fn dsl_gap_is_low() {
        let cfg = AnalysisConfig::default();
        assert_eq!(bw_class(&flow_with_ipg(Some(19_532)), &cfg), BwClass::Low);
    }

    #[test]
    fn no_train_is_unknown() {
        let cfg = AnalysisConfig::default();
        assert_eq!(bw_class(&flow_with_ipg(None), &cfg), BwClass::Unknown);
    }
}
