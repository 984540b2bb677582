//! Scoring passive inferences against ground truth.
//!
//! The reproduction can do something the original study could not:
//! since the traffic comes from a simulator, the true access class of
//! every peer is known, and the analysis' inferences can be graded.
//! These scores are how the test suite proves the framework *infers*
//! properties rather than echoing testbed composition — e.g. the
//! packet-pair BW classifier is required to reach high accuracy on
//! contributor flows under every selection policy.

use crate::contributors::is_rx_contributor;
use crate::flows::ProbeFlows;
use crate::heuristics::AnalysisConfig;
use crate::ipg::{bw_class, BwClass};
use netaware_net::Ip;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// What the simulator knows that the analysis must not see: which
/// addresses truly have >10 Mb/s upstream.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    /// Peers whose access uplink exceeds the high-bandwidth threshold.
    pub high_bw: BTreeSet<Ip>,
    /// Probe addresses whose *downlink* is below the threshold — paths
    /// into them are genuinely bottlenecked below 10 Mb/s, so "low" is
    /// the correct verdict there regardless of the sender.
    pub narrow_probes: BTreeSet<Ip>,
}

/// Confusion-matrix style score of the BW classifier.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct BwValidation {
    /// Flows classified High whose remote is truly high-bandwidth.
    pub true_high: u64,
    /// Flows classified Low whose remote is truly low-bandwidth (or
    /// whose probe downlink truly bottlenecks the path).
    pub true_low: u64,
    /// Classified High but truly low (the dangerous direction).
    pub false_high: u64,
    /// Classified Low but truly high.
    pub false_low: u64,
    /// Contributor flows without a classifiable packet train.
    pub unknown: u64,
}

impl BwValidation {
    /// Classification accuracy over classified flows.
    pub fn accuracy(&self) -> f64 {
        let total = self.true_high + self.true_low + self.false_high + self.false_low;
        if total == 0 {
            return 1.0;
        }
        (self.true_high + self.true_low) as f64 / total as f64
    }

    /// Fraction of contributor flows that could be classified at all.
    pub fn coverage(&self) -> f64 {
        let total =
            self.true_high + self.true_low + self.false_high + self.false_low + self.unknown;
        if total == 0 {
            return 1.0;
        }
        1.0 - self.unknown as f64 / total as f64
    }
}

/// Grades the packet-pair BW inference on download-contributor flows.
///
/// The classifier measures the *path* bottleneck; a flow into a
/// narrow-downlink probe counts as truly low even when the sender is
/// fast (unless the interleaving modem hides the bottleneck, in which
/// case the sender class decides — mirroring what active measurement
/// through such lines reports).
pub fn validate_bw(pfs: &[ProbeFlows], cfg: &AnalysisConfig, truth: &GroundTruth) -> BwValidation {
    let mut v = BwValidation::default();
    for pf in pfs {
        for f in pf.flows.values() {
            if !is_rx_contributor(f, cfg) {
                continue;
            }
            let sender_high = truth.high_bw.contains(&f.remote);
            match bw_class(f, cfg) {
                BwClass::Unknown => v.unknown += 1,
                BwClass::High => {
                    if sender_high {
                        v.true_high += 1;
                    } else {
                        v.false_high += 1;
                    }
                }
                BwClass::Low => {
                    if !sender_high || truth.narrow_probes.contains(&f.probe) {
                        v.true_low += 1;
                    } else {
                        v.false_low += 1;
                    }
                }
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::FlowStats;

    fn flow(probe: Ip, remote: Ip, ipg: Option<u64>) -> FlowStats {
        FlowStats {
            probe,
            remote,
            video_bytes_rx: 30_000,
            video_pkts_rx: 24,
            bytes_rx: 30_000,
            min_ipg_us: ipg,
            ..Default::default()
        }
    }

    fn pfs(flows: Vec<FlowStats>) -> Vec<ProbeFlows> {
        let mut pf = ProbeFlows::default();
        for f in flows {
            pf.flows.insert(f.remote, f);
        }
        vec![pf]
    }

    #[test]
    fn perfect_classification() {
        let probe = Ip(1);
        let fast = Ip(100);
        let slow = Ip(200);
        let mut truth = GroundTruth::default();
        truth.high_bw.insert(fast);
        let v = validate_bw(
            &pfs(vec![
                flow(probe, fast, Some(100)),
                flow(probe, slow, Some(20_000)),
            ]),
            &AnalysisConfig::default(),
            &truth,
        );
        assert_eq!(v.true_high, 1);
        assert_eq!(v.true_low, 1);
        assert_eq!(v.accuracy(), 1.0);
        assert_eq!(v.coverage(), 1.0);
    }

    #[test]
    fn false_high_detected() {
        let truth = GroundTruth::default(); // nobody is truly fast
        let v = validate_bw(
            &pfs(vec![flow(Ip(1), Ip(100), Some(100))]),
            &AnalysisConfig::default(),
            &truth,
        );
        assert_eq!(v.false_high, 1);
        assert_eq!(v.accuracy(), 0.0);
    }

    #[test]
    fn narrow_probe_excuses_low_verdict() {
        let probe = Ip(1);
        let fast = Ip(100);
        let mut truth = GroundTruth::default();
        truth.high_bw.insert(fast);
        truth.narrow_probes.insert(probe);
        // Fast sender reads low through a 6 Mb/s downlink: correct.
        let v = validate_bw(
            &pfs(vec![flow(probe, fast, Some(1_700))]),
            &AnalysisConfig::default(),
            &truth,
        );
        assert_eq!(v.true_low, 1);
        assert_eq!(v.false_low, 0);
    }

    #[test]
    fn unknown_hits_coverage_not_accuracy() {
        let v = validate_bw(
            &pfs(vec![flow(Ip(1), Ip(100), None)]),
            &AnalysisConfig::default(),
            &GroundTruth::default(),
        );
        assert_eq!(v.unknown, 1);
        assert_eq!(v.accuracy(), 1.0);
        assert_eq!(v.coverage(), 0.0);
    }
}
