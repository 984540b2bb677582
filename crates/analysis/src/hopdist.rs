//! Hop-count distributions.
//!
//! §III-B of the paper justifies its fixed HOP threshold by measuring
//! the distance distribution: "the actual HOP median ranges from 18 to
//! 20 depending on the application, we use a fixed threshold of 19 hops
//! for all applications […] approximately 50% of the peers falls in the
//! preferential class". This module reports that distribution — median,
//! quartiles, the share of measurable flows, and a rendered CDF — so
//! the threshold choice can be checked against the data instead of
//! assumed.

use crate::contributors::is_contributor;
use crate::flows::ProbeFlows;
use crate::heuristics::AnalysisConfig;
use crate::hop::flow_hops;
use netaware_sim::Histogram;
use serde::{Deserialize, Serialize};

/// Summary of the hop-count distribution over contributor flows.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct HopDistribution {
    /// Flows with a measurable hop count.
    pub measurable: u64,
    /// Flows without (TX-only, or non-Windows TTLs).
    pub unmeasurable: u64,
    /// First quartile.
    pub q1: Option<u8>,
    /// Median — the paper's threshold basis.
    pub median: Option<u8>,
    /// Third quartile.
    pub q3: Option<u8>,
    /// Share of measurable flows strictly below the given threshold
    /// (should be ≈50 % when the threshold is the median).
    pub below_threshold_pct: f64,
    /// Raw per-hop counts (index = hops).
    pub counts: Vec<u64>,
}

/// Computes the hop distribution of an experiment's contributors.
pub fn hop_distribution(
    pfs: &[ProbeFlows],
    cfg: &AnalysisConfig,
    threshold: u8,
) -> HopDistribution {
    let mut h = Histogram::new(65);
    let mut unmeasurable = 0u64;
    for pf in pfs {
        for f in pf.flows.values() {
            if !is_contributor(f, cfg) {
                continue;
            }
            match flow_hops(f.rx_ttl) {
                Some(hops) => h.push(hops as usize),
                None => unmeasurable += 1,
            }
        }
    }
    let below: u64 = (0..threshold as usize).map(|i| h.count(i)).sum();
    HopDistribution {
        measurable: h.total(),
        unmeasurable,
        q1: h.quantile(0.25).map(|v| v as u8),
        median: h.quantile(0.5).map(|v| v as u8),
        q3: h.quantile(0.75).map(|v| v as u8),
        below_threshold_pct: if h.total() == 0 {
            0.0
        } else {
            100.0 * below as f64 / h.total() as f64
        },
        counts: (0..65).map(|i| h.count(i)).collect(),
    }
}

impl HopDistribution {
    /// Renders a terminal CDF sparkline plus the quartiles.
    pub fn render(&self, label: &str) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{label}: {} measurable flows ({} unmeasurable), Q1/median/Q3 = {}/{}/{}, \
             {:.1}% below threshold",
            self.measurable,
            self.unmeasurable,
            self.q1.map_or("-".into(), |v| v.to_string()),
            self.median.map_or("-".into(), |v| v.to_string()),
            self.q3.map_or("-".into(), |v| v.to_string()),
            self.below_threshold_pct,
        );
        if self.measurable > 0 {
            const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
            let max = self.counts.iter().copied().max().unwrap_or(1).max(1);
            let hist: String = self
                .counts
                .iter()
                .take(40)
                .map(|&c| BARS[(c * 7 / max) as usize])
                .collect();
            let _ = writeln!(s, "  hops 0..40: {hist}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::FlowStats;
    use netaware_net::Ip;

    fn pf_with_hops(hops: &[u8]) -> Vec<ProbeFlows> {
        let mut pf = ProbeFlows::default();
        for (i, &h) in hops.iter().enumerate() {
            pf.flows.insert(
                Ip(i as u32 + 1),
                FlowStats {
                    rx_ttl: Some(128 - h),
                    video_bytes_rx: 30_000,
                    video_pkts_rx: 24,
                    ..Default::default()
                },
            );
        }
        vec![pf]
    }

    #[test]
    fn quartiles_and_median() {
        let d = hop_distribution(
            &pf_with_hops(&[10, 14, 18, 19, 20, 22, 30]),
            &AnalysisConfig::default(),
            19,
        );
        assert_eq!(d.measurable, 7);
        assert_eq!(d.median, Some(19));
        assert_eq!(d.q1, Some(14));
        assert_eq!(d.q3, Some(22));
        // 10,14,18 below 19 → 3/7.
        assert!((d.below_threshold_pct - 300.0 / 7.0).abs() < 1e-6);
    }

    #[test]
    fn unmeasurable_counted_separately() {
        let mut pfs = pf_with_hops(&[18, 20]);
        pfs[0].flows.insert(
            Ip(99),
            FlowStats {
                rx_ttl: None,
                video_bytes_rx: 30_000,
                video_pkts_rx: 24,
                ..Default::default()
            },
        );
        let d = hop_distribution(&pfs, &AnalysisConfig::default(), 19);
        assert_eq!(d.measurable, 2);
        assert_eq!(d.unmeasurable, 1);
    }

    #[test]
    fn non_contributors_ignored() {
        let mut pfs = pf_with_hops(&[18]);
        pfs[0].flows.insert(
            Ip(50),
            FlowStats {
                rx_ttl: Some(110),
                video_bytes_rx: 10, // below the contributor bar
                video_pkts_rx: 1,
                ..Default::default()
            },
        );
        let d = hop_distribution(&pfs, &AnalysisConfig::default(), 19);
        assert_eq!(d.measurable, 1);
    }

    #[test]
    fn render_handles_empty() {
        let d = hop_distribution(&[], &AnalysisConfig::default(), 19);
        let out = d.render("empty");
        assert!(out.contains("0 measurable"));
    }

    #[test]
    fn render_contains_sparkline() {
        let d = hop_distribution(
            &pf_with_hops(&[5, 19, 19, 30]),
            &AnalysisConfig::default(),
            19,
        );
        let out = d.render("X");
        assert!(out.contains("hops 0..40"));
        assert!(out.contains("median") || out.contains("Q1"));
    }
}
