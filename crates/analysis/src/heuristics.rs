//! Tunable heuristic constants.
//!
//! The paper's analysis rests on three thresholds; they live in one place
//! so the sensitivity ablation can sweep them.

use serde::{Deserialize, Serialize};

/// Thresholds and switches of the passive analysis.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Packets at least this large count as video payload. Must sit
    /// between the largest signalling datagram and the smallest video
    /// packet (2008-era P2P-TV video packets were near-MTU).
    pub video_size_threshold: u16,
    /// Minimum video bytes moved in a direction for a remote to count as
    /// a contributor in that direction (ref. \[14\]'s conservative
    /// chunk-exchange criterion; about one chunk).
    pub contributor_min_video_bytes: u64,
    /// Minimum video packets backing the byte criterion (guards against
    /// a few stray large packets).
    pub contributor_min_video_pkts: u64,
    /// IPG below which the path is classified high-bandwidth: 1 ms is
    /// the transmission time of a 1250-byte packet at 10 Mb/s.
    pub ipg_high_bw_us: u64,
    /// Fixed hop-median threshold. The paper measures medians of 18–20
    /// across applications and fixes 19 for comparability; `None`
    /// recomputes the median from the data instead.
    pub hop_median_override: Option<u8>,
    /// Windows used for the stream-rate mean/max of Table II, µs.
    pub rate_window_us: u64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            video_size_threshold: 400,
            contributor_min_video_bytes: 20_000,
            contributor_min_video_pkts: 8,
            ipg_high_bw_us: 1_000,
            hop_median_override: Some(19),
            rate_window_us: 10_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_papers() {
        let c = AnalysisConfig::default();
        assert_eq!(c.ipg_high_bw_us, 1_000);
        assert_eq!(c.hop_median_override, Some(19));
        assert!(c.video_size_threshold >= 400);
        assert!(c.contributor_min_video_bytes >= 10_000);
    }
}
