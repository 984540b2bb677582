//! Ground-truth run report.
//!
//! Everything in here is *simulator truth* — counters the analysis side
//! must never see. Integration tests use the report to validate the
//! analysis (e.g. that inferred BW classes match the true access classes)
//! and to check stream health (a starving swarm would invalidate the
//! rate tables).

use netaware_net::Ip;
use serde::{Deserialize, Serialize};

/// Per-probe ground-truth counters.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ProbePerf {
    /// Vantage point.
    pub probe: Ip,
    /// Chunks this probe received in time.
    pub delivered: u64,
    /// Chunks it lost to the playout deadline.
    pub lost: u64,
    /// Its per-probe continuity.
    pub continuity: f64,
}

/// Counters accumulated over one swarm run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SwarmReport {
    /// Chunks delivered to probes.
    pub chunks_delivered: u64,
    /// Chunks probes gave up on (playout deadline passed).
    pub chunks_lost: u64,
    /// Chunks probes uploaded (to anyone).
    pub chunks_served_by_probes: u64,
    /// Chunks externals uploaded to probes.
    pub chunks_served_by_externals: u64,
    /// Chunks sent unsolicited by the epidemic push behaviour (zero for
    /// pull-only profiles; a subset of `chunks_served_by_probes`).
    pub chunks_pushed: u64,
    /// Upload requests refused (backlog cap or nothing to send).
    pub chunks_refused: u64,
    /// Signalling packets emitted (both directions, all probes).
    pub signal_packets: u64,
    /// Video bytes probes transmitted.
    pub video_bytes_tx: u64,
    /// Total scheduler events dispatched.
    pub events_dispatched: u64,
    /// Packets eaten by injected link faults (loss coin + outages).
    pub packets_dropped: u64,
    /// External-peer departures (churn).
    pub peers_departed: u64,
    /// External-peer re-arrivals (churn).
    pub peers_arrived: u64,
    /// Pending requests re-queued because their provider departed.
    pub requests_requeued: u64,
    /// Per-probe breakdown (simulator truth; one row per vantage point).
    pub per_probe: Vec<ProbePerf>,
}

impl SwarmReport {
    /// Fraction of chunks that reached probes before their deadline
    /// (stream continuity; healthy runs sit above 0.9).
    pub fn continuity(&self) -> f64 {
        let total = self.chunks_delivered + self.chunks_lost;
        if total == 0 {
            return 1.0;
        }
        self.chunks_delivered as f64 / total as f64
    }

    /// The probe with the worst continuity, if any probes ran.
    pub fn worst_probe(&self) -> Option<&ProbePerf> {
        self.per_probe
            .iter()
            .min_by(|a, b| a.continuity.total_cmp(&b.continuity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn continuity_of_empty_run_is_perfect() {
        assert_eq!(SwarmReport::default().continuity(), 1.0);
    }

    #[test]
    fn worst_probe_lookup() {
        let r = SwarmReport {
            per_probe: vec![
                ProbePerf {
                    probe: Ip(1),
                    delivered: 90,
                    lost: 10,
                    continuity: 0.9,
                },
                ProbePerf {
                    probe: Ip(2),
                    delivered: 99,
                    lost: 1,
                    continuity: 0.99,
                },
            ],
            ..Default::default()
        };
        let worst = r.worst_probe().unwrap();
        assert_eq!(worst.probe, Ip(1));
    }

    #[test]
    fn continuity_ratio() {
        let r = SwarmReport {
            chunks_delivered: 90,
            chunks_lost: 10,
            ..Default::default()
        };
        assert!((r.continuity() - 0.9).abs() < 1e-12);
    }
}
