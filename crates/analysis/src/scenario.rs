//! Cross-scenario awareness report: the per-cell summary rows and the
//! deterministic matrix document the testbed's scenario-matrix runner
//! emits.
//!
//! The paper compared three applications under *one* network condition.
//! The scenario matrix generalises the comparison to a grid of
//! (application profile × swarm scale × session model × fault plan)
//! cells and asks, per cell, the paper's own question: how
//! network-aware does the traffic look? This module owns the output
//! side — [`CellSummary`] is one cell's analysis (plus the few
//! ground-truth health counters that validate it) as a flat row, which
//! the runner fills in, and [`MatrixReport`] serialises the whole grid to JSON and a paper-style
//! markdown table.
//!
//! ## Determinism contract
//!
//! A report is a pure function of the per-cell analyses: it embeds no
//! wall-clock time, host name or toolchain version, so the same seed
//! must yield a **byte-identical** report across runs and toolchains
//! (the CI `scenario-matrix` job diffs exactly this).

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One cell of the scenario matrix, flattened: coordinates, stream
/// health (ground truth), and the passive awareness verdict.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellSummary {
    /// Stable cell label, `profile/x<scale>/<session>/<faults>` — the
    /// per-cell corpus directory uses a sanitised form of this.
    pub cell: String,
    /// Application profile name.
    pub profile: String,
    /// Swarm scale factor.
    pub scale: f64,
    /// Session-model spec name (`baseline` = plain churn or none).
    pub session: String,
    /// Link-fault spec name (`clean` = no link impairment).
    pub faults: String,
    /// Ground-truth stream continuity (delivered / scheduled).
    pub continuity: f64,
    /// Continuity of the worst-served probe.
    pub worst_continuity: f64,
    /// Chunks delivered to probes before their deadline.
    pub chunks_delivered: u64,
    /// Chunks moved by the epidemic push behaviour (0 for pull-only).
    pub chunks_pushed: u64,
    /// External-peer departures the churn process produced.
    pub peers_departed: u64,
    /// External-peer re-arrivals.
    pub peers_arrived: u64,
    /// Packets the link-fault layer dropped.
    pub packets_dropped: u64,
    /// Requests re-queued after their provider departed.
    pub requests_requeued: u64,
    /// Traffic share exchanged inside the probe's own subnet, %.
    pub subnet_pct: f64,
    /// Traffic share that never left the origin AS, %.
    pub intra_as_pct: f64,
    /// Traffic share that stayed in-country, %.
    pub intra_cc_pct: f64,
    /// Traffic share crossing transit (inter-AS) links, %.
    pub transit_pct: f64,
    /// Mean IP hops travelled per video byte.
    pub mean_hops_per_byte: f64,
    /// Byte-wise download preference for high-bandwidth peers, % (the
    /// paper's `B` of the BW partition, all contributors); `None` when
    /// not measurable in this cell.
    pub bw_bytes_pct: Option<f64>,
    /// Byte-wise download preference for same-AS peers, %; `None` when
    /// not measurable.
    pub as_bytes_pct: Option<f64>,
}

/// The whole scenario grid: run coordinates that *are* part of the
/// experiment identity (seed, duration) plus one row per cell, in the
/// fixed sweep order (profiles × scales × sessions × faults).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MatrixReport {
    /// Seed every cell ran under.
    pub seed: u64,
    /// Simulated duration per cell, µs.
    pub duration_us: u64,
    /// One row per cell, sweep order.
    pub cells: Vec<CellSummary>,
}

fn opt_pct(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}"),
        None => "–".into(),
    }
}

impl MatrixReport {
    /// Serialises to pretty JSON (stable key order; byte-identical for
    /// the same seed by the determinism contract above).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parses a report back (CI uses this to sanity-check artifacts).
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }

    /// Renders the paper-style markdown table: one row per cell,
    /// awareness columns alongside stream health.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# Scenario matrix — cross-scenario awareness report\n");
        let _ = writeln!(
            s,
            "{} cells, seed {}, {} s simulated per cell.\n",
            self.cells.len(),
            self.seed,
            self.duration_us / 1_000_000
        );
        let _ = writeln!(
            s,
            "| cell | cont. | pushed | churn (−/+) | subnet % | intra-AS % | transit % | hops/byte | BW pref B% | AS pref B% | worst | dropped | requeued |"
        );
        let _ = writeln!(s, "|---|---|---|---|---|---|---|---|---|---|---|---|---|");
        for c in &self.cells {
            let _ = writeln!(
                s,
                "| {} | {:.3} | {} | {}/{} | {:.2} | {:.2} | {:.2} | {:.2} | {} | {} | {:.3} | {} | {} |",
                c.cell,
                c.continuity,
                c.chunks_pushed,
                c.peers_departed,
                c.peers_arrived,
                c.subnet_pct,
                c.intra_as_pct,
                c.transit_pct,
                c.mean_hops_per_byte,
                opt_pct(c.bw_bytes_pct),
                opt_pct(c.as_bytes_pct),
                c.worst_continuity,
                c.packets_dropped,
                c.requests_requeued,
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cell: &str, pushed: u64) -> CellSummary {
        CellSummary {
            cell: cell.into(),
            profile: "PPLive".into(),
            scale: 0.02,
            session: "baseline".into(),
            faults: "clean".into(),
            continuity: 0.987,
            worst_continuity: 0.9,
            chunks_delivered: 1234,
            chunks_pushed: pushed,
            peers_departed: 3,
            peers_arrived: 2,
            packets_dropped: 17,
            requests_requeued: 5,
            subnet_pct: 0.5,
            intra_as_pct: 12.25,
            intra_cc_pct: 40.0,
            transit_pct: 87.75,
            mean_hops_per_byte: 9.5,
            bw_bytes_pct: Some(61.2),
            as_bytes_pct: None,
        }
    }

    #[test]
    fn report_round_trips_and_renders() {
        let report = MatrixReport {
            seed: 777,
            duration_us: 20_000_000,
            cells: vec![row("pplive/x0.02/baseline/clean", 0), row("rp", 42)],
        };
        let back = MatrixReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(report, back);
        let md = report.to_markdown();
        assert!(md.contains("| pplive/x0.02/baseline/clean | 0.987 | 0 | 3/2 |"));
        assert!(md.contains("| 61.20 | – | 0.900 | 17 | 5 |"));
        assert!(md.contains("2 cells, seed 777, 20 s simulated per cell."));
    }

    #[test]
    fn serialisation_is_reproducible() {
        let report = MatrixReport {
            seed: 1,
            duration_us: 5_000_000,
            cells: vec![row("a", 7)],
        };
        assert_eq!(report.to_json(), report.to_json());
        assert_eq!(report.to_markdown(), report.to_markdown());
    }
}
