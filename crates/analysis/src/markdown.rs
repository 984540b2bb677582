//! Markdown report generation.
//!
//! Renders a whole experiment suite as a self-contained Markdown
//! document — the shape of this repository's `EXPERIMENTS.md`, generated
//! instead of hand-written, so every reproduction run can ship its own
//! paper-style report (`netaware-cli suite --markdown report.md`).

use crate::report::ExperimentAnalysis;
use std::fmt::Write as _;

fn cell(v: f64, decimals: usize) -> String {
    if v.is_nan() {
        "–".into()
    } else {
        format!("{v:.decimals$}")
    }
}

/// Renders the full suite report.
pub fn render_report(analyses: &[&ExperimentAnalysis], title: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# {title}\n");
    let total_packets: usize = analyses.iter().map(|a| a.total_packets).sum();
    let _ = writeln!(
        s,
        "{} experiments, {} packets captured in total.\n",
        analyses.len(),
        total_packets
    );

    // Table II.
    let _ = writeln!(s, "## Table II — stream rates, peers, contributors\n");
    let _ = writeln!(
        s,
        "| app | RX kb/s (mean/max) | TX kb/s (mean/max) | peers | contrib RX | contrib TX |"
    );
    let _ = writeln!(s, "|---|---|---|---|---|---|");
    for a in analyses {
        let m = &a.summary;
        let _ = writeln!(
            s,
            "| {} | {:.0} / {:.0} | {:.0} / {:.0} | {:.0} | {:.0} | {:.0} |",
            a.app,
            m.rx_kbps.mean,
            m.rx_kbps.max,
            m.tx_kbps.mean,
            m.tx_kbps.max,
            m.peers.mean,
            m.contrib_rx.mean,
            m.contrib_tx.mean,
        );
    }

    // Table III.
    let _ = writeln!(s, "\n## Table III — probe self-bias\n");
    let _ = writeln!(
        s,
        "| app | contrib peer % | contrib bytes % | all peer % | all bytes % |"
    );
    let _ = writeln!(s, "|---|---|---|---|---|");
    for a in analyses {
        let b = &a.selfbias;
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} | {} |",
            a.app,
            cell(b.contrib_peer_pct, 2),
            cell(b.contrib_bytes_pct, 2),
            cell(b.all_peer_pct, 2),
            cell(b.all_bytes_pct, 2),
        );
    }

    // Table IV.
    let _ = writeln!(s, "\n## Table IV — network awareness (B % / P %)\n");
    let _ = writeln!(
        s,
        "| metric | app | B′_D / P′_D | B_D / P_D | B′_U / P′_U | B_U / P_U |"
    );
    let _ = writeln!(s, "|---|---|---|---|---|---|");
    let metrics: Vec<String> = analyses
        .first()
        .map(|a| a.preferences.iter().map(|m| m.metric.clone()).collect())
        .unwrap_or_default();
    for metric in &metrics {
        for a in analyses {
            let Some(m) = a.preference(metric) else {
                continue;
            };
            let pair = |v: crate::preference::PrefValue| {
                format!("{} / {}", cell(v.bytes_pct, 1), cell(v.peers_pct, 1))
            };
            let _ = writeln!(
                s,
                "| {} | {} | {} | {} | {} | {} |",
                m.metric,
                a.app,
                pair(m.download_nonw),
                pair(m.download_all),
                pair(m.upload_nonw),
                pair(m.upload_all),
            );
        }
    }

    // Fig. 1.
    let _ = writeln!(s, "\n## Figure 1 — geography (% peers / % RX / % TX)\n");
    let _ = writeln!(s, "| app | total peers | CN | HU | IT | FR | PL | * |");
    let _ = writeln!(s, "|---|---|---|---|---|---|---|---|");
    for a in analyses {
        let find = |label: &str| {
            a.geo
                .rows
                .iter()
                .find(|r| r.label == label)
                .map(|r| format!("{:.1}/{:.1}/{:.1}", r.peers_pct, r.rx_pct, r.tx_pct))
                .unwrap_or_default()
        };
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            a.app,
            a.geo.total_peers,
            find("CN"),
            find("HU"),
            find("IT"),
            find("FR"),
            find("PL"),
            find("*"),
        );
    }

    // Fig. 2.
    let _ = writeln!(s, "\n## Figure 2 — intra/inter-AS ratio R\n");
    let _ = writeln!(s, "| app | R | intra-AS mean B | inter-AS mean B |");
    let _ = writeln!(s, "|---|---|---|---|");
    for a in analyses {
        let m = &a.asmatrix;
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} |",
            a.app,
            cell(m.r_ratio, 2),
            cell(m.intra_mean, 0),
            cell(m.inter_mean, 0),
        );
    }

    // Extensions.
    let _ = writeln!(s, "\n## Network friendliness (extension)\n");
    let _ = writeln!(
        s,
        "| app | subnet % | intra-AS % | intra-CC % | transit % | hops/byte |"
    );
    let _ = writeln!(s, "|---|---|---|---|---|---|");
    for a in analyses {
        let f = &a.friendliness;
        let _ = writeln!(
            s,
            "| {} | {} | {} | {} | {} | {} |",
            a.app,
            cell(f.subnet_pct, 1),
            cell(f.intra_as_pct, 1),
            cell(f.intra_cc_pct, 1),
            cell(f.transit_pct, 1),
            cell(f.mean_hops_per_byte, 1),
        );
    }

    let _ = writeln!(s, "\n## Hop distributions\n");
    for a in analyses {
        let d = &a.hop_distribution;
        let _ = writeln!(
            s,
            "- **{}**: median {} hops (Q1 {}, Q3 {}), {:.1}% below the {}-hop threshold, {} measurable flows",
            a.app,
            d.median.map_or("–".into(), |v| v.to_string()),
            d.q1.map_or("–".into(), |v| v.to_string()),
            d.q3.map_or("–".into(), |v| v.to_string()),
            d.below_threshold_pct,
            a.hop_threshold,
            d.measurable,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asmatrix::AsMatrix;
    use crate::geo::{GeoBreakdown, GeoRow};
    use crate::hopdist::HopDistribution;
    use crate::netfriend::Friendliness;
    use crate::preference::{MetricPreference, PrefValue};
    use crate::selfbias::SelfBias;
    use crate::summary::{AppSummary, MeanMaxVal};

    fn sample(app: &str) -> ExperimentAnalysis {
        ExperimentAnalysis {
            app: app.into(),
            summary: AppSummary {
                app: app.into(),
                rx_kbps: MeanMaxVal {
                    mean: 550.0,
                    max: 900.0,
                },
                tx_kbps: MeanMaxVal {
                    mean: 3000.0,
                    max: 12000.0,
                },
                peers: MeanMaxVal {
                    mean: 5000.0,
                    max: 8000.0,
                },
                contrib_rx: MeanMaxVal {
                    mean: 200.0,
                    max: 500.0,
                },
                contrib_tx: MeanMaxVal {
                    mean: 600.0,
                    max: 900.0,
                },
            },
            selfbias: SelfBias {
                contrib_peer_pct: 2.4,
                contrib_bytes_pct: 3.3,
                all_peer_pct: 0.4,
                all_bytes_pct: 3.3,
            },
            preferences: vec![MetricPreference {
                metric: "BW".into(),
                download_nonw: PrefValue {
                    peers_pct: 94.6,
                    bytes_pct: 98.5,
                },
                download_all: PrefValue {
                    peers_pct: 94.5,
                    bytes_pct: 98.6,
                },
                upload_nonw: PrefValue::nan(),
                upload_all: PrefValue::nan(),
            }],
            geo: GeoBreakdown {
                rows: vec![GeoRow {
                    label: "CN".into(),
                    peers_pct: 87.0,
                    rx_pct: 86.0,
                    tx_pct: 93.0,
                }],
                total_peers: 45197,
            },
            asmatrix: AsMatrix {
                ases: vec![1],
                avg_bytes: vec![vec![10.0]],
                intra_mean: 100.0,
                inter_mean: 80.0,
                r_ratio: 1.25,
            },
            friendliness: Friendliness {
                subnet_pct: 3.0,
                intra_as_pct: 4.0,
                intra_cc_pct: 5.0,
                transit_pct: 96.0,
                mean_hops_per_byte: 16.8,
            },
            hop_distribution: HopDistribution {
                measurable: 1000,
                median: Some(19),
                q1: Some(16),
                q3: Some(21),
                below_threshold_pct: 48.0,
                ..Default::default()
            },
            hop_threshold: 19,
            total_packets: 1_000_000,
            total_bytes: 1_000_000_000,
        }
    }

    #[test]
    fn report_contains_all_sections() {
        let a = sample("PPLive");
        let b = sample("SopCast");
        let md = render_report(&[&a, &b], "Suite report");
        for needle in [
            "# Suite report",
            "## Table II",
            "## Table III",
            "## Table IV",
            "## Figure 1",
            "## Figure 2",
            "## Network friendliness",
            "## Hop distributions",
            "PPLive",
            "SopCast",
            "98.5 / 94.6",
            "| 1.25 |",
            "median 19 hops",
        ] {
            assert!(md.contains(needle), "missing {needle:?}");
        }
        // Unmeasurable upload cells render as en-dashes.
        assert!(md.contains("– / –"));
    }

    #[test]
    fn empty_suite_renders_header_only() {
        let md = render_report(&[], "Empty");
        assert!(md.contains("# Empty"));
        assert!(md.contains("0 experiments"));
    }
}
