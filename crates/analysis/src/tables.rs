//! Paper-style text rendering of the reproduced tables and figures.

use crate::asmatrix::AsMatrix;
use crate::geo::GeoBreakdown;
use crate::preference::MetricPreference;
use crate::selfbias::SelfBias;
use crate::summary::AppSummary;
use std::fmt::Write;

fn cell(v: f64, width: usize, decimals: usize) -> String {
    if v.is_nan() {
        format!("{:>width$}", "-", width = width)
    } else {
        format!(
            "{:>width$.decimals$}",
            v,
            width = width,
            decimals = decimals
        )
    }
}

/// Renders Table II.
pub fn render_table2(rows: &[AppSummary]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "TABLE II — stream rates, peers and contributors (mean / max per probe)"
    );
    let _ = writeln!(
        s,
        "{:<9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "App",
        "RX mean",
        "RX max",
        "TX mean",
        "TX max",
        "Peers",
        "Pmax",
        "cRX",
        "cRXmax",
        "cTX",
        "cTXmax"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<9} {} {} {} {} {} {} {} {} {} {}",
            r.app,
            cell(r.rx_kbps.mean, 9, 0),
            cell(r.rx_kbps.max, 9, 0),
            cell(r.tx_kbps.mean, 9, 0),
            cell(r.tx_kbps.max, 9, 0),
            cell(r.peers.mean, 9, 0),
            cell(r.peers.max, 9, 0),
            cell(r.contrib_rx.mean, 9, 0),
            cell(r.contrib_rx.max, 9, 0),
            cell(r.contrib_tx.mean, 9, 0),
            cell(r.contrib_tx.max, 9, 0),
        );
    }
    s
}

/// Renders Table III.
pub fn render_table3(rows: &[(String, SelfBias)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "TABLE III — NAPA-WINE self-induced bias");
    let _ = writeln!(
        s,
        "{:<9} {:>12} {:>12} {:>12} {:>12}",
        "App", "cPeer%", "cBytes%", "aPeer%", "aBytes%"
    );
    for (app, b) in rows {
        let _ = writeln!(
            s,
            "{:<9} {} {} {} {}",
            app,
            cell(b.contrib_peer_pct, 12, 2),
            cell(b.contrib_bytes_pct, 12, 2),
            cell(b.all_peer_pct, 12, 2),
            cell(b.all_bytes_pct, 12, 2),
        );
    }
    s
}

/// Renders Table IV (one block of metric rows per application).
pub fn render_table4(blocks: &[(String, Vec<MetricPreference>)]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "TABLE IV — network awareness as peer-wise and byte-wise bias"
    );
    let _ = writeln!(
        s,
        "{:<5} {:<9} | {:>7} {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} {:>7}",
        "Net", "App", "B'D%", "P'D%", "BD%", "PD%", "B'U%", "P'U%", "BU%", "PU%"
    );
    // Group by metric across apps, like the paper.
    let metric_names: Vec<String> = blocks
        .first()
        .map(|(_, b)| b.iter().map(|m| m.metric.clone()).collect())
        .unwrap_or_default();
    for metric in &metric_names {
        for (app, block) in blocks {
            let Some(m) = block.iter().find(|m| &m.metric == metric) else {
                continue;
            };
            let _ = writeln!(
                s,
                "{:<5} {:<9} | {} {} {} {} | {} {} {} {}",
                m.metric,
                app,
                cell(m.download_nonw.bytes_pct, 7, 1),
                cell(m.download_nonw.peers_pct, 7, 1),
                cell(m.download_all.bytes_pct, 7, 1),
                cell(m.download_all.peers_pct, 7, 1),
                cell(m.upload_nonw.bytes_pct, 7, 1),
                cell(m.upload_nonw.peers_pct, 7, 1),
                cell(m.upload_all.bytes_pct, 7, 1),
                cell(m.upload_all.peers_pct, 7, 1),
            );
        }
    }
    s
}

/// Renders Figure 1 as a table of shares.
pub fn render_fig1(rows: &[(String, GeoBreakdown)]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "FIGURE 1 — geographical breakdown (% peers / % RX / % TX)"
    );
    for (app, g) in rows {
        let _ = writeln!(s, "{app} (total observed peers: {})", g.total_peers);
        let _ = writeln!(s, "  {:<4} {:>8} {:>8} {:>8}", "CC", "#%", "RX%", "TX%");
        for r in &g.rows {
            let _ = writeln!(
                s,
                "  {:<4} {} {} {}",
                r.label,
                cell(r.peers_pct, 8, 1),
                cell(r.rx_pct, 8, 1),
                cell(r.tx_pct, 8, 1),
            );
        }
    }
    s
}

/// Renders Figure 2 matrices and R ratios.
pub fn render_fig2(rows: &[(String, AsMatrix)]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "FIGURE 2 — mean exchanged bytes between high-bw probes, by AS pair"
    );
    for (app, m) in rows {
        let _ = writeln!(s, "{app}: R = {}", cell(m.r_ratio, 0, 2).trim());
        let _ = write!(s, "  {:>8}", "from\\to");
        for a in &m.ases {
            let _ = write!(s, " {:>10}", format!("AS{a}"));
        }
        let _ = writeln!(s);
        for (i, a) in m.ases.iter().enumerate() {
            let _ = write!(s, "  {:>8}", format!("AS{a}"));
            for j in 0..m.ases.len() {
                let _ = write!(s, " {:>10.0}", m.avg_bytes[i][j]);
            }
            let _ = writeln!(s);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preference::PrefValue;
    use crate::summary::MeanMaxVal;

    #[test]
    fn nan_renders_as_dash() {
        assert_eq!(cell(f64::NAN, 5, 1), "    -");
        assert_eq!(cell(12.345, 7, 1), "   12.3");
    }

    #[test]
    fn table2_contains_app_and_numbers() {
        let rows = vec![AppSummary {
            app: "PPLive".into(),
            rx_kbps: MeanMaxVal {
                mean: 552.0,
                max: 934.0,
            },
            tx_kbps: MeanMaxVal {
                mean: 3384.0,
                max: 11818.0,
            },
            peers: MeanMaxVal {
                mean: 23101.0,
                max: 39797.0,
            },
            contrib_rx: MeanMaxVal {
                mean: 391.0,
                max: 841.0,
            },
            contrib_tx: MeanMaxVal {
                mean: 1025.0,
                max: 2570.0,
            },
        }];
        let out = render_table2(&rows);
        assert!(out.contains("PPLive"));
        assert!(out.contains("552"));
        assert!(out.contains("11818"));
    }

    #[test]
    fn table4_groups_metric_rows() {
        let block = vec![MetricPreference {
            metric: "BW".into(),
            download_nonw: PrefValue {
                peers_pct: 85.9,
                bytes_pct: 95.9,
            },
            download_all: PrefValue {
                peers_pct: 86.1,
                bytes_pct: 95.6,
            },
            upload_nonw: PrefValue::nan(),
            upload_all: PrefValue::nan(),
        }];
        let out = render_table4(&[("PPLive".into(), block)]);
        assert!(out.contains("BW"));
        assert!(out.contains("95.9"));
        assert!(
            out.contains("-"),
            "unmeasurable cells must render as dashes"
        );
    }

    #[test]
    fn fig_renderers_do_not_panic_on_empty() {
        assert!(render_fig1(&[]).contains("FIGURE 1"));
        assert!(render_fig2(&[]).contains("FIGURE 2"));
        assert!(render_table3(&[]).contains("TABLE III"));
    }
}
