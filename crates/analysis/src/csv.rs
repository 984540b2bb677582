//! CSV export of the reproduced figures and tables.
//!
//! The text renderers in [`tables`](crate::tables) target terminals;
//! these writers emit the same data as tidy CSV so the figures can be
//! re-plotted with any tool (gnuplot/matplotlib/R) next to the paper's
//! originals. All writers produce RFC-4180-style output with a header
//! row and no trailing newline-quoting surprises (fields here are
//! numeric or simple tokens; nothing needs quoting).

use crate::report::ExperimentAnalysis;
use std::fmt::Write as _;

/// Table IV rows: one line per (app, metric) with all eight cells.
pub fn table4_csv(analyses: &[&ExperimentAnalysis]) -> String {
    let mut s = String::from(
        "app,metric,b_d_nonw,p_d_nonw,b_d_all,p_d_all,b_u_nonw,p_u_nonw,b_u_all,p_u_all\n",
    );
    let cell = |v: f64| {
        if v.is_nan() {
            String::new()
        } else {
            format!("{v:.3}")
        }
    };
    for a in analyses {
        for m in &a.preferences {
            let _ = writeln!(
                s,
                "{},{},{},{},{},{},{},{},{},{}",
                a.app,
                m.metric,
                cell(m.download_nonw.bytes_pct),
                cell(m.download_nonw.peers_pct),
                cell(m.download_all.bytes_pct),
                cell(m.download_all.peers_pct),
                cell(m.upload_nonw.bytes_pct),
                cell(m.upload_nonw.peers_pct),
                cell(m.upload_all.bytes_pct),
                cell(m.upload_all.peers_pct),
            );
        }
    }
    s
}

/// Fig. 1 rows: one line per (app, country).
pub fn fig1_csv(analyses: &[&ExperimentAnalysis]) -> String {
    let mut s = String::from("app,country,peers_pct,rx_pct,tx_pct\n");
    for a in analyses {
        for r in &a.geo.rows {
            let _ = writeln!(
                s,
                "{},{},{:.3},{:.3},{:.3}",
                a.app, r.label, r.peers_pct, r.rx_pct, r.tx_pct
            );
        }
    }
    s
}

/// Fig. 2 cells: one line per (app, from_as, to_as).
pub fn fig2_csv(analyses: &[&ExperimentAnalysis]) -> String {
    let mut s = String::from("app,from_as,to_as,avg_bytes\n");
    for a in analyses {
        let m = &a.asmatrix;
        for (i, &from) in m.ases.iter().enumerate() {
            for (j, &to) in m.ases.iter().enumerate() {
                let _ = writeln!(s, "{},AS{},AS{},{:.1}", a.app, from, to, m.avg_bytes[i][j]);
            }
        }
    }
    s
}

/// Hop-distribution rows: one line per (app, hops).
pub fn hopdist_csv(analyses: &[&ExperimentAnalysis]) -> String {
    let mut s = String::from("app,hops,flows\n");
    for a in analyses {
        for (h, &c) in a.hop_distribution.counts.iter().enumerate() {
            if c > 0 {
                let _ = writeln!(s, "{},{},{}", a.app, h, c);
            }
        }
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

    fn sample() -> ExperimentAnalysis {
        ExperimentAnalysis {
            app: "X".into(),
            summary: AppSummary {
                app: "X".into(),
                rx_kbps: MeanMaxVal::default(),
                tx_kbps: MeanMaxVal::default(),
                peers: MeanMaxVal::default(),
                contrib_rx: MeanMaxVal::default(),
                contrib_tx: MeanMaxVal::default(),
            },
            selfbias: SelfBias::default(),
            preferences: vec![MetricPreference {
                metric: "BW".into(),
                download_nonw: PrefValue {
                    peers_pct: 85.0,
                    bytes_pct: 96.0,
                },
                download_all: PrefValue {
                    peers_pct: 86.0,
                    bytes_pct: 95.5,
                },
                upload_nonw: PrefValue::nan(),
                upload_all: PrefValue::nan(),
            }],
            geo: GeoBreakdown {
                rows: vec![GeoRow {
                    label: "CN".into(),
                    peers_pct: 87.0,
                    rx_pct: 90.0,
                    tx_pct: 92.0,
                }],
                total_peers: 100,
            },
            asmatrix: AsMatrix {
                ases: vec![1, 2],
                avg_bytes: vec![vec![10.0, 20.0], vec![30.0, 40.0]],
                intra_mean: 25.0,
                inter_mean: 25.0,
                r_ratio: 1.0,
            },
            friendliness: Friendliness::default(),
            hop_distribution: HopDistribution {
                counts: {
                    let mut v = vec![0u64; 65];
                    v[19] = 7;
                    v
                },
                ..Default::default()
            },
            hop_threshold: 19,
            total_packets: 0,
            total_bytes: 0,
        }
    }

    #[test]
    fn table4_csv_shape() {
        let a = sample();
        let out = table4_csv(&[&a]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("app,metric"));
        assert!(lines[1].starts_with("X,BW,96.000,85.000,95.500,86.000,"));
        // NaN cells become empty fields.
        assert!(lines[1].ends_with(",,,,"));
    }

    #[test]
    fn fig1_and_fig2_csv() {
        let a = sample();
        let f1 = fig1_csv(&[&a]);
        assert!(f1.contains("X,CN,87.000,90.000,92.000"));
        let f2 = fig2_csv(&[&a]);
        assert!(f2.contains("X,AS1,AS2,20.0"));
        assert_eq!(f2.lines().count(), 1 + 4);
    }

    #[test]
    fn hopdist_csv_skips_empty_bins() {
        let a = sample();
        let out = hopdist_csv(&[&a]);
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("X,19,7"));
    }
}
