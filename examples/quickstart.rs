//! Quickstart: measure the network awareness of one P2P-TV application.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Runs a scaled-down TVAnts-like experiment on the reconstructed
//! NAPA-WINE testbed and prints what the passive analysis can tell about
//! its peer selection — the whole paper in one page of output.

use netaware::testbed::{run_experiment, ExperimentOptions};
use netaware::AppProfile;

fn main() {
    // A 2-minute experiment on a 5% scale overlay: small enough for a
    // laptop, large enough for the biases to be visible.
    let opts = ExperimentOptions {
        seed: 42,
        scale: 0.05,
        duration_us: 120_000_000,
        ..Default::default()
    };

    println!("running a TVAnts-like experiment (this takes a few seconds)…\n");
    let out = run_experiment(AppProfile::tvants(), &opts);

    println!(
        "captured {} packets ({:.1} MB) at {} probes; stream continuity {:.1}%\n",
        out.analysis.total_packets,
        out.analysis.total_bytes as f64 / 1e6,
        46,
        100.0 * out.report.continuity()
    );

    println!("inferred network awareness (download side, all contributors):");
    for metric in ["BW", "AS", "CC", "NET", "HOP"] {
        let p = out.analysis.preference(metric).unwrap();
        println!(
            "  {:<4} {:5.1}% of peers, {:5.1}% of bytes in the preferred class",
            metric, p.download_all.peers_pct, p.download_all.bytes_pct
        );
    }

    let bw = out.analysis.preference("BW").unwrap();
    let r#as = out.analysis.preference("AS").unwrap();
    println!();
    if bw.download_all.bytes_pct > 80.0 {
        println!("→ the application hunts high-bandwidth peers (BW-aware)");
    }
    if r#as.download_all.bytes_pct > 3.0 * r#as.download_all.peers_pct {
        println!(
            "→ bytes concentrate on same-AS peers {}x beyond their peer share (AS-aware)",
            (r#as.download_all.bytes_pct / r#as.download_all.peers_pct).round()
        );
    }
    let hop = out.analysis.preference("HOP").unwrap();
    if (35.0..65.0).contains(&hop.download_nonw.bytes_pct) {
        println!(
            "→ no preference for shorter paths once the probe set is excluded (not HOP-aware)"
        );
    }
}
