//! Trace tooling walkthrough: capture, serialise, export to pcap, read
//! back, aggregate flows.
//!
//! ```text
//! cargo run --release --example trace_inspect [-- --out /tmp/netaware-traces]
//! ```
//!
//! Runs a short SopCast-like experiment, persists one probe's capture in
//! both the native binary format and classic pcap (openable in
//! wireshark/tcpdump), re-imports both, verifies they agree, and prints
//! the probe's top contributors with their inferred bandwidth class.

use netaware::analysis::flows::aggregate_probe;
use netaware::analysis::ipg::{bw_class, BwClass};
use netaware::analysis::AnalysisConfig;
use netaware::testbed::{run_experiment, ExperimentOptions};
use netaware::trace::pcap::{export_pcap, import_pcap};
use netaware::trace::{read_trace, write_trace};
use netaware::AppProfile;
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn main() {
    let out_dir = std::env::args()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "/tmp/netaware-traces".into());
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    let opts = ExperimentOptions {
        seed: 11,
        scale: 0.05,
        duration_us: 90_000_000,
        keep_traces: true,
        ..Default::default()
    };
    eprintln!("running a 90 s SopCast-like experiment…");
    let out = run_experiment(AppProfile::sopcast(), &opts);
    let traces = out.traces.expect("keep_traces was set");

    // Pick the busiest probe.
    let mut trace = traces
        .traces
        .into_iter()
        .max_by_key(|t| t.len())
        .expect("at least one probe");
    trace.finalize();
    println!(
        "busiest probe {}: {} packets, {:.2} MB",
        trace.probe,
        trace.len(),
        trace.total_bytes() as f64 / 1e6
    );

    // Native binary format round trip.
    let bin_path = format!("{out_dir}/probe.nawt");
    write_trace(
        &trace,
        &mut BufWriter::new(File::create(&bin_path).unwrap()),
    )
    .unwrap();
    let back = read_trace(&mut BufReader::new(File::open(&bin_path).unwrap())).unwrap();
    assert_eq!(back.len(), trace.len());
    println!(
        "binary round trip OK → {bin_path} ({} bytes)",
        std::fs::metadata(&bin_path).unwrap().len()
    );

    // Classic pcap export + import.
    let pcap_path = format!("{out_dir}/probe.pcap");
    export_pcap(
        &trace,
        &mut BufWriter::new(File::create(&pcap_path).unwrap()),
    )
    .unwrap();
    let (reimported, skipped) = import_pcap(
        trace.probe,
        &mut BufReader::new(File::open(&pcap_path).unwrap()),
    )
    .unwrap();
    assert_eq!(skipped, 0);
    assert_eq!(reimported.len(), trace.len());
    println!(
        "pcap round trip OK → {pcap_path} ({} bytes, opens in wireshark)",
        std::fs::metadata(&pcap_path).unwrap().len()
    );

    // Flow aggregation: top contributors by received bytes.
    let cfg = AnalysisConfig::default();
    let pf = aggregate_probe(&trace, &cfg);
    let mut flows: Vec<_> = pf.flows.values().collect();
    flows.sort_by_key(|f| std::cmp::Reverse(f.bytes_rx));
    println!("\ntop contributors to {} (download):", trace.probe);
    println!(
        "{:<18} {:>10} {:>8} {:>9} {:>6}",
        "remote", "RX bytes", "pkts", "min IPG", "class"
    );
    for f in flows.iter().take(10) {
        let class = match bw_class(f, &cfg) {
            BwClass::High => "high",
            BwClass::Low => "low",
            BwClass::Unknown => "?",
        };
        println!(
            "{:<18} {:>10} {:>8} {:>8}µs {:>6}",
            f.remote.to_string(),
            f.bytes_rx,
            f.pkts_rx,
            f.min_ipg_us.map(|g| g.to_string()).unwrap_or("-".into()),
            class
        );
    }
}
