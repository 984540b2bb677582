//! Cross-crate randomized tests: invariants of the trace → flow →
//! preference pipeline under arbitrary (but well-formed) packet inputs,
//! driven by a seeded [`DetRng`] so every run explores the same cases.

use netaware::analysis::flows::aggregate_probe;
use netaware::analysis::partition::Metric;
use netaware::analysis::preference::{preference, Dir};
use netaware::analysis::AnalysisConfig;
use netaware::net::{
    AsId, AsInfo, AsKind, CountryCode, GeoRegistry, GeoRegistryBuilder, Ip, Prefix,
};
use netaware::sim::DetRng;
use netaware::trace::{PacketRecord, PayloadKind, ProbeTrace};

const PROBE: Ip = Ip(0x0A00_0001);
const CASES: usize = 64;

fn registry() -> GeoRegistry {
    let mut b = GeoRegistryBuilder::new();
    b.register_as(AsInfo::new(1, CountryCode::IT, AsKind::Academic, "HOME"));
    b.register_as(AsInfo::new(2, CountryCode::CN, AsKind::Carrier, "FAR"));
    b.announce(Prefix::of(Ip(0x0A00_0000), 16), AsId(1))
        .unwrap();
    b.announce(Prefix::of(Ip(0x3A00_0000), 8), AsId(2)).unwrap();
    b.build()
}

/// A packet touching the probe, with a remote drawn from a small pool so
/// flows accumulate.
fn arb_record(rng: &mut DetRng) -> PacketRecord {
    let remote_idx: u32 = rng.range(0..12u32);
    let remote = if rng.chance(0.5) {
        Ip(0x3A00_0100 + remote_idx) // CN space
    } else {
        Ip(0x0A00_0100 + remote_idx) // probe's AS
    };
    let rx = rng.chance(0.5);
    let (src, dst) = if rx { (remote, PROBE) } else { (PROBE, remote) };
    let size: u16 = rng.range(56..1400u32) as u16;
    let ttl: u8 = rng.range(90..=128u32) as u8;
    PacketRecord {
        ts_us: rng.range(0..600_000_000u64),
        src,
        dst,
        sport: 1,
        dport: 2,
        size,
        ttl: if rx { ttl } else { 128 },
        kind: if size >= 400 {
            PayloadKind::Video
        } else {
            PayloadKind::Signaling
        },
    }
}

fn arb_records(rng: &mut DetRng, max_len: usize) -> Vec<PacketRecord> {
    let n = rng.range(0..max_len);
    (0..n).map(|_| arb_record(rng)).collect()
}

fn trace_from(records: Vec<PacketRecord>) -> ProbeTrace {
    ProbeTrace::from_records(PROBE, records)
}

/// Flow aggregation conserves packets and bytes exactly.
#[test]
fn aggregation_conserves_totals() {
    let mut rng = DetRng::stream(0xAB1E, "pipeline/aggregation_conserves");
    for _ in 0..CASES {
        let records = arb_records(&mut rng, 400);
        let trace = trace_from(records.clone());
        let cfg = AnalysisConfig::default();
        let flows = aggregate_probe(&trace, &cfg);
        let total_pkts: u64 = flows.flows.values().map(|f| f.pkts_rx + f.pkts_tx).sum();
        let total_bytes: u64 = flows.flows.values().map(|f| f.bytes_rx + f.bytes_tx).sum();
        assert_eq!(total_pkts, records.len() as u64);
        assert_eq!(
            total_bytes,
            records.iter().map(|r| r.size as u64).sum::<u64>()
        );
        // Video subsets never exceed totals.
        for f in flows.flows.values() {
            assert!(f.video_bytes_rx <= f.bytes_rx);
            assert!(f.video_bytes_tx <= f.bytes_tx);
            assert!(f.video_pkts_rx <= f.pkts_rx);
        }
    }
}

/// min IPG is a true minimum: no adjacent received-video pair of the same
/// remote is closer than the reported value.
#[test]
fn min_ipg_is_minimal() {
    let mut rng = DetRng::stream(0xAB1E, "pipeline/min_ipg");
    for _ in 0..CASES {
        let trace = trace_from(arb_records(&mut rng, 400));
        let cfg = AnalysisConfig::default();
        let flows = aggregate_probe(&trace, &cfg);
        for (remote, f) in &flows.flows {
            let ts: Vec<u64> = trace
                .records_unsorted()
                .iter()
                .filter(|r| {
                    r.src == *remote && r.dst == PROBE && r.size >= cfg.video_size_threshold
                })
                .map(|r| r.ts_us)
                .collect();
            let true_min = ts.windows(2).map(|w| w[1] - w[0]).min();
            assert_eq!(f.min_ipg_us, true_min, "remote {remote}");
        }
    }
}

/// Preference percentages are bounded and the preferred/complement split
/// partitions the measurable set.
#[test]
fn preference_is_a_partition() {
    let mut rng = DetRng::stream(0xAB1E, "pipeline/preference_partition");
    for _ in 0..CASES {
        let trace = trace_from(arb_records(&mut rng, 400));
        let cfg = AnalysisConfig::default();
        let reg = registry();
        let flows = vec![aggregate_probe(&trace, &cfg)];
        for metric in Metric::ALL {
            for dir in [Dir::Download, Dir::Upload] {
                let v = preference(&flows, &reg, &cfg, 19, metric, dir, None);
                if v.is_measurable() {
                    assert!(
                        (0.0..=100.0).contains(&v.peers_pct),
                        "{} {:?}",
                        metric.name(),
                        dir
                    );
                    if !v.bytes_pct.is_nan() {
                        assert!((0.0..=100.0).contains(&v.bytes_pct));
                    }
                }
            }
        }
    }
}

/// Excluding the (empty) probe set is a no-op; excluding everything
/// empties the measurement.
#[test]
fn exclusion_set_monotonicity() {
    let mut rng = DetRng::stream(0xAB1E, "pipeline/exclusion_monotone");
    for _ in 0..CASES {
        let trace = trace_from(arb_records(&mut rng, 300));
        let cfg = AnalysisConfig::default();
        let reg = registry();
        let flows = vec![aggregate_probe(&trace, &cfg)];
        let empty = std::collections::BTreeSet::new();
        let everything: std::collections::BTreeSet<Ip> = flows[0].flows.keys().copied().collect();
        let base = preference(&flows, &reg, &cfg, 19, Metric::Net, Dir::Download, None);
        let with_empty = preference(
            &flows,
            &reg,
            &cfg,
            19,
            Metric::Net,
            Dir::Download,
            Some(&empty),
        );
        assert_eq!(base.is_measurable(), with_empty.is_measurable());
        if base.is_measurable() {
            assert_eq!(base.peers_pct.to_bits(), with_empty.peers_pct.to_bits());
        }
        let none_left = preference(
            &flows,
            &reg,
            &cfg,
            19,
            Metric::Net,
            Dir::Download,
            Some(&everything),
        );
        assert!(!none_left.is_measurable());
    }
}

/// The whole trace-set survives binary serialisation bit-for-bit.
#[test]
fn format_roundtrip() {
    let mut rng = DetRng::stream(0xAB1E, "pipeline/format_roundtrip");
    for _ in 0..CASES {
        let trace = trace_from(arb_records(&mut rng, 300));
        let mut buf = Vec::new();
        netaware::trace::write_trace(&trace, &mut buf).unwrap();
        let back = netaware::trace::read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.probe, trace.probe);
        assert_eq!(back.records_unsorted(), trace.records_unsorted());
    }
}

/// pcap export/import preserves every analysis-relevant field.
#[test]
fn pcap_roundtrip() {
    let mut rng = DetRng::stream(0xAB1E, "pipeline/pcap_roundtrip");
    for _ in 0..CASES {
        let trace = trace_from(arb_records(&mut rng, 200));
        let mut buf = Vec::new();
        netaware::trace::pcap::export_pcap(&trace, &mut buf).unwrap();
        let (back, skipped) =
            netaware::trace::pcap::import_pcap(trace.probe, &mut buf.as_slice()).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(back.len(), trace.len());
        for (a, b) in back.records_unsorted().iter().zip(trace.records_unsorted()) {
            assert_eq!(a.ts_us, b.ts_us);
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.size.max(28), b.size.max(28)); // headers floor tiny sizes
            assert_eq!(a.ttl, b.ttl);
        }
    }
}

/// Geo breakdown percentages always sum to ~100 (or are all zero).
#[test]
fn geo_shares_sum_to_hundred() {
    let mut rng = DetRng::stream(0xAB1E, "pipeline/geo_shares");
    for _ in 0..CASES {
        let mut records = arb_records(&mut rng, 300);
        if records.is_empty() {
            records.push(arb_record(&mut rng));
        }
        let trace = trace_from(records);
        let cfg = AnalysisConfig::default();
        let reg = registry();
        let flows = vec![aggregate_probe(&trace, &cfg)];
        let g = netaware::analysis::geo::geo_breakdown(&flows, &reg);
        let peer_sum: f64 = g.rows.iter().map(|r| r.peers_pct).sum();
        assert!((peer_sum - 100.0).abs() < 1e-6, "sum {peer_sum}");
    }
}
