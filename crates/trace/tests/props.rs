//! Randomized property tests for trace formats, driven by a
//! seeded [`DetRng`] so every run explores the same cases.

use netaware_net::Ip;
use netaware_sim::DetRng;
use netaware_trace::pcap::{export_pcap, import_pcap};
use netaware_trace::{read_trace, write_trace, PacketRecord, PayloadKind, ProbeTrace};

const PROBE: Ip = Ip(0x0A00_0001);
const CASES: usize = 128;

fn arb_record(rng: &mut DetRng) -> PacketRecord {
    let remote = Ip(rng.range(1..u32::MAX) ^ 0x5000_0000);
    let rx = rng.chance(0.5);
    let (src, dst) = if rx { (remote, PROBE) } else { (PROBE, remote) };
    PacketRecord {
        ts_us: rng.next_u64(),
        src,
        dst,
        sport: rng.range(0..=u16::MAX as u32) as u16,
        dport: rng.range(0..=u16::MAX as u32) as u16,
        size: rng.range(28..1500u32) as u16,
        ttl: rng.range(1..=255u32) as u8,
        kind: if rng.chance(0.5) {
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

/// Record encode/decode is the identity for every field pattern.
#[test]
fn record_codec_roundtrip() {
    let mut rng = DetRng::stream(0x7ACE, "trace/record_codec");
    for _ in 0..CASES {
        let r = arb_record(&mut rng);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), PacketRecord::WIRE_SIZE);
        let back = PacketRecord::decode(buf[..].try_into().unwrap()).unwrap();
        assert_eq!(back, r);
    }
}

/// File format round-trips arbitrary traces bit-for-bit.
#[test]
fn file_roundtrip() {
    let mut rng = DetRng::stream(0x7ACE, "trace/file_roundtrip");
    for _ in 0..CASES {
        let trace = ProbeTrace::from_records(PROBE, arb_records(&mut rng, 300));
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.probe, PROBE);
        assert_eq!(back.records_unsorted(), trace.records_unsorted());
    }
}

/// Truncating a valid file anywhere strictly inside yields an error,
/// never a silent partial read.
#[test]
fn any_truncation_errors() {
    let mut rng = DetRng::stream(0x7ACE, "trace/truncation");
    for _ in 0..CASES {
        let mut records = arb_records(&mut rng, 50);
        if records.is_empty() {
            records.push(arb_record(&mut rng));
        }
        let frac: f64 = rng.range(0.0..1.0);
        let trace = ProbeTrace::from_records(PROBE, records);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let cut = ((buf.len() - 1) as f64 * frac) as usize;
        assert!(read_trace(&mut &buf[..cut]).is_err());
    }
}

/// pcap round-trip preserves analysis fields (sizes below the IP+UDP
/// header floor are clamped up by the encapsulation).
#[test]
fn pcap_roundtrip() {
    let mut rng = DetRng::stream(0x7ACE, "trace/pcap_roundtrip");
    for _ in 0..CASES {
        // pcap stores second+µs timestamps in u32s: stay in range.
        let records: Vec<PacketRecord> = arb_records(&mut rng, 150)
            .into_iter()
            .map(|mut r| {
                r.ts_us %= 4_000_000_000_000_000;
                r
            })
            .collect();
        let trace = ProbeTrace::from_records(PROBE, records);
        let mut buf = Vec::new();
        export_pcap(&trace, &mut buf).unwrap();
        let (back, skipped) = import_pcap(PROBE, &mut buf.as_slice()).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(back.len(), trace.len());
        for (a, b) in back.records_unsorted().iter().zip(trace.records_unsorted()) {
            assert_eq!(a.ts_us, b.ts_us);
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.sport, b.sport);
            assert_eq!(a.dport, b.dport);
            assert_eq!(a.ttl, b.ttl);
            assert_eq!(a.size, b.size.max(28));
        }
    }
}
