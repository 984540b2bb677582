//! Failure injection: corrupted inputs, hostile TTLs, exotic populations
//! — the analysis must degrade gracefully, never panic or fabricate.

use netaware::analysis::flows::aggregate;
use netaware::analysis::{analyze, analyze_corpus, AnalysisConfig};
use netaware::net::{GeoRegistryBuilder, Ip};
use netaware::trace::{
    read_trace, write_trace, CorpusStream, PacketRecord, PayloadKind, ProbeTrace, RecordStream,
    TraceError, TraceSet,
};
use std::collections::BTreeSet;

fn video_rec(ts: u64, src: Ip, dst: Ip, ttl: u8) -> PacketRecord {
    PacketRecord {
        ts_us: ts,
        src,
        dst,
        sport: 1,
        dport: 2,
        size: 1250,
        ttl,
        kind: PayloadKind::Video,
    }
}

#[test]
fn truncated_file_reports_counts() {
    let probe = Ip::from_octets(10, 0, 0, 1);
    let mut t = ProbeTrace::new(probe);
    for i in 0..100 {
        t.push(video_rec(i, Ip::from_octets(58, 0, 0, 1), probe, 110));
    }
    let mut buf = Vec::new();
    write_trace(&t, &mut buf).unwrap();
    for cut in [0, 10, 17, 18, 19, buf.len() - 1] {
        let sliced = &buf[..cut];
        let err = read_trace(&mut &sliced[..]).unwrap_err();
        match err {
            TraceError::Io(_) | TraceError::Truncated { .. } => {}
            other => panic!("cut at {cut}: unexpected {other:?}"),
        }
    }
}

#[test]
fn non_windows_ttls_drop_out_of_hop_metric_only() {
    // A remote running a unix stack (TTL 255 initial → arrives above
    // 128): HOP must skip it, BW/AS/NET must still work.
    let probe = Ip::from_octets(10, 0, 0, 1);
    let weird = Ip::from_octets(58, 0, 0, 9);
    let mut t = ProbeTrace::new(probe);
    for c in 0..5u64 {
        for k in 0..20u64 {
            t.push(video_rec(c * 500_000 + k * 100, weird, probe, 240));
        }
    }
    let mut set = TraceSet::new("X", 10_000_000);
    set.add(t);
    set.finalize();
    let reg = GeoRegistryBuilder::new().build();
    let a = analyze(&set, &reg, &AnalysisConfig::default(), &BTreeSet::new());
    assert!(!a.preference("HOP").unwrap().download_all.is_measurable());
    assert!(a.preference("BW").unwrap().download_all.is_measurable());
    assert!(a.preference("NET").unwrap().download_all.is_measurable());
}

#[test]
fn unresolvable_addresses_count_as_remote() {
    // Empty registry: AS/CC lookups all fail; the framework must treat
    // every pair as "different AS/CC", not crash or divide by zero.
    let probe = Ip::from_octets(10, 0, 0, 1);
    let ext = Ip::from_octets(58, 0, 0, 9);
    let mut t = ProbeTrace::new(probe);
    for c in 0..3u64 {
        for k in 0..20u64 {
            t.push(video_rec(c * 500_000 + k * 100, ext, probe, 110));
        }
    }
    let mut set = TraceSet::new("X", 10_000_000);
    set.add(t);
    set.finalize();
    let reg = GeoRegistryBuilder::new().build();
    let a = analyze(&set, &reg, &AnalysisConfig::default(), &BTreeSet::new());
    let as_pref = a.preference("AS").unwrap().download_all;
    assert_eq!(as_pref.peers_pct, 0.0);
    assert_eq!(as_pref.bytes_pct, 0.0);
    // Fig. 1: everything lands in the '*' bin.
    let star = a.geo.rows.iter().find(|r| r.label == "*").unwrap();
    assert_eq!(star.peers_pct, 100.0);
}

#[test]
fn duplicate_timestamps_are_tolerated() {
    // Batched capture can stamp several packets with the same µs; min
    // IPG then legitimately reads 0 (→ high-bw), and nothing panics.
    let probe = Ip::from_octets(10, 0, 0, 1);
    let ext = Ip::from_octets(58, 0, 0, 9);
    let mut t = ProbeTrace::new(probe);
    for _ in 0..30 {
        t.push(video_rec(1_000, ext, probe, 110));
    }
    let mut set = TraceSet::new("X", 10_000_000);
    set.add(t);
    set.finalize();
    let cfg = AnalysisConfig::default();
    let flows = aggregate(&set, &cfg);
    assert_eq!(flows[0].flows[&ext].min_ipg_us, Some(0));
}

#[test]
fn signaling_only_remotes_never_become_contributors() {
    let probe = Ip::from_octets(10, 0, 0, 1);
    let mut t = ProbeTrace::new(probe);
    // Thousands of small packets from one chatty remote.
    let chatty = Ip::from_octets(58, 0, 0, 7);
    for i in 0..5_000u64 {
        t.push(PacketRecord {
            ts_us: i * 100,
            src: chatty,
            dst: probe,
            sport: 1,
            dport: 2,
            size: 148,
            ttl: 110,
            kind: PayloadKind::Signaling,
        });
    }
    let mut set = TraceSet::new("X", 10_000_000);
    set.add(t);
    set.finalize();
    let reg = GeoRegistryBuilder::new().build();
    let a = analyze(&set, &reg, &AnalysisConfig::default(), &BTreeSet::new());
    assert_eq!(a.summary.contrib_rx.max, 0.0);
    assert_eq!(a.summary.peers.max, 1.0); // still an observed peer
}

#[test]
fn single_packet_flows_are_harmless() {
    let probe = Ip::from_octets(10, 0, 0, 1);
    let mut t = ProbeTrace::new(probe);
    for i in 0..100u32 {
        t.push(video_rec(i as u64, Ip(0x3A00_0000 + i), probe, 110));
    }
    let mut set = TraceSet::new("X", 1_000_000);
    set.add(t);
    set.finalize();
    let reg = GeoRegistryBuilder::new().build();
    let a = analyze(&set, &reg, &AnalysisConfig::default(), &BTreeSet::new());
    // 100 observed peers, none a contributor, BW unmeasurable for all.
    assert_eq!(a.geo.total_peers, 100);
    assert!(!a.preference("BW").unwrap().download_all.is_measurable());
}

#[test]
fn zero_duration_experiment() {
    use netaware::testbed::{run_experiment, ExperimentOptions};
    let opts = ExperimentOptions {
        seed: 1,
        scale: 0.01,
        duration_us: 1, // nothing can happen
        ..Default::default()
    };
    let out = run_experiment(netaware::AppProfile::tvants(), &opts);
    // No video can move in 1 µs; only the t=0 tracker-bootstrap
    // handshakes appear in the traces.
    assert_eq!(out.report.chunks_delivered, 0);
    assert_eq!(out.report.chunks_served_by_externals, 0);
    assert_eq!(out.summary_contrib_max(), 0.0);
}

/// Helper for the zero-duration test: largest contributor count.
trait ContribMax {
    fn summary_contrib_max(&self) -> f64;
}
impl ContribMax for netaware::testbed::ExperimentOutput {
    fn summary_contrib_max(&self) -> f64 {
        self.analysis
            .summary
            .contrib_rx
            .max
            .max(self.analysis.summary.contrib_tx.max)
    }
}

// ---- Streaming reads: the error must carry progress, and the stream
// ---- must fuse after it ------------------------------------------------

fn full_trace_bytes(n: u64) -> Vec<u8> {
    let probe = Ip::from_octets(10, 0, 0, 1);
    let mut t = ProbeTrace::new(probe);
    for i in 0..n {
        t.push(video_rec(i * 10, Ip::from_octets(58, 0, 0, 1), probe, 110));
    }
    let mut buf = Vec::new();
    write_trace(&t, &mut buf).unwrap();
    buf
}

#[test]
fn streaming_truncation_reports_records_already_yielded() {
    const WIRE: usize = PacketRecord::WIRE_SIZE;
    let buf = full_trace_bytes(50);
    for (cut, want_got) in [
        (18, 0u64),             // header only
        (18 + WIRE - 1, 0),     // first record cut short
        (18 + 7 * WIRE + 5, 7), // mid-stream cut
        (buf.len() - 1, 49),    // last record one byte short
    ] {
        let sliced = &buf[..cut];
        let mut stream = RecordStream::new(sliced).unwrap();
        let mut yielded = 0u64;
        let err = loop {
            match stream.next() {
                Some(Ok(_)) => yielded += 1,
                Some(Err(e)) => break e,
                None => panic!("cut at {cut}: stream ended without an error"),
            }
        };
        match err {
            TraceError::Truncated { expected, got } => {
                assert_eq!(expected, 50, "cut at {cut}");
                assert_eq!(got, want_got, "cut at {cut}");
                assert_eq!(got, yielded, "cut at {cut}: error disagrees with iteration");
            }
            other => panic!("cut at {cut}: unexpected {other:?}"),
        }
        // The stream fuses: no records are invented after the error.
        assert!(stream.next().is_none(), "cut at {cut}: stream not fused");
    }
}

#[test]
fn streaming_corrupt_record_carries_its_index() {
    const WIRE: usize = PacketRecord::WIRE_SIZE;
    let mut buf = full_trace_bytes(10);
    // Stamp an invalid payload-kind byte into record 3 (last byte of the
    // 24-byte record encoding).
    buf[18 + 3 * WIRE + (WIRE - 1)] = 0xFF;
    let stream = RecordStream::new(&buf[..]).unwrap();
    let results: Vec<_> = stream.collect();
    assert_eq!(
        results.len(),
        4,
        "three good records, then the error, then fused"
    );
    assert!(results[..3].iter().all(|r| r.is_ok()));
    match &results[3] {
        Err(TraceError::CorruptRecord(idx)) => assert_eq!(*idx, 3),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn streaming_rejects_out_of_order_records() {
    // The on-disk format is a sorted capture; a streaming reader cannot
    // re-sort, so a timestamp regression must surface as an error rather
    // than silently corrupting windowed passes downstream.
    let probe = Ip::from_octets(10, 0, 0, 1);
    let mut t = ProbeTrace::new(probe);
    t.push(video_rec(5_000, Ip::from_octets(58, 0, 0, 1), probe, 110));
    t.push(video_rec(3_000, Ip::from_octets(58, 0, 0, 1), probe, 110));
    // Deliberately NOT finalized: write the records out of order.
    let mut buf = Vec::new();
    write_trace(&t, &mut buf).unwrap();
    let stream = RecordStream::new(&buf[..]).unwrap();
    let results: Vec<_> = stream.collect();
    assert!(results[0].is_ok());
    match &results[1] {
        Err(TraceError::OutOfOrder(idx)) => assert_eq!(*idx, 1),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(
        results.len(),
        2,
        "stream must fuse after the ordering error"
    );

    // The eager readers collect the same stream, so they refuse the
    // unsorted file too instead of sorting it behind the caller's back.
    assert!(matches!(
        read_trace(&mut &buf[..]),
        Err(TraceError::OutOfOrder(1))
    ));
    let dir =
        std::env::temp_dir().join(format!("netaware_failure_unsorted_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    t.finalize();
    let mut set = TraceSet::new("X", 1_000_000);
    set.add(t);
    set.write_dir(&dir).unwrap();
    std::fs::write(dir.join(format!("{probe}.nawt")), &buf).unwrap();
    assert!(matches!(
        TraceSet::read_dir(&dir),
        Err(TraceError::OutOfOrder(1))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_corpus_surfaces_errors_not_partial_analyses() {
    let dir = std::env::temp_dir().join(format!("netaware_failure_corpus_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let probe = Ip::from_octets(10, 0, 0, 1);
    let mut t = ProbeTrace::new(probe);
    for i in 0..60u64 {
        t.push(video_rec(
            i * 1_000,
            Ip::from_octets(58, 0, 0, 1),
            probe,
            110,
        ));
    }
    let mut set = TraceSet::new("X", 1_000_000);
    set.add(t);
    set.finalize();
    set.write_dir(&dir).unwrap();
    let reg = GeoRegistryBuilder::new().build();
    let cfg = AnalysisConfig::default();

    // Unparsable manifest → BadManifest, naming the problem.
    let manifest_path = dir.join("manifest.json");
    let good_manifest = std::fs::read(&manifest_path).unwrap();
    std::fs::write(&manifest_path, b"{ not json").unwrap();
    match CorpusStream::open(&dir) {
        Err(TraceError::BadManifest(_)) => {}
        Err(other) => panic!("unexpected {other:?}"),
        Ok(_) => panic!("garbage manifest parsed"),
    }
    std::fs::write(&manifest_path, &good_manifest).unwrap();

    // Truncated probe file → the streamed analysis refuses, it does not
    // fabricate a partial result.
    let nawt = dir.join(format!("{probe}.nawt"));
    let good_nawt = std::fs::read(&nawt).unwrap();
    std::fs::write(&nawt, &good_nawt[..good_nawt.len() - 7]).unwrap();
    match analyze_corpus(&dir, &reg, &cfg, &BTreeSet::new()) {
        Err(TraceError::Truncated { expected, got }) => {
            assert_eq!(expected, 60);
            assert_eq!(got, 59);
        }
        other => panic!("unexpected {:?}", other.map(|a| a.total_packets)),
    }
    std::fs::write(&nawt, &good_nawt).unwrap();

    // A probe file whose header names a different probe than its
    // manifest entry → BadManifest on open.
    let mut wrong = good_nawt.clone();
    wrong[6] ^= 0x01; // flip a bit inside the header's probe field
    std::fs::write(&nawt, &wrong).unwrap();
    let corpus = CorpusStream::open(&dir).unwrap();
    match corpus.open_probe(probe) {
        Err(TraceError::BadManifest(_)) => {}
        other => panic!("unexpected {:?}", other.map(|s| s.expected())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_packet_sizes_at_the_boundary() {
    // Packets exactly at the video threshold flip sides predictably.
    let cfg = AnalysisConfig::default();
    let probe = Ip::from_octets(10, 0, 0, 1);
    let ext = Ip::from_octets(58, 0, 0, 1);
    let mut t = ProbeTrace::new(probe);
    let mk = |ts, size| PacketRecord {
        ts_us: ts,
        src: ext,
        dst: probe,
        sport: 1,
        dport: 2,
        size,
        ttl: 110,
        kind: PayloadKind::Signaling,
    };
    t.push(mk(0, cfg.video_size_threshold - 1));
    t.push(mk(1, cfg.video_size_threshold));
    let mut set = TraceSet::new("X", 1_000_000);
    set.add(t);
    set.finalize();
    let flows = aggregate(&set, &cfg);
    let f = &flows[0].flows[&ext];
    assert_eq!(f.video_pkts_rx, 1);
    assert_eq!(f.pkts_rx, 2);
}
