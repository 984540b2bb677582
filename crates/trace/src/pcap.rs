//! Classic libpcap import/export.
//!
//! The original study worked from tcpdump captures; exporting our traces
//! in the same classic pcap format (synthesising Ethernet/IPv4/UDP
//! headers around each record) keeps them inspectable with standard
//! tooling, and the importer lets externally produced captures flow into
//! the same analysis pipeline.
//!
//! Only what the analysis needs survives the trip: timestamps, endpoint
//! addresses, ports, datagram size, and TTL. The payload-kind ground
//! truth cannot be represented in pcap, so imported records are tagged by
//! the same size heuristic the analysis uses.

use crate::record::{PacketRecord, PayloadKind};
use crate::set::ProbeTrace;
use crate::TraceError;
use netaware_net::Ip;
use std::io::{self, Read, Write};

/// Classic pcap magic (microsecond timestamps, little-endian).
const PCAP_MAGIC: u32 = 0xA1B2_C3D4;
/// LINKTYPE_ETHERNET.
const LINKTYPE_EN10MB: u32 = 1;
const ETH_HDR: usize = 14;
const IP_HDR: usize = 20;
const UDP_HDR: usize = 8;

/// Size boundary used to tag imported packets as video when ground truth
/// is unavailable — matches the analysis heuristic default.
pub const IMPORT_VIDEO_SIZE_THRESHOLD: u16 = 400;

/// Writes a probe trace as a classic pcap file.
pub fn export_pcap<W: Write>(trace: &ProbeTrace, out: &mut W) -> Result<(), TraceError> {
    // Global header.
    out.write_all(&PCAP_MAGIC.to_le_bytes())?;
    out.write_all(&2u16.to_le_bytes())?; // version major
    out.write_all(&4u16.to_le_bytes())?; // version minor
    out.write_all(&0i32.to_le_bytes())?; // thiszone
    out.write_all(&0u32.to_le_bytes())?; // sigfigs
    out.write_all(&65_535u32.to_le_bytes())?; // snaplen
    out.write_all(&LINKTYPE_EN10MB.to_le_bytes())?;

    let mut frame = Vec::with_capacity(ETH_HDR + IP_HDR + UDP_HDR);
    for rec in trace.records_unsorted() {
        frame.clear();
        build_frame(rec, &mut frame);
        // Per-packet header: ts_sec, ts_usec, incl_len, orig_len.
        out.write_all(&((rec.ts_us / 1_000_000) as u32).to_le_bytes())?;
        out.write_all(&((rec.ts_us % 1_000_000) as u32).to_le_bytes())?;
        out.write_all(&(frame.len() as u32).to_le_bytes())?;
        let orig = ETH_HDR as u32 + rec.size as u32;
        out.write_all(&orig.to_le_bytes())?;
        out.write_all(&frame)?;
    }
    Ok(())
}

/// Synthesises Ethernet+IPv4+UDP headers for a record. Captured length is
/// truncated at the UDP header (snap-length style) — the analysis never
/// needs payload bytes, only sizes, which live in the IP total-length
/// field.
fn build_frame(rec: &PacketRecord, out: &mut Vec<u8>) {
    // Ethernet: synthetic MACs derived from the IPs, EtherType IPv4.
    let s = rec.src.octets();
    let d = rec.dst.octets();
    out.extend_from_slice(&[0x02, 0x00, d[0], d[1], d[2], d[3]]);
    out.extend_from_slice(&[0x02, 0x00, s[0], s[1], s[2], s[3]]);
    out.extend_from_slice(&[0x08, 0x00]);

    // IPv4 header.
    let total_len = rec.size.max((IP_HDR + UDP_HDR) as u16);
    out.push(0x45); // version 4, IHL 5
    out.push(0); // DSCP
    out.extend_from_slice(&total_len.to_be_bytes());
    out.extend_from_slice(&[0, 0, 0x40, 0]); // id, flags DF
    out.push(rec.ttl);
    out.push(17); // UDP
    let cksum_at = out.len();
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(&s);
    out.extend_from_slice(&d);
    let cksum = ipv4_checksum(&out[ETH_HDR..ETH_HDR + IP_HDR]);
    out[cksum_at..cksum_at + 2].copy_from_slice(&cksum.to_be_bytes());

    // UDP header.
    out.extend_from_slice(&rec.sport.to_be_bytes());
    out.extend_from_slice(&rec.dport.to_be_bytes());
    let udp_len = total_len - IP_HDR as u16;
    out.extend_from_slice(&udp_len.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // checksum optional in IPv4
}

fn ipv4_checksum(hdr: &[u8]) -> u16 {
    let mut sum = 0u32;
    for pair in hdr.chunks(2) {
        let word = u16::from_be_bytes([pair[0], *pair.get(1).unwrap_or(&0)]);
        sum += word as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Incremental pcap reader: yields one [`PacketRecord`] per UDP/IPv4
/// frame without materialising the capture.
///
/// pcap is a foreign format with no ordering guarantee, so unlike
/// [`crate::stream::RecordStream`] this iterator does **not** enforce
/// timestamp monotonicity — collect through
/// [`ProbeTrace::from_records`] (or sort downstream) before analyses
/// that need time order.
pub struct PcapStream<R: Read> {
    input: R,
    skipped: u64,
    done: bool,
}

impl<R: Read> PcapStream<R> {
    /// Opens a stream by validating the 24-byte pcap global header
    /// (classic magic, Ethernet link type).
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let mut head = [0u8; 24];
        input.read_exact(&mut head)?;
        let magic_bytes = [head[0], head[1], head[2], head[3]];
        let magic = u32::from_le_bytes(magic_bytes);
        if magic != PCAP_MAGIC {
            return Err(TraceError::BadMagic(magic_bytes));
        }
        let linktype = u32::from_le_bytes([head[20], head[21], head[22], head[23]]);
        if linktype != LINKTYPE_EN10MB {
            return Err(TraceError::BadVersion(linktype as u16));
        }
        Ok(PcapStream {
            input,
            skipped: 0,
            done: false,
        })
    }

    /// Frames skipped so far because they were not IPv4/UDP.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Reads frames until one parses, EOF (`Ok(None)`), or an I/O error.
    fn next_record(&mut self) -> Result<Option<PacketRecord>, TraceError> {
        let mut pkt_head = [0u8; 16];
        loop {
            match self.input.read_exact(&mut pkt_head) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
                Err(e) => return Err(e.into()),
            }
            let [s0, s1, s2, s3, u0, u1, u2, u3, i0, i1, i2, i3, ..] = pkt_head;
            let ts_sec = u32::from_le_bytes([s0, s1, s2, s3]) as u64;
            let ts_usec = u32::from_le_bytes([u0, u1, u2, u3]) as u64;
            let incl = u32::from_le_bytes([i0, i1, i2, i3]) as usize;
            let mut frame = vec![0u8; incl];
            self.input.read_exact(&mut frame)?;
            match parse_frame(ts_sec * 1_000_000 + ts_usec, &frame) {
                Some(rec) => return Ok(Some(rec)),
                None => self.skipped += 1,
            }
        }
    }
}

impl<R: Read> Iterator for PcapStream<R> {
    type Item = Result<PacketRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Reads a classic pcap file captured at `probe` back into a trace.
///
/// Non-IPv4/non-UDP frames are skipped. Returns the trace and the number
/// of skipped frames.
pub fn import_pcap<R: Read>(probe: Ip, input: &mut R) -> Result<(ProbeTrace, u64), TraceError> {
    let mut stream = PcapStream::new(input)?;
    let mut records = Vec::new();
    for rec in stream.by_ref() {
        records.push(rec?);
    }
    Ok((ProbeTrace::from_records(probe, records), stream.skipped()))
}

fn parse_frame(ts_us: u64, frame: &[u8]) -> Option<PacketRecord> {
    if frame.len() < ETH_HDR + IP_HDR + UDP_HDR {
        return None;
    }
    if frame[12] != 0x08 || frame[13] != 0x00 {
        return None; // not IPv4
    }
    let ip = &frame[ETH_HDR..];
    if ip[0] >> 4 != 4 || ip[9] != 17 {
        return None; // not IPv4/UDP
    }
    let ihl = ((ip[0] & 0x0F) as usize) * 4;
    if ihl < IP_HDR || frame.len() < ETH_HDR + ihl + UDP_HDR {
        return None;
    }
    let total_len = u16::from_be_bytes([ip[2], ip[3]]);
    let ttl = ip[8];
    let src = Ip(u32::from_be_bytes([ip[12], ip[13], ip[14], ip[15]]));
    let dst = Ip(u32::from_be_bytes([ip[16], ip[17], ip[18], ip[19]]));
    let udp = &ip[ihl..];
    let sport = u16::from_be_bytes([udp[0], udp[1]]);
    let dport = u16::from_be_bytes([udp[2], udp[3]]);
    Some(PacketRecord {
        ts_us,
        src,
        dst,
        sport,
        dport,
        size: total_len,
        ttl,
        kind: if total_len >= IMPORT_VIDEO_SIZE_THRESHOLD {
            PayloadKind::Video
        } else {
            PayloadKind::Signaling
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ProbeTrace {
        let probe = Ip::from_octets(130, 192, 1, 9);
        let remote = Ip::from_octets(58, 7, 7, 7);
        let mut t = ProbeTrace::new(probe);
        for i in 0..50u64 {
            t.push(PacketRecord {
                ts_us: 1_000_000 + i * 777,
                src: if i % 2 == 0 { remote } else { probe },
                dst: if i % 2 == 0 { probe } else { remote },
                sport: 4000,
                dport: 8021,
                size: if i % 5 == 0 { 120 } else { 1278 },
                ttl: 109,
                kind: if i % 5 == 0 {
                    PayloadKind::Signaling
                } else {
                    PayloadKind::Video
                },
            });
        }
        t
    }

    #[test]
    fn export_import_roundtrip_preserves_analysis_fields() {
        let t = sample_trace();
        let mut buf = Vec::new();
        export_pcap(&t, &mut buf).unwrap();
        let (back, skipped) = import_pcap(t.probe, &mut buf.as_slice()).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(back.len(), t.len());
        for (a, b) in back.records_unsorted().iter().zip(t.records_unsorted()) {
            assert_eq!(a.ts_us, b.ts_us);
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.sport, b.sport);
            assert_eq!(a.dport, b.dport);
            assert_eq!(a.size, b.size);
            assert_eq!(a.ttl, b.ttl);
        }
    }

    #[test]
    fn import_kind_follows_size_heuristic() {
        let t = sample_trace();
        let mut buf = Vec::new();
        export_pcap(&t, &mut buf).unwrap();
        let (back, _) = import_pcap(t.probe, &mut buf.as_slice()).unwrap();
        for r in back.records_unsorted() {
            if r.size >= IMPORT_VIDEO_SIZE_THRESHOLD {
                assert_eq!(r.kind, PayloadKind::Video);
            } else {
                assert_eq!(r.kind, PayloadKind::Signaling);
            }
        }
    }

    #[test]
    fn global_header_fields() {
        let mut buf = Vec::new();
        export_pcap(&sample_trace(), &mut buf).unwrap();
        assert_eq!(
            u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            PCAP_MAGIC
        );
        assert_eq!(u16::from_le_bytes(buf[4..6].try_into().unwrap()), 2);
        assert_eq!(u16::from_le_bytes(buf[6..8].try_into().unwrap()), 4);
        assert_eq!(
            u32::from_le_bytes(buf[20..24].try_into().unwrap()),
            LINKTYPE_EN10MB
        );
    }

    #[test]
    fn checksum_is_valid() {
        // Sum of all header 16-bit words including the checksum must be
        // 0xFFFF.
        let mut buf = Vec::new();
        let t = sample_trace();
        export_pcap(&t, &mut buf).unwrap();
        let ip_hdr = &buf[24 + 16 + ETH_HDR..24 + 16 + ETH_HDR + IP_HDR];
        let mut sum = 0u32;
        for pair in ip_hdr.chunks(2) {
            sum += u16::from_be_bytes([pair[0], pair[1]]) as u32;
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        assert_eq!(sum, 0xFFFF);
    }

    #[test]
    fn import_rejects_non_pcap() {
        let garbage = vec![0u8; 64];
        assert!(matches!(
            import_pcap(Ip(0), &mut garbage.as_slice()),
            Err(TraceError::BadMagic(_))
        ));
    }

    #[test]
    fn pcap_stream_yields_frames_incrementally() {
        let t = sample_trace();
        let mut buf = Vec::new();
        export_pcap(&t, &mut buf).unwrap();
        let mut stream = PcapStream::new(buf.as_slice()).unwrap();
        let recs: Vec<PacketRecord> = stream.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), t.len());
        assert_eq!(stream.skipped(), 0);
        assert_eq!(recs[0].ts_us, t.records_unsorted()[0].ts_us);
    }

    #[test]
    fn import_skips_non_udp_frames() {
        let t = sample_trace();
        let mut buf = Vec::new();
        export_pcap(&t, &mut buf).unwrap();
        // Corrupt the protocol byte of the first frame's IP header (TCP).
        let proto_at = 24 + 16 + ETH_HDR + 9;
        buf[proto_at] = 6;
        let (back, skipped) = import_pcap(t.probe, &mut buf.as_slice()).unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(back.len(), t.len() - 1);
    }
}
