//! Compact binary trace format.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   4 B   "NAWT"
//! version 2 B   currently 1
//! probe   4 B   capturing host address
//! count   8 B   number of records
//! records count × 24 B  (see PacketRecord::encode)
//! ```
//!
//! A 1-hour, 44-probe experiment serialises to a few hundred MB — the
//! same order as the original pcap corpus per run, but with fixed-size
//! records it reads back at memory bandwidth.

use crate::record::PacketRecord;
use crate::set::ProbeTrace;
use crate::stream::RecordStream;
use netaware_net::Ip;
use std::fmt;
use std::io::{self, Read, Write};

/// Format magic.
pub const MAGIC: [u8; 4] = *b"NAWT";
/// Current format version.
pub const VERSION: u16 = 1;

/// Errors reading or writing trace files.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The magic bytes were wrong — not a trace file.
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u16),
    /// The file ended before `count` records were read.
    Truncated {
        /// Records expected from the header.
        expected: u64,
        /// Records actually present.
        got: u64,
    },
    /// A record failed to decode (e.g. invalid payload kind).
    CorruptRecord(u64),
    /// A streamed record's timestamp went backwards. Streaming readers
    /// cannot re-sort, so the file must already be time-sorted (traces
    /// are written post-finalize; see `ProbeTrace::finalize`).
    OutOfOrder(
        /// Index of the record that broke monotonicity.
        u64,
    ),
    /// A corpus manifest was missing, unparsable, or inconsistent with
    /// its trace files.
    BadManifest(
        /// What was wrong.
        String,
    ),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic(m) => write!(f, "bad magic {m:?}, not a NAWT trace"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated trace: header said {expected} records, found {got}"
                )
            }
            TraceError::CorruptRecord(i) => write!(f, "corrupt record at index {i}"),
            TraceError::OutOfOrder(i) => {
                write!(
                    f,
                    "record {i} is out of timestamp order; finalize before writing"
                )
            }
            TraceError::BadManifest(why) => write!(f, "bad corpus manifest: {why}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Serialises a probe trace to `out`.
///
/// ```
/// use netaware_net::Ip;
/// use netaware_trace::{write_trace, read_trace, ProbeTrace, PacketRecord, PayloadKind};
///
/// let probe = Ip::from_octets(10, 0, 0, 1);
/// let mut t = ProbeTrace::new(probe);
/// t.push(PacketRecord {
///     ts_us: 42, src: Ip::from_octets(58, 0, 0, 1), dst: probe,
///     sport: 1, dport: 2, size: 1250, ttl: 110, kind: PayloadKind::Video,
/// });
/// let mut buf = Vec::new();
/// write_trace(&t, &mut buf).unwrap();
/// let back = read_trace(&mut buf.as_slice()).unwrap();
/// assert_eq!(back.records_unsorted(), t.records_unsorted());
/// ```
pub fn write_trace<W: Write>(trace: &ProbeTrace, out: &mut W) -> Result<(), TraceError> {
    let records = trace.records_unsorted();
    write_header(trace.probe, records.len() as u64, out)?;
    Ok(write_records(records, &mut Vec::new(), out)?)
}

/// Byte offset of the record count in the header.
pub(crate) const COUNT_OFFSET: u64 = 10;

/// Writes the 18-byte header of a `count`-record capture at `probe`.
pub(crate) fn write_header<W: Write>(probe: Ip, count: u64, out: &mut W) -> io::Result<()> {
    out.write_all(&MAGIC)?;
    out.write_all(&VERSION.to_le_bytes())?;
    out.write_all(&probe.0.to_le_bytes())?;
    out.write_all(&count.to_le_bytes())
}

/// Writes the encodings of `records`, with no header: blocks of at most
/// 4 096 records, each encoded into `buf` and written with one
/// `write_all`, so a whole capture never sits encoded in memory. A
/// caller that writes again keeps `buf` for its capacity.
pub(crate) fn write_records<W: Write>(
    records: &[PacketRecord],
    buf: &mut Vec<u8>,
    out: &mut W,
) -> io::Result<()> {
    for block in records.chunks(4096) {
        buf.clear();
        for r in block {
            r.encode(buf);
        }
        out.write_all(buf)?;
    }
    Ok(())
}

/// Parses the fixed 18-byte header, returning `(probe, record count)`.
/// The count is untrusted input: a short file may claim 2^64 records.
pub(crate) fn read_header<R: Read>(input: &mut R) -> Result<(Ip, u64), TraceError> {
    let mut head = [0u8; 18];
    input.read_exact(&mut head)?;
    let [m0, m1, m2, m3, v0, v1, p0, p1, p2, p3, c0, c1, c2, c3, c4, c5, c6, c7] = head;
    let magic = [m0, m1, m2, m3];
    if magic != MAGIC {
        return Err(TraceError::BadMagic(magic));
    }
    let version = u16::from_le_bytes([v0, v1]);
    if version != VERSION {
        return Err(TraceError::BadVersion(version));
    }
    let probe = Ip(u32::from_le_bytes([p0, p1, p2, p3]));
    let count = u64::from_le_bytes([c0, c1, c2, c3, c4, c5, c6, c7]);
    Ok((probe, count))
}

/// Deserialises a probe trace from `input`: a [`RecordStream`] collected
/// into memory, so it fails with the stream's typed errors (including
/// [`TraceError::OutOfOrder`] for a file written before finalize) and
/// its buffer grows only as records actually decode.
pub fn read_trace<R: Read>(input: &mut R) -> Result<ProbeTrace, TraceError> {
    RecordStream::new(input)?.collect_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PayloadKind;

    fn sample_trace(n: u64) -> ProbeTrace {
        let probe = Ip::from_octets(130, 192, 1, 9);
        let mut t = ProbeTrace::new(probe);
        for i in 0..n {
            t.push(PacketRecord {
                ts_us: i * 100,
                src: if i % 2 == 0 {
                    probe
                } else {
                    Ip(i as u32 | 0x3A00_0000)
                },
                dst: if i % 2 == 0 {
                    Ip(i as u32 | 0x3A00_0000)
                } else {
                    probe
                },
                sport: (i % 65536) as u16,
                dport: 8021,
                size: 60 + (i % 1300) as u16,
                ttl: (100 + i % 28) as u8,
                kind: if i % 3 == 0 {
                    PayloadKind::Signaling
                } else {
                    PayloadKind::Video
                },
            });
        }
        t
    }

    #[test]
    fn roundtrip_empty() {
        let t = sample_trace(0);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.probe, t.probe);
        assert!(back.is_empty());
    }

    #[test]
    fn roundtrip_many() {
        let t = sample_trace(10_000);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), 18 + 10_000 * PacketRecord::WIRE_SIZE);
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(back.probe, t.probe);
        assert_eq!(back.records(), t.records());
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(1), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_version_detected() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(1), &mut buf).unwrap();
        buf[4] = 99;
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::BadVersion(99))
        ));
    }

    #[test]
    fn truncation_detected_with_counts() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(10), &mut buf).unwrap();
        buf.truncate(18 + 5 * PacketRecord::WIRE_SIZE + 3);
        match read_trace(&mut buf.as_slice()) {
            Err(TraceError::Truncated { expected, got }) => {
                assert_eq!(expected, 10);
                assert_eq!(got, 5);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_record_detected() {
        let mut buf = Vec::new();
        write_trace(&sample_trace(3), &mut buf).unwrap();
        // Payload-kind byte of record 1.
        buf[18 + PacketRecord::WIRE_SIZE + 23] = 0xFF;
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceError::CorruptRecord(1))
        ));
    }

    #[test]
    fn error_display() {
        let e = TraceError::Truncated {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("4"));
        assert!(TraceError::BadVersion(7).to_string().contains("7"));
    }
}
