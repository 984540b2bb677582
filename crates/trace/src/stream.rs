//! Streaming trace readers: records straight off disk, one at a time.
//!
//! [`crate::format::read_trace`] materialises a whole [`crate::ProbeTrace`]
//! before the analysis sees a single packet — fine for CI-scale runs,
//! memory-unbounded at the paper's >140M-packet campaign scale. The
//! streaming readers here yield [`PacketRecord`]s incrementally so an
//! analysis pass can fold over a corpus while holding only its
//! accumulators:
//!
//! * [`RecordStream`] — one `.nawt` probe file, validated record by
//!   record (typed [`TraceError`]s for truncation, corruption and
//!   ordering violations — never a silently short iterator);
//! * [`CorpusStream`] — a saved corpus directory (`manifest.json` plus
//!   per-probe files), handing out one [`RecordStream`] per probe.
//!
//! NAWT files are written post-finalize and are therefore time-sorted;
//! since a streaming reader cannot re-sort, [`RecordStream`] *enforces*
//! monotonic timestamps and fails with [`TraceError::OutOfOrder`] on a
//! file that was written from an unfinalized trace.

use crate::corpus::CorpusManifest;
use crate::format::{read_header, TraceError};
use crate::record::PacketRecord;
use crate::set::ProbeTrace;
use netaware_net::Ip;
use netaware_obs::{Level, Obs};
use netaware_sim::SimTime;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};

/// Stable label for a stream failure, used as the `kind` field of
/// `stream.error` events and as the `trace.stream_errors.<kind>`
/// counter suffix.
fn error_kind(e: &TraceError) -> &'static str {
    match e {
        TraceError::Io(_) => "io",
        TraceError::BadMagic(_) => "bad_magic",
        TraceError::BadVersion(_) => "bad_version",
        TraceError::Truncated { .. } => "truncated",
        TraceError::CorruptRecord(_) => "corrupt_record",
        TraceError::OutOfOrder(_) => "out_of_order",
        TraceError::BadManifest(_) => "bad_manifest",
    }
}

/// Incremental reader over one binary probe trace.
///
/// Iterates `Result<PacketRecord, TraceError>`; after the first error the
/// stream is exhausted (subsequent `next()` calls return `None`), so a
/// `for`-loop with `?` observes each failure exactly once.
pub struct RecordStream<R: Read> {
    input: R,
    probe: Ip,
    expected: u64,
    yielded: u64,
    last_ts: u64,
    done: bool,
    obs: Obs,
}

impl<R: Read> RecordStream<R> {
    /// Opens a stream by parsing the 18-byte NAWT header. Fails with the
    /// same typed errors as [`crate::format::read_trace`].
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let (probe, expected) = read_header(&mut input)?;
        Ok(RecordStream {
            input,
            probe,
            expected,
            yielded: 0,
            last_ts: 0,
            done: false,
            obs: Obs::default(),
        })
    }

    /// Attaches an observability handle: read failures are counted as
    /// `trace.stream_errors.<kind>` and reported as `stream.error`
    /// events stamped with the last good record's sim time.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The capturing probe, from the header.
    pub fn probe(&self) -> Ip {
        self.probe
    }

    /// Number of records the header promises.
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Records yielded successfully so far.
    pub fn yielded(&self) -> u64 {
        self.yielded
    }

    /// Collects the whole stream into a [`ProbeTrace`], failing with the
    /// first record error.
    pub(crate) fn collect_trace(self) -> Result<ProbeTrace, TraceError> {
        let probe = self.probe;
        let records = self.collect::<Result<Vec<_>, _>>()?;
        Ok(ProbeTrace::from_records(probe, records))
    }

    fn read_record(&mut self) -> Result<PacketRecord, TraceError> {
        let mut buf = [0u8; PacketRecord::WIRE_SIZE];
        match self.input.read_exact(&mut buf) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(TraceError::Truncated {
                    expected: self.expected,
                    got: self.yielded,
                });
            }
            Err(e) => return Err(e.into()),
        }
        let rec = PacketRecord::decode(&buf).ok_or(TraceError::CorruptRecord(self.yielded))?;
        if rec.ts_us < self.last_ts {
            return Err(TraceError::OutOfOrder(self.yielded));
        }
        self.last_ts = rec.ts_us;
        Ok(rec)
    }

    /// Reports a stream failure through the obs handle. Out of line and
    /// cold so the error machinery (string formatting, event assembly)
    /// stays off the per-record `next()` hot path.
    #[cold]
    #[inline(never)]
    fn report_error(&self, e: &TraceError) {
        let kind = error_kind(e);
        self.obs
            .counter(&format!("trace.stream_errors.{kind}"))
            .inc();
        netaware_obs::event!(
            self.obs,
            Level::Error,
            "stream.error",
            SimTime::from_us(self.last_ts),
            "probe" = self.probe.to_string(),
            "at_record" = self.yielded,
            "kind" = kind,
        );
    }
}

impl<R: Read> Iterator for RecordStream<R> {
    type Item = Result<PacketRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done || self.yielded == self.expected {
            self.done = true;
            return None;
        }
        match self.read_record() {
            Ok(rec) => {
                self.yielded += 1;
                Some(Ok(rec))
            }
            Err(e) => {
                self.done = true;
                self.report_error(&e);
                Some(Err(e))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        let left = (self.expected - self.yielded).min(usize::MAX as u64) as usize;
        (0, Some(left))
    }
}

/// A [`RecordStream`] over a buffered file handle — what
/// [`CorpusStream::open_probe`] hands out.
pub type FileRecordStream = RecordStream<BufReader<File>>;

/// A saved corpus directory opened for streaming: the manifest is loaded
/// eagerly (it is tiny), probe traces are opened lazily one file at a
/// time and never materialised.
pub struct CorpusStream {
    dir: PathBuf,
    manifest: CorpusManifest,
    obs: Obs,
}

impl CorpusStream {
    /// Opens `<dir>/manifest.json`. Fails with [`TraceError::Io`] when the
    /// manifest is missing and [`TraceError::BadManifest`] when it does
    /// not parse.
    pub fn open(dir: &Path) -> Result<Self, TraceError> {
        CorpusStream::open_with(dir, Obs::default())
    }

    /// Like [`CorpusStream::open`], additionally attaching `obs` to
    /// every probe stream handed out by
    /// [`CorpusStream::open_probe`] (see [`RecordStream::set_obs`]).
    pub fn open_with(dir: &Path, obs: Obs) -> Result<Self, TraceError> {
        let raw = std::fs::read_to_string(dir.join("manifest.json"))?;
        let manifest: CorpusManifest =
            serde_json::from_str(&raw).map_err(|e| TraceError::BadManifest(e.to_string()))?;
        Ok(CorpusStream {
            dir: dir.to_path_buf(),
            manifest,
            obs,
        })
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &CorpusManifest {
        &self.manifest
    }

    /// Application name recorded at save time.
    pub fn app(&self) -> &str {
        &self.manifest.app
    }

    /// Experiment duration, µs.
    pub fn duration_us(&self) -> u64 {
        self.manifest.duration_us
    }

    /// Probe addresses in trace order (the probe set `W`, including
    /// probes that captured nothing).
    pub fn probes(&self) -> &[Ip] {
        &self.manifest.probes
    }

    /// Total packets the manifest promises across all probes.
    pub fn total_packets(&self) -> usize {
        self.manifest.total_packets
    }

    /// Opens the record stream of one probe, verifying that the file's
    /// header agrees with the manifest about who captured it.
    pub fn open_probe(&self, probe: Ip) -> Result<FileRecordStream, TraceError> {
        let path = self.dir.join(format!("{probe}.nawt"));
        let mut stream = RecordStream::new(BufReader::new(File::open(path)?))?;
        stream.set_obs(self.obs.clone());
        if stream.probe() != probe {
            return Err(TraceError::BadManifest(format!(
                "{probe}.nawt contains capture for {}",
                stream.probe()
            )));
        }
        Ok(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::write_trace;
    use crate::record::PayloadKind;
    use crate::set::TraceSet;

    fn rec(ts: u64, src: Ip, dst: Ip) -> PacketRecord {
        PacketRecord {
            ts_us: ts,
            src,
            dst,
            sport: 1,
            dport: 2,
            size: 1250,
            ttl: 110,
            kind: PayloadKind::Video,
        }
    }

    fn sample_bytes(n: u64) -> (ProbeTrace, Vec<u8>) {
        let probe = Ip::from_octets(10, 0, 0, 1);
        let remote = Ip::from_octets(58, 0, 0, 1);
        let mut t = ProbeTrace::new(probe);
        for i in 0..n {
            t.push(rec(i * 100, remote, probe));
        }
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        (t, buf)
    }

    #[test]
    fn streams_whole_trace_in_order() {
        let (t, buf) = sample_bytes(1000);
        let s = RecordStream::new(buf.as_slice()).unwrap();
        assert_eq!(s.probe(), t.probe);
        assert_eq!(s.expected(), 1000);
        let recs: Vec<PacketRecord> = s.map(|r| r.unwrap()).collect();
        assert_eq!(recs.as_slice(), t.records());
    }

    #[test]
    fn truncated_stream_yields_typed_error_then_ends() {
        let (_, mut buf) = sample_bytes(10);
        buf.truncate(18 + 4 * PacketRecord::WIRE_SIZE + 7);
        let mut s = RecordStream::new(buf.as_slice()).unwrap();
        let mut ok = 0;
        let err = loop {
            match s.next().unwrap() {
                Ok(_) => ok += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(ok, 4);
        match err {
            TraceError::Truncated { expected, got } => {
                assert_eq!((expected, got), (10, 4));
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        assert!(s.next().is_none(), "stream must fuse after an error");
    }

    #[test]
    fn corrupt_record_reports_index() {
        let (_, mut buf) = sample_bytes(5);
        buf[18 + 2 * PacketRecord::WIRE_SIZE + 23] = 0xFF; // kind byte of record 2
        let errs: Vec<TraceError> = RecordStream::new(buf.as_slice())
            .unwrap()
            .filter_map(|r| r.err())
            .collect();
        assert!(matches!(errs.as_slice(), [TraceError::CorruptRecord(2)]));
    }

    #[test]
    fn out_of_order_file_is_rejected() {
        // write_trace serialises push order; skipping finalize leaves the
        // file unsorted, which the streaming reader must refuse.
        let probe = Ip::from_octets(10, 0, 0, 1);
        let remote = Ip::from_octets(58, 0, 0, 1);
        let mut t = ProbeTrace::new(probe);
        t.push(rec(500, remote, probe));
        t.push(rec(100, remote, probe));
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let errs: Vec<TraceError> = RecordStream::new(buf.as_slice())
            .unwrap()
            .filter_map(|r| r.err())
            .collect();
        assert!(matches!(errs.as_slice(), [TraceError::OutOfOrder(1)]));
    }

    #[test]
    fn empty_trace_streams_nothing() {
        let (_, buf) = sample_bytes(0);
        let mut s = RecordStream::new(buf.as_slice()).unwrap();
        assert!(s.next().is_none());
    }

    #[test]
    fn corpus_stream_walks_every_probe() {
        let dir = std::env::temp_dir().join(format!("netaware_stream_walk_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut set = TraceSet::new("SopCast", 60_000_000);
        for k in 0..3u8 {
            let probe = Ip::from_octets(10, 0, k, 1);
            let mut t = ProbeTrace::new(probe);
            for i in 0..20u64 {
                t.push(rec(i * 1000, Ip::from_octets(58, 0, 0, 1), probe));
            }
            set.add(t);
        }
        set.finalize();
        set.write_dir(&dir).unwrap();

        let corpus = CorpusStream::open(&dir).unwrap();
        assert_eq!(corpus.app(), "SopCast");
        assert_eq!(corpus.duration_us(), 60_000_000);
        assert_eq!(corpus.probes().len(), 3);
        let mut total = 0u64;
        for &probe in corpus.probes() {
            for r in corpus.open_probe(probe).unwrap() {
                r.unwrap();
                total += 1;
            }
        }
        assert_eq!(total as usize, corpus.total_packets());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_stream_detects_probe_mismatch() {
        let dir =
            std::env::temp_dir().join(format!("netaware_stream_mismatch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let probe = Ip::from_octets(10, 0, 0, 1);
        let other = Ip::from_octets(10, 0, 9, 9);
        let mut set = TraceSet::new("X", 1_000_000);
        set.add(ProbeTrace::new(probe));
        set.finalize();
        set.write_dir(&dir).unwrap();
        // Overwrite the probe file with a capture from someone else.
        let imposter = ProbeTrace::new(other);
        let mut w =
            std::io::BufWriter::new(File::create(dir.join(format!("{probe}.nawt"))).unwrap());
        write_trace(&imposter, &mut w).unwrap();
        drop(w);
        let corpus = CorpusStream::open(&dir).unwrap();
        assert!(matches!(
            corpus.open_probe(probe),
            Err(TraceError::BadManifest(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
