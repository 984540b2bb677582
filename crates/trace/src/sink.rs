//! Record sinks: where a capture goes as it is produced.
//!
//! A [`RecordSink`] takes the probes' captures in rounds of segments:
//! each round gives every probe its next time-sorted segment, in probe
//! order, and a probe's segments joined in order make up its capture.
//! The swarm seals one round per second of simulated time (see
//! `Swarm::run_into`) and carries it to the sink in a [`Round`], whose
//! sort and hand-over may run on a second thread while the capture goes
//! on. The sink decides what stays resident: [`MemorySink`] joins the
//! segments into a [`TraceSet`], while [`CorpusSink`] appends each
//! segment to its probe's corpus file as it arrives. A run spilled
//! through [`CorpusSink`] therefore peaks at the swarm's own state plus
//! about two windows of records (the one being captured and the one
//! being sunk), not at the whole capture.

use crate::corpus::CorpusManifest;
use crate::format::{write_header, write_records, TraceError, COUNT_OFFSET};
use crate::record::PacketRecord;
use crate::set::{sort_by_ts, ProbeTrace, TraceSet};
use netaware_net::Ip;
use netaware_obs::{Counter, Level, Obs, ProfCell};
use netaware_sim::SimTime;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fs::File;
use std::io::{ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Opens `path` as a new, empty file, unlinking any file already there
/// instead of truncating it in place. Every corpus file is written
/// through it, so writing a corpus over an older one never waits for
/// the older files to reach the disk (ext4 starts writing a file back
/// when it is closed after a truncation to zero, and the next
/// truncation waits for that write), and a reader that still has an
/// older file open keeps reading the whole of it.
fn create_replacing(path: &Path) -> std::io::Result<File> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != ErrorKind::NotFound => Err(e),
        _ => File::create(path),
    }
}

/// Consumes probe captures in rounds of time-sorted segments.
///
/// `sink_probe` is called in rounds; each round gives every probe its
/// next time-sorted segment, in probe order; a probe's segments joined
/// in order make up its capture. A segment may be empty, and one round
/// of whole captures is a valid use. A segment that would put a record
/// before the last one of the probe's earlier segments fails with
/// [`TraceError::OutOfOrder`]. `finish` seals the sink with the
/// experiment metadata and yields whatever the sink built (a
/// [`TraceSet`], a [`CorpusManifest`], …).
///
/// A sink is `Send` because the swarm calls `sink_probe` on a helper
/// thread while its event loop runs the next window. `sink_probe` must
/// therefore emit no obs event: the event log follows dispatch order,
/// and a helper's events would land in it wherever the loop happened to
/// be. Counters and profiler tallies are commutative and may be
/// updated; per-probe events belong in `finish`, which runs on the
/// loop's thread after the last round.
pub trait RecordSink: Send {
    /// What the sink produces once sealed.
    type Output;

    /// Accepts one probe's next time-sorted segment.
    fn sink_probe(&mut self, segment: ProbeTrace) -> Result<(), TraceError>;

    /// Seals the sink with experiment metadata.
    fn finish(self, app: &str, duration_us: u64) -> Result<Self::Output, TraceError>;
}

/// One round of segments on its way from the probes' capture buffers to
/// a [`RecordSink`]. [`Round::take_through`] moves each probe's sealed
/// records out of its capture buffer into the round, in push order;
/// [`Round::sink_into`] sorts each probe's records and hands them to the
/// sink as an exact-size segment. The two may run on different threads,
/// so the capture's thread pays only for the move. The round's buffer
/// and the sort's scratch buffer are kept from round to round: once
/// warm, a round allocates only the segments the sink takes.
#[derive(Default)]
pub struct Round {
    /// The round's records: each probe's in push order, probe after
    /// probe.
    records: Vec<PacketRecord>,
    /// Each probe's address and the end of its records in `records`.
    ends: Vec<(Ip, usize)>,
    /// The radix sort's second buffer.
    scratch: Vec<PacketRecord>,
}

impl Round {
    /// An empty round.
    pub fn new() -> Round {
        Round::default()
    }

    /// `true` when the round holds no segment: nothing was taken since
    /// it was last sunk.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Moves every record at or before `ts_us` out of each capture into
    /// the round, one segment per capture, in the captures' order; the
    /// later records stay in their captures. Both sides keep push order.
    /// The caller must push nothing at or before `ts_us` into a capture
    /// afterwards: the segments of a capture split at rising `ts_us` then
    /// join, once sorted, into one stable sort of the whole capture.
    /// The round must be empty (sunk) when it is taken.
    pub fn take_through(&mut self, captures: &mut [ProbeTrace], ts_us: u64) {
        debug_assert!(self.is_empty(), "a round taken before it was sunk");
        let n: usize = captures.iter().map(|c| c.count_through(ts_us)).sum();
        if self.records.capacity() < n {
            // Headroom, so that a round a little larger than the largest
            // so far does not move the buffer again.
            self.records.reserve_exact(n + n / 8);
        }
        for capture in captures {
            capture.split_through(ts_us, &mut self.records);
            self.ends.push((capture.probe, self.records.len()));
        }
    }

    /// Sorts each segment of the round stably by timestamp and hands it
    /// to `sink`, in the order the segments were taken, then empties
    /// the round. The first sink error stops the hand-over: no segment
    /// after the failing one reaches the sink, and the rest are
    /// dropped.
    pub fn sink_into<S: RecordSink>(&mut self, sink: &mut S) -> Result<(), TraceError> {
        let mut start = 0;
        let mut result = Ok(());
        for &(probe, end) in &self.ends {
            let segment = &mut self.records[start..end];
            start = end;
            sort_by_ts(segment, &mut self.scratch);
            result = sink.sink_probe(ProbeTrace::from_sorted(probe, segment.to_vec()));
            if result.is_err() {
                break;
            }
        }
        self.records.clear();
        self.ends.clear();
        result
    }
}

/// Joins each probe's segments in memory and builds a [`TraceSet`] —
/// the in-memory path, expressed as a sink.
#[derive(Default)]
pub struct MemorySink {
    /// One capture per probe, in first-seen order.
    traces: Vec<ProbeTrace>,
    /// Position of each probe's capture in `traces`.
    index: BTreeMap<Ip, usize>,
    obs: Obs,
    records_sunk: Counter,
    prof: ProfCell,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// An in-memory sink reporting `trace.records_sunk` and per-probe
    /// `stream.sink` events through `obs`.
    pub fn with_obs(obs: Obs) -> Self {
        MemorySink {
            records_sunk: obs.counter("trace.records_sunk"),
            prof: obs.prof_cell("trace.sink"),
            obs,
            ..MemorySink::default()
        }
    }
}

impl RecordSink for MemorySink {
    type Output = TraceSet;

    fn sink_probe(&mut self, segment: ProbeTrace) -> Result<(), TraceError> {
        let records = segment.len() as u64;
        let k = *self.index.entry(segment.probe).or_insert_with(|| {
            self.traces.push(ProbeTrace::new(segment.probe));
            self.traces.len() - 1
        });
        self.traces[k].append(segment)?;
        self.records_sunk.add(records);
        Ok(())
    }

    fn finish(self, app: &str, duration_us: u64) -> Result<TraceSet, TraceError> {
        let mut set = TraceSet::new(app, duration_us);
        for t in self.traces {
            self.prof.add_calls(1);
            netaware_obs::event!(
                self.obs,
                Level::Info,
                "stream.sink",
                SimTime::from_us(t.records().last().map_or(0, |r| r.ts_us)),
                "probe" = t.probe.to_string(),
                "records" = t.len(),
            );
            set.add(t);
        }
        Ok(set)
    }
}

/// Spills each probe's segments to `<dir>/<probe>.nawt` as they arrive,
/// then patches every file's record count and writes `manifest.json` at
/// [`RecordSink::finish`]. It is the one corpus writer:
/// [`TraceSet::write_dir`] spills through it too, as one round of whole
/// captures, and the directory loads with `TraceSet::read_dir` or
/// streams with [`crate::stream::CorpusStream`].
pub struct CorpusSink {
    dir: PathBuf,
    /// One open file per probe, in first-seen (manifest) order.
    files: Vec<ProbeFile>,
    /// Position of each probe's file in `files`.
    index: BTreeMap<Ip, usize>,
    /// The one encode buffer: every header and block of records is
    /// encoded here and written to its file with one `write_all`.
    buf: Vec<u8>,
    obs: Obs,
    records_sunk: Counter,
    probes_spilled: Counter,
    prof: ProfCell,
}

/// One probe's corpus file while segments are appended to it.
struct ProbeFile {
    probe: Ip,
    file: File,
    /// Records written so far.
    records: u64,
    /// Timestamp of the last record written (zero before the first).
    last_us: u64,
}

impl CorpusSink {
    /// Creates the corpus directory (and parents) and an empty sink
    /// writing into it.
    pub fn create(dir: &Path) -> Result<Self, TraceError> {
        CorpusSink::create_with(dir, Obs::default())
    }

    /// Like [`CorpusSink::create`], additionally reporting
    /// `trace.records_sunk` / `trace.probes_spilled` and per-probe
    /// `stream.spill` events through `obs`.
    pub fn create_with(dir: &Path, obs: Obs) -> Result<Self, TraceError> {
        std::fs::create_dir_all(dir)?;
        Ok(CorpusSink {
            dir: dir.to_path_buf(),
            files: Vec::new(),
            index: BTreeMap::new(),
            buf: Vec::new(),
            records_sunk: obs.counter("trace.records_sunk"),
            probes_spilled: obs.counter("trace.probes_spilled"),
            prof: obs.prof_cell("trace.spill"),
            obs,
        })
    }

    /// Where the corpus is being written.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one segment of a probe's capture to `<dir>/<probe>.nawt`.
    /// The probe's first segment creates the file, its header counting
    /// zero records until [`RecordSink::finish`] patches it.
    pub(crate) fn spill(&mut self, segment: &ProbeTrace) -> Result<(), TraceError> {
        let k = match self.index.entry(segment.probe) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let path = self.dir.join(format!("{}.nawt", segment.probe));
                let mut file = create_replacing(&path)?;
                self.buf.clear();
                write_header(segment.probe, 0, &mut self.buf)?;
                file.write_all(&self.buf)?;
                self.files.push(ProbeFile {
                    probe: segment.probe,
                    file,
                    records: 0,
                    last_us: 0,
                });
                *e.insert(self.files.len() - 1)
            }
        };
        let f = &mut self.files[k];
        if let Some(i) = segment.first_out_of_order(f.last_us) {
            return Err(TraceError::OutOfOrder(f.records + i as u64));
        }
        let records = segment.records_unsorted();
        write_records(records, &mut self.buf, &mut f.file)?;
        f.records += records.len() as u64;
        if let Some(last) = records.last() {
            f.last_us = last.ts_us;
        }
        self.records_sunk.add(records.len() as u64);
        Ok(())
    }
}

impl RecordSink for CorpusSink {
    type Output = CorpusManifest;

    fn sink_probe(&mut self, segment: ProbeTrace) -> Result<(), TraceError> {
        self.spill(&segment)
    }

    fn finish(self, app: &str, duration_us: u64) -> Result<CorpusManifest, TraceError> {
        let mut probes = Vec::with_capacity(self.files.len());
        let mut total_packets = 0;
        for mut f in self.files {
            f.file.seek(SeekFrom::Start(COUNT_OFFSET))?;
            f.file.write_all(&f.records.to_le_bytes())?;
            self.probes_spilled.inc();
            self.prof.add_calls(1);
            netaware_obs::event!(
                self.obs,
                Level::Info,
                "stream.spill",
                SimTime::from_us(f.last_us),
                "probe" = f.probe.to_string(),
                "records" = f.records,
            );
            probes.push(f.probe);
            total_packets += f.records as usize;
        }
        let manifest = CorpusManifest {
            app: app.to_string(),
            duration_us,
            probes,
            total_packets,
        };
        #[expect(
            clippy::expect_used,
            reason = "value-tree serialisation of an in-memory struct cannot fail"
        )]
        let js = serde_json::to_string_pretty(&manifest).expect("manifest serialises");
        create_replacing(&self.dir.join("manifest.json"))?.write_all(js.as_bytes())?;
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PacketRecord, PayloadKind};

    fn trace(probe: Ip, n: u64) -> ProbeTrace {
        let mut t = ProbeTrace::new(probe);
        for i in 0..n {
            t.push(PacketRecord {
                ts_us: i * 500,
                src: Ip::from_octets(58, 0, 0, 1),
                dst: probe,
                sport: 1,
                dport: 2,
                size: 1250,
                ttl: 110,
                kind: PayloadKind::Video,
            });
        }
        t
    }

    #[test]
    fn memory_sink_rebuilds_trace_set() {
        let p1 = Ip::from_octets(10, 0, 0, 1);
        let p2 = Ip::from_octets(10, 0, 1, 1);
        let mut sink = MemorySink::new();
        sink.sink_probe(trace(p1, 5)).unwrap();
        sink.sink_probe(trace(p2, 7)).unwrap();
        let set = sink.finish("PPLive", 9_000_000).unwrap();
        assert_eq!(set.app, "PPLive");
        assert_eq!(set.duration_us, 9_000_000);
        assert_eq!(set.traces.len(), 2);
        assert_eq!(set.traces[0].probe, p1);
        assert_eq!(set.total_packets(), 12);
    }

    #[test]
    fn corpus_sink_matches_write_dir_layout() {
        let dir = std::env::temp_dir().join(format!("netaware_sink_layout_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p1 = Ip::from_octets(10, 0, 0, 1);
        let p2 = Ip::from_octets(10, 0, 1, 1);
        let mut sink = CorpusSink::create(&dir).unwrap();
        sink.sink_probe(trace(p1, 5)).unwrap();
        sink.sink_probe(trace(p2, 7)).unwrap();
        let manifest = sink.finish("TVAnts", 60_000_000).unwrap();
        assert_eq!(manifest.probes, vec![p1, p2]);
        assert_eq!(manifest.total_packets, 12);
        // Readable through the eager corpus loader.
        let set = TraceSet::read_dir(&dir).unwrap();
        assert_eq!(set.app, "TVAnts");
        assert_eq!(set.total_packets(), 12);
        // Byte-identical manifest to the TraceSet::write_dir path.
        let via_sink = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        let dir2 =
            std::env::temp_dir().join(format!("netaware_sink_layout2_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir2);
        set.write_dir(&dir2).unwrap();
        let via_set = std::fs::read_to_string(dir2.join("manifest.json")).unwrap();
        assert_eq!(via_sink, via_set);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    /// Records the segments handed to it, in order.
    #[derive(Default)]
    struct Recording(Vec<ProbeTrace>);

    impl RecordSink for Recording {
        type Output = Vec<ProbeTrace>;

        fn sink_probe(&mut self, segment: ProbeTrace) -> Result<(), TraceError> {
            self.0.push(segment);
            Ok(())
        }

        fn finish(self, _: &str, _: u64) -> Result<Vec<ProbeTrace>, TraceError> {
            Ok(self.0)
        }
    }

    /// Three probes' captures (the third empty) and the same captures
    /// cut into three rounds of segments at 1 ms, 2.5 ms and the end,
    /// carried by one reused [`Round`].
    fn whole_and_rounds() -> (Vec<ProbeTrace>, Vec<Vec<ProbeTrace>>) {
        let whole = vec![
            trace(Ip::from_octets(10, 0, 0, 1), 9),
            trace(Ip::from_octets(10, 0, 1, 1), 4),
            ProbeTrace::new(Ip::from_octets(10, 0, 2, 1)),
        ];
        let mut left = whole.clone();
        let mut round = Round::new();
        let rounds = [1_000, 2_500, u64::MAX]
            .into_iter()
            .map(|through| {
                round.take_through(&mut left, through);
                let mut got = Recording::default();
                round.sink_into(&mut got).unwrap();
                got.0
            })
            .collect();
        assert!(left.iter().all(ProbeTrace::is_empty));
        (whole, rounds)
    }

    #[test]
    fn a_failing_sink_stops_the_round_at_its_error() {
        struct FailSecond(usize);
        impl RecordSink for FailSecond {
            type Output = ();
            fn sink_probe(&mut self, _: ProbeTrace) -> Result<(), TraceError> {
                self.0 += 1;
                match self.0 {
                    2 => Err(TraceError::OutOfOrder(7)),
                    _ => Ok(()),
                }
            }
            fn finish(self, _: &str, _: u64) -> Result<(), TraceError> {
                Ok(())
            }
        }
        let mut captures: Vec<ProbeTrace> = (1..=3)
            .map(|i| trace(Ip::from_octets(10, 0, i, 1), 4))
            .collect();
        let mut round = Round::new();
        round.take_through(&mut captures, u64::MAX);
        let mut sink = FailSecond(0);
        let err = round.sink_into(&mut sink).unwrap_err();
        assert!(matches!(err, TraceError::OutOfOrder(7)), "{err:?}");
        assert_eq!(sink.0, 2, "a segment reached the sink after its error");
        // The round is empty again: the next one starts from nothing.
        round.sink_into(&mut sink).unwrap();
        assert_eq!(sink.0, 2);
    }

    #[test]
    fn rounds_of_segments_join_into_the_whole_capture() {
        let (whole, rounds) = whole_and_rounds();
        assert!(rounds.iter().flatten().any(ProbeTrace::is_empty));
        assert!(rounds.iter().all(|r| r[2].is_empty()));

        let mut one = MemorySink::new();
        whole
            .iter()
            .cloned()
            .try_for_each(|t| one.sink_probe(t))
            .unwrap();
        let mut many = MemorySink::new();
        rounds
            .iter()
            .flatten()
            .cloned()
            .try_for_each(|t| many.sink_probe(t))
            .unwrap();
        let [one, many] = [one, many]
            .map(|s| serde_json::to_string(&s.finish("PPLive", 9_000_000).unwrap()).unwrap());
        assert_eq!(one, many);

        let dirs = ["one", "many"].map(|name| {
            let d = std::env::temp_dir().join(format!(
                "netaware_sink_rounds_{name}_{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&d);
            d
        });
        let mut set = TraceSet::new("PPLive", 9_000_000);
        whole.into_iter().for_each(|t| set.add(t));
        set.write_dir(&dirs[0]).unwrap();
        let mut sink = CorpusSink::create(&dirs[1]).unwrap();
        rounds
            .into_iter()
            .flatten()
            .try_for_each(|t| sink.sink_probe(t))
            .unwrap();
        sink.finish("PPLive", 9_000_000).unwrap();
        for name in [
            "manifest.json",
            "10.0.0.1.nawt",
            "10.0.1.1.nawt",
            "10.0.2.1.nawt",
        ] {
            let [a, b] = dirs
                .each_ref()
                .map(|d| std::fs::read(d.join(name)).unwrap());
            assert_eq!(a, b, "{name} differs between one round and three");
        }
        assert_eq!(TraceSet::read_dir(&dirs[1]).unwrap().total_packets(), 13);
        dirs.iter().for_each(|d| drop(std::fs::remove_dir_all(d)));
    }

    #[test]
    fn an_out_of_order_segment_fails_both_sinks() {
        let p = Ip::from_octets(10, 0, 0, 1);
        // The first segment holds the records at 0, 0.5 and 1 ms.
        let first = || trace(p, 3);
        let at = trace(p, 4).records().to_vec();
        let segment = |picks: &[usize]| {
            let mut t = ProbeTrace::new(p);
            picks.iter().for_each(|&i| t.push(at[i]));
            t
        };
        // One segment starts before the first one's end; the other is in
        // order at the seam but goes back in time within itself.
        let cases = [(segment(&[0]), 3), (segment(&[3, 2]), 4)];
        let dir = std::env::temp_dir().join(format!("netaware_sink_order_{}", std::process::id()));
        for (segment, index) in cases {
            let mut mem = MemorySink::new();
            mem.sink_probe(first()).unwrap();
            let err = mem.sink_probe(segment.clone()).unwrap_err();
            assert!(
                matches!(err, TraceError::OutOfOrder(i) if i == index),
                "{err:?}"
            );
            let mut corpus = CorpusSink::create(&dir).unwrap();
            corpus.sink_probe(first()).unwrap();
            let err = corpus.sink_probe(segment).unwrap_err();
            assert!(
                matches!(err, TraceError::OutOfOrder(i) if i == index),
                "{err:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_sink_replaces_an_older_spill() {
        let dir =
            std::env::temp_dir().join(format!("netaware_sink_respill_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p1 = Ip::from_octets(10, 0, 0, 1);
        let spill = |n| {
            let mut sink = CorpusSink::create(&dir).unwrap();
            sink.sink_probe(trace(p1, n)).unwrap();
            sink.finish("TVAnts", 60_000_000).unwrap()
        };
        spill(5);
        let path = dir.join(format!("{p1}.nawt"));
        let before = std::fs::read(&path).unwrap();
        let mut reader = std::fs::File::open(&path).unwrap();
        assert_eq!(spill(2).total_packets, 2);
        let mut seen = Vec::new();
        std::io::Read::read_to_end(&mut reader, &mut seen).unwrap();
        assert_eq!(seen, before, "an open reader keeps the older file whole");
        assert_eq!(TraceSet::read_dir(&dir).unwrap().total_packets(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
