//! Record sinks: where a capture goes as it is produced.
//!
//! A [`RecordSink`] takes the probes' captures in rounds of segments:
//! each round gives every probe its next time-sorted segment, in probe
//! order, and a probe's segments joined in order make up its capture.
//! The swarm seals one round per second of simulated time (see
//! `Swarm::run_into`), and the sink decides what stays resident:
//! [`MemorySink`] joins the segments into a [`TraceSet`], while
//! [`CorpusSink`] appends each segment to its probe's corpus file as it
//! arrives. A run spilled through [`CorpusSink`] therefore peaks at the
//! swarm's own state plus about one window of records, not at the whole
//! capture.

use crate::corpus::CorpusManifest;
use crate::format::{write_header, write_records, TraceError, COUNT_OFFSET};
use crate::set::{ProbeTrace, TraceSet};
use netaware_net::Ip;
use netaware_obs::{Counter, Level, Obs, ProfCell};
use netaware_sim::SimTime;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Seek, SeekFrom, Write};
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
pub trait RecordSink {
    /// What the sink produces once sealed.
    type Output;

    /// Accepts one probe's next time-sorted segment.
    fn sink_probe(&mut self, segment: ProbeTrace) -> Result<(), TraceError>;

    /// Seals the sink with experiment metadata.
    fn finish(self, app: &str, duration_us: u64) -> Result<Self::Output, TraceError>;
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
    obs: Obs,
    records_sunk: Counter,
    probes_spilled: Counter,
    prof: ProfCell,
}

/// One probe's corpus file while segments are appended to it.
struct ProbeFile {
    probe: Ip,
    out: BufWriter<File>,
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
                let mut out = BufWriter::new(create_replacing(&path)?);
                write_header(segment.probe, 0, &mut out)?;
                self.files.push(ProbeFile {
                    probe: segment.probe,
                    out,
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
        write_records(records, &mut f.out)?;
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
            // Seeking writes out the buffered records first.
            f.out.seek(SeekFrom::Start(COUNT_OFFSET))?;
            f.out.write_all(&f.records.to_le_bytes())?;
            f.out.flush()?;
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

    /// Three probes' captures (the third empty) and the same captures
    /// cut into three rounds of segments at 1 ms, 2.5 ms and the end.
    fn whole_and_rounds() -> (Vec<ProbeTrace>, Vec<Vec<ProbeTrace>>) {
        let whole = vec![
            trace(Ip::from_octets(10, 0, 0, 1), 9),
            trace(Ip::from_octets(10, 0, 1, 1), 4),
            ProbeTrace::new(Ip::from_octets(10, 0, 2, 1)),
        ];
        let mut left = whole.clone();
        let rounds = [1_000, 2_500, u64::MAX]
            .into_iter()
            .map(|through| left.iter_mut().map(|t| t.drain_through(through)).collect())
            .collect();
        (whole, rounds)
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
