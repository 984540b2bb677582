//! Record sinks: where a capture goes as it is produced.
//!
//! The testbed runner historically returned a fully-built
//! [`TraceSet`] — every probe's records resident at once. A
//! [`RecordSink`] inverts that: the producer hands over one finalized
//! [`ProbeTrace`] at a time and the sink decides whether to keep it in
//! memory ([`MemorySink`], the legacy behaviour) or spill it to a corpus
//! directory immediately ([`CorpusSink`], which itself never holds more
//! than one probe's capture; the producer may still hold the rest — the
//! swarm keeps every capture until its event loop ends).

use crate::corpus::CorpusManifest;
use crate::format::{write_trace, TraceError};
use crate::set::{ProbeTrace, TraceSet};
use netaware_net::Ip;
use netaware_obs::{Counter, Level, Obs, ProfCell};
use netaware_sim::SimTime;
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write};
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

/// Sim time of a sunk trace: its last record's timestamp (the moment
/// the capture was complete), or zero for an empty capture. Reads the
/// unsorted view so a [`MemorySink`] fed a not-yet-finalized trace
/// still stamps a usable time.
fn sink_time(trace: &ProbeTrace) -> SimTime {
    SimTime::from_us(trace.records_unsorted().last().map_or(0, |r| r.ts_us))
}

/// Consumes finalized probe captures one at a time.
///
/// `sink_probe` is called once per probe in experiment order; `finish`
/// seals the sink with the experiment metadata and yields whatever the
/// sink built (a [`TraceSet`], a [`CorpusManifest`], …).
pub trait RecordSink {
    /// What the sink produces once sealed.
    type Output;

    /// Accepts one probe's finalized (time-sorted) capture.
    fn sink_probe(&mut self, trace: ProbeTrace) -> Result<(), TraceError>;

    /// Seals the sink with experiment metadata.
    fn finish(self, app: &str, duration_us: u64) -> Result<Self::Output, TraceError>;
}

/// Keeps every probe trace in memory and builds a [`TraceSet`] — the
/// legacy in-memory path, expressed as a sink.
#[derive(Default)]
pub struct MemorySink {
    traces: Vec<ProbeTrace>,
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
            traces: Vec::new(),
            records_sunk: obs.counter("trace.records_sunk"),
            prof: obs.prof_cell("trace.sink"),
            obs,
        }
    }
}

impl RecordSink for MemorySink {
    type Output = TraceSet;

    fn sink_probe(&mut self, trace: ProbeTrace) -> Result<(), TraceError> {
        self.records_sunk.add(trace.len() as u64);
        self.prof.add_calls(1);
        netaware_obs::event!(
            self.obs,
            Level::Info,
            "stream.sink",
            sink_time(&trace),
            "probe" = trace.probe.to_string(),
            "records" = trace.len(),
        );
        self.traces.push(trace);
        Ok(())
    }

    fn finish(self, app: &str, duration_us: u64) -> Result<TraceSet, TraceError> {
        let mut set = TraceSet::new(app, duration_us);
        for t in self.traces {
            set.add(t);
        }
        Ok(set)
    }
}

/// Spills each probe trace to `<dir>/<probe>.nawt` the moment it
/// arrives, then writes `manifest.json` at [`RecordSink::finish`]. It is
/// the one corpus writer: [`TraceSet::write_dir`] spills through it too,
/// and the directory loads with `TraceSet::read_dir` or streams with
/// [`crate::stream::CorpusStream`].
pub struct CorpusSink {
    dir: PathBuf,
    probes: Vec<Ip>,
    total_packets: usize,
    obs: Obs,
    records_sunk: Counter,
    probes_spilled: Counter,
    prof: ProfCell,
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
            probes: Vec::new(),
            total_packets: 0,
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

    /// Writes one probe's finalized capture to `<dir>/<probe>.nawt`.
    pub(crate) fn spill(&mut self, trace: &ProbeTrace) -> Result<(), TraceError> {
        debug_assert!(
            trace.is_sorted(),
            "probe {} sunk before finalize(); corpus files must be time-sorted",
            trace.probe
        );
        let path = self.dir.join(format!("{}.nawt", trace.probe));
        let mut w = BufWriter::new(create_replacing(&path)?);
        self.prof.time(|| -> Result<(), TraceError> {
            write_trace(trace, &mut w)?;
            Ok(w.flush()?)
        })?;
        self.records_sunk.add(trace.len() as u64);
        self.probes_spilled.inc();
        netaware_obs::event!(
            self.obs,
            Level::Info,
            "stream.spill",
            sink_time(trace),
            "probe" = trace.probe.to_string(),
            "records" = trace.len(),
        );
        self.probes.push(trace.probe);
        self.total_packets += trace.len();
        Ok(())
    }
}

impl RecordSink for CorpusSink {
    type Output = CorpusManifest;

    fn sink_probe(&mut self, trace: ProbeTrace) -> Result<(), TraceError> {
        self.spill(&trace)
    }

    fn finish(self, app: &str, duration_us: u64) -> Result<CorpusManifest, TraceError> {
        let manifest = CorpusManifest {
            app: app.to_string(),
            duration_us,
            probes: self.probes,
            total_packets: self.total_packets,
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
        let dir = std::env::temp_dir()
            .join(format!("netaware_sink_layout_{}", std::process::id()));
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
        let dir2 = std::env::temp_dir()
            .join(format!("netaware_sink_layout2_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir2);
        set.write_dir(&dir2).unwrap();
        let via_set = std::fs::read_to_string(dir2.join("manifest.json")).unwrap();
        assert_eq!(via_sink, via_set);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn corpus_sink_replaces_an_older_spill() {
        let dir = std::env::temp_dir()
            .join(format!("netaware_sink_respill_{}", std::process::id()));
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
