//! Directory persistence for whole experiments.
//!
//! A [`TraceSet`] saved with [`TraceSet::write_dir`] becomes one `.nawt`
//! file per probe plus a `manifest.json` describing the experiment
//! (application, duration, probe list), and loads back with
//! [`TraceSet::read_dir`] — the unit of exchange for sharing simulated
//! corpora, exactly as NAPA-WINE shared its pcap corpus "upon request".

use crate::format::{read_trace, write_trace, TraceError};
use crate::set::TraceSet;
use netaware_net::Ip;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

/// The sidecar metadata of a persisted corpus.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CorpusManifest {
    /// Application name.
    pub app: String,
    /// Experiment duration, µs.
    pub duration_us: u64,
    /// Probe addresses, in trace order.
    pub probes: Vec<Ip>,
    /// Total packets at save time (integrity check on load).
    pub total_packets: usize,
}

impl TraceSet {
    /// Persists the set as `<dir>/manifest.json` plus one
    /// `<dir>/<probe-ip>.nawt` per probe. The directory is created.
    pub fn write_dir(&self, dir: &Path) -> Result<CorpusManifest, TraceError> {
        std::fs::create_dir_all(dir)?;
        for t in &self.traces {
            let path = dir.join(format!("{}.nawt", t.probe));
            let mut w = BufWriter::new(File::create(path)?);
            write_trace(t, &mut w)?;
        }
        let manifest = CorpusManifest {
            app: self.app.clone(),
            duration_us: self.duration_us,
            probes: self.traces.iter().map(|t| t.probe).collect(),
            total_packets: self.total_packets(),
        };
        #[expect(
            clippy::expect_used,
            reason = "value-tree serialisation of an in-memory struct cannot fail"
        )]
        let js = serde_json::to_string_pretty(&manifest).expect("manifest serialises");
        std::fs::write(dir.join("manifest.json"), js)?;
        Ok(manifest)
    }

    /// Loads a corpus saved by [`TraceSet::write_dir`]. Fails if the
    /// manifest is missing/corrupt, a probe file is missing, or the
    /// packet count disagrees with the manifest.
    pub fn read_dir(dir: &Path) -> Result<TraceSet, TraceError> {
        let manifest_raw = std::fs::read_to_string(dir.join("manifest.json"))?;
        let manifest: CorpusManifest = serde_json::from_str(&manifest_raw)
            .map_err(|e| TraceError::BadManifest(e.to_string()))?;
        let mut set = TraceSet::new(manifest.app.clone(), manifest.duration_us);
        for probe in &manifest.probes {
            let path = dir.join(format!("{probe}.nawt"));
            let mut r = BufReader::new(File::open(path)?);
            let trace = read_trace(&mut r)?;
            if trace.probe != *probe {
                return Err(TraceError::BadManifest(format!(
                    "{probe}.nawt contains capture for {}",
                    trace.probe
                )));
            }
            set.add(trace);
        }
        if set.total_packets() != manifest.total_packets {
            return Err(TraceError::Truncated {
                expected: manifest.total_packets as u64,
                got: set.total_packets() as u64,
            });
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PacketRecord, PayloadKind};
    use crate::set::ProbeTrace;

    fn sample() -> TraceSet {
        let mut set = TraceSet::new("SopCast", 60_000_000);
        for k in 0..3u32 {
            let probe = Ip::from_octets(10, 0, k as u8, 1);
            let mut t = ProbeTrace::new(probe);
            for i in 0..50u64 {
                t.push(PacketRecord {
                    ts_us: i * 1000,
                    src: Ip(0x3A00_0000 + i as u32),
                    dst: probe,
                    sport: 1,
                    dport: 2,
                    size: 1250,
                    ttl: 110,
                    kind: PayloadKind::Video,
                });
            }
            set.add(t);
        }
        set
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("netaware_corpus_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip() {
        let dir = tmp("rt");
        let set = sample();
        let manifest = set.write_dir(&dir).unwrap();
        assert_eq!(manifest.probes.len(), 3);
        assert_eq!(manifest.total_packets, 150);
        let back = TraceSet::read_dir(&dir).unwrap();
        assert_eq!(back.app, set.app);
        assert_eq!(back.duration_us, set.duration_us);
        assert_eq!(back.total_packets(), set.total_packets());
        assert_eq!(back.probe_set(), set.probe_set());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_probe_file_fails() {
        let dir = tmp("missing");
        let set = sample();
        set.write_dir(&dir).unwrap();
        std::fs::remove_file(dir.join("10.0.1.1.nawt")).unwrap();
        assert!(TraceSet::read_dir(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn count_mismatch_fails() {
        let dir = tmp("count");
        let set = sample();
        set.write_dir(&dir).unwrap();
        // Overwrite one trace with an empty one.
        let empty = ProbeTrace::new(Ip::from_octets(10, 0, 2, 1));
        let mut w = BufWriter::new(File::create(dir.join("10.0.2.1.nawt")).unwrap());
        write_trace(&empty, &mut w).unwrap();
        drop(w);
        assert!(matches!(
            TraceSet::read_dir(&dir),
            Err(TraceError::Truncated { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_fails() {
        let dir = tmp("manifest");
        sample().write_dir(&dir).unwrap();
        std::fs::write(dir.join("manifest.json"), "{not json").unwrap();
        assert!(TraceSet::read_dir(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
