//! Peer-wise and byte-wise preference percentages (Eq. 1–8).
//!
//! For a partition `X_P`, direction `dir ∈ {U, D}` and probe set `W`:
//!
//! ```text
//! P_dir = 100 · Σ_p Σ_{e ∈ dir(p)} 1_P(p,e)            / Σ_p |dir(p)|
//! B_dir = 100 · Σ_p Σ_{e ∈ dir(p)} 1_P(p,e) · B(p,e)   / Σ_p Σ_e B(p,e)
//! ```
//!
//! The primed variants `P'`, `B'` evaluate the same sums over
//! `P'(p) = P(p) \ W`, removing the self-induced bias of the probes
//! ("NAPA-WINE peers clearly prefer to exchange data among them").

use crate::contributors::{is_rx_contributor, is_tx_contributor};
use crate::flows::{FlowStats, ProbeFlows};
use crate::heuristics::AnalysisConfig;
use crate::partition::{Metric, PairCtx};
use netaware_net::{GeoRegistry, Ip};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// (De)serialises `f64::NAN` as JSON `null` so unmeasurable cells
/// survive a round trip.
pub mod nan_as_null {
    use serde::{Error, Value};

    /// Serialises NaN as `null`.
    pub fn serialize(v: &f64) -> Value {
        if v.is_nan() {
            Value::Null
        } else {
            Value::F64(*v)
        }
    }

    /// Deserialises `null` back to NaN.
    pub fn deserialize(v: &Value) -> Result<f64, Error> {
        match v {
            Value::Null => Ok(f64::NAN),
            other => other
                .as_f64()
                .ok_or_else(|| Error::expected("number or null", "nan_as_null")),
        }
    }
}

/// A peer-wise / byte-wise percentage pair. `NaN` encodes "no measurable
/// pairs" and renders as `-`, like the paper's empty cells.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PrefValue {
    /// Peer-wise preference `P`, percent.
    #[serde(with = "nan_as_null")]
    pub peers_pct: f64,
    /// Byte-wise preference `B`, percent.
    #[serde(with = "nan_as_null")]
    pub bytes_pct: f64,
}

impl PrefValue {
    /// An unmeasurable cell.
    pub const fn nan() -> Self {
        PrefValue {
            peers_pct: f64::NAN,
            bytes_pct: f64::NAN,
        }
    }

    /// Whether the cell carries data.
    pub fn is_measurable(&self) -> bool {
        !self.peers_pct.is_nan()
    }
}

/// Table IV cells for one metric and one application.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricPreference {
    /// Row label ("BW", "AS", …).
    pub metric: String,
    /// Download, excluding probe set (B′_D, P′_D).
    pub download_nonw: PrefValue,
    /// Download, all contributors (B_D, P_D).
    pub download_all: PrefValue,
    /// Upload, excluding probe set (B′_U, P′_U).
    pub upload_nonw: PrefValue,
    /// Upload, all contributors (B_U, P_U).
    pub upload_all: PrefValue,
}

/// Traffic direction, relative to the probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    /// Download: remotes in `D(p)`, bytes received.
    Download,
    /// Upload: remotes in `U(p)`, bytes sent.
    Upload,
}

/// Computes `P` and `B` for one metric/direction over the given probe
/// flows, optionally excluding remotes in `exclude` (the probe set `W`).
pub fn preference(
    pfs: &[ProbeFlows],
    registry: &GeoRegistry,
    cfg: &AnalysisConfig,
    hop_threshold: u8,
    metric: Metric,
    dir: Dir,
    exclude: Option<&BTreeSet<Ip>>,
) -> PrefValue {
    if dir == Dir::Upload && !metric.upload_measurable() {
        return PrefValue::nan();
    }
    let no_w = BTreeSet::new();
    let list = Contributors::collect(pfs, cfg, dir, exclude.unwrap_or(&no_w));
    let (nonw, all) = list.tally(registry, cfg, hop_threshold, metric);
    if exclude.is_some() {
        nonw
    } else {
        all
    }
}

/// Computes the full Table IV row block (all four variants) for one
/// metric.
pub fn metric_preference(
    pfs: &[ProbeFlows],
    registry: &GeoRegistry,
    cfg: &AnalysisConfig,
    hop_threshold: u8,
    metric: Metric,
    probe_set: &BTreeSet<Ip>,
) -> MetricPreference {
    let download = Contributors::collect(pfs, cfg, Dir::Download, probe_set);
    let upload = Contributors::collect(pfs, cfg, Dir::Upload, probe_set);
    block(&download, &upload, registry, cfg, hop_threshold, metric)
}

/// All five metrics (the full Table IV block for one application).
pub fn all_preferences(
    pfs: &[ProbeFlows],
    registry: &GeoRegistry,
    cfg: &AnalysisConfig,
    hop_threshold: u8,
    probe_set: &BTreeSet<Ip>,
) -> Vec<MetricPreference> {
    let download = Contributors::collect(pfs, cfg, Dir::Download, probe_set);
    let upload = Contributors::collect(pfs, cfg, Dir::Upload, probe_set);
    Metric::ALL
        .iter()
        .map(|&m| block(&download, &upload, registry, cfg, hop_threshold, m))
        .collect()
}

/// One metric's Table IV row block from the two directions'
/// contributor lists.
fn block(
    download: &Contributors<'_>,
    upload: &Contributors<'_>,
    registry: &GeoRegistry,
    cfg: &AnalysisConfig,
    hop_threshold: u8,
    metric: Metric,
) -> MetricPreference {
    let (download_nonw, download_all) = download.tally(registry, cfg, hop_threshold, metric);
    let (upload_nonw, upload_all) = if metric.upload_measurable() {
        upload.tally(registry, cfg, hop_threshold, metric)
    } else {
        (PrefValue::nan(), PrefValue::nan())
    };
    MetricPreference {
        metric: metric.name().to_string(),
        download_nonw,
        download_all,
        upload_nonw,
        upload_all,
    }
}

/// One direction's contributors over every probe — `D(p)` or `U(p)`,
/// in probe then remote order — split by whether the remote is in the
/// probe set `W`. Every metric's sums for both variants (`P`, `B` and
/// the primed `P'`, `B'`) are reductions over these two lists.
struct Contributors<'a> {
    dir: Dir,
    outside_w: Vec<&'a FlowStats>,
    in_w: Vec<&'a FlowStats>,
}

impl<'a> Contributors<'a> {
    /// Walks every flow once. The contributor test comes first: only
    /// about one flow in five passes it, and only those pay the `W`
    /// lookup.
    fn collect(pfs: &'a [ProbeFlows], cfg: &AnalysisConfig, dir: Dir, w: &BTreeSet<Ip>) -> Self {
        let mut list = Contributors {
            dir,
            outside_w: Vec::new(),
            in_w: Vec::new(),
        };
        for f in pfs.iter().flat_map(|pf| pf.flows.values()) {
            let in_dir = match dir {
                Dir::Download => is_rx_contributor(f, cfg),
                Dir::Upload => is_tx_contributor(f, cfg),
            };
            if !in_dir {
                continue;
            }
            if w.contains(&f.remote) {
                list.in_w.push(f);
            } else {
                list.outside_w.push(f);
            }
        }
        list
    }

    /// `(excluding W, all)` preference values of `metric` over the lists.
    fn tally(
        &self,
        registry: &GeoRegistry,
        cfg: &AnalysisConfig,
        hop_threshold: u8,
        metric: Metric,
    ) -> (PrefValue, PrefValue) {
        let mut nonw = Sums::default();
        let mut all = Sums::default();
        let classify = |flow: &FlowStats| {
            let ctx = PairCtx {
                flow,
                registry,
                cfg,
                hop_threshold,
            };
            // `None`: an unmeasurable pair, out of both sums.
            let pref = metric.preferred(&ctx)?;
            let bytes = match self.dir {
                Dir::Download => flow.bytes_rx,
                Dir::Upload => flow.bytes_tx,
            };
            Some((pref, bytes))
        };
        for &f in &self.outside_w {
            if let Some((pref, bytes)) = classify(f) {
                nonw.add(pref, bytes);
                all.add(pref, bytes);
            }
        }
        for &f in &self.in_w {
            if let Some((pref, bytes)) = classify(f) {
                all.add(pref, bytes);
            }
        }
        (nonw.value(), all.value())
    }
}

/// The four counters behind one [`PrefValue`].
#[derive(Default)]
struct Sums {
    peers_pref: u64,
    peers_tot: u64,
    bytes_pref: u64,
    bytes_tot: u64,
}

impl Sums {
    fn add(&mut self, pref: bool, bytes: u64) {
        self.peers_tot += 1;
        self.bytes_tot += bytes;
        if pref {
            self.peers_pref += 1;
            self.bytes_pref += bytes;
        }
    }

    fn value(&self) -> PrefValue {
        if self.peers_tot == 0 {
            return PrefValue::nan();
        }
        PrefValue {
            peers_pct: 100.0 * self.peers_pref as f64 / self.peers_tot as f64,
            bytes_pct: if self.bytes_tot == 0 {
                f64::NAN
            } else {
                100.0 * self.bytes_pref as f64 / self.bytes_tot as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaware_net::{AsId, AsInfo, AsKind, CountryCode, GeoRegistryBuilder, Prefix};

    fn reg() -> GeoRegistry {
        let mut b = GeoRegistryBuilder::new();
        b.register_as(AsInfo::new(2, CountryCode::IT, AsKind::Academic, "GARR"));
        b.register_as(AsInfo::new(100, CountryCode::CN, AsKind::Carrier, "CN"));
        b.announce(Prefix::of(Ip::from_octets(130, 192, 0, 0), 16), AsId(2))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(58, 0, 0, 0), 8), AsId(100))
            .unwrap();
        b.build()
    }

    fn probe() -> Ip {
        Ip::from_octets(130, 192, 1, 1)
    }

    fn rx_flow(remote: Ip, bytes: u64, ipg: Option<u64>) -> FlowStats {
        FlowStats {
            probe: probe(),
            remote,
            bytes_rx: bytes,
            video_bytes_rx: bytes,
            video_pkts_rx: 100,
            min_ipg_us: ipg,
            rx_ttl: Some(110),
            ..Default::default()
        }
    }

    fn pfs_of(flows: Vec<FlowStats>) -> Vec<ProbeFlows> {
        let mut pf = ProbeFlows {
            probe: probe(),
            ..Default::default()
        };
        for f in flows {
            pf.flows.insert(f.remote, f);
        }
        vec![pf]
    }

    #[test]
    fn bw_preference_counts_peers_and_bytes() {
        let r = reg();
        let cfg = AnalysisConfig::default();
        // 2 high-bw remotes carrying 90k of 110k bytes; 1 low-bw with
        // 20k (just at the contributor bar).
        let pfs = pfs_of(vec![
            rx_flow(Ip::from_octets(58, 0, 0, 1), 45_000, Some(100)),
            rx_flow(Ip::from_octets(58, 0, 0, 2), 45_000, Some(200)),
            rx_flow(Ip::from_octets(58, 0, 0, 3), 20_000, Some(20_000)),
        ]);
        let v = preference(&pfs, &r, &cfg, 19, Metric::Bw, Dir::Download, None);
        assert!((v.peers_pct - 66.666).abs() < 0.01, "{}", v.peers_pct);
        assert!(
            (v.bytes_pct - 100.0 * 90.0 / 110.0).abs() < 0.01,
            "{}",
            v.bytes_pct
        );
    }

    #[test]
    fn complement_identity() {
        // P(X_P) + P(X̄_P) must equal 100 — evaluate by inverting the
        // preferred set via the AS metric on a mixed population.
        let r = reg();
        let cfg = AnalysisConfig::default();
        let pfs = pfs_of(vec![
            rx_flow(Ip::from_octets(130, 192, 9, 9), 20_000, Some(100)),
            rx_flow(Ip::from_octets(58, 0, 0, 2), 60_000, Some(100)),
        ]);
        let v = preference(&pfs, &r, &cfg, 19, Metric::As, Dir::Download, None);
        assert!((v.peers_pct - 50.0).abs() < 1e-9);
        assert!((v.bytes_pct - 25.0).abs() < 1e-9);
    }

    #[test]
    fn excluding_probe_set_removes_their_flows() {
        let r = reg();
        let cfg = AnalysisConfig::default();
        let sibling = Ip::from_octets(130, 192, 1, 2); // also a probe
        let pfs = pfs_of(vec![
            rx_flow(sibling, 80_000, Some(100)),
            rx_flow(Ip::from_octets(58, 0, 0, 2), 20_000, Some(100)),
        ]);
        let mut w = BTreeSet::new();
        w.insert(probe());
        w.insert(sibling);
        let all = preference(&pfs, &r, &cfg, 19, Metric::As, Dir::Download, None);
        let nonw = preference(&pfs, &r, &cfg, 19, Metric::As, Dir::Download, Some(&w));
        assert!((all.peers_pct - 50.0).abs() < 1e-9);
        assert!((all.bytes_pct - 80.0).abs() < 1e-9);
        assert!((nonw.peers_pct - 0.0).abs() < 1e-9);
        assert!((nonw.bytes_pct - 0.0).abs() < 1e-9);
        // The row block reduces the same contributor lists.
        let block = metric_preference(&pfs, &r, &cfg, 19, Metric::As, &w);
        assert_eq!(block.download_all.bytes_pct, all.bytes_pct);
        assert_eq!(block.download_nonw.peers_pct, nonw.peers_pct);
        assert_eq!(block.download_nonw.bytes_pct, nonw.bytes_pct);
        assert!(!block.upload_all.is_measurable());
    }

    #[test]
    fn bw_upload_is_unmeasurable() {
        let r = reg();
        let cfg = AnalysisConfig::default();
        let pfs = pfs_of(vec![rx_flow(
            Ip::from_octets(58, 0, 0, 1),
            45_000,
            Some(100),
        )]);
        let v = preference(&pfs, &r, &cfg, 19, Metric::Bw, Dir::Upload, None);
        assert!(!v.is_measurable());
    }

    #[test]
    fn empty_contributor_set_is_nan() {
        let r = reg();
        let cfg = AnalysisConfig::default();
        let v = preference(
            &pfs_of(vec![]),
            &r,
            &cfg,
            19,
            Metric::As,
            Dir::Download,
            None,
        );
        assert!(!v.is_measurable());
    }

    #[test]
    fn unmeasurable_pairs_leave_both_sums() {
        let r = reg();
        let cfg = AnalysisConfig::default();
        // One flow with no IPG train: BW skips it entirely, so the one
        // classifiable flow decides the percentages alone.
        let mut no_train = rx_flow(Ip::from_octets(58, 0, 0, 9), 50_000, None);
        no_train.min_ipg_us = None;
        let pfs = pfs_of(vec![
            no_train,
            rx_flow(Ip::from_octets(58, 0, 0, 1), 25_000, Some(100)),
        ]);
        let v = preference(&pfs, &r, &cfg, 19, Metric::Bw, Dir::Download, None);
        assert!((v.peers_pct - 100.0).abs() < 1e-9);
        assert!((v.bytes_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn full_block_has_five_rows() {
        let r = reg();
        let cfg = AnalysisConfig::default();
        let pfs = pfs_of(vec![rx_flow(
            Ip::from_octets(58, 0, 0, 1),
            45_000,
            Some(100),
        )]);
        let w = BTreeSet::new();
        let block = all_preferences(&pfs, &r, &cfg, 19, &w);
        assert_eq!(block.len(), 5);
        assert_eq!(block[0].metric, "BW");
        assert_eq!(block[4].metric, "HOP");
        assert!(!block[0].upload_all.is_measurable());
        assert!(block[1].download_all.is_measurable());
    }
}
