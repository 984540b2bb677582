//! One-call experiment analysis.
//!
//! Both drivers stream each probe's records exactly once through a
//! composite [`AnalysisPass`] (flows + windowed rates + packet/byte
//! totals), in parallel across probes, then reduce the per-probe outputs
//! sequentially in trace order. [`analyze`] walks an in-memory
//! [`netaware_trace::TraceSet`]; [`analyze_corpus`] walks an on-disk
//! corpus directory via [`CorpusStream`] without ever materialising a
//! trace, so peak memory is bounded by the accumulators.

use crate::asmatrix::{as_matrix, AsMatrix};
use crate::flows::ProbeFlows;
use crate::geo::{geo_breakdown, GeoBreakdown};
use crate::heuristics::AnalysisConfig;
use crate::hop::hop_threshold;
use crate::hopdist::{hop_distribution, HopDistribution};
use crate::netfriend::{friendliness, Friendliness};
use crate::pass::{AnalysisPass, FlowPass, ProbeRates, RatePass};
use crate::preference::{all_preferences, MetricPreference};
use crate::selfbias::{self_bias, SelfBias};
use crate::summary::{summarize_with_rates, AppSummary};
use netaware_net::{GeoRegistry, Ip};
use netaware_obs::{Level, Obs};
use netaware_sim::SimTime;
use netaware_trace::{CorpusStream, PacketRecord, TraceError};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::path::Path;

/// Everything the paper reports about one experiment, computed from its
/// traces alone.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentAnalysis {
    /// Application under test.
    pub app: String,
    /// Table II row.
    pub summary: AppSummary,
    /// Table III row.
    pub selfbias: SelfBias,
    /// Table IV block (five metric rows).
    pub preferences: Vec<MetricPreference>,
    /// Figure 1 data.
    pub geo: GeoBreakdown,
    /// Figure 2 data.
    pub asmatrix: AsMatrix,
    /// Traffic-locality / network-friendliness summary (extension
    /// metric for the next-generation experiment).
    pub friendliness: Friendliness,
    /// Hop-count distribution of the contributors (§III-B: the median
    /// justifies the fixed threshold).
    pub hop_distribution: HopDistribution,
    /// Hop threshold used by the HOP partition.
    pub hop_threshold: u8,
    /// Total packets across all probes.
    pub total_packets: usize,
    /// Total bytes across all probes.
    pub total_bytes: u64,
}

/// Runs the complete pipeline on one experiment's traces.
///
/// `highbw_probes` is Table I knowledge: which probes sit on institution
/// LANs (needed for Figure 2's restriction to high-bandwidth probes).
///
/// ```no_run
/// use netaware_analysis::{analyze, AnalysisConfig};
/// # fn load_traces() -> netaware_trace::TraceSet { unimplemented!() }
/// # fn load_registry() -> netaware_net::GeoRegistry { unimplemented!() }
/// let traces = load_traces();
/// let registry = load_registry();
/// let analysis = analyze(&traces, &registry, &AnalysisConfig::paper(),
///                        &traces.probe_set());
/// let bw = analysis.preference("BW").unwrap();
/// println!("{:.1}% of received bytes come from high-bandwidth peers",
///          bw.download_all.bytes_pct);
/// ```
pub fn analyze(
    set: &netaware_trace::TraceSet,
    registry: &GeoRegistry,
    cfg: &AnalysisConfig,
    highbw_probes: &BTreeSet<Ip>,
) -> ExperimentAnalysis {
    analyze_with_obs(set, registry, cfg, highbw_probes, &Obs::default())
}

/// [`analyze`] with observability: the parallel sweep and the sequential
/// reduction run under `analysis.sweep` / `analysis.assemble` spans,
/// `analysis.*` metrics are updated, and one `pass.flow` event per probe
/// (emitted sequentially in trace order, so the event log stays
/// deterministic) reports that probe's sweep output.
pub fn analyze_with_obs(
    set: &netaware_trace::TraceSet,
    registry: &GeoRegistry,
    cfg: &AnalysisConfig,
    highbw_probes: &BTreeSet<Ip>,
    obs: &Obs,
) -> ExperimentAnalysis {
    let outs: Vec<ProbeOutput> = {
        let psweep = obs.pspan("analysis.sweep");
        let outs: Vec<ProbeOutput> = set
            .traces
            .par_iter()
            .map(|t| {
                let mut pass = ProbePass::new(t.probe, set.duration_us, cfg);
                for rec in t.records() {
                    pass.on_record(rec);
                }
                pass.finish()
            })
            .collect();
        psweep.add_records(outs.iter().map(|o| o.packets as u64).sum());
        outs
    };
    assemble(
        &set.app,
        set.duration_us,
        set.probe_set(),
        outs,
        registry,
        cfg,
        highbw_probes,
        obs,
    )
}

/// Runs the complete pipeline straight off an on-disk corpus directory
/// (as written by [`netaware_trace::TraceSet::write_dir`] or a
/// [`netaware_trace::CorpusSink`]), streaming each probe's records
/// exactly once — no `TraceSet` is ever materialised, so memory stays
/// bounded by the per-probe accumulators regardless of corpus size.
///
/// Probes stream in parallel; per-probe outputs reduce sequentially in
/// manifest (trace) order, so the result is byte-identical to
/// [`analyze`] on the same corpus. Fails with a typed [`TraceError`] on
/// truncated/corrupt/misordered probe files, on a bad manifest, or when
/// the streamed packet total disagrees with the manifest.
pub fn analyze_corpus(
    dir: &Path,
    registry: &GeoRegistry,
    cfg: &AnalysisConfig,
    highbw_probes: &BTreeSet<Ip>,
) -> Result<ExperimentAnalysis, TraceError> {
    analyze_corpus_with_obs(dir, registry, cfg, highbw_probes, &Obs::default())
}

/// [`analyze_corpus`] with observability — same instrumentation as
/// [`analyze_with_obs`], plus `stream.error` events from the underlying
/// [`CorpusStream`] when a probe file fails to stream.
pub fn analyze_corpus_with_obs(
    dir: &Path,
    registry: &GeoRegistry,
    cfg: &AnalysisConfig,
    highbw_probes: &BTreeSet<Ip>,
    obs: &Obs,
) -> Result<ExperimentAnalysis, TraceError> {
    let corpus = CorpusStream::open_with(dir, obs.clone())?;
    let duration_us = corpus.duration_us();
    let streamed: Vec<Result<ProbeOutput, TraceError>> = {
        let psweep = obs.pspan("analysis.sweep");
        let streamed: Vec<Result<ProbeOutput, TraceError>> = corpus
            .probes()
            .par_iter()
            .map(|&probe| {
                let mut pass = ProbePass::new(probe, duration_us, cfg);
                for rec in corpus.open_probe(probe)? {
                    pass.on_record(&rec?);
                }
                Ok(pass.finish())
            })
            .collect();
        let done: Vec<&ProbeOutput> = streamed.iter().filter_map(|r| r.as_ref().ok()).collect();
        psweep.add_records(done.iter().map(|o| o.packets as u64).sum());
        streamed
    };
    let mut outs = Vec::with_capacity(streamed.len());
    for o in streamed {
        outs.push(o?);
    }
    let total: usize = outs.iter().map(|o| o.packets).sum();
    if total != corpus.total_packets() {
        return Err(TraceError::Truncated {
            expected: corpus.total_packets() as u64,
            got: total as u64,
        });
    }
    let probe_set: BTreeSet<Ip> = corpus.probes().iter().copied().collect();
    Ok(assemble(
        corpus.app(),
        duration_us,
        probe_set,
        outs,
        registry,
        cfg,
        highbw_probes,
        obs,
    ))
}

/// Everything one probe's single sweep produces: its flow table, its
/// windowed rates, and its raw packet/byte totals (which count *every*
/// captured record, including defensive foreign packets, to match
/// `TraceSet::total_packets`).
struct ProbeOutput {
    flows: ProbeFlows,
    rates: ProbeRates,
    packets: usize,
    bytes: u64,
}

/// The composite per-probe pass behind both drivers.
struct ProbePass {
    flow: FlowPass,
    rate: RatePass,
    packets: usize,
    bytes: u64,
}

impl ProbePass {
    fn new(probe: Ip, duration_us: u64, cfg: &AnalysisConfig) -> Self {
        ProbePass {
            flow: FlowPass::new(probe, cfg),
            rate: RatePass::new(probe, duration_us, cfg),
            packets: 0,
            bytes: 0,
        }
    }
}

impl AnalysisPass for ProbePass {
    type Output = ProbeOutput;

    fn on_record(&mut self, rec: &PacketRecord) {
        self.flow.on_record(rec);
        self.rate.on_record(rec);
        self.packets += 1;
        self.bytes += rec.size as u64;
    }

    fn finish(self) -> ProbeOutput {
        ProbeOutput {
            flows: self.flow.finish(),
            rates: self.rate.finish(),
            packets: self.packets,
            bytes: self.bytes,
        }
    }
}

/// Sequential, trace-ordered reduction shared by both drivers.
///
/// Per-probe `pass.flow` events are emitted from this sequential loop —
/// never from the parallel sweep — so the event log order is the trace
/// order, independent of rayon scheduling.
#[allow(clippy::too_many_arguments)]
fn assemble(
    app: &str,
    duration_us: u64,
    probe_set: BTreeSet<Ip>,
    outs: Vec<ProbeOutput>,
    registry: &GeoRegistry,
    cfg: &AnalysisConfig,
    highbw_probes: &BTreeSet<Ip>,
    obs: &Obs,
) -> ExperimentAnalysis {
    let _passemble = obs.pspan("analysis.assemble");
    let records_swept = obs.counter("analysis.records_swept");
    let probes_analyzed = obs.counter("analysis.probes_analyzed");
    let flows_per_probe = obs.histogram("analysis.flows_per_probe", 4096);
    let horizon = SimTime::from_us(duration_us);
    let mut pfs = Vec::with_capacity(outs.len());
    let mut rates = Vec::with_capacity(outs.len());
    let mut total_packets = 0usize;
    let mut total_bytes = 0u64;
    for o in outs {
        records_swept.add(o.packets as u64);
        probes_analyzed.inc();
        flows_per_probe.record(o.flows.peers_seen());
        netaware_obs::event!(
            obs,
            Level::Debug,
            "pass.flow",
            horizon,
            "probe" = o.flows.probe.to_string(),
            "flows" = o.flows.peers_seen(),
            "packets" = o.packets,
            "bytes" = o.bytes,
        );
        total_packets += o.packets;
        total_bytes += o.bytes;
        pfs.push(o.flows);
        rates.push(o.rates);
    }
    let hop_thr = hop_threshold(&pfs, cfg);
    obs.gauge("analysis.hop_threshold").set(hop_thr as i64);
    let geo = geo_breakdown(&pfs, registry);
    obs.gauge("analysis.peers_observed")
        .set(geo.total_peers as i64);
    ExperimentAnalysis {
        app: app.to_string(),
        summary: summarize_with_rates(app, &rates, &pfs, cfg),
        selfbias: self_bias(&pfs, cfg, &probe_set),
        preferences: all_preferences(&pfs, registry, cfg, hop_thr, &probe_set),
        geo,
        asmatrix: as_matrix(&pfs, registry, highbw_probes),
        friendliness: friendliness(&pfs, registry, cfg),
        hop_distribution: hop_distribution(&pfs, cfg, hop_thr),
        hop_threshold: hop_thr,
        total_packets,
        total_bytes,
    }
}

impl ExperimentAnalysis {
    /// The Table IV block row for a given metric name.
    pub fn preference(&self, metric: &str) -> Option<&MetricPreference> {
        self.preferences.iter().find(|m| m.metric == metric)
    }

    /// Serialises to pretty JSON (for EXPERIMENTS.md artifacts).
    #[expect(
        clippy::expect_used,
        reason = "value-tree serialisation of an in-memory struct cannot fail"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("analysis serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaware_net::{AsId, AsInfo, AsKind, CountryCode, GeoRegistryBuilder, Prefix};
    use netaware_trace::{PacketRecord, PayloadKind, ProbeTrace, TraceSet};

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

    fn synthetic_set() -> TraceSet {
        let probe = Ip::from_octets(130, 192, 1, 1);
        let fast = Ip::from_octets(58, 0, 0, 1);
        let slow = Ip::from_octets(58, 0, 0, 2);
        let mut t = ProbeTrace::new(probe);
        // Fast remote: 60 chunks of 20 packets with 100 µs gaps.
        for c in 0..60u64 {
            for k in 0..20u64 {
                t.push(PacketRecord {
                    ts_us: c * 500_000 + k * 100,
                    src: fast,
                    dst: probe,
                    sport: 1,
                    dport: 2,
                    size: 1250,
                    ttl: 109,
                    kind: PayloadKind::Video,
                });
            }
        }
        // Slow remote: 3 chunks with 20 ms gaps.
        for c in 0..3u64 {
            for k in 0..20u64 {
                t.push(PacketRecord {
                    ts_us: 1_000 + c * 2_000_000 + k * 20_000,
                    src: slow,
                    dst: probe,
                    sport: 1,
                    dport: 2,
                    size: 1250,
                    ttl: 105,
                    kind: PayloadKind::Video,
                });
            }
        }
        let mut set = TraceSet::new("TestApp", 30_000_000);
        set.add(t);
        set.finalize();
        set
    }

    #[test]
    fn end_to_end_pipeline() {
        let set = synthetic_set();
        let cfg = AnalysisConfig::default();
        let highbw: BTreeSet<Ip> = set.probe_set();
        let a = analyze(&set, &reg(), &cfg, &highbw);
        assert_eq!(a.app, "TestApp");
        assert_eq!(a.hop_threshold, 19);
        assert_eq!(a.total_packets, 60 * 20 + 3 * 20);
        // Both remotes are download contributors; only the fast one is
        // high-bw: P_D = 50%, B_D ≈ 95%.
        let bw = a.preference("BW").unwrap();
        assert!((bw.download_all.peers_pct - 50.0).abs() < 1e-9);
        assert!(bw.download_all.bytes_pct > 90.0);
        // All traffic came from CN: geo CN RX share 100%.
        let cn = a.geo.rows.iter().find(|r| r.label == "CN").unwrap();
        assert!((cn.rx_pct - 100.0).abs() < 1e-9);
        // JSON round-trip sanity.
        let js = a.to_json();
        assert!(js.contains("\"app\""));
        let back: ExperimentAnalysis = serde_json::from_str(&js).unwrap();
        assert_eq!(back.total_packets, a.total_packets);
    }

    #[test]
    fn preference_lookup_by_name() {
        let set = synthetic_set();
        let cfg = AnalysisConfig::default();
        let a = analyze(&set, &reg(), &cfg, &BTreeSet::new());
        assert!(a.preference("BW").is_some());
        assert!(a.preference("HOP").is_some());
        assert!(a.preference("XYZ").is_none());
    }
}
