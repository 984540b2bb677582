//! # netaware-perfbench — the pipeline benchmark
//!
//! Drives the paper's pipeline (build the testbed, simulate a swarm,
//! capture at the 46 probes, infer awareness from the traces) through
//! the public entry point of each layer, and times every call from
//! outside the program:
//!
//! * `testbed.build` — [`BuiltScenario::build`];
//! * `proto.swarm_new` — [`Swarm::new`] plus [`Swarm::set_faults`];
//! * `proto.execute` / `trace.collect` — [`Swarm::run_into`], split by
//!   the [`spans::TimingSink`] wrapper at the first `sink_probe` call;
//! * `analysis.analyze` — [`analyze_with_obs`] or
//!   [`analyze_corpus_with_obs`].
//!
//! One [`Bench`] is one workload at one seed. [`Bench::iterate`] runs a
//! whole experiment (or a whole corpus analysis), checks its outputs, and
//! returns an [`Outcome`]; [`run`] repeats iterations in a closed loop
//! for a time budget and reduces them to the metrics of
//! [`END_TO_END`] (untraced run) or [`PER_LAYER`] (traced run).

#![warn(missing_docs)]

pub mod spans;

use netaware_analysis::{
    analyze_corpus_with_obs, analyze_with_obs, AnalysisConfig, ExperimentAnalysis,
};
use netaware_faults::{ChurnPlan, FaultPlan, LinkFaultPlan, SessionModel};
use netaware_obs::alloc;
use netaware_obs::{Obs, ProfileNode};
use netaware_proto::{AppProfile, NetworkEnv, StreamParams, Swarm, SwarmConfig, SwarmReport};
use netaware_testbed::{BuiltScenario, ScenarioConfig};
use netaware_trace::{CorpusSink, CorpusStream, MemorySink, RecordSink, TraceError};
use spans::{now_ns, IterSpans, SpanLog, TimingSink};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// PPLive, clean: capture in memory, `analyze` in memory.
    PpliveSteady,
    /// PPLive with loss, jitter, churn and a flash crowd: capture spilled
    /// through `CorpusSink`, then `analyze_corpus`.
    PpliveChurnSpill,
    /// `analyze_corpus` over a PPLive corpus spilled once in set-up.
    CorpusReanalyze,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PpliveSteady,
        Workload::PpliveChurnSpill,
        Workload::CorpusReanalyze,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PpliveSteady => "pplive_steady",
            Workload::PpliveChurnSpill => "pplive_churn_spill",
            Workload::CorpusReanalyze => "corpus_reanalyze",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's input size for this workload.
    pub fn size(self) -> Size {
        match self {
            Workload::PpliveSteady | Workload::CorpusReanalyze => Size {
                scale: 0.1,
                duration_us: 120_000_000,
            },
            Workload::PpliveChurnSpill => Size {
                scale: 0.1,
                duration_us: 60_000_000,
            },
        }
    }

    /// The fault plan the swarm runs under.
    pub fn faults(self) -> FaultPlan {
        match self {
            Workload::PpliveChurnSpill => FaultPlan {
                link: LinkFaultPlan {
                    loss: 0.05,
                    jitter_us: 2_000,
                    ..LinkFaultPlan::default()
                },
                churn: Some(ChurnPlan::preset()),
                session: Some(SessionModel::flashcrowd_preset()),
            },
            Workload::PpliveSteady | Workload::CorpusReanalyze => FaultPlan::none(),
        }
    }
}

/// Input size of a swarm: population scale and simulated duration.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Population scale (1.0 = the paper's overlay sizes).
    pub scale: f64,
    /// Simulated duration, µs.
    pub duration_us: u64,
}

/// Why an iteration (or the set-up) failed.
#[derive(Debug)]
pub enum BenchError {
    /// A layer call returned a trace error.
    Trace(TraceError),
    /// An output check did not hold.
    Check(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Trace(e) => write!(f, "trace error: {e}"),
            BenchError::Check(msg) => write!(f, "check failed: {msg}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<TraceError> for BenchError {
    fn from(e: TraceError) -> Self {
        BenchError::Trace(e)
    }
}

/// 64-bit FNV-1a.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The output fingerprint: a hash of the analysis JSON plus the
/// simulator's counters. Equal fingerprints mean equal simulated
/// statistics.
pub fn fingerprint(analysis: &ExperimentAnalysis, report: &SwarmReport) -> u64 {
    let counters = [
        report.chunks_delivered,
        report.chunks_lost,
        report.chunks_served_by_probes,
        report.chunks_served_by_externals,
        report.chunks_pushed,
        report.chunks_refused,
        report.signal_packets,
        report.video_bytes_tx,
        report.events_dispatched,
        report.packets_dropped,
        report.peers_departed,
        report.peers_arrived,
        report.requests_requeued,
    ];
    let text: Vec<String> = counters.iter().map(u64::to_string).collect();
    let h = fnv1a(0xcbf2_9ce4_8422_2325, analysis.to_json().as_bytes());
    fnv1a(h, text.join(",").as_bytes())
}

/// Seed of the protocol's random streams. The benchmark seed draws the
/// testbed population (addresses, ASes, access capacities, path and
/// delay models); the protocol streams stay pinned, because seeding them
/// too moves the captured record count by up to 10% between seeds, which
/// would make every seed a different amount of work.
pub const SWARM_SEED: u64 = 42;

/// The swarm inputs generated from a seed: the testbed and the swarm's
/// configuration.
pub fn swarm_inputs(seed: u64, size: Size) -> (BuiltScenario, SwarmConfig) {
    let profile = AppProfile::pplive();
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed,
            scale: size.scale,
            ..ScenarioConfig::default()
        },
        profile.overlay_size,
    );
    let cfg = SwarmConfig {
        seed: SWARM_SEED,
        duration_us: size.duration_us,
        stream: StreamParams::cctv1(),
        profile,
    };
    (scenario, cfg)
}

/// The network a swarm over `scenario` runs on.
pub fn env(scenario: &BuiltScenario) -> NetworkEnv<'_> {
    NetworkEnv {
        registry: &scenario.registry,
        paths: scenario.paths,
        latency: scenario.latency,
    }
}

/// The corpus `corpus_reanalyze` re-reads, and what set-up learnt
/// about it.
struct Corpus {
    scenario: BuiltScenario,
    report: SwarmReport,
    /// `analyze` on the in-memory traces the corpus was spilled from.
    json: String,
    total_packets: usize,
}

/// One workload at one seed, set up and ready to iterate.
pub struct Bench {
    workload: Workload,
    seed: u64,
    size: Size,
    faults: FaultPlan,
    cfg: AnalysisConfig,
    dir: PathBuf,
    corpus: Option<Corpus>,
    fingerprint: Option<u64>,
}

/// Everything one successful iteration produced that metrics read.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The iteration span and its layer spans.
    pub spans: IterSpans,
    /// Records carried through the iteration (`analysis.total_packets`).
    pub records: u64,
    /// High-water mark of live heap during the iteration, bytes.
    pub peak_heap_bytes: u64,
    /// Output fingerprint (see [`fingerprint`]).
    pub fingerprint: u64,
    /// The simulator's report, when the iteration ran a swarm.
    pub report: Option<SwarmReport>,
    /// Allocation calls during `proto.execute`.
    pub execute_allocs: u64,
    /// Bytes allocated during `proto.execute`.
    pub execute_alloc_bytes: u64,
    /// Allocation calls during `analysis.analyze`.
    pub analyze_allocs: u64,
    /// Bytes of corpus written by the iteration (0 in memory).
    pub corpus_bytes: u64,
    /// The profiler tree, on traced iterations.
    pub profile: Option<ProfileNode>,
}

/// What the layer calls of one iteration returned.
struct Body {
    analysis: ExperimentAnalysis,
    analyze_allocs: u64,
    /// The swarm run, on swarm iterations.
    capture: Option<Capture<()>>,
    /// The manifest's total, on corpus iterations.
    manifest_total: Option<usize>,
}

/// One `run_into` through a [`TimingSink`].
struct Capture<O> {
    output: O,
    report: SwarmReport,
    /// Records the sink received.
    sunk: u64,
    /// Allocation calls and bytes during `proto.execute`.
    execute_allocs: (u64, u64),
}

impl<O> Capture<O> {
    /// Keeps everything but the sink's output.
    fn counts(self) -> Capture<()> {
        Capture {
            output: (),
            report: self.report,
            sunk: self.sunk,
            execute_allocs: self.execute_allocs,
        }
    }
}

/// Runs `swarm` into `sink` and records `proto.execute` and
/// `trace.collect`.
fn capture<S: RecordSink>(
    swarm: Swarm<'_>,
    sink: S,
    spans: &mut IterSpans,
) -> Result<Capture<S::Output>, TraceError> {
    let (a0, t0) = (alloc::snapshot(), now_ns());
    let (timed, report) = swarm.run_into(TimingSink::new(sink))?;
    let st = timed.stamps;
    spans.layer("proto.execute", t0, st.first_probe_ns);
    spans.layer("trace.collect", st.first_probe_ns, st.finish_ns);
    Ok(Capture {
        output: timed.output,
        report,
        sunk: st.records,
        execute_allocs: alloc_delta(a0, st.alloc_at_first_probe),
    })
}

/// Runs one analysis call and records `analysis.analyze`; returns the
/// analysis and the allocation calls it made.
fn analyzed(
    spans: &mut IterSpans,
    call: impl FnOnce() -> Result<ExperimentAnalysis, TraceError>,
) -> Result<(ExperimentAnalysis, u64), TraceError> {
    let (a0, t0) = (alloc::snapshot(), now_ns());
    let analysis = call()?;
    spans.layer("analysis.analyze", t0, now_ns());
    Ok((analysis, alloc::snapshot().allocs - a0.allocs))
}

impl Bench {
    /// Sets `workload` up at `seed`. `dir` is a scratch directory for
    /// corpora; for `corpus_reanalyze` this simulates PPLive clean once,
    /// analyses it in memory as the reference, and spills it to `dir`.
    pub fn setup(
        workload: Workload,
        seed: u64,
        size: Size,
        dir: &Path,
    ) -> Result<Bench, BenchError> {
        let cfg = AnalysisConfig::default();
        let corpus = match workload {
            Workload::CorpusReanalyze => Some(spill_reference(seed, size, &cfg, dir)?),
            Workload::PpliveSteady | Workload::PpliveChurnSpill => None,
        };
        Ok(Bench {
            workload,
            seed,
            size,
            faults: workload.faults(),
            cfg,
            dir: dir.to_path_buf(),
            corpus,
            fingerprint: None,
        })
    }

    /// The corpus directory this bench writes or reads.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether the workload leaves a corpus in [`Bench::dir`].
    pub fn has_corpus(&self) -> bool {
        self.workload != Workload::PpliveSteady
    }

    /// Runs one iteration and checks its outputs. With `traced`, a
    /// profiling `Obs` is attached to the swarm and the analysis and its
    /// tree is returned in the outcome.
    pub fn iterate(&mut self, traced: bool) -> Result<Outcome, BenchError> {
        let obs = if traced {
            Obs::profiled()
        } else {
            Obs::disabled()
        };
        alloc::reset_peak();
        let mut spans = IterSpans::start(now_ns());
        let body = match self.workload {
            Workload::CorpusReanalyze => self.reanalyze(&obs, &mut spans),
            Workload::PpliveSteady | Workload::PpliveChurnSpill => {
                self.experiment(&obs, &mut spans)
            }
        };
        spans.finish(now_ns());
        let peak_heap_bytes = alloc::snapshot().peak_bytes;
        let body = body?;
        let fingerprint = self.check(&body)?;
        let corpus_bytes = if self.workload == Workload::PpliveChurnSpill {
            corpus_bytes(&self.dir)?
        } else {
            0
        };
        let (report, execute_allocs) = match body.capture {
            Some(cap) => (Some(cap.report), cap.execute_allocs),
            None => (None, (0, 0)),
        };
        Ok(Outcome {
            spans,
            records: body.analysis.total_packets as u64,
            peak_heap_bytes,
            fingerprint,
            report,
            execute_allocs: execute_allocs.0,
            execute_alloc_bytes: execute_allocs.1,
            analyze_allocs: body.analyze_allocs,
            corpus_bytes,
            profile: obs.profile_tree(),
        })
    }

    /// One full experiment: build → swarm → capture → analysis.
    fn experiment(&self, obs: &Obs, spans: &mut IterSpans) -> Result<Body, BenchError> {
        let t0 = now_ns();
        let (scenario, swarm_cfg) = swarm_inputs(self.seed, self.size);
        let t1 = now_ns();
        spans.layer("testbed.build", t0, t1);
        let mut swarm = Swarm::new(swarm_cfg, env(&scenario), scenario.peer_setup());
        swarm.set_faults(&self.faults);
        if obs.is_enabled() {
            swarm.set_obs(obs.clone());
        }
        let t2 = now_ns();
        spans.layer("proto.swarm_new", t1, t2);
        let (registry, highbw) = (&scenario.registry, &scenario.highbw_probe_ips);
        let (cfg, dir) = (&self.cfg, self.dir.as_path());
        if self.workload == Workload::PpliveChurnSpill {
            let cap = capture(swarm, CorpusSink::create(dir)?, spans)?;
            let (analysis, analyze_allocs) = analyzed(spans, || {
                analyze_corpus_with_obs(dir, registry, cfg, highbw, obs)
            })?;
            Ok(Body {
                analysis,
                analyze_allocs,
                manifest_total: Some(cap.output.total_packets),
                capture: Some(cap.counts()),
            })
        } else {
            let cap = capture(swarm, MemorySink::new(), spans)?;
            let (analysis, analyze_allocs) = analyzed(spans, || {
                Ok(analyze_with_obs(&cap.output, registry, cfg, highbw, obs))
            })?;
            Ok(Body {
                analysis,
                analyze_allocs,
                manifest_total: None,
                capture: Some(cap.counts()),
            })
        }
    }

    /// One full analysis of the set-up corpus.
    fn reanalyze(&self, obs: &Obs, spans: &mut IterSpans) -> Result<Body, BenchError> {
        let Some(c) = &self.corpus else {
            return Err(BenchError::Check("corpus_reanalyze has no corpus".into()));
        };
        let (analysis, analyze_allocs) = analyzed(spans, || {
            analyze_corpus_with_obs(
                &self.dir,
                &c.scenario.registry,
                &self.cfg,
                &c.scenario.highbw_probe_ips,
                obs,
            )
        })?;
        Ok(Body {
            analysis,
            analyze_allocs,
            capture: None,
            manifest_total: Some(c.total_packets),
        })
    }

    /// The output checks; returns the iteration's fingerprint.
    fn check(&mut self, body: &Body) -> Result<u64, BenchError> {
        let total = body.analysis.total_packets;
        if let Some(sunk) = body.capture.as_ref().map(|c| c.sunk) {
            if total as u64 != sunk {
                return Err(BenchError::Check(format!(
                    "analysis counted {total} records, the sink received {sunk}"
                )));
            }
        }
        if let Some(expected) = body.manifest_total {
            if total != expected {
                return Err(BenchError::Check(format!(
                    "analysis counted {total} records, the manifest lists {expected}"
                )));
            }
        }
        let fp = match (&body.capture, &self.corpus) {
            (Some(cap), _) => fingerprint(&body.analysis, &cap.report),
            (None, Some(c)) => {
                if body.analysis.to_json() != c.json {
                    return Err(BenchError::Check(
                        "corpus analysis differs from the in-memory reference".into(),
                    ));
                }
                fingerprint(&body.analysis, &c.report)
            }
            (None, None) => return Err(BenchError::Check("iteration produced no report".into())),
        };
        match self.fingerprint {
            None => self.fingerprint = Some(fp),
            Some(pinned) if pinned != fp => {
                return Err(BenchError::Check(format!(
                    "fingerprint {fp:016x} differs from {pinned:016x}"
                )))
            }
            Some(_) => {}
        }
        Ok(fp)
    }
}

fn alloc_delta(a: alloc::AllocSnapshot, b: alloc::AllocSnapshot) -> (u64, u64) {
    (
        b.allocs.saturating_sub(a.allocs),
        b.bytes.saturating_sub(a.bytes),
    )
}

/// Simulates PPLive clean, analyses it in memory, and writes the same
/// traces to `dir` as a corpus.
fn spill_reference(
    seed: u64,
    size: Size,
    cfg: &AnalysisConfig,
    dir: &Path,
) -> Result<Corpus, BenchError> {
    let (scenario, swarm_cfg) = swarm_inputs(seed, size);
    let swarm = Swarm::new(swarm_cfg, env(&scenario), scenario.peer_setup());
    let (set, report) = swarm.run_into(MemorySink::new())?;
    let json = analyze_with_obs(
        &set,
        &scenario.registry,
        cfg,
        &scenario.highbw_probe_ips,
        &Obs::disabled(),
    )
    .to_json();
    let total = set.total_packets();
    let manifest = set.write_dir(dir)?;
    if manifest.total_packets != total {
        return Err(BenchError::Check(format!(
            "spilled {} records of {total}",
            manifest.total_packets
        )));
    }
    Ok(Corpus {
        scenario,
        report,
        json,
        total_packets: total,
    })
}

/// Total size of the files in `dir`, bytes.
fn corpus_bytes(dir: &Path) -> Result<u64, TraceError> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// Decodes every record of the corpus in `dir` through
/// [`CorpusStream::open_probe`] and nothing else; returns the record
/// count.
fn decode_corpus(dir: &Path) -> Result<u64, TraceError> {
    let corpus = CorpusStream::open(dir)?;
    let mut n = 0u64;
    for &probe in corpus.probes() {
        for rec in corpus.open_probe(probe)? {
            std::hint::black_box(rec?);
            n += 1;
        }
    }
    Ok(n)
}

/// Attempted and failed iterations, with the outcomes of the good ones.
#[derive(Default)]
pub struct Tally {
    /// Iterations started.
    pub attempted: u64,
    /// Iterations that returned an error or failed a check.
    pub failed: u64,
    /// Outcomes of the successful iterations, in order.
    pub ok: Vec<Outcome>,
    /// One line per failed iteration.
    pub errors: Vec<String>,
}

impl Tally {
    /// Failed over attempted iterations.
    pub fn failed_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Times [`run`] repeats the set-up; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Fewest iterations one closed loop runs.
pub const MIN_ITERS: usize = 3;

/// Closed loop: one iteration after another until `seconds` have passed
/// and at least [`MIN_ITERS`] ran. A failed iteration is counted and the
/// loop goes on.
pub fn timed_loop(bench: &mut Bench, traced: bool, seconds: f64, tally: &mut Tally) {
    let start = now_ns();
    let mut n = 0;
    while n < MIN_ITERS || ((now_ns() - start) as f64) < seconds * 1e9 {
        n += 1;
        tally.attempted += 1;
        match bench.iterate(traced) {
            Ok(o) => tally.ok.push(o),
            Err(e) => {
                tally.failed += 1;
                tally.errors.push(e.to_string());
            }
        }
    }
}

/// The end-to-end metrics of an untraced run: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("records_per_s", "rec/s"),
    ("peak_heap_mb", "MiB"),
];

/// The per-layer metrics of a traced run: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("testbed.build_s", "s"),
    ("proto.swarm_new_s", "s"),
    ("proto.execute_s", "s"),
    ("proto.events", "count"),
    ("proto.events_per_s", "1/s"),
    ("proto.alloc_count", "count"),
    ("proto.alloc_mb", "MiB"),
    ("proto.departures", "count"),
    ("proto.requeued", "count"),
    ("proto.packets_dropped", "count"),
    ("proto.continuity", "fraction"),
    ("proto.dispatch_self_s", "s"),
    ("proto.drain_s", "s"),
    ("proto.transfer_rx_s", "s"),
    ("proto.behaviour.announce_s", "s"),
    ("proto.behaviour.scheduling_s", "s"),
    ("proto.behaviour.discovery_s", "s"),
    ("proto.behaviour.churn_recovery_s", "s"),
    ("proto.behaviour.announce_calls", "count"),
    ("proto.behaviour.scheduling_calls", "count"),
    ("proto.behaviour.discovery_calls", "count"),
    ("proto.behaviour.churn_recovery_calls", "count"),
    ("trace.collect_s", "s"),
    ("trace.records", "count"),
    ("trace.write_mb_per_s", "MiB/s"),
    ("trace.decode_s", "s"),
    ("trace.decode_records_per_s", "rec/s"),
    ("analysis.analyze_s", "s"),
    ("analysis.alloc_count", "count"),
    ("analysis.sweep_s", "s"),
    ("analysis.assemble_s", "s"),
    ("obs.trace_overhead", "fraction"),
    ("bench.unattributed_share", "fraction"),
];

const MIB: f64 = 1024.0 * 1024.0;

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q` quantile of `values`, interpolated linearly between order
/// statistics (so `q = 0.5` is the median); 0 when empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return 0.0;
    };
    let x = q.clamp(0.0, 1.0) * last as f64;
    let i = x.floor() as usize;
    let j = (i + 1).min(last);
    v[i] + (v[j] - v[i]) * x.fract()
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The layer metrics one traced iteration measured. Decode times and
/// tracing overhead are run-level and added by [`run`].
pub fn layer_metrics(o: &Outcome) -> BTreeMap<&'static str, f64> {
    let s = &o.spans;
    let mut m = BTreeMap::new();
    let execute_s = secs(s.layer_ns("proto.execute"));
    let collect_s = secs(s.layer_ns("trace.collect"));
    m.insert("testbed.build_s", secs(s.layer_ns("testbed.build")));
    m.insert("proto.swarm_new_s", secs(s.layer_ns("proto.swarm_new")));
    m.insert("proto.execute_s", execute_s);
    let r = o.report.clone().unwrap_or_default();
    m.insert("proto.events", r.events_dispatched as f64);
    m.insert(
        "proto.events_per_s",
        ratio(r.events_dispatched as f64, execute_s),
    );
    m.insert("proto.alloc_count", o.execute_allocs as f64);
    m.insert("proto.alloc_mb", o.execute_alloc_bytes as f64 / MIB);
    m.insert("proto.departures", r.peers_departed as f64);
    m.insert("proto.requeued", r.requests_requeued as f64);
    m.insert("proto.packets_dropped", r.packets_dropped as f64);
    let chunks = (r.chunks_delivered + r.chunks_lost) as f64;
    m.insert("proto.continuity", ratio(r.chunks_delivered as f64, chunks));
    let node = |path: &str| o.profile.as_ref().and_then(|t| t.find(path));
    let self_s = |path: &str| node(path).map_or(0.0, |n| secs(n.self_wall_ns()));
    const DISPATCH: &str = "swarm.run/swarm.dispatch";
    m.insert("proto.dispatch_self_s", self_s(DISPATCH));
    m.insert("proto.drain_s", self_s(&format!("{DISPATCH}/drain")));
    m.insert(
        "proto.transfer_rx_s",
        self_s(&format!("{DISPATCH}/transfer.rx")),
    );
    for (b, secs_name, calls_name) in [
        (
            "announce",
            "proto.behaviour.announce_s",
            "proto.behaviour.announce_calls",
        ),
        (
            "scheduling",
            "proto.behaviour.scheduling_s",
            "proto.behaviour.scheduling_calls",
        ),
        (
            "discovery",
            "proto.behaviour.discovery_s",
            "proto.behaviour.discovery_calls",
        ),
        (
            "churn_recovery",
            "proto.behaviour.churn_recovery_s",
            "proto.behaviour.churn_recovery_calls",
        ),
    ] {
        let path = format!("{DISPATCH}/behaviour.{b}");
        m.insert(secs_name, self_s(&path));
        m.insert(calls_name, node(&path).map_or(0.0, |n| n.calls as f64));
    }
    m.insert("trace.collect_s", collect_s);
    m.insert("trace.records", o.records as f64);
    m.insert(
        "trace.write_mb_per_s",
        ratio(o.corpus_bytes as f64 / MIB, collect_s),
    );
    m.insert("analysis.analyze_s", secs(s.layer_ns("analysis.analyze")));
    m.insert("analysis.alloc_count", o.analyze_allocs as f64);
    m.insert("analysis.sweep_s", self_s("analysis.sweep"));
    m.insert("analysis.assemble_s", self_s("analysis.assemble"));
    m.insert("bench.unattributed_share", s.unattributed_share());
    m
}

/// How one benchmark run is configured.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The seed every input derives from.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Scratch directory for corpora.
    pub work_dir: PathBuf,
}

/// The result of one benchmark run.
pub struct RunResult {
    /// Timed iterations started.
    pub attempted: u64,
    /// Timed iterations that failed.
    pub failed: u64,
    /// Failed over attempted.
    pub failed_ratio: f64,
    /// Successful timed iterations (the sample count of every median).
    pub samples: usize,
    /// The output fingerprint pinned in set-up.
    pub fingerprint: u64,
    /// Metrics in [`END_TO_END`] or [`PER_LAYER`] order: name, value,
    /// unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Minimum, quartiles and maximum of the successful timed (untraced)
    /// iterations, seconds.
    pub wall_quartiles: [f64; 5],
    /// The benchmark's spans (traced runs only).
    pub spans: SpanLog,
    /// One line per failed iteration.
    pub errors: Vec<String>,
}

/// Sets the workload up [`SETUP_REPS`] times (each with a warm-up
/// iteration), then measures it in a closed loop for `seconds`.
pub fn run(cfg: &RunConfig) -> Result<RunResult, BenchError> {
    let mut setup_s = Vec::new();
    let mut bench: Option<(Bench, u64)> = None;
    for _ in 0..SETUP_REPS {
        let t0 = now_ns();
        let mut b = Bench::setup(cfg.workload, cfg.seed, cfg.size, &cfg.work_dir)?;
        let warm = b.iterate(false)?;
        setup_s.push(secs(now_ns() - t0));
        if let Some((_, fp)) = &bench {
            if *fp != warm.fingerprint {
                return Err(BenchError::Check("set-up repetitions disagree".into()));
            }
        }
        bench = Some((b, warm.fingerprint));
    }
    let Some((mut bench, fingerprint)) = bench else {
        return Err(BenchError::Check("no set-up ran".into()));
    };

    let mut timed = Tally::default();
    let mut traced = Tally::default();
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    timed_loop(&mut bench, false, budget, &mut timed);
    let walls = |t: &Tally| -> Vec<f64> { t.ok.iter().map(|o| secs(o.spans.wall_ns())).collect() };
    let timed_walls = walls(&timed);
    let wall_s = median(&timed_walls);

    let mut spans = SpanLog::default();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    if cfg.trace {
        timed_loop(&mut bench, true, budget, &mut traced);
        let per_iter: Vec<BTreeMap<&str, f64>> = traced.ok.iter().map(layer_metrics).collect();
        for &(name, _) in PER_LAYER {
            let samples: Vec<f64> = per_iter
                .iter()
                .filter_map(|m| m.get(name))
                .copied()
                .collect();
            values.insert(name, median(&samples));
        }
        for (i, o) in traced.ok.iter().enumerate() {
            spans.push(i as u64, o.spans.clone());
        }
        let (decode_s, decoded) = decode_passes(&bench)?;
        values.insert("trace.decode_s", decode_s);
        values.insert("trace.decode_records_per_s", ratio(decoded, decode_s));
        values.insert(
            "obs.trace_overhead",
            ratio(median(&walls(&traced)), wall_s) - 1.0,
        );
    } else {
        let per_iter = |f: fn(&Outcome) -> f64| median(&timed.ok.iter().map(f).collect::<Vec<_>>());
        values.insert("setup_s", median(&setup_s));
        values.insert("wall_s", wall_s);
        values.insert(
            "records_per_s",
            per_iter(|o| ratio(o.records as f64, secs(o.spans.wall_ns()))),
        );
        values.insert("peak_heap_mb", per_iter(|o| o.peak_heap_bytes as f64 / MIB));
    }
    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let wall_quartiles = [0.0, 0.25, 0.5, 0.75, 1.0].map(|q| quantile(&timed_walls, q));
    let attempted = timed.attempted + traced.attempted;
    let failed = timed.failed + traced.failed;
    Ok(RunResult {
        attempted,
        failed,
        failed_ratio: ratio(failed as f64, attempted as f64),
        samples: timed.ok.len() + traced.ok.len(),
        fingerprint,
        metrics,
        wall_quartiles,
        setup_s,
        spans,
        errors: timed.errors.into_iter().chain(traced.errors).collect(),
    })
}

/// Decode-only passes over the bench's corpus: median seconds and the
/// record count (both 0 when the workload keeps no corpus).
fn decode_passes(bench: &Bench) -> Result<(f64, f64), BenchError> {
    if !bench.has_corpus() {
        return Ok((0.0, 0.0));
    }
    let mut times = Vec::new();
    let mut records = 0;
    for _ in 0..3 {
        let t0 = now_ns();
        records = decode_corpus(bench.dir())?;
        times.push(secs(now_ns() - t0));
    }
    Ok((median(&times), records as f64))
}
