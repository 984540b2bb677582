//! The swarm simulation: one experiment of one application.
//!
//! A [`Swarm`] wires together the network substrate, a population of
//! peers, and an [`crate::profiles::AppProfile`], runs the
//! mesh-pull protocol for the configured duration, and returns the packet
//! traces captured at the probe vantage points — exactly the artifact the
//! NAPA-WINE partners got from tcpdump — plus a ground-truth
//! [`SwarmReport`] for validation.
//!
//! ## Architecture: core + behaviour stack
//!
//! The protocol itself is a composition of typed, per-concern
//! [`Behaviour`] modules (discovery, announce, churn-recovery,
//! scheduling — see `behaviour.rs`), constructed from the profile by
//! [`AppProfile::stack`](crate::profiles::AppProfile::stack) and driven
//! by the deterministic dispatcher in `dispatch.rs`. The [`SwarmCore`]
//! underneath holds what every concern shares: peer tables, per-probe
//! state slices, the transfer machinery (`transfer.rs`), traces, and
//! observability.
//!
//! ## Fidelity boundary
//!
//! Probes run the full protocol: buffer maps, provider selection, chunk
//! requests, upload scheduling, discovery, churn, signalling. External
//! peers are modelled *statistically* — their content availability is a
//! playout lag, their upload demand a Poisson process — because the
//! analysis can only observe traffic that touches a probe, so
//! external↔external dynamics matter only through what externals offer
//! to and demand from probes. This is the scale trick that lets a 181k
//! peer PPLive overlay run on a laptop while keeping every
//! probe-observable quantity (packet timing, TTLs, byte shares, peer
//! counts) behaviourally faithful.

pub(crate) mod announce;
pub(crate) mod behaviour;
pub(crate) mod churn_recovery;
pub(crate) mod discovery;
pub(crate) mod dispatch;
pub(crate) mod epidemic;
mod report;
pub(crate) mod scheduling;
mod state;
pub(crate) mod transfer;

pub use behaviour::{Behaviour, BehaviourAction, BehaviourStack, Ctx};
pub use report::{ProbePerf, SwarmReport};
pub use state::{Event, ExternalSpec, NetworkEnv, PeerSetup, ProbeSpec};

use crate::chunk::StreamParams;
use crate::peer::{PeerId, PeerInfo, PeerRole};
use crate::profiles::AppProfile;
use netaware_faults::FaultPlan;
use netaware_obs::{Counter, Gauge, HistogramMetric, Level, Obs};
use netaware_sim::{DetRng, LinkFaults, PacketFate, SimTime};
use netaware_trace::{MemorySink, ProbeTrace, RecordSink, TraceError, TraceSet};
use rayon::prelude::*;
use state::{PeerMeta, ProbeState};
use std::collections::BTreeSet;

/// Experiment-level configuration of one swarm run.
#[derive(Clone, Debug)]
pub struct SwarmConfig {
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Experiment duration in microseconds (the paper ran 1-hour
    /// experiments; tests use seconds).
    pub duration_us: u64,
    /// Stream encoding parameters.
    pub stream: StreamParams,
    /// Application behaviour.
    pub profile: AppProfile,
}

/// Pre-registered protocol metric handles, so the event loop's hot
/// paths pay one atomic add per update instead of a registry lookup.
/// Default handles (obs disabled) are no-ops.
#[derive(Default)]
pub(crate) struct SwarmMetrics {
    pub(crate) chunks_requested: Counter,
    pub(crate) chunks_duplicate: Counter,
    pub(crate) chunks_expired: Counter,
    pub(crate) requests_timed_out: Counter,
    pub(crate) chunks_refused: Counter,
    pub(crate) handshakes_ok: Counter,
    pub(crate) handshakes_refused: Counter,
    pub(crate) gossip_announcements: Counter,
    pub(crate) gossip_fanout: HistogramMetric,
    pub(crate) packets_dropped: Counter,
    pub(crate) requests_requeued: Counter,
    pub(crate) peers_departed: Counter,
    pub(crate) peers_arrived: Counter,
    pub(crate) continuity_permille: HistogramMetric,
    pub(crate) continuity_min_permille: Gauge,
}

impl SwarmMetrics {
    fn register(obs: &Obs) -> SwarmMetrics {
        SwarmMetrics {
            chunks_requested: obs.counter("proto.chunks_requested"),
            chunks_duplicate: obs.counter("proto.chunks_duplicate"),
            chunks_expired: obs.counter("proto.chunks_expired"),
            requests_timed_out: obs.counter("proto.requests_timed_out"),
            chunks_refused: obs.counter("proto.chunks_refused"),
            handshakes_ok: obs.counter("proto.handshakes_ok"),
            handshakes_refused: obs.counter("proto.handshakes_refused"),
            gossip_announcements: obs.counter("proto.gossip_announcements"),
            gossip_fanout: obs.histogram("proto.gossip_fanout", 128),
            packets_dropped: obs.counter("proto.packets_dropped"),
            requests_requeued: obs.counter("proto.requests_requeued"),
            peers_departed: obs.counter("proto.peers_departed"),
            peers_arrived: obs.counter("proto.peers_arrived"),
            continuity_permille: obs.histogram("proto.continuity_permille", 1001),
            continuity_min_permille: obs.gauge("proto.continuity_min_permille"),
        }
    }
}

/// Everything the behaviours share: peer tables, per-probe state
/// slices, trace capture, observability, and the fault substrate (link
/// impairment machines and the offline set — the *consequences* of
/// churn; the churn *process* lives in the churn-recovery behaviour).
pub(crate) struct SwarmCore<'a> {
    pub(crate) cfg: SwarmConfig,
    pub(crate) env: NetworkEnv<'a>,
    /// Index 0 is the source, `1..=n_probes` the probes, the rest
    /// externals. Read-only after build.
    pub(crate) peers: Vec<PeerInfo>,
    pub(crate) meta: Vec<PeerMeta>,
    pub(crate) n_probes: usize,
    pub(crate) probe_states: Vec<ProbeState>,
    pub(crate) traces: Vec<ProbeTrace>,
    pub(crate) rng: DetRng,
    pub(crate) report: SwarmReport,
    /// Observability handle; events it emits are keyed by sim time, so
    /// they ride the same determinism contract as the traces.
    pub(crate) obs: Obs,
    /// Pre-registered metric handles derived from `obs`.
    pub(crate) m: SwarmMetrics,
    /// One impairment machine per probe access link (empty without link
    /// faults, so fault-free runs draw no link fates).
    pub(crate) links: Vec<LinkFaults>,
    /// Externals currently offline (written by churn recovery, read by
    /// discovery and scheduling).
    pub(crate) offline: BTreeSet<PeerId>,
}

impl SwarmCore<'_> {
    pub(crate) fn is_probe(&self, id: PeerId) -> bool {
        self.peers[id.0 as usize].role == PeerRole::Probe
    }

    pub(crate) fn probe_index(&self, id: PeerId) -> Option<usize> {
        self.is_probe(id).then(|| id.0 as usize - 1)
    }

    /// Fate of one packet crossing probe `idx`'s access link at `at_us`.
    /// Without link faults every packet passes undelayed, and no RNG is
    /// consulted.
    pub(crate) fn link_fate(&mut self, idx: usize, at_us: u64) -> PacketFate {
        if self.links.is_empty() {
            return PacketFate::Pass { extra_delay_us: 0 };
        }
        let fate = self.links[idx].packet_fate(at_us);
        if fate.is_dropped() {
            self.report.packets_dropped += 1;
            self.m.packets_dropped.inc();
        }
        fate
    }

    /// Whether `id` is currently offline (churned away).
    pub(crate) fn is_offline(&self, id: PeerId) -> bool {
        self.offline.contains(&id)
    }

    /// All external peers, in id order (the churn process's population).
    pub(crate) fn external_ids(&self) -> Vec<PeerId> {
        self.peers
            .iter()
            .filter(|p| p.role == PeerRole::External)
            .map(|p| p.id)
            .collect()
    }
}

/// A fully wired simulation, ready to run: the shared core plus the
/// behaviour stack that *is* the protocol.
pub struct Swarm<'a> {
    pub(crate) core: SwarmCore<'a>,
    pub(crate) stack: BehaviourStack,
}

impl<'a> Swarm<'a> {
    /// Builds a swarm over `env` with the given population.
    pub fn new(cfg: SwarmConfig, env: NetworkEnv<'a>, setup: PeerSetup) -> Self {
        state::build(cfg, env, setup)
    }

    /// Number of probe vantage points.
    pub fn n_probes(&self) -> usize {
        self.core.n_probes
    }

    /// Attaches an observability handle: protocol events
    /// (`swarm.<behaviour>.*` targets) and `proto.*` metrics flow into
    /// it from here on. The default handle is disabled, making all
    /// instrumentation no-ops.
    pub fn set_obs(&mut self, obs: Obs) {
        self.core.m = SwarmMetrics::register(&obs);
        self.core.obs = obs;
    }

    /// Attaches a fault-injection plan. A no-op plan (the default)
    /// installs nothing: the run stays byte-identical to one on a swarm
    /// that never heard of faults. Fault draws ride dedicated RNG
    /// streams, so attaching a plan never perturbs protocol streams.
    /// The pieces land where they are consumed: link machines and the
    /// offline set in the core, the churn process in the churn-recovery
    /// behaviour, tracker outages in the discovery behaviour.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        let seed = self.core.cfg.seed;
        self.core.offline.clear();
        if plan.is_noop() {
            self.core.links = Vec::new();
            self.stack
                .recovery
                .set_churn(None, netaware_faults::SessionModel::default(), seed);
            self.stack.discovery.outages = Vec::new();
            return;
        }
        self.core.links = if plan.link.is_noop() {
            Vec::new()
        } else {
            (0..self.core.n_probes)
                .map(|i| {
                    LinkFaults::new(
                        plan.link.params(),
                        DetRng::substream(seed, "fault.link", i as u64),
                    )
                })
                .collect()
        };
        self.stack.recovery.set_churn(
            plan.churn.clone(),
            plan.session.clone().unwrap_or_default(),
            seed,
        );
        self.stack.discovery.outages = plan
            .churn
            .as_ref()
            .map(|c| c.tracker_outages.clone())
            .unwrap_or_default();
    }

    /// The peer table (source, probes, externals).
    pub fn peers(&self) -> &[PeerInfo] {
        &self.core.peers
    }

    /// Appends a custom [`Behaviour`] to the stack. It runs after the
    /// built-in behaviours on every event, in push order — no dispatcher
    /// or state-core change needed.
    pub fn push_behaviour(&mut self, behaviour: Box<dyn Behaviour>) {
        self.stack.push(behaviour);
    }

    /// Runs the experiment and returns the captured traces plus the
    /// ground-truth report.
    pub fn run(self) -> (TraceSet, SwarmReport) {
        match self.run_into(MemorySink::new()) {
            Ok(out) => out,
            // MemorySink::sink_probe / finish are infallible.
            Err(_) => unreachable!("in-memory sink cannot fail"),
        }
    }

    /// Runs the experiment, then hands each probe's finalized capture to
    /// `sink` in probe order.
    ///
    /// Every capture stays in `core.traces` until the event loop ends:
    /// transfers push future-timestamped records into any probe's trace
    /// at any time. Finalize then trims each capture to its length and
    /// sorts the captures in parallel — each one stably and on its own,
    /// so what the sink receives does not depend on the thread count. A
    /// spill-to-disk sink therefore bounds what is kept after the run,
    /// not the peak of the capture itself.
    pub fn run_into<S: RecordSink>(
        mut self,
        mut sink: S,
    ) -> Result<(S::Output, SwarmReport), TraceError> {
        self.execute();
        let mut traces = std::mem::take(&mut self.core.traces);
        // Trim before sorting, so the spare capacity is gone before the
        // sorts allocate their scratch buffers.
        traces.iter_mut().for_each(ProbeTrace::shrink_to_fit);
        let traces: Vec<ProbeTrace> = traces
            .into_par_iter()
            .map(|mut trace| {
                trace.finalize();
                trace
            })
            .collect();
        for trace in traces {
            sink.sink_probe(trace)?;
        }
        let out = sink.finish(&self.core.cfg.profile.name, self.core.cfg.duration_us)?;
        Ok((out, self.core.report))
    }

    /// Runs the dispatcher's event loop and fills the ground-truth
    /// report. Captured records accumulate in `core.traces`, unsorted
    /// (transfers push future-timestamped receiver records).
    fn execute(&mut self) {
        let horizon = SimTime::from_us(self.core.cfg.duration_us);
        let pspan = self.core.obs.pspan("swarm.run");
        netaware_obs::event!(
            self.core.obs,
            Level::Info,
            "swarm.run",
            SimTime::ZERO,
            "app" = self.core.cfg.profile.name.as_str(),
            "probes" = self.core.n_probes,
            "peers" = self.core.peers.len(),
            "duration_us" = self.core.cfg.duration_us,
        );

        let Swarm { core, stack } = self;
        dispatch::run(core, stack, horizon);

        let mut min_permille: i64 = 1000;
        for (i, s) in core.probe_states.iter().enumerate() {
            core.report.chunks_delivered += s.sched.delivered;
            core.report.chunks_lost += s.sched.lost;
            let total = s.sched.delivered + s.sched.lost;
            let continuity = if total == 0 {
                1.0
            } else {
                s.sched.delivered as f64 / total as f64
            };
            // Surface the per-probe continuity index (graceful-degradation
            // signal under faults) through the obs layer: stored as
            // permille so the integer metrics pipeline carries it intact.
            let permille = (continuity * 1000.0).round() as u64;
            min_permille = min_permille.min(permille as i64);
            core.m.continuity_permille.record(permille as usize);
            netaware_obs::event!(
                core.obs,
                Level::Info,
                "swarm.continuity",
                horizon,
                "probe" = i,
                "permille" = permille,
                "delivered" = s.sched.delivered,
                "lost" = s.sched.lost,
            );
            core.report.per_probe.push(report::ProbePerf {
                probe: core.meta[1 + i].ep.ip,
                delivered: s.sched.delivered,
                lost: s.sched.lost,
                continuity,
            });
        }
        core.m.continuity_min_permille.set(min_permille);
        pspan.add_events(core.report.events_dispatched);
        netaware_obs::event!(
            core.obs,
            Level::Info,
            "swarm.done",
            horizon,
            "delivered" = core.report.chunks_delivered,
            "lost" = core.report.chunks_lost,
            "refused" = core.report.chunks_refused,
            "events" = core.report.events_dispatched,
        );
    }
}

#[cfg(test)]
mod tests;
