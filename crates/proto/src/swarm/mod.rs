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
//! The protocol itself is a composition of typed, per-concern behaviour
//! modules (discovery, announce, churn-recovery, scheduling and the
//! optional epidemic push — see `behaviour.rs`), which the profile
//! builds from its built-ins and the deterministic dispatcher in
//! `dispatch.rs` drives. The core underneath holds what every concern
//! shares: peer tables, per-probe state slices, traces, observability
//! and the transfer machinery (`transfer.rs`), whose receive routines
//! are the one path by which a packet reaches a probe's capture.
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
mod presence;
mod report;
pub(crate) mod scheduling;
mod state;
pub(crate) mod transfer;

pub(crate) use behaviour::BehaviourStack;
pub use report::{ProbePerf, SwarmReport};
pub use state::{ExternalSpec, NetworkEnv, PeerSetup, ProbeSpec};

use crate::chunk::StreamParams;
use crate::peer::{PeerId, PeerInfo, PeerRole};
use crate::profiles::AppProfile;
use netaware_faults::FaultPlan;
use netaware_obs::{Counter, Gauge, HistogramMetric, Level, Obs};
use netaware_sim::{DetRng, LinkFaults, SimTime};
use netaware_trace::{MemorySink, ProbeTrace, RecordSink, TraceError, TraceSet};
use state::{PeerMeta, ProbeState};

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
    pub(crate) handshakes_ok: Counter,
    pub(crate) handshakes_refused: Counter,
    pub(crate) gossip_announcements: Counter,
    pub(crate) gossip_fanout: HistogramMetric,
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
            handshakes_ok: obs.counter("proto.handshakes_ok"),
            handshakes_refused: obs.counter("proto.handshakes_refused"),
            gossip_announcements: obs.counter("proto.gossip_announcements"),
            gossip_fanout: obs.histogram("proto.gossip_fanout", 128),
            continuity_permille: obs.histogram("proto.continuity_permille", 1001),
            continuity_min_permille: obs.gauge("proto.continuity_min_permille"),
        }
    }
}

/// Everything the behaviours share: peer tables, per-probe state
/// slices, trace capture, observability, and the fault substrate (link
/// impairment machines and the presence table — the *consequences* of
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
    /// Per-probe capture buffers: what each probe captured that has not
    /// gone to the sink yet (see `dispatch::run`).
    pub(crate) traces: Vec<ProbeTrace>,
    /// End of the last sealed window, µs: every record at or before it
    /// has gone to the sink, so no capture may land there any more.
    pub(crate) sealed_us: Option<u64>,
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
    /// Per-peer offline flags (written by churn recovery, read by
    /// discovery and scheduling) and the probes that may name each peer
    /// (marked wherever a probe's state stores a peer id, read by
    /// eviction).
    pub(crate) presence: presence::Presence,
    /// Scratch list of one external serve's packets as they reach the
    /// requesting probe's access link (`(reach_us, wire_bytes)`), cleared
    /// on each serve and kept only for its capacity.
    pub(crate) ext_reach: Vec<(u64, u16)>,
}

impl SwarmCore<'_> {
    pub(crate) fn is_probe(&self, id: PeerId) -> bool {
        self.peers[id.0 as usize].role == PeerRole::Probe
    }

    pub(crate) fn probe_index(&self, id: PeerId) -> Option<usize> {
        self.is_probe(id).then(|| id.0 as usize - 1)
    }

    /// Whether `id` is currently offline (churned away).
    pub(crate) fn is_offline(&self, id: PeerId) -> bool {
        self.presence.is_offline(id)
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
    /// offline flags in the core, the churn process in the churn-recovery
    /// behaviour, tracker outages in the discovery behaviour.
    pub fn set_faults(&mut self, plan: &FaultPlan) {
        let seed = self.core.cfg.seed;
        self.core.presence.clear_offline();
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

    /// Runs the experiment and returns the captured traces plus the
    /// ground-truth report.
    pub fn run(self) -> (TraceSet, SwarmReport) {
        match self.run_into(MemorySink::new()) {
            Ok(out) => out,
            // MemorySink fails only on an out-of-order segment, and the
            // seals hand it time-sorted ones.
            Err(_) => unreachable!("in-memory sink cannot fail"),
        }
    }

    /// Runs the experiment into `sink` and returns what the sink built
    /// plus the ground-truth report.
    ///
    /// The event loop runs in one-second windows of simulated time.
    /// After each window, every probe hands `sink` its next segment: the
    /// records at or before the window's end, stably sorted by time.
    /// Those records are final, because every capture lands no earlier
    /// than the event being dispatched. The round after the last window,
    /// which ends at the horizon, takes every record left. Joined, a
    /// probe's segments are exactly its capture sorted stably once, so a
    /// spill-to-disk sink keeps the run's peak at the swarm's own state
    /// plus about two windows of records: each round is sorted and sunk
    /// on a second thread, when the host has a second CPU, while the
    /// loop runs the next window, which is why `sink` must be `Send`.
    /// The sink sees the rounds in order either way. The first sink
    /// error ends the run and is returned; `finish` is then not called.
    pub fn run_into<S: RecordSink>(
        mut self,
        mut sink: S,
    ) -> Result<(S::Output, SwarmReport), TraceError> {
        self.execute(&mut sink)?;
        let out = sink.finish(&self.core.cfg.profile.name, self.core.cfg.duration_us)?;
        Ok((out, self.core.report))
    }

    /// Runs the dispatcher's event loop, sealing the probes' captures
    /// into `sink` window by window, and fills the ground-truth report.
    fn execute<S: RecordSink>(&mut self, sink: &mut S) -> Result<(), TraceError> {
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
        dispatch::run(core, stack, horizon, sink)?;

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
        // The report is the one count of these facts; the registry gets
        // their final values once.
        let r = &core.report;
        for (name, value) in [
            ("proto.chunks_refused", r.chunks_refused),
            ("proto.packets_dropped", r.packets_dropped),
            ("proto.requests_requeued", r.requests_requeued),
            ("proto.peers_departed", r.peers_departed),
            ("proto.peers_arrived", r.peers_arrived),
        ] {
            core.obs.counter(name).add(value);
        }
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
        Ok(())
    }
}

#[cfg(test)]
mod tests;
