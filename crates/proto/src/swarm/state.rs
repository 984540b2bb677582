//! Swarm state: peer tables, probe protocol state, discovery tables.
//!
//! [`ProbeState`] is sliced by concern: each behaviour module primarily
//! owns one slice ([`DiscoveryState`], [`SchedulingState`],
//! [`RecoveryState`], plus the transfer machinery's [`LinkState`]),
//! while the probe's private RNG stays shared — every concern draws
//! from the *same* per-probe decision stream, in dispatch order, which
//! is part of the byte-identity contract. Cross-slice touches exist
//! where the protocol genuinely couples concerns (scheduling writes
//! retry counters; recovery frees scheduling's pending slots) and are
//! documented at the call sites.

use super::{Swarm, SwarmConfig, SwarmCore, SwarmReport};
use crate::chunk::{BufferMap, ChunkId};
use crate::peer::{PeerId, PeerInfo, PeerRole};
use crate::policy::{Candidate, SelectionPolicy};
use netaware_net::{
    hash, AccessLink, AsId, CountryCode, Endpoint, GeoRegistry, Ip, LatencyModel, PathModel,
};
use netaware_sim::{AccessSerializer, DetRng};
use netaware_trace::ProbeTrace;
use std::collections::BTreeMap;

/// The network substrate a swarm runs over.
#[derive(Clone, Copy)]
pub struct NetworkEnv<'a> {
    /// Prefix → AS → country registry.
    pub registry: &'a GeoRegistry,
    /// Directional hop-count model.
    pub paths: PathModel,
    /// One-way delay model.
    pub latency: LatencyModel,
}

/// One probe host as configured in the scenario (Table I rows).
#[derive(Clone, Debug)]
pub struct ProbeSpec {
    /// Address (resolves to site subnet / AS / CC).
    pub ip: Ip,
    /// Access link incl. NAT/firewall flags.
    pub access: AccessLink,
}

/// One external peer of the synthetic population.
#[derive(Clone, Debug)]
pub struct ExternalSpec {
    /// Address.
    pub ip: Ip,
    /// Access link.
    pub access: AccessLink,
}

/// The population handed to [`Swarm::new`].
#[derive(Clone, Debug)]
pub struct PeerSetup {
    /// The broadcast source (the CCTV-1 ingest server, in China).
    pub source: ExternalSpec,
    /// NAPA-WINE probes.
    pub probes: Vec<ProbeSpec>,
    /// External overlay population.
    pub externals: Vec<ExternalSpec>,
}

/// Pre-resolved geolocation and capacity of a peer (lookups are hot).
#[derive(Clone, Debug)]
pub struct PeerMeta {
    /// Overlay address with its origin AS and region, resolved once at
    /// build: the delay and hop models price it without searching the
    /// registry again.
    pub ep: Endpoint,
    /// Country of the origin AS.
    pub cc: Option<CountryCode>,
    /// Uplink capacity, bits per second.
    pub up_bps: u64,
    /// Downlink capacity, bits per second.
    pub down_bps: u64,
    /// Behind a NAT (inbound contacts fail).
    pub nat: bool,
    /// Behind a blocking firewall.
    pub fw: bool,
    /// Playout lag of an external peer, µs (how far behind the source its
    /// buffer runs); 0 for the source.
    pub lag_us: u64,
    /// UDP port this peer speaks from.
    pub port: u16,
}

/// A neighbor-table entry at a probe, carrying the per-pair facts the
/// hot loops read, so that each is priced once per entry rather than at
/// every read. [`SwarmCore::neighbor`] resolves them when it makes the
/// entry. Roles, addresses, paths and playout lags are fixed for the
/// whole run, so those facts never go stale. The bandwidth term follows
/// the probe's estimate of the peer, which [`ProbeState::set_estimate`]
/// refreshes. The offline flags stay where they are kept.
#[derive(Clone, Copy, Debug)]
pub struct Neighbor {
    /// The neighbor peer.
    pub id: PeerId,
    /// Entry eviction time, µs since experiment start.
    pub expires_us: u64,
    /// The neighbor's role.
    pub role: PeerRole,
    /// Shares the owning probe's subnet.
    pub same_subnet: bool,
    /// Resolves to the owning probe's AS.
    pub same_as: bool,
    /// Resolves to the owning probe's country.
    pub same_cc: bool,
    /// Whether the owning probe has an estimate of this neighbor's
    /// upstream (`sched.est_bps` holds its key): an external without one
    /// is in the request draft's exploration pool.
    pub measured: bool,
    /// TTL of a packet from this neighbor when it reaches the owning
    /// probe.
    pub ttl: u8,
    /// How long after a chunk is generated this neighbor plausibly
    /// holds it, µs: an external's playout lag ([`PeerMeta::lag_us`]);
    /// `2 + fetch_lag` chunk intervals for a probe, which fetches that
    /// far behind the live head ([`SchedulingState::fetch_lag_chunks`]);
    /// 0 for the source. A few seconds at most.
    pub hold_lag_us: u32,
    /// The download policy's bandwidth term for this neighbor,
    /// `bw_term(Some(est))` under the probe's estimate or `bw_term(None)`
    /// before it has one.
    pub bw_term: f64,
}

// Every probe's table counts in a spilled run's peak heap, and the
// epidemic push copies entries: the measured flag and the TTL share a
// word with the role and locality flags, so the entry stays at 32 bytes.
const _: () = assert!(std::mem::size_of::<Neighbor>() <= 32);

impl Neighbor {
    /// This neighbor as a selection candidate of the owning probe. The
    /// estimate is left out: a weight takes the bandwidth term instead
    /// (`SelectionPolicy::with_factors`).
    pub(crate) fn candidate(&self, is_last_provider: bool) -> Candidate {
        Candidate {
            est_up_bps: None,
            same_subnet: self.same_subnet,
            same_as: self.same_as,
            same_cc: self.same_cc,
            is_last_provider,
        }
    }

    /// Whether this neighbor plausibly holds, at `now_us`, the chunk
    /// generated at `chunk_ready_us` (`StreamParams::chunk_time_us`),
    /// guessed from its playout position rather than its live buffer
    /// map: the source holds every chunk, any other peer a chunk whose
    /// [`Neighbor::hold_lag_us`] has passed. Real clients guess from
    /// (stale) buffer-map gossip the same way, and the provider's
    /// authoritative check at serve time refuses the misses. The guess
    /// reads only the neighbor's *static* lag, never its live state.
    pub(crate) fn plausibly_holds(&self, chunk_ready_us: u64, now_us: u64) -> bool {
        self.role == PeerRole::Source || chunk_ready_us + u64::from(self.hold_lag_us) <= now_us
    }
}

impl SwarmCore<'_> {
    /// The neighbor-table entry for peer `id` at probe `i`, expiring at
    /// `expires_us`. The bootstrap mesh and discovery both build their
    /// entries here, so the cached facts have one derivation. The
    /// bandwidth term comes from the probe's estimates, which outlive
    /// entries: a peer met again is priced by what was learned before.
    pub(crate) fn neighbor(&self, i: usize, id: PeerId, expires_us: u64) -> Neighbor {
        let me = &self.meta[1 + i];
        let m = &self.meta[id.0 as usize];
        let role = self.peers[id.0 as usize].role;
        let est = self.probe_states[i].sched.est_bps.get(&id).copied();
        let hold_lag_us = match role {
            PeerRole::Source => 0,
            PeerRole::Probe => {
                let fetch_lag = self.probe_states[id.0 as usize - 1].sched.fetch_lag_chunks;
                (2 + fetch_lag as u64) * self.cfg.stream.chunk_interval_us()
            }
            PeerRole::External => m.lag_us,
        };
        Neighbor {
            id,
            expires_us,
            role,
            same_subnet: m.ep.ip.same_subnet(me.ep.ip),
            same_as: m.ep.asn.is_some() && m.ep.asn == me.ep.asn,
            same_cc: m.cc.is_some() && m.cc == me.cc,
            measured: est.is_some(),
            ttl: self.inbound_ttl(i, id),
            hold_lag_us: u32::try_from(hold_lag_us).unwrap_or(u32::MAX),
            bw_term: self.cfg.profile.download_policy.bw_term(est),
        }
    }
}

/// An in-flight chunk request.
#[derive(Clone, Copy, Debug)]
pub struct Pending {
    /// The chunk requested.
    pub chunk: ChunkId,
    /// Who was asked.
    pub provider: PeerId,
    /// Retry/abandon deadline, µs since experiment start.
    pub deadline_us: u64,
}

/// Modem burst-coalescing state (ADSL interleaving): packets that drain
/// from the bottleneck within the same interleave window are handed to
/// the host NIC back-to-back, which is why packet-pair capacity probes
/// behind 2008-era DSL lines still saw sub-millisecond gaps.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModemState {
    /// Interleave window the last packet drained into.
    pub bucket: u64,
    /// Packets coalesced into the current window.
    pub count: u32,
}

/// Access-link state of one probe, owned by the transfer machinery.
pub struct LinkState {
    /// Upload access-link queue.
    pub uplink: AccessSerializer,
    /// Download access-link queue.
    pub downlink: AccessSerializer,
    /// Present on probes behind interleaving modems (down < 15 Mb/s).
    pub modem: Option<ModemState>,
    /// Last downlink delivery per providing flow (per-flow pacing).
    pub last_rx_from: BTreeMap<PeerId, netaware_sim::SimTime>,
    /// Upload serializers of the external peers *this probe* talks to,
    /// created lazily on first serve. Keeping them per-probe (instead of
    /// globally shared) makes every external-interaction path a pure
    /// function of one probe's state.
    pub ext_up: BTreeMap<PeerId, AccessSerializer>,
}

/// The discovery behaviour's slice of one probe's state.
pub struct DiscoveryState {
    /// Current neighbor table. Every change goes through a method here,
    /// which marks `external` stale.
    neighbors: Vec<Neighbor>,
    /// The table's external entries, derived from it on the first read
    /// after a change.
    external: ExternalView,
    /// Per-probe halo contact rate, Hz.
    pub halo_rate_hz: f64,
}

/// The external entries of a probe's neighbor table, in table order,
/// with what the demand draft and the announce RX sample read of each:
/// the upload policy's draft weight, which depends only on the entry's
/// static locality, and the entry's inbound TTL. The buffers are kept
/// across rebuilds, so a rebuild allocates only while the table grows
/// past its largest size so far.
#[derive(Default)]
pub(crate) struct ExternalView {
    /// The external neighbors, in table order.
    pub(crate) ids: Vec<PeerId>,
    /// Upload-draft weight of each, aligned with `ids`.
    pub(crate) weights: Vec<f64>,
    /// Inbound TTL of each ([`Neighbor::ttl`]), aligned with `ids`.
    pub(crate) ttls: Vec<u8>,
    /// `weights.iter().sum()`, summed left to right at each rebuild and
    /// never updated in place, since float addition does not reassociate.
    pub(crate) total: f64,
    /// The table changed since the last rebuild.
    stale: bool,
}

impl ExternalView {
    /// The external entries of `table` with their upload-draft weights
    /// under `upload` (the upload policy), in table order.
    fn derive<'t>(
        table: &'t [Neighbor],
        upload: &SelectionPolicy,
    ) -> impl Iterator<Item = (&'t Neighbor, f64)> + Clone {
        let (upload, bw) = (*upload, upload.bw_term(None));
        table
            .iter()
            .filter(|n| n.role == PeerRole::External)
            .map(move |n| (n, upload.with_factors(bw, &n.candidate(false))))
    }

    /// Refills the view from `table`.
    fn rebuild(&mut self, table: &[Neighbor], upload: &SelectionPolicy) {
        self.ids.clear();
        self.weights.clear();
        self.ttls.clear();
        for (n, w) in Self::derive(table, upload) {
            self.ids.push(n.id);
            self.weights.push(w);
            self.ttls.push(n.ttl);
        }
        self.total = self.weights.iter().sum();
        self.stale = false;
    }

    /// Whether the view is bit for bit what a rebuild from `table` would
    /// make; allocates nothing.
    fn is_derived_from(&self, table: &[Neighbor], upload: &SelectionPolicy) -> bool {
        let fresh = Self::derive(table, upload);
        fresh.clone().count() == self.ids.len()
            && fresh.clone().enumerate().all(|(k, (n, w))| {
                n.id == self.ids[k]
                    && n.ttl == self.ttls[k]
                    && w.to_bits() == self.weights[k].to_bits()
            })
            && fresh.map(|(_, w)| w).sum::<f64>().to_bits() == self.total.to_bits()
    }
}

impl DiscoveryState {
    /// An empty table, whose view is built at its first read.
    fn new(halo_rate_hz: f64) -> DiscoveryState {
        DiscoveryState {
            neighbors: Vec::new(),
            external: ExternalView {
                stale: true,
                ..ExternalView::default()
            },
            halo_rate_hz,
        }
    }

    /// The neighbor table.
    pub(crate) fn neighbors(&self) -> &[Neighbor] {
        &self.neighbors
    }

    /// Replaces the whole table (the bootstrap mesh) and returns the
    /// old one.
    pub(crate) fn replace_neighbors(&mut self, table: Vec<Neighbor>) -> Vec<Neighbor> {
        self.external.stale = true;
        std::mem::replace(&mut self.neighbors, table)
    }

    /// Appends an entry (a completed handshake).
    pub(crate) fn push_neighbor(&mut self, n: Neighbor) {
        self.external.stale = true;
        self.neighbors.push(n);
    }

    /// Drops the entries expired at `now_us`.
    pub(crate) fn expire(&mut self, now_us: u64) {
        let had = self.neighbors.len();
        self.neighbors.retain(|n| n.expires_us > now_us);
        self.external.stale |= self.neighbors.len() != had;
    }

    /// Drops `id`'s entry (eviction); returns whether there was one.
    pub(crate) fn remove_neighbor(&mut self, id: PeerId) -> bool {
        let had = self.neighbors.len();
        self.neighbors.retain(|n| n.id != id);
        let removed = self.neighbors.len() != had;
        self.external.stale |= removed;
        removed
    }

    /// The table's external entries, rebuilt first if the table changed
    /// since the last read. `upload` is the profile's upload policy.
    /// Debug builds check the view against a fresh derivation.
    pub(crate) fn external_view(&mut self, upload: &SelectionPolicy) -> &ExternalView {
        if self.external.stale {
            self.external.rebuild(&self.neighbors, upload);
        }
        debug_assert!(
            self.external.is_derived_from(&self.neighbors, upload),
            "external view out of step with the neighbor table: a table change did not mark it stale"
        );
        &self.external
    }
}

/// The scheduling behaviour's slice of one probe's state.
pub struct SchedulingState {
    /// Chunks held in the playout buffer.
    pub bufmap: BufferMap,
    /// How far behind the stream head this probe fetches, in chunks.
    /// Peers joining a live channel sit at different playout positions;
    /// the spread is what lets earlier peers serve later ones.
    pub fetch_lag_chunks: u32,
    /// Upstream estimate per remote, learned from chunk deliveries.
    pub est_bps: BTreeMap<PeerId, u64>,
    /// Most recent successful provider (download stickiness).
    pub last_provider: Option<PeerId>,
    /// In-flight chunk requests.
    pub pending: Vec<Pending>,
    /// Requesters recently served (upload stickiness pool).
    pub active_requesters: Vec<PeerId>,
    /// Aggregate external demand rate on this probe, Hz.
    pub demand_rate_hz: f64,
    /// Chunks lost to playout deadline.
    pub lost: u64,
    /// Chunks successfully received.
    pub delivered: u64,
}

/// The churn-recovery behaviour's slice of one probe's state.
pub struct RecoveryState {
    /// Chunks to re-request promptly: their provider departed while the
    /// request was in flight (churn recovery path).
    pub requeue: Vec<ChunkId>,
    /// Request attempts per missing chunk, for exponential timeout
    /// backoff; pruned as the playout base advances.
    pub attempts: BTreeMap<ChunkId, u32>,
}

/// Full protocol state of one probe, sliced by owning concern.
pub struct ProbeState {
    /// Access-link state (transfer machinery).
    pub link: LinkState,
    /// Discovery behaviour's slice.
    pub disc: DiscoveryState,
    /// Scheduling behaviour's slice.
    pub sched: SchedulingState,
    /// Churn-recovery behaviour's slice.
    pub rec: RecoveryState,
    /// This probe's private decision stream, shared by all concerns in
    /// dispatch order (draw order is part of the determinism contract).
    pub rng: DetRng,
}

impl ProbeState {
    /// Records `est` as this probe's estimate of `id`'s upstream and
    /// re-prices `id`'s neighbor entry, if it has one, under `download`
    /// (the profile's download policy). Every write to `sched.est_bps`
    /// goes through here, so an entry's bandwidth term is always the
    /// one its estimate gives.
    pub(crate) fn set_estimate(&mut self, download: &SelectionPolicy, id: PeerId, est: u64) {
        self.sched.est_bps.insert(id, est);
        if let Some(n) = self.disc.neighbors.iter_mut().find(|n| n.id == id) {
            n.bw_term = download.bw_term(Some(est));
            n.measured = true;
        }
    }
}

/// Discovery sampling structures shared by all probes.
#[derive(Default)]
pub struct DiscoveryTables {
    /// External indices (into `peers`) with cumulative bandwidth-biased
    /// weights, for O(log n) weighted sampling.
    pub ext_ids: Vec<PeerId>,
    /// Running sum of sampling weights, aligned with `ext_ids`.
    pub cum_weights: Vec<f64>,
    /// Externals grouped by AS (for AS-biased discovery shortlists).
    pub by_as: BTreeMap<AsId, Vec<PeerId>>,
}

impl DiscoveryTables {
    /// Samples an external by the bandwidth-biased weight.
    pub fn sample_bw(&self, rng: &mut DetRng) -> Option<PeerId> {
        let total = *self.cum_weights.last()?;
        if total <= 0.0 {
            return None;
        }
        let x = rng.unit() * total;
        let idx = self.cum_weights.partition_point(|&w| w < x);
        Some(self.ext_ids[idx.min(self.ext_ids.len() - 1)])
    }

    /// Samples an external uniformly.
    pub fn sample_uniform(&self, rng: &mut DetRng) -> Option<PeerId> {
        if self.ext_ids.is_empty() {
            return None;
        }
        let i = rng.range(0..self.ext_ids.len());
        Some(self.ext_ids[i])
    }

    /// Samples an external in the given AS, if any live there.
    pub fn sample_in_as(&self, asn: AsId, rng: &mut DetRng) -> Option<PeerId> {
        let list = self.by_as.get(&asn)?;
        if list.is_empty() {
            return None;
        }
        Some(list[rng.range(0..list.len())])
    }
}

/// The packet train of one probe→probe chunk transfer, built when the
/// provider serves and consumed when it reaches the receiver. Carrying
/// departure times instead of mutating receiver state at serve time
/// splits the transfer into two halves that each touch one probe's
/// state: the provider computes when each packet clears its uplink and
/// the path, the receiver applies its own loss process and downlink
/// queueing when the train reaches it.
#[derive(Clone, Debug)]
pub(crate) struct ChunkTrain {
    /// No packet was dropped on the provider's side of the path; only a
    /// complete train can yield a `Delivered`.
    pub complete: bool,
    /// `(reach_us, wire_bytes)` per surviving packet: when the packet
    /// reaches the receiver's access link, and its on-wire size.
    pub pkts: Vec<(u64, u16)>,
}

/// Simulation events.
#[derive(Clone, Debug)]
pub(crate) enum Event {
    /// Protocol tick at probe `i`.
    Tick(u32),
    /// Aggregate external demand arrival at probe `i`.
    Demand(u32),
    /// Signalling-only discovery contact by probe `i`.
    Halo(u32),
    /// A chunk request arrives at its provider.
    Serve {
        /// Who must upload.
        provider: PeerId,
        /// Who asked.
        to: PeerId,
        /// Which chunk.
        chunk: ChunkId,
        /// The probe provider already charged its inbound-request fate
        /// and capture and re-scheduled the serve past the request's
        /// downlink queueing delay; skip the receive preamble.
        deferred: bool,
    },
    /// A probe→probe chunk packet train reaches the receiver's access
    /// link (receiver-side half of the transfer).
    ChunkRx {
        /// Receiving probe.
        to: PeerId,
        /// Providing probe.
        from: PeerId,
        /// Which chunk.
        chunk: ChunkId,
        /// The packets, with provider-side fates already applied.
        train: Box<ChunkTrain>,
    },
    /// A signalling packet from another probe reaches the receiver's
    /// access link (receiver-side half of probe→probe signalling).
    SignalRx {
        /// Receiving probe.
        to: PeerId,
        /// Sending probe.
        from: PeerId,
        /// On-wire size, bytes.
        size: u16,
    },
    /// A chunk finished arriving at a probe.
    Delivered {
        /// Receiving probe.
        to: PeerId,
        /// Providing peer.
        from: PeerId,
        /// Which chunk.
        chunk: ChunkId,
        /// Observed delivery throughput (the requester's new estimate of
        /// the provider's upstream).
        est_bps: u64,
    },
    /// An external peer's session ends (churn): it crashes away,
    /// stranding whatever was pending on it.
    Depart(PeerId),
    /// A departed external rejoins the overlay (churn).
    Arrive(PeerId),
}

/// Deterministic playout lag of an external: 0.5–5 s behind the source.
/// Must sit well inside the probes' buffer window (≈7 s), otherwise
/// externals could never hold the chunks probes are still missing.
pub fn ext_lag_us(ip: Ip) -> u64 {
    500_000 + (hash::unit(ip.0 as u64 ^ 0x1A6) * 4_500_000.0) as u64
}

/// Deterministic application port of a peer.
pub fn app_port(ip: Ip) -> u16 {
    30_000 + (hash::mix64(ip.0 as u64) % 30_000) as u16
}

fn meta_of(reg: &GeoRegistry, ip: Ip, access: AccessLink, lag_us: u64) -> PeerMeta {
    PeerMeta {
        ep: reg.endpoint(ip),
        cc: reg.country_of(ip),
        up_bps: access.class.up_bps(),
        down_bps: access.class.down_bps(),
        nat: access.nat,
        fw: access.firewall,
        lag_us,
        port: app_port(ip),
    }
}

/// Builds the fully wired swarm (called by [`Swarm::new`]).
pub fn build<'a>(cfg: SwarmConfig, env: NetworkEnv<'a>, setup: PeerSetup) -> Swarm<'a> {
    let n_probes = setup.probes.len();
    let mut peers = Vec::with_capacity(1 + n_probes + setup.externals.len());
    let mut meta = Vec::with_capacity(peers.capacity());

    // Index 0: the source.
    peers.push(PeerInfo {
        id: PeerId(0),
        ip: setup.source.ip,
        access: setup.source.access,
        role: PeerRole::Source,
    });
    meta.push(meta_of(
        env.registry,
        setup.source.ip,
        setup.source.access,
        0,
    ));

    for (i, p) in setup.probes.iter().enumerate() {
        peers.push(PeerInfo {
            id: PeerId((1 + i) as u32),
            ip: p.ip,
            access: p.access,
            role: PeerRole::Probe,
        });
        meta.push(meta_of(env.registry, p.ip, p.access, 0));
    }
    for (i, e) in setup.externals.iter().enumerate() {
        let id = PeerId((1 + n_probes + i) as u32);
        peers.push(PeerInfo {
            id,
            ip: e.ip,
            access: e.access,
            role: PeerRole::External,
        });
        meta.push(meta_of(env.registry, e.ip, e.access, ext_lag_us(e.ip)));
    }

    // Discovery tables over externals only.
    let mut ext_ids = Vec::with_capacity(setup.externals.len());
    let mut cum_weights = Vec::with_capacity(setup.externals.len());
    let mut by_as: BTreeMap<AsId, Vec<PeerId>> = BTreeMap::new();
    let mut acc = 0.0f64;
    let bw_exp = cfg.profile.discovery_bw_exponent;
    for i in 0..setup.externals.len() {
        let id = PeerId((1 + n_probes + i) as u32);
        let m = &meta[id.0 as usize];
        let w = (m.up_bps as f64 / 1e6).max(0.05).powf(bw_exp);
        acc += w;
        ext_ids.push(id);
        cum_weights.push(acc);
        if let Some(asn) = m.ep.asn {
            by_as.entry(asn).or_default().push(id);
        }
    }

    let rng = DetRng::stream(cfg.seed, "swarm");

    // Per-probe upload popularity: Pareto spread normalised to mean ~1.
    let mut popularity: Vec<f64> = (0..n_probes)
        .map(|i| {
            let mut r = DetRng::substream(cfg.seed, "popularity", i as u64);
            if cfg.profile.popularity_spread <= 0.0 {
                1.0
            } else {
                r.pareto(0.5, 1.0 / cfg.profile.popularity_spread.max(0.05), 12.0)
            }
        })
        .collect();
    let mean_pop: f64 = popularity.iter().sum::<f64>() / n_probes.max(1) as f64;
    if mean_pop > 0.0 {
        popularity.iter_mut().for_each(|p| *p /= mean_pop);
    }

    let stream = cfg.stream;
    let chunk_bits = stream.chunk_bytes as f64 * 8.0;

    let mut probe_states = Vec::with_capacity(n_probes);
    let mut traces = Vec::with_capacity(n_probes);
    #[allow(clippy::needless_range_loop)] // i is also the probe index baked into ids/seeds
    for i in 0..n_probes {
        let m = &meta[1 + i];
        let prng = DetRng::substream(cfg.seed, "probe", i as u64);

        // External demand rate on this probe: capped by its uplink.
        let target_bps = cfg.profile.upload_target_factor * stream.rate_bps as f64 * popularity[i];
        let cap_bps = 0.7 * m.up_bps as f64;
        let mut demand_hz = target_bps.min(cap_bps) / chunk_bits;
        if m.fw {
            demand_hz *= 0.25;
        } else if m.nat {
            demand_hz *= 0.5;
        }

        let halo_jitter = 0.6 + 0.8 * hash::unit(cfg.seed ^ (i as u64) << 7 ^ 0x4A10);
        let stagger = ((i as u32) * 5) % 12;
        probe_states.push(ProbeState {
            link: LinkState {
                uplink: AccessSerializer::new(m.up_bps.max(1)),
                downlink: AccessSerializer::new(m.down_bps.max(1)),
                modem: (m.down_bps < 15_000_000).then(ModemState::default),
                last_rx_from: BTreeMap::new(),
                ext_up: BTreeMap::new(),
            },
            // The table is filled below, once every probe's fetch lag
            // exists.
            disc: DiscoveryState::new(cfg.profile.halo_contacts_per_sec * halo_jitter),
            sched: SchedulingState {
                bufmap: BufferMap::new(),
                fetch_lag_chunks: stagger,
                est_bps: BTreeMap::new(),
                last_provider: None,
                pending: Vec::new(),
                active_requesters: Vec::new(),
                demand_rate_hz: demand_hz,
                lost: 0,
                delivered: 0,
            },
            rec: RecoveryState {
                requeue: Vec::new(),
                attempts: BTreeMap::new(),
            },
            rng: prng,
        });
        traces.push(ProbeTrace::new(m.ep.ip));
    }

    // The profile *is* the behaviour composition: build the stack from
    // its built-ins, then install the discovery tables the sampler needs.
    let mut stack = cfg.profile.stack();
    stack.discovery.tables = DiscoveryTables {
        ext_ids,
        cum_weights,
        by_as,
    };

    let n_peers = peers.len();
    let mut core = SwarmCore {
        cfg,
        env,
        peers,
        meta,
        n_probes,
        probe_states,
        traces,
        sealed_us: None,
        rng,
        report: SwarmReport::default(),
        obs: netaware_obs::Obs::default(),
        m: super::SwarmMetrics::default(),
        links: Vec::new(),
        presence: super::presence::Presence::new(n_peers, n_probes),
        ext_reach: Vec::new(),
    };

    // Neighbor tables: the source, then every probe-pair edge that the
    // mesh probability grants; tracker-provided externals follow.
    for i in 0..n_probes {
        let mut neighbors = vec![core.neighbor(i, PeerId(0), u64::MAX)];
        for j in 0..n_probes {
            if i == j {
                continue;
            }
            // Symmetric coin per unordered pair.
            let (lo, hi) = if i < j { (i, j) } else { (j, i) };
            let coin = hash::unit(hash::mix2(core.cfg.seed ^ lo as u64, hi as u64));
            if coin < core.cfg.profile.probe_mesh_prob {
                neighbors.push(core.neighbor(i, PeerId((1 + j) as u32), u64::MAX));
            }
        }
        core.probe_states[i].disc.replace_neighbors(neighbors);
    }

    // Tracker bootstrap: hand each probe its initial external neighbors
    // through the discovery behaviour (no scheduler exists yet — the
    // handshake emits no events, so the scratch queue stays empty).
    let mut actions = super::behaviour::Actions::default();
    for i in 0..n_probes {
        let want = stack.discovery.init_neighbors;
        for _ in 0..want {
            let mut ctx = super::behaviour::Ctx {
                core: &mut core,
                actions: &mut actions,
                now: netaware_sim::SimTime::ZERO,
            };
            stack.discovery.try_discover(&mut ctx, i, 0);
        }
    }
    debug_assert!(actions.queue.is_empty());

    Swarm { core, stack }
}
