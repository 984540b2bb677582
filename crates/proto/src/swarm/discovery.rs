//! Discovery behaviour: tracker contact, neighbor probing, halo contacts.
//!
//! Owns the neighbor-acquisition side of the protocol: the per-tick
//! neighbor-table top-up, the AS-/bandwidth-biased tracker sampling
//! (previously the `try_discover_neighbor` free function leaking out of
//! `handlers.rs`), and the signalling-only "halo" contacts that make
//! PPLive's contacted-peer population enormous. Its per-probe state
//! slice is [`DiscoveryState`](super::state::DiscoveryState): the
//! neighbor table and the halo contact rate.

use super::behaviour::{Behaviour, Ctx};
use super::state::DiscoveryTables;
use crate::message::Signal;
use crate::peer::PeerId;
use crate::profiles::AppProfile;
use netaware_faults::TrackerOutage;
use netaware_obs::Level;
use netaware_sim::SimTime;

/// The discovery behaviour and its profile-derived parameters.
pub(crate) struct Discovery {
    max_neighbors: usize,
    pub(crate) init_neighbors: usize,
    neighbor_lifetime_us: u64,
    per_tick: f64,
    as_boost: f64,
    bw_exponent: f64,
    peerlist_entries: u8,
    /// Alias buckets for discovery sampling: same-AS shortlists plus the
    /// global bandwidth-weighted candidate list (installed by `build`).
    pub(crate) tables: DiscoveryTables,
    /// Scheduled tracker outages (installed by `set_faults`): while one
    /// covers `now`, no new peers can be learned.
    pub(crate) outages: Vec<TrackerOutage>,
}

impl Discovery {
    pub(crate) fn from_profile(p: &AppProfile) -> Self {
        Discovery {
            max_neighbors: p.max_neighbors,
            init_neighbors: p.init_neighbors,
            neighbor_lifetime_us: p.neighbor_lifetime_us,
            per_tick: p.discovery_per_tick,
            as_boost: p.discovery_as_boost,
            bw_exponent: p.discovery_bw_exponent,
            peerlist_entries: p.peerlist_entries,
            tables: DiscoveryTables {
                ext_ids: Vec::new(),
                cum_weights: Vec::new(),
                by_as: std::collections::BTreeMap::new(),
            },
            outages: Vec::new(),
        }
    }

    /// Whether a configured tracker outage covers `now_us` (discovery
    /// is then impossible: departed neighbors cannot be replaced).
    fn tracker_down(&self, now_us: u64) -> bool {
        self.outages.iter().any(|w| w.covers(now_us))
    }

    /// Attempts to acquire one new external neighbor for probe `i`.
    /// Returns `true` on success. Also serves the dead-peer-replacement
    /// path: churn recovery emits a `Discover` action that the
    /// dispatcher routes here.
    pub(crate) fn try_discover(&mut self, ctx: &mut Ctx<'_, '_>, i: usize, now_us: u64) -> bool {
        let core = &mut *ctx.core;
        if core.probe_states[i].disc.neighbors().len() >= self.max_neighbors {
            return false;
        }
        // Scheduled tracker outage: the rendezvous point is unreachable,
        // so no new peers can be learned until the window closes.
        if self.tracker_down(now_us) {
            return false;
        }
        let pid = PeerId((1 + i) as u32);
        let my_asn = core.meta[pid.0 as usize].ep.asn;

        // AS-biased discovery: with probability derived from the boost and
        // the same-AS population share, draw from the same-AS shortlist.
        let candidate = {
            let total = self.tables.ext_ids.len().max(1);
            let same_as_n = my_asn
                .and_then(|a| self.tables.by_as.get(&a))
                .map_or(0, |v| v.len());
            let f = same_as_n as f64 / total as f64;
            let b = self.as_boost;
            let q = if same_as_n == 0 {
                0.0
            } else {
                (b * f) / (b * f + (1.0 - f)).max(1e-12)
            };
            let s = &mut core.probe_states[i];
            if q > 0.0 && s.rng.chance(q) {
                my_asn.and_then(|a| self.tables.sample_in_as(a, &mut s.rng))
            } else if self.bw_exponent > 0.0 {
                self.tables.sample_bw(&mut s.rng)
            } else {
                self.tables.sample_uniform(&mut s.rng)
            }
        };
        let Some(cand) = candidate else { return false };

        // Departed peers are not discoverable until they rejoin.
        if core.is_offline(cand) {
            return false;
        }
        // Already a neighbor?
        if core.probe_states[i]
            .disc
            .neighbors()
            .iter()
            .any(|n| n.id == cand)
        {
            return false;
        }
        // NAT traversal.
        {
            let nat = core.meta[cand.0 as usize].nat;
            let s = &mut core.probe_states[i];
            if nat && !s.rng.chance(0.7) {
                core.m.handshakes_refused.inc();
                netaware_obs::event!(
                    core.obs,
                    Level::Debug,
                    "swarm.discovery.handshake",
                    SimTime::from_us(now_us),
                    "probe" = i,
                    "peer" = cand.0,
                    "ok" = false,
                    "nat" = true,
                );
                return false;
            }
        }

        let lifetime = {
            let s = &mut core.probe_states[i];
            let mean = self.neighbor_lifetime_us as f64;
            (s.rng.exp(mean)).clamp(5e6, 20.0 * mean) as u64
        };

        // Handshake on the wire: either direction lost to a link fault
        // means no handshake and no neighbor entry.
        let now = SimTime::from_us(now_us);
        // `cand` is always external (sampled from the tracker tables),
        // so the sender-side half is the whole wire model.
        let Some(arrival) = core.signal_tx(now, pid, cand, Signal::Hello) else {
            return false;
        };
        let reply_at = arrival + core.delay_us(cand, pid);
        if core
            .receive_signal(i, cand, reply_at, Signal::Hello.wire_size())
            .is_none()
        {
            return false;
        }
        let entry = core.neighbor(i, cand, now_us.saturating_add(lifetime));
        core.probe_states[i].disc.push_neighbor(entry);
        core.presence.mark(cand, i);
        core.report.signal_packets += 1;
        core.m.handshakes_ok.inc();
        netaware_obs::event!(
            core.obs,
            Level::Debug,
            "swarm.discovery.handshake",
            now,
            "probe" = i,
            "peer" = cand.0,
            "ok" = true,
            "nat" = core.meta[cand.0 as usize].nat,
        );
        true
    }
}

impl Behaviour for Discovery {
    fn name(&self) -> &'static str {
        "discovery"
    }

    /// Neighbor churn: drop expired externals, top up via discovery.
    fn on_tick(&mut self, ctx: &mut Ctx<'_, '_>, i: usize) {
        let now_us = ctx.now().as_us();
        ctx.core.probe_states[i].disc.expire(now_us);
        let want = {
            let f = self.per_tick;
            let whole = f.floor() as usize;
            let frac = f - whole as f64;
            whole + usize::from(ctx.core.probe_states[i].rng.chance(frac))
        };
        for _ in 0..want {
            self.try_discover(ctx, i, now_us);
        }
    }

    /// Signalling-only discovery contact (the PPLive "halo").
    fn on_halo(&mut self, ctx: &mut Ctx<'_, '_>, i: usize) {
        let now = ctx.now();
        let pid = PeerId((1 + i) as u32);
        let rate = ctx.core.probe_states[i].disc.halo_rate_hz;
        if rate > 0.0 {
            let dt = ctx.core.probe_states[i].rng.exp(1.0 / rate);
            let dt_us = (dt * 1e6).clamp(1_000.0, 600_000_000.0) as u64;
            ctx.schedule(now + dt_us, super::state::Event::Halo(i as u32));
        }

        let core = &mut *ctx.core;
        let Some(target) = self.tables.sample_uniform(&mut core.probe_states[i].rng) else {
            return;
        };
        let entries = self.peerlist_entries;
        // `target` is always external (uniform tracker sample).
        let Some(arrival) = core.signal_tx(now, pid, target, Signal::Hello) else {
            return; // hello lost on the wire
        };
        // Departed peers are silent; NATted externals answer only if
        // the hole punch works.
        let replies = {
            let m = &core.meta[target.0 as usize];
            let nat = m.nat;
            let online = !core.is_offline(target);
            let s = &mut core.probe_states[i];
            online && (!nat || s.rng.chance(0.6))
        };
        if replies {
            // The reply crosses this probe's access link on the way in.
            let back = arrival + core.delay_us(target, pid);
            let size = Signal::PeerListReply(entries).wire_size();
            if core.receive_signal(i, target, back, size).is_some() {
                core.report.signal_packets += 1;
            }
        }
    }
}
