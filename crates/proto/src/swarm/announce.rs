//! Announce behaviour: periodic buffer-map exchange.
//!
//! Owns the gossip side of the mesh-pull protocol: each tick a probe
//! sends buffer-map announcements to random neighbors and receives them
//! from random *external* neighbors (probe neighbors announce on their
//! own tick). The RX side is the dominant signalling overhead the paper
//! measures — PPLive's announce traffic alone exceeds the stream rate.

use super::behaviour::{Behaviour, Ctx};
use super::state::Event;
use crate::message::Signal;
use crate::peer::{PeerId, PeerRole};
use crate::profiles::AppProfile;

/// The announce behaviour and its profile-derived parameters.
pub(crate) struct Announce {
    /// Buffer maps (sent, received) per tick.
    tx_n: u32,
    rx_n: u32,
    tick_us: u64,
}

impl Announce {
    pub(crate) fn from_profile(p: &AppProfile) -> Self {
        Announce {
            tx_n: p.announces_per_tick.0,
            rx_n: p.announces_per_tick.1,
            tick_us: p.tick_us,
        }
    }
}

impl Behaviour for Announce {
    fn name(&self) -> &'static str {
        "announce"
    }

    /// Buffer-map announcements: TX to random neighbors, RX from random
    /// external neighbors.
    fn on_tick(&mut self, ctx: &mut Ctx<'_, '_>, i: usize) {
        let now = ctx.now();
        let pid = PeerId((1 + i) as u32);
        let (tx_n, rx_n) = (self.tx_n, self.rx_n);
        let n_neigh = ctx.core.probe_states[i].disc.neighbors().len();
        if n_neigh == 0 {
            return;
        }
        // Gossip fan-out: how many neighbors this tick's announcements
        // could reach, and how many buffer maps actually go out.
        ctx.core.m.gossip_fanout.record(n_neigh);
        ctx.core.m.gossip_announcements.add(tx_n as u64);
        let tick = self.tick_us;
        for k in 0..tx_n {
            let core = &mut *ctx.core;
            let pick = core.probe_states[i].rng.range(0..n_neigh);
            let n = core.probe_states[i].disc.neighbors()[pick];
            let to = n.id;
            let at = now + (k as u64 * tick) / (tx_n.max(1) as u64 * 2);
            // Sender-side half here; a probe receiver charges its own
            // fate and RX capture when the packet reaches it.
            let arrival = core.signal_tx(at, pid, to, Signal::BufferMap);
            if let (Some(arrival), PeerRole::Probe) = (arrival, n.role) {
                ctx.schedule(
                    arrival,
                    Event::SignalRx {
                        to,
                        from: pid,
                        size: Signal::BufferMap.wire_size(),
                    },
                );
            }
        }
        let core = &mut *ctx.core;
        // RX: sample external neighbors only, from the table's external
        // view, whose entries carry their inbound TTL.
        for k in 0..rx_n {
            let s = &mut core.probe_states[i];
            let ext = s.disc.external_view(&core.cfg.profile.upload_policy);
            if ext.ids.is_empty() {
                return;
            }
            let pick = s.rng.range(0..ext.ids.len());
            let (from, ttl) = (ext.ids[pick], ext.ttls[pick]);
            let at = now + (k as u64 * tick) / (rx_n.max(1) as u64);
            // Incoming announces cross this probe's access link; a
            // faulty link silently eats some of them.
            if core
                .receive_signal_ttl(i, from, ttl, at, Signal::BufferMap.wire_size())
                .is_some()
            {
                core.report.signal_packets += 1;
            }
        }
    }
}
