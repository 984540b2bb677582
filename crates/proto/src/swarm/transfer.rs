//! Chunk packetisation and packet-record emission.
//!
//! Everything that turns "peer X sends chunk c to peer Y" into timed,
//! TTL-stamped packet records in the probes' traces lives here. Packet
//! trains serialise on the sender's uplink (plus occasional background
//! cross-traffic for externals), propagate with the path's one-way delay,
//! and drain through the receiver's downlink — so the inter-packet gaps
//! a probe records genuinely encode the path bottleneck, which is the
//! signal the analysis' BW classifier extracts.
//!
//! Every packet that reaches a probe goes through one of two receive
//! routines: [`SwarmCore::receive_signal`] for a signalling packet and
//! [`SwarmCore::receive_chunk_train`] for the packets of a chunk. They
//! apply the probe link's fate, the downlink pacing (video only), the
//! path TTL and the capture, which is where the paper's BW (minimum
//! inter-packet gap) and HOP (128 − TTL) readings come from. The link
//! fate, the TTL derivation and the capture are private to this module;
//! a caller holding a neighbor entry passes its cached TTL to
//! [`SwarmCore::receive_signal_ttl`], the one body of both signalling
//! forms.

use super::behaviour::{Actions, BehaviourAction};
use super::state::{ChunkTrain, Event};
use super::SwarmCore;
use crate::chunk::ChunkId;
use crate::message::Signal;
use crate::peer::PeerId;
use netaware_net::{ttl_at_receiver, DEFAULT_TTL};
use netaware_sim::{AccessSerializer, PacketFate, SimTime};
use netaware_trace::{PacketRecord, PayloadKind, Round};
use std::collections::btree_map::Entry;

/// ADSL interleave window: packets draining within the same window reach
/// the host NIC as one burst.
const MODEM_BUCKET_US: u64 = 10_000;
/// Spacing of packets within a modem burst (host-side Ethernet speed).
const MODEM_BURST_GAP_US: u64 = 100;
/// Uplink backlog beyond which an external refuses to serve (upload
/// queue bound of real clients).
const EXT_BACKLOG_CAP_US: u64 = 2_000_000;

impl SwarmCore<'_> {
    /// Fate of one packet crossing probe `idx`'s access link at `at_us`.
    /// Without link faults every packet passes undelayed, and no RNG is
    /// consulted.
    fn link_fate(&mut self, idx: usize, at_us: u64) -> PacketFate {
        if self.links.is_empty() {
            return PacketFate::Pass { extra_delay_us: 0 };
        }
        let fate = self.links[idx].packet_fate(at_us);
        if fate.is_dropped() {
            self.report.packets_dropped += 1;
        }
        fate
    }

    /// Delivers a packet through a probe's downlink.
    ///
    /// The downlink paces each *flow* at its bottleneck: a packet from
    /// `from` arrives no earlier than one downlink transmission time
    /// after the previous packet of the same flow. Flows are not
    /// serialised against each other — deliveries from different
    /// providers arrive at independent (possibly far-future, if the
    /// provider is backlogged) times, and coupling them through one FIFO
    /// clock would let one slow provider's late burst fictitiously
    /// compress everyone else's inter-packet gaps.
    ///
    /// On low-bandwidth accesses the modem burst-coalescing model (ADSL
    /// interleaving) applies on top: packets draining within one
    /// interleave window reach the capture point back-to-back.
    pub(super) fn deliver_to_probe(
        &mut self,
        probe_idx: usize,
        from: PeerId,
        reach: SimTime,
        size: u32,
    ) -> SimTime {
        let s = &mut self.probe_states[probe_idx];
        let tx = s.link.downlink.tx_time_us(size);
        let drain = match s.link.last_rx_from.entry(from) {
            Entry::Occupied(mut last) => {
                let drain = reach.max(*last.get() + tx);
                last.insert(drain);
                drain
            }
            Entry::Vacant(slot) => {
                self.presence.mark(from, probe_idx);
                *slot.insert(reach)
            }
        };
        let Some(m) = &mut s.link.modem else {
            return drain;
        };
        let bucket = drain.as_us().div_ceil(MODEM_BUCKET_US);
        if m.bucket == bucket {
            m.count += 1;
        } else {
            m.bucket = bucket;
            m.count = 0;
        }
        SimTime::from_us(bucket * MODEM_BUCKET_US + m.count as u64 * MODEM_BURST_GAP_US)
    }

    /// One-way delay between two peers, µs.
    pub(crate) fn delay_us(&self, from: PeerId, to: PeerId) -> u64 {
        let a = self.meta[from.0 as usize].ep;
        let b = self.meta[to.0 as usize].ep;
        self.env.latency.one_way_us_between(a, b)
    }

    /// TTL a packet from `from` carries when it reaches `to`.
    fn ttl_to(&self, from: PeerId, to: PeerId) -> u8 {
        let a = self.meta[from.0 as usize].ep;
        let b = self.meta[to.0 as usize].ep;
        ttl_at_receiver(self.env.paths.hops_between(a, b))
    }

    /// TTL a packet from `from` carries when it reaches probe `i`, as
    /// `SwarmCore::neighbor` caches it in `from`'s entry.
    pub(super) fn inbound_ttl(&self, i: usize, from: PeerId) -> u8 {
        self.ttl_to(from, PeerId((1 + i) as u32))
    }

    /// Records a packet in probe `probe_idx`'s trace.
    #[allow(clippy::too_many_arguments)]
    fn capture(
        &mut self,
        probe_idx: usize,
        ts: SimTime,
        src: PeerId,
        dst: PeerId,
        size: u16,
        ttl: u8,
        kind: PayloadKind,
    ) {
        debug_assert!(
            self.sealed_us.is_none_or(|sealed| ts.as_us() > sealed),
            "probe {probe_idx} captured a record at {ts:?}, in a window sealed through {:?} µs",
            self.sealed_us
        );
        let sm = &self.meta[src.0 as usize];
        let dm = &self.meta[dst.0 as usize];
        self.traces[probe_idx].push(PacketRecord {
            ts_us: ts.as_us(),
            src: sm.ep.ip,
            dst: dm.ep.ip,
            sport: sm.port,
            dport: dm.port,
            size,
            ttl,
            kind,
        });
    }

    /// Moves each probe's records at or before `through_us` into
    /// `round`, in probe order (an empty segment for a probe with none)
    /// and in push order; `Round::sink_into` sorts them and hands them
    /// to the sink, on whichever thread runs it. The caller must have
    /// dispatched every event up to `through_us`; from here on a capture
    /// at or before it trips the assertion in `capture`.
    pub(crate) fn seal(&mut self, through_us: u64, round: &mut Round) {
        round.take_through(&mut self.traces, through_us);
        self.sealed_us = Some(through_us);
    }

    /// Sender-side half of a signalling packet `from → to`: TX capture
    /// (when the sender is a probe), the sender's link fate, and the
    /// propagation delay. Returns when the packet reaches the
    /// *receiver's access link*, or `None` when the sender's link ate it
    /// (the TX capture still materialises — tcpdump sits before the
    /// access link). A probe receiver applies its half through
    /// [`SwarmCore::receive_signal`] when the packet reaches it (via
    /// [`Event::SignalRx`], or the `Serve` preamble for chunk requests);
    /// externals have no modelled receive side.
    pub(crate) fn signal_tx(
        &mut self,
        now: SimTime,
        from: PeerId,
        to: PeerId,
        sig: Signal,
    ) -> Option<SimTime> {
        let size = sig.wire_size();
        let sender_pi = self.probe_index(from);
        if let Some(pi) = sender_pi {
            // Captured leaving the sender: TTL still at its initial value.
            self.capture(pi, now, from, to, size, DEFAULT_TTL, PayloadKind::Signaling);
        }
        self.report.signal_packets += 1;
        let mut extra = 0u64;
        if let Some(pi) = sender_pi {
            match self.link_fate(pi, now.as_us()) {
                PacketFate::Dropped => return None,
                PacketFate::Pass { extra_delay_us } => extra = extra_delay_us,
            }
        }
        Some(now + self.delay_us(from, to) + extra)
    }

    /// Receiving end of a signalling packet from `from` that reaches
    /// probe `i`'s access link at `at`: applies the link's fate and, if
    /// the packet passes, captures it at `at` plus the fault delay with
    /// the path's TTL. Returns the capture time, or `None` when the link
    /// dropped the packet. Callers keep their own `signal_packets`
    /// accounting.
    pub(crate) fn receive_signal(
        &mut self,
        i: usize,
        from: PeerId,
        at: SimTime,
        size: u16,
    ) -> Option<SimTime> {
        self.receive_signal_ttl(i, from, self.inbound_ttl(i, from), at, size)
    }

    /// [`SwarmCore::receive_signal`] for a caller that holds the path's
    /// TTL already, `ttl`: the sender's neighbor entry caches it
    /// (`Neighbor::ttl`). Debug builds check it against the path.
    pub(crate) fn receive_signal_ttl(
        &mut self,
        i: usize,
        from: PeerId,
        ttl: u8,
        at: SimTime,
        size: u16,
    ) -> Option<SimTime> {
        let to = PeerId((1 + i) as u32);
        debug_assert_eq!(
            ttl,
            self.ttl_to(from, to),
            "probe {i}: stale TTL for packets from {}",
            from.0
        );
        let PacketFate::Pass { extra_delay_us } = self.link_fate(i, at.as_us()) else {
            return None;
        };
        let at = at + extra_delay_us;
        self.capture(i, at, from, to, size, ttl, PayloadKind::Signaling);
        Some(at)
    }

    /// Provider-side half of a probe-served chunk: packetises through
    /// the provider's uplink, captures TX records, applies the
    /// provider's link fates, and (when the requester is a probe)
    /// schedules the surviving packet train as an [`Event::ChunkRx`] on
    /// the requester, whose handler receives it through
    /// [`SwarmCore::receive_chunk_train`].
    pub(crate) fn probe_serve_chunk(
        &mut self,
        actions: &mut Actions,
        now: SimTime,
        provider: PeerId,
        to: PeerId,
        chunk: ChunkId,
    ) {
        let stream = self.cfg.stream;
        let n_pkts = stream.packets_per_chunk();
        let lat = self.delay_us(provider, to);
        #[expect(
            clippy::expect_used,
            reason = "dispatch routes probe providers here only"
        )]
        let prov_idx = self
            .probe_index(provider)
            .expect("probe_serve_chunk needs a probe provider");
        let to_probe = self.is_probe(to);

        let mut train = ChunkTrain {
            complete: true,
            pkts: Vec::with_capacity(n_pkts as usize),
        };
        for i in 0..n_pkts {
            let size = stream.packet_size(i) as u16;
            let dep = self.probe_states[prov_idx]
                .link
                .uplink
                .enqueue(now, size as u32);
            self.capture(
                prov_idx,
                dep,
                provider,
                to,
                size,
                DEFAULT_TTL,
                PayloadKind::Video,
            );
            // The packet crosses the provider's access link at `dep`; a
            // drop there means the chunk can never complete — the
            // requester's timeout + backoff re-request is the recovery
            // path. Surviving packets reach the requester's access link
            // one path delay later.
            match self.link_fate(prov_idx, dep.as_us()) {
                PacketFate::Dropped => train.complete = false,
                PacketFate::Pass { extra_delay_us } => {
                    train
                        .pkts
                        .push(((dep + lat + extra_delay_us).as_us(), size));
                }
            }
        }
        self.report.chunks_served_by_probes += 1;
        self.report.video_bytes_tx += stream.chunk_bytes as u64;

        if to_probe {
            if let Some(at_us) = train.pkts.iter().map(|p| p.0).min() {
                actions.queue.push_back(BehaviourAction::Schedule {
                    at: SimTime::from_us(at_us),
                    ev: Event::ChunkRx {
                        to,
                        from: provider,
                        chunk,
                        train: Box::new(train),
                    },
                });
            }
        }
    }

    /// Receiving end of a chunk's packets at probe `i`: each packet
    /// `(reach_us, wire_bytes)` that reaches the access link crosses the
    /// link's fate, drains through the downlink (per-flow pacing, modem
    /// coalescing) and is captured. When the train left its sender
    /// `complete` and every packet survived, the span from the first to
    /// the last arrival gives the bandwidth estimate the requester
    /// learns, and an [`Event::Delivered`] is scheduled at the last
    /// arrival. An incomplete chunk schedules nothing: the requester's
    /// pending entry rides out its (backed-off) timeout and the chunk is
    /// re-requested.
    pub(crate) fn receive_chunk_train(
        &mut self,
        actions: &mut Actions,
        i: usize,
        from: PeerId,
        chunk: ChunkId,
        complete: bool,
        pkts: &[(u64, u16)],
    ) {
        let to = PeerId((1 + i) as u32);
        let ttl = self.ttl_to(from, to);
        let mut first_arrival = None;
        let mut last_arrival = SimTime::ZERO;
        let mut chunk_ok = complete;
        for &(reach_us, size) in pkts {
            let PacketFate::Pass { extra_delay_us } = self.link_fate(i, reach_us) else {
                chunk_ok = false;
                continue;
            };
            let reach = SimTime::from_us(reach_us) + extra_delay_us;
            let a = self.deliver_to_probe(i, from, reach, size as u32);
            self.capture(i, a, from, to, size, ttl, PayloadKind::Video);
            first_arrival.get_or_insert(a);
            last_arrival = a;
        }
        if !chunk_ok {
            return;
        }
        let span = last_arrival
            .since(first_arrival.unwrap_or(last_arrival))
            .max(1);
        let est_bps = (self.cfg.stream.chunk_bytes as u64 * 8).saturating_mul(1_000_000) / span;
        actions.queue.push_back(BehaviourAction::Schedule {
            at: last_arrival,
            ev: Event::Delivered {
                to,
                from,
                chunk,
                est_bps,
            },
        });
    }

    /// Serves one chunk from an external provider to a probe requester:
    /// packetises through the requester's copy of the provider's uplink,
    /// then receives the packets through
    /// [`SwarmCore::receive_chunk_train`].
    pub(crate) fn external_serve_chunk(
        &mut self,
        actions: &mut Actions,
        now: SimTime,
        provider: PeerId,
        to: PeerId,
        chunk: ChunkId,
    ) {
        let stream = self.cfg.stream;
        let n_pkts = stream.packets_per_chunk();
        let lat = self.delay_us(provider, to);
        #[expect(clippy::expect_used, reason = "only probes issue chunk requests")]
        let to_idx = self
            .probe_index(to)
            .expect("external_serve_chunk requester must be a probe");

        // Real clients bound their upload queue: an external whose
        // uplink is already seconds behind refuses further requests (the
        // requester's timeout re-routes the chunk). This also keeps
        // departure times physically near the present. The serializer is
        // per-(probe, external): each probe sees its own copy of the
        // external's uplink, so the path stays a pure function of one
        // probe's state (see `LinkState::ext_up`).
        // A fresh serializer has no backlog, so creating it here never
        // races the refusal. The train runs on a local copy, written
        // back below.
        let up_bps = self.meta[provider.0 as usize].up_bps.max(1);
        self.presence.mark(provider, to_idx);
        let mut up = {
            let up = self.probe_states[to_idx]
                .link
                .ext_up
                .entry(provider)
                .or_insert_with(|| AccessSerializer::new(up_bps));
            if up.backlog_us(now) > EXT_BACKLOG_CAP_US {
                self.report.chunks_refused += 1;
                return;
            }
            up.clone()
        };

        // Background cross-traffic: the external also uploads to peers
        // we cannot see. A short burst ahead of ours delays the train
        // start; occasional interleaved packets stretch some gaps
        // (min-IPG still finds clean back-to-back pairs). The pattern's
        // draws come from the probe's stream, in packet order, while the
        // receive routine's link fates draw from the link's own stream,
        // so computing every arrival before any fate keeps both orders.
        let bg_before = self.probe_states[to_idx].rng.range(0..3u32);
        for _ in 0..bg_before {
            up.enqueue(now, stream.packet_bytes);
        }
        let mut reach = std::mem::take(&mut self.ext_reach);
        reach.clear();
        for i in 0..n_pkts {
            if self.probe_states[to_idx].rng.chance(0.08) {
                up.enqueue(now, stream.packet_bytes); // interleaved bg
            }
            let size = stream.packet_size(i);
            reach.push(((up.enqueue(now, size) + lat).as_us(), size as u16));
        }
        self.probe_states[to_idx].link.ext_up.insert(provider, up);
        self.report.chunks_served_by_externals += 1;
        // Only the probe's own access link is fault-modelled: the
        // external's link sits outside the observable path, so its
        // impairments are indistinguishable from capacity noise.
        self.receive_chunk_train(actions, to_idx, provider, chunk, true, &reach);
        self.ext_reach = reach;
    }

    /// Serves one chunk from probe `prov_idx` to an external requester
    /// (demand path): only TX records materialise.
    pub(crate) fn probe_serve_external(
        &mut self,
        now: SimTime,
        provider: PeerId,
        to: PeerId,
    ) -> bool {
        #[expect(
            clippy::expect_used,
            reason = "the halo path picks probe providers only"
        )]
        let prov_idx = self.probe_index(provider).expect("provider must be probe");
        // Refuse when the uplink backlog is past the cap — the real
        // clients stop accepting requests when saturated.
        if self.probe_states[prov_idx].link.uplink.backlog_us(now)
            > self.cfg.profile.upload_backlog_cap_us
        {
            self.report.chunks_refused += 1;
            return false;
        }
        let Some(chunk) = ({
            let s = &mut self.probe_states[prov_idx];
            let pick = s.rng.next_u64() as u32;
            sample_held(&s.sched.bufmap, pick)
        }) else {
            self.report.chunks_refused += 1;
            return false;
        };
        let _ = chunk;
        let stream = self.cfg.stream;
        for i in 0..stream.packets_per_chunk() {
            let size = stream.packet_size(i) as u16;
            let dep = self.probe_states[prov_idx]
                .link
                .uplink
                .enqueue(now, size as u32);
            self.capture(
                prov_idx,
                dep,
                provider,
                to,
                size,
                DEFAULT_TTL,
                PayloadKind::Video,
            );
        }
        self.report.chunks_served_by_probes += 1;
        self.report.video_bytes_tx += stream.chunk_bytes as u64;
        true
    }
}

/// Picks a uniformly random held chunk from a buffer map.
pub(crate) fn sample_held(map: &crate::chunk::BufferMap, pick: u32) -> Option<ChunkId> {
    let held = map.held();
    if held == 0 {
        return None;
    }
    let target = pick % held;
    let mut seen = 0;
    for off in 0..crate::chunk::BUFFER_WINDOW {
        let c = ChunkId(map.base().0 + off);
        if map.contains(c) {
            if seen == target {
                return Some(c);
            }
            seen += 1;
        }
    }
    None
}
