//! Scheduling behaviour: chunk request/serve/deliver with
//! policy-weighted provider selection.
//!
//! Owns the data-plane decisions: playout bookkeeping (chunk expiry at
//! the playout deadline), which missing chunks to request from whom
//! (the [`SelectionPolicy`]-weighted draft that encodes each
//! application's network awareness), serving incoming requests, and
//! the upload side's demand process. Its per-probe state slice is
//! [`SchedulingState`](super::state::SchedulingState).

use super::behaviour::{Behaviour, Ctx};
use super::state::{Event, Pending};
use crate::chunk::ChunkId;
use crate::message::Signal;
use crate::peer::{PeerId, PeerRole};
use crate::profiles::AppProfile;
use netaware_obs::Level;

/// Real clients rarely pull from the source itself once the swarm is
/// warm; this factor keeps the source as a fallback, not a favourite.
const SOURCE_WEIGHT_FACTOR: f64 = 0.05;
/// Upload stickiness pool size.
const ACTIVE_REQUESTER_CAP: usize = 48;

/// The scheduling behaviour and its profile-derived parameters.
pub(crate) struct Scheduling {
    exploration: f64,
    max_parallel_requests: usize,
    request_timeout_us: u64,
    buffer_delay_chunks: u32,
    demand_stickiness: f64,
    upload_backlog_cap_us: u64,
    scratch: Scratch,
}

/// Scratch lists of the request draft and the tick's request list.
/// Each use clears them first; they live here only so their capacity
/// survives across events.
#[derive(Default)]
struct Scratch {
    /// Candidate peers, aligned with `weights`.
    ids: Vec<PeerId>,
    /// Selection weight per candidate.
    weights: Vec<f64>,
    /// Candidate externals never exchanged with (exploration pool).
    untried: Vec<PeerId>,
    /// Chunks one tick requests, in request order.
    missing: Vec<ChunkId>,
}

impl Scheduling {
    pub(crate) fn from_profile(p: &AppProfile) -> Self {
        Scheduling {
            exploration: p.exploration,
            max_parallel_requests: p.max_parallel_requests,
            request_timeout_us: p.request_timeout_us,
            buffer_delay_chunks: p.buffer_delay_chunks,
            demand_stickiness: p.demand_stickiness,
            upload_backlog_cap_us: p.upload_backlog_cap_us,
            scratch: Scratch::default(),
        }
    }

    /// Selects a provider for `chunk` and fires the request.
    fn request_chunk(&mut self, ctx: &mut Ctx<'_, '_>, i: usize, pid: PeerId, chunk: ChunkId) {
        let now = ctx.now();
        let now_us = now.as_us();
        let core = &mut *ctx.core;

        // Gather candidates that plausibly hold the chunk, each weighed by
        // the download policy.
        let download = &core.cfg.profile.download_policy;
        let Scratch {
            ids,
            weights,
            untried,
            ..
        } = &mut self.scratch;
        ids.clear();
        weights.clear();
        untried.clear();
        {
            let s = &core.probe_states[i];
            let chunk_ready_us = core.cfg.stream.chunk_time_us(chunk);
            for n in s.disc.neighbors() {
                // Departed externals are scrubbed from neighbor tables
                // eagerly, but a same-tick departure can race the scan.
                if core.is_offline(n.id) || !n.plausibly_holds(chunk_ready_us, now_us) {
                    continue;
                }
                // The entry carries its estimate's bandwidth term.
                if cfg!(debug_assertions) {
                    let est = s.sched.est_bps.get(&n.id).copied();
                    debug_assert!(
                        n.bw_term.to_bits() == download.bw_term(est).to_bits()
                            && n.measured == est.is_some(),
                        "probe {i}: entry of {} not re-priced at its last estimate",
                        n.id.0
                    );
                }
                let cand = n.candidate(s.sched.last_provider == Some(n.id));
                let mut w = download.with_factors(n.bw_term, &cand);
                if n.role == PeerRole::Source {
                    w *= SOURCE_WEIGHT_FACTOR;
                }
                ids.push(n.id);
                weights.push(w);
                if !n.measured && n.role == PeerRole::External {
                    untried.push(n.id);
                }
            }
        }
        if ids.is_empty() {
            // Nobody reachable has it. The chunk stays missing, so the
            // next tick's scan retries it — and if it got here via the
            // requeue path (sole provider departed), churn recovery
            // already pulled it out of `pending`, so the scan *will* see
            // it rather than treating it as still in flight.
            return;
        }

        let s = &mut core.probe_states[i];
        let provider = if !untried.is_empty() && s.rng.chance(self.exploration) {
            untried[s.rng.range(0..untried.len())]
        } else {
            match s.rng.pick_weighted(weights) {
                Some(k) => ids[k],
                None => ids[s.rng.range(0..ids.len())],
            }
        };

        // Retransmit timer with exponential backoff: each repeat attempt
        // for the same chunk doubles the timeout (capped at 8×), so a
        // lossy path is given progressively longer to complete a train
        // instead of being hammered at the base RTO.
        let attempt = {
            let a = s.rec.attempts.entry(chunk).or_insert(0);
            let prev = *a;
            *a = a.saturating_add(1);
            prev
        };
        let timeout_us = self.request_timeout_us << attempt.min(3);
        s.sched.pending.push(Pending {
            chunk,
            provider,
            deadline_us: now_us + timeout_us,
        });
        core.presence.mark(provider, i);
        core.m.chunks_requested.inc();
        netaware_obs::event!(
            core.obs,
            Level::Debug,
            "swarm.scheduling.chunk_sched",
            now,
            "probe" = i,
            "chunk" = chunk.0,
            "provider" = provider.0,
            "candidates" = ids.len(),
        );
        // A lost request packet simply never reaches the provider: the
        // pending entry rides out its timeout and the chunk is retried.
        // Only the *sender's* half runs here; a probe provider charges
        // its own inbound fate and capture in the `Serve` preamble,
        // external providers have no modelled inbound link.
        if let Some(arrival) = core.signal_tx(now, pid, provider, Signal::ChunkRequest(chunk)) {
            ctx.schedule(
                arrival,
                Event::Serve {
                    provider,
                    to: pid,
                    chunk,
                    deferred: false,
                },
            );
        }
    }
}

impl Behaviour for Scheduling {
    fn name(&self) -> &'static str {
        "scheduling"
    }

    /// Playout bookkeeping and chunk requests.
    fn on_tick(&mut self, ctx: &mut Ctx<'_, '_>, i: usize) {
        let now = ctx.now();
        let now_us = now.as_us();
        let pid = PeerId((1 + i) as u32);
        // Before the stream's first chunk exists there is nothing to
        // schedule (the dispatcher keeps the tick clock running).
        let Some(head) = ctx.core.cfg.stream.head_at(now_us) else {
            return;
        };
        // This probe's fetch frontier sits `2 + fetch_lag` chunks behind
        // the source head (brand-new chunks exist only at the source;
        // staggered lags put probes at different playout positions), and
        // its buffer window extends `buffer_delay` chunks further back.
        let fetch_lag = ctx.core.probe_states[i].sched.fetch_lag_chunks;
        let frontier = ChunkId(head.0.saturating_sub(2 + fetch_lag));
        let playhead = ChunkId(frontier.0.saturating_sub(self.buffer_delay_chunks));

        {
            let core = &mut *ctx.core;
            let s = &mut core.probe_states[i];
            // Chunks that fell behind the playout deadline are lost.
            if playhead.0 > s.sched.bufmap.base().0 {
                let lost = s
                    .sched
                    .bufmap
                    .missing_in(s.sched.bufmap.base(), ChunkId(playhead.0 - 1))
                    .count() as u64;
                s.sched.lost += lost;
                s.sched.bufmap.advance_base(playhead);
                // Chunks behind the playhead can never be requested
                // again: drop their retry-backoff bookkeeping.
                s.rec.attempts.retain(|c, _| *c >= playhead);
                if lost > 0 {
                    core.m.chunks_expired.add(lost);
                    netaware_obs::event!(
                        core.obs,
                        Level::Debug,
                        "swarm.scheduling.chunk_expired",
                        now,
                        "probe" = i,
                        "lost" = lost,
                    );
                }
            }
        }

        // Issue requests for missing chunks, oldest-deadline-first.
        // Re-queued chunks (provider departed mid-request) go first:
        // they were already scheduled once, so their playout deadline is
        // nearest.
        let target = ChunkId(frontier.0.max(playhead.0));
        let budget = self
            .max_parallel_requests
            .saturating_sub(ctx.core.probe_states[i].sched.pending.len());
        if budget > 0 {
            // The list leaves the scratch while `request_chunk` borrows
            // the behaviour, and returns with its capacity.
            let mut missing = std::mem::take(&mut self.scratch.missing);
            missing.clear();
            {
                let s = &mut ctx.core.probe_states[i];
                let in_flight = |c: ChunkId| s.sched.pending.iter().any(|p| p.chunk == c);
                for c in s.rec.requeue.drain(..) {
                    if c.0 >= playhead.0
                        && !s.sched.bufmap.contains(c)
                        && !in_flight(c)
                        && !missing.contains(&c)
                    {
                        missing.push(c);
                    }
                }
                for c in s.sched.bufmap.missing_in(playhead, target) {
                    if !in_flight(c) && !missing.contains(&c) {
                        missing.push(c);
                    }
                }
                missing.truncate(budget);
            }
            for &chunk in &missing {
                self.request_chunk(ctx, i, pid, chunk);
            }
            self.scratch.missing = missing;
        }
    }

    /// A chunk request reached its provider: serve or refuse.
    fn on_serve(&mut self, ctx: &mut Ctx<'_, '_>, provider: PeerId, to: PeerId, chunk: ChunkId) {
        let now = ctx.now();
        let Ctx { core, actions, .. } = ctx;
        let core = &mut **core;
        // Mid-transfer crash: the provider departed after the request
        // was sent but before it arrived. Nothing is served; the
        // requester recovers via the re-queue (if the departure was
        // seen) or its request timeout.
        if core.is_offline(provider) {
            core.report.chunks_refused += 1;
            return;
        }
        match core.peers[provider.0 as usize].role {
            PeerRole::Probe => {
                let pi = provider.0 as usize - 1;
                let has = core.probe_states[pi].sched.bufmap.contains(chunk);
                let backlog_ok =
                    core.probe_states[pi].link.uplink.backlog_us(now) <= self.upload_backlog_cap_us;
                if has && backlog_ok {
                    core.probe_serve_chunk(actions, now, provider, to, chunk);
                } else {
                    core.report.chunks_refused += 1;
                    netaware_obs::event!(
                        core.obs,
                        Level::Debug,
                        "swarm.scheduling.serve_refused",
                        now,
                        "provider" = provider.0,
                        "chunk" = chunk.0,
                        "has" = has,
                    );
                }
            }
            PeerRole::Source | PeerRole::External => {
                // The source always has the chunk; externals were
                // availability-checked at request time (their lag only
                // shrinks relative to a fixed chunk).
                core.external_serve_chunk(actions, now, provider, to, chunk);
            }
        }
    }

    /// Download-side bookkeeping of a completed delivery (the recovery
    /// behaviour clears its own retry/requeue slice first).
    fn on_delivered(
        &mut self,
        ctx: &mut Ctx<'_, '_>,
        to: PeerId,
        from: PeerId,
        chunk: ChunkId,
        est: u64,
    ) {
        let core = &mut *ctx.core;
        let Some(ti) = core.probe_index(to) else {
            return;
        };
        let download = &core.cfg.profile.download_policy;
        let s = &mut core.probe_states[ti];
        s.sched.pending.retain(|p| p.chunk != chunk);
        if !s.sched.bufmap.contains(chunk) && chunk.0 >= s.sched.bufmap.base().0 {
            s.sched.bufmap.insert(chunk);
            s.sched.delivered += 1;
        } else {
            // Duplicate or stale delivery (already held, or behind the
            // playout base): the bytes were wasted.
            core.m.chunks_duplicate.inc();
        }
        s.set_estimate(download, from, est);
        s.sched.last_provider = Some(from);
        core.presence.mark(from, ti);
    }

    /// Aggregate external demand on probe `i`: one chunk request arrives.
    fn on_demand(&mut self, ctx: &mut Ctx<'_, '_>, i: usize) {
        let now = ctx.now();
        let pid = PeerId((1 + i) as u32);

        // Schedule the next arrival first (Poisson process).
        let rate = ctx.core.probe_states[i].sched.demand_rate_hz;
        if rate > 0.0 {
            let dt = ctx.core.probe_states[i].rng.exp(1.0 / rate);
            let dt_us = (dt * 1e6).clamp(1_000.0, 120_000_000.0) as u64;
            ctx.schedule(now + dt_us, Event::Demand(i as u32));
        }

        let core = &mut *ctx.core;
        // Pick the requester.
        let requester = {
            let sticky = {
                let s = &mut core.probe_states[i];
                !s.sched.active_requesters.is_empty() && s.rng.chance(self.demand_stickiness)
            };
            if sticky {
                let s = &mut core.probe_states[i];
                let k = s.rng.range(0..s.sched.active_requesters.len());
                Some(s.sched.active_requesters[k])
            } else {
                // Weighted draft among external neighbors by the upload
                // policy's locality terms, which the table's external
                // view holds with their sum.
                let s = &mut core.probe_states[i];
                let view = s.disc.external_view(&core.cfg.profile.upload_policy);
                if view.ids.is_empty() {
                    None
                } else {
                    let pick = s
                        .rng
                        .pick_weighted_with_total(&view.weights, view.total)
                        .unwrap_or_else(|| s.rng.range(0..view.ids.len()));
                    let r = view.ids[pick];
                    if !s.sched.active_requesters.contains(&r) {
                        if s.sched.active_requesters.len() >= ACTIVE_REQUESTER_CAP {
                            let evict = s.rng.range(0..s.sched.active_requesters.len());
                            s.sched.active_requesters.swap_remove(evict);
                        }
                        s.sched.active_requesters.push(r);
                        core.presence.mark(r, i);
                    }
                    Some(r)
                }
            }
        };
        let Some(requester) = requester else { return };

        // The request packet arrives at the probe now — unless the
        // probe's access link eats it (the external retries on its own
        // schedule, which the Poisson demand process already models).
        let size = Signal::ChunkRequest(ChunkId(0)).wire_size();
        let Some(now) = core.receive_signal(i, requester, now, size) else {
            return;
        };
        core.report.signal_packets += 1;

        core.probe_serve_external(now, pid, requester);
    }
}
