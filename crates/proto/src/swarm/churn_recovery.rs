//! Churn-recovery behaviour: peer arrival/departure, dead-peer
//! eviction, stranded-request re-queue, and request-timeout backoff.
//!
//! Absorbs what used to live in `swarm/faults.rs`: the churn process
//! rides the dedicated `"fault.churn"` RNG stream, so enabling it never
//! shifts a protocol stream, and with no churn plan the hooks return
//! before touching anything — the structural guarantee behind
//! "fault-disabled runs are byte-identical to pre-fault baselines".
//! The request-timeout expiry (the other half of the retry machinery,
//! whose attempt counters live in this behaviour's
//! [`RecoveryState`](super::state::RecoveryState) slice) runs on every
//! tick regardless of faults.
//!
//! ## Fidelity boundary
//!
//! Churn applies to the *external* population only: probes are
//! persistent vantage points and the source never leaves.

use super::behaviour::{Behaviour, BehaviourAction, Ctx};
use super::presence::{slots_naming, PEER_SLOTS};
use super::state::Event;
use super::SwarmCore;
use crate::chunk::ChunkId;
use crate::peer::{PeerId, PeerRole};
use netaware_faults::{ChurnPlan, SessionModel};
use netaware_obs::Level;
use netaware_sim::{DetRng, SimTime};

/// Estimate recorded for a provider that timed out (punitive, keeps it
/// classified as "tried" while making re-selection unlikely).
const TIMEOUT_EST_BPS: u64 = 200_000;

/// Churn process state: the configured plan and the stream that decides
/// session/offline durations (who is offline lives in the core, where
/// discovery and scheduling consult it).
pub(crate) struct ChurnState {
    plan: ChurnPlan,
    /// Session model reshaping the renewal process; the default model
    /// reproduces the legacy exponential draws bit-for-bit.
    model: SessionModel,
    rng: DetRng,
}

impl ChurnState {
    /// Draws an online session length, µs (≥ 1), per the session model
    /// (exponential with the default model).
    fn session_us(&mut self) -> u64 {
        self.model
            .draw_session_us(&mut self.rng, self.plan.session_mean_us)
    }

    /// Computes the absolute re-arrival time, µs, of a peer going
    /// offline at `now_us` (`now + Exp(offline_mean)` with the default
    /// model; diurnal/flash-crowd axes reshape it).
    fn rearrive_at_us(&mut self, now_us: u64) -> u64 {
        self.model
            .rearrive_at_us(&mut self.rng, now_us, self.plan.offline_mean_us)
    }
}

/// The churn-recovery behaviour.
#[derive(Default)]
pub(crate) struct ChurnRecovery {
    /// Churn process, when a fault plan enables it.
    churn: Option<ChurnState>,
}

impl ChurnRecovery {
    /// Installs (or clears) the churn process; called by `set_faults`.
    /// `model` reshapes the renewal draws (pass `SessionModel::default()`
    /// for the legacy exponential process).
    pub(crate) fn set_churn(&mut self, plan: Option<ChurnPlan>, model: SessionModel, seed: u64) {
        self.churn = plan.map(|plan| ChurnState {
            plan,
            model,
            rng: DetRng::stream(seed, "fault.churn"),
        });
    }

    /// Scrubs a departed peer from the state of every probe that may
    /// name it (its holder set in the presence table, in ascending probe
    /// order) and re-queues the chunk requests that were pending on it
    /// (the mid-transfer-crash recovery path). Calls `lost_neighbor`
    /// with each probe that lost a neighbor entry, in ascending order.
    /// Allocates nothing.
    fn evict_peer(
        core: &mut SwarmCore<'_>,
        id: PeerId,
        now: SimTime,
        mut lost_neighbor: impl FnMut(usize),
    ) {
        for i in core.presence.take_holders(id) {
            let s = &mut core.probe_states[i];
            s.link.ext_up.remove(&id);
            if s.disc.remove_neighbor(id) {
                lost_neighbor(i);
            }
            s.sched.active_requesters.retain(|r| *r != id);
            s.link.last_rx_from.remove(&id);
            if s.sched.last_provider == Some(id) {
                s.sched.last_provider = None;
            }
            // Requests in flight to the departed peer will never be
            // answered: move them to the prompt re-request queue instead
            // of letting them ride out the full request timeout.
            let in_flight = s.sched.pending.len();
            let requeue = &mut s.rec.requeue;
            s.sched.pending.retain(|p| {
                if p.provider != id {
                    return true;
                }
                if !requeue.contains(&p.chunk) {
                    requeue.push(p.chunk);
                }
                false
            });
            let n = (in_flight - s.sched.pending.len()) as u64;
            if n > 0 {
                core.report.requests_requeued += n;
                netaware_obs::event!(
                    core.obs,
                    Level::Debug,
                    "swarm.churn.requests_requeued",
                    now,
                    "probe" = i,
                    "peer" = id.0,
                    "requests" = n,
                );
            }
        }
        // Cross-check: a probe outside the holder set that names the peer
        // means some site stored a peer id without marking it.
        if cfg!(debug_assertions) {
            for (i, s) in core.probe_states.iter().enumerate() {
                let named = slots_naming(s, id);
                debug_assert!(
                    !named.contains(&true),
                    "probe {i} still names departed peer {} in {:?}: a site that stores \
                     a peer id did not mark the presence table",
                    id.0,
                    PEER_SLOTS
                        .iter()
                        .zip(named)
                        .filter(|(_, n)| *n)
                        .collect::<Vec<_>>(),
                );
            }
        }
    }
}

impl Behaviour for ChurnRecovery {
    fn name(&self) -> &'static str {
        "churn_recovery"
    }

    /// Seeds the churn process at the start of the event loop: every
    /// external either starts offline (evicted from the bootstrap
    /// neighbor tables, arriving later) or gets a departure scheduled
    /// at the end of its first session.
    fn on_start(&mut self, ctx: &mut Ctx<'_, '_>) {
        let Some(churn) = self.churn.as_mut() else {
            return;
        };
        let ids: Vec<PeerId> = ctx.core.external_ids();
        let mut start_offline = Vec::new();
        for id in ids {
            let begins_offline =
                churn.plan.initial_offline > 0.0 && churn.rng.chance(churn.plan.initial_offline);
            if begins_offline {
                let back_at = churn.rearrive_at_us(0);
                ctx.core.presence.go_offline(id);
                ctx.schedule(SimTime::from_us(back_at), Event::Arrive(id));
                start_offline.push(id);
            } else {
                let gone_at = churn.session_us();
                ctx.schedule(SimTime::from_us(gone_at), Event::Depart(id));
            }
        }
        // Initially-offline externals may have been handed out by the
        // tracker bootstrap before the plan was attached: evict them.
        for id in start_offline {
            Self::evict_peer(ctx.core, id, SimTime::ZERO, |_| {});
        }
    }

    /// Expire timed-out requests, punishing the slow provider (the
    /// scheduling tick that runs after this one sees the freed budget).
    fn on_tick(&mut self, ctx: &mut Ctx<'_, '_>, i: usize) {
        let now_us = ctx.now().as_us();
        let core = &mut *ctx.core;
        let download = &core.cfg.profile.download_policy;
        let s = &mut core.probe_states[i];
        // The list leaves the state while the cap re-prices entries, and
        // returns with its capacity.
        let mut pending = std::mem::take(&mut s.sched.pending);
        let in_flight = pending.len();
        pending.retain(|p| {
            if p.deadline_us > now_us {
                return true;
            }
            let est = s.sched.est_bps.get(&p.provider).copied();
            let capped = est.map_or(TIMEOUT_EST_BPS, |e| e.min(TIMEOUT_EST_BPS));
            s.set_estimate(download, p.provider, capped);
            false
        });
        let timed_out = (in_flight - pending.len()) as u64;
        s.sched.pending = pending;
        core.m.requests_timed_out.add(timed_out);
    }

    /// Retry bookkeeping of a completed delivery: the chunk is no longer
    /// missing, so its backoff counter and any re-queue entry go away.
    fn on_delivered(
        &mut self,
        ctx: &mut Ctx<'_, '_>,
        to: PeerId,
        _from: PeerId,
        chunk: ChunkId,
        _est_bps: u64,
    ) {
        let Some(ti) = ctx.core.probe_index(to) else {
            return;
        };
        let s = &mut ctx.core.probe_states[ti];
        s.rec.attempts.remove(&chunk);
        s.rec.requeue.retain(|c| *c != chunk);
    }

    /// An external's session ends: it vanishes mid-whatever-it-was-doing.
    fn on_depart(&mut self, ctx: &mut Ctx<'_, '_>, id: PeerId) {
        let now = ctx.now();
        debug_assert_eq!(ctx.core.peers[id.0 as usize].role, PeerRole::External);
        let back_at = {
            let Some(churn) = self.churn.as_mut() else {
                return;
            };
            if !ctx.core.presence.go_offline(id) {
                return; // already gone (stale event)
            }
            SimTime::from_us(churn.rearrive_at_us(now.as_us()))
        };
        ctx.schedule(back_at, Event::Arrive(id));
        ctx.core.report.peers_departed += 1;
        netaware_obs::event!(
            ctx.core.obs,
            Level::Debug,
            "swarm.churn.peer_departed",
            now,
            "peer" = id.0,
        );
        // Dead-peer replacement: each probe that lost this neighbor
        // immediately asks the gossip/tracker view for a substitute
        // (which fails during tracker outages — then the next tick's
        // discovery top-up retries).
        let Ctx { core, actions, .. } = ctx;
        Self::evict_peer(core, id, now, |probe| {
            actions.queue.push_back(BehaviourAction::Discover { probe });
        });
    }

    /// A departed external rejoins the overlay and becomes discoverable
    /// again; its next departure is scheduled.
    fn on_arrive(&mut self, ctx: &mut Ctx<'_, '_>, id: PeerId) {
        let now = ctx.now();
        let Some(churn) = self.churn.as_mut() else {
            return;
        };
        if !ctx.core.presence.go_online(id) {
            return; // was never marked offline (stale event)
        }
        let gone_at = now + churn.session_us();
        ctx.schedule(gone_at, Event::Depart(id));
        ctx.core.report.peers_arrived += 1;
        netaware_obs::event!(
            ctx.core.obs,
            Level::Debug,
            "swarm.churn.peer_arrived",
            now,
            "peer" = id.0,
        );
    }
}
