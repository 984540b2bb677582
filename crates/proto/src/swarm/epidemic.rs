//! Epidemic chunk-diffusion behaviour: sender-driven push policies.
//!
//! Mathieu & Perino ("On Resource Aware Algorithms in Epidemic Live
//! Streaming") study chunk diffusion where the *holder* of a chunk
//! pushes it onward instead of waiting to be asked. This module is that
//! family as an optional built-in behaviour: on every protocol tick the
//! probe picks a target among its live neighbors — uniformly for the
//! **random-peer** policy, biased by upstream capacity for the
//! **bandwidth-aware** variant — and pushes the *latest useful* chunk it
//! holds (the newest buffered chunk the target plausibly lacks, per the
//! same playout-position guess the pull scheduler prices requests with,
//! [`Neighbor::plausibly_holds`]).
//!
//! ## Determinism
//!
//! The push draws ride the pusher's private probe stream, so a profile
//! without a push policy (`AppProfile::push == None`) consumes zero
//! extra draws and stays byte-identical to the pre-epidemic engine —
//! the paper-profile golden fingerprints pin that. Every push happens while handling the
//! pusher's own `Tick` lane, and transfers reuse the two-sided
//! `probe_serve_chunk` path.

use super::behaviour::{Behaviour, Ctx};
use super::state::Neighbor;
use crate::chunk::{ChunkId, BUFFER_WINDOW};
use crate::peer::{PeerId, PeerRole};
use crate::profiles::PushPolicy;
use netaware_obs::Level;

/// The epidemic push behaviour (see the module docs). Pure
/// configuration plus scratch lists that every push round clears.
#[derive(Debug)]
pub(crate) struct EpidemicPush {
    /// Exponent biasing target choice toward high-upstream neighbors;
    /// `0.0` is the uniform random-peer policy.
    bw_exponent: f64,
    /// Uplink backlog (µs) above which the pusher sits a tick out.
    backlog_cap_us: u64,
    /// Scratch: one round's candidate targets, aligned with `weights`.
    cand: Vec<Neighbor>,
    /// Scratch: the bandwidth-aware variant's target weights.
    weights: Vec<f64>,
}

impl EpidemicPush {
    /// Builds the behaviour from a profile's push policy.
    pub(crate) fn from_policy(policy: &PushPolicy, backlog_cap_us: u64) -> Self {
        EpidemicPush {
            bw_exponent: policy.bw_exponent,
            backlog_cap_us,
            cand: Vec::new(),
            weights: Vec::new(),
        }
    }
}

impl Behaviour for EpidemicPush {
    fn name(&self) -> &'static str {
        "epidemic"
    }

    /// One push round: pick a target (uniform or bandwidth-weighted),
    /// find the latest chunk in the local buffer the target plausibly
    /// lacks, and send it through the provider-side transfer path.
    fn on_tick(&mut self, ctx: &mut Ctx<'_, '_>, i: usize) {
        let now = ctx.now();
        let now_us = now.as_us();
        let pusher = PeerId(1 + i as u32);
        let core = &mut *ctx.core;
        let actions = &mut *ctx.actions;
        if core.probe_states[i].sched.bufmap.held() == 0 {
            return; // nothing buffered yet (startup)
        }
        // A saturated uplink sits the round out, like the pull
        // serve path refusing requests past the backlog cap.
        if core.probe_states[i].link.uplink.backlog_us(now) > self.backlog_cap_us {
            return;
        }
        // Candidate targets: live neighbors (the source never needs
        // a push). Weights only matter for the bandwidth-aware
        // variant.
        let cand = &mut self.cand;
        cand.clear();
        cand.extend(
            core.probe_states[i]
                .disc
                .neighbors()
                .iter()
                .filter(|n| n.role != PeerRole::Source && !core.is_offline(n.id)),
        );
        if cand.is_empty() {
            return;
        }
        let target = if self.bw_exponent == 0.0 {
            let k = core.probe_states[i].rng.range(0..cand.len());
            cand[k]
        } else {
            let weights = &mut self.weights;
            weights.clear();
            for n in cand.iter() {
                let up_bps = core.meta[n.id.0 as usize].up_bps.max(1);
                weights.push((up_bps as f64).powf(self.bw_exponent));
            }
            match core.probe_states[i].rng.pick_weighted(weights) {
                Some(k) => cand[k],
                None => return,
            }
        };
        // Latest useful chunk: the newest held chunk the target
        // plausibly lacks, by the pull scheduler's playout-position
        // guess (never the remote's live state).
        let chunk = {
            let map = &core.probe_states[i].sched.bufmap;
            let base = map.base();
            let stream = core.cfg.stream;
            (0..BUFFER_WINDOW)
                .rev()
                .map(|off| ChunkId(base.0 + off))
                .find(|&c| {
                    map.contains(c) && !target.plausibly_holds(stream.chunk_time_us(c), now_us)
                })
        };
        let Some(chunk) = chunk else {
            return; // target plausibly holds everything we do
        };
        core.report.chunks_pushed += 1;
        netaware_obs::event!(
            core.obs,
            Level::Debug,
            "swarm.epidemic.push",
            now,
            "probe" = i,
            "target" = target.id.0,
            "chunk" = chunk.0,
        );
        // Receiver-side dedup (`chunks_duplicate`) absorbs pushes
        // the heuristic mispriced, exactly like stale pull serves.
        core.probe_serve_chunk(actions, now, pusher, target.id, chunk);
    }
}
