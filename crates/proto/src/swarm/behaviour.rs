//! The behaviour layer: typed, per-concern protocol modules composed
//! into a stack and driven by the deterministic dispatcher.
//!
//! The paper distinguishes PPLive/SopCast/TVAnts purely by *behavioural*
//! signature — discovery cadence, buffer-map exchange, chunk scheduling,
//! churn reaction. This module makes that composition literal: a
//! [`BehaviourStack`] is the protocol, an
//! [`AppProfile`](crate::profiles::AppProfile) *constructs* one from its
//! built-ins ([`AppProfile::stack`](crate::profiles::AppProfile::stack)),
//! and the dispatcher in `swarm/dispatch.rs` is the only place a raw
//! simulation [`Event`] is ever matched: no hook signature receives one.
//! The layer is crate-private: the profile is the only way to shape a
//! stack.
//!
//! ## Determinism contract
//!
//! Behaviour hooks never touch the scheduler directly. They emit typed
//! [`BehaviourAction`]s through [`Ctx`]; the dispatcher drains the
//! action queue in FIFO order after the hooks of one event ran, in
//! fixed behaviour-stack order (discovery, announce, churn-recovery,
//! scheduling, then the optional epidemic push). Each `Schedule` action
//! is keyed by the lane of the event being handled and that lane's next
//! insertion number, so the emission order *is* the pop order among
//! equal timestamps, and the key of an event depends only on its lane's
//! history — which is what keeps same-seed runs byte-identical across
//! the decomposition (pinned by `tests/golden_behaviours.rs`).

use super::state::Event;
use super::SwarmCore;
use crate::chunk::ChunkId;
use crate::peer::PeerId;
use netaware_sim::SimTime;
use std::collections::VecDeque;

/// One deferred effect emitted by a behaviour hook.
///
/// Actions are the only way behaviours reach the scheduler or each
/// other; the dispatcher drains them in emission (FIFO) order, so the
/// order of emissions *is* the order of scheduler insertions.
#[derive(Clone, Debug)]
pub(crate) enum BehaviourAction {
    /// Insert `ev` into the event queue at absolute sim time `at`.
    Schedule {
        /// Absolute sim time of the event.
        at: SimTime,
        /// The event to deliver.
        ev: Event,
    },
    /// Ask the discovery behaviour to attempt one neighbor acquisition
    /// for `probe` (dead-peer replacement path).
    Discover {
        /// Index of the probe that lost a neighbor.
        probe: usize,
    },
}

/// FIFO queue of actions emitted during one event's hooks.
#[derive(Default)]
pub(crate) struct Actions {
    pub(crate) queue: VecDeque<BehaviourAction>,
}

/// What a behaviour hook sees: mutable access to the swarm core (peer
/// tables, per-probe state slices, transfer machinery, obs) plus the
/// action queue of the event being dispatched.
pub(crate) struct Ctx<'c, 'a> {
    pub(crate) core: &'c mut SwarmCore<'a>,
    pub(crate) actions: &'c mut Actions,
    pub(crate) now: SimTime,
}

impl Ctx<'_, '_> {
    /// Sim time of the event being dispatched.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `ev` at absolute time `at`: a
    /// [`BehaviourAction::Schedule`], drained FIFO by the dispatcher
    /// after the current event's hooks ran.
    pub(crate) fn schedule(&mut self, at: SimTime, ev: Event) {
        self.actions
            .queue
            .push_back(BehaviourAction::Schedule { at, ev });
    }
}

/// One protocol concern, driven by the dispatcher through typed hooks.
///
/// Every hook has a no-op default, so a behaviour implements its name
/// and only the events it cares about. Hooks run in fixed stack order for each
/// event; effects that must reach the scheduler go through
/// [`Ctx::schedule`], never a direct queue push: no hook receives the
/// scheduler.
#[allow(unused_variables)]
pub(crate) trait Behaviour {
    /// Short stable name, used to label this behaviour's node in the
    /// dispatch profile (`swarm.dispatch/behaviour.<name>`).
    fn name(&self) -> &'static str;
    /// Called once before the event loop starts (after the initial
    /// tick/demand/halo processes are emitted; its actions drain after
    /// them, on the same bootstrap lane).
    fn on_start(&mut self, ctx: &mut Ctx) {}
    /// Protocol tick at probe `i`.
    fn on_tick(&mut self, ctx: &mut Ctx, i: usize) {}
    /// Aggregate external demand arrival at probe `i`.
    fn on_demand(&mut self, ctx: &mut Ctx, i: usize) {}
    /// Signalling-only discovery contact by probe `i`.
    fn on_halo(&mut self, ctx: &mut Ctx, i: usize) {}
    /// A chunk request arrived at its provider.
    fn on_serve(&mut self, ctx: &mut Ctx, provider: PeerId, to: PeerId, chunk: ChunkId) {}
    /// A chunk finished arriving at `to`.
    fn on_delivered(
        &mut self,
        ctx: &mut Ctx,
        to: PeerId,
        from: PeerId,
        chunk: ChunkId,
        est_bps: u64,
    ) {
    }
    /// An external peer's session ended (churn).
    fn on_depart(&mut self, ctx: &mut Ctx, peer: PeerId) {}
    /// A departed external rejoined the overlay (churn).
    fn on_arrive(&mut self, ctx: &mut Ctx, peer: PeerId) {}
}

/// The composed protocol: the built-in concerns in fixed dispatch
/// order, plus the optional epidemic push.
///
/// A stack is constructed by
/// [`AppProfile::stack`](crate::profiles::AppProfile::stack) — the
/// profile's parameters decide how each built-in behaves, which is what
/// makes "a profile" and "a behaviour composition" the same thing.
pub(crate) struct BehaviourStack {
    pub(crate) discovery: super::discovery::Discovery,
    pub(crate) announce: super::announce::Announce,
    pub(crate) recovery: super::churn_recovery::ChurnRecovery,
    pub(crate) scheduling: super::scheduling::Scheduling,
    /// Optional epidemic push built-in (profiles with a
    /// [`PushPolicy`](crate::profiles::PushPolicy)); runs after
    /// scheduling. `None` costs nothing — no hooks run, no draws happen
    /// — which keeps pull-only profiles byte-identical to the
    /// pre-epidemic engine.
    pub(crate) epidemic: Option<super::epidemic::EpidemicPush>,
}

impl BehaviourStack {
    /// Every behaviour in dispatch order: the four built-ins, then the
    /// epidemic push when present.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut dyn Behaviour> {
        let builtins: [&mut dyn Behaviour; 4] = [
            &mut self.discovery,
            &mut self.announce,
            &mut self.recovery,
            &mut self.scheduling,
        ];
        builtins
            .into_iter()
            .chain(self.epidemic.as_mut().map(|e| e as &mut dyn Behaviour))
    }
}
