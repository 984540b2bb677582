//! The behaviour layer: typed, per-concern protocol modules composed
//! into a stack and driven by the deterministic dispatcher.
//!
//! The paper distinguishes PPLive/SopCast/TVAnts purely by *behavioural*
//! signature — discovery cadence, buffer-map exchange, chunk scheduling,
//! churn reaction. This module makes that composition literal: a
//! [`BehaviourStack`] is the protocol, an
//! [`AppProfile`](crate::profiles::AppProfile) *constructs* one
//! ([`AppProfile::stack`](crate::profiles::AppProfile::stack)), and the
//! dispatcher in `swarm/dispatch.rs` is the only place a raw simulation
//! [`Event`] is ever matched: no hook signature receives one.
//!
//! ## Determinism contract
//!
//! Behaviour hooks never touch the scheduler directly. They emit typed
//! [`BehaviourAction`]s through [`Ctx`]; the dispatcher drains the
//! action queue in FIFO order after the hooks of one event ran, in
//! fixed behaviour-stack order (discovery, announce, churn-recovery,
//! scheduling, the optional epidemic push, then custom behaviours in
//! push order). Because the
//! scheduler breaks timestamp ties by insertion sequence, FIFO draining
//! preserves the exact insertion order the monolithic handler produced —
//! which is what keeps same-seed runs byte-identical across the
//! decomposition (pinned by `tests/golden_behaviours.rs`).

use super::state::Event;
use super::SwarmCore;
use crate::chunk::ChunkId;
use crate::peer::{PeerId, PeerInfo};
use netaware_obs::Obs;
use netaware_sim::{DetRng, SimTime};
use std::collections::VecDeque;

/// One deferred effect emitted by a behaviour hook.
///
/// Actions are the only way behaviours reach the scheduler or each
/// other; the dispatcher drains them in emission (FIFO) order, so the
/// order of `emit` calls *is* the order of scheduler insertions.
#[derive(Clone, Debug)]
pub enum BehaviourAction {
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
pub struct Ctx<'c, 'a> {
    pub(crate) core: &'c mut SwarmCore<'a>,
    pub(crate) actions: &'c mut Actions,
    pub(crate) now: SimTime,
}

impl Ctx<'_, '_> {
    /// Sim time of the event being dispatched.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Emits a typed action; drained FIFO by the dispatcher after the
    /// current event's hooks ran.
    pub fn emit(&mut self, action: BehaviourAction) {
        self.actions.queue.push_back(action);
    }

    /// Schedules `ev` at absolute time `at` (sugar for
    /// [`BehaviourAction::Schedule`]).
    pub fn schedule(&mut self, at: SimTime, ev: Event) {
        self.emit(BehaviourAction::Schedule { at, ev });
    }

    /// Requests one neighbor-discovery attempt for `probe` (sugar for
    /// [`BehaviourAction::Discover`]).
    pub fn request_discovery(&mut self, probe: usize) {
        self.emit(BehaviourAction::Discover { probe });
    }

    /// Number of probe vantage points.
    pub fn n_probes(&self) -> usize {
        self.core.n_probes
    }

    /// The peer table (source, probes, externals).
    pub fn peers(&self) -> &[PeerInfo] {
        &self.core.peers
    }

    /// The observability handle events should be emitted through.
    pub fn obs(&self) -> &Obs {
        &self.core.obs
    }

    /// The private decision stream of probe `i`. Custom behaviours that
    /// draw from it perturb the byte-identity baseline (they consume
    /// draws the built-in stack would otherwise see) — that is expected
    /// for a custom stack, but a pure *observer* behaviour must not
    /// touch it.
    pub fn probe_rng(&mut self, i: usize) -> &mut DetRng {
        &mut self.core.probe_states[i].rng
    }
}

/// One protocol concern, driven by the dispatcher through typed hooks.
///
/// Every hook has a no-op default, so a behaviour implements only the
/// events it cares about. Hooks run in fixed stack order for each
/// event; effects that must reach the scheduler go through
/// [`Ctx::schedule`], never a direct queue push: no hook receives the
/// scheduler.
#[allow(unused_variables)]
pub trait Behaviour {
    /// Short stable name, used to label this behaviour's node in the
    /// dispatch profile (`swarm.dispatch/behaviour.<name>`).
    fn name(&self) -> &'static str {
        "custom"
    }
    /// Called once before the event loop starts (after the initial
    /// tick/demand/halo processes are scheduled).
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
    fn on_delivered(&mut self, ctx: &mut Ctx, to: PeerId, from: PeerId, chunk: ChunkId, est_bps: u64) {
    }
    /// An external peer's session ended (churn).
    fn on_depart(&mut self, ctx: &mut Ctx, peer: PeerId) {}
    /// A departed external rejoined the overlay (churn).
    fn on_arrive(&mut self, ctx: &mut Ctx, peer: PeerId) {}
}

/// The composed protocol: the built-in concerns in fixed dispatch
/// order (plus the optional epidemic push), then any custom behaviours
/// appended after them.
///
/// A stack is constructed by
/// [`AppProfile::stack`](crate::profiles::AppProfile::stack) — the
/// profile's parameters decide how each built-in behaves, which is what
/// makes "a profile" and "a behaviour composition" the same thing.
pub struct BehaviourStack {
    pub(crate) discovery: super::discovery::Discovery,
    pub(crate) announce: super::announce::Announce,
    pub(crate) recovery: super::churn_recovery::ChurnRecovery,
    pub(crate) scheduling: super::scheduling::Scheduling,
    /// Optional epidemic push built-in (profiles with a
    /// [`PushPolicy`](crate::profiles::PushPolicy)); runs after
    /// scheduling, before customs. `None` costs nothing — no hooks run,
    /// no draws happen — which keeps pull-only profiles byte-identical
    /// to the pre-epidemic engine.
    pub(crate) epidemic: Option<super::epidemic::EpidemicPush>,
    pub(crate) custom: Vec<Box<dyn Behaviour>>,
}

impl BehaviourStack {
    pub(crate) fn new(
        discovery: super::discovery::Discovery,
        announce: super::announce::Announce,
        recovery: super::churn_recovery::ChurnRecovery,
        scheduling: super::scheduling::Scheduling,
        epidemic: Option<super::epidemic::EpidemicPush>,
    ) -> Self {
        BehaviourStack {
            discovery,
            announce,
            recovery,
            scheduling,
            epidemic,
            custom: Vec::new(),
        }
    }

    /// Appends a custom behaviour. It runs *after* the built-ins on
    /// every event, in push order. A pure observer (no RNG draws, no
    /// actions) leaves runs byte-identical to the plain stack.
    pub fn push(&mut self, behaviour: Box<dyn Behaviour>) {
        self.custom.push(behaviour);
    }
}
