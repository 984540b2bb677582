//! The deterministic dispatcher: the **only** module that matches raw
//! simulation [`Event`]s or touches the scheduler (lint rule BH01
//! holds everywhere else in `crates/proto`).
//!
//! For every popped event the dispatcher runs the behaviour hooks in
//! fixed stack order — discovery, announce, churn-recovery, scheduling,
//! the optional epidemic push, then custom behaviours in push order —
//! and only then drains the
//! action queue FIFO into the scheduler. Because the scheduler breaks
//! timestamp ties by a canonical `(origin, oseq)` key assigned at
//! insertion, this two-phase scheme inserts events in exactly the order
//! the monolithic handler did, which is what keeps same-seed runs
//! byte-identical across the decomposition (ND01–ND05; pinned by
//! `tests/golden_behaviours.rs`).
//!
//! ## Lane keys
//!
//! Every insertion made while handling an event is keyed by the handled
//! event's lane (`handler_lane`): the probe whose hooks and RNG stream
//! the event drives, or the churn lane for departures and arrivals.
//! Bootstrap events ride the `ORIGIN_INIT` lane. Each lane numbers its
//! own insertions, so an event's key depends only on the history of
//! the lane that emitted it. Obs events go straight to the sink as the
//! hooks emit them, so the event log follows dispatch order.

use super::behaviour::{Actions, Behaviour, BehaviourAction, BehaviourStack, Ctx};
use super::state::Event;
use super::SwarmCore;
use crate::peer::PeerId;
use netaware_obs::{Level, ProfCell, ProfSpan};
use netaware_sim::{PacketFate, Scheduler, SimTime, ORIGIN_CHURN, ORIGIN_INIT};
use netaware_trace::PayloadKind;

/// Pre-registered profiler cells for the dispatch hot path: one per
/// built-in behaviour, one per custom behaviour (labelled by
/// [`Behaviour::name`]), one for the receiver-side transfer work, one
/// for the action drain. When the obs handle is not profiling every
/// cell is disabled and [`ProfCell::time`] reduces to a bare closure
/// call, keeping the disabled path within the `obs_overhead` bench
/// budget.
pub(crate) struct DispatchProf {
    discovery: ProfCell,
    announce: ProfCell,
    recovery: ProfCell,
    scheduling: ProfCell,
    epidemic: ProfCell,
    custom: Vec<ProfCell>,
    transfer: ProfCell,
    drain: ProfCell,
}

impl DispatchProf {
    fn new(span: &ProfSpan, stack: &BehaviourStack) -> DispatchProf {
        DispatchProf {
            discovery: span.cell("behaviour.discovery"),
            announce: span.cell("behaviour.announce"),
            recovery: span.cell("behaviour.churn_recovery"),
            scheduling: span.cell("behaviour.scheduling"),
            epidemic: span.cell("behaviour.epidemic"),
            custom: stack
                .custom
                .iter()
                .map(|b| span.cell(&format!("behaviour.{}", b.name())))
                .collect(),
            transfer: span.cell("transfer.rx"),
            drain: span.cell("drain"),
        }
    }

    /// All-disabled cells (unit tests drive `deliver` directly).
    #[cfg(test)]
    pub(crate) fn disabled() -> DispatchProf {
        DispatchProf {
            discovery: ProfCell::disabled(),
            announce: ProfCell::disabled(),
            recovery: ProfCell::disabled(),
            scheduling: ProfCell::disabled(),
            epidemic: ProfCell::disabled(),
            custom: Vec::new(),
            transfer: ProfCell::disabled(),
            drain: ProfCell::disabled(),
        }
    }
}

/// Per-lane insertion counters. A probe lane (`1 + probe_idx`) advances
/// only while handling that probe's events, and the churn lane only
/// while handling departures and arrivals, so the produced
/// `(origin, oseq)` keys are unique.
pub(crate) struct LaneSeqs {
    probe: Vec<u32>,
    churn: u32,
}

impl LaneSeqs {
    pub(crate) fn new(n_probes: usize) -> LaneSeqs {
        LaneSeqs {
            probe: vec![0; n_probes],
            churn: 0,
        }
    }

    fn next(&mut self, lane: u32) -> u32 {
        let slot = if lane == ORIGIN_CHURN {
            &mut self.churn
        } else {
            &mut self.probe[lane as usize - 1]
        };
        let s = *slot;
        *slot = slot.wrapping_add(1);
        s
    }
}

/// The lane that handles `ev`: the probe whose hooks (and RNG stream)
/// the event drives, or the churn lane for departures and arrivals.
/// Every scheduler insertion made while handling an event is keyed by
/// the handled event's lane.
fn handler_lane(core: &SwarmCore<'_>, ev: &Event) -> u32 {
    match ev {
        Event::Tick(i) | Event::Demand(i) | Event::Halo(i) => 1 + *i,
        Event::Serve { provider, to, .. } => {
            if core.is_probe(*provider) {
                provider.0
            } else {
                // External/source providers have no lane of their own:
                // the requesting probe's lane carries the serve.
                to.0
            }
        }
        Event::ChunkRx { to, .. } | Event::SignalRx { to, .. } | Event::Delivered { to, .. } => {
            to.0
        }
        Event::Depart(_) | Event::Arrive(_) => ORIGIN_CHURN,
    }
}

/// Runs the event loop from time zero to `horizon`: schedules the
/// initial per-probe processes, fires the `on_start` hooks, and
/// dispatches until the queue runs dry or passes the horizon.
pub(crate) fn run(core: &mut SwarmCore<'_>, stack: &mut BehaviourStack, horizon: SimTime) {
    let dspan = core.obs.pspan("swarm.dispatch");
    let prof = DispatchProf::new(&dspan, stack);
    let mut sched: Scheduler<Event> = Scheduler::new();

    // ---- Bootstrap. ----------------------------------------------------
    // Stagger initial ticks across one tick interval so probes do not
    // act in lockstep. All bootstrap events ride the ORIGIN_INIT lane,
    // numbered in emission order.
    let mut boot_seq = 0u32;
    let mut boot = |sched: &mut Scheduler<Event>, at: SimTime, ev: Event| {
        sched.push_keyed(at, ORIGIN_INIT, boot_seq, ev);
        boot_seq = boot_seq.wrapping_add(1);
    };
    let tick = core.cfg.profile.tick_us;
    for p in 0..core.n_probes {
        let offset = core.rng.range(0..tick.max(1));
        boot(&mut sched, SimTime::from_us(offset), Event::Tick(p as u32));
        // Demand and halo processes start once the stream exists.
        let warmup = core.cfg.stream.chunk_interval_us()
            * (core.cfg.profile.buffer_delay_chunks as u64 + 2);
        let d0 = warmup + core.rng.range(0..1_000_000);
        boot(&mut sched, SimTime::from_us(d0), Event::Demand(p as u32));
        if core.cfg.profile.halo_contacts_per_sec > 0.0 {
            let h0 = core.rng.range(0..2_000_000);
            boot(&mut sched, SimTime::from_us(h0), Event::Halo(p as u32));
        }
    }

    // Start-of-run hooks (churn seeding lives here), then drain their
    // actions so the seeded departures/arrivals enter the queue in
    // emission order. Discover actions re-enter discovery immediately.
    let mut actions = Actions::default();
    {
        let mut ctx = Ctx {
            core: &mut *core,
            actions: &mut actions,
            now: SimTime::ZERO,
        };
        stack.discovery.on_start(&mut ctx);
        stack.announce.on_start(&mut ctx);
        stack.recovery.on_start(&mut ctx);
        stack.scheduling.on_start(&mut ctx);
        if let Some(e) = stack.epidemic.as_mut() {
            e.on_start(&mut ctx);
        }
        for b in &mut stack.custom {
            b.on_start(&mut ctx);
        }
    }
    while let Some(action) = actions.queue.pop_front() {
        match action {
            BehaviourAction::Schedule { at, ev } => boot(&mut sched, at, ev),
            BehaviourAction::Discover { probe } => {
                let mut ctx = Ctx {
                    core: &mut *core,
                    actions: &mut actions,
                    now: SimTime::ZERO,
                };
                stack.discovery.try_discover(&mut ctx, probe, 0);
            }
        }
    }

    // ---- The event loop. -----------------------------------------------
    let mut seq = LaneSeqs::new(core.n_probes);
    let dispatched = sched.run_until(horizon, |sched, now, ev| {
        deliver(core, stack, sched, &mut actions, &mut seq, now, ev, &prof);
    });

    core.report.events_dispatched = dispatched;
    dspan.add_events(dispatched);
    dspan.add_sim_us(horizon.as_us());
    let saturated = sched.saturated();
    if saturated > 0 {
        // Past-time insertions were clamped to "now" (the scheduler's
        // saturating path; `Scheduler::try_push` is the typed-error
        // alternative). Zero on healthy runs — worth a warning when not.
        netaware_obs::event!(
            core.obs,
            Level::Warn,
            "swarm.schedule_saturated",
            horizon,
            "events" = saturated,
        );
    }
}

/// Dispatches one event: the receiver-side transfer preambles, hooks in
/// stack order, then the FIFO drain, then — for ticks — the next tick
/// of the protocol clock (after the drained chunk serves, matching the
/// legacy insertion order).
#[allow(clippy::too_many_arguments)]
pub(crate) fn deliver(
    core: &mut SwarmCore<'_>,
    stack: &mut BehaviourStack,
    sched: &mut Scheduler<Event>,
    actions: &mut Actions,
    seq: &mut LaneSeqs,
    now: SimTime,
    ev: Event,
    prof: &DispatchProf,
) {
    debug_assert!(actions.queue.is_empty(), "scratch action queue not drained");
    let lane = handler_lane(core, &ev);
    {
        let mut ctx = Ctx {
            core: &mut *core,
            actions: &mut *actions,
            now,
        };
        match &ev {
            Event::Tick(i) => {
                let i = *i as usize;
                prof.discovery.time(|| stack.discovery.on_tick(&mut ctx, i));
                prof.announce.time(|| stack.announce.on_tick(&mut ctx, i));
                prof.recovery.time(|| stack.recovery.on_tick(&mut ctx, i));
                prof.scheduling.time(|| stack.scheduling.on_tick(&mut ctx, i));
                if let Some(e) = stack.epidemic.as_mut() {
                    prof.epidemic.time(|| e.on_tick(&mut ctx, i));
                }
                for (idx, b) in stack.custom.iter_mut().enumerate() {
                    match prof.custom.get(idx) {
                        Some(c) => c.time(|| b.on_tick(&mut ctx, i)),
                        None => b.on_tick(&mut ctx, i),
                    }
                }
            }
            Event::Demand(i) => {
                let i = *i as usize;
                prof.discovery.time(|| stack.discovery.on_demand(&mut ctx, i));
                prof.announce.time(|| stack.announce.on_demand(&mut ctx, i));
                prof.recovery.time(|| stack.recovery.on_demand(&mut ctx, i));
                prof.scheduling.time(|| stack.scheduling.on_demand(&mut ctx, i));
                if let Some(e) = stack.epidemic.as_mut() {
                    prof.epidemic.time(|| e.on_demand(&mut ctx, i));
                }
                for (idx, b) in stack.custom.iter_mut().enumerate() {
                    match prof.custom.get(idx) {
                        Some(c) => c.time(|| b.on_demand(&mut ctx, i)),
                        None => b.on_demand(&mut ctx, i),
                    }
                }
            }
            Event::Halo(i) => {
                let i = *i as usize;
                prof.discovery.time(|| stack.discovery.on_halo(&mut ctx, i));
                prof.announce.time(|| stack.announce.on_halo(&mut ctx, i));
                prof.recovery.time(|| stack.recovery.on_halo(&mut ctx, i));
                prof.scheduling.time(|| stack.scheduling.on_halo(&mut ctx, i));
                if let Some(e) = stack.epidemic.as_mut() {
                    prof.epidemic.time(|| e.on_halo(&mut ctx, i));
                }
                for (idx, b) in stack.custom.iter_mut().enumerate() {
                    match prof.custom.get(idx) {
                        Some(c) => c.time(|| b.on_halo(&mut ctx, i)),
                        None => b.on_halo(&mut ctx, i),
                    }
                }
            }
            Event::Serve {
                provider,
                to,
                chunk,
                deferred,
            } => {
                let (provider, to, chunk, deferred) = (*provider, *to, *chunk, *deferred);
                if !deferred && serve_preamble(&mut ctx, provider, to, chunk) {
                    return_drain(core, stack, sched, actions, seq, now, lane, prof);
                    return;
                }
                prof.discovery.time(|| stack.discovery.on_serve(&mut ctx, provider, to, chunk));
                prof.announce.time(|| stack.announce.on_serve(&mut ctx, provider, to, chunk));
                prof.recovery.time(|| stack.recovery.on_serve(&mut ctx, provider, to, chunk));
                prof.scheduling.time(|| stack.scheduling.on_serve(&mut ctx, provider, to, chunk));
                if let Some(e) = stack.epidemic.as_mut() {
                    prof.epidemic.time(|| e.on_serve(&mut ctx, provider, to, chunk));
                }
                for (idx, b) in stack.custom.iter_mut().enumerate() {
                    match prof.custom.get(idx) {
                        Some(c) => c.time(|| b.on_serve(&mut ctx, provider, to, chunk)),
                        None => b.on_serve(&mut ctx, provider, to, chunk),
                    }
                }
            }
            Event::ChunkRx {
                to,
                from,
                chunk,
                train,
            } => {
                let (to, from, chunk) = (*to, *from, *chunk);
                prof.transfer.time(|| {
                    if let Some(ti) = ctx.core.probe_index(to) {
                        ctx.core.receive_chunk_train(ctx.actions, ti, from, chunk, train);
                    }
                });
            }
            Event::SignalRx { to, from, size } => {
                let (to, from, size) = (*to, *from, *size);
                prof.transfer.time(|| {
                    if let Some(ti) = ctx.core.probe_index(to) {
                        ctx.core.receive_signal(now, from, ti, size);
                    }
                });
            }
            Event::Delivered {
                to,
                from,
                chunk,
                est_bps,
            } => {
                let (to, from, chunk, est_bps) = (*to, *from, *chunk, *est_bps);
                prof.discovery.time(|| stack.discovery.on_delivered(&mut ctx, to, from, chunk, est_bps));
                prof.announce.time(|| stack.announce.on_delivered(&mut ctx, to, from, chunk, est_bps));
                prof.recovery.time(|| stack.recovery.on_delivered(&mut ctx, to, from, chunk, est_bps));
                prof.scheduling.time(|| stack.scheduling.on_delivered(&mut ctx, to, from, chunk, est_bps));
                if let Some(e) = stack.epidemic.as_mut() {
                    prof.epidemic.time(|| e.on_delivered(&mut ctx, to, from, chunk, est_bps));
                }
                for (idx, b) in stack.custom.iter_mut().enumerate() {
                    match prof.custom.get(idx) {
                        Some(c) => c.time(|| b.on_delivered(&mut ctx, to, from, chunk, est_bps)),
                        None => b.on_delivered(&mut ctx, to, from, chunk, est_bps),
                    }
                }
            }
            Event::Depart(id) => {
                let id = *id;
                prof.discovery.time(|| stack.discovery.on_depart(&mut ctx, id));
                prof.announce.time(|| stack.announce.on_depart(&mut ctx, id));
                prof.recovery.time(|| stack.recovery.on_depart(&mut ctx, id));
                prof.scheduling.time(|| stack.scheduling.on_depart(&mut ctx, id));
                if let Some(e) = stack.epidemic.as_mut() {
                    prof.epidemic.time(|| e.on_depart(&mut ctx, id));
                }
                for (idx, b) in stack.custom.iter_mut().enumerate() {
                    match prof.custom.get(idx) {
                        Some(c) => c.time(|| b.on_depart(&mut ctx, id)),
                        None => b.on_depart(&mut ctx, id),
                    }
                }
            }
            Event::Arrive(id) => {
                let id = *id;
                prof.discovery.time(|| stack.discovery.on_arrive(&mut ctx, id));
                prof.announce.time(|| stack.announce.on_arrive(&mut ctx, id));
                prof.recovery.time(|| stack.recovery.on_arrive(&mut ctx, id));
                prof.scheduling.time(|| stack.scheduling.on_arrive(&mut ctx, id));
                if let Some(e) = stack.epidemic.as_mut() {
                    prof.epidemic.time(|| e.on_arrive(&mut ctx, id));
                }
                for (idx, b) in stack.custom.iter_mut().enumerate() {
                    match prof.custom.get(idx) {
                        Some(c) => c.time(|| b.on_arrive(&mut ctx, id)),
                        None => b.on_arrive(&mut ctx, id),
                    }
                }
            }
        }
    }
    prof.drain.time(|| drain(core, stack, sched, actions, seq, now, lane));
    // The dispatcher owns the protocol clock: one tick reschedules the
    // next, inserted after the drained actions (the monolithic handler
    // pushed the chunk serves first, then the tick).
    if let Event::Tick(i) = ev {
        let oseq = seq.next(lane);
        sched.push_keyed(now + core.cfg.profile.tick_us, lane, oseq, Event::Tick(i));
    }
}

/// Receiver-side preamble of a chunk request arriving at a *probe*
/// provider: the provider's inbound link fate and the RX capture of the
/// request packet (the sender already ran its half in `signal_tx`).
/// Returns `true` when the serve must NOT proceed now — the request was
/// dropped, or it was delayed and re-scheduled as a deferred serve.
fn serve_preamble(
    ctx: &mut Ctx<'_, '_>,
    provider: PeerId,
    to: PeerId,
    chunk: crate::chunk::ChunkId,
) -> bool {
    let now = ctx.now();
    let core = &mut *ctx.core;
    let Some(pi) = core.probe_index(provider) else {
        return false; // external/source providers have no modelled inbound link
    };
    match core.link_fate(pi, now.as_us()) {
        PacketFate::Dropped => true, // request eaten at the provider's access link
        PacketFate::Pass { extra_delay_us } => {
            let at = now + extra_delay_us;
            let size = crate::message::Signal::ChunkRequest(chunk).wire_size();
            let ttl = core.ttl_to(to, provider);
            core.capture(pi, at, to, provider, size, ttl, PayloadKind::Signaling);
            if extra_delay_us == 0 {
                false
            } else {
                // Fault-delayed: the provider sees the request late.
                ctx.schedule(
                    at,
                    Event::Serve {
                        provider,
                        to,
                        chunk,
                        deferred: true,
                    },
                );
                true
            }
        }
    }
}

/// Drain wrapper for the early-out serve path (profiled like the normal
/// tail drain).
#[allow(clippy::too_many_arguments)]
fn return_drain(
    core: &mut SwarmCore<'_>,
    stack: &mut BehaviourStack,
    sched: &mut Scheduler<Event>,
    actions: &mut Actions,
    seq: &mut LaneSeqs,
    now: SimTime,
    lane: u32,
    prof: &DispatchProf,
) {
    prof.drain.time(|| drain(core, stack, sched, actions, seq, now, lane));
}

/// Drains the action queue FIFO. `Schedule` actions become keyed
/// scheduler insertions in emission order; `Discover` actions re-enter
/// the discovery behaviour (which may emit further actions — the loop
/// runs until the queue is dry).
fn drain(
    core: &mut SwarmCore<'_>,
    stack: &mut BehaviourStack,
    sched: &mut Scheduler<Event>,
    actions: &mut Actions,
    seq: &mut LaneSeqs,
    now: SimTime,
    lane: u32,
) {
    while let Some(action) = actions.queue.pop_front() {
        match action {
            BehaviourAction::Schedule { at, ev } => {
                sched.push_keyed(at, lane, seq.next(lane), ev);
            }
            BehaviourAction::Discover { probe } => {
                let mut ctx = Ctx {
                    core: &mut *core,
                    actions: &mut *actions,
                    now,
                };
                stack.discovery.try_discover(&mut ctx, probe, now.as_us());
            }
        }
    }
}
