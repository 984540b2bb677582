//! The deterministic dispatcher: the **only** module that matches raw
//! simulation [`Event`]s or touches the scheduler (no behaviour hook
//! receives either).
//!
//! For every popped event the dispatcher fans the matching hook out
//! over the behaviour stack in fixed order — discovery, announce,
//! churn-recovery, scheduling, then the optional epidemic push — and
//! only then drains the action queue FIFO into the scheduler. Because
//! the scheduler orders equal timestamps by a canonical `(origin,
//! oseq)` key assigned at insertion, this two-phase scheme inserts
//! events in exactly the order the monolithic handler did, which is
//! what keeps same-seed runs byte-identical across the decomposition
//! (pinned by `tests/golden_behaviours.rs`).
//!
//! ## Lane keys
//!
//! Every insertion made while handling an event is keyed by the handled
//! event's lane (`handler_lane`): the probe whose hooks and RNG stream
//! the event drives, or the churn lane for departures and arrivals.
//! The bootstrap processes and the `on_start` hooks' actions ride the
//! `ORIGIN_INIT` lane through the same drain. Each lane numbers its
//! own insertions, so an event's key depends only on the history of
//! the lane that emitted it. Obs events go straight to the sink as the
//! hooks emit them, so the event log follows dispatch order.
//!
//! ## The capture beside the loop
//!
//! The loop stays serial. Once per simulated second it stops only to
//! move each probe's sealed records into a [`Round`]; the round's sort
//! and its hand-over to the record sink then run on a second thread
//! (`rayon::join`) while the loop dispatches the next window. The two
//! sides share nothing: the loop owns the core and the scheduler, the
//! helper owns the round and the sink.

use super::behaviour::{Actions, Behaviour, BehaviourAction, BehaviourStack, Ctx};
use super::state::Event;
use super::SwarmCore;
use crate::peer::PeerId;
use netaware_obs::{Level, ProfCell, ProfSpan};
use netaware_sim::{Scheduler, SimTime, ORIGIN_CHURN, ORIGIN_INIT};
use netaware_trace::{RecordSink, Round, TraceError};

/// Simulated time between two seals of the probes' captures, µs.
const SEAL_EVERY_US: u64 = 1_000_000;

/// Pre-registered profiler cells for the dispatch hot path: one per
/// behaviour in the stack, labelled `behaviour.<`[`Behaviour::name`]`>`,
/// one for the receiver-side transfer work, one for the action drain
/// and one for the loop's share of the seals: moving the sealed
/// records into the round, plus any wait for the previous round's sink.
/// When the obs handle is not profiling every cell is disabled and
/// [`ProfCell::time`] reduces to a bare closure call, keeping the
/// disabled path within the `obs_overhead` bench budget.
pub(crate) struct DispatchProf {
    /// Parallel to [`BehaviourStack::iter_mut`].
    behaviours: Vec<ProfCell>,
    transfer: ProfCell,
    drain: ProfCell,
    seal: ProfCell,
}

impl DispatchProf {
    fn new(span: &ProfSpan, stack: &mut BehaviourStack) -> DispatchProf {
        DispatchProf {
            behaviours: stack
                .iter_mut()
                .map(|b| span.cell(&format!("behaviour.{}", b.name())))
                .collect(),
            transfer: span.cell("transfer.rx"),
            drain: span.cell("drain"),
            seal: span.cell("seal"),
        }
    }

    /// No cells (unit tests drive `deliver` directly).
    #[cfg(test)]
    pub(crate) fn disabled() -> DispatchProf {
        DispatchProf {
            behaviours: Vec::new(),
            transfer: ProfCell::disabled(),
            drain: ProfCell::disabled(),
            seal: ProfCell::disabled(),
        }
    }
}

/// Per-lane insertion counters. A probe lane (`1 + probe_idx`) advances
/// only while handling that probe's events, the churn lane only while
/// handling departures and arrivals, and the init lane only during
/// bootstrap, so the produced `(origin, oseq)` keys are unique.
pub(crate) struct LaneSeqs {
    probe: Vec<u32>,
    init: u32,
    churn: u32,
}

impl LaneSeqs {
    pub(crate) fn new(n_probes: usize) -> LaneSeqs {
        LaneSeqs {
            probe: vec![0; n_probes],
            init: 0,
            churn: 0,
        }
    }

    fn next(&mut self, lane: u32) -> u32 {
        let slot = match lane {
            ORIGIN_CHURN => &mut self.churn,
            ORIGIN_INIT => &mut self.init,
            _ => &mut self.probe[lane as usize - 1],
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

/// Runs the event loop from time zero to `horizon`: emits the initial
/// per-probe processes, fires the `on_start` hooks, drains both into
/// the `ORIGIN_INIT` lane, and dispatches until the queue runs dry or
/// passes the horizon.
///
/// Dispatch runs in windows that end at each whole second of simulated
/// time and at the horizon. After each window, `SwarmCore::seal` moves
/// one round of segments into a [`Round`]: every record at or before
/// the window's end, which no later event can add to, because each
/// capture lands no earlier than the event being dispatched. The round
/// goes to `sink` while the next window runs, through `rayon::join`, so
/// at most one round is in flight; the round after the last window
/// takes every record left, including those past the horizon, and is
/// sunk before `run` returns. Nothing is scheduled between windows, so
/// the events pop in the order one uninterrupted run would pop them,
/// and the sink sees the rounds in order. The first sink error ends
/// the run once the window beside it is done.
///
/// The profile charges the loop's share to `swarm.dispatch/seal` and
/// each round's sort and hand-over to the top-level `swarm.capture`
/// cell, whichever thread runs it.
pub(crate) fn run<S: RecordSink>(
    core: &mut SwarmCore<'_>,
    stack: &mut BehaviourStack,
    horizon: SimTime,
    sink: &mut S,
) -> Result<(), TraceError> {
    let dspan = core.obs.pspan("swarm.dispatch");
    let prof = DispatchProf::new(&dspan, stack);
    let mut sched: Scheduler<Event> = Scheduler::new();
    let mut seq = LaneSeqs::new(core.n_probes);
    let mut actions = Actions::default();

    // ---- Bootstrap. ----------------------------------------------------
    let tick = core.cfg.profile.tick_us;
    // Demand and halo processes start once the stream exists.
    let warmup =
        core.cfg.stream.chunk_interval_us() * (core.cfg.profile.buffer_delay_chunks as u64 + 2);
    let halo = core.cfg.profile.halo_contacts_per_sec > 0.0;
    {
        let mut ctx = Ctx {
            core: &mut *core,
            actions: &mut actions,
            now: SimTime::ZERO,
        };
        // Stagger initial ticks across one tick interval so probes do
        // not act in lockstep.
        for p in 0..ctx.core.n_probes as u32 {
            let offset = ctx.core.rng.range(0..tick.max(1));
            ctx.schedule(SimTime::from_us(offset), Event::Tick(p));
            let d0 = warmup + ctx.core.rng.range(0..1_000_000);
            ctx.schedule(SimTime::from_us(d0), Event::Demand(p));
            if halo {
                let h0 = ctx.core.rng.range(0..2_000_000);
                ctx.schedule(SimTime::from_us(h0), Event::Halo(p));
            }
        }
        // Start-of-run hooks (churn seeding lives here) run outside the
        // profile cells, which count dispatched events.
        fan_out(stack, &[], &mut ctx, |b, ctx| b.on_start(ctx));
    }
    drain(
        core,
        stack,
        &mut sched,
        &mut actions,
        &mut seq,
        SimTime::ZERO,
        ORIGIN_INIT,
    );

    // ---- The event loop, one window at a time. --------------------------
    let capture = core.obs.prof_top_cell("swarm.capture");
    let mut round = Round::new();
    let mut through: u64 = 0;
    loop {
        through = through.saturating_add(SEAL_EVERY_US).min(horizon.as_us());
        let last = through == horizon.as_us();
        let until = SimTime::from_us(through);
        let mut window = || {
            let events = sched.run_until(until, |sched, now, ev| {
                deliver(core, stack, sched, &mut actions, &mut seq, now, ev, &prof);
            });
            (events, prof.seal.stamp())
        };
        // The previous window's round, if any, is sorted and sunk beside this
        // window; `sealing` stamps the end of the window's events.
        let ((events, sealing), sunk) = if round.is_empty() {
            (window(), Ok(()))
        } else {
            rayon::join(window, || capture.time(|| round.sink_into(sink)))
        };
        core.report.events_dispatched += events;
        sunk?;
        core.seal(if last { u64::MAX } else { through }, &mut round);
        if last {
            // No window follows the horizon to run beside.
            capture.time(|| round.sink_into(sink))?;
        }
        prof.seal.charge_since(sealing);
        if last {
            break;
        }
    }

    let saturated = sched.saturated();
    if saturated > 0 {
        // Past-time insertions were clamped to "now". Zero on healthy
        // runs — worth a warning when not.
        netaware_obs::event!(
            core.obs,
            Level::Warn,
            "swarm.schedule_saturated",
            horizon,
            "events" = saturated,
        );
    }
    Ok(())
}

/// Runs `hook` on every behaviour in dispatch order, each under its
/// cell in `cells` (parallel to [`BehaviourStack::iter_mut`]); a
/// behaviour without a cell runs untimed.
fn fan_out<'c, 'a>(
    stack: &mut BehaviourStack,
    cells: &[ProfCell],
    ctx: &mut Ctx<'c, 'a>,
    mut hook: impl FnMut(&mut dyn Behaviour, &mut Ctx<'c, 'a>),
) {
    for (idx, b) in stack.iter_mut().enumerate() {
        match cells.get(idx) {
            Some(cell) => cell.time(|| hook(b, ctx)),
            None => hook(b, ctx),
        }
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
        let cells = &prof.behaviours[..];
        match &ev {
            Event::Tick(i) => fan_out(stack, cells, &mut ctx, |b, ctx| b.on_tick(ctx, *i as usize)),
            Event::Demand(i) => fan_out(stack, cells, &mut ctx, |b, ctx| {
                b.on_demand(ctx, *i as usize)
            }),
            Event::Halo(i) => fan_out(stack, cells, &mut ctx, |b, ctx| b.on_halo(ctx, *i as usize)),
            Event::Serve {
                provider,
                to,
                chunk,
                deferred,
            } => {
                let (provider, to, chunk) = (*provider, *to, *chunk);
                // A dropped or fault-delayed request skips the hooks; its
                // actions (a deferred re-serve) still drain below.
                if *deferred || !serve_preamble(&mut ctx, provider, to, chunk) {
                    fan_out(stack, cells, &mut ctx, |b, ctx| {
                        b.on_serve(ctx, provider, to, chunk)
                    });
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
                        ctx.core.receive_chunk_train(
                            ctx.actions,
                            ti,
                            from,
                            chunk,
                            train.complete,
                            &train.pkts,
                        );
                    }
                });
            }
            Event::SignalRx { to, from, size } => {
                let (to, from, size) = (*to, *from, *size);
                prof.transfer.time(|| {
                    if let Some(ti) = ctx.core.probe_index(to) {
                        ctx.core.receive_signal(ti, from, now, size);
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
                fan_out(stack, cells, &mut ctx, |b, ctx| {
                    b.on_delivered(ctx, to, from, chunk, est_bps)
                });
            }
            Event::Depart(id) => fan_out(stack, cells, &mut ctx, |b, ctx| b.on_depart(ctx, *id)),
            Event::Arrive(id) => fan_out(stack, cells, &mut ctx, |b, ctx| b.on_arrive(ctx, *id)),
        }
    }
    prof.drain
        .time(|| drain(core, stack, sched, actions, seq, now, lane));
    // The dispatcher owns the protocol clock: one tick reschedules the
    // next, inserted after the drained actions (the monolithic handler
    // pushed the chunk serves first, then the tick).
    if let Event::Tick(i) = ev {
        let oseq = seq.next(lane);
        sched.push_keyed(now + core.cfg.profile.tick_us, lane, oseq, Event::Tick(i));
    }
}

/// Receiver-side preamble of a chunk request arriving at a *probe*
/// provider: the provider receives the request packet (the sender
/// already ran its half in `signal_tx`). Returns `true` when the serve
/// must NOT proceed now — the request was dropped, or it was delayed
/// and re-scheduled as a deferred serve.
fn serve_preamble(
    ctx: &mut Ctx<'_, '_>,
    provider: PeerId,
    to: PeerId,
    chunk: crate::chunk::ChunkId,
) -> bool {
    let now = ctx.now();
    let Some(pi) = ctx.core.probe_index(provider) else {
        return false; // external/source providers have no modelled inbound link
    };
    let size = crate::message::Signal::ChunkRequest(chunk).wire_size();
    match ctx.core.receive_signal(pi, to, now, size) {
        None => true, // request eaten at the provider's access link
        Some(at) if at == now => false,
        Some(at) => {
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
