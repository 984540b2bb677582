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
//! ## The sharded engine
//!
//! With `--shards N` the dispatcher becomes the driver of a
//! conservative parallel discrete-event simulation:
//!
//! 1. **Bootstrap** (single-threaded): initial tick/demand/halo
//!    processes and the `on_start` hooks run on the unified core; the
//!    resulting events carry the `ORIGIN_INIT` lane.
//! 2. **Partition**: probes are grouped by home AS
//!    ([`netaware_sim::partition`]) so the cheapest links stay
//!    shard-internal; the conservative lookahead Δ is the minimum
//!    cross-shard one-way delay — every cross-shard event carries at
//!    least one inter-probe propagation delay, so it always lands ≥ Δ
//!    after its emission.
//! 3. **Replicate**: each worker gets a full clone of the swarm state.
//!    It *mutates* everything (churn events are broadcast and processed
//!    in lockstep) but is the *authority* only for its owned probes;
//!    non-owned mutations are discarded at merge. Externals' per-probe
//!    serializers ride with the probe that owns them, so no external
//!    state needs coordination.
//! 4. **Windows**: [`netaware_sim::run_sharded`] advances all workers
//!    in `[g, g+Δ)` windows; cross-shard events travel through the
//!    outbox between windows, keyed by their deterministic
//!    `(origin, oseq)` lane so the receiving scheduler reproduces the
//!    exact single-queue pop order.
//! 5. **Merge**: owned probe state, traces and per-shard reports fold
//!    back into the parent core; per-shard obs buffers are replayed in
//!    canonical key order, byte-identical to the serial emission order.
//!
//! Every scheduler insertion goes through the lane of the event being
//! *handled* (`handler_lane`), each lane is advanced by exactly one
//! shard (or by all shards in lockstep, for churn), so keys — and
//! therefore pop order, RNG draw order, trace bytes and the obs log —
//! are invariant under the shard count.

use super::behaviour::{Actions, Behaviour, BehaviourAction, BehaviourStack, Ctx};
use super::state::Event;
use super::{ShardRole, SwarmCore, SwarmMetrics};
use crate::peer::PeerId;
use netaware_obs::{Level, ProfCell, ProfSpan, ShardBufferSink};
use netaware_sim::{
    min_cross_delay_us, partition, run_sharded, Outbox, PacketFate, Scheduler, ShardPlan,
    ShardWorker, SimTime, ORIGIN_CHURN, ORIGIN_INIT,
};
use netaware_trace::PayloadKind;
use std::sync::Arc;

/// A cross-shard event in flight: the canonical scheduler key assigned
/// by the emitting lane, plus the event itself.
type ShardMsg = (u32, u32, Event);

/// Pre-registered profiler cells for the dispatch hot path: one per
/// built-in behaviour, one per custom behaviour (labelled by
/// [`Behaviour::name`]), one for the receiver-side transfer work, one
/// for the action drain. When the obs handle is not profiling every
/// cell is disabled and [`ProfCell::time`] reduces to a bare closure
/// call, keeping the disabled path within the `obs_overhead` bench
/// budget. Cells of all shard workers attach to the same profile nodes,
/// so the merged tree reports swarm-wide hook costs.
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

/// Per-lane insertion counters. Each probe lane (`1 + probe_idx`) is
/// advanced only while handling that probe's events — which exactly one
/// shard does — and the churn lane is advanced identically by every
/// shard (broadcast events are handled in lockstep), so the produced
/// `(origin, oseq)` keys are globally unique and invariant under the
/// shard layout.
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
/// the event drives, or the churn lane for broadcast events. Every
/// scheduler insertion made while handling an event is keyed by the
/// handled event's lane.
fn handler_lane(core: &SwarmCore<'_>, ev: &Event) -> u32 {
    match ev {
        Event::Tick(i) | Event::Demand(i) | Event::Halo(i) => 1 + *i,
        Event::Serve { provider, to, .. } => {
            if core.is_probe(*provider) {
                provider.0
            } else {
                // External/source providers are simulated on the
                // requesting probe's shard.
                to.0
            }
        }
        Event::ChunkRx { to, .. } | Event::SignalRx { to, .. } | Event::Delivered { to, .. } => {
            to.0
        }
        Event::Depart(_) | Event::Arrive(_) => ORIGIN_CHURN,
    }
}

/// Where an insertion of `ev` must land.
enum Route {
    /// This core's own scheduler (also used for broadcast events: every
    /// shard schedules its own replica in lockstep).
    Local,
    /// Another shard's scheduler, via the outbox.
    Remote(usize),
}

fn route_of(core: &SwarmCore<'_>, lane: u32) -> Route {
    if lane == ORIGIN_CHURN {
        return Route::Local;
    }
    match &core.shard.plan {
        None => Route::Local,
        Some(plan) => {
            let dest = plan.of_entity[lane as usize - 1];
            if dest == core.shard.idx {
                Route::Local
            } else {
                Route::Remote(dest)
            }
        }
    }
}

/// Runs the event loop from time zero to `horizon`: schedules the
/// initial per-probe processes, fires the `on_start` hooks, and
/// dispatches until the queue runs dry or passes the horizon — on one
/// scheduler, or on `shards` conservatively synchronised workers.
pub(crate) fn run(
    core: &mut SwarmCore<'_>,
    stack: &mut BehaviourStack,
    horizon: SimTime,
    shards: usize,
) {
    let dspan = core.obs.pspan("swarm.dispatch");

    // ---- Bootstrap (single-threaded, unified core). --------------------
    // Stagger initial ticks across one tick interval so probes do not
    // act in lockstep. All bootstrap events ride the ORIGIN_INIT lane:
    // their keys predate any handling and are identical for every shard
    // layout.
    let mut boot: Vec<(SimTime, u32, Event)> = Vec::new();
    let mut bseq = 0u32;
    let mut push_boot = |at: SimTime, ev: Event, bseq: &mut u32| {
        boot.push((at, *bseq, ev));
        *bseq = bseq.wrapping_add(1);
    };
    let tick = core.cfg.profile.tick_us;
    for p in 0..core.n_probes {
        let offset = core.rng.range(0..tick.max(1));
        push_boot(SimTime::from_us(offset), Event::Tick(p as u32), &mut bseq);
        // Demand and halo processes start once the stream exists.
        let warmup = core.cfg.stream.chunk_interval_us()
            * (core.cfg.profile.buffer_delay_chunks as u64 + 2);
        let d0 = warmup + core.rng.range(0..1_000_000);
        push_boot(SimTime::from_us(d0), Event::Demand(p as u32), &mut bseq);
        if core.cfg.profile.halo_contacts_per_sec > 0.0 {
            let h0 = core.rng.range(0..2_000_000);
            push_boot(SimTime::from_us(h0), Event::Halo(p as u32), &mut bseq);
        }
    }

    // Start-of-run hooks (churn seeding lives here), then drain their
    // actions so the seeded departures/arrivals enter the queue in
    // emission order. Discover actions re-enter discovery immediately
    // (single-threaded here, so the unified core is the authority).
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
            BehaviourAction::Schedule { at, ev } => push_boot(at, ev, &mut bseq),
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

    // ---- Choose the engine. --------------------------------------------
    // Custom behaviours hold arbitrary un-replicable state, and fewer
    // than two probes cannot be split; both force the serial loop.
    let requested = if !stack.custom.is_empty() || core.n_probes < 2 {
        1
    } else {
        shards.max(1)
    };
    let plan = if requested > 1 {
        let groups: Vec<u64> = (0..core.n_probes)
            .map(|i| {
                core.meta[1 + i]
                    .ep
                    .asn
                    .map(|a| a.0 as u64)
                    // Unannounced prefixes: each its own group, offset
                    // past the 32-bit ASN space.
                    .unwrap_or((1u64 << 33) + i as u64)
            })
            .collect();
        let weights = vec![1u64; core.n_probes];
        partition(&groups, &weights, requested)
    } else {
        ShardPlan::single(core.n_probes)
    };

    let (dispatched, saturated) = if plan.n_shards <= 1 {
        run_serial(core, stack, horizon, &dspan, boot)
    } else {
        run_parallel(core, stack, horizon, &dspan, boot, Arc::new(plan))
    };

    core.report.events_dispatched = dispatched;
    dspan.add_events(dispatched);
    dspan.add_sim_us(horizon.as_us());
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

/// The serial engine: one scheduler, one core, events processed in key
/// order to the horizon. Obs events are still routed through a tagged
/// buffer and replayed in key order at the end, so the emission order
/// is *defined* by the canonical key — which is what makes the sharded
/// engines byte-compatible with this one.
fn run_serial(
    core: &mut SwarmCore<'_>,
    stack: &mut BehaviourStack,
    horizon: SimTime,
    dspan: &ProfSpan,
    boot: Vec<(SimTime, u32, Event)>,
) -> (u64, u64) {
    let prof = DispatchProf::new(dspan, stack);
    let mut sched: Scheduler<Event> = Scheduler::new();
    for (at, oseq, ev) in boot {
        sched.push_keyed(at, ORIGIN_INIT, oseq, ev);
    }

    let dest = core.obs.sink();
    let saved_obs = core.obs.clone();
    let buf = dest.map(|d| {
        let buf = Arc::new(ShardBufferSink::new(d));
        core.obs = saved_obs.fork(buf.clone());
        core.m = SwarmMetrics::register(&core.obs);
        core.shard.tag_sink = Some(buf.clone());
        core.shard.sub_seq = vec![0; core.n_probes];
        buf
    });

    let mut seq = LaneSeqs::new(core.n_probes);
    let mut actions = Actions::default();
    let mut outbox: Outbox<ShardMsg> = Outbox::new();
    sched.run_window_keyed(horizon.as_us() + 1, |sched, now, key, ev| {
        if let Some(sink) = &core.shard.tag_sink {
            sink.set_tag(now.as_us(), key.0, key.1);
        }
        core.shard.in_churn = matches!(ev, Event::Depart(_) | Event::Arrive(_));
        deliver(
            core, stack, sched, &mut actions, &mut seq, &mut outbox, now, ev, &prof,
        );
        core.shard.in_churn = false;
    });
    debug_assert!(outbox.is_empty(), "serial run routed an event off-core");

    if let Some(buf) = buf {
        core.shard.tag_sink = None;
        core.obs = saved_obs;
        core.m = SwarmMetrics::register(&core.obs);
        if let Some(dest) = core.obs.sink() {
            netaware_obs::replay_merged(vec![buf.take()], dest.as_ref());
        }
    }
    (sched.dispatched(), sched.saturated())
}

/// One shard worker: a full replica of the swarm advancing its owned
/// probes' lanes, exchanging cross-shard events through the outbox.
struct SwarmShard<'a> {
    core: SwarmCore<'a>,
    stack: BehaviourStack,
    sched: Scheduler<Event>,
    seq: LaneSeqs,
    prof: DispatchProf,
    actions: Actions,
    /// Broadcast (churn) events this worker popped; every worker pops
    /// the same ones, so the merged event total counts them once.
    churn_pops: u64,
}

impl ShardWorker for SwarmShard<'_> {
    type Msg = ShardMsg;

    fn next_time_us(&mut self) -> Option<u64> {
        self.sched.peek_time().map(|t| t.as_us())
    }

    fn run_window(&mut self, _start_us: u64, end_us: u64, outbox: &mut Outbox<ShardMsg>) {
        let SwarmShard {
            core,
            stack,
            sched,
            seq,
            prof,
            actions,
            churn_pops,
        } = self;
        sched.run_window_keyed(end_us, |sched, now, key, ev| {
            if let Some(sink) = &core.shard.tag_sink {
                sink.set_tag(now.as_us(), key.0, key.1);
            }
            if matches!(ev, Event::Depart(_) | Event::Arrive(_)) {
                *churn_pops += 1;
                core.shard.in_churn = true;
            }
            deliver(core, stack, sched, actions, seq, outbox, now, ev, prof);
            core.shard.in_churn = false;
        });
    }

    fn accept(&mut self, _src: usize, msgs: Vec<(u64, ShardMsg)>) {
        for (at_us, (origin, oseq, ev)) in msgs {
            self.sched.push_keyed(SimTime::from_us(at_us), origin, oseq, ev);
        }
    }
}

/// The parallel engine: replicate, window, merge (see the module docs).
fn run_parallel(
    core: &mut SwarmCore<'_>,
    stack: &mut BehaviourStack,
    horizon: SimTime,
    dspan: &ProfSpan,
    boot: Vec<(SimTime, u32, Event)>,
    plan: Arc<ShardPlan>,
) -> (u64, u64) {
    let n = plan.n_shards;
    // The conservative lookahead: the cheapest cross-shard link bounds
    // how far ahead any cross-shard event can land.
    let lookahead = min_cross_delay_us(&plan, |a, b| {
        core.env
            .latency
            .one_way_us_between(core.meta[1 + a].ep, core.meta[1 + b].ep)
    })
    .unwrap_or(1)
    .max(1);

    let dest = core.obs.sink();
    let mut workers: Vec<SwarmShard<'_>> = (0..n)
        .map(|s| {
            let (obs, tag_sink) = match &dest {
                Some(d) => {
                    let buf = Arc::new(ShardBufferSink::new(Arc::clone(d)));
                    (core.obs.fork(buf.clone()), Some(buf))
                }
                None => (core.obs.clone(), None),
            };
            let m = SwarmMetrics::register(&obs);
            let shard_core = SwarmCore {
                cfg: core.cfg.clone(),
                env: core.env,
                peers: Arc::clone(&core.peers),
                meta: Arc::clone(&core.meta),
                n_probes: core.n_probes,
                probe_states: core.probe_states.clone(),
                traces: core.traces.clone(),
                rng: core.rng.clone(),
                report: Default::default(),
                obs,
                m,
                links: core.links.clone(),
                offline: core.offline.clone(),
                shard: ShardRole {
                    plan: Some(Arc::clone(&plan)),
                    idx: s,
                    tag_sink,
                    sub_seq: vec![0; core.n_probes],
                    in_churn: false,
                },
            };
            let shard_stack = stack.clone_builtins();
            let mut sched: Scheduler<Event> = Scheduler::new();
            for (at, oseq, ev) in &boot {
                let lane = handler_lane(&shard_core, ev);
                let owned = lane == ORIGIN_CHURN
                    || plan.of_entity[lane as usize - 1] == s;
                if owned {
                    sched.push_keyed(*at, ORIGIN_INIT, *oseq, ev.clone());
                }
            }
            let prof = DispatchProf::new(dspan, &shard_stack);
            SwarmShard {
                core: shard_core,
                stack: shard_stack,
                sched,
                seq: LaneSeqs::new(core.n_probes),
                prof,
                actions: Actions::default(),
                churn_pops: 0,
            }
        })
        .collect();

    run_sharded(&mut workers, lookahead, horizon.as_us());

    // ---- Merge. --------------------------------------------------------
    let mut dispatched = 0u64;
    let mut saturated = 0u64;
    let mut buffers = Vec::with_capacity(n);
    for (s, w) in workers.iter_mut().enumerate() {
        // Owned probe state and traces: the shard replica is the
        // authority; everything else in it is a discarded mirror.
        for i in 0..core.n_probes {
            if plan.of_entity[i] == s {
                std::mem::swap(&mut core.probe_states[i], &mut w.core.probe_states[i]);
                std::mem::swap(&mut core.traces[i], &mut w.core.traces[i]);
            }
        }
        core.report.absorb(&w.core.report);
        // Every worker pops every broadcast event; count them once.
        dispatched += w.sched.dispatched() - w.churn_pops;
        saturated += w.sched.saturated();
        if let Some(buf) = &w.core.shard.tag_sink {
            buffers.push(buf.take());
        }
    }
    dispatched += workers[0].churn_pops;
    // The offline set advanced in lockstep; adopt shard 0's.
    std::mem::swap(&mut core.offline, &mut workers[0].core.offline);
    drop(workers);

    if let Some(dest) = dest {
        netaware_obs::replay_merged(buffers, dest.as_ref());
    }
    (dispatched, saturated)
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
    outbox: &mut Outbox<ShardMsg>,
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
                    return_drain(core, stack, sched, actions, seq, outbox, now, lane, prof);
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
    prof.drain.time(|| drain(core, stack, sched, actions, seq, outbox, now, lane));
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
    outbox: &mut Outbox<ShardMsg>,
    now: SimTime,
    lane: u32,
    prof: &DispatchProf,
) {
    prof.drain.time(|| drain(core, stack, sched, actions, seq, outbox, now, lane));
}

/// Drains the action queue FIFO. `Schedule` actions become keyed
/// scheduler insertions in emission order — local, or routed to the
/// owning shard's outbox; `Discover` actions re-enter the discovery
/// behaviour (which may emit further actions — the loop runs until the
/// queue is dry).
#[allow(clippy::too_many_arguments)]
fn drain(
    core: &mut SwarmCore<'_>,
    stack: &mut BehaviourStack,
    sched: &mut Scheduler<Event>,
    actions: &mut Actions,
    seq: &mut LaneSeqs,
    outbox: &mut Outbox<ShardMsg>,
    now: SimTime,
    lane: u32,
) {
    while let Some(action) = actions.queue.pop_front() {
        match action {
            BehaviourAction::Schedule { at, ev } => {
                let oseq = seq.next(lane);
                match route_of(core, handler_lane(core, &ev)) {
                    Route::Local => sched.push_keyed(at, lane, oseq, ev),
                    Route::Remote(dest) => outbox.send(dest, at.as_us(), (lane, oseq, ev)),
                }
            }
            BehaviourAction::Discover { probe } => {
                // Dead-peer replacement during broadcast handling: tag
                // the probe's own lane so its handshake events merge
                // deterministically.
                core.tag_probe_sub(probe, now);
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
