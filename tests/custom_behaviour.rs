//! A custom [`Behaviour`] composes against the *public* trait surface:
//! no dispatcher edit, no state-core edit, just `Swarm::push_behaviour`.
//!
//! Two properties are pinned:
//! 1. a pure observer (no RNG draws, no actions) leaves same-seed runs
//!    byte-identical to the plain built-in stack, and
//! 2. an acting behaviour (scheduling events through `Ctx`) genuinely
//!    steers the protocol — the run diverges.

use netaware::proto::{
    Behaviour, ChunkId, Ctx, Event, NetworkEnv, PeerId, StreamParams, Swarm, SwarmConfig,
    SwarmReport,
};
use netaware::testbed::{BuiltScenario, ScenarioConfig};
use netaware::AppProfile;
use netaware::sim::SimTime;
use std::cell::Cell;
use std::rc::Rc;

/// Pure observer: tallies deliveries, touches nothing else.
struct DeliveryLedger {
    delivered: Rc<Cell<u64>>,
}

impl Behaviour for DeliveryLedger {
    fn on_delivered(
        &mut self,
        _ctx: &mut Ctx,
        _to: PeerId,
        _from: PeerId,
        _chunk: ChunkId,
        _est_bps: u64,
    ) {
        self.delivered.set(self.delivered.get() + 1);
    }
}

/// Acting behaviour: injects one extra halo contact shortly after
/// start-up, spawning a second self-rescheduling halo process on
/// probe 0.
struct ExtraHalo;

impl Behaviour for ExtraHalo {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.schedule(SimTime::from_ms(500), Event::Halo(0));
    }
}

fn run_with(
    behaviour: Option<Box<dyn Behaviour>>,
) -> (netaware::trace::TraceSet, SwarmReport) {
    let profile = AppProfile::sopcast();
    let scenario = BuiltScenario::build(
        &ScenarioConfig {
            seed: 4242,
            scale: 0.02,
            ..Default::default()
        },
        profile.overlay_size,
    );
    let env = NetworkEnv {
        registry: &scenario.registry,
        paths: scenario.paths,
        latency: scenario.latency,
    };
    let cfg = SwarmConfig {
        seed: 4242,
        duration_us: 10_000_000,
        stream: StreamParams::cctv1(),
        profile,
    };
    let mut swarm = Swarm::new(cfg, env, scenario.peer_setup());
    if let Some(b) = behaviour {
        swarm.push_behaviour(b);
    }
    swarm.run()
}

#[test]
fn pure_observer_is_byte_invisible() {
    let delivered = Rc::new(Cell::new(0u64));
    let (with_obs, ra) = run_with(Some(Box::new(DeliveryLedger {
        delivered: delivered.clone(),
    })));
    let (plain, rb) = run_with(None);

    assert!(delivered.get() > 0, "observer hook never fired");
    assert_eq!(
        delivered.get(),
        ra.chunks_delivered,
        "ledger disagrees with the ground-truth report"
    );
    assert_eq!(ra.chunks_delivered, rb.chunks_delivered);
    assert_eq!(with_obs.total_packets(), plain.total_packets());
    assert_eq!(with_obs.total_bytes(), plain.total_bytes());
    for (ta, tb) in with_obs.traces.iter().zip(&plain.traces) {
        assert_eq!(
            ta.records_unsorted(),
            tb.records_unsorted(),
            "observer behaviour perturbed probe {}",
            ta.probe
        );
    }
}

#[test]
fn acting_behaviour_steers_the_run() {
    let (modified, _) = run_with(Some(Box::new(ExtraHalo)));
    let (plain, _) = run_with(None);
    assert_ne!(
        modified.total_packets(),
        plain.total_packets(),
        "injected halo process left no trace"
    );
}
