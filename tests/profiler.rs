//! Integration tests for the performance-observability subsystem: the
//! determinism contract of the profile tree (byte-identical modulo its
//! host observations), the single owner of each workload tally, one
//! dispatch cell per stacked behaviour, and RAII span closure under
//! panics at the full-stack level.

use netaware::obs::ProfileNode;
use netaware::testbed::{run_experiment, ExperimentOptions, ExperimentOutput};
use netaware::{AppProfile, FaultPlan, Obs};

fn profiled_run(seed: u64) -> (ProfileNode, ExperimentOutput) {
    profiled_run_of(AppProfile::tvants(), seed)
}

fn profiled_run_of(profile: AppProfile, seed: u64) -> (ProfileNode, ExperimentOutput) {
    let obs = Obs::profiled();
    let opts = ExperimentOptions {
        seed,
        scale: 0.02,
        duration_us: 10_000_000,
        obs: obs.clone(),
        faults: FaultPlan::none(),
        ..Default::default()
    };
    let out = run_experiment(profile, &opts);
    (obs.profile_tree().expect("profiled handle"), out)
}

/// The tree as JSON with the host observations (`wall_ns`, `allocs`,
/// `alloc_bytes`) zeroed: what two same-seed runs must agree on.
fn masked_json(tree: &ProfileNode) -> String {
    fn mask(n: &mut ProfileNode) {
        n.wall_ns = 0;
        n.allocs = 0;
        n.alloc_bytes = 0;
        n.children.iter_mut().for_each(mask);
    }
    let mut tree = tree.clone();
    mask(&mut tree);
    serde_json::to_string_pretty(&tree).expect("serialise")
}

/// Sum of `f` over `n` and every descendant.
fn sum(n: &ProfileNode, f: fn(&ProfileNode) -> u64) -> u64 {
    f(n) + n.children.iter().map(|c| sum(c, f)).sum::<u64>()
}

#[test]
fn same_seed_reports_are_byte_identical_modulo_masked_fields() {
    let (a, _) = profiled_run(321);
    let (b, _) = profiled_run(321);
    // Wall time and allocation counts are host observations and may
    // differ; everything else — tree shape, call counts, record and
    // event tallies — must replay exactly.
    assert_eq!(
        masked_json(&a),
        masked_json(&b),
        "same-seed profile trees diverge"
    );
    // The contract is not vacuous: the tree carries real deterministic
    // workload tallies.
    assert!(sum(&a, |n| n.events) > 0, "no events tallied");
    assert!(sum(&a, |n| n.records) > 0, "no records tallied");
    // And the full stack actually appears in the tree.
    for path in [
        "testbed.run",
        "testbed.run/swarm.run/swarm.dispatch",
        "testbed.run/swarm.run/swarm.dispatch/behaviour.scheduling",
        "testbed.run/analysis.sweep",
        "testbed.run/analysis.assemble",
        "testbed.run/trace.sink",
    ] {
        assert!(a.find(path).is_some(), "span {path} missing from tree");
    }
}

#[test]
fn different_seed_reports_differ_even_masked() {
    let (a, _) = profiled_run(321);
    let (b, _) = profiled_run(654);
    assert_ne!(
        masked_json(&a),
        masked_json(&b),
        "different workloads must not mask to the same tree"
    );
}

/// Events are tallied only at `swarm.run` and records only at
/// `analysis.sweep`, so a sum over the whole tree counts each once and
/// agrees with the run's own ground truth.
#[test]
fn each_workload_is_counted_once_at_its_owner() {
    let (tree, out) = profiled_run(321);
    let events = out.report.events_dispatched;
    assert!(events > 0, "no events dispatched");
    assert_eq!(
        tree.find("testbed.run/swarm.run").map(|n| n.events),
        Some(events)
    );
    assert_eq!(
        sum(&tree, |n| n.events),
        events,
        "events tallied off their owner"
    );
    let records = out.analysis.total_packets as u64;
    assert!(records > 0, "no records swept");
    assert_eq!(
        tree.find("testbed.run/analysis.sweep").map(|n| n.records),
        Some(records)
    );
    assert_eq!(
        sum(&tree, |n| n.records),
        records,
        "records tallied off their owner"
    );
}

/// The dispatch profile holds one cell per behaviour in the stack: the
/// pull-only TVAnts has no epidemic row, and Epidemic-RP's counts calls.
#[test]
fn dispatch_profile_has_a_cell_per_stacked_behaviour() {
    const EPIDEMIC: &str = "testbed.run/swarm.run/swarm.dispatch/behaviour.epidemic";
    let (tvants, _) = profiled_run(321);
    assert!(
        tvants.find(EPIDEMIC).is_none(),
        "pull-only TVAnts carries an epidemic row"
    );
    let (push, _) = profiled_run_of(AppProfile::epidemic_rp(), 321);
    let calls = push.find(EPIDEMIC).map(|n| n.calls);
    assert!(
        calls.is_some_and(|c| c > 0),
        "Epidemic-RP epidemic calls: {calls:?}"
    );
}

/// Each round's sort and hand-over to the sink run beside the event
/// loop, so they tally into a top-level cell of their own, one call per
/// round, and not under `swarm.dispatch`, whose self time stays its own.
#[test]
fn the_capture_beside_the_loop_has_its_own_node() {
    const DISPATCH: &str = "testbed.run/swarm.run/swarm.dispatch";
    let (tree, _) = profiled_run(321);
    let rounds = 10; // one per simulated second of the 10-s run
    let capture = tree.find("swarm.capture").expect("top-level capture cell");
    assert_eq!(capture.calls, rounds);
    assert!(capture.wall_ns > 0);
    let seal = tree.find(&format!("{DISPATCH}/seal")).expect("seal cell");
    assert_eq!(seal.calls, rounds);
    assert!(tree.find(&format!("{DISPATCH}/swarm.capture")).is_none());
    let dispatch = tree.find(DISPATCH).expect("dispatch span");
    assert!(
        dispatch.self_wall_ns() > 0,
        "swarm.dispatch self time clamped to zero"
    );
}

#[test]
fn panicking_scope_still_closes_the_whole_stack() {
    let obs = Obs::profiled();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let outer = obs.pspan("phase.outer");
        outer.add_events(1);
        let inner = obs.pspan("phase.inner");
        inner.add_events(1);
        panic!("mid-phase failure");
    }));
    assert!(caught.is_err());
    // Both guards unwound: the tree records one completed call each, at
    // the right nesting, and a fresh span opens at the root again.
    {
        let _after = obs.pspan("phase.after");
    }
    let tree = obs.profile_tree().expect("profiling");
    let outer = tree.find("phase.outer").expect("outer closed");
    assert_eq!(outer.calls, 1);
    assert_eq!(
        tree.find("phase.outer/phase.inner")
            .expect("inner nested")
            .calls,
        1
    );
    assert_eq!(
        tree.find("phase.after")
            .expect("root-level after panic")
            .calls,
        1
    );
}
