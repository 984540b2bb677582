//! Property tests for the fault-injection subsystem: graceful
//! degradation under loss, liveness under heavy churn, and survival of
//! tracker blackouts. The byte-identity guarantees (same-seed fault
//! runs, no-op plans) live in `tests/determinism.rs`.

use netaware::testbed::{run_experiment, ExperimentOptions};
use netaware::{AppProfile, ChurnPlan, FaultPlan, TrackerOutage};

fn options(faults: FaultPlan) -> ExperimentOptions {
    ExperimentOptions {
        seed: 99,
        scale: 0.03,
        duration_us: 30_000_000,
        keep_traces: false,
        obs: netaware::Obs::default(),
        faults,
    }
}

fn continuity_under_loss(loss: f64) -> f64 {
    let plan = FaultPlan::none().with_flags((loss > 0.0).then_some(loss), None, false);
    let out = run_experiment(AppProfile::tvants(), &options(plan));
    out.report.continuity()
}

#[test]
fn continuity_degrades_monotonically_with_loss() {
    // Graceful degradation: more loss can only hurt. Retransmission
    // recovers mild loss almost entirely, so allow a hair of slack for
    // the re-ordering noise loss injects into the request schedule, but
    // the ordering across big steps must hold and heavy loss must
    // visibly bite.
    let levels = [0.0, 0.05, 0.15, 0.35];
    let conts: Vec<f64> = levels.iter().map(|l| continuity_under_loss(*l)).collect();
    for w in conts.windows(2) {
        assert!(
            w[1] <= w[0] + 0.02,
            "continuity went up with more loss: {conts:?}"
        );
    }
    assert!(
        conts[0] - conts[3] > 0.05,
        "35% loss barely dented continuity: {conts:?}"
    );
    assert!(conts[0] > 0.9, "clean baseline unhealthy: {conts:?}");
}

#[test]
fn heavy_churn_never_deadlocks() {
    // ~30% of externals offline at any instant (offline/(session+offline)
    // with 35 s sessions and 15 s gaps), a third starting offline, plus
    // link loss. The run must terminate, keep delivering, and every
    // departure must eventually be matched by re-arrivals.
    let plan = FaultPlan {
        churn: Some(ChurnPlan {
            session_mean_us: 35_000_000,
            offline_mean_us: 15_000_000,
            initial_offline: 0.33,
            tracker_outages: Vec::new(),
        }),
        ..FaultPlan::none().with_flags(Some(0.05), None, false)
    };
    let out = run_experiment(AppProfile::sopcast(), &options(plan));
    let r = &out.report;
    assert!(r.peers_departed > 0, "no churn materialised");
    assert!(r.peers_arrived > 0, "offline peers never returned");
    assert!(r.chunks_delivered > 0, "swarm starved to death");
    assert!(
        r.continuity() > 0.3,
        "churn collapsed the stream: continuity {}",
        r.continuity()
    );
    // Every probe still produced a report row — nobody wedged.
    assert!(!r.per_probe.is_empty());
    for p in &r.per_probe {
        assert!(p.delivered > 0, "probe {} wedged", p.probe);
    }
}

#[test]
fn tracker_outage_window_is_survivable() {
    // A 10 s discovery blackout mid-run: departed peers cannot be
    // replaced during the window, but the swarm must ride it out.
    let plan = FaultPlan {
        churn: Some(ChurnPlan {
            tracker_outages: vec![TrackerOutage {
                start_us: 10_000_000,
                duration_us: 10_000_000,
            }],
            ..ChurnPlan::preset()
        }),
        ..FaultPlan::none()
    };
    let out = run_experiment(AppProfile::pplive(), &options(plan));
    assert!(out.report.peers_departed > 0);
    assert!(
        out.report.continuity() > 0.5,
        "blackout killed the stream: {}",
        out.report.continuity()
    );
}

#[test]
fn requeue_recovery_beats_timeout_only_waiting() {
    // The mid-transfer-crash recovery path must actually fire under
    // churn: requests stranded on departed providers get re-queued.
    // Short sessions make departures frequent; loss keeps requests
    // in flight longer (retransmissions), so strandings are common.
    let plan = FaultPlan {
        churn: Some(ChurnPlan {
            session_mean_us: 8_000_000,
            offline_mean_us: 5_000_000,
            initial_offline: 0.0,
            tracker_outages: Vec::new(),
        }),
        ..FaultPlan::none().with_flags(Some(0.15), None, false)
    };
    let out = run_experiment(AppProfile::tvants(), &options(plan));
    assert!(
        out.report.requests_requeued > 0,
        "churny run never exercised the requeue path"
    );
}

#[test]
fn example_plan_round_trips_and_validates() {
    let example = FaultPlan::example_json();
    let plan = FaultPlan::from_json(&example).expect("example must parse");
    plan.validate().expect("example must validate");
    assert!(!plan.is_noop());
    let back = FaultPlan::from_json(&plan.to_json()).expect("round trip");
    assert_eq!(plan, back);
}

#[test]
fn invalid_plans_are_rejected() {
    let mut plan = FaultPlan::none();
    plan.link.loss = 1.5;
    assert!(plan.validate().is_err(), "loss > 1 accepted");
    let mut plan = FaultPlan::none();
    plan.churn = Some(ChurnPlan {
        session_mean_us: 0,
        ..ChurnPlan::preset()
    });
    assert!(plan.validate().is_err(), "zero session mean accepted");
}
