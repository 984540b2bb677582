//! Golden-artifact regression pin for the behaviour-layer refactor.
//!
//! The behaviour decomposition (DESIGN.md "Behaviour composition")
//! promised that same-seed runs stay **byte-identical** to the
//! pre-refactor monolithic handler. These tests pin that promise with
//! checked-in fingerprints: the corpus bytes, the obs event log, the
//! metrics snapshot and the analysis JSON (Tables II–IV, Figs. 1–2) of
//! all three paper profiles — plan-free and fault-armed — hashed and
//! compared against constants generated from the last pre-refactor
//! commit. The epidemic push profiles
//! (Epidemic-RP / Epidemic-BA) are pinned the same way, with an extra
//! assertion that the two push policies stay mutually distinguishable,
//! and so is PPLive under a flash crowd (thousands of departures through
//! the churn-recovery path).
//!
//! The one sanctioned divergence is the per-behaviour event *naming*
//! (`swarm.handshake` → `swarm.discovery.handshake`, …): the obs log is
//! normalised back to the legacy names before hashing, so a rename is
//! invisible here while any payload/ordering drift still trips the pin.
//!
//! To regenerate after an *intentional* trace-affecting change:
//!
//! ```text
//! cargo test --test golden_behaviours -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN` below, saying why in the
//! commit message.

use netaware::obs::{Event, FieldValue, RingSink};
use netaware::testbed::{run_experiment, ExperimentOptions};
use netaware::trace::write_trace;
use netaware::{AppProfile, FaultPlan, Obs, SessionModel};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Behaviour-scoped target → legacy (pre-refactor) target. Applied to
/// the obs log before hashing; corpus and metrics compare raw.
const RENAMES: &[(&str, &str)] = &[
    ("swarm.discovery.handshake", "swarm.handshake"),
    ("swarm.scheduling.chunk_sched", "swarm.chunk_sched"),
    ("swarm.scheduling.chunk_expired", "swarm.chunk_expired"),
    ("swarm.scheduling.serve_refused", "swarm.serve_refused"),
    ("swarm.churn.peer_departed", "swarm.peer_departed"),
    ("swarm.churn.peer_arrived", "swarm.peer_arrived"),
    ("swarm.churn.requests_requeued", "swarm.requests_requeued"),
];

fn normalize(log: &str) -> String {
    let mut out = log.to_string();
    for (new, old) in RENAMES {
        out = out.replace(
            &format!("\"target\":\"{new}\""),
            &format!("\"target\":\"{old}\""),
        );
    }
    out
}

/// FNV-1a 64-bit: dependency-free, stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn options(faults: FaultPlan, obs: Obs) -> ExperimentOptions {
    ExperimentOptions {
        seed: 777,
        scale: 0.02,
        duration_us: 20_000_000,
        keep_traces: true,
        obs,
        faults,
    }
}

/// One observed run → (corpus hash, normalised obs-log hash, metrics
/// hash, analysis-JSON hash).
fn fingerprint(profile: AppProfile, faults: FaultPlan) -> (u64, u64, u64, u64) {
    let sink = Arc::new(RingSink::new(1 << 22));
    let obs = Obs::new(sink.clone() as Arc<dyn netaware::obs::EventSink>);
    let out = run_experiment(profile, &options(faults, obs.clone()));
    let traces = out.traces.expect("keep_traces is set");
    let mut corpus = Vec::new();
    for t in &traces.traces {
        write_trace(t, &mut corpus).expect("in-memory write");
    }
    let log: String = sink
        .snapshot()
        .iter()
        .map(|e| {
            let mut line = e.to_jsonl();
            line.push('\n');
            line
        })
        .collect();
    assert!(log.lines().count() > 50, "suspiciously small event log");
    let metrics = obs.metrics().expect("obs enabled").to_json();
    (
        fnv1a(&corpus),
        fnv1a(normalize(&log).as_bytes()),
        fnv1a(metrics.as_bytes()),
        fnv1a(out.analysis.to_json().as_bytes()),
    )
}

fn fault_plan() -> FaultPlan {
    FaultPlan::none().with_flags(Some(0.05), Some(2_000), true)
}

/// The fault plan a golden cell runs under.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Plan {
    /// No faults.
    Clean,
    /// [`fault_plan`]: 5 % loss, 2 ms jitter, the churn preset.
    Faulted,
    /// [`fault_plan`] with the flash-crowd session model: perfbench's
    /// `pplive_churn_spill` plan.
    FlashCrowd,
}

impl Plan {
    fn faults(self) -> FaultPlan {
        match self {
            Plan::Clean => FaultPlan::none(),
            Plan::Faulted => fault_plan(),
            Plan::FlashCrowd => FaultPlan {
                session: Some(SessionModel::flashcrowd_preset()),
                ..fault_plan()
            },
        }
    }
}

use Plan::{Clean, Faulted, FlashCrowd};

struct Golden {
    app: &'static str,
    plan: Plan,
    corpus: u64,
    obs_log: u64,
    metrics: u64,
    analysis: u64,
}

/// Fingerprints of the current engine (seed 777, scale 0.02, 20 s).
/// The corpus and metrics columns date from the receiver-side wire
/// model (explicit `ChunkRx`/`SignalRx` arrival events). The faulted
/// obs logs were last regenerated when events started going straight
/// to the sink: a departure's `peer_departed` line now precedes the
/// `requests_requeued` and replacement `handshake` lines it causes.
/// Only lines within one timestamp moved. The analysis column hashes
/// `ExperimentAnalysis::to_json()`, so any change to a Table II–IV or
/// Fig. 1–2 number trips it; it was generated before the flow-slot
/// sweep and the single-walk preference reduction, which left it
/// unchanged. The flash-crowd row was generated before departures began
/// scrubbing only the probes that hold the departed peer, which left it
/// unchanged too.
#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden { app: "PPLive", plan: Clean, corpus: 0xc138c8aab60ccdf4, obs_log: 0x9586a9df3958f2e9, metrics: 0x205509e05444cf95, analysis: 0x6c7776a1746e4273 },
    Golden { app: "PPLive", plan: Faulted, corpus: 0x08461cc584e098be, obs_log: 0xa55c30d317e7636a, metrics: 0xe587f424aa94650b, analysis: 0xffea966eb236147e },
    Golden { app: "SopCast", plan: Clean, corpus: 0x94a061318cadb6fc, obs_log: 0xd2b96dfc6840617f, metrics: 0xb99e2185ae496b5b, analysis: 0x9f3a964a7fe22161 },
    Golden { app: "SopCast", plan: Faulted, corpus: 0xe352c7abd446e85d, obs_log: 0x286cc6a11ed3213d, metrics: 0x7d58c0fbf4815f89, analysis: 0x0912d9fab7cc0e5a },
    Golden { app: "TVAnts", plan: Clean, corpus: 0x8d6d98cf22f22728, obs_log: 0xe757145bfe98a813, metrics: 0xf131d489d1ecbf89, analysis: 0x1cc972fb9fcae9c9 },
    Golden { app: "TVAnts", plan: Faulted, corpus: 0x2fbedd7ff4d806fb, obs_log: 0x53056a224ad533b2, metrics: 0x83170092cf65f013, analysis: 0xde7f543212336150 },
    Golden { app: "Epidemic-RP", plan: Clean, corpus: 0x029e634dc01fb8cd, obs_log: 0x7ffbff52c3642a91, metrics: 0xdad33ca7ab82f6e1, analysis: 0x2edaa9039988e159 },
    Golden { app: "Epidemic-RP", plan: Faulted, corpus: 0xc96981c22c6993e9, obs_log: 0xc26d3cca6709dd74, metrics: 0x42299d78469a5351, analysis: 0x4a509b8d8c7ca3ee },
    Golden { app: "Epidemic-BA", plan: Clean, corpus: 0x9fe5d7a2072bd7db, obs_log: 0x15bcb6a057c0955e, metrics: 0x65089d060351e231, analysis: 0x957d99f016d950db },
    Golden { app: "Epidemic-BA", plan: Faulted, corpus: 0xd821e17b13bb1108, obs_log: 0xbe7e254c57007307, metrics: 0xabdff705c366be63, analysis: 0x3c11d808e7228e5d },
    Golden { app: "PPLive", plan: FlashCrowd, corpus: 0xcc75a67d160387f8, obs_log: 0x57a6d112031c1cbf, metrics: 0x67a45eb19667fd7c, analysis: 0x83eaac7d61ff7209 },
];

fn profile_by_name(name: &str) -> AppProfile {
    AppProfile::by_name(name).unwrap_or_else(|| panic!("unknown app {name}"))
}

/// Every golden cell's app, in table order: the three paper profiles
/// plus the two epidemic push profiles.
const GOLDEN_APPS: &[&str] = &["PPLive", "SopCast", "TVAnts", "Epidemic-RP", "Epidemic-BA"];

fn check(g: &Golden) {
    assert_eq!(
        fingerprint(profile_by_name(g.app), g.plan.faults()),
        (g.corpus, g.obs_log, g.metrics, g.analysis),
        "{} ({:?}) diverged from the golden artifacts",
        g.app,
        g.plan
    );
}

#[test]
fn golden_covers_all_profiles_both_ways() {
    for app in GOLDEN_APPS.iter().copied() {
        for plan in [Clean, Faulted] {
            assert!(
                GOLDEN.iter().any(|g| g.app == app && g.plan == plan),
                "missing golden entry for {app} {plan:?}"
            );
        }
    }
}

#[test]
fn pplive_matches_pre_refactor_golden() {
    for g in GOLDEN
        .iter()
        .filter(|g| g.app == "PPLive" && g.plan != FlashCrowd)
    {
        check(g);
    }
}

/// PPLive under perfbench's `pplive_churn_spill` plan (loss, jitter,
/// churn and a flash crowd) at the golden seed, scale and duration: the
/// churn-recovery path under thousands of departures.
#[test]
fn pplive_flash_crowd_matches_golden() {
    let cells: Vec<&Golden> = GOLDEN.iter().filter(|g| g.plan == FlashCrowd).collect();
    assert_eq!(cells.len(), 1, "one flash-crowd golden cell");
    for g in cells {
        check(g);
    }
}

#[test]
fn sopcast_matches_pre_refactor_golden() {
    for g in GOLDEN.iter().filter(|g| g.app == "SopCast") {
        check(g);
    }
}

#[test]
fn tvants_matches_pre_refactor_golden() {
    for g in GOLDEN.iter().filter(|g| g.app == "TVAnts") {
        check(g);
    }
}

#[test]
fn epidemic_profiles_match_golden_and_differ() {
    for g in GOLDEN.iter().filter(|g| g.app.starts_with("Epidemic")) {
        check(g);
    }
    // The two push policies must be *distinguishable*: random-peer and
    // bandwidth-aware push produce different traffic, so every artifact
    // fingerprint differs cell-by-cell.
    for plan in [Clean, Faulted] {
        let rp = GOLDEN
            .iter()
            .find(|g| g.app == "Epidemic-RP" && g.plan == plan)
            .unwrap();
        let ba = GOLDEN
            .iter()
            .find(|g| g.app == "Epidemic-BA" && g.plan == plan)
            .unwrap();
        assert_ne!(
            rp.corpus, ba.corpus,
            "push policies indistinguishable (corpus, {plan:?})"
        );
        assert_ne!(
            rp.obs_log, ba.obs_log,
            "push policies indistinguishable (obs log, {plan:?})"
        );
        assert_ne!(
            rp.metrics, ba.metrics,
            "push policies indistinguishable (metrics, {plan:?})"
        );
        assert_ne!(
            rp.analysis, ba.analysis,
            "push policies indistinguishable (analysis, {plan:?})"
        );
    }
}

/// The `peer` field of a churn event.
fn peer_of(e: &Event) -> Option<u64> {
    e.fields.iter().find_map(|(k, v)| match (*k, v) {
        ("peer", FieldValue::U64(p)) => Some(*p),
        _ => None,
    })
}

/// Obs events reach the sink in dispatch order, so a departure's
/// `peer_departed` line comes before the `requests_requeued` lines its
/// eviction causes (same peer, same instant). Runs the faulted PPLive
/// golden cell.
#[test]
fn departure_precedes_the_requeues_it_causes() {
    let sink = Arc::new(RingSink::new(1 << 22));
    let obs = Obs::new(sink.clone() as Arc<dyn netaware::obs::EventSink>);
    run_experiment(profile_by_name("PPLive"), &options(fault_plan(), obs));
    let mut departed = BTreeSet::new();
    let mut pairs = 0;
    for e in sink.snapshot() {
        match e.target {
            "swarm.churn.peer_departed" => {
                departed.insert((e.time, peer_of(&e)));
            }
            "swarm.churn.requests_requeued" => {
                assert!(
                    departed.contains(&(e.time, peer_of(&e))),
                    "requests_requeued for peer {:?} at {:?} precedes its peer_departed",
                    peer_of(&e),
                    e.time
                );
                pairs += 1;
            }
            _ => {}
        }
    }
    assert!(
        pairs > 0,
        "no departure re-queued a request: the check is vacuous"
    );
}

/// Prints the golden table for the current tree, one row per `GOLDEN`
/// cell in table order. Run with `--ignored --nocapture` and paste the
/// output over `GOLDEN`.
#[test]
#[ignore = "regeneration helper, not a check"]
fn print_golden_table() {
    for g in GOLDEN {
        let (app, plan) = (g.app, g.plan);
        let (corpus, obs_log, metrics, analysis) = fingerprint(profile_by_name(app), plan.faults());
        println!(
            "    Golden {{ app: \"{app}\", plan: {plan:?}, corpus: \
             0x{corpus:016x}, obs_log: 0x{obs_log:016x}, metrics: 0x{metrics:016x}, \
             analysis: 0x{analysis:016x} }},"
        );
    }
}
