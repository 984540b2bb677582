//! Statistical property tests for the empirical session models, plus
//! the structural guarantee that a no-op model leaves runs
//! byte-identical to model-free churn.
//!
//! The draw-level laws are checked against their analytic forms
//! (Pareto CCDF, the diurnal harmonic-mean stretch); the zapping
//! renewal is checked at the swarm level, where it must preserve the
//! churn process's population bounds while visibly shortening sessions.

use netaware::faults::{Diurnal, SessionLaw, SessionModel, Zapping};
use netaware::sim::DetRng;
use netaware::testbed::{run_experiment, ExperimentOptions};
use netaware::trace::write_trace;
use netaware::{AppProfile, ChurnPlan, FaultPlan};

fn rng() -> DetRng {
    DetRng::stream(0xABCD, "fault.churn")
}

#[test]
fn pareto_ccdf_matches_analytic_tail() {
    let shape = 2.0;
    let mean_us = 10_000_000u64;
    let model = SessionModel {
        law: Some(SessionLaw::Pareto(shape)),
        ..Default::default()
    };
    // Mean-matched scale: x_m = mean·(α−1)/α.
    let xm = mean_us as f64 * (shape - 1.0) / shape;
    let n = 200_000usize;
    let mut r = rng();
    let samples: Vec<u64> = (0..n)
        .map(|_| model.draw_session_us(&mut r, mean_us))
        .collect();
    for factor in [1.5f64, 3.0, 8.0] {
        let x = xm * factor;
        let analytic = (xm / x).powf(shape);
        let empirical = samples.iter().filter(|&&s| s as f64 > x).count() as f64 / n as f64;
        assert!(
            (empirical - analytic).abs() < 0.01,
            "CCDF at {factor}·x_m: empirical {empirical:.4} vs analytic {analytic:.4}"
        );
    }
    // Nothing below the scale parameter: Pareto support is [x_m, ∞).
    assert!(samples.iter().all(|&s| s as f64 >= xm.floor()));
}

#[test]
fn diurnal_offline_stretch_matches_harmonic_mean() {
    // Offline periods are Exp(mean / intensity(t)). Averaged over a full
    // period, the expected offline length is mean·E[1/(1+a·sin θ)]
    // = mean/√(1−a²) — the harmonic-mean stretch of the envelope.
    let amplitude = 0.6f64;
    let period_us = 1_000_000u64;
    let model = SessionModel {
        diurnal: Some(Diurnal {
            period_us,
            amplitude,
            phase_us: 0,
        }),
        ..Default::default()
    };
    let mean_us = 5_000_000u64;
    let mut r = rng();
    let phases = 2_000u64;
    let per_phase = 50;
    let mut sum: u128 = 0;
    for k in 0..phases {
        let now = k * period_us / phases;
        for _ in 0..per_phase {
            sum += (model.rearrive_at_us(&mut r, now, mean_us) - now) as u128;
        }
    }
    let emp = sum as f64 / (phases * per_phase) as f64;
    let expect = mean_us as f64 / (1.0 - amplitude * amplitude).sqrt();
    let rel = (emp - expect).abs() / expect;
    assert!(
        rel < 0.05,
        "diurnal offline mean {emp:.0} vs analytic {expect:.0} (drift {rel:.3})"
    );
}

fn churn_opts(session: Option<SessionModel>) -> ExperimentOptions {
    ExperimentOptions {
        seed: 31,
        scale: 0.02,
        duration_us: 15_000_000,
        faults: FaultPlan {
            churn: Some(ChurnPlan::preset()),
            session,
            ..FaultPlan::none()
        },
        keep_traces: true,
        ..Default::default()
    }
}

#[test]
fn zapping_renewal_preserves_population_bounds() {
    let zapping = SessionModel {
        zapping: Some(Zapping {
            prob: 0.8,
            visit_mean_us: 2_000_000,
        }),
        ..Default::default()
    };
    let base = run_experiment(AppProfile::pplive(), &churn_opts(None));
    let zap = run_experiment(AppProfile::pplive(), &churn_opts(Some(zapping)));
    for out in [&base, &zap] {
        // Renewal bound: every re-arrival follows a departure (nobody
        // starts offline in the preset), and the stream survives.
        assert!(out.report.peers_departed > 0, "churn never fired");
        assert!(
            out.report.peers_arrived <= out.report.peers_departed,
            "more arrivals ({}) than departures ({})",
            out.report.peers_arrived,
            out.report.peers_departed
        );
        assert!(out.report.continuity() > 0.3, "swarm starved under churn");
    }
    // Zap visits are far shorter than the 45 s mean session, so the
    // zapping mix must turn the population over faster.
    assert!(
        zap.report.peers_departed > base.report.peers_departed,
        "zapping ({}) did not shorten sessions vs baseline ({})",
        zap.report.peers_departed,
        base.report.peers_departed
    );
}

#[test]
fn noop_session_model_is_byte_identical_to_model_free_churn() {
    let plain = run_experiment(AppProfile::pplive(), &churn_opts(None));
    let modeled = run_experiment(
        AppProfile::pplive(),
        &churn_opts(Some(SessionModel::default())),
    );
    let corpus = |out: &netaware::testbed::ExperimentOutput| {
        let mut bytes = Vec::new();
        for t in &out.traces.as_ref().expect("keep_traces").traces {
            write_trace(t, &mut bytes).expect("in-memory write");
        }
        bytes
    };
    assert_eq!(
        corpus(&plain),
        corpus(&modeled),
        "default session model perturbed the trace bytes"
    );
    assert_eq!(plain.analysis.to_json(), modeled.analysis.to_json());
    assert_eq!(plain.report.peers_departed, modeled.report.peers_departed);
}
