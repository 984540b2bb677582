//! # netaware-faults — deterministic fault-injection plans
//!
//! The paper measured PPLive/SopCast/TVAnts on *real* networks, where
//! packet loss, latency variation and peer churn are the norm. This
//! crate is the policy layer of the fault-injection subsystem: a
//! [`FaultPlan`] describes *which* impairments an experiment runs under,
//! serialises to/from JSON (CLI `run --faults FILE`), and compiles into
//! the mechanism types of `netaware-sim` ([`netaware_sim::LinkFaults`])
//! that the protocol layer drives per packet.
//!
//! ## Determinism contract
//!
//! A plan contains no randomness — it is pure configuration. All fault
//! draws happen downstream in dedicated [`netaware_sim::DetRng`] streams
//! (`"fault.link"` per probe, `"fault.churn"` for the arrival/departure
//! process), so enabling faults never perturbs protocol streams, and a
//! [`FaultPlan::is_noop`] plan injects nothing and consumes **zero**
//! draws: runs with a disabled plan are byte-identical to runs built
//! before the fault layer existed.

#![warn(missing_docs)]

pub mod session;

pub use session::{Diurnal, FlashCrowd, SessionLaw, SessionModel, Zapping};

use netaware_sim::LinkFaultParams;
use serde::{Deserialize, Serialize};

/// Link-level impairments applied to every probe access link, both
/// directions. Mirrors [`netaware_sim::LinkFaultParams`], plus serde.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkFaultPlan {
    /// Independent per-packet drop probability, `0.0..=1.0`.
    pub loss: f64,
    /// Maximum extra one-way delay per packet, µs (uniform).
    pub jitter_us: u64,
    /// Transient-outage arrival rate while the link is up, Hz.
    pub outage_rate_hz: f64,
    /// Mean outage duration, µs (exponential).
    pub outage_mean_us: u64,
}

impl LinkFaultPlan {
    /// `true` when no link impairment is configured.
    pub fn is_noop(&self) -> bool {
        self.params().is_noop()
    }

    /// Compiles into the sim-layer mechanism parameters.
    pub fn params(&self) -> LinkFaultParams {
        LinkFaultParams {
            loss: self.loss,
            jitter_us: self.jitter_us,
            outage_rate_hz: self.outage_rate_hz,
            outage_mean_us: self.outage_mean_us,
        }
    }
}

/// One scheduled tracker outage: while it lasts, probes cannot discover
/// new neighbors (the tracker/rendezvous is unreachable), so departed
/// peers cannot be replaced until the window closes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackerOutage {
    /// Window start, µs since experiment start.
    pub start_us: u64,
    /// Window length, µs.
    pub duration_us: u64,
}

impl TrackerOutage {
    /// `true` while `now_us` falls inside the window.
    pub fn covers(&self, now_us: u64) -> bool {
        now_us >= self.start_us && now_us < self.start_us.saturating_add(self.duration_us)
    }
}

/// External-peer churn: seeded departure/arrival renewal processes.
///
/// Only *external* peers churn — the probes are the paper's vantage
/// points (machines the NAPA-WINE partners kept running for the whole
/// experiment), and the source never leaves. Each external's online
/// session lasts `Exp(session_mean_us)`, after which it crashes
/// mid-whatever-it-was-doing (pending requests on it are re-queued by
/// the requesters), stays away for `Exp(offline_mean_us)`, and rejoins.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnPlan {
    /// Mean online session length of an external peer, µs.
    pub session_mean_us: u64,
    /// Mean offline period before the peer rejoins, µs.
    pub offline_mean_us: u64,
    /// Fraction of externals that start the experiment offline,
    /// `0.0..=1.0` (they arrive after an `Exp(offline_mean_us)` delay).
    pub initial_offline: f64,
    /// Scheduled tracker-outage windows (discovery blackouts).
    pub tracker_outages: Vec<TrackerOutage>,
}

impl ChurnPlan {
    /// The default preset behind the CLI `--churn` flag: 45 s mean
    /// sessions, 20 s mean offline periods — heavy churn at test
    /// time-scales, comparable to the short heavy-tailed lifetimes
    /// session-level P2P-TV studies report once scaled to experiment
    /// duration.
    pub fn preset() -> Self {
        ChurnPlan {
            session_mean_us: 45_000_000,
            offline_mean_us: 20_000_000,
            initial_offline: 0.0,
            tracker_outages: Vec::new(),
        }
    }
}

/// A complete fault-injection plan for one experiment.
///
/// The default plan is a no-op: no link faults, no churn. JSON schema
/// (see [`FaultPlan::example_json`] for a filled-in template):
///
/// ```json
/// {
///   "link": {"loss": 0.05, "jitter_us": 3000,
///            "outage_rate_hz": 0.02, "outage_mean_us": 2000000},
///   "churn": {"session_mean_us": 45000000, "offline_mean_us": 20000000,
///             "initial_offline": 0.0,
///             "tracker_outages": [{"start_us": 10000000,
///                                  "duration_us": 5000000}]},
///   "session": {"law": {"Pareto": [1.5]},
///               "diurnal": {"period_us": 60000000, "amplitude": 0.6,
///                           "phase_us": 0},
///               "flash_crowd": {"at_us": 8000000, "ramp_us": 2000000},
///               "zapping": {"prob": 0.3, "visit_mean_us": 5000000}}
/// }
/// ```
///
/// `session` is optional (absent in pre-session plans); it reshapes the
/// churn renewal process and therefore requires `churn` to be set when
/// any of its axes are active.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Link impairments on probe access links.
    pub link: LinkFaultPlan,
    /// External-peer churn; `None` disables churn entirely.
    pub churn: Option<ChurnPlan>,
    /// Empirical session model layered on `churn`; `None` (or a default
    /// model) keeps the legacy exponential draws byte-identical.
    pub session: Option<SessionModel>,
}

impl FaultPlan {
    /// The no-op plan (same as `Default`): nothing is injected and no
    /// fault stream is ever consulted.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Layers the CLI shorthand flags over this plan (the `--faults`
    /// file, or [`FaultPlan::none`]): `loss` and `jitter_us` override the
    /// plan's link values, and `churn` adds the [`ChurnPlan::preset`]
    /// only when the plan has no churn of its own. `None`/`false` leave
    /// the corresponding dimension as it is.
    pub fn with_flags(mut self, loss: Option<f64>, jitter_us: Option<u64>, churn: bool) -> Self {
        if let Some(loss) = loss {
            self.link.loss = loss;
        }
        if let Some(jitter_us) = jitter_us {
            self.link.jitter_us = jitter_us;
        }
        if churn && self.churn.is_none() {
            self.churn = Some(ChurnPlan::preset());
        }
        self
    }

    /// `true` when the plan injects nothing (fault machinery must then
    /// be skipped entirely, per the determinism contract).
    pub fn is_noop(&self) -> bool {
        self.link.is_noop() && self.churn.is_none()
    }

    /// Validates parameter ranges, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let l = &self.link;
        if !(0.0..=1.0).contains(&l.loss) {
            return Err(format!("link.loss {} outside 0..=1", l.loss));
        }
        if l.outage_rate_hz < 0.0 || !l.outage_rate_hz.is_finite() {
            return Err(format!("link.outage_rate_hz {} invalid", l.outage_rate_hz));
        }
        if l.outage_rate_hz > 0.0 && l.outage_mean_us == 0 {
            return Err("link.outage_rate_hz set but outage_mean_us is 0".into());
        }
        if let Some(c) = &self.churn {
            if c.session_mean_us == 0 {
                return Err("churn.session_mean_us must be > 0".into());
            }
            if c.offline_mean_us == 0 {
                return Err("churn.offline_mean_us must be > 0".into());
            }
            if !(0.0..=1.0).contains(&c.initial_offline) {
                return Err(format!(
                    "churn.initial_offline {} outside 0..=1",
                    c.initial_offline
                ));
            }
        }
        if let Some(s) = &self.session {
            s.validate()?;
            if !s.is_noop() && self.churn.is_none() {
                return Err("session model set but churn is null (nothing to reshape)".into());
            }
        }
        Ok(())
    }

    /// Parses and validates a plan from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let plan: FaultPlan = serde_json::from_str(s).map_err(|e| e.to_string())?;
        plan.validate()?;
        Ok(plan)
    }

    /// Serialises the plan to pretty-printed JSON. A validated plan
    /// always serialises (the empty-string fallback covers only
    /// non-finite floats, which `validate` rejects).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// A filled-in plan template users can copy for `run --faults FILE`.
    pub fn example_json() -> String {
        FaultPlan {
            link: LinkFaultPlan {
                loss: 0.05,
                jitter_us: 3_000,
                outage_rate_hz: 0.02,
                outage_mean_us: 2_000_000,
            },
            churn: Some(ChurnPlan {
                session_mean_us: 45_000_000,
                offline_mean_us: 20_000_000,
                initial_offline: 0.0,
                tracker_outages: vec![TrackerOutage {
                    start_us: 10_000_000,
                    duration_us: 5_000_000,
                }],
            }),
            session: Some(SessionModel::flashcrowd_preset()),
        }
        .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_noop() {
        assert!(FaultPlan::none().is_noop());
        assert!(FaultPlan::default().validate().is_ok());
    }

    #[test]
    fn flags_build_the_expected_plan() {
        let p = FaultPlan::none().with_flags(Some(0.05), None, true);
        assert!(!p.is_noop());
        assert_eq!(p.link.loss, 0.05);
        assert_eq!(p.link.jitter_us, 0);
        assert_eq!(p.churn, Some(ChurnPlan::preset()));
        assert!(FaultPlan::none().with_flags(None, None, false).is_noop());

        // Over a file plan: the flags override its link values, and
        // `churn` keeps the plan's own churn.
        let file = FaultPlan::from_json(&FaultPlan::example_json()).expect("example parses");
        let p = file.clone().with_flags(Some(0.2), Some(7), true);
        assert_eq!((p.link.loss, p.link.jitter_us), (0.2, 7));
        assert_eq!(p.link.outage_rate_hz, file.link.outage_rate_hz);
        assert_eq!(p.churn, file.churn);
        assert_eq!(file.clone().with_flags(None, None, false), file);
    }

    #[test]
    fn json_round_trip_preserves_the_plan() {
        let plan = FaultPlan::from_json(&FaultPlan::example_json()).expect("example parses");
        assert!(!plan.is_noop());
        let again = FaultPlan::from_json(&plan.to_json()).expect("round-trip parses");
        assert_eq!(plan, again);
        assert_eq!(plan.link.loss, 0.05);
        let churn = plan.churn.expect("example has churn");
        assert_eq!(churn.tracker_outages.len(), 1);
        assert!(churn.tracker_outages[0].covers(12_000_000));
        assert!(!churn.tracker_outages[0].covers(16_000_000));
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let mut p = FaultPlan::none();
        p.link.loss = 1.5;
        assert!(p.validate().is_err());
        p.link.loss = 0.0;
        p.link.outage_rate_hz = 1.0; // outage_mean_us still 0
        assert!(p.validate().is_err());
        p.link.outage_rate_hz = 0.0;
        p.churn = Some(ChurnPlan {
            session_mean_us: 0,
            ..ChurnPlan::preset()
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn session_model_requires_churn() {
        let mut p = FaultPlan::none();
        p.session = Some(SessionModel::flashcrowd_preset());
        assert!(p.validate().is_err());
        p.churn = Some(ChurnPlan::preset());
        assert!(p.validate().is_ok());
        // A default (no-op) model is allowed without churn — it changes
        // nothing, so old plans with an empty object keep parsing.
        let q = FaultPlan {
            session: Some(SessionModel::default()),
            ..FaultPlan::none()
        };
        assert!(q.validate().is_ok());
    }

    #[test]
    fn pre_session_json_still_parses() {
        let json = r#"{"link": {"loss": 0.01, "jitter_us": 0,
                                "outage_rate_hz": 0.0, "outage_mean_us": 0},
                       "churn": null}"#;
        let plan = FaultPlan::from_json(json).expect("old schema parses");
        assert!(plan.session.is_none());
    }

    #[test]
    fn tracker_outage_window_is_half_open() {
        let w = TrackerOutage {
            start_us: 100,
            duration_us: 50,
        };
        assert!(!w.covers(99));
        assert!(w.covers(100));
        assert!(w.covers(149));
        assert!(!w.covers(150));
    }
}
