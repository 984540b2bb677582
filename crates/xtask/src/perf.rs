//! The perf-snapshot matrix and budget gate behind `xtask perf`.
//!
//! `run_matrix` executes the three paper applications clean and faulted
//! (six cells), plus two scenario-diversity cells — PPLive under the
//! flash-crowd/heavy-tail session model (`pplive_flashcrowd`) and the
//! random-peer epidemic push profile clean (`epidemic_rp`) — under a
//! profiled [`netaware_obs::Obs`] handle and writes
//! one `BENCH_<scenario>.json` per cell. The gate compares the *gated
//! series* of those reports against a checked-in `perf-baseline.json`:
//!
//! - **workload series** (`events`, `records`) are deterministic — the
//!   same seed must replay the same workload, so drift in *either*
//!   direction beyond `tolerance` fails (a changed workload silently
//!   invalidates every other comparison);
//! - **cost series** (`wall_ns`, `allocs`, `alloc_bytes`,
//!   `peak_heap_bytes`) fail only when they *grow* past their
//!   tolerance. Wall time and heap peaks vary across hosts, so they get
//!   the looser `wall_tolerance`; allocation counts are stable for a
//!   fixed toolchain and ride the strict `tolerance`.
//!
//! Throughput entries in the report are informational: they are ratios
//! of a gated cost over a gated workload, so gating them separately
//! would double-count noise.

use netaware_faults::{ChurnPlan, FaultPlan, SessionModel};
use netaware_obs::{Obs, PerfMeta, PerfReport};
use netaware_proto::AppProfile;
use netaware_testbed::{run_experiment, ExperimentOptions};
use serde_json::Value;
use std::collections::BTreeMap;

/// Knobs for one matrix run; [`PerfConfig::default`] is the CI cell.
#[derive(Clone, Debug)]
pub struct PerfConfig {
    /// Master seed for every cell.
    pub seed: u64,
    /// Population scale (fraction of paper-size overlays).
    pub scale: f64,
    /// Simulated duration per cell, seconds.
    pub sim_secs: u64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            seed: 777,
            scale: 0.02,
            sim_secs: 20,
        }
    }
}

/// The loss/jitter/churn plan used by the faulted cells — fixed so the
/// faulted scenarios are as reproducible as the clean ones.
fn faulted_plan() -> FaultPlan {
    FaultPlan::from_flags(Some(0.05), Some(2_000), true)
}

/// The session-model stress plan of the `pplive_flashcrowd` cell:
/// preset churn reshaped by the flash-crowd/heavy-tail/zapping model —
/// the most churn-event-heavy scenario the matrix runner produces.
fn flashcrowd_plan() -> FaultPlan {
    FaultPlan {
        churn: Some(ChurnPlan::preset()),
        session: Some(SessionModel::flashcrowd_preset()),
        ..FaultPlan::none()
    }
}

/// Runs one profiled cell and returns its report.
pub fn run_cell(profile: AppProfile, faulted: bool, cfg: &PerfConfig) -> PerfReport {
    let scenario = format!(
        "{}_{}",
        profile.name.to_lowercase(),
        if faulted { "faulted" } else { "clean" }
    );
    let plan = if faulted {
        faulted_plan()
    } else {
        FaultPlan::none()
    };
    run_plan_cell(profile, plan, scenario, cfg)
}

/// Runs one profiled cell under an explicit fault plan (the
/// scenario-diversity cells carry session models the boolean
/// clean/faulted split cannot express).
pub fn run_plan_cell(
    profile: AppProfile,
    plan: FaultPlan,
    scenario: String,
    cfg: &PerfConfig,
) -> PerfReport {
    // The peak-heap counter is a process-global high-water mark; rebase
    // it so each cell reports its own peak, not the matrix maximum.
    netaware_obs::alloc::reset_peak();
    let obs = Obs::profiled();
    let opts = ExperimentOptions {
        seed: cfg.seed,
        scale: cfg.scale,
        duration_us: cfg.sim_secs * 1_000_000,
        obs: obs.clone(),
        faults: plan,
        ..Default::default()
    };
    let _ = run_experiment(profile, &opts);
    let meta = PerfMeta {
        scenario,
        toolchain: toolchain(),
        seed: cfg.seed,
        scale_permille: (cfg.scale * 1000.0).round() as u64,
        sim_secs: cfg.sim_secs,
    };
    #[expect(
        clippy::expect_used,
        reason = "a handle built by Obs::profiled() always carries a profiler"
    )]
    obs.perf_report(meta)
        .expect("profiled handle has a profiler")
}

/// Runs the full 3-application × {clean, faulted} matrix plus the
/// scenario-diversity cells, in a stable order (report order is the
/// scenario id order).
pub fn run_matrix(cfg: &PerfConfig) -> Vec<PerfReport> {
    let mut out = Vec::new();
    for profile in AppProfile::paper_apps() {
        for faulted in [false, true] {
            out.push(run_cell(profile.clone(), faulted, cfg));
        }
    }
    // Scenario-diversity cells: the session-model machinery under its
    // heaviest configuration, and the epidemic push scheduler — both
    // new subsystems get their own gated cost series.
    out.push(run_plan_cell(
        AppProfile::pplive(),
        flashcrowd_plan(),
        String::from("pplive_flashcrowd"),
        cfg,
    ));
    out.push(run_plan_cell(
        AppProfile::epidemic_rp(),
        FaultPlan::none(),
        String::from("epidemic_rp"),
        cfg,
    ));
    out.sort_by(|a, b| a.meta.scenario.cmp(&b.meta.scenario));
    out
}

fn toolchain() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| String::from("rustc unknown"))
}

// ------------------------------------------------------------- baseline

/// Schema version of `perf-baseline.json`.
pub const BASELINE_SCHEMA: u32 = 1;

/// Suffixes of the series the gate compares (everything else in a
/// report is informational).
const GATED: &[&str] = &[
    "/wall_ns",
    "/allocs",
    "/alloc_bytes",
    "/peak_heap_bytes",
    "/events",
    "/records",
];

/// Series that replay deterministically from the seed; drift in either
/// direction means the workload itself changed.
const WORKLOAD: &[&str] = &["/events", "/records"];

/// Series measured against the host clock or heap high-water mark;
/// compared with the looser `wall_tolerance`.
const WALL: &[&str] = &["/wall_ns", "/peak_heap_bytes"];

fn gated(name: &str) -> bool {
    GATED.iter().any(|s| name.ends_with(s))
}

/// Extracts the gated series of a report set into one flat map.
pub fn gated_series(reports: &[PerfReport]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for r in reports {
        for (k, v) in r.series() {
            if gated(&k) {
                out.insert(k, v);
            }
        }
    }
    out
}

/// Renders a baseline file body from the gated series of `reports`.
pub fn render_baseline(reports: &[PerfReport]) -> String {
    let body = Baseline {
        schema: BASELINE_SCHEMA,
        series: gated_series(reports),
    };
    serde_json::to_string_pretty(&body).unwrap_or_default()
}

/// The checked-in `perf-baseline.json` payload.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Baseline {
    /// Baseline schema version.
    pub schema: u32,
    /// Gated series name → recorded value.
    pub series: BTreeMap<String, f64>,
}

impl Baseline {
    /// Parses a baseline file body.
    pub fn parse(s: &str) -> Result<Baseline, String> {
        let v: Value = serde_json::parse_value(s).map_err(|e| format!("{e:?}"))?;
        let b: Baseline = serde::Deserialize::from_value(&v).map_err(|e| format!("{e:?}"))?;
        if b.schema != BASELINE_SCHEMA {
            return Err(format!(
                "baseline schema {} unsupported (expected {BASELINE_SCHEMA}); \
                 regenerate with `xtask perf --write-baseline`",
                b.schema
            ));
        }
        Ok(b)
    }
}

// ----------------------------------------------------------------- gate

/// One budget violation, rendered for CI logs.
#[derive(Clone, Debug, PartialEq)]
pub struct Breach {
    /// The offending series (`pplive_clean/wall_ns`).
    pub series: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// The tolerance it was allowed.
    pub allowed: f64,
}

impl Breach {
    /// The CI failure line: names the series and the drift.
    pub fn render(&self) -> String {
        let drift = if self.baseline != 0.0 {
            (self.current - self.baseline) / self.baseline * 100.0
        } else {
            f64::INFINITY
        };
        format!(
            "perf budget: {} drifted {:+.1}% (baseline {:.0}, current {:.0}, allowed ±{:.0}%)",
            self.series,
            drift,
            self.baseline,
            self.current,
            self.allowed * 100.0
        )
    }
}

/// Compares current gated series against the baseline. Returns every
/// breach: cost series failing on growth past tolerance, workload
/// series on drift in either direction, and series missing from either
/// side (a silently dropped series would un-gate itself).
pub fn check(
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
    tolerance: f64,
    wall_tolerance: f64,
) -> Vec<Breach> {
    let mut out = Vec::new();
    for (name, &base) in baseline {
        let Some(&cur) = current.get(name) else {
            out.push(Breach {
                series: format!("{name} (missing from current run)"),
                baseline: base,
                current: f64::NAN,
                allowed: 0.0,
            });
            continue;
        };
        let wall = WALL.iter().any(|s| name.ends_with(s));
        let workload = WORKLOAD.iter().any(|s| name.ends_with(s));
        let tol = if wall { wall_tolerance } else { tolerance };
        let breached = if workload {
            (cur - base).abs() > base * tol
        } else {
            cur > base * (1.0 + tol)
        };
        if breached {
            out.push(Breach {
                series: name.clone(),
                baseline: base,
                current: cur,
                allowed: tol,
            });
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            out.push(Breach {
                series: format!("{name} (missing from baseline; re-run --write-baseline)"),
                baseline: f64::NAN,
                current: current[name],
                allowed: 0.0,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(wall: f64, events: f64, allocs: f64) -> BTreeMap<String, f64> {
        BTreeMap::from([
            (String::from("pplive_clean/wall_ns"), wall),
            (String::from("pplive_clean/events"), events),
            (String::from("pplive_clean/allocs"), allocs),
        ])
    }

    #[test]
    fn identical_series_pass() {
        let base = series(1e9, 5e4, 1e6);
        assert!(check(&base, &base, 0.10, 0.5).is_empty());
    }

    #[test]
    fn injected_slowdown_past_tolerance_fails_and_names_the_series() {
        let base = series(1e9, 5e4, 1e6);
        // 60% wall slowdown: over even the loose wall tolerance.
        let cur = series(1.6e9, 5e4, 1e6);
        let breaches = check(&cur, &base, 0.10, 0.5);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].series, "pplive_clean/wall_ns");
        assert!(breaches[0].render().contains("pplive_clean/wall_ns"));
        assert!(breaches[0].render().contains("+60.0%"));
    }

    #[test]
    fn wall_noise_within_wall_tolerance_passes() {
        let base = series(1e9, 5e4, 1e6);
        // 30% wall jitter is host noise, 8% alloc growth is under gate.
        let cur = series(1.3e9, 5e4, 1.08e6);
        assert!(check(&cur, &base, 0.10, 0.5).is_empty());
    }

    #[test]
    fn alloc_regression_uses_strict_tolerance() {
        let base = series(1e9, 5e4, 1e6);
        let cur = series(1e9, 5e4, 1.2e6);
        let breaches = check(&cur, &base, 0.10, 0.5);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].series, "pplive_clean/allocs");
    }

    #[test]
    fn workload_drift_fails_in_both_directions() {
        let base = series(1e9, 5e4, 1e6);
        let fewer = series(1e9, 4e4, 1e6);
        let more = series(1e9, 6e4, 1e6);
        assert_eq!(check(&fewer, &base, 0.10, 0.5).len(), 1);
        assert_eq!(check(&more, &base, 0.10, 0.5).len(), 1);
        // An *improvement* in a cost series is not a breach.
        let faster = series(0.5e9, 5e4, 0.5e6);
        assert!(check(&faster, &base, 0.10, 0.5).is_empty());
    }

    #[test]
    fn missing_series_fail_both_ways() {
        let base = series(1e9, 5e4, 1e6);
        let mut cur = base.clone();
        cur.remove("pplive_clean/allocs");
        cur.insert(String::from("tvants_clean/wall_ns"), 1.0);
        let breaches = check(&cur, &base, 0.10, 0.5);
        assert_eq!(breaches.len(), 2);
        assert!(breaches[0].series.contains("missing from current"));
        assert!(breaches[1].series.contains("missing from baseline"));
    }

    #[test]
    fn baseline_round_trips_and_rejects_unknown_schema() {
        let body = serde_json::to_string_pretty(&Baseline {
            schema: BASELINE_SCHEMA,
            series: series(1e9, 5e4, 1e6),
        })
        .unwrap_or_default();
        let back = Baseline::parse(&body).expect("round trip");
        assert_eq!(back.series.len(), 3);
        let stale = body.replace("\"schema\": 1", "\"schema\": 99");
        assert!(Baseline::parse(&stale).is_err());
    }
}
