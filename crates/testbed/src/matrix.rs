//! Scenario-matrix runner: sweep application profiles × swarm scales ×
//! session models × fault plans through the streaming pipeline and emit
//! one deterministic cross-scenario awareness report.
//!
//! The paper's experiment is a single point of this grid (one network
//! condition, three applications). [`run_matrix`] generalises it: a
//! [`MatrixConfig`] names the axes, every cell runs the full
//! scenario → swarm → traces → analysis pipeline under its own fault
//! plan, and the rows land in a
//! [`MatrixReport`](netaware_analysis::scenario::MatrixReport) in fixed
//! sweep order (profiles outermost, faults innermost).
//!
//! ## Determinism contract
//!
//! Cells are independent deterministic experiments sharing one seed, so
//! the report is a pure function of the config: byte-identical across
//! repeat runs and toolchains (the CI `scenario-matrix` job re-runs a
//! small config twice and diffs the bytes). Cells execute
//! concurrently under rayon, but results are collected in sweep order,
//! so thread scheduling never reaches the output.

use crate::runner::{run_experiment, run_streamed, ExperimentOptions};
use netaware_analysis::scenario::{CellSummary, MatrixReport};
use netaware_faults::{ChurnPlan, FaultPlan, LinkFaultPlan, SessionModel};
use netaware_proto::AppProfile;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One point on the session axis: a named combination of churn plan and
/// session model. `churn: null, model: null` is the static baseline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Axis label (appears in cell names; keep it short and path-safe).
    pub name: String,
    /// Churn plan for this point; `None` = static external population.
    pub churn: Option<ChurnPlan>,
    /// Session model reshaping the churn draws; `None` = legacy
    /// exponential process.
    pub model: Option<SessionModel>,
}

/// One point on the fault axis: named link impairments.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Axis label (appears in cell names).
    pub name: String,
    /// Link impairments; the default is a clean link.
    pub link: LinkFaultPlan,
}

/// The scenario matrix: one seed, one duration, four axes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MatrixConfig {
    /// Master seed shared by every cell.
    pub seed: u64,
    /// Simulated duration per cell, µs.
    pub duration_us: u64,
    /// Application profiles, by [`AppProfile::by_name`] name or alias.
    pub profiles: Vec<String>,
    /// Swarm scale factors (1.0 = paper-size overlays).
    pub scales: Vec<f64>,
    /// Session axis points.
    pub sessions: Vec<SessionSpec>,
    /// Fault axis points.
    pub faults: Vec<FaultSpec>,
}

impl MatrixConfig {
    /// A small ready-to-run example (also the CLI `matrix --example`
    /// template): two profiles — one paper app, one epidemic push — a
    /// single scale, baseline vs flash-crowd sessions, clean vs lossy
    /// links.
    pub fn example() -> Self {
        MatrixConfig {
            seed: 777,
            duration_us: 20_000_000,
            profiles: vec!["pplive".into(), "epidemic-rp".into()],
            scales: vec![0.02],
            sessions: vec![
                SessionSpec {
                    name: "baseline".into(),
                    churn: Some(ChurnPlan::preset()),
                    model: None,
                },
                SessionSpec {
                    name: "flashcrowd".into(),
                    churn: Some(ChurnPlan::preset()),
                    model: Some(SessionModel::flashcrowd_preset()),
                },
            ],
            faults: vec![
                FaultSpec {
                    name: "clean".into(),
                    link: LinkFaultPlan::default(),
                },
                FaultSpec {
                    name: "lossy".into(),
                    link: LinkFaultPlan {
                        loss: 0.05,
                        jitter_us: 2_000,
                        ..LinkFaultPlan::default()
                    },
                },
            ],
        }
    }

    /// The example config as pretty JSON (CLI template output).
    pub fn example_json() -> String {
        serde_json::to_string_pretty(&Self::example()).unwrap_or_default()
    }

    /// Parses and validates a config from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let cfg: MatrixConfig = serde_json::from_str(s).map_err(|e| e.to_string())?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Validates the config: non-empty axes, resolvable profile names,
    /// unique path-safe axis labels, and a valid fault plan per
    /// session/fault combination.
    pub fn validate(&self) -> Result<(), String> {
        if self.duration_us == 0 {
            return Err("duration_us must be > 0".into());
        }
        if self.profiles.is_empty()
            || self.scales.is_empty()
            || self.sessions.is_empty()
            || self.faults.is_empty()
        {
            return Err("every axis (profiles/scales/sessions/faults) needs ≥ 1 entry".into());
        }
        for p in &self.profiles {
            if AppProfile::by_name(p).is_none() {
                return Err(format!("unknown profile {p:?} (see AppProfile::all)"));
            }
        }
        for &s in &self.scales {
            if !(s > 0.0 && s.is_finite()) {
                return Err(format!("scale {s} must be finite and > 0"));
            }
        }
        let mut names: Vec<&str> = self.sessions.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.sessions.len() || names.contains(&"") {
            return Err("session names must be unique and non-empty".into());
        }
        let mut names: Vec<&str> = self.faults.iter().map(|f| f.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.faults.len() || names.contains(&"") {
            return Err("fault names must be unique and non-empty".into());
        }
        for sess in &self.sessions {
            for fs in &self.faults {
                cell_plan(sess, fs)
                    .validate()
                    .map_err(|e| format!("session {:?} × faults {:?}: {e}", sess.name, fs.name))?;
            }
        }
        Ok(())
    }
}

/// The fault plan one (session, fault) combination runs under.
fn cell_plan(sess: &SessionSpec, fs: &FaultSpec) -> FaultPlan {
    FaultPlan {
        link: fs.link,
        churn: sess.churn.clone(),
        session: sess.model.clone(),
    }
}

/// Stable cell label: `<profile>/x<scale>/<session>/<faults>`.
fn cell_label(profile: &str, scale: f64, session: &str, faults: &str) -> String {
    format!(
        "{}/x{}/{}/{}",
        profile.to_lowercase(),
        scale,
        session,
        faults
    )
}

/// Filesystem-safe form of a cell label (per-cell corpus directory).
fn cell_dirname(label: &str) -> String {
    label
        .chars()
        .map(|c| match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '.' | '-' => c,
            _ => '_',
        })
        .collect()
}

/// Runs the whole matrix. With `out_dir` set, every cell streams its
/// capture to `out_dir/<cell-dirname>/` (a re-analysable corpus);
/// without it, cells run in memory. Returns the report in fixed sweep
/// order.
pub fn run_matrix(cfg: &MatrixConfig, out_dir: Option<&Path>) -> Result<MatrixReport, String> {
    cfg.validate()?;
    // Enumerate cells in sweep order first; rayon preserves this order
    // in the collected results regardless of execution interleaving.
    let mut todo = Vec::new();
    for pname in &cfg.profiles {
        let profile =
            AppProfile::by_name(pname).ok_or_else(|| format!("unknown profile {pname:?}"))?;
        for &scale in &cfg.scales {
            for sess in &cfg.sessions {
                for fs in &cfg.faults {
                    todo.push((profile.clone(), scale, sess, fs));
                }
            }
        }
    }
    let cells: Vec<Result<CellSummary, String>> = todo
        .into_par_iter()
        .map(|(profile, scale, sess, fs)| {
            let label = cell_label(&profile.name, scale, &sess.name, &fs.name);
            let opts = ExperimentOptions {
                seed: cfg.seed,
                scale,
                duration_us: cfg.duration_us,
                faults: cell_plan(sess, fs),
                ..Default::default()
            };
            let out = match out_dir {
                Some(dir) => run_streamed(profile.clone(), &opts, &dir.join(cell_dirname(&label)))
                    .map_err(|e| format!("cell {label}: {e:?}"))?,
                None => run_experiment(profile.clone(), &opts),
            };
            let (report, f) = (&out.report, &out.analysis.friendliness);
            // Byte-wise download preference over all contributors;
            // `None` where the cell leaves it unmeasurable.
            let pref_bytes = |metric: &str| {
                out.analysis.preference(metric).and_then(|p| {
                    p.download_all
                        .is_measurable()
                        .then_some(p.download_all.bytes_pct)
                })
            };
            Ok(CellSummary {
                cell: label,
                profile: profile.name.clone(),
                scale,
                session: sess.name.clone(),
                faults: fs.name.clone(),
                continuity: report.continuity(),
                worst_continuity: report.worst_probe().map_or(1.0, |p| p.continuity),
                chunks_delivered: report.chunks_delivered,
                chunks_pushed: report.chunks_pushed,
                peers_departed: report.peers_departed,
                peers_arrived: report.peers_arrived,
                packets_dropped: report.packets_dropped,
                requests_requeued: report.requests_requeued,
                subnet_pct: f.subnet_pct,
                intra_as_pct: f.intra_as_pct,
                intra_cc_pct: f.intra_cc_pct,
                transit_pct: f.transit_pct,
                mean_hops_per_byte: f.mean_hops_per_byte,
                bw_bytes_pct: pref_bytes("BW"),
                as_bytes_pct: pref_bytes("AS"),
            })
        })
        .collect();
    let cells = cells.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(MatrixReport {
        seed: cfg.seed,
        duration_us: cfg.duration_us,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_config_validates_and_round_trips() {
        let cfg = MatrixConfig::from_json(&MatrixConfig::example_json()).expect("example parses");
        assert_eq!(cfg, MatrixConfig::example());
        assert_eq!(
            cfg.profiles.len() * cfg.sessions.len() * cfg.faults.len(),
            8
        );
    }

    #[test]
    fn validation_catches_config_mistakes() {
        let mut cfg = MatrixConfig::example();
        cfg.profiles.push("no-such-app".into());
        assert!(cfg.validate().is_err());

        let mut cfg = MatrixConfig::example();
        cfg.sessions[1].name = "baseline".into(); // duplicate
        assert!(cfg.validate().is_err());

        let mut cfg = MatrixConfig::example();
        cfg.sessions[1].churn = None; // model without churn
        assert!(cfg.validate().is_err());

        let mut cfg = MatrixConfig::example();
        cfg.scales = vec![0.0];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn cell_labels_are_stable_and_path_safe() {
        let label = cell_label("Epidemic-RP", 0.02, "flashcrowd", "lossy");
        assert_eq!(label, "epidemic-rp/x0.02/flashcrowd/lossy");
        assert_eq!(cell_dirname(&label), "epidemic-rp_x0.02_flashcrowd_lossy");
    }

    #[test]
    fn tiny_matrix_runs_and_is_deterministic() {
        let cfg = MatrixConfig {
            seed: 9,
            duration_us: 12_000_000,
            profiles: vec!["tvants".into(), "epidemic-ba".into()],
            scales: vec![0.02],
            sessions: vec![SessionSpec {
                name: "baseline".into(),
                churn: Some(ChurnPlan::preset()),
                model: None,
            }],
            faults: vec![FaultSpec {
                name: "clean".into(),
                link: LinkFaultPlan::default(),
            }],
        };
        let a = run_matrix(&cfg, None).expect("matrix runs");
        let b = run_matrix(&cfg, None).expect("matrix runs");
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.cells.len(), 2);
        assert_eq!(a.cells[0].profile, "TVAnts");
        assert_eq!(a.cells[1].profile, "Epidemic-BA");
        // The epidemic cell actually pushed; the pull-only cell did not.
        assert_eq!(a.cells[0].chunks_pushed, 0);
        assert!(
            a.cells[1].chunks_pushed > 0,
            "epidemic profile never pushed"
        );
    }
}
