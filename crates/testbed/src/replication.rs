//! Replicated experiments.
//!
//! The paper's numbers aggregate "more than 120 hours of experiments" —
//! many repeated 1-hour runs. This module runs the same configuration
//! under several seeds (concurrently) and reports cross-run statistics
//! for the headline metrics, so reproduction claims carry error bars
//! instead of single samples.

use crate::runner::{run_experiment, ExperimentOptions, ExperimentOutput};
use netaware_proto::AppProfile;
use netaware_sim::Welford;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Mean ± stddev of one metric across runs.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct RunStat {
    /// Cross-run mean.
    pub mean: f64,
    /// Cross-run standard deviation.
    pub stddev: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl RunStat {
    fn from_samples(xs: &[f64]) -> Self {
        let mut w = Welford::new();
        let mut min = f64::MAX;
        let mut max = f64::MIN;
        for &x in xs {
            if x.is_nan() {
                continue;
            }
            w.push(x);
            min = min.min(x);
            max = max.max(x);
        }
        if w.count() == 0 {
            return RunStat::default();
        }
        RunStat {
            mean: w.mean(),
            stddev: w.stddev(),
            min,
            max,
        }
    }
}

/// Cross-run statistics of the headline metrics for one application.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReplicatedSummary {
    /// Application name.
    pub app: String,
    /// Seeds used.
    pub seeds: Vec<u64>,
    /// Download byte-wise BW preference.
    pub bw_bytes_pct: RunStat,
    /// Download byte-wise AS preference (all contributors).
    pub as_bytes_pct: RunStat,
    /// Download byte-wise HOP preference, probes excluded.
    pub hop_nonw_bytes_pct: RunStat,
    /// Fig. 2 intra/inter ratio.
    pub r_ratio: RunStat,
    /// Table III contributor bytes share among probes.
    pub selfbias_bytes_pct: RunStat,
    /// Mean RX rate, kb/s.
    pub rx_kbps: RunStat,
    /// Stream continuity (ground truth).
    pub continuity: RunStat,
}

/// Runs `profile` under each seed and summarises across runs. Returns
/// the summary plus the individual outputs (in seed order).
pub fn run_replicated(
    profile: &AppProfile,
    base: &ExperimentOptions,
    seeds: &[u64],
) -> (ReplicatedSummary, Vec<ExperimentOutput>) {
    let outputs: Vec<ExperimentOutput> = seeds
        .par_iter()
        .map(|&seed| {
            let opts = ExperimentOptions {
                seed,
                ..base.clone()
            };
            run_experiment(profile.clone(), &opts)
        })
        .collect();

    let pick = |f: &dyn Fn(&ExperimentOutput) -> f64| -> RunStat {
        RunStat::from_samples(&outputs.iter().map(f).collect::<Vec<_>>())
    };
    let summary = ReplicatedSummary {
        app: profile.name.clone(),
        seeds: seeds.to_vec(),
        bw_bytes_pct: pick(&|o| {
            o.analysis
                .preference("BW")
                .map_or(f64::NAN, |p| p.download_all.bytes_pct)
        }),
        as_bytes_pct: pick(&|o| {
            o.analysis
                .preference("AS")
                .map_or(f64::NAN, |p| p.download_all.bytes_pct)
        }),
        hop_nonw_bytes_pct: pick(&|o| {
            o.analysis
                .preference("HOP")
                .map_or(f64::NAN, |p| p.download_nonw.bytes_pct)
        }),
        r_ratio: pick(&|o| o.analysis.asmatrix.r_ratio),
        selfbias_bytes_pct: pick(&|o| o.analysis.selfbias.contrib_bytes_pct),
        rx_kbps: pick(&|o| o.analysis.summary.rx_kbps.mean),
        continuity: pick(&|o| o.report.continuity()),
    };
    (summary, outputs)
}

impl ReplicatedSummary {
    /// Renders a one-line-per-metric report.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "{} over {} seeds:", self.app, self.seeds.len());
        let row = |name: &str, r: &RunStat| {
            format!(
                "  {:<22} {:8.2} ± {:6.2}  [{:.2}, {:.2}]\n",
                name, r.mean, r.stddev, r.min, r.max
            )
        };
        s.push_str(&row("BW bytes %", &self.bw_bytes_pct));
        s.push_str(&row("AS bytes %", &self.as_bytes_pct));
        s.push_str(&row("HOP bytes % (non-W)", &self.hop_nonw_bytes_pct));
        s.push_str(&row("Fig.2 R", &self.r_ratio));
        s.push_str(&row("self-bias bytes %", &self.selfbias_bytes_pct));
        s.push_str(&row("RX kb/s", &self.rx_kbps));
        s.push_str(&row("continuity", &self.continuity));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runstat_basics() {
        let r = RunStat::from_samples(&[1.0, 2.0, 3.0]);
        assert!((r.mean - 2.0).abs() < 1e-12);
        assert_eq!(r.min, 1.0);
        assert_eq!(r.max, 3.0);
        assert!(r.stddev > 0.0);
    }

    #[test]
    fn runstat_skips_nans() {
        let r = RunStat::from_samples(&[f64::NAN, 4.0]);
        assert_eq!(r.mean, 4.0);
        assert_eq!(r.stddev, 0.0);
    }

    #[test]
    fn runstat_empty_is_default() {
        let r = RunStat::from_samples(&[f64::NAN]);
        assert_eq!(r.mean, 0.0);
    }

    #[test]
    fn replication_is_seed_stable_on_conclusions() {
        let base = ExperimentOptions {
            scale: 0.03,
            duration_us: 45_000_000,
            ..Default::default()
        };
        let (summary, outputs) = run_replicated(&AppProfile::sopcast(), &base, &[11, 12, 13]);
        assert_eq!(outputs.len(), 3);
        assert_eq!(summary.seeds, vec![11, 12, 13]);
        // BW conclusion must hold for every seed, tightly.
        assert!(
            summary.bw_bytes_pct.min > 90.0,
            "{:?}",
            summary.bw_bytes_pct
        );
        assert!(summary.bw_bytes_pct.stddev < 5.0);
        assert!(summary.continuity.min > 0.9);
        let txt = summary.render();
        assert!(txt.contains("SopCast"));
        assert!(txt.contains("BW bytes %"));
    }
}
