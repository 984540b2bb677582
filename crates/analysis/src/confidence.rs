//! Probe-level bootstrap confidence intervals.
//!
//! The paper reports each preference as a single percentage aggregated
//! over 44 vantage points. Whether 12.8 % is meaningfully different from
//! 3.5 % depends on how much the probes disagree — so this module
//! resamples *probes* with replacement (the correct exchangeable unit:
//! flows within a probe are dependent) and reports percentile bootstrap
//! intervals for any preference cell.

use crate::flows::ProbeFlows;
use crate::heuristics::AnalysisConfig;
use crate::partition::Metric;
use crate::preference::{preference, Dir, PrefValue};
use netaware_net::{GeoRegistry, Ip};
use netaware_sim::DetRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A bootstrap interval around a point estimate.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Interval {
    /// The full-sample point estimate.
    pub point: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
}

impl Interval {
    /// Whether the interval excludes a value (e.g. the 50 % coin-flip
    /// line for HOP, or 0 for set-membership metrics).
    pub fn excludes(&self, v: f64) -> bool {
        v < self.lo || v > self.hi
    }
}

/// Bootstrap CI for one metric/direction's byte-wise preference.
///
/// `level` is the two-sided confidence level (e.g. 0.95); `replicates`
/// the number of bootstrap resamples. Returns `None` when the point
/// estimate is unmeasurable.
#[allow(clippy::too_many_arguments)]
pub fn bootstrap_bytes_ci(
    pfs: &[ProbeFlows],
    registry: &GeoRegistry,
    cfg: &AnalysisConfig,
    hop_threshold: u8,
    metric: Metric,
    dir: Dir,
    exclude: Option<&BTreeSet<Ip>>,
    level: f64,
    replicates: usize,
    seed: u64,
) -> Option<Interval> {
    let point = preference(pfs, registry, cfg, hop_threshold, metric, dir, exclude);
    if !point.is_measurable() {
        return None;
    }
    let n = pfs.len();
    if n == 0 {
        return None;
    }
    let mut rng = DetRng::stream(seed, "bootstrap");
    let mut samples: Vec<f64> = Vec::with_capacity(replicates);
    let mut resample: Vec<ProbeFlows> = Vec::with_capacity(n);
    for _ in 0..replicates {
        resample.clear();
        for _ in 0..n {
            resample.push(pfs[rng.range(0..n)].clone());
        }
        let v: PrefValue = preference(
            &resample,
            registry,
            cfg,
            hop_threshold,
            metric,
            dir,
            exclude,
        );
        if v.is_measurable() && !v.bytes_pct.is_nan() {
            samples.push(v.bytes_pct);
        }
    }
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let alpha = (1.0 - level.clamp(0.0, 1.0)) / 2.0;
    let idx = |q: f64| -> f64 {
        let k = (q * (samples.len() - 1) as f64).round() as usize;
        samples[k.min(samples.len() - 1)]
    };
    Some(Interval {
        point: point.bytes_pct,
        lo: idx(alpha),
        hi: idx(1.0 - alpha),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::FlowStats;
    use netaware_net::{AsId, AsInfo, AsKind, CountryCode, GeoRegistryBuilder, Prefix};

    fn reg() -> GeoRegistry {
        let mut b = GeoRegistryBuilder::new();
        b.register_as(AsInfo::new(100, CountryCode::CN, AsKind::Carrier, "CN"));
        b.announce(Prefix::of(Ip::from_octets(58, 0, 0, 0), 8), AsId(100))
            .unwrap();
        b.build()
    }

    fn probe_flows(probe_idx: u8, high_share: f64) -> ProbeFlows {
        let probe = Ip::from_octets(10, 0, probe_idx, 1);
        let mut pf = ProbeFlows {
            probe,
            ..Default::default()
        };
        for i in 0..20u32 {
            let high = (i as f64) < 20.0 * high_share;
            let remote = Ip(0x3A00_0000 | ((probe_idx as u32) << 8) | i);
            pf.flows.insert(
                remote,
                FlowStats {
                    probe,
                    remote,
                    bytes_rx: 30_000,
                    video_bytes_rx: 30_000,
                    video_pkts_rx: 24,
                    min_ipg_us: Some(if high { 100 } else { 20_000 }),
                    rx_ttl: Some(110),
                    ..Default::default()
                },
            );
        }
        pf
    }

    #[test]
    fn homogeneous_probes_give_tight_interval() {
        let pfs: Vec<ProbeFlows> = (0..12).map(|i| probe_flows(i, 0.8)).collect();
        let ci = bootstrap_bytes_ci(
            &pfs,
            &reg(),
            &AnalysisConfig::default(),
            19,
            Metric::Bw,
            Dir::Download,
            None,
            0.95,
            200,
            7,
        )
        .unwrap();
        assert!((ci.point - 80.0).abs() < 1.0, "point {}", ci.point);
        assert!(ci.hi - ci.lo < 5.0, "interval [{}, {}]", ci.lo, ci.hi);
        assert!(ci.excludes(50.0));
    }

    #[test]
    fn heterogeneous_probes_widen_the_interval() {
        // Half the probes see 100% high-bw, half see 0%.
        let pfs: Vec<ProbeFlows> = (0..12)
            .map(|i| probe_flows(i, if i % 2 == 0 { 1.0 } else { 0.0 }))
            .collect();
        let ci = bootstrap_bytes_ci(
            &pfs,
            &reg(),
            &AnalysisConfig::default(),
            19,
            Metric::Bw,
            Dir::Download,
            None,
            0.95,
            200,
            7,
        )
        .unwrap();
        assert!(ci.hi - ci.lo > 20.0, "interval [{}, {}]", ci.lo, ci.hi);
        assert!(!ci.excludes(50.0));
    }

    #[test]
    fn unmeasurable_returns_none() {
        let ci = bootstrap_bytes_ci(
            &[],
            &reg(),
            &AnalysisConfig::default(),
            19,
            Metric::Bw,
            Dir::Download,
            None,
            0.95,
            50,
            1,
        );
        assert!(ci.is_none());
    }

    #[test]
    fn deterministic_in_seed() {
        let pfs: Vec<ProbeFlows> = (0..6).map(|i| probe_flows(i, 0.5)).collect();
        let run = |seed| {
            bootstrap_bytes_ci(
                &pfs,
                &reg(),
                &AnalysisConfig::default(),
                19,
                Metric::Bw,
                Dir::Download,
                None,
                0.9,
                100,
                seed,
            )
            .unwrap()
        };
        let (a, b) = (run(5), run(5));
        assert_eq!(a.lo.to_bits(), b.lo.to_bits());
        assert_eq!(a.hi.to_bits(), b.hi.to_bits());
    }
}
