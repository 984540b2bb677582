//! Named counters, gauges and histograms with a stable snapshot export.
//!
//! Counter and gauge updates are commutative atomic adds, so metrics stay
//! deterministic even when incremented from rayon workers (the analysis
//! layer); histograms reuse [`netaware_sim::stats::Histogram`] (see its
//! docs for the dense-integer semantics) behind a mutex, and merging is
//! bucket-wise addition, again order-independent. Snapshots are
//! `BTreeMap`-ordered, so the JSON/CSV exports are byte-stable.

#![expect(
    clippy::disallowed_types,
    reason = "audited: counter adds commute, locks are only taken map before cell, and \
              snapshots serialise in BTreeMap order"
)]

use crate::locked;
use netaware_sim::stats::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Handle to a named monotonically-increasing counter. Disabled handles
/// (from a disabled [`crate::Obs`]) are no-ops.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Handle to a named signed gauge (last-set value).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Handle to a named dense-integer histogram.
#[derive(Clone, Debug, Default)]
pub struct HistogramMetric(Option<Arc<Mutex<Histogram>>>);

impl HistogramMetric {
    /// Records one observation (clamped into the bucket range).
    pub fn record(&self, v: usize) {
        if let Some(cell) = &self.0 {
            locked(cell).push(v);
        }
    }
}

/// The metrics registry: name → cell. Handles are cheap Arc clones, so
/// hot paths register once and update lock-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<Histogram>>>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = locked(&self.counters);
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Some(Arc::clone(cell)))
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = locked(&self.gauges);
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Some(Arc::clone(cell)))
    }

    /// The histogram named `name` over values `0..upper`, registering it
    /// on first use (later calls keep the original bucket range).
    pub fn histogram(&self, name: &str, upper: usize) -> HistogramMetric {
        let mut map = locked(&self.histograms);
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(Histogram::new(upper.max(1)))));
        HistogramMetric(Some(Arc::clone(cell)))
    }

    /// A stable snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = locked(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = locked(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = locked(&self.histograms)
            .iter()
            .map(|(k, v)| {
                let h = locked(v);
                (
                    k.clone(),
                    HistogramSummary {
                        total: h.total(),
                        p50: h.quantile(0.5),
                        p90: h.quantile(0.9),
                        p99: h.quantile(0.99),
                        max: h.quantile(1.0),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Quantile digest of one histogram at snapshot time. Percentiles are
/// bucket indices from the fixed-bucket [`Histogram`], so they are
/// exactly reproducible across runs and platforms.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Total recorded weight.
    pub total: u64,
    /// Median bucket (`None` when empty).
    pub p50: Option<usize>,
    /// 90th-percentile bucket.
    pub p90: Option<usize>,
    /// 99th-percentile bucket.
    pub p99: Option<usize>,
    /// Highest occupied bucket.
    pub max: Option<usize>,
}

/// Point-in-time view of the registry, ordered by name for stable
/// serialisation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram digests by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// Pretty JSON export (byte-stable across identical runs).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// CSV export: `kind,name,stat,value`, one line per scalar, sorted.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,stat,value\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter,{name},value,{v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge,{name},value,{v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("histogram,{name},total,{}\n", h.total));
            for (stat, q) in [
                ("p50", h.p50),
                ("p90", h.p90),
                ("p99", h.p99),
                ("max", h.max),
            ] {
                if let Some(q) = q {
                    out.push_str(&format!("histogram,{name},{stat},{q}\n"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once() {
        let r = Registry::new();
        let a = r.counter("proto.chunks_requested");
        let b = r.counter("proto.chunks_requested");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = r.gauge("analysis.peers_observed");
        g.set(41);
        g.add(1);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn disabled_handles_are_noops() {
        let c = Counter::default();
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::default();
        g.set(9);
        assert_eq!(g.get(), 0);
        let h = HistogramMetric::default();
        h.record(3);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter("z.last").add(1);
        r.counter("a.first").add(2);
        r.gauge("m.mid").set(-7);
        let h = r.histogram("h.fanout", 16);
        for v in [1, 2, 2, 3, 9] {
            h.record(v);
        }
        let snap = r.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, ["a.first", "z.last"]);
        assert_eq!(snap.gauges["m.mid"], -7);
        let hs = &snap.histograms["h.fanout"];
        assert_eq!(hs.total, 5);
        assert_eq!(hs.p50, Some(2));
        assert_eq!(hs.p99, Some(9));
        assert_eq!(hs.max, Some(9));
        // Same registry state → identical exports.
        assert_eq!(snap.to_json(), r.snapshot().to_json());
        assert_eq!(snap.to_csv(), r.snapshot().to_csv());
        assert!(snap.to_csv().starts_with("kind,name,stat,value\n"));
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter("c").add(3);
        r.gauge("g").set(-2);
        let h = r.histogram("h", 128);
        for v in 0..100 {
            h.record(v);
        }
        let snap = r.snapshot();
        assert_eq!(snap.histograms["h"].p99, Some(98));
        let back: MetricsSnapshot =
            serde_json::from_str(&snap.to_json()).expect("snapshot round trip");
        assert_eq!(back, snap);
        // CSV carries the new percentile column.
        assert!(snap.to_csv().contains("histogram,h,p99,98\n"));
    }

    #[test]
    fn histogram_registration_keeps_first_range() {
        let r = Registry::new();
        r.histogram("h", 4).record(100); // clamps into 0..4
        r.histogram("h", 1024).record(100);
        let snap = r.snapshot();
        assert_eq!(snap.histograms["h"].max, Some(3));
        assert_eq!(snap.histograms["h"].total, 2);
    }
}
