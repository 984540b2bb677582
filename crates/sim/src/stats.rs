//! Streaming statistics.
//!
//! Table II of the paper reports mean and maximum stream rates and peer
//! counts "as seen by NAPA-WINE peers": [`RateMeter`] reproduces its
//! windowed rate measurement (bytes per fixed [`SimTime`] window → kb/s,
//! with mean and max over windows — the meter is driven entirely by
//! simulated time, never the wall clock, so its readings are
//! deterministic), [`MeanMax`] and [`Welford`] aggregate scalar
//! observations, and [`Histogram`] supports the hop-median used by the
//! HOP partition and backs the `netaware-obs` metrics-registry
//! histograms.

use crate::time::SimTime;

/// Streaming mean/variance (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.mean = mean;
        self.n = n;
    }
}

/// Tracks the mean and maximum of a series (the two columns of Table II).
#[derive(Debug, Clone, Default)]
pub struct MeanMax {
    w: Welford,
    max: f64,
}

impl MeanMax {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.w.push(x);
        if x > self.max || self.w.count() == 1 {
            self.max = x;
        }
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        self.w.mean()
    }

    /// Maximum observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.w.count() == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.w.count()
    }

    /// Merges another tracker.
    pub fn merge(&mut self, other: &MeanMax) {
        if other.count() == 0 {
            return;
        }
        let had = self.w.count() > 0;
        self.w.merge(&other.w);
        self.max = if had {
            self.max.max(other.max)
        } else {
            other.max
        };
    }
}

/// Windowed byte-rate meter: accumulates bytes, closes fixed windows, and
/// reports the mean and max window rate in kb/s.
#[derive(Debug, Clone)]
pub struct RateMeter {
    window_us: u64,
    window_start: SimTime,
    window_bytes: u64,
    rates_kbps: MeanMax,
    total_bytes: u64,
}

impl RateMeter {
    /// A meter with the given window length (the paper effectively uses
    /// seconds-scale windows; we default to 10 s in the testbed).
    pub fn new(window: SimTime) -> Self {
        assert!(window.as_us() > 0, "window must be positive");
        RateMeter {
            window_us: window.as_us(),
            window_start: SimTime::ZERO,
            window_bytes: 0,
            rates_kbps: MeanMax::new(),
            total_bytes: 0,
        }
    }

    /// Records `bytes` observed at time `now`, closing any windows that
    /// elapsed since the previous record.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        self.roll_to(now);
        self.window_bytes += bytes;
        self.total_bytes += bytes;
    }

    /// Closes windows up to `now` (call at experiment end before reading).
    pub fn finish(&mut self, now: SimTime) {
        self.roll_to(now);
        // Close the final partial window if it saw any traffic.
        if self.window_bytes > 0 {
            let elapsed = now.since(self.window_start).max(1);
            let kbps = self.window_bytes as f64 * 8.0 / elapsed as f64 * 1_000.0;
            self.rates_kbps.push(kbps);
            self.window_bytes = 0;
        }
    }

    fn roll_to(&mut self, now: SimTime) {
        while now.since(self.window_start) >= self.window_us {
            let kbps = self.window_bytes as f64 * 8.0 / self.window_us as f64 * 1_000.0;
            self.rates_kbps.push(kbps);
            self.window_bytes = 0;
            self.window_start += self.window_us;
        }
    }

    /// Mean window rate, kb/s.
    pub fn mean_kbps(&self) -> f64 {
        self.rates_kbps.mean()
    }

    /// Max window rate, kb/s.
    pub fn max_kbps(&self) -> f64 {
        self.rates_kbps.max()
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

/// Dense integer histogram over `0..N`, with exact quantiles. Used for
/// hop-count distributions (hop counts fit comfortably in `0..256`).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// A histogram over values `0..upper`.
    pub fn new(upper: usize) -> Self {
        Histogram {
            counts: vec![0; upper],
            total: 0,
        }
    }

    /// Adds `v`, clamping into range.
    pub fn push(&mut self, v: usize) {
        let idx = v.min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total weight.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count at a bucket.
    pub fn count(&self, v: usize) -> u64 {
        self.counts.get(v).copied().unwrap_or(0)
    }

    /// Exact q-quantile (0 ≤ q ≤ 1) of the recorded distribution; `None`
    /// when empty. `quantile(0.5)` is the median the HOP partition uses.
    pub fn quantile(&self, q: f64) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= rank {
                return Some(i);
            }
        }
        Some(self.counts.len() - 1)
    }

    /// Merges another histogram of the same size.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.counts.len(), other.counts.len());
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_mean_variance() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.stddev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 37 % 19) as f64).collect();
        let mut whole = Welford::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = Welford::new();
        let mut b = Welford::new();
        xs[..30].iter().for_each(|&x| a.push(x));
        xs[30..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn welford_merge_empty_cases() {
        let mut a = Welford::new();
        a.merge(&Welford::new());
        assert_eq!(a.count(), 0);
        let mut b = Welford::new();
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 3.0);
    }

    #[test]
    fn meanmax_tracks_both() {
        let mut m = MeanMax::new();
        for x in [1.0, 5.0, 3.0] {
            m.push(x);
        }
        assert!((m.mean() - 3.0).abs() < 1e-12);
        assert_eq!(m.max(), 5.0);
        assert_eq!(m.count(), 3);
    }

    #[test]
    fn meanmax_negative_values() {
        let mut m = MeanMax::new();
        m.push(-5.0);
        m.push(-2.0);
        assert_eq!(m.max(), -2.0);
    }

    #[test]
    fn meanmax_empty_reads_zero() {
        let m = MeanMax::new();
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.max(), 0.0);
    }

    #[test]
    fn meanmax_merge() {
        let mut a = MeanMax::new();
        a.push(1.0);
        let mut b = MeanMax::new();
        b.push(9.0);
        b.push(2.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 9.0);
        assert!((a.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rate_meter_constant_rate() {
        // 48 kB/s = 384 kb/s (the paper's nominal stream rate).
        let mut m = RateMeter::new(SimTime::from_secs(1));
        for s in 0..60u64 {
            for p in 0..48u64 {
                m.record(SimTime::from_us(s * 1_000_000 + p * 20_000), 1000);
            }
        }
        m.finish(SimTime::from_secs(60));
        assert!((m.mean_kbps() - 384.0).abs() < 1.0, "{}", m.mean_kbps());
        assert!((m.max_kbps() - 384.0).abs() < 1.0);
        assert_eq!(m.total_bytes(), 60 * 48 * 1000);
    }

    #[test]
    fn rate_meter_bursty_max_above_mean() {
        let mut m = RateMeter::new(SimTime::from_secs(1));
        m.record(SimTime::from_ms(100), 100_000); // burst in window 0
        m.record(SimTime::from_secs(5), 1_000);
        m.finish(SimTime::from_secs(10));
        assert!(m.max_kbps() > m.mean_kbps());
        assert!((m.max_kbps() - 800.0).abs() < 1.0);
    }

    #[test]
    fn rate_meter_idle_windows_count_as_zero() {
        let mut m = RateMeter::new(SimTime::from_secs(1));
        m.record(SimTime::from_ms(500), 1000);
        m.finish(SimTime::from_secs(10));
        // one active window out of ten → mean is a tenth of the burst rate
        assert!(m.mean_kbps() < m.max_kbps());
        assert!((m.mean_kbps() - 0.8).abs() < 0.01, "{}", m.mean_kbps());
    }

    #[test]
    fn histogram_median_and_quantiles() {
        let mut h = Histogram::new(64);
        for v in [1, 2, 3, 4, 5, 6, 7, 8, 9] {
            h.push(v);
        }
        assert_eq!(h.quantile(0.5), Some(5));
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(9));
    }

    #[test]
    fn histogram_clamps_into_last_bucket() {
        let mut h = Histogram::new(8);
        h.push(3);
        h.push(100);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(7), 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn histogram_empty_quantile_none() {
        let h = Histogram::new(8);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(8);
        a.push(1);
        let mut b = Histogram::new(8);
        b.push(2);
        b.push(2);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.quantile(0.5), Some(2));
    }
}
