//! Randomized property tests for the DES primitives, driven by a seeded
//! [`DetRng`] so every run explores the same cases.

use netaware_sim::{
    AccessSerializer, DetRng, Histogram, MeanMax, RateMeter, Scheduler, SimTime, Welford,
};

const CASES: usize = 256;

fn vec_of<T>(rng: &mut DetRng, max_len: usize, mut f: impl FnMut(&mut DetRng) -> T) -> Vec<T> {
    let n = rng.range(0..max_len);
    (0..n).map(|_| f(rng)).collect()
}

/// The scheduler pops every event exactly once, in `(time, origin,
/// oseq)` order, with each origin numbering its own pushes.
#[test]
fn scheduler_pops_in_lane_key_order() {
    let mut rng = DetRng::stream(0xD15EA5E, "sim/scheduler_lane_key_order");
    for _ in 0..CASES {
        let pushes = vec_of(&mut rng, 200, |r| (r.range(0..10_000u64), r.range(1..5u32)));
        let mut s = Scheduler::new();
        let mut next = [0u32; 5];
        let mut expected = Vec::new();
        for (i, &(t, origin)) in pushes.iter().enumerate() {
            let oseq = next[origin as usize];
            next[origin as usize] += 1;
            s.push_keyed(SimTime::from_us(t), origin, oseq, i);
            expected.push((t, origin, oseq, i));
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = s.pop() {
            popped.push((t.as_us(), i));
        }
        expected.sort_unstable();
        let expected: Vec<(u64, usize)> = expected.iter().map(|&(t, _, _, i)| (t, i)).collect();
        assert_eq!(popped, expected);
    }
}

/// run_until dispatches exactly the events at or before the horizon.
#[test]
fn run_until_partitions_by_horizon() {
    let mut rng = DetRng::stream(0xD15EA5E, "sim/run_until_partitions");
    for _ in 0..CASES {
        let times = vec_of(&mut rng, 200, |r| r.range(0..10_000u64));
        let horizon: u64 = rng.range(0..10_000u64);
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.push_keyed(SimTime::from_us(t), 1, i as u32, i);
        }
        let mut seen = Vec::new();
        s.run_until(SimTime::from_us(horizon), |_, t, _| seen.push(t.as_us()));
        assert_eq!(seen.len(), times.iter().filter(|&&t| t <= horizon).count());
        assert_eq!(s.len(), times.iter().filter(|&&t| t > horizon).count());
        assert!(s.now() >= SimTime::from_us(horizon));
    }
}

/// The serialiser is work-conserving and FIFO: departures are strictly
/// increasing, spaced at least one transmission time, and total busy time
/// equals the sum of transmission times.
#[test]
fn serializer_work_conservation() {
    let mut rng = DetRng::stream(0xD15EA5E, "sim/serializer_work_conservation");
    for _ in 0..CASES {
        let rate: u64 = rng.range(100_000..200_000_000u64);
        let mut arrivals = vec_of(&mut rng, 200, |r| {
            (r.range(0..5_000_000u64), r.range(40..1500u32))
        });
        if arrivals.is_empty() {
            arrivals.push((rng.range(0..5_000_000u64), rng.range(40..1500u32)));
        }
        let mut sorted = arrivals.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut l = AccessSerializer::new(rate);
        let mut prev_dep = SimTime::ZERO;
        let mut busy = 0u64;
        for &(t, size) in &sorted {
            let dep = l.enqueue(SimTime::from_us(t), size);
            let tx = l.tx_time_us(size);
            busy += tx;
            assert!(dep >= prev_dep + tx, "FIFO spacing violated");
            assert!(
                dep.as_us() >= t + tx,
                "departed before transmission finished"
            );
            prev_dep = dep;
        }
        assert_eq!(l.busy_us(), busy);
        assert_eq!(l.total_packets(), sorted.len() as u64);
        // Last departure is at most (first arrival + total work + idle gaps).
        assert!(prev_dep.as_us() <= sorted.last().unwrap().0 + busy + sorted[0].0);
    }
}

fn signed_1e6(rng: &mut DetRng) -> f64 {
    rng.range(-1e6..1e6)
}

/// Welford matches the naive two-pass computation.
#[test]
fn welford_matches_naive() {
    let mut rng = DetRng::stream(0xD15EA5E, "sim/welford_naive");
    for _ in 0..CASES {
        let mut xs = vec_of(&mut rng, 200, signed_1e6);
        if xs.is_empty() {
            xs.push(signed_1e6(&mut rng));
        }
        let mut w = Welford::new();
        xs.iter().for_each(|&x| w.push(x));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((w.variance() - var).abs() < 1e-4 * (1.0 + var));
    }
}

/// Merging Welford accumulators over any split equals the whole.
#[test]
fn welford_merge_any_split() {
    let mut rng = DetRng::stream(0xD15EA5E, "sim/welford_merge");
    for _ in 0..CASES {
        let mut xs = vec_of(&mut rng, 200, signed_1e6);
        while xs.len() < 2 {
            xs.push(signed_1e6(&mut rng));
        }
        let cut = rng.range(0..xs.len());
        let mut whole = Welford::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = Welford::new();
        let mut b = Welford::new();
        xs[..cut].iter().for_each(|&x| a.push(x));
        xs[cut..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
    }
}

/// MeanMax max is the true max, mean within the value range.
#[test]
fn meanmax_invariants() {
    let mut rng = DetRng::stream(0xD15EA5E, "sim/meanmax");
    for _ in 0..CASES {
        let mut xs = vec_of(&mut rng, 100, signed_1e6);
        if xs.is_empty() {
            xs.push(signed_1e6(&mut rng));
        }
        let mut m = MeanMax::new();
        xs.iter().for_each(|&x| m.push(x));
        let true_max = xs.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(m.max(), true_max);
        let lo = xs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(m.mean() >= lo - 1e-9 && m.mean() <= true_max + 1e-9);
    }
}

/// Histogram quantiles agree with the sorted-vector definition.
#[test]
fn histogram_quantile_matches_sorted() {
    let mut rng = DetRng::stream(0xD15EA5E, "sim/histogram_quantile");
    for _ in 0..CASES {
        let mut vals = vec_of(&mut rng, 300, |r| r.range(0..100usize));
        if vals.is_empty() {
            vals.push(rng.range(0..100usize));
        }
        let q: f64 = rng.range(0.0..1.0);
        let mut h = Histogram::new(100);
        vals.iter().for_each(|&v| h.push(v));
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        assert_eq!(h.quantile(q), Some(sorted[rank - 1]));
    }
}

/// RateMeter conserves bytes and mean ≤ max.
#[test]
fn rate_meter_conserves() {
    let mut rng = DetRng::stream(0xD15EA5E, "sim/rate_meter");
    for _ in 0..CASES {
        let mut events = vec_of(&mut rng, 200, |r| {
            (r.range(0..60_000_000u64), r.range(1..100_000u64))
        });
        if events.is_empty() {
            events.push((rng.range(0..60_000_000u64), rng.range(1..100_000u64)));
        }
        let mut sorted = events.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut m = RateMeter::new(SimTime::from_secs(1));
        for &(t, bytes) in &sorted {
            m.record(SimTime::from_us(t), bytes);
        }
        m.finish(SimTime::from_secs(61));
        assert_eq!(m.total_bytes(), sorted.iter().map(|&(_, b)| b).sum::<u64>());
        assert!(m.mean_kbps() <= m.max_kbps() + 1e-9);
        assert!(m.mean_kbps() >= 0.0);
    }
}
