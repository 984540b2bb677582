//! The event queue.
//!
//! A bucketed calendar-queue scheduler with the guarantees the
//! simulation relies on:
//!
//! 1. **Monotonic time** — events pop in non-decreasing timestamp
//!    order. A push before "now" saturates to "now" and is counted in
//!    [`Scheduler::saturated`], so callers can surface the drift.
//! 2. **Lane keys** — every entry carries an `(origin, oseq)` pair and
//!    pops in `(time, origin, oseq)` order. Origins are lanes (probe
//!    index, or the reserved [`ORIGIN_INIT`]/[`ORIGIN_CHURN`] lanes)
//!    and `oseq` is the lane's own insertion counter, so keys are
//!    unique and the key of an event is a pure function of the
//!    *emitting lane's* history, not of when other lanes happened to
//!    push (see DESIGN.md, "Event order").
//!
//! Internally the queue is a ring of time buckets (a calendar queue):
//! pushes append to their bucket unsorted, the bucket under the cursor
//! is sorted once when the cursor reaches it, and far-future entries
//! overflow into a `BTreeMap` keyed by bucket index until the ring
//! window slides over them. Bucket vectors are recycled as the ring
//! wraps, so steady-state push/pop traffic allocates nothing once
//! capacities have warmed up (pinned by the `CountingAlloc` tests).

use crate::time::SimTime;
use std::collections::BTreeMap;

/// Ring size, in buckets. With the default granularity the ring spans
/// ~2 s of simulated time; anything further out overflows to the far
/// map and is pulled in as the window slides.
const SLOTS: usize = 512;

/// Default bucket granularity in microseconds (4.096 ms): comfortably
/// finer than the tick/retry cadences that dominate the swarm workload,
/// so a busy bucket holds a handful of events.
const DEFAULT_WIDTH_US: u64 = 4_096;

/// Reserved origin for events pushed during bootstrap, before the
/// first event is handled.
pub const ORIGIN_INIT: u32 = u32::MAX - 1;

/// Reserved origin for churn events (peer departures and arrivals).
/// Sorts after every entity origin at equal timestamps, so churn state
/// transitions apply after every probe's events at that instant.
pub const ORIGIN_CHURN: u32 = u32::MAX;

struct Entry<E> {
    at: u64,
    origin: u32,
    oseq: u32,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (u64, u32, u32) {
        (self.at, self.origin, self.oseq)
    }
}

/// A deterministic event scheduler.
///
/// ```
/// use netaware_sim::{Scheduler, SimTime};
///
/// let mut s = Scheduler::new();
/// s.push_keyed(SimTime::from_ms(2), 1, 0, "later");
/// s.push_keyed(SimTime::from_ms(1), 1, 1, "sooner");
/// let (t, ev) = s.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_ms(1), "sooner"));
/// assert_eq!(s.now(), SimTime::from_ms(1));
/// ```
pub struct Scheduler<E> {
    now: SimTime,
    popped: u64,
    saturated: u64,
    len: usize,
    width: u64,
    /// Absolute index of the bucket under the cursor.
    cur: u64,
    /// Entries currently held in ring slots (as opposed to `far`).
    ring_len: usize,
    /// Whether the bucket under the cursor is sorted (descending by
    /// key, so the minimum pops from the back in O(1)).
    cur_sorted: bool,
    buckets: Vec<Vec<Entry<E>>>,
    far: BTreeMap<u64, Vec<Entry<E>>>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero.
    pub fn new() -> Self {
        Self::with_granularity(DEFAULT_WIDTH_US)
    }

    /// An empty scheduler with an explicit bucket width in
    /// microseconds (the default suits the swarm workload; tests use
    /// narrow widths to exercise ring wrap and far-map overflow).
    pub fn with_granularity(width_us: u64) -> Self {
        let width = width_us.max(1);
        let mut buckets = Vec::with_capacity(SLOTS);
        buckets.resize_with(SLOTS, Vec::new);
        Scheduler {
            now: SimTime::ZERO,
            popped: 0,
            saturated: 0,
            len: 0,
            width,
            cur: 0,
            ring_len: 0,
            cur_sorted: false,
            buckets,
            far: BTreeMap::new(),
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.popped
    }

    /// How many pushes asked for a past timestamp and were saturated
    /// to "now" (see [`Scheduler::push_keyed`]).
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// Schedules `event` at `at` under the lane key `(origin, oseq)`.
    /// Entries pop in `(time, origin, oseq)` order; callers keep one
    /// monotone `oseq` counter per origin, so keys are unique. A past
    /// `at` is corrected to "now" (time stays monotonic) and the
    /// correction is counted in [`Scheduler::saturated`].
    pub fn push_keyed(&mut self, at: SimTime, origin: u32, oseq: u32, event: E) {
        let at = if at < self.now {
            self.saturated += 1;
            self.now
        } else {
            at
        };
        self.insert(at, origin, oseq, event);
    }

    fn insert(&mut self, at: SimTime, origin: u32, oseq: u32, event: E) {
        let at_us = at.as_us();
        let e = Entry {
            at: at_us,
            origin,
            oseq,
            event,
        };
        self.len += 1;
        // The cursor can sit ahead of `now / width` after a far jump
        // (settle skips empty regions wholesale), so a perfectly legal
        // push at `now` may map to a bucket behind it. File such
        // entries into the cursor bucket: nothing earlier exists, and
        // within-bucket pops sort by full key, so order is preserved.
        let bi = (at_us / self.width).max(self.cur);
        if bi < self.cur + SLOTS as u64 {
            let slot = (bi % SLOTS as u64) as usize;
            if bi == self.cur && self.cur_sorted {
                // Keep the cursor bucket pop-ready.
                let k = e.key();
                let v = &mut self.buckets[slot];
                let pos = v.partition_point(|x| x.key() > k);
                v.insert(pos, e);
            } else {
                self.buckets[slot].push(e);
            }
            self.ring_len += 1;
        } else {
            self.far.entry(bi).or_default().push(e);
        }
    }

    /// Advances the cursor to the first non-empty bucket. Amortised
    /// O(1): each bucket is stepped over at most once per ring lap.
    fn settle(&mut self) {
        if self.len == 0 {
            return;
        }
        loop {
            if self.ring_len == 0 {
                // Jump the window straight to the first far bucket.
                let Some((&bi, _)) = self.far.iter().next() else {
                    return; // unreachable: len > 0 with empty ring implies far entries
                };
                self.cur = bi;
                self.cur_sorted = false;
                self.refill();
                continue;
            }
            let slot = (self.cur % SLOTS as u64) as usize;
            if !self.buckets[slot].is_empty() {
                return;
            }
            self.advance_one();
        }
    }

    fn advance_one(&mut self) {
        self.cur += 1;
        self.cur_sorted = false;
        // The bucket that just entered the window tail reuses the slot
        // the cursor left (which `settle` only vacates when empty).
        let newly = self.cur + SLOTS as u64 - 1;
        if let Some(mut v) = self.far.remove(&newly) {
            let slot = (newly % SLOTS as u64) as usize;
            self.ring_len += v.len();
            self.buckets[slot].append(&mut v);
        }
    }

    /// Pulls every far bucket inside the current window into the ring.
    fn refill(&mut self) {
        let end = self.cur + SLOTS as u64;
        while let Some((&bi, _)) = self.far.iter().next() {
            if bi >= end {
                break;
            }
            let Some(mut v) = self.far.remove(&bi) else {
                break; // unreachable: key was just observed
            };
            self.ring_len += v.len();
            let slot = (bi % SLOTS as u64) as usize;
            self.buckets[slot].append(&mut v);
        }
    }

    fn sort_current(&mut self) {
        if !self.cur_sorted {
            let slot = (self.cur % SLOTS as u64) as usize;
            self.buckets[slot].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            self.cur_sorted = true;
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        self.sort_current();
        let slot = (self.cur % SLOTS as u64) as usize;
        let e = self.buckets[slot].pop()?;
        self.len -= 1;
        self.ring_len -= 1;
        self.popped += 1;
        debug_assert!(e.at >= self.now.as_us());
        self.now = SimTime::from_us(e.at);
        Some((self.now, e.event))
    }

    /// Drains and handles events until the queue empties or the next
    /// event is past `horizon`; events beyond the horizon stay queued,
    /// and the clock ends at the horizon. Returns the number of events
    /// dispatched.
    pub fn run_until<F: FnMut(&mut Self, SimTime, E)>(
        &mut self,
        horizon: SimTime,
        mut handler: F,
    ) -> u64 {
        let start = self.popped;
        let end = horizon.as_us();
        while self.len > 0 {
            self.settle();
            self.sort_current();
            // After `settle` the cursor bucket holds the queue minimum.
            let slot = (self.cur % SLOTS as u64) as usize;
            match self.buckets[slot].last() {
                Some(e) if e.at <= end => {}
                _ => break,
            }
            let Some((at, ev)) = self.pop() else { break };
            handler(self, at, ev);
        }
        // The experiment formally ends at the horizon even if the queue
        // drained early.
        if self.now < horizon {
            self.now = horizon;
        }
        self.popped - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.push_keyed(SimTime::from_us(30), 1, 0, "c");
        s.push_keyed(SimTime::from_us(10), 1, 1, "a");
        s.push_keyed(SimTime::from_us(20), 1, 2, "b");
        let order: Vec<&str> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn keyed_entries_pop_in_origin_then_oseq_order() {
        let mut s = Scheduler::new();
        let t = SimTime::from_ms(3);
        s.push_keyed(t, 7, 0, "g");
        s.push_keyed(t, 2, 1, "b");
        s.push_keyed(t, 2, 0, "a");
        s.push_keyed(SimTime::from_ms(2), 9, 5, "first");
        s.push_keyed(t, ORIGIN_CHURN, 0, "churn-last");
        let order: Vec<&str> = std::iter::from_fn(|| s.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "a", "b", "g", "churn-last"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut s = Scheduler::new();
        s.push_keyed(SimTime::from_ms(2), 1, 0, ());
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_ms(2));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut s = Scheduler::new();
        for i in 1..=10u64 {
            s.push_keyed(SimTime::from_ms(i), 1, i as u32, i);
        }
        let mut seen = Vec::new();
        let n = s.run_until(SimTime::from_ms(5), |_, _, e| seen.push(e));
        assert_eq!(n, 5);
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.now(), SimTime::from_ms(5));
    }

    #[test]
    fn run_until_lets_handler_reschedule() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.push_keyed(SimTime::from_ms(1), 1, 0, 0);
        let mut count = 0;
        s.run_until(SimTime::from_ms(10), |sched, now, gen| {
            count += 1;
            if gen < 100 {
                sched.push_keyed(now + 1_000, 1, gen + 1, gen + 1);
            }
        });
        assert_eq!(count, 10); // 1ms..10ms inclusive
        assert_eq!(s.now(), SimTime::from_ms(10));
    }

    #[test]
    fn run_until_advances_clock_to_horizon_when_drained() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.push_keyed(SimTime::from_ms(1), 1, 0, ());
        s.run_until(SimTime::from_secs(60), |_, _, _| {});
        assert_eq!(s.now(), SimTime::from_secs(60));
        assert!(s.is_empty());
    }

    #[test]
    fn run_until_includes_the_horizon_and_resumes() {
        let mut s = Scheduler::new();
        s.push_keyed(SimTime::from_us(999), 1, 0, 1);
        s.push_keyed(SimTime::from_us(1_000), 1, 1, 2);
        s.push_keyed(SimTime::from_us(1_001), 1, 2, 3);
        let mut seen = Vec::new();
        let n = s.run_until(SimTime::from_us(999), |_, _, e| seen.push(e));
        assert_eq!(n, 1);
        assert_eq!(seen, vec![1]);
        assert_eq!(s.len(), 2);
        // A later call picks up exactly where the first stopped.
        s.run_until(SimTime::from_us(2_000), |_, _, e| seen.push(e));
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn dispatched_counter() {
        let mut s = Scheduler::new();
        s.push_keyed(SimTime::from_us(1), 1, 0, ());
        s.push_keyed(SimTime::from_us(2), 1, 1, ());
        s.pop();
        s.pop();
        assert_eq!(s.dispatched(), 2);
    }

    #[test]
    fn push_saturates_past_times_and_counts() {
        let mut s = Scheduler::new();
        s.push_keyed(SimTime::from_ms(10), 1, 0, 1);
        s.pop();
        s.push_keyed(SimTime::from_ms(5), 1, 1, 2);
        assert_eq!(s.saturated(), 1);
        let (t, ev) = s.pop().unwrap();
        assert_eq!(
            (t, ev),
            (SimTime::from_ms(10), 2),
            "fires at now, not in the past"
        );
        s.push_keyed(SimTime::from_ms(3), 4, 0, 3);
        assert_eq!(s.saturated(), 2);
        assert_eq!(s.pop().unwrap().0, SimTime::from_ms(10));
    }

    #[test]
    fn far_future_events_cross_the_ring_window() {
        // Narrow buckets so the ring spans only SLOTS µs.
        let mut s = Scheduler::with_granularity(1);
        s.push_keyed(SimTime::from_us(3), 1, 0, "near");
        s.push_keyed(SimTime::from_secs(600), 1, 1, "halo"); // far beyond the ring
        s.push_keyed(SimTime::from_us(700), 1, 2, "mid");
        assert_eq!(s.pop().unwrap().1, "near");
        assert_eq!(s.pop().unwrap().1, "mid");
        assert_eq!(s.pop().unwrap().1, "halo");
        assert_eq!(s.now(), SimTime::from_secs(600));
        assert!(s.pop().is_none());
    }

    /// The calendar queue must pop in exactly the reference order — a
    /// seeded random workload compared against a sorted-vector oracle,
    /// across granularities that stress bucket boundaries, ring wrap
    /// and the far map.
    #[test]
    fn matches_reference_order_on_random_workloads() {
        for &width in &[1u64, 7, 64, 4_096] {
            let mut rng = DetRng::stream(0xCA1E, "calendar");
            let mut s: Scheduler<u64> = Scheduler::with_granularity(width);
            let mut reference: Vec<(u64, u32, u32, u64)> = Vec::new();
            let mut now = 0u64;
            let mut popped = Vec::new();
            let mut expected = Vec::new();
            for step in 0..4_000u64 {
                if rng.chance(0.6) || reference.is_empty() {
                    // Mix of near, clustered and far-future times.
                    let at = now
                        + match rng.range(0u32..10) {
                            0..=5 => rng.range(0u64..2_000),
                            6..=8 => rng.range(0u64..200_000),
                            _ => rng.range(0u64..5_000_000_000),
                        };
                    let origin = rng.range(1u32..6);
                    let oseq = step as u32; // unique per push
                    s.push_keyed(SimTime::from_us(at), origin, oseq, step);
                    reference.push((at, origin, oseq, step));
                } else {
                    reference.sort_unstable();
                    let (at, _, _, v) = reference.remove(0);
                    now = at;
                    expected.push((at, v));
                    let (t, got) = s.pop().expect("oracle has entries");
                    popped.push((t.as_us(), got));
                }
            }
            reference.sort_unstable();
            for (at, _, _, v) in reference {
                expected.push((at, v));
                let (t, got) = s.pop().expect("oracle has entries");
                popped.push((t.as_us(), got));
            }
            assert_eq!(popped, expected, "width {width} diverged from oracle");
            assert!(s.pop().is_none());
        }
    }

    /// Interleaved pushes landing inside the already-sorted cursor
    /// bucket must keep the pop order exact.
    #[test]
    fn pushes_into_sorted_cursor_bucket_stay_ordered() {
        let mut s = Scheduler::with_granularity(1_000);
        s.push_keyed(SimTime::from_us(100), 1, 0, "a");
        s.push_keyed(SimTime::from_us(500), 1, 1, "d");
        assert_eq!(s.pop().unwrap().1, "a"); // sorts the cursor bucket
        s.push_keyed(SimTime::from_us(300), 2, 0, "b");
        s.push_keyed(SimTime::from_us(300), 3, 0, "c");
        assert_eq!(s.pop().unwrap().1, "b");
        assert_eq!(s.pop().unwrap().1, "c");
        assert_eq!(s.pop().unwrap().1, "d");
    }
}
