//! Access-link packet timing.
//!
//! The paper's BW inference rests on a physical fact: a chunk is sent as a
//! burst of packets that serialise back-to-back on the sender's bottleneck
//! link, so the receiver sees them spaced by the bottleneck transmission
//! time ("packet-pairs"). [`AccessSerializer`] reproduces exactly that: a
//! work-conserving FIFO whose departure times are
//! `max(arrival, previous departure) + bytes·8/rate`.
//!
//! Cross-traffic (packets to *other* receivers interleaving in the same
//! queue) only ever stretches the gap observed by one receiver, never
//! shrinks it — which is why the minimum IPG is a conservative capacity
//! witness, as the paper argues.

use crate::time::SimTime;

/// Work-conserving FIFO serialiser for one direction of an access link.
///
/// ```
/// use netaware_sim::{AccessSerializer, SimTime};
///
/// // A 10 Mb/s link: a 1250-byte packet serialises in exactly 1 ms —
/// // the packet-pair constant behind the paper's BW threshold.
/// let mut link = AccessSerializer::new(10_000_000);
/// let d1 = link.enqueue(SimTime::ZERO, 1250);
/// let d2 = link.enqueue(SimTime::ZERO, 1250);
/// assert_eq!(d1, SimTime::from_ms(1));
/// assert_eq!(d2 - d1, 1_000); // µs
/// ```
#[derive(Debug, Clone)]
pub struct AccessSerializer {
    rate_bps: u64,
    next_free: SimTime,
    /// Total bytes ever enqueued (for utilisation accounting).
    bytes: u64,
    /// Total packets ever enqueued.
    packets: u64,
    /// Busy time accumulated, in microseconds.
    busy_us: u64,
}

impl AccessSerializer {
    /// A serialiser draining at `rate_bps` bits per second.
    pub fn new(rate_bps: u64) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        AccessSerializer {
            rate_bps,
            next_free: SimTime::ZERO,
            bytes: 0,
            packets: 0,
            busy_us: 0,
        }
    }

    /// Transmission time of `bytes` on this link, in microseconds
    /// (rounded up — a packet is not delivered until its last bit).
    pub fn tx_time_us(&self, bytes: u32) -> u64 {
        let bits = bytes as u64 * 8;
        (bits * 1_000_000).div_ceil(self.rate_bps)
    }

    /// Enqueues a packet arriving at `now`; returns its departure time
    /// (when its last bit leaves the link).
    pub fn enqueue(&mut self, now: SimTime, bytes: u32) -> SimTime {
        let start = now.max(self.next_free);
        let tx = self.tx_time_us(bytes);
        let dep = start + tx;
        self.next_free = dep;
        self.bytes += bytes as u64;
        self.packets += 1;
        self.busy_us += tx;
        dep
    }

    /// When the link next becomes idle.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Queueing backlog (µs of work) an arrival at `now` would wait for.
    pub fn backlog_us(&self, now: SimTime) -> u64 {
        self.next_free.since(now)
    }

    /// Configured rate in bits per second.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Total bytes pushed through.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Total packets pushed through.
    pub fn total_packets(&self) -> u64 {
        self.packets
    }

    /// Cumulative busy time in microseconds.
    pub fn busy_us(&self) -> u64 {
        self.busy_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_matches_paper_constants() {
        // 1250 B over 10 Mb/s = exactly 1 ms — the paper's BW threshold.
        let l = AccessSerializer::new(10_000_000);
        assert_eq!(l.tx_time_us(1250), 1_000);
        // Over a 100 Mb/s LAN: 0.1 ms.
        let lan = AccessSerializer::new(100_000_000);
        assert_eq!(lan.tx_time_us(1250), 100);
        // Over 512 kb/s DSL uplink: ~19.5 ms.
        let dsl = AccessSerializer::new(512_000);
        assert_eq!(dsl.tx_time_us(1250), 19_532);
    }

    #[test]
    fn burst_departures_are_spaced_by_tx_time() {
        let mut l = AccessSerializer::new(10_000_000);
        let t0 = SimTime::from_ms(5);
        let d1 = l.enqueue(t0, 1250);
        let d2 = l.enqueue(t0, 1250);
        let d3 = l.enqueue(t0, 1250);
        assert_eq!(d1, t0 + 1_000);
        assert_eq!(d2 - d1, 1_000);
        assert_eq!(d3 - d2, 1_000);
    }

    #[test]
    fn idle_link_restarts_at_arrival() {
        let mut l = AccessSerializer::new(1_000_000);
        let d1 = l.enqueue(SimTime::from_ms(0), 125); // 1ms tx
        assert_eq!(d1, SimTime::from_ms(1));
        // Arrive long after the queue drained.
        let d2 = l.enqueue(SimTime::from_ms(100), 125);
        assert_eq!(d2, SimTime::from_ms(101));
    }

    #[test]
    fn departures_never_decrease() {
        let mut l = AccessSerializer::new(2_000_000);
        let mut last = SimTime::ZERO;
        for i in 0..1000u64 {
            // Erratic arrivals, some while busy, some after idle gaps.
            let now = SimTime::from_us(i * 137 % 50_000);
            let now = now.max(last); // arrivals move forward in sim time
            let dep = l.enqueue(now, 100 + (i % 1150) as u32);
            assert!(dep >= last);
            assert!(dep > now);
            last = dep;
        }
    }

    #[test]
    fn work_conservation() {
        // Saturating arrivals: busy time equals wall time of the burst.
        let mut l = AccessSerializer::new(8_000_000); // 1 MB/s
        let t0 = SimTime::ZERO;
        for _ in 0..100 {
            l.enqueue(t0, 1000); // each takes 1ms
        }
        assert_eq!(l.next_free(), SimTime::from_ms(100));
        assert_eq!(l.busy_us(), 100_000);
        assert_eq!(l.total_bytes(), 100_000);
        assert_eq!(l.total_packets(), 100);
    }

    #[test]
    fn backlog_accounting() {
        let mut l = AccessSerializer::new(8_000_000);
        let t0 = SimTime::ZERO;
        l.enqueue(t0, 1000);
        l.enqueue(t0, 1000);
        assert_eq!(l.backlog_us(t0), 2_000);
        assert_eq!(l.backlog_us(SimTime::from_ms(1)), 1_000);
        assert_eq!(l.backlog_us(SimTime::from_ms(10)), 0);
    }

    #[test]
    fn interleaving_only_stretches_per_receiver_gaps() {
        // Packets to receiver A with a packet to B wedged between:
        // A's observed gap grows beyond the back-to-back tx time.
        let mut l = AccessSerializer::new(10_000_000);
        let t0 = SimTime::ZERO;
        let a1 = l.enqueue(t0, 1250);
        let _b = l.enqueue(t0, 1250);
        let a2 = l.enqueue(t0, 1250);
        assert_eq!(a2 - a1, 2_000); // 2 tx times, not 1
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = AccessSerializer::new(0);
    }

    #[test]
    fn tx_time_rounds_up() {
        let l = AccessSerializer::new(3_000_000);
        // 100 B = 800 bits over 3 Mb/s = 266.66 µs → 267.
        assert_eq!(l.tx_time_us(100), 267);
    }
}
