//! Per-link fault model: packet loss, latency jitter, transient outages.
//!
//! [`LinkFaults`] is the mechanism layer of the fault-injection
//! subsystem: one instance models the impairments of one access link and
//! answers, per packet, "does this packet survive, and how much extra
//! delay does it pick up?". Policy (which links get which parameters)
//! lives one level up in `netaware-faults`; the protocol layer decides
//! what a dropped packet *means* (lost chunk, lost request, …).
//!
//! ## Determinism contract
//!
//! Every random decision draws from the [`DetRng`] handed to
//! [`LinkFaults::new`] — callers derive it from a dedicated stream so
//! fault draws never perturb protocol or scenario streams. Disabled
//! impairments consume **zero** draws: a link with `loss = 0` never rolls
//! a loss coin, a link without jitter never rolls a jitter offset, and a
//! link without outages never advances the outage state machine. A no-op
//! parameter set therefore leaves the RNG untouched entirely, which is
//! what keeps fault-disabled runs byte-identical to pre-fault baselines.
//!
//! The outage machine is advanced lazily by packet arrivals using a
//! monotone high-water-mark clock, so out-of-order queries (transfers
//! evaluate future-timestamped packets) cannot rewind it.

use crate::rng::DetRng;

/// Impairment parameters of one link (all default to "healthy").
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFaultParams {
    /// Independent per-packet drop probability, `0.0..=1.0`.
    pub loss: f64,
    /// Maximum extra one-way delay per packet, µs (uniform in
    /// `0..=jitter_us`).
    pub jitter_us: u64,
    /// Transient-outage arrival rate while the link is up, Hz.
    pub outage_rate_hz: f64,
    /// Mean outage duration, µs (exponentially distributed).
    pub outage_mean_us: u64,
}

impl LinkFaultParams {
    /// `true` when no impairment is configured.
    pub fn is_noop(&self) -> bool {
        self.loss <= 0.0 && self.jitter_us == 0 && !self.has_outages()
    }

    fn has_outages(&self) -> bool {
        self.outage_rate_hz > 0.0 && self.outage_mean_us > 0
    }
}

/// What happened to one packet crossing a faulty link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketFate {
    /// The packet was lost (loss coin or link outage).
    Dropped,
    /// The packet survived, delayed by `extra_delay_us` beyond the
    /// fault-free propagation time.
    Pass {
        /// Additional one-way delay from jitter, µs.
        extra_delay_us: u64,
    },
}

impl PacketFate {
    /// `true` when the packet was lost.
    pub fn is_dropped(&self) -> bool {
        matches!(self, PacketFate::Dropped)
    }
}

/// Fault state of one link: loss coin, jitter draw, and an alternating
/// up/down outage renewal process.
#[derive(Clone, Debug)]
pub struct LinkFaults {
    p: LinkFaultParams,
    rng: DetRng,
    /// Monotone high-water mark of query times, µs.
    clock_us: u64,
    /// Current outage-machine state.
    up: bool,
    /// Next up/down transition, µs (`u64::MAX` without outages).
    next_flip_us: u64,
    /// Packets dropped so far (loss + outage).
    drops: u64,
    /// Outages entered so far.
    outages: u64,
}

impl LinkFaults {
    /// Builds the fault state for one link. `rng` must be a dedicated
    /// stream (fault draws must not share a stream with protocol logic).
    pub fn new(params: LinkFaultParams, mut rng: DetRng) -> Self {
        let next_flip_us = if params.has_outages() {
            draw_up_period_us(&params, &mut rng)
        } else {
            u64::MAX
        };
        LinkFaults {
            p: params,
            rng,
            clock_us: 0,
            up: true,
            next_flip_us,
            drops: 0,
            outages: 0,
        }
    }

    /// The configured impairment parameters.
    pub fn params(&self) -> LinkFaultParams {
        self.p
    }

    /// Packets dropped so far (loss coin + outages).
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Outage periods entered so far.
    pub fn outages(&self) -> u64 {
        self.outages
    }

    /// Decides the fate of one packet crossing the link at `now_us`.
    ///
    /// Draw order is fixed (outage machine, loss coin, jitter offset) and
    /// disabled impairments draw nothing — both are part of the
    /// determinism contract.
    pub fn packet_fate(&mut self, now_us: u64) -> PacketFate {
        if !self.advance(now_us) {
            self.drops += 1;
            return PacketFate::Dropped;
        }
        if self.p.loss > 0.0 && self.rng.chance(self.p.loss) {
            self.drops += 1;
            return PacketFate::Dropped;
        }
        let extra_delay_us = if self.p.jitter_us > 0 {
            self.rng.range(0..=self.p.jitter_us)
        } else {
            0
        };
        PacketFate::Pass { extra_delay_us }
    }

    /// Advances the outage renewal process to `max(clock, now_us)` and
    /// returns whether the link is up there.
    fn advance(&mut self, now_us: u64) -> bool {
        self.clock_us = self.clock_us.max(now_us);
        if !self.p.has_outages() {
            return true;
        }
        while self.next_flip_us <= self.clock_us {
            self.up = !self.up;
            let hold = if self.up {
                draw_up_period_us(&self.p, &mut self.rng)
            } else {
                self.outages += 1;
                (self.rng.exp(self.p.outage_mean_us as f64) as u64).max(1)
            };
            self.next_flip_us = self.next_flip_us.saturating_add(hold);
        }
        self.up
    }
}

/// Draws the duration of one healthy period: outages arrive at
/// `outage_rate_hz` while the link is up, so up-periods are exponential
/// with mean `1/rate` seconds.
fn draw_up_period_us(p: &LinkFaultParams, rng: &mut DetRng) -> u64 {
    let mean_us = 1e6 / p.outage_rate_hz;
    (rng.exp(mean_us) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::stream(7, "fault-test")
    }

    #[test]
    fn noop_params_draw_nothing() {
        let mut healthy = LinkFaults::new(LinkFaultParams::default(), rng());
        for t in 0..1000u64 {
            assert_eq!(
                healthy.packet_fate(t * 1_000),
                PacketFate::Pass { extra_delay_us: 0 }
            );
        }
        // The RNG inside is still at its initial position.
        let mut untouched = rng();
        assert_eq!(healthy.rng.next_u64(), untouched.next_u64());
    }

    #[test]
    fn loss_rate_matches_parameter() {
        let mut f = LinkFaults::new(
            LinkFaultParams {
                loss: 0.2,
                ..LinkFaultParams::default()
            },
            rng(),
        );
        let n = 100_000;
        let dropped = (0..n).filter(|&t| f.packet_fate(t).is_dropped()).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "observed loss {rate}");
        assert_eq!(f.drops(), dropped as u64);
    }

    #[test]
    fn jitter_is_bounded_and_exercised() {
        let mut f = LinkFaults::new(
            LinkFaultParams {
                jitter_us: 5_000,
                ..LinkFaultParams::default()
            },
            rng(),
        );
        let mut seen_nonzero = false;
        for t in 0..10_000u64 {
            match f.packet_fate(t) {
                PacketFate::Pass { extra_delay_us } => {
                    assert!(extra_delay_us <= 5_000);
                    seen_nonzero |= extra_delay_us > 0;
                }
                PacketFate::Dropped => panic!("jitter-only link dropped a packet"),
            }
        }
        assert!(seen_nonzero, "jitter never produced a delay");
    }

    #[test]
    fn outages_alternate_and_drop_everything_while_down() {
        let mut f = LinkFaults::new(
            LinkFaultParams {
                outage_rate_hz: 2.0, // mean 0.5 s up
                outage_mean_us: 300_000,
                ..LinkFaultParams::default()
            },
            rng(),
        );
        // Sample one packet per millisecond over 60 s of sim time.
        let mut drops = 0u64;
        for t in 0..60_000u64 {
            if f.packet_fate(t * 1_000).is_dropped() {
                drops += 1;
            }
        }
        assert!(f.outages() > 10, "only {} outages in 60 s", f.outages());
        // Expected down fraction = 0.3/(0.5+0.3) = 37.5%; allow slack.
        let frac = drops as f64 / 60_000.0;
        assert!((0.15..0.6).contains(&frac), "down fraction {frac}");
    }

    #[test]
    fn out_of_order_queries_do_not_rewind_the_machine() {
        let params = LinkFaultParams {
            outage_rate_hz: 5.0,
            outage_mean_us: 100_000,
            ..LinkFaultParams::default()
        };
        let mut a = LinkFaults::new(params, rng());
        let mut b = LinkFaults::new(params, rng());
        // Same query sequence, but `b` sees one stale timestamp; the
        // high-water clock must keep both machines in lockstep afterward.
        for t in [0u64, 400_000, 200_000, 800_000, 1_200_000] {
            a.packet_fate(t);
            b.packet_fate(t);
        }
        assert_eq!(a.packet_fate(1_300_000), b.packet_fate(1_300_000));
    }

    #[test]
    fn same_seed_same_fates() {
        let params = LinkFaultParams {
            loss: 0.1,
            jitter_us: 2_000,
            outage_rate_hz: 1.0,
            outage_mean_us: 200_000,
        };
        let run = || {
            let mut f = LinkFaults::new(params, rng());
            (0..5_000u64)
                .map(|t| f.packet_fate(t * 500))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
