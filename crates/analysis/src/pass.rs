//! The streaming analysis engine: single-pass record accumulators.
//!
//! The paper's framework digested >140M packets per campaign; holding a
//! campaign in memory and letting every analysis module re-walk the
//! record slices independently cannot scale there. An [`AnalysisPass`]
//! is the alternative contract: an accumulator that observes each
//! [`PacketRecord`] of one probe **once**, in timestamp order, and
//! yields its result at the end. The drivers in [`crate::report`] bundle
//! the passes into one per-probe pass, so one record stream feeds every
//! pass in a single sweep — from an in-memory trace or straight off disk
//! ([`crate::report::analyze_corpus`]) with peak memory bounded by the
//! accumulator state, not the capture size.
//!
//! Probes are independent, so drivers parallelise across probes with
//! rayon and reduce the collected per-probe outputs sequentially in
//! slice order (ND03-clean: no unordered parallel float reductions).

use crate::flows::{FlowStats, ProbeFlows};
use crate::heuristics::AnalysisConfig;
use netaware_net::Ip;
use netaware_sim::{RateMeter, SimTime};
use netaware_trace::PacketRecord;
use std::collections::BTreeMap;

/// An incremental analysis over one probe's record stream.
///
/// Records arrive in timestamp order, exactly once each. Implementations
/// hold only their accumulator state, never the records themselves.
pub trait AnalysisPass {
    /// What the pass produces once the stream ends.
    type Output;

    /// Observes the next record of the stream.
    fn on_record(&mut self, rec: &PacketRecord);

    /// Consumes the accumulator into its result.
    fn finish(self) -> Self::Output;
}

/// Streams `records` once through `pass` and returns its output.
pub fn run_pass<'a, P: AnalysisPass>(
    records: impl IntoIterator<Item = &'a PacketRecord>,
    mut pass: P,
) -> P::Output {
    for rec in records {
        pass.on_record(rec);
    }
    pass.finish()
}

/// Incremental per-remote flow aggregation — the streaming form of
/// [`crate::flows::aggregate_probe`], producing the same [`ProbeFlows`]
/// (direction/size splits, min video inter-packet gap, last received
/// TTL, first/last timestamps).
///
/// Flows accumulate in a `Vec` of per-remote slots in first-seen order;
/// a [`SlotIndex`] maps each remote to its slot. Slots are only ever
/// appended, so a slot number handed out once stays valid for the whole
/// pass. [`AnalysisPass::finish`] sorts the slots into the keyed map.
pub struct FlowPass {
    probe: Ip,
    video_size_threshold: u16,
    slots: Vec<FlowSlot>,
    index: SlotIndex,
}

/// One remote's accumulator: its flow statistics plus the timestamp of
/// the last video packet received from it (the min-IPG train state,
/// meaningful once `stats.video_pkts_rx > 0`).
struct FlowSlot {
    stats: FlowStats,
    last_video_rx_us: u64,
}

impl FlowPass {
    /// An empty aggregation for `probe`.
    pub fn new(probe: Ip, cfg: &AnalysisConfig) -> Self {
        FlowPass {
            probe,
            video_size_threshold: cfg.video_size_threshold,
            slots: Vec::new(),
            index: SlotIndex::new(),
        }
    }

    /// The slot of `remote`, opened at `ts_us` when the remote is new.
    fn slot(&mut self, remote: Ip, ts_us: u64) -> &mut FlowSlot {
        let at = match self.index.get(remote) {
            Some(at) => at,
            None => {
                // Lossless: one slot per distinct `Ip`, and this remote
                // has none yet, so at most 2^32 - 1 slots precede it.
                let at = self.slots.len() as u32;
                self.slots.push(FlowSlot {
                    stats: FlowStats {
                        probe: self.probe,
                        remote,
                        first_ts_us: ts_us,
                        ..Default::default()
                    },
                    last_video_rx_us: 0,
                });
                self.index.insert(remote, at);
                at
            }
        };
        &mut self.slots[at as usize]
    }
}

impl AnalysisPass for FlowPass {
    type Output = ProbeFlows;

    fn on_record(&mut self, rec: &PacketRecord) {
        let probe = self.probe;
        let Some(remote) = rec.remote_of(probe) else {
            return; // foreign packet; defensive
        };
        let is_video = rec.size >= self.video_size_threshold;
        let slot = self.slot(remote, rec.ts_us);
        let f = &mut slot.stats;
        f.last_ts_us = f.last_ts_us.max(rec.ts_us);
        f.first_ts_us = f.first_ts_us.min(rec.ts_us);
        if rec.dst == probe {
            f.pkts_rx += 1;
            f.bytes_rx += rec.size as u64;
            f.rx_ttl = Some(rec.ttl);
            if is_video {
                if f.video_pkts_rx > 0 {
                    let gap = rec.ts_us.saturating_sub(slot.last_video_rx_us);
                    f.min_ipg_us = Some(f.min_ipg_us.map_or(gap, |g| g.min(gap)));
                }
                slot.last_video_rx_us = rec.ts_us;
                f.video_pkts_rx += 1;
                f.video_bytes_rx += rec.size as u64;
            }
        } else {
            f.pkts_tx += 1;
            f.bytes_tx += rec.size as u64;
            if is_video {
                f.video_pkts_tx += 1;
                f.video_bytes_tx += rec.size as u64;
            }
        }
    }

    fn finish(self) -> ProbeFlows {
        let FlowPass {
            probe,
            slots,
            index,
            ..
        } = self;
        drop(index); // freed before the output map is built: lower peak heap
        ProbeFlows {
            probe,
            flows: slots
                .into_iter()
                .map(|s| (s.stats.remote, s.stats))
                .collect(),
        }
    }
}

/// Entries in [`SlotIndex`]'s direct-mapped table (a power of two).
const RECENT_ENTRIES: usize = 1 << 10;

/// Remote → slot lookup for [`FlowPass`], cheapest check first: the
/// remote of the previous record (most records continue a chunk train
/// from the same remote), then a direct-mapped table of recently seen
/// remotes, then an ordered map holding every remote. A hash map would
/// make the last step O(1) too, but its iteration order is not
/// reproducible and `crates/clippy.toml` bans it from the library
/// crates; the first two steps leave the ordered map only a few
/// percent of the records.
struct SlotIndex {
    last: Option<(Ip, u32)>,
    recent: Box<[Option<(Ip, u32)>]>,
    all: BTreeMap<Ip, u32>,
}

impl SlotIndex {
    fn new() -> Self {
        SlotIndex {
            last: None,
            recent: vec![None; RECENT_ENTRIES].into_boxed_slice(),
            all: BTreeMap::new(),
        }
    }

    /// The direct-mapped entry `remote` lives in (Fibonacci hashing:
    /// the top bits of a multiplicative hash).
    fn entry(remote: Ip) -> usize {
        (remote.0.wrapping_mul(0x9e37_79b9) >> (32 - RECENT_ENTRIES.trailing_zeros())) as usize
    }

    /// The slot of `remote`, if it has one.
    fn get(&mut self, remote: Ip) -> Option<u32> {
        if let Some((ip, at)) = self.last {
            if ip == remote {
                return Some(at);
            }
        }
        let e = Self::entry(remote);
        let at = match self.recent[e] {
            Some((ip, at)) if ip == remote => at,
            _ => {
                let at = *self.all.get(&remote)?;
                self.recent[e] = Some((remote, at));
                at
            }
        };
        self.last = Some((remote, at));
        Some(at)
    }

    /// Records that `remote` lives in slot `at`.
    fn insert(&mut self, remote: Ip, at: u32) {
        self.all.insert(remote, at);
        self.recent[Self::entry(remote)] = Some((remote, at));
        self.last = Some((remote, at));
    }
}

/// One probe's windowed stream rates, as Table II consumes them.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeRates {
    /// Mean windowed download rate, kb/s.
    pub rx_mean_kbps: f64,
    /// Maximum windowed download rate, kb/s.
    pub rx_max_kbps: f64,
    /// Mean windowed upload rate, kb/s.
    pub tx_mean_kbps: f64,
    /// Maximum windowed upload rate, kb/s.
    pub tx_max_kbps: f64,
}

/// Incremental windowed rate measurement for one probe — the per-record
/// half of Table II, which [`crate::summary`] reduces. Timestamps are
/// clamped into the experiment horizon.
pub struct RatePass {
    probe: Ip,
    duration_us: u64,
    rx: RateMeter,
    tx: RateMeter,
}

impl RatePass {
    /// Rate meters for `probe` over a `duration_us`-long experiment,
    /// windowed at `cfg.rate_window_us`.
    pub fn new(probe: Ip, duration_us: u64, cfg: &AnalysisConfig) -> Self {
        RatePass {
            probe,
            duration_us,
            rx: RateMeter::new(SimTime::from_us(cfg.rate_window_us)),
            tx: RateMeter::new(SimTime::from_us(cfg.rate_window_us)),
        }
    }
}

impl AnalysisPass for RatePass {
    type Output = ProbeRates;

    fn on_record(&mut self, rec: &PacketRecord) {
        let ts = SimTime::from_us(rec.ts_us.min(self.duration_us.saturating_sub(1)));
        if rec.dst == self.probe {
            self.rx.record(ts, rec.size as u64);
        } else {
            self.tx.record(ts, rec.size as u64);
        }
    }

    fn finish(mut self) -> ProbeRates {
        let horizon = SimTime::from_us(self.duration_us);
        self.rx.finish(horizon);
        self.tx.finish(horizon);
        ProbeRates {
            rx_mean_kbps: self.rx.mean_kbps(),
            rx_max_kbps: self.rx.max_kbps(),
            tx_mean_kbps: self.tx.mean_kbps(),
            tx_max_kbps: self.tx.max_kbps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaware_trace::PayloadKind;
    use std::collections::BTreeSet;

    fn rec(ts: u64, src: Ip, dst: Ip, size: u16, ttl: u8) -> PacketRecord {
        PacketRecord {
            ts_us: ts,
            src,
            dst,
            sport: 1,
            dport: 2,
            size,
            ttl,
            kind: PayloadKind::Video,
        }
    }

    /// The reference aggregation: group each remote's records in a
    /// `BTreeMap`, in stream order, then read every field straight off
    /// its definition in [`FlowStats`].
    fn naive_flows(probe: Ip, records: &[PacketRecord], cfg: &AnalysisConfig) -> Vec<FlowStats> {
        let mut by_remote: BTreeMap<Ip, Vec<&PacketRecord>> = BTreeMap::new();
        for r in records {
            let remote = if r.src == probe {
                r.dst
            } else if r.dst == probe {
                r.src
            } else {
                continue;
            };
            by_remote.entry(remote).or_default().push(r);
        }
        let video = |r: &&&PacketRecord| r.size >= cfg.video_size_threshold;
        by_remote
            .into_iter()
            .map(|(remote, recs)| {
                let (rx, tx): (Vec<&PacketRecord>, Vec<&PacketRecord>) =
                    recs.iter().partition(|r| r.dst == probe);
                let bytes = |rs: &[&PacketRecord]| rs.iter().map(|r| r.size as u64).sum::<u64>();
                let video_rx: Vec<&PacketRecord> = rx.iter().filter(video).copied().collect();
                let video_tx: Vec<&PacketRecord> = tx.iter().filter(video).copied().collect();
                FlowStats {
                    probe,
                    remote,
                    pkts_rx: rx.len() as u64,
                    pkts_tx: tx.len() as u64,
                    bytes_rx: bytes(&rx),
                    bytes_tx: bytes(&tx),
                    video_bytes_rx: bytes(&video_rx),
                    video_bytes_tx: bytes(&video_tx),
                    video_pkts_rx: video_rx.len() as u64,
                    video_pkts_tx: video_tx.len() as u64,
                    min_ipg_us: video_rx
                        .windows(2)
                        .map(|w| w[1].ts_us.saturating_sub(w[0].ts_us))
                        .min(),
                    rx_ttl: rx.last().map(|r| r.ttl),
                    first_ts_us: recs.iter().map(|r| r.ts_us).min().unwrap_or(0),
                    last_ts_us: recs.iter().map(|r| r.ts_us).max().unwrap_or(0),
                }
            })
            .collect()
    }

    /// The far end of the oracle trace's foreign records.
    const FOREIGN: Ip = Ip(0xc0a8_0001);

    /// A seeded probe stream that exercises every [`SlotIndex`] path:
    /// enough distinct remotes that each direct-mapped entry is shared
    /// by at least two of them, several chunk trains interleaved at
    /// once, revisits of long-evicted remotes, runs of equal timestamps,
    /// sizes one byte below and exactly at the video threshold, RX-only,
    /// TX-only and two-way remotes, and foreign records.
    fn oracle_trace(seed: u64, probe: Ip, cfg: &AnalysisConfig) -> Vec<PacketRecord> {
        assert_ne!(probe, FOREIGN);
        let mut rng = netaware_sim::DetRng::stream(seed, "flow-pass-oracle");
        let mut remotes = Vec::new();
        let mut seen = BTreeSet::new();
        let mut per_entry = vec![0u32; RECENT_ENTRIES];
        while remotes.len() < 2_000 || per_entry.iter().any(|&n| n < 2) {
            let remote = Ip(rng.next_u64() as u32);
            if remote != probe && remote != FOREIGN && seen.insert(remote) {
                per_entry[SlotIndex::entry(remote)] += 1;
                remotes.push(remote);
            }
        }
        let thr = cfg.video_size_threshold;
        let sizes = [60, thr - 1, thr, thr + 1, 1250];
        // (remote, 0 = RX only / 1 = TX only / 2 = both, records left)
        let mut active: Vec<(Ip, u8, u32)> = Vec::new();
        let mut next = 0;
        let mut ts = 0u64;
        let mut out = Vec::new();
        while next < remotes.len() || !active.is_empty() {
            while active.len() < 6 && next < remotes.len() {
                active.push((remotes[next], rng.range(0..3u8), rng.range(1..12u32)));
                next += 1;
            }
            ts += rng.range(0..4u64) * 40; // 0: equal timestamps
            let k = rng.range(0..active.len());
            let (remote, mode) = if next > 0 && rng.chance(0.05) {
                (remotes[rng.range(0..next)], 2) // a long-evicted remote
            } else {
                let a = &mut active[k];
                a.2 -= 1;
                (a.0, a.1)
            };
            if active[k].2 == 0 {
                active.swap_remove(k);
            }
            let rx = match mode {
                0 => true,
                1 => false,
                _ => rng.chance(0.5),
            };
            let (src, dst) = if rx { (remote, probe) } else { (probe, remote) };
            out.push(PacketRecord {
                ts_us: ts,
                src,
                dst,
                sport: 1,
                dport: 2,
                size: *rng.pick(&sizes),
                ttl: rng.range(100..128u8),
                kind: PayloadKind::Video,
            });
            if rng.chance(0.03) {
                out.push(rec(ts, remote, FOREIGN, 1250, 100));
            }
        }
        out
    }

    #[test]
    fn flow_pass_matches_naive_reference() {
        let probe = Ip::from_octets(10, 0, 0, 1);
        let cfg = AnalysisConfig::default();
        for seed in [1, 2, 3] {
            let records = oracle_trace(seed, probe, &cfg);
            let streamed = run_pass(&records, FlowPass::new(probe, &cfg));
            let reference = naive_flows(probe, &records, &cfg);
            // The trace really has what the oracle is meant to cover.
            assert!(reference.len() >= 2_000, "only {} remotes", reference.len());
            assert!(reference.iter().any(|f| f.pkts_tx == 0));
            assert!(reference.iter().any(|f| f.pkts_rx == 0));
            assert!(reference.iter().any(|f| f.min_ipg_us == Some(0)));
            assert!(records.windows(2).any(|w| w[0].ts_us == w[1].ts_us));
            assert!(records.iter().any(|r| r.dst == FOREIGN));
            for size in [cfg.video_size_threshold - 1, cfg.video_size_threshold] {
                assert!(records.iter().any(|r| r.size == size));
            }
            assert_eq!(streamed.probe, probe);
            assert_eq!(
                streamed.flows.keys().collect::<Vec<_>>(),
                reference.iter().map(|f| &f.remote).collect::<Vec<_>>()
            );
            for want in &reference {
                let remote = want.remote;
                assert_eq!(
                    &streamed.flows[&remote], want,
                    "seed {seed}, remote {remote}"
                );
            }
        }
    }

    #[test]
    fn empty_stream_finishes_clean() {
        let cfg = AnalysisConfig::default();
        let probe = Ip::from_octets(10, 0, 0, 1);
        let flows = run_pass([].iter(), FlowPass::new(probe, &cfg));
        assert_eq!(flows.peers_seen(), 0);
        let rates = run_pass([].iter(), RatePass::new(probe, 1_000_000, &cfg));
        assert_eq!(rates.rx_max_kbps, 0.0);
    }
}
