//! Per-probe traces and experiment trace sets.

use crate::format::TraceError;
use crate::record::PacketRecord;
use netaware_net::Ip;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The time-ordered packet capture at one vantage point.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProbeTrace {
    /// The capturing host.
    pub probe: Ip,
    records: Vec<PacketRecord>,
    /// Whether `records` is known to be sorted by timestamp.
    sorted: bool,
}

impl ProbeTrace {
    /// An empty capture at `probe`.
    pub fn new(probe: Ip) -> Self {
        ProbeTrace {
            probe,
            records: Vec::new(),
            sorted: true,
        }
    }

    /// Appends a captured packet. The packet must touch the probe.
    pub fn push(&mut self, rec: PacketRecord) {
        debug_assert!(
            rec.src == self.probe || rec.dst == self.probe,
            "captured packet does not touch probe {}",
            self.probe
        );
        if let Some(last) = self.records.last() {
            if rec.ts_us < last.ts_us {
                self.sorted = false;
            }
        }
        self.records.push(rec);
    }

    /// The time-sorted records.
    ///
    /// Requires [`ProbeTrace::finalize`] (or [`TraceSet::finalize`]) to
    /// have run if any record arrived out of order — sorting is an
    /// explicit, one-time step, never a hidden side effect of a read.
    /// Debug builds assert the invariant; release builds trust it.
    pub fn records(&self) -> &[PacketRecord] {
        debug_assert!(
            self.sorted,
            "probe {} trace read before finalize(); records are not time-sorted",
            self.probe
        );
        &self.records
    }

    /// The records without enforcing order (read-only contexts that are
    /// order-insensitive or do their own per-flow ordering).
    pub fn records_unsorted(&self) -> &[PacketRecord] {
        &self.records
    }

    /// Whether the records are known to be in timestamp order (always
    /// true after [`ProbeTrace::finalize`]).
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total captured bytes (both directions).
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.size as u64).sum()
    }

    /// Sorts records stably by timestamp (idempotent).
    pub fn finalize(&mut self) {
        if !self.sorted {
            sort_by_ts(&mut self.records, &mut Vec::new());
            self.sorted = true;
        }
    }

    /// How many records lie at or before `ts_us`.
    pub(crate) fn count_through(&self, ts_us: u64) -> usize {
        self.records.iter().filter(|r| r.ts_us <= ts_us).count()
    }

    /// Moves every record at or before `ts_us` to the end of `out` and
    /// keeps the later ones; both sides stay in push order. Stable sorts
    /// of what a capture split at rising `ts_us` hands out, with every
    /// record pushed after a split later than that split's `ts_us`, join
    /// into exactly what one [`ProbeTrace::finalize`] of the whole
    /// capture would produce.
    pub(crate) fn split_through(&mut self, ts_us: u64, out: &mut Vec<PacketRecord>) {
        // What stays is a subsequence, so `sorted` still holds if it held.
        self.records.retain(|r| {
            let sealed = r.ts_us <= ts_us;
            if sealed {
                out.push(*r);
            }
            !sealed
        });
    }

    /// A trace of records already sorted by timestamp.
    pub(crate) fn from_sorted(probe: Ip, records: Vec<PacketRecord>) -> Self {
        debug_assert!(records.is_sorted_by_key(|r| r.ts_us));
        ProbeTrace {
            probe,
            records,
            sorted: true,
        }
    }

    /// Index in `self` of the first record earlier than the one before
    /// it, the first record being compared with `after_us`.
    pub(crate) fn first_out_of_order(&self, after_us: u64) -> Option<usize> {
        if self.sorted {
            return self
                .records
                .first()
                .filter(|r| r.ts_us < after_us)
                .map(|_| 0);
        }
        let mut last = after_us;
        self.records
            .iter()
            .position(|r| std::mem::replace(&mut last, r.ts_us) > r.ts_us)
    }

    /// Appends the records of `later`, a later segment of the same
    /// capture. Fails with [`TraceError::OutOfOrder`], appending
    /// nothing, if that would put a record before an earlier one.
    pub(crate) fn append(&mut self, later: ProbeTrace) -> Result<(), TraceError> {
        let last_us = self.records.last().map_or(0, |r| r.ts_us);
        if let Some(i) = later.first_out_of_order(last_us) {
            return Err(TraceError::OutOfOrder((self.len() + i) as u64));
        }
        if self.records.is_empty() {
            self.records = later.records;
        } else {
            self.records.extend_from_slice(&later.records);
        }
        Ok(())
    }

    /// Builds from pre-collected records (sorts them).
    pub fn from_records(probe: Ip, mut records: Vec<PacketRecord>) -> Self {
        sort_by_ts(&mut records, &mut Vec::new());
        ProbeTrace {
            probe,
            records,
            sorted: true,
        }
    }
}

/// Sorts `records` stably by timestamp: a least-significant-digit radix
/// sort over each timestamp's offset from the earliest one, 11 bits per
/// counting pass. One second of a capture spans about 20 bits, so a
/// seal's sort takes two passes where a comparison sort takes
/// `log2(n)`. `scratch` is the second buffer the passes move records
/// between; a caller that sorts again keeps it for its capacity.
pub(crate) fn sort_by_ts(records: &mut [PacketRecord], scratch: &mut Vec<PacketRecord>) {
    const BITS: u32 = 11;
    let Some(min) = records.iter().map(|r| r.ts_us).min() else {
        return;
    };
    let span = records.iter().map(|r| r.ts_us - min).max().unwrap_or(0);
    if span == 0 {
        return;
    }
    scratch.clear();
    scratch.extend_from_slice(records);
    let (mut src, mut dst) = (&mut *records, &mut scratch[..]);
    let mut shift = 0;
    while shift < u64::BITS && span >> shift != 0 {
        let digit = |r: &PacketRecord| ((r.ts_us - min) >> shift) as usize & ((1 << BITS) - 1);
        let mut next = [0usize; 1 << BITS];
        for r in src.iter() {
            next[digit(r)] += 1;
        }
        let mut at = 0;
        for slot in &mut next {
            at += std::mem::replace(slot, at);
        }
        for r in src.iter() {
            let d = digit(r);
            dst[next[d]] = *r;
            next[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        shift += BITS;
    }
    // After an odd number of passes the sorted records sit in `scratch`.
    if (shift / BITS) % 2 == 1 {
        records.copy_from_slice(scratch);
    }
}

/// All captures of one experiment, plus the metadata the analysis needs:
/// which application ran, for how long, and the probe set `W`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TraceSet {
    /// Human-readable application name ("PPLive", "SopCast", "TVAnts", …).
    pub app: String,
    /// Experiment duration in microseconds.
    pub duration_us: u64,
    /// One trace per probe.
    pub traces: Vec<ProbeTrace>,
}

impl TraceSet {
    /// An empty set for `app`.
    pub fn new(app: impl Into<String>, duration_us: u64) -> Self {
        TraceSet {
            app: app.into(),
            duration_us,
            traces: Vec::new(),
        }
    }

    /// Adds a probe's capture.
    pub fn add(&mut self, trace: ProbeTrace) {
        self.traces.push(trace);
    }

    /// The probe set `W` — every vantage point in the experiment
    /// (including probes that captured nothing).
    pub fn probe_set(&self) -> BTreeSet<Ip> {
        self.traces.iter().map(|t| t.probe).collect()
    }

    /// Total packets across all probes.
    pub fn total_packets(&self) -> usize {
        self.traces.iter().map(|t| t.len()).sum()
    }

    /// Total bytes across all probes.
    pub fn total_bytes(&self) -> u64 {
        self.traces.iter().map(|t| t.total_bytes()).sum()
    }

    /// Sorts every trace (idempotent; call once after capture).
    pub fn finalize(&mut self) {
        for t in &mut self.traces {
            t.finalize();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PayloadKind;

    fn rec(ts: u64, src: Ip, dst: Ip, size: u16) -> PacketRecord {
        PacketRecord {
            ts_us: ts,
            src,
            dst,
            sport: 1,
            dport: 2,
            size,
            ttl: 120,
            kind: PayloadKind::Video,
        }
    }

    #[test]
    fn push_and_read_in_order() {
        let p = Ip::from_octets(10, 0, 0, 1);
        let r = Ip::from_octets(10, 0, 0, 2);
        let mut t = ProbeTrace::new(p);
        t.push(rec(10, p, r, 100));
        t.push(rec(20, r, p, 200));
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_bytes(), 300);
        assert_eq!(t.records()[0].ts_us, 10);
    }

    #[test]
    fn out_of_order_pushes_get_sorted_by_finalize() {
        let p = Ip::from_octets(10, 0, 0, 1);
        let r = Ip::from_octets(10, 0, 0, 2);
        let mut t = ProbeTrace::new(p);
        t.push(rec(20, p, r, 100));
        t.push(rec(10, r, p, 100));
        assert!(!t.is_sorted());
        t.finalize();
        assert!(t.is_sorted());
        let ts: Vec<u64> = t.records().iter().map(|x| x.ts_us).collect();
        assert_eq!(ts, vec![10, 20]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before finalize")]
    fn unsorted_read_panics_in_debug() {
        let p = Ip::from_octets(10, 0, 0, 1);
        let r = Ip::from_octets(10, 0, 0, 2);
        let mut t = ProbeTrace::new(p);
        t.push(rec(20, p, r, 100));
        t.push(rec(10, r, p, 100));
        let _ = t.records();
    }

    #[test]
    fn radix_sort_matches_a_stable_comparison_sort() {
        let p = Ip::from_octets(10, 0, 0, 1);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };
        // Spans that take no pass, one, two (a seal's), three and six;
        // the sizes tell records with equal timestamps apart. One scratch
        // buffer serves every sort, shrinking inputs after larger ones.
        let mut scratch = Vec::new();
        for (span, n) in [
            (0, 5),
            (1_000, 500),
            (2_500_000, 3_000),
            (5_000_000_000, 2_000),
            (u64::MAX, 700),
        ] {
            let recs: Vec<PacketRecord> = (0..n)
                .map(|i| {
                    let ts = if span == u64::MAX {
                        next() << 31 | next()
                    } else {
                        7_000_000 + next() % (span + 1) / 16 * 16
                    };
                    rec(ts, p, Ip::from_octets(58, 0, 0, 1), i as u16)
                })
                .collect();
            let mut want = recs.clone();
            want.sort_by_key(|r| r.ts_us);
            let mut again = recs.clone();
            sort_by_ts(&mut again, &mut scratch);
            assert_eq!(again, want);
            assert_eq!(ProbeTrace::from_records(p, recs).records(), &want[..]);
        }
    }

    /// A capture pushed out of order, but never at or before a split
    /// already made, split at rising times and each piece sorted, joins
    /// into one stable sort of the whole capture.
    #[test]
    fn split_pieces_sorted_one_by_one_join_into_the_whole_sort() {
        let p = Ip::from_octets(10, 0, 0, 1);
        let ext = Ip::from_octets(58, 0, 0, 1);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut capture = ProbeTrace::new(p);
        let (mut all, mut joined, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
        for window in 1..=6u64 {
            // Each record lands up to 1.5 windows after the window's
            // start, at 10-µs steps, so equal timestamps are common and
            // some fall on the split itself.
            for i in 0..400u16 {
                let ts = (window - 1) * 1_000 + 10 + next() % 1_500 / 10 * 10;
                let r = rec(ts, ext, p, i);
                capture.push(r);
                all.push(r);
            }
            let through = if window == 6 {
                u64::MAX
            } else {
                window * 1_000
            };
            let mut piece = Vec::new();
            let want = capture.count_through(through);
            capture.split_through(through, &mut piece);
            assert_eq!(piece.len(), want);
            assert!(capture.records_unsorted().iter().all(|r| r.ts_us > through));
            sort_by_ts(&mut piece, &mut scratch);
            joined.extend_from_slice(ProbeTrace::from_sorted(p, piece).records());
        }
        assert!(capture.is_empty());
        assert_eq!(joined, ProbeTrace::from_records(p, all).records());
    }

    #[test]
    fn from_records_sorts() {
        let p = Ip::from_octets(10, 0, 0, 1);
        let r = Ip::from_octets(10, 0, 0, 2);
        let t = ProbeTrace::from_records(p, vec![rec(30, p, r, 1), rec(5, r, p, 1)]);
        assert_eq!(t.records_unsorted()[0].ts_us, 5);
    }

    #[test]
    fn trace_set_aggregates() {
        let p1 = Ip::from_octets(10, 0, 0, 1);
        let p2 = Ip::from_octets(10, 0, 1, 1);
        let ext = Ip::from_octets(58, 0, 0, 1);
        let mut s = TraceSet::new("SopCast", 60_000_000);
        let mut t1 = ProbeTrace::new(p1);
        t1.push(rec(1, p1, ext, 500));
        let mut t2 = ProbeTrace::new(p2);
        t2.push(rec(2, ext, p2, 700));
        t2.push(rec(3, p2, ext, 100));
        s.add(t1);
        s.add(t2);
        assert_eq!(s.total_packets(), 3);
        assert_eq!(s.total_bytes(), 1300);
        assert_eq!(s.probe_set().len(), 2);
        assert!(s.probe_set().contains(&p1));
    }

    #[test]
    fn empty_probe_still_in_probe_set() {
        let mut s = TraceSet::new("TVAnts", 1);
        s.add(ProbeTrace::new(Ip::from_octets(1, 1, 1, 1)));
        assert_eq!(s.probe_set().len(), 1);
        assert_eq!(s.total_packets(), 0);
    }
}
