//! Video chunks and stream parameters.
//!
//! All three systems under study are mesh-pull: the source slices the
//! stream into fixed-duration chunks, peers advertise what they hold in
//! buffer maps and pull missing chunks from neighbors. The experiments
//! used the CCTV-1 channel at a nominal 384 kb/s (WM9), which is this
//! module's default stream.

use serde::{Deserialize, Serialize};

/// Index of a chunk within the stream (chunk 0 starts at t = 0).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct ChunkId(pub u32);

impl ChunkId {
    /// The next chunk.
    pub const fn next(self) -> ChunkId {
        ChunkId(self.0 + 1)
    }
}

/// Stream encoding and chunking parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StreamParams {
    /// Nominal video rate, bits per second.
    pub rate_bps: u64,
    /// Chunk payload size in bytes.
    pub chunk_bytes: u32,
    /// Maximum video packet payload on the wire (the paper's packet-pair
    /// argument is built around ~1250-byte packets).
    pub packet_bytes: u32,
}

impl StreamParams {
    /// The CCTV-1 experiment stream: 384 kb/s, ~half-second chunks of
    /// exactly twenty 1250-byte packets (full-size trains keep every
    /// video packet well above the signalling sizes, as in the real
    /// systems).
    pub const fn cctv1() -> Self {
        StreamParams {
            rate_bps: 384_000,
            chunk_bytes: 25_000, // ≈0.52 s at 384 kb/s
            packet_bytes: 1_250,
        }
    }

    /// Wall-clock duration of one chunk, in microseconds.
    pub const fn chunk_interval_us(&self) -> u64 {
        (self.chunk_bytes as u64 * 8 * 1_000_000) / self.rate_bps
    }

    /// Number of packets a chunk fragments into.
    pub const fn packets_per_chunk(&self) -> u32 {
        self.chunk_bytes.div_ceil(self.packet_bytes)
    }

    /// Size of the `i`-th packet of a chunk (the last one may be short).
    pub const fn packet_size(&self, i: u32) -> u32 {
        let full = self.packets_per_chunk();
        debug_assert!(i < full);
        if i + 1 < full || self.chunk_bytes.is_multiple_of(self.packet_bytes) {
            self.packet_bytes
        } else {
            self.chunk_bytes % self.packet_bytes
        }
    }

    /// The newest chunk fully generated by the source at time `now_us`.
    /// `None` before the first chunk completes.
    pub const fn head_at(&self, now_us: u64) -> Option<ChunkId> {
        let interval = self.chunk_interval_us();
        if now_us < interval {
            None
        } else {
            Some(ChunkId((now_us / interval - 1) as u32))
        }
    }

    /// Generation (completion) time of a chunk, µs.
    pub const fn chunk_time_us(&self, c: ChunkId) -> u64 {
        (c.0 as u64 + 1) * self.chunk_interval_us()
    }
}

/// A sliding-window buffer map over up to 128 chunks.
///
/// `base` is the oldest chunk still tracked; bit `i` says whether chunk
/// `base + i` is held. Chunks older than the window are forgotten (played
/// out), matching how live-streaming buffers work — there is no point
/// holding or advertising chunks behind the playout deadline.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BufferMap {
    base: u32,
    bits: u128,
}

/// Window width of a [`BufferMap`], in chunks.
pub const BUFFER_WINDOW: u32 = 128;

impl BufferMap {
    /// An empty map based at chunk 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Oldest tracked chunk.
    pub fn base(&self) -> ChunkId {
        ChunkId(self.base)
    }

    /// Marks `c` as held. Chunks before the base are ignored (already
    /// played out); chunks beyond the window slide the base forward,
    /// dropping the oldest entries.
    pub fn insert(&mut self, c: ChunkId) {
        if c.0 < self.base {
            return;
        }
        let mut off = c.0 - self.base;
        if off >= BUFFER_WINDOW {
            let shift = off - (BUFFER_WINDOW - 1);
            self.bits = if shift >= BUFFER_WINDOW {
                0
            } else {
                self.bits >> shift
            };
            self.base += shift;
            off = BUFFER_WINDOW - 1;
        }
        self.bits |= 1u128 << off;
    }

    /// Whether `c` is held (chunks before the base count as played-out,
    /// i.e. *not available for upload* anymore).
    pub fn contains(&self, c: ChunkId) -> bool {
        if c.0 < self.base {
            return false;
        }
        let off = c.0 - self.base;
        off < BUFFER_WINDOW && self.bits & (1u128 << off) != 0
    }

    /// Advances the base to `new_base` (playout progress), dropping older
    /// chunks. Moving backwards is a no-op.
    pub fn advance_base(&mut self, new_base: ChunkId) {
        if new_base.0 <= self.base {
            return;
        }
        let shift = new_base.0 - self.base;
        self.bits = if shift >= BUFFER_WINDOW {
            0
        } else {
            self.bits >> shift
        };
        self.base = new_base.0;
    }

    /// Number of chunks held in the window.
    pub fn held(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Iterates the chunks in `[from, to]` that are *not* held.
    pub fn missing_in(&self, from: ChunkId, to: ChunkId) -> impl Iterator<Item = ChunkId> + '_ {
        (from.0..=to.0)
            .map(ChunkId)
            .filter(move |&c| !self.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cctv1_constants() {
        let s = StreamParams::cctv1();
        assert_eq!(s.chunk_interval_us(), 520_833);
        assert_eq!(s.packets_per_chunk(), 20);
        assert_eq!(s.packet_size(0), 1250);
        assert_eq!(s.packet_size(19), 1250); // exact multiple: no runt tail
    }

    #[test]
    fn packet_sizes_sum_to_chunk() {
        let s = StreamParams::cctv1();
        let total: u32 = (0..s.packets_per_chunk()).map(|i| s.packet_size(i)).sum();
        assert_eq!(total, s.chunk_bytes);
    }

    #[test]
    fn head_progression() {
        let s = StreamParams::cctv1();
        let iv = s.chunk_interval_us();
        assert_eq!(s.head_at(0), None);
        assert_eq!(s.head_at(iv - 1), None);
        assert_eq!(s.head_at(iv), Some(ChunkId(0)));
        assert_eq!(s.head_at(2 * iv), Some(ChunkId(1)));
        // A 1-hour run produces ~6900 chunks at this rate.
        assert_eq!(s.head_at(3_600_000_000), Some(ChunkId(6911)));
    }

    #[test]
    fn chunk_time_inverts_head() {
        let s = StreamParams::cctv1();
        for c in [0u32, 1, 100, 7199] {
            let t = s.chunk_time_us(ChunkId(c));
            assert_eq!(s.head_at(t), Some(ChunkId(c)));
            assert_eq!(
                s.head_at(t - 1),
                if c == 0 { None } else { Some(ChunkId(c - 1)) }
            );
        }
    }

    #[test]
    fn bufmap_insert_contains() {
        let mut b = BufferMap::new();
        assert!(!b.contains(ChunkId(0)));
        b.insert(ChunkId(5));
        assert!(b.contains(ChunkId(5)));
        assert!(!b.contains(ChunkId(4)));
        assert_eq!(b.held(), 1);
    }

    #[test]
    fn bufmap_slides_on_overflow() {
        let mut b = BufferMap::new();
        b.insert(ChunkId(0));
        b.insert(ChunkId(BUFFER_WINDOW)); // forces base to 1
        assert_eq!(b.base(), ChunkId(1));
        assert!(!b.contains(ChunkId(0)));
        assert!(b.contains(ChunkId(BUFFER_WINDOW)));
    }

    #[test]
    fn bufmap_ignores_stale_inserts() {
        let mut b = BufferMap::new();
        b.advance_base(ChunkId(100));
        b.insert(ChunkId(50));
        assert_eq!(b.held(), 0);
        assert!(!b.contains(ChunkId(50)));
    }

    #[test]
    fn bufmap_advance_base() {
        let mut b = BufferMap::new();
        for c in 0..10 {
            b.insert(ChunkId(c));
        }
        b.advance_base(ChunkId(5));
        assert_eq!(b.base(), ChunkId(5));
        assert_eq!(b.held(), 5);
        assert!(!b.contains(ChunkId(4)));
        assert!(b.contains(ChunkId(5)));
        // Backwards is a no-op.
        b.advance_base(ChunkId(2));
        assert_eq!(b.base(), ChunkId(5));
        // Far forward clears everything.
        b.advance_base(ChunkId(500));
        assert_eq!(b.held(), 0);
    }

    #[test]
    fn bufmap_missing_in() {
        let mut b = BufferMap::new();
        b.insert(ChunkId(2));
        b.insert(ChunkId(4));
        let missing: Vec<u32> = b.missing_in(ChunkId(0), ChunkId(5)).map(|c| c.0).collect();
        assert_eq!(missing, vec![0, 1, 3, 5]);
    }

    #[test]
    fn bufmap_window_edges() {
        let mut b = BufferMap::new();
        b.insert(ChunkId(BUFFER_WINDOW - 1)); // last in-window bit
        assert!(b.contains(ChunkId(BUFFER_WINDOW - 1)));
        assert_eq!(b.base(), ChunkId(0));
        let mut c = BufferMap::new();
        c.insert(ChunkId(3 * BUFFER_WINDOW)); // far beyond: slides a lot
        assert!(c.contains(ChunkId(3 * BUFFER_WINDOW)));
        assert_eq!(c.base(), ChunkId(2 * BUFFER_WINDOW + 1));
    }
}
