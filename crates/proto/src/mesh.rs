//! Full chunk-level mesh simulation — the validation substrate for the
//! statistical external-peer model.
//!
//! The main [`swarm`](crate::swarm) simulation treats external peers
//! statistically: their content availability is a fixed playout lag
//! (0.5–5 s behind the source) rather than the outcome of actual chunk
//! exchange. That substitution is what makes a 181k-peer overlay
//! tractable, but it is an *assumption* about how mesh-pull swarms
//! behave. This module checks it from first principles: a complete
//! chunk-granularity simulation where **every** peer runs the pull
//! protocol — source injection, buffer maps, randomised requests,
//! capacity-bounded upload slots — and the acquisition lag of every
//! chunk at every peer is measured.
//!
//! If the substitution is sound, the lag distribution that *emerges*
//! here must match the one the swarm *assumes* (mass concentrated in
//! the 1–10 chunk band, i.e. 0.5–5 s at the CCTV-1 chunk rate), and
//! high-upload peers must sit at the early edge of it. `netaware-cli
//! mesh` reports exactly that, and the unit tests below assert it.

use crate::chunk::{BufferMap, ChunkId, StreamParams};
use netaware_sim::{DetRng, Histogram};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Configuration of a full-mesh run.
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// Overlay size (every peer fully simulated).
    pub n_peers: usize,
    /// Seed.
    pub seed: u64,
    /// Duration, µs.
    pub duration_us: u64,
    /// Stream parameters.
    pub stream: StreamParams,
    /// Neighbors per peer (random regular-ish graph).
    pub degree: usize,
    /// Missing chunks a peer may request per tick.
    pub requests_per_tick: usize,
    /// Tick period, µs.
    pub tick_us: u64,
    /// Upload slots per tick for a low-bandwidth peer (a capacity
    /// proxy: one slot = one chunk served per tick).
    pub low_upload_slots: usize,
    /// Upload slots per tick for a high-bandwidth peer.
    pub high_upload_slots: usize,
    /// Fraction of high-bandwidth peers.
    pub high_bw_fraction: f64,
    /// Peers the source pushes each fresh chunk to.
    pub source_fanout: usize,
    /// Playout window: chunks older than this behind the head are
    /// abandoned.
    pub window_chunks: u32,
    /// Ticks a chunk transfer takes from a high-bandwidth provider.
    pub high_transfer_ticks: u32,
    /// Ticks a chunk transfer takes from a low-bandwidth provider
    /// (a 25 kB chunk over a ~0.5 Mb/s uplink is ~0.4–0.5 s).
    pub low_transfer_ticks: u32,
}

impl MeshConfig {
    /// A CCTV-1-like default at the given overlay size.
    pub fn cctv1(n_peers: usize, seed: u64, duration_us: u64) -> Self {
        MeshConfig {
            n_peers,
            seed,
            duration_us,
            stream: StreamParams::cctv1(),
            degree: 12,
            requests_per_tick: 4,
            tick_us: 250_000,
            low_upload_slots: 1,
            high_upload_slots: 8,
            high_bw_fraction: 0.36,
            source_fanout: 4,
            window_chunks: 24,
            high_transfer_ticks: 1,
            low_transfer_ticks: 3,
        }
    }
}

/// What the full mesh measured.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MeshReport {
    /// Chunk acquisitions.
    pub delivered: u64,
    /// Chunks abandoned past the window.
    pub lost: u64,
    /// Acquisition-lag histogram in chunk units (lag = how many chunk
    /// intervals after generation a peer obtained a chunk).
    pub lag_counts: Vec<u64>,
    /// Mean acquisition lag, chunks.
    pub mean_lag_chunks: f64,
    /// Median acquisition lag, chunks.
    pub median_lag_chunks: u32,
    /// 95th-percentile lag, chunks.
    pub p95_lag_chunks: u32,
    /// Mean lag of high-bandwidth peers.
    pub mean_lag_high: f64,
    /// Mean lag of low-bandwidth peers.
    pub mean_lag_low: f64,
}

impl MeshReport {
    /// Delivered / (delivered + lost).
    pub fn continuity(&self) -> f64 {
        let total = self.delivered + self.lost;
        if total == 0 {
            return 1.0;
        }
        self.delivered as f64 / total as f64
    }

    /// Share of acquisitions with lag in `[lo, hi]` chunks.
    pub fn lag_mass_in(&self, lo: usize, hi: usize) -> f64 {
        let total: u64 = self.lag_counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let inside: u64 = self
            .lag_counts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i >= lo && *i <= hi)
            .map(|(_, &c)| c)
            .sum();
        inside as f64 / total as f64
    }
}

struct MeshPeer {
    bufmap: BufferMap,
    neighbors: Vec<u32>,
    high: bool,
    slots_left: usize,
}

/// Runs the full mesh synchronously (tick-stepped; chunk granularity).
pub fn run_mesh(cfg: &MeshConfig) -> MeshReport {
    assert!(cfg.n_peers >= 2, "a mesh needs at least two peers");
    let mut rng = DetRng::stream(cfg.seed, "mesh");

    // Build peers and a random graph (undirected union of per-peer picks).
    let mut peers: Vec<MeshPeer> = (0..cfg.n_peers)
        .map(|_| MeshPeer {
            bufmap: BufferMap::new(),
            neighbors: Vec::new(),
            high: rng.chance(cfg.high_bw_fraction),
            slots_left: 0,
        })
        .collect();
    for i in 0..cfg.n_peers {
        while peers[i].neighbors.len() < cfg.degree.min(cfg.n_peers - 1) {
            let j = rng.range(0..cfg.n_peers);
            if j != i && !peers[i].neighbors.contains(&(j as u32)) {
                peers[i].neighbors.push(j as u32);
                if !peers[j].neighbors.contains(&(i as u32)) {
                    peers[j].neighbors.push(i as u32);
                }
            }
        }
    }

    let interval = cfg.stream.chunk_interval_us();
    let mut lag_hist = Histogram::new(64);
    let mut lost = 0u64;
    let mut lag_sum_high = 0f64;
    let mut n_high = 0u64;
    let mut lag_sum_low = 0f64;
    let mut n_low = 0u64;

    let mut now = 0u64;
    let mut last_head: Option<ChunkId> = None;
    let mut transfers: Vec<(u64, usize, ChunkId)> = Vec::new();
    let mut in_flight: BTreeSet<(u32, u32)> = BTreeSet::new();
    while now <= cfg.duration_us {
        // Source injection: each newly generated chunk seeds a few peers.
        let head = cfg.stream.head_at(now);
        if head != last_head {
            if let Some(h) = head {
                let first = last_head.map_or(h.0, |p| p.0 + 1);
                for c in first..=h.0 {
                    for _ in 0..cfg.source_fanout {
                        let k = rng.range(0..cfg.n_peers);
                        peers[k].bufmap.insert(ChunkId(c));
                        lag_hist.push(0);
                        if peers[k].high {
                            n_high += 1;
                        } else {
                            n_low += 1;
                        }
                    }
                }
            }
            last_head = head;
        }
        let Some(head) = head else {
            now += cfg.tick_us;
            continue;
        };

        // Refill upload slots.
        for p in peers.iter_mut() {
            p.slots_left = if p.high {
                cfg.high_upload_slots
            } else {
                cfg.low_upload_slots
            };
        }

        // Each peer pulls missing chunks from neighbors that hold them
        // and still have slots. Pulls are *asynchronous-realistic*:
        // availability is the state at tick start, and an acquisition
        // materialises only after the provider-class transfer time —
        // chunks cross one overlay hop per transfer, taking longer
        // through low-bandwidth uplinks. (Without this, a chunk could
        // cascade across the whole mesh inside one tick and every lag
        // would read zero.)
        let mut order: Vec<usize> = (0..cfg.n_peers).collect();
        rng.shuffle(&mut order);
        let window_start = ChunkId(head.0.saturating_sub(cfg.window_chunks));
        for &i in &order {
            // Abandon chunks that slid out of the window.
            let base = peers[i].bufmap.base();
            if window_start.0 > base.0 {
                lost += peers[i]
                    .bufmap
                    .missing_in(base, ChunkId(window_start.0 - 1))
                    .count() as u64;
                peers[i].bufmap.advance_base(window_start);
            }
            let missing: Vec<ChunkId> = peers[i]
                .bufmap
                .missing_in(window_start, head)
                .filter(|c| !in_flight.contains(&(i as u32, c.0)))
                .take(cfg.requests_per_tick)
                .collect();
            for c in missing {
                // Providers: neighbors holding c with a free slot.
                let holders: Vec<u32> = peers[i]
                    .neighbors
                    .iter()
                    .copied()
                    .filter(|&j| {
                        peers[j as usize].slots_left > 0 && peers[j as usize].bufmap.contains(c)
                    })
                    .collect();
                if holders.is_empty() {
                    continue;
                }
                let provider = *rng.pick(&holders) as usize;
                peers[provider].slots_left -= 1;
                let ticks = if peers[provider].high {
                    cfg.high_transfer_ticks
                } else {
                    cfg.low_transfer_ticks
                };
                in_flight.insert((i as u32, c.0));
                transfers.push((now + ticks as u64 * cfg.tick_us, i, c));
            }
        }

        // Materialise transfers that completed by this tick.
        let mut k = 0;
        while k < transfers.len() {
            let (due, i, c) = transfers[k];
            if due > now {
                k += 1;
                continue;
            }
            transfers.swap_remove(k);
            in_flight.remove(&(i as u32, c.0));
            if peers[i].bufmap.contains(c) || c.0 < peers[i].bufmap.base().0 {
                continue; // arrived late or duplicated; nothing to record
            }
            peers[i].bufmap.insert(c);
            let lag = (due.saturating_sub(cfg.stream.chunk_time_us(c)) / interval) as usize;
            lag_hist.push(lag);
            if peers[i].high {
                lag_sum_high += lag as f64;
                n_high += 1;
            } else {
                lag_sum_low += lag as f64;
                n_low += 1;
            }
        }
        now += cfg.tick_us;
    }

    let delivered = lag_hist.total();
    let total_lag: f64 = lag_sum_high + lag_sum_low;
    MeshReport {
        delivered,
        lost,
        lag_counts: (0..64).map(|i| lag_hist.count(i)).collect(),
        mean_lag_chunks: if delivered == 0 {
            0.0
        } else {
            total_lag / delivered as f64
        },
        median_lag_chunks: lag_hist.quantile(0.5).unwrap_or(0) as u32,
        p95_lag_chunks: lag_hist.quantile(0.95).unwrap_or(0) as u32,
        mean_lag_high: if n_high == 0 {
            0.0
        } else {
            lag_sum_high / n_high as f64
        },
        mean_lag_low: if n_low == 0 {
            0.0
        } else {
            lag_sum_low / n_low as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(seed: u64) -> MeshConfig {
        MeshConfig::cctv1(300, seed, 120_000_000)
    }

    #[test]
    fn mesh_sustains_the_stream() {
        let r = run_mesh(&quick_cfg(1));
        assert!(r.continuity() > 0.95, "continuity {:.3}", r.continuity());
        assert!(r.delivered > 10_000);
    }

    #[test]
    fn emergent_lag_matches_the_swarm_assumption() {
        // The swarm's external model assumes lags of 0.5–5 s ≈ 1–10
        // chunk intervals; the bulk of the emergent distribution must
        // fall in that band.
        let r = run_mesh(&quick_cfg(2));
        let mass = r.lag_mass_in(1, 10);
        assert!(mass > 0.6, "lag mass in 1–10 chunks: {mass:.2}");
        assert!(
            (1..=10).contains(&r.median_lag_chunks),
            "median lag {} chunks",
            r.median_lag_chunks
        );
        assert!(r.p95_lag_chunks <= 24, "p95 lag {}", r.p95_lag_chunks);
    }

    #[test]
    fn mesh_is_deterministic() {
        let a = run_mesh(&quick_cfg(7));
        let b = run_mesh(&quick_cfg(7));
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.lag_counts, b.lag_counts);
        let c = run_mesh(&quick_cfg(8));
        assert_ne!(a.lag_counts, c.lag_counts);
    }

    #[test]
    fn capacity_shapes_the_swarm() {
        // Starving the overlay — no high-capacity peers, a sparse graph,
        // a single seed copy per chunk, and a tight playout window — must
        // hurt continuity.
        let mut poor = quick_cfg(3);
        poor.high_bw_fraction = 0.0;
        poor.low_upload_slots = 1;
        poor.degree = 2;
        poor.source_fanout = 1;
        poor.window_chunks = 6;
        let rich = run_mesh(&quick_cfg(3));
        let starved = run_mesh(&poor);
        assert!(
            starved.continuity() < rich.continuity(),
            "rich {:.3} vs starved {:.3}",
            rich.continuity(),
            starved.continuity()
        );
    }

    #[test]
    fn tiny_mesh_runs() {
        let mut cfg = MeshConfig::cctv1(2, 1, 10_000_000);
        cfg.degree = 1;
        let r = run_mesh(&cfg);
        assert!(r.delivered > 0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_peer_rejected() {
        let _ = run_mesh(&MeshConfig::cctv1(1, 1, 1_000_000));
    }
}
