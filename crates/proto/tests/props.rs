//! Randomized property tests for the protocol building blocks, driven by
//! a seeded [`DetRng`] so every run explores the same cases.

use netaware_proto::{BufferMap, Candidate, ChunkId, SelectionPolicy, StreamParams, BUFFER_WINDOW};
use netaware_sim::DetRng;
use std::collections::BTreeSet;

const CASES: usize = 256;

/// Model-based test of the buffer map against a BTreeSet reference that
/// implements the same sliding-window semantics.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32),
    Advance(u32),
    Query(u32),
}

fn arb_op(rng: &mut DetRng) -> Op {
    let c = rng.range(0..500u32);
    match rng.range(0..3u32) {
        0 => Op::Insert(c),
        1 => Op::Advance(c),
        _ => Op::Query(c),
    }
}

/// BufferMap behaves like a window-limited set.
#[test]
fn bufmap_matches_reference() {
    let mut rng = DetRng::stream(0x5EED, "proto/bufmap_reference");
    for _ in 0..CASES {
        let n = rng.range(0..200usize);
        let ops: Vec<Op> = (0..n).map(|_| arb_op(&mut rng)).collect();
        let mut map = BufferMap::new();
        let mut reference: BTreeSet<u32> = BTreeSet::new();
        let mut base = 0u32;
        for op in ops {
            match op {
                Op::Insert(c) => {
                    map.insert(ChunkId(c));
                    if c >= base {
                        if c - base >= BUFFER_WINDOW {
                            // Window slides: oldest entries fall out.
                            base = c - (BUFFER_WINDOW - 1);
                            reference.retain(|&x| x >= base);
                        }
                        reference.insert(c);
                    }
                }
                Op::Advance(c) => {
                    map.advance_base(ChunkId(c));
                    if c > base {
                        base = c;
                        reference.retain(|&x| x >= base);
                    }
                }
                Op::Query(c) => {
                    assert_eq!(
                        map.contains(ChunkId(c)),
                        reference.contains(&c),
                        "chunk {c} (base {base})"
                    );
                }
            }
            assert_eq!(map.base().0, base);
            assert_eq!(map.held() as usize, reference.len());
        }
    }
}

/// missing_in is the set complement over the queried range.
#[test]
fn bufmap_missing_is_complement() {
    let mut rng = DetRng::stream(0x5EED, "proto/bufmap_missing");
    for _ in 0..CASES {
        let n = rng.range(0..50usize);
        let held: Vec<u32> = (0..n).map(|_| rng.range(0..100u32)).collect();
        let from: u32 = rng.range(0..100u32);
        let span: u32 = rng.range(0..28u32);
        let mut map = BufferMap::new();
        for &c in &held {
            map.insert(ChunkId(c));
        }
        let to = from + span;
        let missing: BTreeSet<u32> = map
            .missing_in(ChunkId(from), ChunkId(to))
            .map(|c| c.0)
            .collect();
        for c in from..=to {
            assert_eq!(missing.contains(&c), !map.contains(ChunkId(c)));
        }
    }
}

/// Chunk timing: head_at and chunk_time_us are inverse-consistent for any
/// positive stream parameters.
#[test]
fn stream_head_consistency() {
    let mut rng = DetRng::stream(0x5EED, "proto/stream_head");
    for _ in 0..CASES {
        let rate_kbps: u64 = rng.range(64..4_000u64);
        let chunk_kb: u32 = rng.range(4..64u32);
        let t: u64 = rng.range(0..7_200_000_000u64);
        let s = StreamParams {
            rate_bps: rate_kbps * 1000,
            chunk_bytes: chunk_kb * 1000,
            packet_bytes: 1250,
        };
        if let Some(head) = s.head_at(t) {
            assert!(s.chunk_time_us(head) <= t);
            assert!(s.chunk_time_us(head.next()) > t);
        } else {
            assert!(t < s.chunk_interval_us());
        }
    }
}

/// Packet fragmentation covers the chunk exactly.
#[test]
fn packets_cover_chunk() {
    let mut rng = DetRng::stream(0x5EED, "proto/packets_cover");
    for _ in 0..CASES {
        let chunk_bytes: u32 = rng.range(1_000..100_000u32);
        let packet_bytes: u32 = rng.range(500..1500u32);
        let s = StreamParams {
            rate_bps: 384_000,
            chunk_bytes,
            packet_bytes,
        };
        let total: u64 = (0..s.packets_per_chunk())
            .map(|i| s.packet_size(i) as u64)
            .sum();
        assert_eq!(total, chunk_bytes as u64);
        for i in 0..s.packets_per_chunk() {
            assert!(s.packet_size(i) <= packet_bytes);
            assert!(s.packet_size(i) > 0);
        }
    }
}

/// Policy weights are always positive and finite, and each boost is
/// monotone: improving a candidate never lowers its weight.
#[test]
fn policy_weight_monotone() {
    let mut rng = DetRng::stream(0x5EED, "proto/weight_monotone");
    for _ in 0..CASES {
        let p = SelectionPolicy {
            bw_exponent: rng.range(0.0..2.0),
            same_as_boost: rng.range(1.0..10.0),
            subnet_boost: rng.range(1.0..10.0),
            same_cc_boost: rng.range(1.0..4.0),
            stickiness: rng.range(1.0..12.0),
        };
        let est = if rng.chance(0.5) {
            Some(rng.range(1_000..1_000_000_000u64))
        } else {
            None
        };
        let base = Candidate {
            est_up_bps: est,
            ..Default::default()
        };
        let w0 = p.weight(&base);
        assert!(w0.is_finite() && w0 > 0.0);
        for upgraded in [
            Candidate {
                same_as: true,
                ..base
            },
            Candidate {
                same_subnet: true,
                same_as: true,
                ..base
            },
            Candidate {
                same_cc: true,
                ..base
            },
            Candidate {
                is_last_provider: true,
                ..base
            },
        ] {
            let w1 = p.weight(&upgraded);
            assert!(w1 >= w0 - 1e-12, "upgrade lowered weight: {w0} -> {w1}");
        }
    }
}

/// Faster estimates never lower the weight when bw_exponent ≥ 0.
#[test]
fn policy_weight_bw_monotone() {
    let mut rng = DetRng::stream(0x5EED, "proto/weight_bw_monotone");
    for _ in 0..CASES {
        let p = SelectionPolicy {
            bw_exponent: rng.range(0.0..2.0),
            ..SelectionPolicy::uniform()
        };
        let a: u64 = rng.range(1_000..1_000_000_000u64);
        let b: u64 = rng.range(1_000..1_000_000_000u64);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let w_lo = p.weight(&Candidate {
            est_up_bps: Some(lo),
            ..Default::default()
        });
        let w_hi = p.weight(&Candidate {
            est_up_bps: Some(hi),
            ..Default::default()
        });
        assert!(w_hi >= w_lo - 1e-12);
    }
}
