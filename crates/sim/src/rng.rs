//! Named deterministic RNG streams.
//!
//! Each simulation component draws from its own stream, derived from the
//! experiment seed and a label. Components therefore stay statistically
//! independent *and* insulated: adding a draw to the peer-selection stream
//! cannot shift the churn stream, which keeps A/B ablations comparable.
//!
//! The generator is a self-contained xoshiro256++ (public-domain
//! construction by Blackman & Vigna), state-expanded from the 64-bit
//! stream seed with SplitMix64 — no external crates, no ambient entropy,
//! and the exact draw sequence is part of the repo's determinism
//! contract: a given `(seed, label)` pair yields the same stream on every
//! platform and every run.

/// A deterministic random stream.
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Derives the stream identified by `label` from `seed`.
    pub fn stream(seed: u64, label: &str) -> Self {
        let mut h = seed ^ 0xA076_1D64_78BD_642F;
        for b in label.bytes() {
            h = splitmix(h ^ b as u64);
        }
        DetRng::from_u64_seed(splitmix(h))
    }

    /// Derives a sub-stream, e.g. one per peer.
    pub fn substream(seed: u64, label: &str, idx: u64) -> Self {
        let mut s = Self::stream(seed, label);
        // Burn the index in so substreams are independent.
        let derived = splitmix(s.next_u64() ^ splitmix(idx));
        DetRng::from_u64_seed(derived)
    }

    /// Expands a 64-bit seed into full generator state via SplitMix64,
    /// the standard seeding procedure for the xoshiro family.
    fn from_u64_seed(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        DetRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Uniform sample from a range.
    pub fn range<T: SampleUniform, R: SampleRange<T>>(&mut self, r: R) -> T {
        let (lo, hi, inclusive) = r.bounds();
        T::sample_between(self, lo, hi, inclusive)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Uniform float in `[0,1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 mantissa bits of a draw → [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential variate with the given mean (rate = 1/mean).
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Bounded Pareto variate (heavy-tailed session lengths, swarm sizes).
    pub fn pareto(&mut self, scale: f64, shape: f64, cap: f64) -> f64 {
        let u: f64 = self.range(f64::MIN_POSITIVE..1.0);
        (scale / u.powf(1.0 / shape)).min(cap)
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.range(0..xs.len())]
    }

    /// Picks an index according to non-negative weights; `None` when all
    /// weights are zero or the slice is empty.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        self.pick_weighted_with_total(weights, weights.iter().sum())
    }

    /// [`DetRng::pick_weighted`] for a caller that already holds
    /// `total`, which must be `weights.iter().sum()` (bit for bit, so
    /// the pick is the same): one draw, then the same linear scan.
    pub fn pick_weighted_with_total(&mut self, weights: &[f64], total: f64) -> Option<usize> {
        debug_assert_eq!(
            total.to_bits(),
            weights.iter().sum::<f64>().to_bits(),
            "total is not the weights' sum"
        );
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        let mut x = self.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return Some(i);
            }
        }
        Some(weights.len() - 1) // float round-off fell off the end
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range(0..=i);
            xs.swap(i, j);
        }
    }

    /// Raw 64-bit draw (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Types [`DetRng::range`] can sample uniformly.
pub trait SampleUniform: Sized {
    /// Draws from `[lo, hi)`, or `[lo, hi]` when `inclusive`.
    fn sample_between(rng: &mut DetRng, lo: Self, hi: Self, inclusive: bool) -> Self;
}

/// Range shapes accepted by [`DetRng::range`].
pub trait SampleRange<T> {
    /// Decomposes into `(low, high, inclusive)`.
    fn bounds(self) -> (T, T, bool);
}

impl<T> SampleRange<T> for core::ops::Range<T> {
    fn bounds(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T: Copy> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn bounds(self) -> (T, T, bool) {
        (*self.start(), *self.end(), true)
    }
}

macro_rules! sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between(rng: &mut DetRng, lo: Self, hi: Self, inclusive: bool) -> Self {
                let span = (hi as u128)
                    .wrapping_sub(lo as u128)
                    .wrapping_add(inclusive as u128);
                assert!(span > 0, "empty sample range");
                // Fixed-point scaling of one 64-bit draw onto the span
                // (bias ≤ 2⁻⁶⁴, far below simulation noise, and — unlike
                // rejection sampling — always exactly one draw, which
                // keeps stream positions aligned across platforms).
                let scaled = (rng.next_u64() as u128 * span) >> 64;
                lo + scaled as $t
            }
        }
    )*};
}
sample_uniform_int!(u8, u16, u32, u64, usize);

impl SampleUniform for f64 {
    fn sample_between(rng: &mut DetRng, lo: Self, hi: Self, _inclusive: bool) -> Self {
        assert!(lo < hi, "empty sample range");
        let v = lo + rng.unit() * (hi - lo);
        // Guard against round-up to the exclusive bound.
        if v >= hi {
            lo
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let a: Vec<u64> = {
            let mut r = DetRng::stream(1, "sel");
            (0..10).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = DetRng::stream(1, "sel");
            (0..10).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let mut a = DetRng::stream(1, "sel");
        let mut b = DetRng::stream(1, "churn");
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::stream(1, "x");
        let mut b = DetRng::stream(2, "x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn substreams_are_independent_of_index() {
        let mut a = DetRng::substream(1, "peer", 0);
        let mut b = DetRng::substream(1, "peer", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn draw_sequence_is_pinned() {
        // The exact stream is part of the determinism contract: changing
        // the generator or its seeding invalidates recorded artifacts, so
        // it must not happen silently.
        let mut r = DetRng::stream(42, "contract");
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                993329967408822964,
                4470650153753996028,
                10992501957896032204,
                3647953716654104547,
            ]
        );
    }

    #[test]
    fn chance_frequency() {
        let mut r = DetRng::stream(3, "p");
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn exp_mean() {
        let mut r = DetRng::stream(4, "e");
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn pareto_respects_scale_and_cap() {
        let mut r = DetRng::stream(5, "par");
        for _ in 0..10_000 {
            let v = r.pareto(2.0, 1.2, 100.0);
            assert!((2.0..=100.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn pick_weighted_follows_weights() {
        let mut r = DetRng::stream(6, "w");
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.pick_weighted(&w).expect("weights are positive")] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn pick_weighted_degenerate() {
        let mut r = DetRng::stream(7, "w");
        assert_eq!(r.pick_weighted(&[]), None);
        assert_eq!(r.pick_weighted(&[0.0, 0.0]), None);
        assert_eq!(r.pick_weighted(&[0.0, 2.0]), Some(1));
    }

    #[test]
    fn pick_with_total_picks_what_pick_weighted_picks() {
        // The smallest subnormal: near it rounding is absolute, so
        // `unit() * total` often rounds up to `total` itself and the
        // scan falls off the end, onto the last index even when its
        // weight is zero.
        let tiny = f64::from_bits(1);
        let vectors: [&[f64]; 8] = [
            &[],
            &[0.0, 0.0],
            &[0.0, 1.0, 0.0, 1.0, 2.0, 0.0],
            &[0.5, 0.5, 0.5, 0.5],
            &[0.1; 10],
            &[3.0, 1e-300, 1e300, 1e-300, 0.0],
            &[tiny, tiny, tiny],
            &[tiny, tiny, 0.0],
        ];
        let (mut a, mut b) = (DetRng::stream(17, "w"), DetRng::stream(17, "w"));
        let mut fell_off = 0;
        for w in vectors {
            let total: f64 = w.iter().sum();
            for _ in 0..2_000 {
                let pick = a.pick_weighted(w);
                assert_eq!(b.pick_weighted_with_total(w, total), pick, "{w:?}");
                if let Some(k) = pick {
                    assert!(k < w.len(), "{w:?}: index {k} out of range");
                    fell_off += usize::from(w[k] == 0.0);
                }
            }
        }
        assert_eq!(a.next_u64(), b.next_u64(), "the streams drifted apart");
        assert!(fell_off > 0, "no scan fell off the end");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::stream(8, "sh");
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn range_bounds() {
        let mut r = DetRng::stream(9, "rg");
        for _ in 0..1000 {
            let v: u32 = r.range(10..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn inclusive_range_reaches_both_ends() {
        let mut r = DetRng::stream(10, "incl");
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            match r.range(0u32..=3) {
                0 => lo_seen = true,
                3 => hi_seen = true,
                1 | 2 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn unit_stays_in_half_open_interval() {
        let mut r = DetRng::stream(11, "u");
        for _ in 0..100_000 {
            let v = r.unit();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }
}
