//! Deterministic inter-AS path model: router hop counts per direction.
//!
//! The paper stresses that Internet paths are asymmetric — `HOP(e,p)` can
//! differ from `HOP(p,e)` — and that its coarse median-split partition is
//! what makes a single-vantage-point TTL measurement usable anyway. This
//! model reproduces both facts:
//!
//! * hop counts are a pure function of the (ordered) endpoint pair, so the
//!   same packet flow always sees the same TTL;
//! * forward and reverse hop counts share the same AS-level path length
//!   but differ by a small per-direction router-level jitter, so they are
//!   *correlated but not equal*, exactly the regime in which
//!   `HOP(e,p) ∈ HOP_P ⇒ HOP(p,e) ∈ HOP_P` usually holds.
//!
//! Magnitudes are tuned so that a mostly-China swarm observed from Europe
//! has a median distance around 19 hops, matching the paper ("the actual
//! HOP median ranges from 18 to 20 depending on the application").

use crate::country::Region;
use crate::hash::{mix2, ranged};
use crate::ip::Ip;
use crate::registry::{Endpoint, GeoRegistry};

/// Per-direction router hop model over a [`GeoRegistry`].
#[derive(Debug, Clone, Copy)]
pub struct PathModel {
    seed: u64,
}

impl PathModel {
    /// Creates a path model; all hop counts are a function of
    /// `(seed, src, dst)` only.
    pub const fn new(seed: u64) -> Self {
        PathModel { seed }
    }

    /// Router hops from `src` to `dst` (directional).
    ///
    /// * same `/24` subnet → 0 hops (LAN, the paper's `NET` case);
    /// * same AS → a few intra-domain hops;
    /// * different AS → access hops + AS-path router hops, with the
    ///   AS-path length growing with geographic spread.
    pub fn hops(&self, reg: &GeoRegistry, src: Ip, dst: Ip) -> u8 {
        self.hops_between(reg.endpoint(src), reg.endpoint(dst))
    }

    /// [`PathModel::hops`] between endpoints already resolved with
    /// [`GeoRegistry::endpoint`].
    pub fn hops_between(&self, src: Endpoint, dst: Endpoint) -> u8 {
        let (src_ip, dst_ip) = (src.ip, dst.ip);
        if src_ip.same_subnet(dst_ip) {
            return 0;
        }
        let pair = mix2(
            self.seed ^ ((src_ip.0 as u64) << 32 | dst_ip.0 as u64),
            (dst_ip.0 as u64) << 32 | src_ip.0 as u64,
        );
        // Key AS-path properties on the *unordered* pair so forward and
        // reverse share path length; jitter on the ordered pair.
        let (lo, hi) = if src_ip.0 <= dst_ip.0 {
            (src_ip, dst_ip)
        } else {
            (dst_ip, src_ip)
        };
        let sym = mix2(self.seed ^ lo.0 as u64, hi.0 as u64);

        match (src.asn, dst.asn) {
            (Some(a), Some(b)) if a == b => {
                // Intra-AS: 2..=6 router hops, direction jitter ±1.
                let base = ranged(sym, 2, 5) as i32;
                let jitter = ranged(pair, 0, 2) as i32 - 1;
                (base + jitter).max(1) as u8
            }
            (Some(_), Some(_)) => {
                let (ra, rb) = match (src.region, dst.region) {
                    (Some(ra), Some(rb)) => (ra, rb),
                    _ => (Region::Elsewhere, Region::Elsewhere),
                };
                let as_path = Self::as_path_len(ra, rb, sym);
                // Routers per AS traversed: 2..=4, plus 2..=3 access hops
                // on each edge.
                let per_as = ranged(sym.rotate_left(17), 2, 4);
                let edge_src = ranged(mix2(self.seed, src_ip.0 as u64), 2, 3);
                let edge_dst = ranged(mix2(self.seed, dst_ip.0 as u64), 2, 3);
                let jitter = ranged(pair, 0, 4) as i32 - 2; // ±2 asymmetry
                let total = edge_src as i32 + edge_dst as i32 + (as_path * per_as) as i32 + jitter;
                total.clamp(3, 64) as u8
            }
            // Unregistered endpoints: a generic long-ish Internet path.
            _ => ranged(sym, 12, 28) as u8,
        }
    }

    /// AS-level path length as a function of the regions the endpoint
    /// ASes sit in.
    fn as_path_len(a: Region, b: Region, sym: u64) -> u32 {
        let x = sym.rotate_left(33);
        if a.same(b) {
            match a {
                // Dense European peering: short AS paths.
                Region::Europe => ranged(x, 2, 4),
                // Large national carriers with provincial sub-networks.
                Region::Asia => ranged(x, 3, 5),
                _ => ranged(x, 2, 5),
            }
        } else {
            // Intercontinental: cross at least one transit provider.
            ranged(x, 4, 6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{AsId, AsInfo, AsKind};
    use crate::country::CountryCode;
    use crate::ip::Prefix;
    use crate::registry::GeoRegistryBuilder;

    fn reg() -> GeoRegistry {
        let mut b = GeoRegistryBuilder::new();
        b.register_as(AsInfo::new(1, CountryCode::IT, AsKind::Academic, "GARR"));
        b.register_as(AsInfo::new(2, CountryCode::HU, AsKind::Academic, "BME"));
        b.register_as(AsInfo::new(100, CountryCode::CN, AsKind::Carrier, "CN"));
        b.announce(Prefix::of(Ip::from_octets(130, 192, 0, 0), 16), AsId(1))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(152, 66, 0, 0), 16), AsId(2))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(58, 0, 0, 0), 8), AsId(100))
            .unwrap();
        b.build()
    }

    #[test]
    fn same_subnet_is_zero_hops() {
        let m = PathModel::new(1);
        let r = reg();
        let a = Ip::from_octets(130, 192, 1, 10);
        let b = Ip::from_octets(130, 192, 1, 20);
        assert_eq!(m.hops(&r, a, b), 0);
        assert_eq!(m.hops(&r, b, a), 0);
    }

    #[test]
    fn intra_as_is_short() {
        let m = PathModel::new(1);
        let r = reg();
        let a = Ip::from_octets(130, 192, 1, 10);
        let b = Ip::from_octets(130, 192, 77, 20);
        let h = m.hops(&r, a, b);
        assert!((1..=7).contains(&h), "intra-AS hops {h}");
    }

    #[test]
    fn intercontinental_is_long() {
        let m = PathModel::new(1);
        let r = reg();
        let a = Ip::from_octets(130, 192, 1, 10);
        let b = Ip::from_octets(58, 4, 5, 6);
        let h = m.hops(&r, a, b);
        assert!(h >= 12, "EU->CN hops {h}");
    }

    #[test]
    fn deterministic() {
        let m = PathModel::new(9);
        let r = reg();
        let a = Ip::from_octets(130, 192, 1, 10);
        let b = Ip::from_octets(58, 4, 5, 6);
        assert_eq!(m.hops(&r, a, b), m.hops(&r, a, b));
    }

    #[test]
    fn asymmetric_but_correlated() {
        let m = PathModel::new(3);
        let r = reg();
        let mut diffs = Vec::new();
        let mut any_asym = false;
        for i in 0..200u32 {
            let a = Ip::from_octets(130, 192, (i % 200) as u8, 10);
            let b = Ip(Ip::from_octets(58, 0, 0, 0).0 + i * 997 + 1);
            let f = m.hops(&r, a, b) as i32;
            let rev = m.hops(&r, b, a) as i32;
            if f != rev {
                any_asym = true;
            }
            diffs.push((f - rev).abs());
        }
        assert!(any_asym, "paths should not all be symmetric");
        assert!(
            diffs.iter().all(|&d| d <= 4),
            "forward/reverse differ too much: {:?}",
            diffs.iter().max()
        );
    }

    #[test]
    fn eu_cn_median_near_19() {
        let m = PathModel::new(7);
        let r = reg();
        let mut hops: Vec<u8> = (0..2000u32)
            .map(|i| {
                let a = Ip::from_octets(130, 192, (i % 250) as u8, 10);
                let b = Ip(Ip::from_octets(58, 0, 0, 0).0 + i * 16127 + 3);
                m.hops(&r, a, b)
            })
            .collect();
        hops.sort_unstable();
        let median = hops[hops.len() / 2];
        assert!(
            (16..=22).contains(&median),
            "EU->CN median hops {median}, expected ≈19"
        );
    }

    #[test]
    fn unregistered_endpoints_get_generic_path() {
        let m = PathModel::new(7);
        let r = reg();
        let a = Ip::from_octets(99, 1, 2, 3);
        let b = Ip::from_octets(98, 7, 6, 5);
        let h = m.hops(&r, a, b);
        assert!((12..=28).contains(&h));
    }

    #[test]
    fn different_seeds_give_different_paths() {
        let r = reg();
        let a = Ip::from_octets(130, 192, 1, 10);
        let b = Ip::from_octets(58, 4, 5, 6);
        let hs: std::collections::BTreeSet<u8> = (0..32u64)
            .map(|s| PathModel::new(s).hops(&r, a, b))
            .collect();
        assert!(hs.len() > 1);
    }
}
