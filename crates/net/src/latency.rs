//! One-way propagation delay model.
//!
//! Delay does not enter the paper's analysis directly (RTT "is very hard
//! to infer passively"), but it shapes the traffic the analysis sees: how
//! fast chunk requests round-trip determines who gets asked again, and
//! packet timestamps in the traces embed it. Values follow typical 2008
//! geographies: sub-millisecond LANs, a few ms nationally, tens of ms
//! across Europe, 120+ ms Europe↔China.

use crate::country::Region;
use crate::hash::{mix2, unit};
use crate::ip::Ip;
use crate::registry::{Endpoint, GeoRegistry};

/// One-way delay in microseconds, as a pure function of the endpoint pair.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    seed: u64,
}

impl LatencyModel {
    /// Creates the model; delays depend only on `(seed, src, dst)`.
    pub const fn new(seed: u64) -> Self {
        LatencyModel { seed }
    }

    /// One-way propagation delay `src → dst` in microseconds.
    ///
    /// Symmetric in expectation with a small directional jitter, like the
    /// hop model.
    pub fn one_way_us(&self, reg: &GeoRegistry, src: Ip, dst: Ip) -> u64 {
        self.one_way_us_between(reg.endpoint(src), reg.endpoint(dst))
    }

    /// [`LatencyModel::one_way_us`] between endpoints already resolved
    /// with [`GeoRegistry::endpoint`].
    pub fn one_way_us_between(&self, src: Endpoint, dst: Endpoint) -> u64 {
        if src.ip.same_subnet(dst.ip) {
            return 100; // LAN: 0.1 ms
        }
        let (lo, hi) = if src.ip.0 <= dst.ip.0 {
            (src.ip, dst.ip)
        } else {
            (dst.ip, src.ip)
        };
        let sym = mix2(self.seed ^ lo.0 as u64, hi.0 as u64);
        let dir = mix2(self.seed ^ src.ip.0 as u64, dst.ip.0 as u64);

        let (base_us, spread_us) = match (src.asn, dst.asn) {
            (Some(a), Some(b)) if a == b => (2_000, 6_000),
            (Some(_), Some(_)) => match (src.region, dst.region) {
                (Some(x), Some(y)) if x.same(y) => match x {
                    Region::Europe => (8_000, 22_000),
                    Region::Asia => (10_000, 40_000),
                    _ => (10_000, 50_000),
                },
                (Some(Region::Europe), Some(Region::Asia))
                | (Some(Region::Asia), Some(Region::Europe)) => (110_000, 60_000),
                _ => (80_000, 60_000),
            },
            _ => (60_000, 80_000),
        };
        let jitter = 1.0 + 0.05 * (unit(dir) - 0.5); // ±2.5% directional
        ((base_us as f64 + unit(sym) * spread_us as f64) * jitter) as u64
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
        b.register_as(AsInfo::new(2, CountryCode::FR, AsKind::Academic, "RENATER"));
        b.register_as(AsInfo::new(100, CountryCode::CN, AsKind::Carrier, "CN"));
        b.announce(Prefix::of(Ip::from_octets(130, 192, 0, 0), 16), AsId(1))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(137, 194, 0, 0), 16), AsId(2))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(58, 0, 0, 0), 8), AsId(100))
            .unwrap();
        b.build()
    }

    #[test]
    fn lan_is_100us() {
        let m = LatencyModel::new(1);
        let r = reg();
        assert_eq!(
            m.one_way_us(
                &r,
                Ip::from_octets(130, 192, 1, 1),
                Ip::from_octets(130, 192, 1, 2)
            ),
            100
        );
    }

    #[test]
    fn hierarchy_of_delays() {
        let m = LatencyModel::new(1);
        let r = reg();
        let intra_as = m.one_way_us(
            &r,
            Ip::from_octets(130, 192, 1, 1),
            Ip::from_octets(130, 192, 99, 2),
        );
        let eu_eu = m.one_way_us(
            &r,
            Ip::from_octets(130, 192, 1, 1),
            Ip::from_octets(137, 194, 3, 4),
        );
        let eu_cn = m.one_way_us(
            &r,
            Ip::from_octets(130, 192, 1, 1),
            Ip::from_octets(58, 9, 9, 9),
        );
        assert!(intra_as < eu_eu, "{intra_as} !< {eu_eu}");
        assert!(eu_eu < eu_cn, "{eu_eu} !< {eu_cn}");
        assert!(eu_cn >= 100_000, "EU-CN {eu_cn}us");
    }

    #[test]
    fn deterministic_and_nearly_symmetric() {
        let m = LatencyModel::new(5);
        let r = reg();
        let a = Ip::from_octets(130, 192, 1, 1);
        let b = Ip::from_octets(58, 9, 9, 9);
        let f = m.one_way_us(&r, a, b);
        assert_eq!(f, m.one_way_us(&r, a, b));
        let rev = m.one_way_us(&r, b, a);
        let ratio = f as f64 / rev as f64;
        assert!((0.9..1.1).contains(&ratio), "asymmetry ratio {ratio}");
    }

    #[test]
    fn unregistered_hosts_get_plausible_delay() {
        let m = LatencyModel::new(5);
        let r = reg();
        let d = m.one_way_us(
            &r,
            Ip::from_octets(99, 0, 0, 1),
            Ip::from_octets(98, 0, 0, 1),
        );
        assert!((60_000..=150_000).contains(&d), "{d}");
    }
}
