//! Preferential partitions.
//!
//! The paper's framework: pick a network property `X(·)`, split its
//! support into a preferred set `X_P` and its complement, and measure how
//! peers and bytes distribute across the two. The five instances studied
//! (§III-B):
//!
//! | metric | preferred class `1_P(p,e) = 1` |
//! |---|---|
//! | `BW`  | min IPG < 1 ms (bottleneck > 10 Mb/s) |
//! | `AS`  | `AS(p) = AS(e)` |
//! | `CC`  | `CC(p) = CC(e)` |
//! | `NET` | same subnet (`HOP = 0`) |
//! | `HOP` | `HOP(e,p) <` the median threshold (19) |
//!
//! A metric may be unmeasurable for a given pair (no received video
//! train for BW, no received packet or a non-Windows TTL for HOP); such
//! pairs are excluded from both numerator and denominator, mirroring the
//! paper's conservative handling.

use crate::flows::FlowStats;
use crate::heuristics::AnalysisConfig;
use crate::hop::flow_hops;
use crate::ipg::{bw_class, BwClass};
use netaware_net::GeoRegistry;

/// Everything a partition may inspect about one (probe, remote) pair.
pub struct PairCtx<'a> {
    /// The aggregated flow.
    pub flow: &'a FlowStats,
    /// The public geolocation registry (whois/GeoIP stand-in).
    pub registry: &'a GeoRegistry,
    /// Analysis thresholds.
    pub cfg: &'a AnalysisConfig,
    /// Hop threshold in force (fixed 19 or measured median).
    pub hop_threshold: u8,
}

/// The five network properties of the study.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Access-capacity class of the path.
    Bw,
    /// Same Autonomous System.
    As,
    /// Same country.
    Cc,
    /// Same subnet.
    Net,
    /// Router distance below the median.
    Hop,
}

impl Metric {
    /// All metrics in the paper's presentation order (Table IV rows).
    pub const ALL: [Metric; 5] = [Metric::Bw, Metric::As, Metric::Cc, Metric::Net, Metric::Hop];

    /// Row label.
    pub const fn name(self) -> &'static str {
        match self {
            Metric::Bw => "BW",
            Metric::As => "AS",
            Metric::Cc => "CC",
            Metric::Net => "NET",
            Metric::Hop => "HOP",
        }
    }

    /// `BW` can only be inferred from packets the remote *sends*, so it
    /// is measured on the download side only ("in order to gather
    /// conservative results, we limitedly consider the downlink
    /// direction for the BW metric").
    pub const fn upload_measurable(self) -> bool {
        !matches!(self, Metric::Bw)
    }

    /// Whether the pair belongs to the preferred class; `None` when the
    /// metric cannot be evaluated for this pair.
    pub fn preferred(self, ctx: &PairCtx<'_>) -> Option<bool> {
        let f = ctx.flow;
        match self {
            Metric::Bw => match bw_class(f, ctx.cfg) {
                BwClass::High => Some(true),
                BwClass::Low => Some(false),
                BwClass::Unknown => None,
            },
            Metric::As => {
                let pa = ctx.registry.as_of(f.probe);
                let ea = ctx.registry.as_of(f.remote);
                match (pa, ea) {
                    // Unresolvable remotes count as "different AS": the
                    // paper's whois lookups behaved the same way.
                    (Some(a), Some(b)) => Some(a == b),
                    _ => Some(false),
                }
            }
            Metric::Cc => {
                let pc = ctx.registry.country_of(f.probe);
                let ec = ctx.registry.country_of(f.remote);
                match (pc, ec) {
                    (Some(a), Some(b)) => Some(a == b),
                    _ => Some(false),
                }
            }
            Metric::Net => Some(f.probe.same_subnet(f.remote)),
            Metric::Hop => flow_hops(f.rx_ttl).map(|h| h < ctx.hop_threshold),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaware_net::{AsId, AsInfo, AsKind, CountryCode, GeoRegistryBuilder, Ip, Prefix};

    fn reg() -> GeoRegistry {
        let mut b = GeoRegistryBuilder::new();
        b.register_as(AsInfo::new(2, CountryCode::IT, AsKind::Academic, "GARR"));
        b.register_as(AsInfo::new(
            3,
            CountryCode::IT,
            AsKind::ResidentialIsp,
            "IT-DSL",
        ));
        b.register_as(AsInfo::new(100, CountryCode::CN, AsKind::Carrier, "CN"));
        b.announce(Prefix::of(Ip::from_octets(130, 192, 0, 0), 16), AsId(2))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(151, 0, 0, 0), 16), AsId(3))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(58, 0, 0, 0), 8), AsId(100))
            .unwrap();
        b.build()
    }

    fn ctx_for<'a>(
        flow: &'a FlowStats,
        registry: &'a GeoRegistry,
        cfg: &'a AnalysisConfig,
    ) -> PairCtx<'a> {
        PairCtx {
            flow,
            registry,
            cfg,
            hop_threshold: 19,
        }
    }

    fn flow(probe: Ip, remote: Ip) -> FlowStats {
        FlowStats {
            probe,
            remote,
            ..Default::default()
        }
    }

    #[test]
    fn bw_partition_follows_ipg() {
        let r = reg();
        let cfg = AnalysisConfig::default();
        let mut f = flow(
            Ip::from_octets(130, 192, 1, 1),
            Ip::from_octets(58, 1, 1, 1),
        );
        f.min_ipg_us = Some(120);
        assert_eq!(Metric::Bw.preferred(&ctx_for(&f, &r, &cfg)), Some(true));
        f.min_ipg_us = Some(8_000);
        assert_eq!(Metric::Bw.preferred(&ctx_for(&f, &r, &cfg)), Some(false));
        f.min_ipg_us = None;
        assert_eq!(Metric::Bw.preferred(&ctx_for(&f, &r, &cfg)), None);
    }

    #[test]
    fn as_partition() {
        let r = reg();
        let cfg = AnalysisConfig::default();
        let p = Ip::from_octets(130, 192, 1, 1);
        let same = flow(p, Ip::from_octets(130, 192, 200, 7));
        let diff = flow(p, Ip::from_octets(58, 1, 1, 1));
        let unknown = flow(p, Ip::from_octets(99, 9, 9, 9));
        assert_eq!(Metric::As.preferred(&ctx_for(&same, &r, &cfg)), Some(true));
        assert_eq!(Metric::As.preferred(&ctx_for(&diff, &r, &cfg)), Some(false));
        assert_eq!(
            Metric::As.preferred(&ctx_for(&unknown, &r, &cfg)),
            Some(false)
        );
    }

    #[test]
    fn cc_partition_spans_ases() {
        let r = reg();
        let cfg = AnalysisConfig::default();
        let p = Ip::from_octets(130, 192, 1, 1); // IT academic
        let same_cc_other_as = flow(p, Ip::from_octets(151, 0, 3, 3)); // IT DSL
        assert_eq!(
            Metric::As.preferred(&ctx_for(&same_cc_other_as, &r, &cfg)),
            Some(false)
        );
        assert_eq!(
            Metric::Cc.preferred(&ctx_for(&same_cc_other_as, &r, &cfg)),
            Some(true)
        );
    }

    #[test]
    fn net_partition_is_slash24() {
        let r = reg();
        let cfg = AnalysisConfig::default();
        let p = Ip::from_octets(130, 192, 1, 1);
        assert_eq!(
            Metric::Net.preferred(&ctx_for(
                &flow(p, Ip::from_octets(130, 192, 1, 77)),
                &r,
                &cfg
            )),
            Some(true)
        );
        assert_eq!(
            Metric::Net.preferred(&ctx_for(
                &flow(p, Ip::from_octets(130, 192, 2, 77)),
                &r,
                &cfg
            )),
            Some(false)
        );
    }

    #[test]
    fn hop_partition_uses_threshold() {
        let r = reg();
        let cfg = AnalysisConfig::default();
        let p = Ip::from_octets(130, 192, 1, 1);
        let mut f = flow(p, Ip::from_octets(58, 1, 1, 1));
        f.rx_ttl = Some(115); // 13 hops < 19
        assert_eq!(Metric::Hop.preferred(&ctx_for(&f, &r, &cfg)), Some(true));
        f.rx_ttl = Some(109); // 19 hops, not < 19
        assert_eq!(Metric::Hop.preferred(&ctx_for(&f, &r, &cfg)), Some(false));
        f.rx_ttl = None;
        assert_eq!(Metric::Hop.preferred(&ctx_for(&f, &r, &cfg)), None);
    }

    #[test]
    fn metric_metadata() {
        assert_eq!(Metric::ALL.len(), 5);
        assert!(!Metric::Bw.upload_measurable());
        assert!(Metric::As.upload_measurable());
        assert_eq!(Metric::Net.name(), "NET");
    }
}
