//! The geolocation registry: IP prefix → Autonomous System → country.
//!
//! The paper's analysis resolved peer addresses through whois/routing
//! tables to Autonomous Systems and through GeoIP to countries. This
//! registry plays that role: the population generator registers each AS's
//! address space here, and the analysis side performs longest-prefix-match
//! lookups on observed addresses — it never sees the generator's ground
//! truth directly.

use crate::asn::{AsId, AsInfo};
use crate::country::{CountryCode, Region};
use crate::error::NetError;
use crate::ip::{Ip, Prefix};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An address resolved once against a [`GeoRegistry`]: everything the
/// latency and hop models read about one end of a path. Callers that
/// price the same peer many times resolve it once with
/// [`GeoRegistry::endpoint`] instead of repeating the prefix search and
/// AS lookup on every call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Endpoint {
    /// The address.
    pub ip: Ip,
    /// The AS announcing `ip` ([`GeoRegistry::as_of`]).
    pub asn: Option<AsId>,
    /// Region of that AS's country; `None` when `ip` is unannounced or
    /// the AS has no metadata ([`GeoRegistry::info`]).
    pub region: Option<Region>,
}

/// Immutable prefix→AS registry with AS metadata. Built once via
/// [`GeoRegistryBuilder`], then shared read-only across threads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeoRegistry {
    /// Non-overlapping prefixes sorted by base address.
    entries: Vec<(Prefix, AsId)>,
    /// AS metadata in registration order.
    infos: Vec<AsInfo>,
    /// AS number → index into `infos`.
    #[serde(skip)]
    index: BTreeMap<AsId, usize>,
}

impl GeoRegistry {
    /// The AS announcing `ip`, if any prefix covers it.
    pub fn as_of(&self, ip: Ip) -> Option<AsId> {
        // entries are sorted by base and non-overlapping: the candidate is
        // the last prefix whose base is <= ip.
        let pos = self.entries.partition_point(|(p, _)| p.first() <= ip);
        if pos == 0 {
            return None;
        }
        let (prefix, asid) = self.entries[pos - 1];
        prefix.contains(ip).then_some(asid)
    }

    /// The country `ip` geolocates to ([`CountryCode::Other`] when the
    /// address is covered but shouldn't be; `None` when uncovered).
    pub fn country_of(&self, ip: Ip) -> Option<CountryCode> {
        self.as_of(ip).and_then(|a| self.info(a)).map(|i| i.country)
    }

    /// Metadata for a registered AS.
    pub fn info(&self, asid: AsId) -> Option<&AsInfo> {
        self.index.get(&asid).map(|&i| &self.infos[i])
    }

    /// Resolves `ip` to the AS and region the path models read.
    pub fn endpoint(&self, ip: Ip) -> Endpoint {
        let asn = self.as_of(ip);
        let region = asn.and_then(|a| self.info(a)).map(|i| i.country.region());
        Endpoint { ip, asn, region }
    }

    /// All registered ASes, in registration order.
    pub fn ases(&self) -> &[AsInfo] {
        &self.infos
    }

    /// All registered prefixes with their AS, sorted by base address.
    pub fn prefixes(&self) -> &[(Prefix, AsId)] {
        &self.entries
    }

    /// Number of registered prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no prefix is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rebuilds the AS index (needed after deserialization).
    pub fn reindex(&mut self) {
        self.index = self
            .infos
            .iter()
            .enumerate()
            .map(|(i, info)| (info.id, i))
            .collect();
    }
}

/// Builder enforcing prefix disjointness and AS registration.
#[derive(Debug, Default)]
pub struct GeoRegistryBuilder {
    entries: Vec<(Prefix, AsId)>,
    infos: Vec<AsInfo>,
    index: BTreeMap<AsId, usize>,
}

impl GeoRegistryBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an AS. Re-registering the same id with identical info is
    /// a no-op; conflicting info panics (it is a programming error in the
    /// scenario builder).
    pub fn register_as(&mut self, info: AsInfo) -> &mut Self {
        if let Some(&i) = self.index.get(&info.id) {
            assert_eq!(
                self.infos[i], info,
                "AS{} registered twice with different metadata",
                info.id.0
            );
            return self;
        }
        self.index.insert(info.id, self.infos.len());
        self.infos.push(info);
        self
    }

    /// Announces `prefix` from `asid`. Fails when the AS is unknown or the
    /// prefix overlaps an existing announcement.
    pub fn announce(&mut self, prefix: Prefix, asid: AsId) -> Result<&mut Self, NetError> {
        if !self.index.contains_key(&asid) {
            return Err(NetError::UnknownAs(asid.0));
        }
        for &(existing, _) in &self.entries {
            if existing.covers(prefix) || prefix.covers(existing) {
                return Err(NetError::OverlappingPrefix {
                    new: prefix.to_string(),
                    existing: existing.to_string(),
                });
            }
        }
        self.entries.push((prefix, asid));
        Ok(self)
    }

    /// Finalizes into an immutable, lookup-ready registry.
    pub fn build(mut self) -> GeoRegistry {
        self.entries.sort_by_key(|(p, _)| p.first());
        GeoRegistry {
            entries: self.entries,
            infos: self.infos,
            index: self.index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::AsKind;

    fn sample() -> GeoRegistry {
        let mut b = GeoRegistryBuilder::new();
        b.register_as(AsInfo::new(1, CountryCode::HU, AsKind::Academic, "BME"));
        b.register_as(AsInfo::new(2, CountryCode::IT, AsKind::Academic, "GARR"));
        b.register_as(AsInfo::new(100, CountryCode::CN, AsKind::Carrier, "CN-BB"));
        b.announce(Prefix::of(Ip::from_octets(152, 66, 0, 0), 16), AsId(1))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(130, 192, 0, 0), 16), AsId(2))
            .unwrap();
        b.announce(Prefix::of(Ip::from_octets(58, 0, 0, 0), 8), AsId(100))
            .unwrap();
        b.build()
    }

    #[test]
    fn lookup_resolves_to_owning_as() {
        let r = sample();
        assert_eq!(r.as_of(Ip::from_octets(152, 66, 10, 1)), Some(AsId(1)));
        assert_eq!(r.as_of(Ip::from_octets(130, 192, 1, 1)), Some(AsId(2)));
        assert_eq!(r.as_of(Ip::from_octets(58, 33, 44, 55)), Some(AsId(100)));
    }

    #[test]
    fn lookup_miss_is_none() {
        let r = sample();
        assert_eq!(r.as_of(Ip::from_octets(8, 8, 8, 8)), None);
        assert_eq!(r.country_of(Ip::from_octets(8, 8, 8, 8)), None);
    }

    #[test]
    fn lookup_edges_of_prefix() {
        let r = sample();
        assert_eq!(r.as_of(Ip::from_octets(152, 66, 0, 0)), Some(AsId(1)));
        assert_eq!(r.as_of(Ip::from_octets(152, 66, 255, 255)), Some(AsId(1)));
        assert_eq!(r.as_of(Ip::from_octets(152, 67, 0, 0)), None);
        assert_eq!(r.as_of(Ip::from_octets(152, 65, 255, 255)), None);
    }

    #[test]
    fn country_resolution() {
        let r = sample();
        assert_eq!(
            r.country_of(Ip::from_octets(58, 1, 2, 3)),
            Some(CountryCode::CN)
        );
        assert_eq!(
            r.country_of(Ip::from_octets(130, 192, 9, 9)),
            Some(CountryCode::IT)
        );
    }

    #[test]
    fn endpoint_resolves_like_as_of_and_info() {
        let fresh = |r: &GeoRegistry, ip: Ip| {
            let asn = r.as_of(ip);
            let region = asn.and_then(|a| r.info(a)).map(|i| i.country.region());
            (asn, region)
        };
        // A deserialized registry has an empty AS index until `reindex`:
        // addresses still resolve to an AS, but to no region.
        let json = serde_json::to_string(&sample()).unwrap();
        let unindexed: GeoRegistry = serde_json::from_str(&json).unwrap();
        let ips = [
            Ip::from_octets(152, 66, 0, 0),
            Ip::from_octets(152, 66, 255, 255),
            Ip::from_octets(152, 67, 0, 0),
            Ip::from_octets(130, 192, 9, 9),
            Ip::from_octets(58, 1, 2, 3),
            Ip::from_octets(8, 8, 8, 8),
            Ip(0),
            Ip(u32::MAX),
        ];
        for r in [sample(), unindexed] {
            for ip in ips {
                let ep = r.endpoint(ip);
                assert_eq!(ep.ip, ip);
                assert_eq!((ep.asn, ep.region), fresh(&r, ip), "{ip}");
            }
        }
        let r = sample();
        let cn = r.endpoint(Ip::from_octets(58, 1, 2, 3));
        assert_eq!(cn.region, Some(Region::Asia));
        let miss = r.endpoint(Ip::from_octets(8, 8, 8, 8));
        assert_eq!((miss.asn, miss.region), (None, None));
    }

    #[test]
    fn overlap_rejected_both_directions() {
        let mut b = GeoRegistryBuilder::new();
        b.register_as(AsInfo::new(1, CountryCode::HU, AsKind::Academic, "A"));
        b.announce(Prefix::of(Ip::from_octets(10, 0, 0, 0), 16), AsId(1))
            .unwrap();
        // New prefix inside existing.
        assert!(matches!(
            b.announce(Prefix::of(Ip::from_octets(10, 0, 3, 0), 24), AsId(1)),
            Err(NetError::OverlappingPrefix { .. })
        ));
        // New prefix covering existing.
        assert!(matches!(
            b.announce(Prefix::of(Ip::from_octets(10, 0, 0, 0), 8), AsId(1)),
            Err(NetError::OverlappingPrefix { .. })
        ));
        // Disjoint sibling is fine.
        b.announce(Prefix::of(Ip::from_octets(10, 1, 0, 0), 16), AsId(1))
            .unwrap();
    }

    #[test]
    fn announce_requires_registered_as() {
        let mut b = GeoRegistryBuilder::new();
        assert!(matches!(
            b.announce(Prefix::of(Ip::from_octets(10, 0, 0, 0), 8), AsId(9)),
            Err(NetError::UnknownAs(9))
        ));
    }

    #[test]
    fn duplicate_identical_as_registration_is_noop() {
        let mut b = GeoRegistryBuilder::new();
        let info = AsInfo::new(1, CountryCode::HU, AsKind::Academic, "A");
        b.register_as(info.clone()).register_as(info);
        assert_eq!(b.build().ases().len(), 1);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn conflicting_as_registration_panics() {
        let mut b = GeoRegistryBuilder::new();
        b.register_as(AsInfo::new(1, CountryCode::HU, AsKind::Academic, "A"));
        b.register_as(AsInfo::new(1, CountryCode::IT, AsKind::Academic, "A"));
    }

    #[test]
    fn empty_registry() {
        let r = GeoRegistryBuilder::new().build();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.as_of(Ip(1)), None);
    }

    #[test]
    fn many_adjacent_prefixes_resolve_exactly() {
        let mut b = GeoRegistryBuilder::new();
        b.register_as(AsInfo::new(1, CountryCode::CN, AsKind::Carrier, "A"));
        for i in 0..64u32 {
            b.announce(Prefix::new_truncating(0x0A00_0000 | (i << 8), 24), AsId(1))
                .unwrap();
        }
        let r = b.build();
        assert_eq!(r.len(), 64);
        for i in 0..64u32 {
            let ip = Ip(0x0A00_0000 | (i << 8) | 7);
            assert_eq!(r.as_of(ip), Some(AsId(1)), "block {i}");
        }
        assert_eq!(r.as_of(Ip(0x0A00_4000)), None); // block 64 not announced
    }
}
