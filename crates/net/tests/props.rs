//! Randomized property tests for the network substrate, driven by a
//! seeded [`DetRng`] so every run explores the same cases.

#![allow(clippy::unwrap_used)]

use netaware_net::{
    hash, hops_from_ttl, ttl_at_receiver, AddressAllocator, AsId, AsInfo, AsKind, CountryCode,
    GeoRegistry, GeoRegistryBuilder, Ip, LatencyModel, PathModel, Prefix,
};
use netaware_sim::DetRng;

const CASES: usize = 256;

fn registry() -> GeoRegistry {
    let mut b = GeoRegistryBuilder::new();
    b.register_as(AsInfo::new(1, CountryCode::IT, AsKind::Academic, "A"));
    b.register_as(AsInfo::new(2, CountryCode::CN, AsKind::Carrier, "B"));
    b.announce(Prefix::of(Ip::from_octets(130, 192, 0, 0), 16), AsId(1))
        .unwrap();
    b.announce(Prefix::of(Ip::from_octets(58, 0, 0, 0), 8), AsId(2))
        .unwrap();
    b.build()
}

/// A prefix contains exactly the addresses sharing its masked bits.
#[test]
fn prefix_membership() {
    let mut rng = DetRng::stream(0xBADC0DE, "net/prefix_membership");
    for _ in 0..CASES {
        let base = rng.next_u64() as u32;
        let len: u8 = rng.range(0..=32u8);
        let probe = rng.next_u64() as u32;
        let p = Prefix::new_truncating(base, len);
        let member = (probe & Prefix::mask(len)) == p.first().0;
        assert_eq!(p.contains(Ip(probe)), member);
        // First/last are always members.
        assert!(p.contains(p.first()));
        assert!(p.contains(p.last()));
    }
}

/// `covers` is a partial order consistent with `contains`.
#[test]
fn covers_consistent() {
    let mut rng = DetRng::stream(0xBADC0DE, "net/covers_consistent");
    for _ in 0..CASES {
        let a = Prefix::new_truncating(rng.next_u64() as u32, rng.range(0..=32u8));
        let b = Prefix::new_truncating(rng.next_u64() as u32, rng.range(0..=32u8));
        if a.covers(b) {
            assert!(a.contains(b.first()));
            assert!(a.contains(b.last()));
            assert!(a.len() <= b.len());
        }
    }
}

/// Dense and scattered allocators both yield unique in-prefix hosts and
/// agree on capacity.
#[test]
fn allocators_unique() {
    let mut rng = DetRng::stream(0xBADC0DE, "net/allocators_unique");
    for _ in 0..16 {
        let seed = rng.next_u64();
        let len: u8 = rng.range(20..=28u8);
        let p = Prefix::of(Ip::from_octets(10, 7, 0, 0), len);
        for mut alloc in [
            AddressAllocator::dense(p),
            AddressAllocator::scattered(p, seed),
        ] {
            let cap = alloc.capacity();
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..cap {
                let ip = alloc.next_ip().unwrap();
                assert!(p.contains(ip));
                assert!(seen.insert(ip));
                // Network/broadcast never handed out on classic subnets.
                assert_ne!(ip, p.first());
                assert_ne!(ip, p.last());
            }
            assert!(alloc.next_ip().is_err());
        }
    }
}

/// TTL encoding round-trips for every plausible hop count.
#[test]
fn ttl_roundtrip() {
    for hops in 0u8..=127 {
        assert_eq!(hops_from_ttl(ttl_at_receiver(hops)), Some(hops));
    }
}

/// Hop counts are deterministic, bounded, and zero exactly on the same
/// subnet.
#[test]
fn hops_bounded_and_deterministic() {
    let reg = registry();
    let mut rng = DetRng::stream(0xBADC0DE, "net/hops_bounded");
    for _ in 0..CASES {
        let m = PathModel::new(rng.next_u64());
        let a = Ip(rng.next_u64() as u32);
        let b = Ip(rng.next_u64() as u32);
        let h1 = m.hops(&reg, a, b);
        let h2 = m.hops(&reg, a, b);
        assert_eq!(h1, h2);
        assert!(h1 <= 64);
        if a.same_subnet(b) {
            assert_eq!(h1, 0);
        } else {
            assert!(h1 >= 1);
        }
    }
}

/// Forward and reverse hop counts stay within the modelled asymmetry
/// bound.
#[test]
fn hop_asymmetry_bounded() {
    let reg = registry();
    let mut rng = DetRng::stream(0xBADC0DE, "net/hop_asymmetry");
    for _ in 0..CASES {
        let m = PathModel::new(rng.next_u64());
        let a = Ip(rng.next_u64() as u32);
        let b = Ip(rng.next_u64() as u32);
        let f = m.hops(&reg, a, b) as i32;
        let r = m.hops(&reg, b, a) as i32;
        assert!((f - r).abs() <= 6, "f={f} r={r}");
    }
}

/// Latency is deterministic, positive, and nearly symmetric.
#[test]
fn latency_sane() {
    let reg = registry();
    let mut rng = DetRng::stream(0xBADC0DE, "net/latency_sane");
    for _ in 0..CASES {
        let m = LatencyModel::new(rng.next_u64());
        let a = rng.next_u64() as u32;
        let b = rng.next_u64() as u32;
        if a == b {
            continue;
        }
        let f = m.one_way_us(&reg, Ip(a), Ip(b));
        assert_eq!(f, m.one_way_us(&reg, Ip(a), Ip(b)));
        assert!(f >= 100);
        assert!(f < 1_000_000, "one-way {f}µs");
        let r = m.one_way_us(&reg, Ip(b), Ip(a));
        let ratio = f as f64 / r as f64;
        assert!((0.85..1.18).contains(&ratio), "ratio {ratio}");
    }
}

/// The mixing primitives stay in range.
#[test]
fn hash_ranges() {
    let mut rng = DetRng::stream(0xBADC0DE, "net/hash_ranges");
    for _ in 0..CASES {
        let x = rng.next_u64();
        let lo: u32 = rng.range(0..1000u32);
        let span: u32 = rng.range(0..1000u32);
        let hi = lo + span;
        let v = hash::ranged(x, lo, hi);
        assert!((lo..=hi).contains(&v));
        let u = hash::unit(x);
        assert!((0.0..1.0).contains(&u));
    }
}

/// Registry lookups agree with the announcing prefix.
#[test]
fn registry_lookup_sound() {
    let reg = registry();
    let mut rng = DetRng::stream(0xBADC0DE, "net/registry_lookup");
    for _ in 0..CASES {
        let ip = rng.next_u64() as u32;
        match reg.as_of(Ip(ip)) {
            Some(AsId(1)) => {
                assert!(Prefix::of(Ip::from_octets(130, 192, 0, 0), 16).contains(Ip(ip)))
            }
            Some(AsId(2)) => {
                assert!(Prefix::of(Ip::from_octets(58, 0, 0, 0), 8).contains(Ip(ip)))
            }
            Some(other) => panic!("unexpected {other}"),
            None => {
                assert!(!Prefix::of(Ip::from_octets(130, 192, 0, 0), 16).contains(Ip(ip)));
                assert!(!Prefix::of(Ip::from_octets(58, 0, 0, 0), 8).contains(Ip(ip)));
            }
        }
    }
}

#[test]
fn registry_serde_roundtrip_with_reindex() {
    let reg = registry();
    let js = serde_json::to_string(&reg).unwrap();
    let mut back: GeoRegistry = serde_json::from_str(&js).unwrap();
    // The AS index is skipped during (de)serialisation and must be rebuilt.
    back.reindex();
    let probe = Ip::from_octets(130, 192, 9, 9);
    assert_eq!(back.as_of(probe), reg.as_of(probe));
    assert_eq!(
        back.info(AsId(1)).map(|i| i.country),
        reg.info(AsId(1)).map(|i| i.country)
    );
    assert_eq!(back.prefixes(), reg.prefixes());
}
