//! # netaware-net — AS-level Internet substrate
//!
//! This crate models the slice of the Internet that the NAPA-WINE
//! measurement study (Ciullo et al., IPDPS 2009) observes through packet
//! traces: IPv4 addressing, Autonomous Systems and their country
//! geolocation, access-link classes (institution LANs, DSL, CATV) with
//! NAT/firewall flags, and a deterministic inter-AS path model that yields
//! per-direction router hop counts (Internet paths are asymmetric) and
//! one-way propagation delays.
//!
//! Everything here is *deterministic*: the same registry and the same pair
//! of endpoints always produce the same hop count, delay, and TTL, so
//! simulation runs are reproducible byte-for-byte.
//!
//! The five network properties the paper's analysis framework measures map
//! directly onto this crate:
//!
//! | paper metric | provided by |
//! |---|---|
//! | `BW`  (access capacity)     | [`AccessLink`] rates |
//! | `AS`  (autonomous system)   | [`GeoRegistry::as_of`] |
//! | `CC`  (country)             | [`GeoRegistry::country_of`] |
//! | `NET` (same subnet)         | [`Ip::same_subnet`] |
//! | `HOP` (router distance)     | [`PathModel::hops`] |

#![warn(missing_docs)]

pub mod access;
pub mod alloc;
pub mod asn;
pub mod country;
pub mod error;
pub mod hash;
pub mod ip;
pub mod latency;
pub mod path;
pub mod registry;
pub mod ttl;

pub use access::{AccessClass, AccessLink};
pub use alloc::AddressAllocator;
pub use asn::{AsId, AsInfo, AsKind};
pub use country::CountryCode;
pub use error::NetError;
pub use ip::{Ip, Prefix};
pub use latency::LatencyModel;
pub use path::PathModel;
pub use registry::{Endpoint, GeoRegistry, GeoRegistryBuilder};
pub use ttl::{hops_from_ttl, ttl_at_receiver, DEFAULT_TTL};
