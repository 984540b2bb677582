//! Access-link classes.
//!
//! Table I of the paper lists the access types of the 44 probes:
//! institution "high-bw" LANs plus home DSL/CATV lines like `6/0.512`
//! (6 Mb/s down, 512 kb/s up), some behind NAT and/or firewalls. The BW
//! preferential partition of the analysis classifies a path as
//! high-bandwidth when a 1250-byte packet serialises in under 1 ms, i.e.
//! when the bottleneck exceeds 10 Mb/s — institution LANs qualify,
//! DSL/CATV do not.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Bits per second.
pub type Bps = u64;

/// One megabit per second.
pub const MBPS: Bps = 1_000_000;

/// The capacity above which the paper's BW partition calls a peer
/// "high-bandwidth" (1250 B in < 1 ms ⇒ > 10 Mb/s).
pub const HIGH_BW_THRESHOLD: Bps = 10 * MBPS;

/// Named access classes appearing in Table I plus the classes used for the
/// synthetic external population.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AccessClass {
    /// Institution LAN (≥100 Mb/s both ways) — "high-bw" in Table I.
    Lan,
    /// ADSL with the given down/up rates in kb/s (e.g. `Dsl(6000, 512)`).
    Dsl(u32, u32),
    /// Cable TV access, down/up in kb/s.
    Catv(u32, u32),
    /// Fast fiber/ethernet home access (for the synthetic population tail).
    Fiber(u32, u32),
}

impl AccessClass {
    /// Downstream capacity in bits per second.
    pub const fn down_bps(self) -> Bps {
        match self {
            AccessClass::Lan => 100 * MBPS,
            AccessClass::Dsl(d, _) | AccessClass::Catv(d, _) | AccessClass::Fiber(d, _) => {
                d as Bps * 1000
            }
        }
    }

    /// Upstream capacity in bits per second.
    pub const fn up_bps(self) -> Bps {
        match self {
            AccessClass::Lan => 100 * MBPS,
            AccessClass::Dsl(_, u) | AccessClass::Catv(_, u) | AccessClass::Fiber(_, u) => {
                u as Bps * 1000
            }
        }
    }

    /// `true` when the *upstream* exceeds the paper's 10 Mb/s BW
    /// threshold — this is the direction the analysis can observe, since
    /// capacity is inferred from packets the peer sends.
    pub const fn is_high_bw(self) -> bool {
        self.up_bps() > HIGH_BW_THRESHOLD
    }
}

impl fmt::Display for AccessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessClass::Lan => write!(f, "high-bw"),
            AccessClass::Dsl(d, u) => write!(f, "DSL {}/{}", kbps_label(*d), kbps_label(*u)),
            AccessClass::Catv(d, u) => write!(f, "CATV {}/{}", kbps_label(*d), kbps_label(*u)),
            AccessClass::Fiber(d, u) => write!(f, "FTTH {}/{}", kbps_label(*d), kbps_label(*u)),
        }
    }
}

fn kbps_label(kbps: u32) -> String {
    if kbps >= 1000 && kbps.is_multiple_of(100) {
        let mb = kbps as f64 / 1000.0;
        if (mb - mb.round()).abs() < 1e-9 {
            format!("{}", mb.round() as u64)
        } else {
            format!("{mb}")
        }
    } else {
        format!("0.{kbps:03}")
    }
}

/// A host's attachment to the network: capacity plus the reachability
/// constraints (NAT/firewall) that shape who can open connections to it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AccessLink {
    /// Capacity class.
    pub class: AccessClass,
    /// Behind a NAT: inbound sessions need the host to have sent first
    /// (hole punching), as for several Table I home peers.
    pub nat: bool,
    /// Behind a firewall dropping unsolicited inbound (ENST site hosts).
    pub firewall: bool,
}

impl AccessLink {
    /// An open institution LAN link.
    pub const fn lan() -> Self {
        AccessLink {
            class: AccessClass::Lan,
            nat: false,
            firewall: false,
        }
    }

    /// An arbitrary link with no middleboxes.
    pub const fn open(class: AccessClass) -> Self {
        AccessLink {
            class,
            nat: false,
            firewall: false,
        }
    }

    /// Marks the link as NATted.
    pub const fn with_nat(mut self) -> Self {
        self.nat = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_is_high_bw() {
        assert!(AccessClass::Lan.is_high_bw());
        assert_eq!(AccessClass::Lan.up_bps(), 100 * MBPS);
    }

    #[test]
    fn dsl_is_low_bw() {
        // Table I: "DSL 6/0.512".
        let dsl = AccessClass::Dsl(6000, 512);
        assert_eq!(dsl.down_bps(), 6 * MBPS);
        assert_eq!(dsl.up_bps(), 512_000);
        assert!(!dsl.is_high_bw());
    }

    #[test]
    fn fast_dsl_down_still_low_up() {
        // Table I ENST home: "DSL 22/1.8" — fast down, slow up, so NOT
        // high-bw under the (observable, upstream) classification.
        let dsl = AccessClass::Dsl(22_000, 1800);
        assert!(!dsl.is_high_bw());
    }

    #[test]
    fn fiber_above_threshold_is_high_bw() {
        assert!(AccessClass::Fiber(100_000, 50_000).is_high_bw());
        assert!(!AccessClass::Fiber(100_000, 10_000).is_high_bw()); // == threshold, not >
    }

    #[test]
    fn display_matches_table_one_style() {
        assert_eq!(AccessClass::Lan.to_string(), "high-bw");
        assert_eq!(AccessClass::Dsl(6000, 512).to_string(), "DSL 6/0.512");
        assert_eq!(AccessClass::Catv(6000, 512).to_string(), "CATV 6/0.512");
        assert_eq!(AccessClass::Dsl(22_000, 1800).to_string(), "DSL 22/1.8");
    }

    #[test]
    fn middlebox_flags() {
        let l = AccessLink::open(AccessClass::Dsl(2500, 384));
        assert!(!l.nat && !l.firewall);
        let natted = l.with_nat();
        assert!(natted.nat && !natted.firewall);
    }
}
