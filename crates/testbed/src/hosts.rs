//! Table I: the probe hosts.
//!
//! "The setup involved a total of 44 peers, including 37 PCs from 7
//! different industrial/academic sites, and 7 home PCs. Probes are
//! distributed over four countries, and connected to 6 different
//! Autonomous Systems, while home PCs are connected to 7 other ASs and
//! ISPs." We encode the table as printed; each home PC gets its own
//! residential-ISP AS (the paper's "ASx"), shared with that country's
//! external DSL population.

use netaware_net::{AccessClass, CountryCode};
use serde::Serialize;

/// One of the seven probe sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct Site {
    /// Site short name as in Table I.
    pub name: &'static str,
    /// Country.
    pub cc: CountryCode,
    /// Institution AS label ("AS1".."AS6").
    pub as_label: &'static str,
}

/// The seven sites of the experiments.
pub const SITES: [Site; 7] = [
    Site { name: "BME", cc: CountryCode::HU, as_label: "AS1" },
    Site { name: "PoliTO", cc: CountryCode::IT, as_label: "AS2" },
    Site { name: "MT", cc: CountryCode::HU, as_label: "AS3" },
    Site { name: "ENST", cc: CountryCode::FR, as_label: "AS4" },
    Site { name: "FFT", cc: CountryCode::FR, as_label: "AS5" },
    Site { name: "UniTN", cc: CountryCode::IT, as_label: "AS2" },
    Site { name: "WUT", cc: CountryCode::PL, as_label: "AS6" },
];

/// One probe host row.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct HostDef {
    /// Site the host belongs to (home PCs are associated with the site
    /// of the partner operating them, but sit in their own ISP's AS).
    pub site: &'static str,
    /// Host number within the site (Table I numbering).
    pub host: u8,
    /// Access class.
    pub access: AccessClass,
    /// Behind NAT.
    pub nat: bool,
    /// Behind a firewall.
    pub fw: bool,
    /// Home PC (connected through a residential ISP, the "ASx" rows).
    pub home: bool,
}

impl HostDef {
    const fn lan(site: &'static str, host: u8) -> Self {
        HostDef {
            site,
            host,
            access: AccessClass::Lan,
            nat: false,
            fw: false,
            home: false,
        }
    }

    const fn lan_flags(site: &'static str, host: u8, nat: bool, fw: bool) -> Self {
        HostDef {
            site,
            host,
            access: AccessClass::Lan,
            nat,
            fw,
            home: false,
        }
    }

    const fn home(site: &'static str, host: u8, access: AccessClass, nat: bool, fw: bool) -> Self {
        HostDef {
            site,
            host,
            access,
            nat,
            fw,
            home: true,
        }
    }

    /// Whether the host counts as high-bandwidth (Table I "high-bw").
    pub fn is_high_bw(&self) -> bool {
        self.access.is_high_bw()
    }

    /// The site definition for this host.
    #[expect(clippy::expect_used, reason = "table1_hosts only uses SITES names")]
    pub fn site_def(&self) -> Site {
        SITES
            .iter()
            .copied()
            .find(|s| s.name == self.site)
            .expect("host references a known site")
    }
}

/// Every probe host of Table I, in table order.
pub fn table1_hosts() -> Vec<HostDef> {
    let mut v = Vec::new();
    // BME, HU, AS1: hosts 1-4 high-bw; host 5 home DSL 6/0.512.
    for h in 1..=4 {
        v.push(HostDef::lan("BME", h));
    }
    v.push(HostDef::home("BME", 5, AccessClass::Dsl(6_000, 512), false, false));

    // PoliTO, IT, AS2: 1-9 high-bw; 10 DSL 4/0.384; 11-12 DSL 8/0.384 NAT.
    for h in 1..=9 {
        v.push(HostDef::lan("PoliTO", h));
    }
    v.push(HostDef::home("PoliTO", 10, AccessClass::Dsl(4_000, 384), false, false));
    v.push(HostDef::home("PoliTO", 11, AccessClass::Dsl(8_000, 384), true, false));
    v.push(HostDef::home("PoliTO", 12, AccessClass::Dsl(8_000, 384), true, false));

    // MT, HU, AS3: 1-4 high-bw.
    for h in 1..=4 {
        v.push(HostDef::lan("MT", h));
    }

    // FFT, FR, AS5: 1-3 high-bw.
    for h in 1..=3 {
        v.push(HostDef::lan("FFT", h));
    }

    // ENST, FR, AS4: 1-4 high-bw behind firewall; 5 DSL 22/1.8 NAT.
    for h in 1..=4 {
        v.push(HostDef::lan_flags("ENST", h, false, true));
    }
    v.push(HostDef::home("ENST", 5, AccessClass::Dsl(22_000, 1_800), true, false));

    // UniTN, IT, AS2: 1-5 high-bw; 6-7 high-bw NAT; 8 DSL 2.5/0.384 NAT+FW.
    for h in 1..=5 {
        v.push(HostDef::lan("UniTN", h));
    }
    v.push(HostDef::lan_flags("UniTN", 6, true, false));
    v.push(HostDef::lan_flags("UniTN", 7, true, false));
    v.push(HostDef::home("UniTN", 8, AccessClass::Dsl(2_500, 384), true, true));

    // WUT, PL, AS6: 1-8 high-bw; 9 CATV 6/0.512.
    for h in 1..=8 {
        v.push(HostDef::lan("WUT", h));
    }
    v.push(HostDef::home("WUT", 9, AccessClass::Catv(6_000, 512), false, false));

    v
}

/// Renders Table I in the paper's layout.
pub fn render_table1() -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "TABLE I — probe hosts: site, country, AS, access, NAT, firewall"
    );
    let _ = writeln!(
        s,
        "{:<6} {:<8} {:<3} {:<4} {:<14} {:<4} {:<3}",
        "Host", "Site", "CC", "AS", "Access", "Nat", "FW"
    );
    for h in table1_hosts() {
        let site = h.site_def();
        let _ = writeln!(
            s,
            "{:<6} {:<8} {:<3} {:<4} {:<14} {:<4} {:<3}",
            h.host,
            h.site,
            site.cc.label(),
            if h.home { "ASx" } else { site.as_label },
            h.access.to_string(),
            if h.nat { "Y" } else { "-" },
            if h.fw { "Y" } else { "-" },
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_shape_matches_paper() {
        let hosts = table1_hosts();
        // Table I as printed: 39 institution + 7 home rows.
        let homes = hosts.iter().filter(|h| h.home).count();
        assert_eq!(homes, 7, "seven home PCs");
        let institutional = hosts.iter().filter(|h| !h.home).count();
        assert_eq!(institutional, 39);
        // Seven sites, four countries, six institution ASes.
        let sites: std::collections::BTreeSet<_> = hosts.iter().map(|h| h.site).collect();
        assert_eq!(sites.len(), 7);
        let ccs: std::collections::BTreeSet<_> = hosts.iter().map(|h| h.site_def().cc).collect();
        assert_eq!(ccs.len(), 4);
        let ases: std::collections::BTreeSet<_> = hosts
            .iter()
            .filter(|h| !h.home)
            .map(|h| h.site_def().as_label)
            .collect();
        assert_eq!(ases.len(), 6);
    }

    #[test]
    fn high_bw_classification() {
        let hosts = table1_hosts();
        for h in &hosts {
            if h.home {
                assert!(!h.is_high_bw(), "home host {}:{} must be low-bw", h.site, h.host);
            } else {
                assert!(h.is_high_bw());
            }
        }
    }

    #[test]
    fn middlebox_rows_match_table() {
        let hosts = table1_hosts();
        let enst_lan: Vec<_> = hosts
            .iter()
            .filter(|h| h.site == "ENST" && !h.home)
            .collect();
        assert!(enst_lan.iter().all(|h| h.fw && !h.nat));
        let unitn8 = hosts
            .iter()
            .find(|h| h.site == "UniTN" && h.host == 8)
            .unwrap();
        assert!(unitn8.nat && unitn8.fw);
        let polito11 = hosts
            .iter()
            .find(|h| h.site == "PoliTO" && h.host == 11)
            .unwrap();
        assert!(polito11.nat && !polito11.fw);
    }

    #[test]
    fn unitn_and_polito_share_as2() {
        let a = SITES.iter().find(|s| s.name == "PoliTO").unwrap();
        let b = SITES.iter().find(|s| s.name == "UniTN").unwrap();
        assert_eq!(a.as_label, b.as_label);
        assert_eq!(a.cc, b.cc);
    }

    #[test]
    fn render_contains_all_sites() {
        let out = render_table1();
        for s in SITES {
            assert!(out.contains(s.name), "missing {}", s.name);
        }
        assert!(out.contains("DSL 22/1.8"));
        assert!(out.contains("CATV 6/0.512"));
    }
}
