//! Country codes and coarse geography.
//!
//! The paper's `CC` metric geolocates peers to countries; its Figure 1
//! breaks peers and bytes down by country with China (`CN`) dominant and
//! the four probe countries (`HU`, `IT`, `FR`, `PL`) called out, all other
//! countries binned as `*`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// ISO-3166-ish country codes for the countries that matter to the study,
/// plus a catch-all [`CountryCode::Other`] matching the paper's `*` bin.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum CountryCode {
    /// China — where the CCTV-1 audience and hence most peers live.
    CN,
    /// Hungary (BME, MT probe sites).
    HU,
    /// Italy (PoliTO, UniTN probe sites).
    IT,
    /// France (ENST, FFT probe sites).
    FR,
    /// Poland (WUT probe site).
    PL,
    DE,
    ES,
    GB,
    US,
    JP,
    KR,
    TW,
    RU,
    BR,
    /// Any other country (the paper's `*` bin).
    Other,
}

impl CountryCode {
    /// Every code, in a stable order (useful for table rows).
    pub const ALL: [CountryCode; 15] = [
        CountryCode::CN,
        CountryCode::HU,
        CountryCode::IT,
        CountryCode::FR,
        CountryCode::PL,
        CountryCode::DE,
        CountryCode::ES,
        CountryCode::GB,
        CountryCode::US,
        CountryCode::JP,
        CountryCode::KR,
        CountryCode::TW,
        CountryCode::RU,
        CountryCode::BR,
        CountryCode::Other,
    ];

    /// The two-letter label the paper prints (`Other` prints as `*`).
    pub const fn label(self) -> &'static str {
        match self {
            CountryCode::CN => "CN",
            CountryCode::HU => "HU",
            CountryCode::IT => "IT",
            CountryCode::FR => "FR",
            CountryCode::PL => "PL",
            CountryCode::DE => "DE",
            CountryCode::ES => "ES",
            CountryCode::GB => "GB",
            CountryCode::US => "US",
            CountryCode::JP => "JP",
            CountryCode::KR => "KR",
            CountryCode::TW => "TW",
            CountryCode::RU => "RU",
            CountryCode::BR => "BR",
            CountryCode::Other => "*",
        }
    }

    /// Coarse region, used by the latency and hop models.
    pub const fn region(self) -> Region {
        match self {
            CountryCode::CN | CountryCode::JP | CountryCode::KR | CountryCode::TW => Region::Asia,
            CountryCode::US | CountryCode::BR => Region::Americas,
            CountryCode::Other => Region::Elsewhere,
            _ => Region::Europe,
        }
    }
}

impl fmt::Display for CountryCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Continental region; drives baseline propagation delay and AS-path
/// length between countries.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Region {
    /// Europe — where all probes sit.
    Europe,
    /// East Asia — where the bulk of the audience sits.
    Asia,
    /// North and South America.
    Americas,
    /// Anywhere else.
    Elsewhere,
}

impl Region {
    /// `true` when two regions are the same continent.
    pub fn same(self, other: Region) -> bool {
        self == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_two_letters_or_star() {
        for cc in CountryCode::ALL {
            let l = cc.label();
            assert!(l == "*" || l.len() == 2, "bad label {l}");
        }
    }

    #[test]
    fn regions() {
        assert_eq!(CountryCode::CN.region(), Region::Asia);
        assert_eq!(CountryCode::IT.region(), Region::Europe);
        assert_eq!(CountryCode::US.region(), Region::Americas);
        assert_eq!(CountryCode::Other.region(), Region::Elsewhere);
        assert!(Region::Asia.same(Region::Asia));
        assert!(!Region::Asia.same(Region::Europe));
    }

    #[test]
    fn all_is_exhaustive_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for cc in CountryCode::ALL {
            assert!(seen.insert(cc));
        }
        assert_eq!(seen.len(), 15);
    }
}
