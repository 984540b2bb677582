//! Peer-selection policies.
//!
//! This is the knob the whole reproduction turns on: each application
//! profile carries a [`SelectionPolicy`] describing how a peer weighs
//! candidate providers, and the analysis framework — which never sees
//! these weights — must recover the resulting biases from traffic alone.
//!
//! A candidate's weight is a product of independent factors:
//!
//! * a **bandwidth term** `(est_up / 1 Mb/s)^bw_exponent` from the
//!   peer's running estimate of the provider's upstream (estimated from
//!   observed chunk delivery speed; before any exchange a responsiveness
//!   prior from the handshake RTT stands in);
//! * a **same-AS boost** and a **same-country boost** — the locality
//!   preferences the paper hunts for;
//! * a **stickiness** multiplier favouring the provider that served the
//!   peer last (provider rotation differs sharply between PPLive-like
//!   and TVAnts-like systems and shapes contributor counts).
//!
//! Setting every exponent/boost to neutral yields the uniform-random
//! policy used by the ablation experiments.

use serde::{Deserialize, Serialize};

/// Weights steering provider choice.
///
/// ```
/// use netaware_proto::{SelectionPolicy, Candidate};
///
/// let policy = SelectionPolicy {
///     bw_exponent: 1.0,
///     same_as_boost: 4.0,
///     ..SelectionPolicy::uniform()
/// };
/// let fast_far = Candidate { est_up_bps: Some(100_000_000), ..Default::default() };
/// let slow_near = Candidate { est_up_bps: Some(4_000_000), same_as: true, ..Default::default() };
/// // 100 Mb/s beats a same-AS 4 Mb/s peer under this mix (100 > 4·4):
/// assert!(policy.weight(&fast_far) > policy.weight(&slow_near));
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SelectionPolicy {
    /// Exponent on the estimated upstream bandwidth (0 = BW-blind).
    pub bw_exponent: f64,
    /// Multiplicative weight for same-AS candidates (1 = no preference).
    pub same_as_boost: f64,
    /// Multiplicative weight for same-subnet (LAN) candidates; applied
    /// instead of the AS boost when larger. PPLive's measured behaviour
    /// needs a subnet affinity well beyond its AS affinity.
    pub subnet_boost: f64,
    /// Multiplicative weight for same-country candidates (1 = none).
    pub same_cc_boost: f64,
    /// Multiplicative weight for the most recent provider (1 = none);
    /// high values mean few, stable contributors.
    pub stickiness: f64,
}

/// Prior upstream estimate (b/s) for candidates never exchanged with.
pub const UNKNOWN_BW_PRIOR_BPS: u64 = 4_000_000;

impl SelectionPolicy {
    /// Uniform-random selection: every candidate weighs 1.
    pub const fn uniform() -> Self {
        SelectionPolicy {
            bw_exponent: 0.0,
            same_as_boost: 1.0,
            subnet_boost: 1.0,
            same_cc_boost: 1.0,
            stickiness: 1.0,
        }
    }

    /// Weight of one candidate given its observable context.
    pub fn weight(&self, c: &Candidate) -> f64 {
        self.with_factors(self.bw_term(c.est_up_bps), c)
    }

    /// The bandwidth term of a weight: `(est_up / 1 Mb/s)^bw_exponent`,
    /// with the prior standing in for a candidate never exchanged with.
    /// It depends on nothing else, so a caller pricing many unmeasured
    /// candidates can compute `bw_term(None)` once.
    pub(crate) fn bw_term(&self, est_up_bps: Option<u64>) -> f64 {
        let bw = est_up_bps.unwrap_or(UNKNOWN_BW_PRIOR_BPS) as f64 / 1e6;
        bw.max(0.01).powf(self.bw_exponent)
    }

    /// Applies the locality and stickiness factors of `c` to its
    /// bandwidth term `bw` (`c.est_up_bps` is not read).
    pub(crate) fn with_factors(&self, bw: f64, c: &Candidate) -> f64 {
        let mut w = bw;
        if c.same_subnet {
            w *= self.subnet_boost.max(self.same_as_boost);
        } else if c.same_as {
            w *= self.same_as_boost;
        } else if c.same_cc {
            // Country boost applies to same-country peers in *other*
            // ASes; same-AS peers already got the (stronger) AS boost.
            w *= self.same_cc_boost;
        }
        if c.is_last_provider {
            w *= self.stickiness;
        }
        w
    }
}

/// What a peer can observe about a candidate provider at selection time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Candidate {
    /// Running upstream estimate from past exchanges, if any.
    pub est_up_bps: Option<u64>,
    /// Candidate shares the selecting peer's subnet (LAN).
    pub same_subnet: bool,
    /// Candidate resolves to the selecting peer's AS.
    pub same_as: bool,
    /// Candidate resolves to the selecting peer's country.
    pub same_cc: bool,
    /// Candidate served this peer's previous request.
    pub is_last_provider: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weighs_everything_equally() {
        let p = SelectionPolicy::uniform();
        let fast = Candidate {
            est_up_bps: Some(100_000_000),
            ..Default::default()
        };
        let slow = Candidate {
            est_up_bps: Some(400_000),
            ..Default::default()
        };
        let local = Candidate {
            same_as: true,
            same_cc: true,
            ..Default::default()
        };
        assert_eq!(p.weight(&fast), 1.0);
        assert_eq!(p.weight(&slow), 1.0);
        assert_eq!(p.weight(&local), 1.0);
    }

    #[test]
    fn bw_exponent_orders_candidates() {
        let p = SelectionPolicy {
            bw_exponent: 0.5,
            ..SelectionPolicy::uniform()
        };
        let fast = Candidate {
            est_up_bps: Some(100_000_000),
            ..Default::default()
        };
        let slow = Candidate {
            est_up_bps: Some(512_000),
            ..Default::default()
        };
        let ratio = p.weight(&fast) / p.weight(&slow);
        // sqrt(100/0.512) ≈ 14
        assert!((13.0..15.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn unknown_bw_uses_prior() {
        let p = SelectionPolicy {
            bw_exponent: 1.0,
            ..SelectionPolicy::uniform()
        };
        let unknown = Candidate::default();
        assert!((p.weight(&unknown) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn as_boost_dominates_cc_boost() {
        let p = SelectionPolicy {
            same_as_boost: 8.0,
            same_cc_boost: 2.0,
            ..SelectionPolicy::uniform()
        };
        let same_as = Candidate {
            same_as: true,
            same_cc: true,
            ..Default::default()
        };
        let same_cc_only = Candidate {
            same_cc: true,
            ..Default::default()
        };
        assert_eq!(p.weight(&same_as), 8.0); // not 16: boosts don't stack
        assert_eq!(p.weight(&same_cc_only), 2.0);
    }

    #[test]
    fn stickiness_multiplies() {
        let p = SelectionPolicy {
            stickiness: 5.0,
            ..SelectionPolicy::uniform()
        };
        let sticky = Candidate {
            is_last_provider: true,
            ..Default::default()
        };
        assert_eq!(p.weight(&sticky), 5.0);
    }

    #[test]
    fn tiny_bandwidth_clamped_positive() {
        let p = SelectionPolicy {
            bw_exponent: 2.0,
            ..SelectionPolicy::uniform()
        };
        let dead = Candidate {
            est_up_bps: Some(0),
            ..Default::default()
        };
        assert!(p.weight(&dead) > 0.0);
    }
}
