//! Synthetic external-peer population.
//!
//! The paper's overlays were dominated by Chinese peers (CCTV-1 during
//! China peak hours) with a sprinkle of European ones; access capacities
//! follow a 2008-plausible mix of residential DSL/CATV, fiber, and
//! institution LANs. The generator is deterministic in its seed and
//! draws addresses from per-AS allocators so the geolocation registry
//! can resolve every peer.

use netaware_net::{AccessClass, AccessLink, AddressAllocator, Prefix};
use netaware_proto::ExternalSpec;
use netaware_sim::DetRng;
use serde::{Deserialize, Serialize};

/// Access-capacity mix archetypes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessMix {
    /// Chinese carrier: some campus/cafe LANs and fast fiber, mostly
    /// ADSL.
    CnCarrier,
    /// European residential ISP: DSL/CATV with a fiber tail.
    EuResidential,
    /// Academic network: LANs and throttled dorm links.
    Academic,
    /// Rest-of-world mix.
    Other,
}

impl AccessMix {
    /// Draws an access link from the mix.
    pub fn draw(self, rng: &mut DetRng) -> AccessLink {
        let u = rng.unit();
        let class = match self {
            AccessMix::CnCarrier => {
                if u < 0.18 {
                    AccessClass::Lan
                } else if u < 0.36 {
                    AccessClass::Fiber(100_000, 20_000)
                } else if u < 0.66 {
                    AccessClass::Dsl(4_000, 512)
                } else if u < 0.86 {
                    AccessClass::Dsl(2_000, 384)
                } else {
                    AccessClass::Catv(6_000, 512)
                }
            }
            AccessMix::EuResidential => {
                if u < 0.12 {
                    AccessClass::Fiber(100_000, 20_000)
                } else if u < 0.52 {
                    AccessClass::Dsl(8_000, 512)
                } else if u < 0.82 {
                    AccessClass::Dsl(4_000, 384)
                } else {
                    AccessClass::Catv(6_000, 512)
                }
            }
            AccessMix::Academic => {
                if u < 0.8 {
                    AccessClass::Lan
                } else {
                    // Dorm/VPN links: fast down, capped up — NOT high-bw.
                    AccessClass::Fiber(20_000, 8_000)
                }
            }
            AccessMix::Other => {
                if u < 0.2 {
                    AccessClass::Fiber(100_000, 20_000)
                } else if u < 0.7 {
                    AccessClass::Dsl(6_000, 512)
                } else {
                    AccessClass::Catv(6_000, 512)
                }
            }
        };
        // A share of residential links sit behind NAT.
        let nat = matches!(
            class,
            AccessClass::Dsl(..) | AccessClass::Catv(..) | AccessClass::Fiber(..)
        ) && rng.chance(0.3);
        let link = AccessLink::open(class);
        if nat {
            link.with_nat()
        } else {
            link
        }
    }
}

/// One AS the population draws peers into.
#[derive(Clone, Debug)]
pub struct PopulationSlot {
    /// Prefix peers are allocated from.
    pub prefix: Prefix,
    /// Relative share of the population living here.
    pub weight: f64,
    /// Access mix of the AS.
    pub mix: AccessMix,
}

/// Population generation parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of external peers to generate.
    pub size: usize,
    /// Seed for the generator streams.
    pub seed: u64,
}

/// Generates `cfg.size` external peers distributed over `slots` by
/// weight, with per-slot scattered addressing and access mixes.
pub fn generate(slots: &[PopulationSlot], cfg: &PopulationConfig) -> Vec<ExternalSpec> {
    assert!(!slots.is_empty(), "population needs at least one slot");
    let mut rng = DetRng::stream(cfg.seed, "population");
    let mut weights: Vec<f64> = slots.iter().map(|s| s.weight).collect();
    let mut allocators: Vec<AddressAllocator> = slots
        .iter()
        .enumerate()
        .map(|(i, s)| AddressAllocator::scattered(s.prefix, cfg.seed ^ (i as u64) << 17))
        .collect();

    let mut peers = Vec::with_capacity(cfg.size);
    while peers.len() < cfg.size {
        let Some(k) = rng.pick_weighted(&weights) else {
            break; // every slot exhausted
        };
        let Ok(ip) = allocators[k].next_ip() else {
            weights[k] = 0.0; // slot exhausted: stop drawing from it
            continue;
        };
        let access = slots[k].mix.draw(&mut rng);
        peers.push(ExternalSpec { ip, access });
    }
    peers
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaware_net::Ip;

    fn slots() -> Vec<PopulationSlot> {
        vec![
            PopulationSlot {
                prefix: Prefix::of(Ip::from_octets(58, 0, 0, 0), 9),
                weight: 0.9,
                mix: AccessMix::CnCarrier,
            },
            PopulationSlot {
                prefix: Prefix::of(Ip::from_octets(84, 0, 0, 0), 16),
                weight: 0.1,
                mix: AccessMix::EuResidential,
            },
        ]
    }

    #[test]
    fn generates_requested_count() {
        let peers = generate(
            &slots(),
            &PopulationConfig {
                size: 2_000,
                seed: 1,
            },
        );
        assert_eq!(peers.len(), 2_000);
    }

    #[test]
    fn respects_weights_roughly() {
        let peers = generate(
            &slots(),
            &PopulationConfig {
                size: 5_000,
                seed: 2,
            },
        );
        let cn = peers
            .iter()
            .filter(|p| Prefix::of(Ip::from_octets(58, 0, 0, 0), 9).contains(p.ip))
            .count();
        let frac = cn as f64 / peers.len() as f64;
        assert!((frac - 0.9).abs() < 0.02, "CN fraction {frac}");
    }

    #[test]
    fn addresses_unique_and_in_prefix() {
        let peers = generate(
            &slots(),
            &PopulationConfig {
                size: 3_000,
                seed: 3,
            },
        );
        let mut seen = std::collections::BTreeSet::new();
        for p in &peers {
            assert!(seen.insert(p.ip), "duplicate {ip}", ip = p.ip);
            assert!(
                Prefix::of(Ip::from_octets(58, 0, 0, 0), 9).contains(p.ip)
                    || Prefix::of(Ip::from_octets(84, 0, 0, 0), 16).contains(p.ip)
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&slots(), &PopulationConfig { size: 500, seed: 7 });
        let b = generate(&slots(), &PopulationConfig { size: 500, seed: 7 });
        let c = generate(&slots(), &PopulationConfig { size: 500, seed: 8 });
        assert_eq!(
            a.iter().map(|p| p.ip).collect::<Vec<_>>(),
            b.iter().map(|p| p.ip).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(|p| p.ip).collect::<Vec<_>>(),
            c.iter().map(|p| p.ip).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cn_mix_has_plausible_highbw_share() {
        let mut rng = DetRng::stream(5, "mix");
        let n = 20_000;
        let high = (0..n)
            .filter(|_| AccessMix::CnCarrier.draw(&mut rng).class.is_high_bw())
            .count();
        let frac = high as f64 / n as f64;
        assert!((0.30..0.45).contains(&frac), "CN high-bw share {frac}");
    }

    #[test]
    fn academic_mix_never_nats_lans() {
        let mut rng = DetRng::stream(6, "mix2");
        for _ in 0..1000 {
            let l = AccessMix::Academic.draw(&mut rng);
            if l.class == AccessClass::Lan {
                assert!(!l.nat);
            }
        }
    }

    #[test]
    fn exhausted_slot_redirects_to_others() {
        // A /30 slot (1-2 usable scattered hosts) with high weight: the
        // generator must still deliver the full count from the other slot.
        let tiny = vec![
            PopulationSlot {
                prefix: Prefix::of(Ip::from_octets(9, 9, 9, 8), 30),
                weight: 0.9,
                mix: AccessMix::Other,
            },
            PopulationSlot {
                prefix: Prefix::of(Ip::from_octets(58, 0, 0, 0), 16),
                weight: 0.1,
                mix: AccessMix::CnCarrier,
            },
        ];
        let peers = generate(&tiny, &PopulationConfig { size: 100, seed: 4 });
        assert_eq!(peers.len(), 100);
    }
}
