//! Sequential address allocation inside registered prefixes.
//!
//! The testbed scenario builder uses one allocator per announced prefix to
//! hand out host addresses: probe sites get `/24` LAN subnets carved out
//! of their institution prefix, the synthetic external population gets
//! scattered addresses across its ISP's space.

use crate::error::NetError;
use crate::ip::{Ip, Prefix};

/// Bump allocator over a single prefix.
///
/// Skips the all-zeros (network) and all-ones (broadcast) host addresses
/// for prefixes shorter than `/31`, mirroring real subnet conventions.
#[derive(Debug, Clone)]
pub struct AddressAllocator {
    prefix: Prefix,
    next: u32,
    /// Stride > 1 scatters consecutive allocations across the prefix so
    /// synthetic peers do not all share a `/24` (which would distort the
    /// NET metric). The stride must be odd so it stays coprime with the
    /// power-of-two prefix size and visits every host exactly once.
    stride: u32,
    handed_out: u32,
}

impl AddressAllocator {
    /// Dense allocator: `.1`, `.2`, `.3`, … (use for LAN subnets).
    pub fn dense(prefix: Prefix) -> Self {
        AddressAllocator {
            prefix,
            next: 0,
            stride: 1,
            handed_out: 0,
        }
    }

    /// Scattered allocator: permutes the host space with an odd stride so
    /// subsequent addresses land in different subnets.
    pub fn scattered(prefix: Prefix, seed: u64) -> Self {
        let size = prefix.size();
        // Pick a deterministic odd stride in [size/4, size/2) so
        // consecutive hosts land in far-apart subnets without the step
        // degenerating to ±small when taken modulo the prefix size. Any
        // odd stride is coprime with the power-of-two host space,
        // guaranteeing a full cycle.
        let span = (size / 4).max(1);
        let stride = (size / 4 + (crate::hash::mix64(seed) as u32) % span) | 1;
        AddressAllocator {
            prefix,
            next: 0,
            stride,
            handed_out: 0,
        }
    }

    /// The prefix being allocated from.
    pub fn prefix(&self) -> Prefix {
        self.prefix
    }

    /// How many addresses have been handed out.
    pub fn allocated(&self) -> u32 {
        self.handed_out
    }

    /// How many usable host addresses remain.
    pub fn remaining(&self) -> u32 {
        self.capacity() - self.handed_out
    }

    /// Total usable host addresses in the prefix.
    pub fn capacity(&self) -> u32 {
        let size = self.prefix.size();
        if self.prefix.len() >= 31 {
            size
        } else {
            size - 2 // network + broadcast
        }
    }

    /// Allocates the next address, or fails when the prefix is exhausted.
    pub fn next_ip(&mut self) -> Result<Ip, NetError> {
        let size = self.prefix.size();
        loop {
            if self.handed_out >= self.capacity() {
                return Err(NetError::PrefixExhausted {
                    prefix: self.prefix.to_string(),
                });
            }
            let idx = self.next;
            self.next = (self.next.wrapping_add(self.stride)) % size;
            // Skip network/broadcast addresses on classic subnets.
            if self.prefix.len() < 31 && (idx == 0 || idx == size - 1) {
                continue;
            }
            self.handed_out += 1;
            #[expect(clippy::expect_used, reason = "idx is reduced mod size above")]
            return Ok(self.prefix.host(idx).expect("idx < size by construction"));
        }
    }

    /// Carves the `n`-th `/subnet_len` sub-prefix out of this allocator's
    /// prefix (does not interact with host allocation — use separate
    /// allocators per carved subnet).
    pub fn subnet(&self, n: u32, subnet_len: u8) -> Option<Prefix> {
        if subnet_len < self.prefix.len() || subnet_len > 32 {
            return None;
        }
        let shift = 32 - subnet_len;
        let count = 1u32 << (subnet_len - self.prefix.len());
        if n >= count {
            return None;
        }
        Some(Prefix::new_truncating(
            self.prefix.first().0 + (n << shift),
            subnet_len,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_allocates_in_order_skipping_network() {
        let mut a = AddressAllocator::dense(Prefix::of(Ip::from_octets(10, 0, 0, 0), 24));
        assert_eq!(a.next_ip().unwrap(), Ip::from_octets(10, 0, 0, 1));
        assert_eq!(a.next_ip().unwrap(), Ip::from_octets(10, 0, 0, 2));
        assert_eq!(a.capacity(), 254);
    }

    #[test]
    fn dense_exhausts_exactly() {
        let mut a = AddressAllocator::dense(Prefix::of(Ip::from_octets(10, 0, 0, 0), 29));
        let mut got = Vec::new();
        while let Ok(ip) = a.next_ip() {
            got.push(ip);
        }
        assert_eq!(got.len(), 6); // 8 - network - broadcast
        assert!(matches!(a.next_ip(), Err(NetError::PrefixExhausted { .. })));
    }

    #[test]
    fn all_allocations_inside_prefix_and_unique() {
        let p = Prefix::of(Ip::from_octets(10, 7, 0, 0), 22);
        let mut a = AddressAllocator::scattered(p, 42);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..a.capacity() {
            let ip = a.next_ip().unwrap();
            assert!(p.contains(ip), "{ip} outside {p}");
            assert!(seen.insert(ip), "duplicate {ip}");
        }
        assert!(a.next_ip().is_err());
    }

    #[test]
    fn scattered_spreads_across_subnets() {
        let p = Prefix::of(Ip::from_octets(60, 0, 0, 0), 16);
        let mut a = AddressAllocator::scattered(p, 7);
        let ips: Vec<Ip> = (0..100).map(|_| a.next_ip().unwrap()).collect();
        let subnets: std::collections::BTreeSet<u32> = ips.iter().map(|ip| ip.0 >> 8).collect();
        assert!(
            subnets.len() > 50,
            "only {} distinct /24s in 100 scattered allocations",
            subnets.len()
        );
    }

    #[test]
    fn subnet_carving() {
        let a = AddressAllocator::dense(Prefix::of(Ip::from_octets(130, 192, 0, 0), 16));
        assert_eq!(
            a.subnet(0, 24),
            Some(Prefix::of(Ip::from_octets(130, 192, 0, 0), 24))
        );
        assert_eq!(
            a.subnet(5, 24),
            Some(Prefix::of(Ip::from_octets(130, 192, 5, 0), 24))
        );
        assert_eq!(a.subnet(256, 24), None);
        assert_eq!(a.subnet(0, 8), None); // shorter than parent
    }

    #[test]
    fn slash32_allocator() {
        let mut a = AddressAllocator::dense(Prefix::of(Ip::from_octets(1, 1, 1, 1), 32));
        assert_eq!(a.capacity(), 1);
        assert_eq!(a.next_ip().unwrap(), Ip::from_octets(1, 1, 1, 1));
        assert!(a.next_ip().is_err());
    }

    #[test]
    fn scattered_different_seeds_differ() {
        let p = Prefix::of(Ip::from_octets(60, 0, 0, 0), 16);
        let a: Vec<Ip> = {
            let mut al = AddressAllocator::scattered(p, 1);
            (0..10).map(|_| al.next_ip().unwrap()).collect()
        };
        let b: Vec<Ip> = {
            let mut al = AddressAllocator::scattered(p, 2);
            (0..10).map(|_| al.next_ip().unwrap()).collect()
        };
        assert_ne!(a, b);
    }
}
