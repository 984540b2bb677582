//! Per-peer presence table: who is offline, and which probes may name
//! whom.
//!
//! A departed peer must vanish from every slot of [`ProbeState`] that
//! stores its id ([`PEER_SLOTS`]). Walking every probe on every
//! departure costs a full scan of each probe's tables, yet a departing
//! external is named by a fraction of one probe on average. The table
//! keeps, per peer, a bitset of the probes whose state *may* name it
//! (its *holders*): each site that stores a peer id in a probe's state
//! calls [`Presence::mark`], and eviction visits only the holders, in
//! ascending probe order ([`Presence::take_holders`]). The sites are:
//!
//! - discovery's handshake pushes the neighbor table (`disc.neighbors`;
//!   the bootstrap mesh adds only the source and probes, which never
//!   depart);
//! - a chunk request pushes `sched.pending`;
//! - the demand draft pushes `sched.active_requesters`;
//! - a delivery sets `sched.last_provider`;
//! - an external serve creates the `link.ext_up` entry;
//! - the first packet of a flow creates the `link.last_rx_from` entry.
//!
//! A bit may outlive the entry that set it (a neighbor expires, a
//! request times out): the scrub then finds nothing at that probe, which
//! is what the full walk found there too. Only eviction clears bits.
//!
//! The discovery slice's external view also stores peer ids, but it is
//! derived from `disc.neighbors`, not a seventh slot: removing the
//! neighbor entry marks it stale, and a stale view is rebuilt before
//! anything reads it, so eviction only marks it.
//!
//! Per peer the table holds one offline flag and one bit per probe:
//! 9 bytes up to 64 probes.

use super::state::ProbeState;
use crate::peer::PeerId;

/// The slots of a probe's state that can name a peer, in the order
/// [`slots_naming`] reports them.
pub(crate) const PEER_SLOTS: [&str; 6] = [
    "disc.neighbors",
    "sched.pending",
    "sched.active_requesters",
    "sched.last_provider",
    "link.ext_up",
    "link.last_rx_from",
];

/// Which of [`PEER_SLOTS`] in `s` name `id`.
pub(crate) fn slots_naming(s: &ProbeState, id: PeerId) -> [bool; 6] {
    [
        s.disc.neighbors().iter().any(|n| n.id == id),
        s.sched.pending.iter().any(|p| p.provider == id),
        s.sched.active_requesters.contains(&id),
        s.sched.last_provider == Some(id),
        s.link.ext_up.contains_key(&id),
        s.link.last_rx_from.contains_key(&id),
    ]
}

/// Dense per-peer presence: an offline flag and a holder bitset per
/// [`PeerId`], indexed by id.
pub(crate) struct Presence {
    offline: Vec<bool>,
    /// `words` words per peer; bit `i % 64` of word `i / 64` is probe `i`.
    holders: Vec<u64>,
    words: usize,
}

impl Presence {
    /// An all-online table with empty holder sets.
    pub(crate) fn new(n_peers: usize, n_probes: usize) -> Presence {
        let words = n_probes.div_ceil(64);
        Presence {
            offline: vec![false; n_peers],
            holders: vec![0; n_peers * words],
            words,
        }
    }

    /// Whether `id` is currently offline (churned away).
    pub(crate) fn is_offline(&self, id: PeerId) -> bool {
        self.offline[id.0 as usize]
    }

    /// Marks `id` offline. Returns `false` if it already was.
    pub(crate) fn go_offline(&mut self, id: PeerId) -> bool {
        !std::mem::replace(&mut self.offline[id.0 as usize], true)
    }

    /// Marks `id` online. Returns `false` if it already was.
    pub(crate) fn go_online(&mut self, id: PeerId) -> bool {
        std::mem::replace(&mut self.offline[id.0 as usize], false)
    }

    /// Brings every peer online, as a newly attached fault plan expects;
    /// holder sets are untouched, since the probes' tables are.
    pub(crate) fn clear_offline(&mut self) {
        self.offline.fill(false);
    }

    /// Records that probe `probe`'s state may now name `id`.
    pub(crate) fn mark(&mut self, id: PeerId, probe: usize) {
        self.holders[id.0 as usize * self.words + probe / 64] |= 1 << (probe % 64);
    }

    /// Empties `id`'s holder set and yields its probes in ascending
    /// order, clearing each word as the iteration reaches it.
    pub(crate) fn take_holders(&mut self, id: PeerId) -> Holders<'_> {
        let at = id.0 as usize * self.words;
        Holders {
            words: self.holders[at..at + self.words].iter_mut().enumerate(),
            base: 0,
            bits: 0,
        }
    }
}

/// The probes of one holder set, ascending (see
/// [`Presence::take_holders`]).
pub(crate) struct Holders<'a> {
    words: std::iter::Enumerate<std::slice::IterMut<'a, u64>>,
    /// First probe of the word in `bits`.
    base: usize,
    /// Bits of the current word not yet yielded.
    bits: u64,
}

impl Iterator for Holders<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            let (w, word) = self.words.next()?;
            self.base = w * 64;
            self.bits = std::mem::take(word);
        }
        let probe = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holders_come_out_ascending_once_across_words() {
        let mut p = Presence::new(3, 130);
        for probe in [129, 3, 64, 0, 63, 3] {
            p.mark(PeerId(2), probe);
        }
        p.mark(PeerId(1), 5);
        let got: Vec<usize> = p.take_holders(PeerId(2)).collect();
        assert_eq!(got, vec![0, 3, 63, 64, 129]);
        assert_eq!(
            p.take_holders(PeerId(2)).count(),
            0,
            "taking empties the set"
        );
        assert_eq!(p.take_holders(PeerId(1)).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn offline_flag_reports_transitions() {
        let mut p = Presence::new(4, 2);
        assert!(!p.is_offline(PeerId(3)));
        assert!(p.go_offline(PeerId(3)));
        assert!(!p.go_offline(PeerId(3)), "already offline");
        assert!(p.is_offline(PeerId(3)));
        assert!(p.go_online(PeerId(3)));
        assert!(!p.go_online(PeerId(3)), "already online");
        p.go_offline(PeerId(1));
        p.clear_offline();
        assert!(!p.is_offline(PeerId(1)));
    }
}
