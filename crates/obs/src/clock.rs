//! Wall-clock abstraction for the span profiler.
//!
//! The determinism contract (`crates/clippy.toml`) bans
//! `Instant`/`SystemTime` from the library crates; this module is where
//! the one sanctioned wall-clock read lives. The
//! [`Profiler`](crate::Profiler) reads time through the [`Clock`]
//! trait, so it never names a concrete clock — tests inject a
//! [`ManualClock`], production uses [`WallClock`], and the simulation
//! crates stay wall-clock-free.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "audited: the one host-clock boundary (everything else takes a Clock handle)"
)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Source of elapsed real time.
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since the clock was created. The profiler
    /// times sub-microsecond scopes (per-event behaviour hooks), so this
    /// is the one resolution every clock provides.
    fn elapsed_ns(&self) -> u64;
}

/// The real monotonic clock. This is the only place in the workspace
/// where library code reads `Instant`; everything else goes through
/// [`Clock`].
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced clock for tests: it reads whatever it was last
/// advanced to, so span durations are exact and reproducible.
#[derive(Debug, Default)]
pub struct ManualClock {
    now_us: AtomicU64,
}

impl ManualClock {
    /// A clock stopped at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance(&self, us: u64) {
        self.now_us.fetch_add(us, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn elapsed_ns(&self) -> u64 {
        self.now_us.load(Ordering::SeqCst).saturating_mul(1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.elapsed_ns();
        let b = c.elapsed_ns();
        assert!(b >= a);
    }
}
