//! Wall-clock abstraction and span timing.
//!
//! The determinism contract (`crates/clippy.toml`) bans
//! `Instant`/`SystemTime` from the library crates; this module is where
//! the one sanctioned wall-clock read lives. Layers that may spend real
//! time (analysis passes, corpus streaming, report emission) time
//! themselves through the [`Clock`] trait, so they never name a
//! concrete clock — tests inject a [`ManualClock`], production uses
//! [`WallClock`], and the simulation crates stay wall-clock-free.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "audited: the one host-clock boundary (everything else takes a Clock handle); \
              its Mutex is never held while taking another"
)]

use crate::locked;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Source of elapsed real time, microseconds since the clock's epoch.
pub trait Clock: Send + Sync {
    /// Microseconds elapsed since the clock was created (or last reset).
    fn elapsed_us(&self) -> u64;

    /// Nanoseconds elapsed. The profiler times sub-microsecond scopes
    /// (per-event behaviour hooks), so clocks that can should override
    /// this; the default derives it from [`Clock::elapsed_us`].
    fn elapsed_ns(&self) -> u64 {
        self.elapsed_us().saturating_mul(1_000)
    }
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
    fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced clock for tests: `elapsed_us` returns whatever was
/// last set, so span durations are exact and reproducible.
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

    /// Sets the absolute elapsed time.
    pub fn set(&self, us: u64) {
        self.now_us.store(us, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn elapsed_us(&self) -> u64 {
        self.now_us.load(Ordering::SeqCst)
    }
}

/// One completed span: a named phase and how long it took.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase name (`analysis.sweep`, `report.render`, …).
    pub name: String,
    /// Wall time spent in the phase, microseconds.
    pub elapsed_us: u64,
}

/// Collects completed spans. Timings are wall-clock observations and are
/// deliberately kept out of the deterministic artifacts (event log,
/// metrics snapshot); they surface only through explicit reports like
/// `netaware-cli run` and `paper_tables --timings`.
pub struct Timings {
    clock: Arc<dyn Clock>,
    spans: Mutex<Vec<PhaseTiming>>,
}

impl std::fmt::Debug for Timings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timings")
            .field("spans", &locked(&self.spans).len())
            .finish()
    }
}

impl Timings {
    /// A recorder reading from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Timings {
            clock,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Starts a span; the elapsed time is recorded when the guard drops.
    pub fn span(&self, name: &str) -> Span<'_> {
        Span {
            timings: Some(self),
            name: name.to_string(),
            start_us: self.clock.elapsed_us(),
        }
    }

    /// Completed spans, in completion order.
    pub fn snapshot(&self) -> Vec<PhaseTiming> {
        locked(&self.spans).clone()
    }
}

/// RAII guard for one running span. A disabled guard (from a disabled
/// `Obs`) records nothing.
pub struct Span<'a> {
    timings: Option<&'a Timings>,
    name: String,
    start_us: u64,
}

impl Span<'_> {
    /// A guard that records nothing on drop.
    pub fn disabled() -> Span<'static> {
        Span {
            timings: None,
            name: String::new(),
            start_us: 0,
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.timings {
            let elapsed_us = t.clock.elapsed_us().saturating_sub(self.start_us);
            locked(&t.spans).push(PhaseTiming {
                name: std::mem::take(&mut self.name),
                elapsed_us,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_drives_spans_exactly() {
        let clock = Arc::new(ManualClock::new());
        let t = Timings::new(clock.clone());
        {
            let _a = t.span("phase.a");
            clock.advance(1_500);
        }
        clock.set(10_000);
        {
            let _b = t.span("phase.b");
            clock.advance(250);
        }
        let spans = t.snapshot();
        assert_eq!(
            spans,
            vec![
                PhaseTiming { name: "phase.a".into(), elapsed_us: 1_500 },
                PhaseTiming { name: "phase.b".into(), elapsed_us: 250 },
            ]
        );
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.elapsed_us();
        let b = c.elapsed_us();
        assert!(b >= a);
    }

    #[test]
    fn disabled_span_records_nothing() {
        let _s = Span::disabled();
    }
}
