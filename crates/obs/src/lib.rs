//! # netaware-obs — deterministic sim-time observability
//!
//! The instrument panel for the whole framework, built on three pillars:
//!
//! * a **structured event log** — [`Event`] records keyed by
//!   [`SimTime`](netaware_sim::SimTime) with a static `<layer>.<aspect>`
//!   target (`swarm.discovery.handshake`, `swarm.scheduling.chunk_sched`, `stream.error`,
//!   `pass.flow`, …), collected by a pluggable [`EventSink`] (ring
//!   buffer, JSONL writer, counting null sink). Timestamps are
//!   simulation time, so two runs with the same seed emit
//!   *byte-identical* logs — observability rides the same determinism
//!   contract as the traces themselves;
//! * a **metrics registry** — named [`Counter`]s/[`Gauge`]s and
//!   [`netaware_sim::stats::Histogram`]-backed histograms with a
//!   `BTreeMap`-ordered JSON/CSV [`MetricsSnapshot`];
//! * a **span profiler** — an opt-in [`Profiler`] tree of named spans
//!   ([`Obs::pspan`]) with wall time, calls, allocations and work
//!   tallies, read back as a [`ProfileNode`] tree (what `--profile
//!   FILE` writes). Wall time is read through the [`Clock`]
//!   abstraction, so `sim`/`proto`/`net`/`testbed` never name `Instant`.
//!
//! The [`Obs`] handle bundles all three. It is a cheap `Arc` clone, and a
//! default-constructed (disabled) handle makes every operation — event
//! emission, metric updates, spans — a near-free no-op, so instrumented
//! hot paths cost nothing when nobody is watching (the `obs_overhead`
//! bench pins this).
//!
//! ```
//! use netaware_obs::{event, Level, NullSink, Obs};
//! use netaware_sim::SimTime;
//! use std::sync::Arc;
//!
//! let sink = Arc::new(NullSink::new());
//! let obs = Obs::new(sink.clone());
//! event!(obs, Level::Info, "swarm.handshake", SimTime::from_us(10),
//!        "peer" = 7u64, "nat" = false);
//! obs.counter("proto.chunks_requested").inc();
//! assert_eq!(sink.events_seen(), 1);
//! assert_eq!(obs.metrics().expect("enabled").counters["proto.chunks_requested"], 1);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod clock;
pub mod event;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod summary;

pub use clock::{Clock, ManualClock, WallClock};
pub use event::{Event, FieldValue, Level};
pub use metrics::{Counter, Gauge, HistogramMetric, MetricsSnapshot, Registry};
pub use profile::{Drift, ProfCell, ProfSpan, ProfileDiff, ProfileNode, Profiler};
pub use sink::{EventSink, JsonlSink, NullSink, RingSink};
pub use summary::{LogSummary, SummaryError};

use std::sync::{Arc, MutexGuard};

/// Locks a mutex, recovering the data from a poisoned lock (a panicked
/// holder can only have been mid-update on plain counters/buffers, which
/// are safe to keep reading).
#[expect(
    clippy::disallowed_types,
    reason = "the lock helper of the audited obs modules"
)]
pub(crate) fn locked<T>(m: &std::sync::Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

struct Inner {
    sink: Arc<dyn EventSink>,
    registry: Registry,
    profiler: Option<Profiler>,
}

/// The observability handle threaded through the pipeline.
///
/// Cloning shares the sink, registry and profiler. The default handle
/// is *disabled*: [`Obs::is_enabled`] is `false`, metric
/// handles are no-ops, and spans record nothing.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Obs {
    /// The disabled handle (same as `Obs::default()`).
    pub fn disabled() -> Obs {
        Obs::default()
    }

    /// An enabled handle sending everything to `sink`. It collects
    /// events and metrics but does *not* profile; see
    /// [`Obs::with_profiler`].
    pub fn new(sink: Arc<dyn EventSink>) -> Obs {
        Obs::build(sink, None)
    }

    /// Like [`Obs::new`] but with the span profiler armed, timing spans
    /// with `clock`: [`Obs::pspan`]/[`Obs::prof_cell`] record into a
    /// tree read back by [`Obs::profile_tree`]. Profiling is opt-in
    /// because it reads the clock around every instrumented hook call.
    pub fn with_profiler(sink: Arc<dyn EventSink>, clock: Arc<dyn Clock>) -> Obs {
        Obs::build(sink, Some(Profiler::new(clock)))
    }

    /// A profiling handle with no event collection (null sink, wall
    /// clock) — what `--profile FILE` uses when no `--obs-log` is asked
    /// for.
    pub fn profiled() -> Obs {
        Obs::with_profiler(Arc::new(NullSink::new()), Arc::new(WallClock::new()))
    }

    fn build(sink: Arc<dyn EventSink>, profiler: Option<Profiler>) -> Obs {
        Obs {
            inner: Some(Arc::new(Inner {
                sink,
                registry: Registry::new(),
                profiler,
            })),
        }
    }

    /// Whether this handle collects anything at all. The [`event!`]
    /// macro consults this *before* evaluating any field expressions.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Hands one event to the sink. Callers normally go through
    /// [`event!`], which performs the [`Obs::is_enabled`] check first.
    pub fn emit(&self, event: Event) {
        if let Some(inner) = &self.inner {
            inner.sink.record(&event);
        }
    }

    /// The counter named `name` (a no-op handle when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter::default(),
            Some(inner) => inner.registry.counter(name),
        }
    }

    /// The gauge named `name` (a no-op handle when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge::default(),
            Some(inner) => inner.registry.gauge(name),
        }
    }

    /// The histogram named `name` over `0..upper` (no-op when disabled).
    pub fn histogram(&self, name: &str, upper: usize) -> HistogramMetric {
        match &self.inner {
            None => HistogramMetric::default(),
            Some(inner) => inner.registry.histogram(name, upper),
        }
    }

    /// A stable snapshot of the metrics registry; `None` when disabled.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|i| i.registry.snapshot())
    }

    /// Whether the span profiler is armed (see [`Obs::with_profiler`]).
    pub fn profiling(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.profiler.is_some())
    }

    /// Opens a profiler span; nests under the innermost open span on
    /// this thread, records on drop. A no-op guard when the handle is
    /// disabled or not profiling.
    pub fn pspan(&self, name: &str) -> ProfSpan {
        match self.inner.as_ref().and_then(|i| i.profiler.as_ref()) {
            None => ProfSpan::disabled(),
            Some(p) => p.span(name),
        }
    }

    /// Registers a hot-path profiler cell under the current ambient
    /// span position (no-op when not profiling).
    pub fn prof_cell(&self, name: &str) -> ProfCell {
        match self.inner.as_ref().and_then(|i| i.profiler.as_ref()) {
            None => ProfCell::disabled(),
            Some(p) => p.cell(name),
        }
    }

    /// Registers a hot-path profiler cell at the top level of the tree,
    /// outside every span open on this thread (no-op when not
    /// profiling): for work that runs beside those spans on another
    /// thread.
    pub fn prof_top_cell(&self, name: &str) -> ProfCell {
        match self.inner.as_ref().and_then(|i| i.profiler.as_ref()) {
            None => ProfCell::disabled(),
            Some(p) => p.top_cell(name),
        }
    }

    /// Snapshot of the profiler's span tree; `None` when not profiling.
    pub fn profile_tree(&self) -> Option<ProfileNode> {
        self.inner
            .as_ref()
            .and_then(|i| i.profiler.as_ref())
            .map(Profiler::tree)
    }

    /// Flushes the sink (e.g. the JSONL writer's buffer).
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => inner.sink.flush(),
        }
    }
}

/// Emits a structured event if (and only if) the handle is enabled.
/// Field expressions are **not evaluated** on a disabled handle, so
/// instrumentation may compute derived values in the field position
/// without taxing the disabled path:
///
/// ```
/// use netaware_obs::{event, Level, Obs};
/// use netaware_sim::SimTime;
///
/// let obs = Obs::disabled();
/// let mut evaluated = false;
/// event!(obs, Level::Info, "swarm.handshake", SimTime::ZERO,
///        "peer" = { evaluated = true; 7u64 });
/// assert!(!evaluated);
/// ```
#[macro_export]
macro_rules! event {
    ($obs:expr, $level:expr, $target:expr, $time:expr $(,)?) => {{
        let obs = &$obs;
        if obs.is_enabled() {
            obs.emit($crate::Event {
                time: $time,
                target: $target,
                level: $level,
                fields: Vec::new(),
            });
        }
    }};
    ($obs:expr, $level:expr, $target:expr, $time:expr, $($key:literal = $val:expr),+ $(,)?) => {{
        let obs = &$obs;
        if obs.is_enabled() {
            obs.emit($crate::Event {
                time: $time,
                target: $target,
                level: $level,
                fields: vec![$(($key, $crate::FieldValue::from($val))),+],
            });
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use netaware_sim::SimTime;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.counter("x").inc();
        obs.gauge("y").set(3);
        obs.histogram("z", 8).record(1);
        assert!(obs.metrics().is_none());
        assert!(obs.profile_tree().is_none());
        obs.flush().expect("flush never fails when disabled");
        let _ = format!("{obs:?}");
    }

    #[test]
    fn macro_skips_field_evaluation_when_disabled() {
        // Disabled handle: nothing runs.
        let obs = Obs::disabled();
        let mut hits = 0u32;
        event!(
            obs,
            Level::Error,
            "swarm.handshake",
            SimTime::ZERO,
            "n" = {
                hits += 1;
                hits
            }
        );
        assert_eq!(hits, 0, "field expression ran on a disabled handle");

        // An enabled handle evaluates the fields at any level.
        let sink = Arc::new(NullSink::new());
        let obs = Obs::new(sink.clone());
        event!(
            obs,
            Level::Trace,
            "swarm.chunk_sched",
            SimTime::ZERO,
            "n" = {
                hits += 1;
                hits
            }
        );
        assert_eq!(hits, 1);
        assert_eq!(sink.events_seen(), 1);
    }

    #[test]
    fn ring_sink_round_trip_through_handle() {
        let ring = Arc::new(RingSink::new(16));
        let obs = Obs::new(ring.clone());
        event!(
            obs,
            Level::Info,
            "pass.flow",
            SimTime::from_us(5),
            "probe" = 3u64
        );
        event!(obs, Level::Info, "pass.flow", SimTime::from_us(6));
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].fields, vec![("probe", FieldValue::U64(3))]);
        assert!(events[1].fields.is_empty());
    }

    #[test]
    fn clones_share_registry_and_sink() {
        let sink = Arc::new(NullSink::new());
        let obs = Obs::new(sink.clone());
        let clone = obs.clone();
        obs.counter("shared").inc();
        clone.counter("shared").add(2);
        let snap = clone.metrics().expect("enabled");
        assert_eq!(snap.counters["shared"], 3);
        event!(clone, Level::Info, "swarm.handshake", SimTime::ZERO);
        assert_eq!(sink.events_seen(), 1);
    }
}
