//! Hierarchical span profiler and the `BENCH_*.json` perf-snapshot
//! format.
//!
//! # Span tree semantics
//!
//! A [`Profiler`] owns a tree of named nodes. Scopes open a span with
//! [`Profiler::span`] (through [`crate::Obs::pspan`]); spans nest via an
//! ambient per-thread stack, so `obs.pspan("analysis.sweep")` inside a
//! scope that already holds `testbed.run` lands as its child without any
//! context threading. Each node accumulates:
//!
//! * **wall time** (`wall_ns`, via the [`Clock`] abstraction — the whole
//!   scope, children included; "self" time is derived at render time),
//! * **call counts**,
//! * **allocation deltas** (calls + bytes) sampled from the global
//!   [counting allocator](crate::alloc),
//! * **work items** — records, events, simulated-time microseconds and
//!   bytes fed in by the instrumented code ([`ProfSpan::add_records`]
//!   and friends) — from which per-phase throughput is derived.
//!
//! Hot paths that cannot afford an RAII guard per call (the dispatcher's
//! per-event behaviour hooks) use a pre-registered [`ProfCell`] instead:
//! a leaf handle that times closures and tallies items with a couple of
//! atomic adds, and collapses to a no-op when profiling is off.
//!
//! # Deterministic vs wall-clock
//!
//! The tree *shape*, call counts, item tallies and sim-time coverage are
//! deterministic: same seed, same tree. Wall times, allocation counters
//! and everything derived from them (throughput, peak heap) are
//! observations of the host and are declared in [`MASKED_FIELDS`];
//! [`masked_json`] blanks exactly those so two same-seed reports can be
//! compared byte-for-byte — the contract `tests/profiler.rs` pins.
//!
//! Spans close in `Drop`, so a panicking scope still records itself and
//! its ancestors stay balanced (also pinned by tests).

use crate::alloc;
use crate::clock::Clock;
use crate::locked;
use crate::metrics::MetricsSnapshot;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-node accumulators. All adds are commutative, so rayon workers may
/// tally into a shared node without ordering concerns.
#[derive(Default)]
struct NodeStats {
    calls: AtomicU64,
    wall_ns: AtomicU64,
    sim_us: AtomicU64,
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
    records: AtomicU64,
    events: AtomicU64,
    bytes: AtomicU64,
}

struct Node {
    name: String,
    stats: NodeStats,
    children: Mutex<BTreeMap<String, Arc<Node>>>,
}

impl Node {
    fn new(name: &str) -> Arc<Node> {
        Arc::new(Node {
            name: name.to_string(),
            stats: NodeStats::default(),
            children: Mutex::new(BTreeMap::new()),
        })
    }

    fn child(&self, name: &str) -> Arc<Node> {
        let mut map = locked(&self.children);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Node::new(name)),
        )
    }

    fn snapshot(&self) -> ProfileNode {
        let s = &self.stats;
        ProfileNode {
            name: self.name.clone(),
            calls: s.calls.load(Ordering::Relaxed),
            wall_ns: s.wall_ns.load(Ordering::Relaxed),
            sim_us: s.sim_us.load(Ordering::Relaxed),
            allocs: s.allocs.load(Ordering::Relaxed),
            alloc_bytes: s.alloc_bytes.load(Ordering::Relaxed),
            records: s.records.load(Ordering::Relaxed),
            events: s.events.load(Ordering::Relaxed),
            bytes: s.bytes.load(Ordering::Relaxed),
            children: locked(&self.children)
                .values()
                .map(|c| c.snapshot())
                .collect(),
        }
    }
}

// The ambient span stack: (profiler identity, open node). Entries from
// different profilers interleave safely because lookups filter by
// identity; rayon workers start with an empty stack, so spans opened
// there root at the profiler's top level.
thread_local! {
    static STACK: RefCell<Vec<(usize, Arc<Node>)>> = const { RefCell::new(Vec::new()) };
}

/// The span-tree collector. Usually reached through
/// [`crate::Obs::pspan`] rather than held directly.
pub struct Profiler {
    clock: Arc<dyn Clock>,
    root: Arc<Node>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler").finish_non_exhaustive()
    }
}

impl Profiler {
    /// A profiler timing spans with `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Profiler {
        Profiler {
            clock,
            root: Node::new(""),
        }
    }

    fn id(&self) -> usize {
        Arc::as_ptr(&self.root) as usize
    }

    /// The innermost open node of *this* profiler on the current thread,
    /// or the root.
    fn current(&self) -> Arc<Node> {
        let id = self.id();
        STACK
            .with(|s| {
                s.borrow()
                    .iter()
                    .rev()
                    .find(|(owner, _)| *owner == id)
                    .map(|(_, node)| Arc::clone(node))
            })
            .unwrap_or_else(|| Arc::clone(&self.root))
    }

    /// Opens a span named `name` under the current ambient position; the
    /// guard records on drop.
    pub fn span(&self, name: &str) -> ProfSpan {
        let node = self.current().child(name);
        STACK.with(|s| s.borrow_mut().push((self.id(), Arc::clone(&node))));
        let heap = alloc::snapshot();
        ProfSpan {
            state: Some(SpanState {
                owner: self.id(),
                node,
                clock: Arc::clone(&self.clock),
                start_ns: self.clock.elapsed_ns(),
                start_allocs: heap.allocs,
                start_alloc_bytes: heap.bytes,
            }),
        }
    }

    /// Registers a leaf cell named `name` under the current ambient
    /// position, for hot paths that tally many times into one node.
    pub fn cell(&self, name: &str) -> ProfCell {
        ProfCell {
            inner: Some(Arc::new(CellInner {
                node: self.current().child(name),
                clock: Arc::clone(&self.clock),
            })),
        }
    }

    /// Snapshot of the whole tree. The synthetic root (empty name)
    /// carries no tallies of its own; its children are the top-level
    /// spans.
    pub fn tree(&self) -> ProfileNode {
        self.root.snapshot()
    }
}

struct SpanState {
    owner: usize,
    node: Arc<Node>,
    clock: Arc<dyn Clock>,
    start_ns: u64,
    start_allocs: u64,
    start_alloc_bytes: u64,
}

/// RAII guard for one open profiler span. Obtained from
/// [`crate::Obs::pspan`]; a disabled guard records nothing and every
/// method is a no-op.
pub struct ProfSpan {
    state: Option<SpanState>,
}

impl ProfSpan {
    /// A guard that records nothing.
    pub fn disabled() -> ProfSpan {
        ProfSpan { state: None }
    }

    /// Whether this span actually records.
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Credits `n` processed records to this span's node.
    pub fn add_records(&self, n: u64) {
        if let Some(s) = &self.state {
            s.node.stats.records.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Credits `n` processed events.
    pub fn add_events(&self, n: u64) {
        if let Some(s) = &self.state {
            s.node.stats.events.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Credits `n` processed bytes.
    pub fn add_bytes(&self, n: u64) {
        if let Some(s) = &self.state {
            s.node.stats.bytes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Credits `us` microseconds of covered simulation time.
    pub fn add_sim_us(&self, us: u64) {
        if let Some(s) = &self.state {
            s.node.stats.sim_us.fetch_add(us, Ordering::Relaxed);
        }
    }

    /// A leaf cell under this span (for handing to worker threads, which
    /// have no ambient stack entry for it).
    pub fn cell(&self, name: &str) -> ProfCell {
        match &self.state {
            None => ProfCell::disabled(),
            Some(s) => ProfCell {
                inner: Some(Arc::new(CellInner {
                    node: s.node.child(name),
                    clock: Arc::clone(&s.clock),
                })),
            },
        }
    }
}

impl Drop for ProfSpan {
    fn drop(&mut self) {
        let Some(s) = self.state.take() else { return };
        // Pop this span's stack entry. It is normally the innermost
        // entry for its owner, but a panic unwinding through several
        // guards drops them in unspecified relative order, so search
        // from the top rather than assuming.
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|(owner, node)| *owner == s.owner && Arc::ptr_eq(node, &s.node))
            {
                stack.remove(pos);
            }
        });
        let heap = alloc::snapshot();
        let stats = &s.node.stats;
        stats.calls.fetch_add(1, Ordering::Relaxed);
        stats.wall_ns.fetch_add(
            s.clock.elapsed_ns().saturating_sub(s.start_ns),
            Ordering::Relaxed,
        );
        stats
            .allocs
            .fetch_add(heap.allocs.saturating_sub(s.start_allocs), Ordering::Relaxed);
        stats.alloc_bytes.fetch_add(
            heap.bytes.saturating_sub(s.start_alloc_bytes),
            Ordering::Relaxed,
        );
    }
}

struct CellInner {
    node: Arc<Node>,
    clock: Arc<dyn Clock>,
}

/// Pre-registered leaf handle for hot paths: times closures and tallies
/// items into one fixed node with a couple of atomic adds. Cloneable and
/// `Send`, so one cell can be shared with rayon workers. Disabled cells
/// run the closure untimed — the cost of instrumentation when nobody is
/// profiling is one `Option` check.
#[derive(Clone)]
pub struct ProfCell {
    inner: Option<Arc<CellInner>>,
}

impl Default for ProfCell {
    /// Same as [`ProfCell::disabled`].
    fn default() -> ProfCell {
        ProfCell::disabled()
    }
}

impl ProfCell {
    /// A cell that records nothing.
    pub fn disabled() -> ProfCell {
        ProfCell { inner: None }
    }

    /// Whether this cell actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f`, charging its wall time and one call to the cell.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.inner {
            None => f(),
            Some(c) => {
                let t0 = c.clock.elapsed_ns();
                let r = f();
                let stats = &c.node.stats;
                stats.calls.fetch_add(1, Ordering::Relaxed);
                stats
                    .wall_ns
                    .fetch_add(c.clock.elapsed_ns().saturating_sub(t0), Ordering::Relaxed);
                r
            }
        }
    }

    /// Tallies `calls` calls without timing.
    pub fn add_calls(&self, calls: u64) {
        if let Some(c) = &self.inner {
            c.node.stats.calls.fetch_add(calls, Ordering::Relaxed);
        }
    }

    /// Credits processed records.
    pub fn add_records(&self, n: u64) {
        if let Some(c) = &self.inner {
            c.node.stats.records.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Credits processed events.
    pub fn add_events(&self, n: u64) {
        if let Some(c) = &self.inner {
            c.node.stats.events.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Credits processed bytes.
    pub fn add_bytes(&self, n: u64) {
        if let Some(c) = &self.inner {
            c.node.stats.bytes.fetch_add(n, Ordering::Relaxed);
        }
    }
}

// Wrapping the `Arc` keeps clones of an enabled cell pointing at the
// same node even though `CellInner` itself is not `Clone`.
impl std::fmt::Debug for ProfCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfCell")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// One node of a serialised profile tree. Children are sorted by name,
/// so the serialisation is order-stable regardless of which thread
/// created what first.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProfileNode {
    /// Span name (`testbed.run`, `swarm.dispatch`, …). Empty for the
    /// synthetic root.
    pub name: String,
    /// Completed calls (guard drops or cell tallies).
    pub calls: u64,
    /// Accumulated wall time, nanoseconds, children included.
    pub wall_ns: u64,
    /// Simulated time covered by this span, microseconds.
    pub sim_us: u64,
    /// Heap allocations observed during the span (masked field).
    pub allocs: u64,
    /// Heap bytes requested during the span (masked field).
    pub alloc_bytes: u64,
    /// Records processed (trace records swept, sunk, …).
    pub records: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Bytes processed.
    pub bytes: u64,
    /// Child spans, sorted by name.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Wall time not attributable to any child, nanoseconds.
    pub fn self_wall_ns(&self) -> u64 {
        self.wall_ns
            .saturating_sub(self.children.iter().map(|c| c.wall_ns).sum())
    }

    /// Depth-first lookup by `/`-separated path (`testbed.run/swarm.run`).
    pub fn find(&self, path: &str) -> Option<&ProfileNode> {
        let (head, rest) = match path.split_once('/') {
            Some((h, r)) => (h, Some(r)),
            None => (path, None),
        };
        let child = self.children.iter().find(|c| c.name == head)?;
        match rest {
            None => Some(child),
            Some(rest) => child.find(rest),
        }
    }

    /// Sum of `f` over this node and every descendant.
    pub fn total(&self, f: impl Fn(&ProfileNode) -> u64 + Copy) -> u64 {
        f(self) + self.children.iter().map(|c| c.total(f)).sum::<u64>()
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{}", if self.name.is_empty() { "(root)" } else { &self.name });
        let _ = writeln!(
            out,
            "{label:<38} {:>10.3} {:>10.3} {:>9} {:>10} {:>12}",
            self.wall_ns as f64 / 1e6,
            self.self_wall_ns() as f64 / 1e6,
            self.calls,
            self.allocs,
            fmt_items(self),
        );
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

fn fmt_items(n: &ProfileNode) -> String {
    if n.records > 0 {
        format!("{} rec", n.records)
    } else if n.events > 0 {
        format!("{} ev", n.events)
    } else if n.bytes > 0 {
        format!("{} B", n.bytes)
    } else {
        String::from("-")
    }
}

/// Identity of one perf-matrix cell, carried into its [`PerfReport`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfMeta {
    /// Scenario id (`pplive_clean`, `tvants_faulted`, …).
    pub scenario: String,
    /// Toolchain string (`rustc 1.87.0`…); informational.
    pub toolchain: String,
    /// Run seed.
    pub seed: u64,
    /// Swarm scale in permille of paper scale (integer so the report
    /// never carries float formatting surprises).
    pub scale_permille: u64,
    /// Simulated duration, seconds.
    pub sim_secs: u64,
}

/// The `BENCH_<scenario>.json` payload: one profiled run, serialised.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfReport {
    /// Snapshot schema version.
    pub schema: u32,
    /// Cell identity.
    pub meta: PerfMeta,
    /// The span tree.
    pub profile: ProfileNode,
    /// Derived per-phase throughput, items per wall-second (masked
    /// field: wall-derived).
    pub throughput: BTreeMap<String, f64>,
    /// Peak live heap during the run, bytes (masked field).
    pub peak_heap_bytes: u64,
    /// Metrics registry at end of run.
    pub metrics: MetricsSnapshot,
}

/// Current [`PerfReport::schema`] version.
pub const PERF_SCHEMA: u32 = 1;

/// Field names whose values are wall-clock observations of the host
/// rather than deterministic outputs: blanked by [`masked_json`], and
/// exactly the set allowed to differ between two same-seed reports.
pub const MASKED_FIELDS: &[&str] = &[
    "wall_ns",
    "allocs",
    "alloc_bytes",
    "throughput",
    "peak_heap_bytes",
    "toolchain",
];

impl PerfReport {
    /// Assembles a report from a finished profiled run: derives
    /// throughput from the tree and stamps the peak-heap counter.
    pub fn new(meta: PerfMeta, profile: ProfileNode, metrics: MetricsSnapshot) -> PerfReport {
        let mut throughput = BTreeMap::new();
        derive_throughput(&profile, "", &mut throughput);
        PerfReport {
            schema: PERF_SCHEMA,
            meta,
            profile,
            throughput,
            peak_heap_bytes: alloc::snapshot().peak_bytes,
            metrics,
        }
    }

    /// Pretty JSON, ready to be written as `BENCH_<scenario>.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parses a `BENCH_*.json` file body.
    pub fn from_json(s: &str) -> Result<PerfReport, String> {
        serde_json::from_str(s).map_err(|e| format!("{e:?}"))
    }

    /// JSON with every [`MASKED_FIELDS`] value blanked: two same-seed
    /// runs must produce byte-identical masked JSON.
    pub fn masked_json(&self) -> String {
        let mut v = serde::Serialize::to_value(self);
        mask_value(&mut v);
        serde_json::to_string_pretty(&v).unwrap_or_default()
    }

    /// Flat `series name → value` view used by the perf-budget gate.
    /// Wall series carry the scenario totals; deterministic series
    /// (events, records, sim coverage) guard the workload itself.
    pub fn series(&self) -> BTreeMap<String, f64> {
        let p = &self.profile;
        let mut out = BTreeMap::new();
        let scen = &self.meta.scenario;
        out.insert(format!("{scen}/wall_ns"), p.total(|n| n.wall_ns).max(1) as f64);
        out.insert(format!("{scen}/allocs"), p.total(|n| n.allocs) as f64);
        out.insert(
            format!("{scen}/alloc_bytes"),
            p.total(|n| n.alloc_bytes) as f64,
        );
        out.insert(format!("{scen}/peak_heap_bytes"), self.peak_heap_bytes as f64);
        out.insert(format!("{scen}/events"), p.total(|n| n.events) as f64);
        out.insert(format!("{scen}/records"), p.total(|n| n.records) as f64);
        for (k, v) in &self.throughput {
            out.insert(format!("{scen}/{k}"), *v);
        }
        out
    }

    /// The indented flame-style table (`obs profile <FILE>`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scenario {} · seed {} · scale {}‰ · {} sim-s · {}",
            self.meta.scenario,
            self.meta.seed,
            self.meta.scale_permille,
            self.meta.sim_secs,
            self.meta.toolchain,
        );
        let _ = writeln!(out, "peak heap: {:.2} MiB", self.peak_heap_bytes as f64 / (1 << 20) as f64);
        let _ = writeln!(
            out,
            "{:<38} {:>10} {:>10} {:>9} {:>10} {:>12}",
            "span", "total ms", "self ms", "calls", "allocs", "items"
        );
        for c in &self.profile.children {
            c.render_into(&mut out, 0);
        }
        if !self.throughput.is_empty() {
            let _ = writeln!(out, "throughput:");
            for (k, v) in &self.throughput {
                let _ = writeln!(out, "  {k:<40} {}/s", fmt_rate(*v));
            }
        }
        out
    }
}

fn fmt_rate(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Compares two report JSON bodies modulo [`MASKED_FIELDS`]. `Ok` when
/// the masked forms match; `Err` carries the first differing line.
pub fn masked_diff(a: &str, b: &str) -> Result<(), String> {
    let mask = |s: &str| -> Result<String, String> {
        let mut v = serde_json::parse_value(s).map_err(|e| format!("unparsable report: {e:?}"))?;
        mask_value(&mut v);
        serde_json::to_string_pretty(&v).map_err(|e| format!("{e:?}"))
    };
    let (ma, mb) = (mask(a)?, mask(b)?);
    if ma == mb {
        return Ok(());
    }
    for (la, lb) in ma.lines().zip(mb.lines()) {
        if la != lb {
            return Err(format!("first divergence:\n  left:  {la}\n  right: {lb}"));
        }
    }
    Err(String::from("reports differ in length"))
}

fn mask_value(v: &mut Value) {
    match v {
        Value::Map(entries) => {
            for (k, val) in entries.iter_mut() {
                let masked = matches!(k, Value::Str(name) if MASKED_FIELDS.contains(&name.as_str()));
                if masked {
                    *val = Value::Null;
                } else {
                    mask_value(val);
                }
            }
        }
        Value::Seq(items) => {
            for item in items {
                mask_value(item);
            }
        }
        _ => {}
    }
}

fn derive_throughput(node: &ProfileNode, prefix: &str, out: &mut BTreeMap<String, f64>) {
    let path = if node.name.is_empty() {
        String::new()
    } else if prefix.is_empty() {
        node.name.clone()
    } else {
        format!("{prefix}/{}", node.name)
    };
    if node.wall_ns > 0 && !path.is_empty() {
        let secs = node.wall_ns as f64 / 1e9;
        for (kind, n) in [
            ("records", node.records),
            ("events", node.events),
            ("bytes", node.bytes),
        ] {
            if n > 0 {
                out.insert(format!("{path}:{kind}_per_sec"), n as f64 / secs);
            }
        }
    }
    for c in &node.children {
        derive_throughput(c, &path, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn profiler() -> (Arc<ManualClock>, Profiler) {
        let clock = Arc::new(ManualClock::new());
        (clock.clone(), Profiler::new(clock))
    }

    #[test]
    fn spans_nest_ambient_and_accumulate() {
        let (clock, p) = profiler();
        {
            let run = p.span("run");
            clock.advance(10);
            {
                let _sweep = p.span("sweep");
                clock.advance(5);
            }
            {
                let sweep = p.span("sweep");
                sweep.add_records(100);
                clock.advance(5);
            }
            run.add_sim_us(1_000_000);
        }
        let tree = p.tree();
        let run = tree.find("run").expect("run node");
        assert_eq!(run.calls, 1);
        assert_eq!(run.wall_ns, 20_000);
        assert_eq!(run.sim_us, 1_000_000);
        let sweep = tree.find("run/sweep").expect("nested sweep");
        assert_eq!(sweep.calls, 2);
        assert_eq!(sweep.wall_ns, 10_000);
        assert_eq!(sweep.records, 100);
        assert_eq!(run.self_wall_ns(), 10_000);
    }

    #[test]
    fn cells_time_and_tally() {
        let (clock, p) = profiler();
        let root = p.span("run");
        let cell = root.cell("hook");
        let out = cell.time(|| {
            clock.advance(3);
            7
        });
        assert_eq!(out, 7);
        cell.add_records(2);
        cell.add_calls(4);
        drop(root);
        let tree = p.tree();
        let hook = tree.find("run/hook").expect("cell node");
        assert_eq!(hook.calls, 5);
        assert_eq!(hook.wall_ns, 3_000);
        assert_eq!(hook.records, 2);
    }

    #[test]
    fn disabled_guards_are_inert() {
        let span = ProfSpan::disabled();
        span.add_records(5);
        span.add_sim_us(5);
        assert!(!span.is_enabled());
        let cell = span.cell("x");
        assert!(!cell.is_enabled());
        assert_eq!(cell.time(|| 3), 3);
        cell.add_records(1);
        let _ = format!("{cell:?}");
    }

    #[test]
    fn panicking_scope_still_closes_its_spans() {
        let (clock, p) = profiler();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _a = p.span("a");
            clock.advance(2);
            let _b = p.span("b");
            clock.advance(1);
            panic!("boom");
        }));
        assert!(caught.is_err());
        let tree = p.tree();
        let a = tree.find("a").expect("a closed");
        let b = tree.find("a/b").expect("b closed under a");
        assert_eq!(a.calls, 1);
        assert_eq!(b.calls, 1);
        // The stack is balanced again: a fresh span roots at top level.
        drop(p.span("after"));
        assert!(tree.find("a/after").is_none());
        assert!(p.tree().find("after").is_some());
    }

    #[test]
    fn two_profilers_interleave_without_cross_talk() {
        let (_, p1) = profiler();
        let (_, p2) = profiler();
        let _a = p1.span("a");
        let _x = p2.span("x");
        let _b = p1.span("b");
        drop(_b);
        drop(_x);
        drop(_a);
        assert!(p1.tree().find("a/b").is_some());
        assert!(p2.tree().find("x").is_some());
        assert!(p2.tree().find("a").is_none());
    }

    fn sample_report(wall: u64) -> PerfReport {
        let (clock, p) = profiler();
        {
            let run = p.span("run");
            run.add_records(1_000);
            run.add_events(500);
            clock.advance(wall);
        }
        PerfReport::new(
            PerfMeta {
                scenario: "test_clean".into(),
                toolchain: "rustc test".into(),
                seed: 7,
                scale_permille: 20,
                sim_secs: 30,
            },
            p.tree(),
            MetricsSnapshot {
                counters: BTreeMap::new(),
                gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
            },
        )
    }

    #[test]
    fn report_round_trips_and_masks() {
        let r = sample_report(1_000);
        let json = r.to_json();
        let back = PerfReport::from_json(&json).expect("round trip");
        assert_eq!(back.meta.scenario, "test_clean");
        assert_eq!(back.profile.find("run").map(|n| n.records), Some(1_000));
        // Different wall time, same workload → masked-equal.
        let slower = sample_report(2_000);
        masked_diff(&json, &slower.to_json()).expect("wall time is masked");
        // Different workload → masked diff trips.
        let mut other = sample_report(1_000);
        other.profile.children[0].records = 1;
        assert!(masked_diff(&json, &other.to_json()).is_err());
    }

    #[test]
    fn series_and_throughput_cover_the_tree() {
        let r = sample_report(1_000_000); // ManualClock advances in µs: 1 s
        let series = r.series();
        assert_eq!(series["test_clean/records"], 1_000.0);
        assert_eq!(series["test_clean/events"], 500.0);
        assert!(series["test_clean/wall_ns"] >= 1e9);
        let rate = series["test_clean/run:records_per_sec"];
        assert!((rate - 1e3).abs() < 1e-6, "1000 records / 1s, got {rate}");
        let text = r.render();
        assert!(text.contains("run"));
        assert!(text.contains("records_per_sec"));
        assert!(text.contains("scenario test_clean"));
    }
}
