//! Hierarchical span profiler and its [`ProfileNode`] tree, the one
//! profile artifact (`--profile FILE` writes it as JSON).
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
//! * **work items** — records and events, each tallied once, at the
//!   span that owns the workload ([`ProfSpan::add_records`] at
//!   `analysis.sweep`, [`ProfSpan::add_events`] at `swarm.run`), so a
//!   sum over the tree counts each item once.
//!
//! Hot paths that cannot afford an RAII guard per call (the dispatcher's
//! per-event behaviour hooks) use a pre-registered [`ProfCell`] instead:
//! a leaf handle that times closures and tallies calls with a couple of
//! atomic adds, and collapses to a no-op when profiling is off.
//!
//! # Deterministic vs wall-clock
//!
//! The tree *shape*, call counts and item tallies are deterministic:
//! same seed, same tree. `wall_ns`, `allocs` and `alloc_bytes` are
//! observations of the host; zero those three and two same-seed trees
//! compare equal — the contract `tests/profiler.rs` pins.
//!
//! Spans close in `Drop`, so a panicking scope still records itself and
//! its ancestors stay balanced (also pinned by tests).

#![expect(
    clippy::disallowed_types,
    reason = "audited: span tallies are commutative adds read only at snapshot points, and \
              node locks are only taken parent before child"
)]

use crate::alloc;
use crate::clock::Clock;
use crate::locked;
use serde::{Deserialize, Serialize};
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
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
    records: AtomicU64,
    events: AtomicU64,
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
            allocs: s.allocs.load(Ordering::Relaxed),
            alloc_bytes: s.alloc_bytes.load(Ordering::Relaxed),
            records: s.records.load(Ordering::Relaxed),
            events: s.events.load(Ordering::Relaxed),
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
        ProfCell::child_of(&self.current(), name, &self.clock)
    }

    /// Registers a leaf cell named `name` at the top level of the tree,
    /// whatever spans are open on this thread: for work that runs
    /// beside those spans, on another thread, rather than inside them.
    pub fn top_cell(&self, name: &str) -> ProfCell {
        ProfCell::child_of(&self.root, name, &self.clock)
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

    /// A leaf cell under this span (for handing to worker threads, which
    /// have no ambient stack entry for it).
    pub fn cell(&self, name: &str) -> ProfCell {
        match &self.state {
            None => ProfCell::disabled(),
            Some(s) => ProfCell::child_of(&s.node, name, &s.clock),
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
        stats.allocs.fetch_add(
            heap.allocs.saturating_sub(s.start_allocs),
            Ordering::Relaxed,
        );
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
/// calls into one fixed node with a couple of atomic adds. Cloneable and
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

    /// A cell on a new (or existing) child `name` of `parent`.
    fn child_of(parent: &Node, name: &str, clock: &Arc<dyn Clock>) -> ProfCell {
        ProfCell {
            inner: Some(Arc::new(CellInner {
                node: parent.child(name),
                clock: Arc::clone(clock),
            })),
        }
    }

    /// Whether this cell actually records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Runs `f`, charging its wall time and one call to the cell.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.inner.is_none() {
            return f();
        }
        let t0 = self.stamp();
        let r = f();
        self.charge_since(t0);
        r
    }

    /// The cell's clock reading, for a later
    /// [`ProfCell::charge_since`]; zero when the cell is disabled.
    pub fn stamp(&self) -> u64 {
        self.inner.as_ref().map_or(0, |c| c.clock.elapsed_ns())
    }

    /// Charges one call and the wall time since `stamp`, a reading of
    /// [`ProfCell::stamp`]: for an interval that starts inside a closure
    /// handed elsewhere and ends after it returns.
    pub fn charge_since(&self, stamp: u64) {
        if let Some(c) = &self.inner {
            let stats = &c.node.stats;
            stats.calls.fetch_add(1, Ordering::Relaxed);
            stats.wall_ns.fetch_add(
                c.clock.elapsed_ns().saturating_sub(stamp),
                Ordering::Relaxed,
            );
        }
    }

    /// Tallies `calls` calls without timing.
    pub fn add_calls(&self, calls: u64) {
        if let Some(c) = &self.inner {
            c.node.stats.calls.fetch_add(calls, Ordering::Relaxed);
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
    /// Accumulated wall time, nanoseconds, children included (host
    /// observation).
    pub wall_ns: u64,
    /// Heap allocations observed during the span (host observation).
    pub allocs: u64,
    /// Heap bytes requested during the span (host observation).
    pub alloc_bytes: u64,
    /// Trace records swept; tallied only at `analysis.sweep`.
    pub records: u64,
    /// Simulation events dispatched; tallied only at `swarm.run`.
    pub events: u64,
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

    /// The phases a one-line-per-phase timing report lists: every
    /// top-level span, each followed by its direct children.
    pub fn phases(&self) -> impl Iterator<Item = &ProfileNode> {
        self.children
            .iter()
            .flat_map(|top| std::iter::once(top).chain(&top.children))
    }

    /// The indented flame-style table `obs profile FILE` prints: one
    /// row per span below this node (for the root, every span) with
    /// total and self wall time, calls, allocations and work items.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<38} {:>10} {:>10} {:>9} {:>10} {:>12}",
            "span", "total ms", "self ms", "calls", "allocs", "items"
        );
        for c in &self.children {
            c.render_into(&mut out, 0);
        }
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let label = format!("{}{}", "  ".repeat(depth), self.name);
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

/// Span-by-span comparison of two profile trees, A and B, with nodes
/// paired by `/`-separated path ([`ProfileNode::diff`]).
#[derive(Debug)]
pub struct ProfileDiff<'t> {
    /// Every path of either tree, depth-first with siblings by name.
    rows: Vec<DiffRow<'t>>,
}

#[derive(Debug)]
struct DiffRow<'t> {
    path: String,
    name: &'t str,
    depth: usize,
    a: Option<&'t ProfileNode>,
    b: Option<&'t ProfileNode>,
}

/// A work tally that differs between two profile trees at one span:
/// the runs did different work, so their timings do not compare.
#[derive(Clone, Debug, PartialEq)]
pub struct Drift {
    /// `/`-separated path of the span.
    pub path: String,
    /// The tally: `events` or `records`.
    pub tally: &'static str,
    /// Its value in tree A (0 where the span is absent).
    pub a: u64,
    /// Its value in tree B (0 where the span is absent).
    pub b: u64,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workload drift at {}: {} {} → {}",
            self.path, self.tally, self.a, self.b
        )
    }
}

impl ProfileNode {
    /// Pairs every span below this node (A) with the span at the same
    /// path below `other` (B); a span found in one tree only is paired
    /// with nothing.
    pub fn diff<'t>(&'t self, other: &'t ProfileNode) -> ProfileDiff<'t> {
        let mut rows = Vec::new();
        pair_children(Some(self), Some(other), "", 0, &mut rows);
        ProfileDiff { rows }
    }
}

fn pair_children<'t>(
    a: Option<&'t ProfileNode>,
    b: Option<&'t ProfileNode>,
    prefix: &str,
    depth: usize,
    rows: &mut Vec<DiffRow<'t>>,
) {
    let kids = |n: Option<&'t ProfileNode>| n.map_or(&[][..], |n| n.children.as_slice());
    let names: std::collections::BTreeSet<&str> = kids(a)
        .iter()
        .chain(kids(b))
        .map(|c| c.name.as_str())
        .collect();
    for name in names {
        let (ca, cb) = (
            kids(a).iter().find(|c| c.name == name),
            kids(b).iter().find(|c| c.name == name),
        );
        let path = if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix}/{name}")
        };
        rows.push(DiffRow {
            path: path.clone(),
            name,
            depth,
            a: ca,
            b: cb,
        });
        pair_children(ca, cb, &path, depth + 1, rows);
    }
}

impl ProfileDiff<'_> {
    /// The first span, depth-first, whose `events` or `records` tally
    /// differs between the trees.
    pub fn drift(&self) -> Option<Drift> {
        self.rows.iter().find_map(|r| {
            [
                (
                    "events",
                    r.a.map_or(0, |n| n.events),
                    r.b.map_or(0, |n| n.events),
                ),
                (
                    "records",
                    r.a.map_or(0, |n| n.records),
                    r.b.map_or(0, |n| n.records),
                ),
            ]
            .into_iter()
            .find(|(_, a, b)| a != b)
            .map(|(tally, a, b)| Drift {
                path: r.path.clone(),
                tally,
                a,
                b,
            })
        })
    }

    /// The table `obs diff A B` prints: one row per span with self
    /// wall time A → B and its change, calls and allocations A → B;
    /// `-` where a tree lacks the span.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<38} {:>10}   {:>10} {:>8} {:>9}   {:<9} {:>10}   allocs B",
            "span", "self ms A", "self ms B", "Δ %", "calls A", "calls B", "allocs A"
        );
        let side = |n: Option<&ProfileNode>, f: fn(&ProfileNode) -> String| n.map_or("-".into(), f);
        let self_ms = |n: &ProfileNode| format!("{:.3}", n.self_wall_ns() as f64 / 1e6);
        for r in &self.rows {
            let label = format!("{}{}", "  ".repeat(r.depth), r.name);
            let delta = match (r.a, r.b) {
                (Some(a), Some(b)) if a.self_wall_ns() > 0 => format!(
                    "{:+.1}%",
                    (b.self_wall_ns() as f64 / a.self_wall_ns() as f64 - 1.0) * 100.0
                ),
                _ => "-".into(),
            };
            let line = format!(
                "{label:<38} {:>10} → {:>10} {delta:>8} {:>9} → {:<9} {:>10} → {}",
                side(r.a, self_ms),
                side(r.b, self_ms),
                side(r.a, |n| n.calls.to_string()),
                side(r.b, |n| n.calls.to_string()),
                side(r.a, |n| n.allocs.to_string()),
                side(r.b, |n| n.allocs.to_string()),
            );
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }
}

fn fmt_items(n: &ProfileNode) -> String {
    if n.records > 0 {
        format!("{} rec", n.records)
    } else if n.events > 0 {
        format!("{} ev", n.events)
    } else {
        String::from("-")
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

    fn node(name: &str, wall_ns: u64, events: u64, children: Vec<ProfileNode>) -> ProfileNode {
        ProfileNode {
            name: name.into(),
            calls: 1,
            wall_ns,
            allocs: 0,
            alloc_bytes: 0,
            records: 0,
            events,
            children,
        }
    }

    #[test]
    fn diff_pairs_spans_by_path_and_flags_drift() {
        let tree = |dispatch_ns: u64, events: u64, extra: bool| {
            let mut kids = vec![node("swarm.dispatch", dispatch_ns, 0, vec![])];
            if extra {
                kids.push(node("trace.spill", 1_000_000, 0, vec![]));
            }
            node("", 0, 0, vec![node("swarm.run", 10_000_000, events, kids)])
        };
        let (a, b) = (tree(4_000_000, 7, false), tree(2_000_000, 7, true));
        let diff = a.diff(&b);
        assert_eq!(diff.drift(), None);
        let table = diff.render();
        let row = |span: &str| {
            table
                .lines()
                .find(|l| l.trim_start().starts_with(span))
                .unwrap_or_else(|| panic!("no {span} row in {table}"))
                .split_whitespace()
                .collect::<Vec<_>>()
        };
        assert_eq!(
            row("swarm.dispatch")[1..5],
            ["4.000", "→", "2.000", "-50.0%"]
        );
        // swarm.run's self time grows as its child shrinks: 6 → 7 ms.
        assert_eq!(row("swarm.run")[1..5], ["6.000", "→", "7.000", "+16.7%"]);
        assert_eq!(row("trace.spill")[1..5], ["-", "→", "1.000", "-"]);

        let drifted = tree(4_000_000, 8, false);
        let d = a.diff(&drifted).drift().expect("events differ");
        assert_eq!(
            (d.path.as_str(), d.tally, d.a, d.b),
            ("swarm.run", "events", 7, 8)
        );
        assert_eq!(d.to_string(), "workload drift at swarm.run: events 7 → 8");
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
            run.add_events(7);
        }
        let tree = p.tree();
        let run = tree.find("run").expect("run node");
        assert_eq!(run.calls, 1);
        assert_eq!(run.wall_ns, 20_000);
        assert_eq!(run.events, 7);
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
        cell.add_calls(4);
        drop(root);
        let tree = p.tree();
        let hook = tree.find("run/hook").expect("cell node");
        assert_eq!(hook.calls, 5);
        assert_eq!(hook.wall_ns, 3_000);
        let text = tree.render();
        assert!(
            text.contains("  hook "),
            "cell row nests under its span:\n{text}"
        );
    }

    #[test]
    fn top_cells_root_outside_open_spans_and_charge_stamped_intervals() {
        let (clock, p) = profiler();
        let run = p.span("run");
        let inner = p.span("dispatch");
        let helper = p.top_cell("capture");
        let wait = p.cell("seal");
        helper.time(|| clock.advance(4));
        let stamp = wait.stamp();
        clock.advance(2);
        wait.charge_since(stamp);
        drop(inner);
        drop(run);
        let tree = p.tree();
        let capture = tree.find("capture").expect("top-level cell");
        assert_eq!((capture.calls, capture.wall_ns), (1, 4_000));
        assert!(tree.find("run/dispatch/capture").is_none());
        let seal = tree.find("run/dispatch/seal").expect("ambient cell");
        assert_eq!((seal.calls, seal.wall_ns), (1, 2_000));
        let off = ProfCell::disabled();
        assert_eq!(off.stamp(), 0);
        off.charge_since(0);
    }

    #[test]
    fn disabled_guards_are_inert() {
        let span = ProfSpan::disabled();
        span.add_records(5);
        span.add_events(5);
        assert!(!span.is_enabled());
        let cell = span.cell("x");
        assert!(!cell.is_enabled());
        assert_eq!(cell.time(|| 3), 3);
        cell.add_calls(1);
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
}
