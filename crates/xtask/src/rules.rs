//! The lint catalogue: rule IDs, severities, scopes, and per-rule checks
//! over the syntax tree.
//!
//! Every rule has an ID (used in diagnostics and in
//! `// netaware-lint: allow(<ID>)` escape hatches), a severity (`deny`
//! rules gate CI; `warn` rules land baseline-first), a scope (which
//! crates it patrols), and a rationale tied to the determinism &
//! reproducibility contract in DESIGN.md. Checks run over the
//! [`crate::ast`] tree built by [`crate::parser`], so string literals,
//! comments, and `#[cfg(test)]` items at any nesting depth can never
//! fire a rule, and context-sensitive rules (draws inside `Drop` impls,
//! sanctioned concurrency modules) see real item structure.

use crate::ast::{self, Chain, File, Item, ItemKind, Span, Vis};
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// A lint rule identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No wall-clock time or ambient entropy in deterministic crates.
    Nd01,
    /// No order-dependent hash collections in simulation/report paths.
    Nd02,
    /// No unordered parallel float reductions in analysis.
    Nd03,
    /// No full-trace materialisation in analysis hot paths.
    Nd04,
    /// No hash-ordered iteration flowing into sinks or reductions.
    Nd05,
    /// No bare thread/lock primitives outside the audited obs modules.
    Cc01,
    /// No relaxed atomic orderings outside audited commutative metrics.
    Cc02,
    /// Every RNG draw must reach a named stream; no draws in `Drop`.
    Rs01,
    /// No `unwrap`/`expect`/`panic!` in non-test library code.
    Pa01,
    /// Public items must be documented.
    Doc01,
    /// No `println!`/`eprintln!`/`dbg!` in library crates.
    Ob01,
    /// No raw `Event` matching or `Scheduler` access outside the dispatcher.
    Bh01,
    /// No `std::time` clock reads outside the obs `Clock` abstraction.
    Ob02,
}

/// How severely a rule's findings are treated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fails the lint run (exit code 1) when unsuppressed.
    Deny,
    /// Reported, but only fails under `--deny-warnings`. New rules land
    /// at this level with pre-existing findings captured in
    /// `lint-baseline.json`.
    Warn,
}

impl Severity {
    /// Lower-case label (`"deny"` / `"warn"`), as printed and serialized.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }

    /// SARIF 2.1.0 result level.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Deny => "error",
            Severity::Warn => "warning",
        }
    }
}

impl RuleId {
    /// The stable textual ID, as written in allow directives.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::Nd01 => "ND01",
            RuleId::Nd02 => "ND02",
            RuleId::Nd03 => "ND03",
            RuleId::Nd04 => "ND04",
            RuleId::Nd05 => "ND05",
            RuleId::Cc01 => "CC01",
            RuleId::Cc02 => "CC02",
            RuleId::Rs01 => "RS01",
            RuleId::Pa01 => "PA01",
            RuleId::Doc01 => "DOC01",
            RuleId::Ob01 => "OB01",
            RuleId::Bh01 => "BH01",
            RuleId::Ob02 => "OB02",
        }
    }

    /// Parses a textual ID (`"ND01"` → `Nd01`).
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::all().into_iter().find(|r| r.code() == s)
    }

    /// All rules, in catalogue order.
    pub fn all() -> [RuleId; 13] {
        [
            RuleId::Nd01,
            RuleId::Nd02,
            RuleId::Nd03,
            RuleId::Nd04,
            RuleId::Nd05,
            RuleId::Cc01,
            RuleId::Cc02,
            RuleId::Rs01,
            RuleId::Pa01,
            RuleId::Doc01,
            RuleId::Ob01,
            RuleId::Bh01,
            RuleId::Ob02,
        ]
    }

    /// The rule's default severity. The original catalogue is deny
    /// (the workspace is clean under it); the concurrency/RNG-stream
    /// rules land warn-first with
    /// pre-existing findings baselined. BH01 lands deny directly: it
    /// shipped together with the behaviour decomposition it guards, so
    /// there were zero pre-existing findings to baseline.
    pub fn severity(self) -> Severity {
        match self {
            RuleId::Nd05 | RuleId::Cc01 | RuleId::Cc02 | RuleId::Rs01 | RuleId::Ob02 => {
                Severity::Warn
            }
            _ => Severity::Deny,
        }
    }

    /// One-line summary for the catalogue table.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::Nd01 => {
                "no wall-clock or ambient entropy (SystemTime, Instant, thread_rng, std::env) \
                 in sim/proto/net/testbed"
            }
            RuleId::Nd02 => {
                "no order-dependent HashMap/HashSet in simulation or report-emitting paths \
                 (use BTreeMap/BTreeSet or a sorted collect)"
            }
            RuleId::Nd03 => {
                "no unordered parallel float reductions (par_iter…sum/reduce/fold) in analysis"
            }
            RuleId::Nd04 => {
                "no full-trace materialisation (into_records(), records()…collect) in analysis \
                 hot paths; stream records through AnalysisPass accumulators"
            }
            RuleId::Nd05 => {
                "no iteration over hash-ordered collections flowing into event sinks, report \
                 serialisation, or reduce calls (collect/fold/sum); order the collection first"
            }
            RuleId::Cc01 => {
                "no bare std::thread::spawn/Mutex/RwLock outside the audited obs modules; \
                 parallel work goes through rayon's order-preserving iterators"
            }
            RuleId::Cc02 => {
                "no Ordering::Relaxed/AcqRel atomics outside the audited commutative-metrics \
                 modules in crates/obs; merge-visible atomics must be SeqCst"
            }
            RuleId::Rs01 => {
                "every DetRng draw must reach a named stream: no fresh DetRng::new/from_entropy \
                 outside the stream registry, and no draws inside Drop impls"
            }
            RuleId::Pa01 => "no unwrap()/expect()/panic! in non-test library code",
            RuleId::Doc01 => "public items must carry doc comments",
            RuleId::Ob01 => {
                "no println!/eprintln!/dbg! in library crates; route diagnostics through the \
                 netaware-obs event log so they are filterable, structured, and deterministic"
            }
            RuleId::Bh01 => {
                "no raw `Event` pattern-matching or `Scheduler` access in crates/proto outside \
                 the dispatcher module; behaviours receive decomposed hook arguments and emit \
                 typed BehaviourActions through Ctx"
            }
            RuleId::Ob02 => {
                "no std::time::Instant/SystemTime outside crates/obs/src/clock.rs; profiling \
                 and timestamps go through the obs Clock abstraction so runs stay swappable \
                 onto ManualClock"
            }
        }
    }
}

/// Modules sanctioned to hold bare thread/lock primitives (CC01): the
/// audited observability modules — each holds exactly one flat `Mutex`
/// (no nested acquisition, so no lock-order coupling) and everything
/// merge-visible serialises in `BTreeMap` order, so byte-stable output
/// cannot be broken by lock scheduling. Everything else parallelises
/// through rayon.
const CC01_SANCTIONED: &[&str] = &[
    "crates/obs/src/clock.rs",
    "crates/obs/src/lib.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/profile.rs",
    "crates/obs/src/sink.rs",
];

/// Modules sanctioned to use relaxed atomic orderings (CC02): the
/// commutative metrics registry in `crates/obs`, audited to tolerate
/// reordering (counter adds commute; snapshots order by key), plus the
/// profiler tallies and allocation counters, which are likewise
/// commutative adds read only at snapshot points.
const CC02_SANCTIONED: &[&str] = &[
    "crates/obs/src/alloc.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/profile.rs",
];

/// The RNG stream registry (RS01): the one module allowed to construct
/// generators from raw seeds.
const RS01_REGISTRY: &[&str] = &["crates/sim/src/rng.rs"];

/// The wall-clock boundary (OB02): the one module allowed to read
/// `std::time` directly. Everything else takes a [`Clock`] handle, so a
/// profiled run can be replayed under `ManualClock` in tests.
const OB02_CLOCK: &[&str] = &["crates/obs/src/clock.rs"];

/// The behaviour dispatcher (BH01): the one proto module allowed to hold
/// the scheduler and destructure raw `Event`s. Behaviour modules see
/// decomposed hook arguments and return typed actions; matching events
/// or pushing into the scheduler anywhere else would bypass the fixed
/// hook order and FIFO action drain that keep same-seed runs
/// byte-identical (see DESIGN.md, "Behaviour composition").
const BH01_DISPATCH: &[&str] = &["crates/proto/src/swarm/dispatch.rs"];

fn sanctioned(rel: &str, list: &[&str]) -> bool {
    list.iter()
        .any(|p| rel == *p || (p.ends_with('/') && rel.starts_with(p)))
}

/// Which rules patrol a file, derived from its workspace-relative path.
pub struct FileScope {
    /// ND01 applies (deterministic simulation substrate crates).
    pub nd01: bool,
    /// ND02 applies (simulation or report-emitting path).
    pub nd02: bool,
    /// ND03 applies (analysis reductions).
    pub nd03: bool,
    /// ND04 applies (analysis record-streaming discipline).
    pub nd04: bool,
    /// ND05 applies (hash-ordered iteration into sinks).
    pub nd05: bool,
    /// CC01 applies (not an audited obs module).
    pub cc01: bool,
    /// CC02 applies (not an audited commutative-metrics module).
    pub cc02: bool,
    /// RS01 applies (not the stream registry).
    pub rs01: bool,
    /// PA01/DOC01 apply (library source).
    pub library: bool,
    /// OB01 applies (library crates other than the linter itself, whose
    /// command-line reporting legitimately prints).
    pub ob01: bool,
    /// BH01 applies (proto behaviour modules, not the dispatcher).
    pub bh01: bool,
    /// OB02 applies (library crates outside ND01's stricter patrol,
    /// excluding the clock module itself).
    pub ob02: bool,
}

impl FileScope {
    /// Classifies a workspace-relative path (`crates/sim/src/rng.rs`).
    /// Returns `None` for files the linter does not patrol at all
    /// (tests, benches, examples, vendored shims, the CLI binary).
    pub fn classify(rel: &str) -> Option<FileScope> {
        let rel = rel.replace('\\', "/");
        if !rel.ends_with(".rs") {
            return None;
        }
        // Test code may unwrap and iterate however it likes.
        if rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.contains("/examples/")
            || rel.starts_with("examples/")
            || rel.starts_with("tests/")
            || rel.ends_with("/tests.rs")
            || rel.starts_with("vendor/")
        {
            return None;
        }
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next());
        let in_src = match crate_name {
            Some(name) => rel.starts_with(&format!("crates/{name}/src/")),
            None => rel.starts_with("src/"),
        };
        if !in_src {
            return None;
        }
        // The CLI binary owns process concerns (args, exit codes).
        if rel.starts_with("src/bin/") {
            return None;
        }
        // The linter itself is library code too, but its rules modules
        // necessarily *name* the patterns they hunt; it is patrolled only
        // by PA01/DOC01.
        let is_xtask = crate_name == Some("xtask");
        let nd01 = matches!(crate_name, Some("sim" | "proto" | "net" | "testbed"));
        let nd02 = !is_xtask
            && (nd01 || matches!(crate_name, Some("trace" | "analysis")) || crate_name.is_none());
        let nd03 = matches!(crate_name, Some("analysis"));
        // The analysis crate must stream records, never buffer a whole
        // trace: the streaming pipeline's memory bound depends on it.
        let nd04 = nd03;
        Some(FileScope {
            nd01,
            nd02,
            nd03,
            nd04,
            nd05: !is_xtask,
            cc01: !is_xtask && !sanctioned(&rel, CC01_SANCTIONED),
            cc02: !is_xtask && !sanctioned(&rel, CC02_SANCTIONED),
            rs01: !is_xtask && !sanctioned(&rel, RS01_REGISTRY),
            library: true,
            ob01: !is_xtask,
            bh01: crate_name == Some("proto") && !sanctioned(&rel, BH01_DISPATCH),
            // ND01 already denies clock reads in the simulation crates;
            // OB02 extends a warn-level version of the same hygiene to
            // the remaining library crates without double-reporting.
            ob02: !is_xtask && !nd01 && !sanctioned(&rel, OB02_CLOCK),
        })
    }
}

/// A rule match before allow-directive and baseline filtering.
pub struct RawFinding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Source span of the offending tokens.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

fn tok_finding(rule: RuleId, t: &Tok, message: String) -> RawFinding {
    RawFinding {
        rule,
        span: Span::of(t),
        message,
    }
}

/// Runs every in-scope rule over a parsed file.
pub fn check(file: &File, scope: &FileScope) -> Vec<RawFinding> {
    let code = &file.code;
    // Field names whose declared type is hash-ordered, visible file-wide
    // (`self.counts.iter()…` in another item of the same file).
    let mut hash_fields: BTreeSet<String> = BTreeSet::new();
    file.walk(&mut |item, _| {
        for f in &item.fields {
            if mentions_hash(&f.ty) {
                hash_fields.insert(f.name.clone());
            }
        }
    });
    let mut out = Vec::new();
    file.walk(&mut |item, ancestors| {
        if item.cfg_test || ancestors.iter().any(|a| a.cfg_test) {
            return;
        }
        if scope.library {
            doc01_item(item, &mut out);
        }
        let in_drop = matches!(item.kind, ItemKind::Fn)
            && ancestors.iter().any(|a| {
                matches!(&a.kind, ItemKind::Impl { trait_name: Some(t) } if t == "Drop")
            });
        for &(lo, hi) in &item.scan {
            scan_range(code, lo, hi, scope, in_drop, &hash_fields, &mut out);
        }
    });
    out
}

fn mentions_hash(ty: &str) -> bool {
    ty.contains("HashMap") || ty.contains("HashSet")
}

// ---------------------------------------------------------------- DOC01

fn doc01_item(item: &Item, out: &mut Vec<RawFinding>) {
    let what = match &item.kind {
        ItemKind::Fn => "fn",
        ItemKind::Struct => "struct",
        ItemKind::Enum => "enum",
        ItemKind::Union => "union",
        ItemKind::Trait => "trait",
        ItemKind::Mod { inline: true } => "mod",
        ItemKind::Const => "const",
        ItemKind::Static => "static",
        ItemKind::TypeAlias => "type",
        // Out-of-line `pub mod name;` is documented by the `//!` header
        // of its own file; `use`/`impl`/macros carry no outer API docs.
        _ => "",
    };
    if !what.is_empty() && item.vis == Vis::Pub && !item.has_doc {
        out.push(RawFinding {
            rule: RuleId::Doc01,
            span: item.head,
            message: format!("public {what} `{}` has no doc comment", item.name),
        });
    }
    for f in &item.fields {
        if f.vis == Vis::Pub && !f.has_doc {
            out.push(RawFinding {
                rule: RuleId::Doc01,
                span: f.span,
                message: format!("public field `{}` has no doc comment", f.name),
            });
        }
    }
}

// ------------------------------------------------------- range scanning

fn scan_range(
    code: &[Tok],
    lo: usize,
    hi: usize,
    scope: &FileScope,
    in_drop: bool,
    hash_fields: &BTreeSet<String>,
    out: &mut Vec<RawFinding>,
) {
    let paths = ast::paths(code, lo, hi);
    let chains = ast::chains(code, lo, hi);
    let macros = ast::macro_bangs(code, lo, hi);

    if scope.nd01 {
        nd01(code, &paths, out);
    }
    if scope.nd02 {
        for t in code.get(lo..hi.min(code.len())).unwrap_or(&[]) {
            if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
                out.push(tok_finding(
                    RuleId::Nd02,
                    t,
                    format!(
                        "`{}` iteration order is nondeterministic; use BTreeMap/BTreeSet or a \
                         sorted collect in simulation/report paths",
                        t.text
                    ),
                ));
            }
        }
    }
    if scope.nd03 {
        nd03(code, &chains, out);
    }
    if scope.nd04 {
        nd04(code, &chains, out);
    }
    if scope.nd05 {
        nd05(code, lo, hi, &chains, hash_fields, out);
    }
    if scope.cc01 {
        cc01(code, lo, hi, &paths, out);
    }
    if scope.cc02 {
        cc02(code, &paths, out);
    }
    if scope.rs01 {
        rs01(code, &paths, &chains, in_drop, out);
    }
    if scope.bh01 {
        bh01(code, lo, hi, out);
    }
    if scope.ob02 {
        ob02(code, &paths, out);
    }
    if scope.library {
        for c in &chains {
            for call in &c.calls {
                if call.name == "unwrap" || call.name == "expect" {
                    if let Some(t) = code.get(call.idx) {
                        out.push(tok_finding(
                            RuleId::Pa01,
                            t,
                            format!(
                                "`.{}()` panics on the error path; return a Result, handle the \
                                 None, or justify with `// netaware-lint: allow(PA01)`",
                                call.name
                            ),
                        ));
                    }
                }
            }
        }
        for m in &macros {
            if m.name == "panic" {
                if let Some(t) = code.get(m.idx) {
                    out.push(tok_finding(
                        RuleId::Pa01,
                        t,
                        "`panic!` in library code aborts callers; return an error or justify \
                         with `// netaware-lint: allow(PA01)`"
                            .into(),
                    ));
                }
            }
        }
    }
    if scope.ob01 {
        for m in &macros {
            if matches!(
                m.name.as_str(),
                "println" | "eprintln" | "print" | "eprint" | "dbg"
            ) {
                if let Some(t) = code.get(m.idx) {
                    out.push(tok_finding(
                        RuleId::Ob01,
                        t,
                        format!(
                            "`{}!` writes to the console from library code; emit a \
                             `netaware_obs::event!` (or return the data) and let the binary \
                             decide what to print",
                            m.name
                        ),
                    ));
                }
            }
        }
    }
}

// ----------------------------------------------------------------- ND01

fn nd01(code: &[Tok], paths: &[ast::PathMention], out: &mut Vec<RawFinding>) {
    for p in paths {
        for (k, seg) in p.segs.iter().enumerate() {
            let Some(&idx) = p.seg_idx.get(k) else { continue };
            let Some(t) = code.get(idx) else { continue };
            match seg.as_str() {
                "SystemTime" | "UNIX_EPOCH" => out.push(tok_finding(
                    RuleId::Nd01,
                    t,
                    "wall-clock time is nondeterministic; derive timestamps from SimTime".into(),
                )),
                "Instant" => out.push(tok_finding(
                    RuleId::Nd01,
                    t,
                    "monotonic-clock reads are nondeterministic; use SimTime for simulated time"
                        .into(),
                )),
                "thread_rng" | "OsRng" => {
                    let continues = k + 1 < p.segs.len();
                    let called = code.get(idx + 1).is_some_and(|n| n.is_punct('('));
                    if continues || called {
                        out.push(tok_finding(
                            RuleId::Nd01,
                            t,
                            "ambient entropy breaks (seed, config) reproducibility; use DetRng \
                             streams"
                                .into(),
                        ));
                    }
                }
                "env" => {
                    let prefixed = p.has_pair("std", "env") || p.has_pair("core", "env");
                    let bare_call = k == 0
                        && p.segs.get(1).is_some_and(|n| {
                            matches!(
                                n.as_str(),
                                "var" | "vars" | "var_os" | "args" | "args_os" | "temp_dir"
                            )
                        });
                    if prefixed || bare_call {
                        out.push(tok_finding(
                            RuleId::Nd01,
                            t,
                            "process environment is ambient configuration; thread it through \
                             explicit config structs"
                                .into(),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

// ----------------------------------------------------------------- OB02

fn ob02(code: &[Tok], paths: &[ast::PathMention], out: &mut Vec<RawFinding>) {
    for p in paths {
        for (k, seg) in p.segs.iter().enumerate() {
            let Some(&idx) = p.seg_idx.get(k) else { continue };
            let Some(t) = code.get(idx) else { continue };
            if matches!(seg.as_str(), "Instant" | "SystemTime" | "UNIX_EPOCH") {
                out.push(tok_finding(
                    RuleId::Ob02,
                    t,
                    format!(
                        "`{seg}` reads the process clock directly; take a `Clock` handle from \
                         netaware-obs so the caller can substitute ManualClock",
                    ),
                ));
            }
        }
    }
}

// ----------------------------------------------------------------- ND03

fn nd03(code: &[Tok], chains: &[Chain], out: &mut Vec<RawFinding>) {
    for c in chains {
        let Some(par) = c.calls.iter().position(|call| {
            matches!(
                call.name.as_str(),
                "par_iter" | "into_par_iter" | "par_iter_mut"
            )
        }) else {
            continue;
        };
        if let Some(red) = c.calls[par + 1..]
            .iter()
            .find(|call| matches!(call.name.as_str(), "sum" | "reduce" | "fold" | "product"))
        {
            if let Some(t) = code.get(red.idx) {
                out.push(tok_finding(
                    RuleId::Nd03,
                    t,
                    format!(
                        "unordered parallel `{}` makes float results depend on thread \
                         scheduling; collect in input order and reduce sequentially",
                        red.name
                    ),
                ));
            }
        }
    }
}

// ----------------------------------------------------------------- ND04

fn nd04(code: &[Tok], chains: &[Chain], out: &mut Vec<RawFinding>) {
    for c in chains {
        for call in &c.calls {
            if call.name == "into_records" {
                if let Some(t) = code.get(call.idx) {
                    out.push(tok_finding(
                        RuleId::Nd04,
                        t,
                        "`.into_records()` materialises the whole trace; stream it through an \
                         AnalysisPass instead"
                            .into(),
                    ));
                }
            }
        }
        let Some(rec) = c
            .calls
            .iter()
            .position(|call| call.name == "records" || call.name == "records_unsorted")
        else {
            continue;
        };
        if let Some(col) = c.calls[rec + 1..].iter().find(|call| call.name == "collect") {
            if let (Some(t), Some(rec_name)) = (code.get(col.idx), c.calls.get(rec)) {
                out.push(tok_finding(
                    RuleId::Nd04,
                    t,
                    format!(
                        "collecting `.{}()` copies the whole trace; feed the records through \
                         an AnalysisPass accumulator instead",
                        rec_name.name
                    ),
                ));
            }
        }
    }
}

// ----------------------------------------------------------------- ND05

/// Iteration methods whose order is the receiver's iteration order.
const ND05_ITER: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Chain continuations that materialise or reduce in iteration order.
const ND05_REDUCE: &[&str] = &["collect", "fold", "sum", "reduce", "product", "for_each"];

/// Callees whose arguments reach event sinks or serialized reports.
const ND05_SINKS: &[&str] = &[
    "emit",
    "extend",
    "push_event",
    "serialize",
    "to_json",
    "to_string",
    "to_writer",
    "write",
    "write_all",
];

fn nd05(
    code: &[Tok],
    lo: usize,
    hi: usize,
    chains: &[Chain],
    hash_fields: &BTreeSet<String>,
    out: &mut Vec<RawFinding>,
) {
    // Hash-typed names in this range: annotated/constructed `let`s, plus
    // `name: …HashMap…` parameter/field patterns.
    let mut hashy: BTreeSet<String> = hash_fields.clone();
    for l in ast::lets(code, lo, hi) {
        let ty_hash = l.ty.as_deref().is_some_and(mentions_hash);
        let init_hash = l
            .init_path
            .as_deref()
            .is_some_and(|p| p.starts_with("HashMap") || p.starts_with("HashSet"));
        if ty_hash || init_hash {
            hashy.insert(l.name);
        }
    }
    let hi = hi.min(code.len());
    for i in lo..hi {
        let t = &code[i];
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            // Walk back over a `std::collections::` qualifier, then over
            // `& mut 'a` sigils, to the `name:` the type annotates.
            let mut j = i;
            while j >= lo + 3
                && code[j - 1].is_punct(':')
                && code[j - 2].is_punct(':')
                && code[j - 3].kind == TokKind::Ident
            {
                j -= 3;
            }
            while j > lo
                && code.get(j - 1).is_some_and(|p| {
                    p.is_punct('&') || p.is_ident("mut") || p.kind == TokKind::Lifetime
                })
            {
                j -= 1;
            }
            if j >= lo + 2
                && code.get(j - 1).is_some_and(|p| p.is_punct(':'))
                && !code.get(j - 2).is_some_and(|p| p.is_punct(':'))
            {
                if let Some(name) = code.get(j - 2).filter(|n| n.kind == TokKind::Ident) {
                    hashy.insert(name.text.clone());
                }
            }
        }
    }
    for c in chains {
        let Some(root) = c.root.as_deref() else {
            continue;
        };
        if !hashy.contains(root) {
            continue;
        }
        let Some(it) = c
            .calls
            .iter()
            .position(|call| ND05_ITER.contains(&call.name.as_str()))
        else {
            continue;
        };
        let reduces = c.calls[it + 1..]
            .iter()
            .any(|call| ND05_REDUCE.contains(&call.name.as_str()));
        let sinks = c
            .arg_of
            .as_deref()
            .is_some_and(|f| ND05_SINKS.contains(&f));
        if reduces || sinks {
            if let Some(t) = code.get(c.calls[it].idx) {
                out.push(tok_finding(
                    RuleId::Nd05,
                    t,
                    format!(
                        "iterating hash-ordered `{root}` into an ordered sink; iteration order \
                         is nondeterministic — use a BTree collection or sort before emitting"
                    ),
                ));
            }
        }
    }
}

// ----------------------------------------------------------------- CC01

fn cc01(code: &[Tok], lo: usize, hi: usize, paths: &[ast::PathMention], out: &mut Vec<RawFinding>) {
    for p in paths {
        for pair in [
            ("thread", "spawn"),
            ("thread", "scope"),
            ("thread", "Builder"),
        ] {
            if p.has_pair(pair.0, pair.1) {
                if let Some(&idx) = p
                    .segs
                    .iter()
                    .position(|s| s.as_str() == pair.1)
                    .and_then(|k| p.seg_idx.get(k))
                {
                    if let Some(t) = code.get(idx) {
                        out.push(tok_finding(
                            RuleId::Cc01,
                            t,
                            format!(
                                "bare `thread::{}` outside the audited modules; parallelise \
                                 with rayon's order-preserving iterators so output order stays \
                                 deterministic",
                                pair.1
                            ),
                        ));
                    }
                }
            }
        }
    }
    for t in code.get(lo..hi.min(code.len())).unwrap_or(&[]) {
        if t.kind == TokKind::Ident && (t.text == "Mutex" || t.text == "RwLock") {
            out.push(tok_finding(
                RuleId::Cc01,
                t,
                format!(
                    "bare `{}` outside the audited modules; lock-ordering bugs break \
                     byte-stable output — collect parallel results in order or add the module \
                     to the audited list",
                    t.text
                ),
            ));
        }
    }
}

// ----------------------------------------------------------------- CC02

fn cc02(code: &[Tok], paths: &[ast::PathMention], out: &mut Vec<RawFinding>) {
    for p in paths {
        for variant in ["Relaxed", "AcqRel"] {
            if p.has_pair("Ordering", variant) {
                if let Some(&idx) = p
                    .segs
                    .iter()
                    .position(|s| s.as_str() == variant)
                    .and_then(|k| p.seg_idx.get(k))
                {
                    if let Some(t) = code.get(idx) {
                        out.push(tok_finding(
                            RuleId::Cc02,
                            t,
                            format!(
                                "`Ordering::{variant}` outside the audited commutative-metrics \
                                 modules; non-SeqCst updates can reorder across threads — \
                                 use SeqCst or move the counter into `crates/obs` metrics"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

// ----------------------------------------------------------------- BH01

/// Skips one balanced `(…)`/`{…}` payload group starting at `j`, if one
/// opens there, and returns the index of the first token past it.
fn bh01_after_payload(code: &[Tok], mut j: usize, hi: usize) -> usize {
    if !code
        .get(j)
        .is_some_and(|t| t.is_punct('(') || t.is_punct('{'))
    {
        return j;
    }
    let mut depth = 0usize;
    while j < hi {
        let t = &code[j];
        if t.is_punct('(') || t.is_punct('{') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct('}') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Behaviour modules must not see the scheduler or destructure raw
/// events. Flags any `Scheduler` mention, and any `Event::Variant` in
/// *pattern* position — after the variant's optional payload group comes
/// `=>` or `|` (a match arm) or a single `=` (an `if let`/`let`
/// binding). `Event::…` in expression position (constructing an event
/// for `Ctx::schedule`) never matches: construction is the sanctioned
/// way for a behaviour to reach the scheduler.
fn bh01(code: &[Tok], lo: usize, hi: usize, out: &mut Vec<RawFinding>) {
    let hi = hi.min(code.len());
    for i in lo..hi {
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "Scheduler" {
            out.push(tok_finding(
                RuleId::Bh01,
                t,
                "`Scheduler` handled outside the dispatcher module; emit \
                 `BehaviourAction::Schedule` through `Ctx::schedule` so the dispatcher's \
                 FIFO drain keeps same-seed runs byte-identical"
                    .into(),
            ));
            continue;
        }
        if t.text != "Event"
            || !code.get(i + 1).is_some_and(|n| n.is_punct(':'))
            || !code.get(i + 2).is_some_and(|n| n.is_punct(':'))
            || !code.get(i + 3).is_some_and(|n| n.kind == TokKind::Ident)
        {
            continue;
        }
        let j = bh01_after_payload(code, i + 4, hi);
        let pattern_pos = match code.get(j) {
            Some(n) if n.is_punct('|') => true,
            // `=>` (arm) or a lone `=` (let binding); `==` compares a
            // constructed event and is fine.
            Some(n) if n.is_punct('=') => !code.get(j + 1).is_some_and(|m| m.is_punct('=')),
            _ => false,
        };
        if pattern_pos {
            out.push(tok_finding(
                RuleId::Bh01,
                t,
                format!(
                    "matching `Event::{}` outside the dispatcher module; add a `Behaviour` \
                     hook (or extend one) instead of destructuring raw events",
                    code[i + 3].text
                ),
            ));
        }
    }
}

// ----------------------------------------------------------------- RS01

/// `DetRng` draw methods (kept in sync with `crates/sim/src/rng.rs`).
const RS01_DRAWS: &[&str] = &[
    "next_u64",
    "unit",
    "chance",
    "range",
    "exp",
    "pareto",
    "pick",
    "pick_weighted",
    "shuffle",
];

fn rs01(
    code: &[Tok],
    paths: &[ast::PathMention],
    chains: &[Chain],
    in_drop: bool,
    out: &mut Vec<RawFinding>,
) {
    for p in paths {
        for ctor in ["new", "from_entropy", "from_os_entropy", "seed_from_u64"] {
            if p.has_pair("DetRng", ctor) {
                if let Some(&idx) = p
                    .segs
                    .iter()
                    .position(|s| s.as_str() == ctor)
                    .and_then(|k| p.seg_idx.get(k))
                {
                    if let Some(t) = code.get(idx) {
                        out.push(tok_finding(
                            RuleId::Rs01,
                            t,
                            format!(
                                "fresh `DetRng::{ctor}` outside the stream registry; derive \
                                 generators from named `DetRng::stream`/`substream` so every \
                                 draw is attributable to a seeded stream"
                            ),
                        ));
                    }
                }
            }
        }
    }
    if in_drop {
        for c in chains {
            for call in &c.calls {
                if RS01_DRAWS.contains(&call.name.as_str()) {
                    if let Some(t) = code.get(call.idx) {
                        out.push(tok_finding(
                            RuleId::Rs01,
                            t,
                            format!(
                                "RNG draw `.{}()` inside a `Drop` impl; drop order is not part \
                                 of the determinism contract — draw before teardown",
                                call.name
                            ),
                        ));
                    }
                }
            }
        }
    }
}
