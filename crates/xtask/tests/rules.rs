//! Fixture-driven integration tests: one violating + one clean file per
//! rule, linted under a path that puts the rule in scope, plus the
//! allow-directive escape hatch.

use netaware_xtask::{lint_source, Diagnostic};

fn fixture(name: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lints a fixture as if it lived at `rel` inside the workspace.
fn lint_as(rel: &str, name: &str) -> Vec<Diagnostic> {
    lint_source(rel, &fixture(name))
}

fn assert_all_rule(diags: &[Diagnostic], rule: &str) {
    assert!(!diags.is_empty(), "expected {rule} findings, got none");
    for d in diags {
        assert_eq!(d.rule, rule, "unexpected finding: {}", d.render());
    }
}

fn assert_clean(diags: &[Diagnostic]) {
    assert!(
        diags.is_empty(),
        "expected clean, got:\n{}",
        diags
            .iter()
            .map(Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---- ND01: wall-clock / ambient entropy --------------------------------

#[test]
fn nd01_fixture_flags_wall_clock_and_env() {
    let diags = lint_as("crates/sim/src/fixture.rs", "nd01_violation.rs");
    assert_all_rule(&diags, "ND01");
    assert!(diags.len() >= 2, "Instant and env::var should both fire");
}

#[test]
fn nd01_fixture_clean_passes() {
    assert_clean(&lint_as("crates/sim/src/fixture.rs", "nd01_clean.rs"));
}

#[test]
fn nd01_out_of_scope_in_analysis() {
    // The wall-clock rule only guards simulation-facing crates.
    let diags = lint_as("crates/analysis/src/fixture.rs", "nd01_violation.rs");
    assert!(diags.iter().all(|d| d.rule != "ND01"), "ND01 fired out of scope");
}

// ---- ND02: hash-ordered collections ------------------------------------

#[test]
fn nd02_fixture_flags_hashmap() {
    let diags = lint_as("crates/proto/src/fixture.rs", "nd02_violation.rs");
    assert_all_rule(&diags, "ND02");
}

#[test]
fn nd02_fixture_clean_passes() {
    assert_clean(&lint_as("crates/proto/src/fixture.rs", "nd02_clean.rs"));
}

// ---- ND03: unordered parallel float reduction --------------------------

#[test]
fn nd03_fixture_flags_par_sum() {
    let diags = lint_as("crates/analysis/src/fixture.rs", "nd03_violation.rs");
    assert_all_rule(&diags, "ND03");
}

#[test]
fn nd03_fixture_clean_passes() {
    // Parallel map + ordered sequential reduce is the sanctioned shape.
    assert_clean(&lint_as("crates/analysis/src/fixture.rs", "nd03_clean.rs"));
}

// ---- ND04: full-trace materialisation ----------------------------------

#[test]
fn nd04_fixture_flags_materialisation() {
    let diags = lint_as("crates/analysis/src/fixture.rs", "nd04_violation.rs");
    assert_all_rule(&diags, "ND04");
    assert_eq!(diags.len(), 3, "into_records + two records…collect");
}

#[test]
fn nd04_fixture_clean_passes() {
    // Borrowed iteration and run_pass(t.records(), …) are the idiom.
    assert_clean(&lint_as("crates/analysis/src/fixture.rs", "nd04_clean.rs"));
}

#[test]
fn nd04_out_of_scope_in_trace() {
    // The trace crate owns the buffers; it may materialise freely.
    let diags = lint_as("crates/trace/src/fixture.rs", "nd04_violation.rs");
    assert!(diags.iter().all(|d| d.rule != "ND04"), "ND04 fired out of scope");
}

#[test]
fn nd04_allow_directive_suppresses() {
    let src = "/// Rebuffers deliberately.\n\
               pub fn snapshot(trace: &ProbeTrace) -> Vec<PacketRecord> {\n\
               \x20   // netaware-lint: allow(ND04) snapshot API contract returns owned Vec\n\
               \x20   trace.records().iter().copied().collect()\n\
               }\n";
    assert_clean(&netaware_xtask::lint_source(
        "crates/analysis/src/fixture.rs",
        src,
    ));
}

// ---- ND05: hash-ordered iteration into sinks ----------------------------

#[test]
fn nd05_fixture_flags_hash_iteration_into_sinks() {
    let diags = lint_as("crates/obs/src/fixture.rs", "nd05_violation.rs");
    assert_all_rule(&diags, "ND05");
    assert_eq!(diags.len(), 3, "extend sink + collect + keys…collect");
}

#[test]
fn nd05_fixture_clean_passes() {
    // BTree iteration at the sink boundary and hash point-lookups are
    // both fine.
    assert_clean(&lint_as("crates/obs/src/fixture.rs", "nd05_clean.rs"));
}

#[test]
fn nd05_allow_directive_suppresses() {
    let src = "/// Emits counters; order irrelevant to the consumer.\n\
               pub fn emit(counts: &std::collections::HashMap<u64, u64>, out: &mut Vec<u64>) {\n\
               \x20   // netaware-lint: allow(ND05) consumer sorts before comparing\n\
               \x20   out.extend(counts.values().copied());\n\
               }\n";
    let diags = netaware_xtask::lint_source("crates/obs/src/fixture.rs", src);
    assert_clean(&diags);
}

// ---- CC01: bare thread/lock primitives ----------------------------------

#[test]
fn cc01_fixture_flags_locks_and_spawns() {
    let diags = lint_as("crates/sim/src/fixture.rs", "cc01_violation.rs");
    assert_all_rule(&diags, "CC01");
    assert_eq!(diags.len(), 3, "two Mutex mentions + one thread::spawn");
}

#[test]
fn cc01_fixture_clean_passes() {
    assert_clean(&lint_as("crates/sim/src/fixture.rs", "cc01_clean.rs"));
}

// ---- CC02: relaxed atomic orderings -------------------------------------

#[test]
fn cc02_fixture_flags_relaxed_and_acqrel() {
    let diags = lint_as("crates/sim/src/fixture.rs", "cc02_violation.rs");
    assert_all_rule(&diags, "CC02");
    assert_eq!(diags.len(), 2, "Relaxed + AcqRel");
}

#[test]
fn cc02_fixture_clean_passes() {
    assert_clean(&lint_as("crates/sim/src/fixture.rs", "cc02_clean.rs"));
}

#[test]
fn cc02_audited_metrics_module_is_exempt() {
    let diags = lint_as("crates/obs/src/metrics.rs", "cc02_violation.rs");
    assert!(
        diags.iter().all(|d| d.rule != "CC02"),
        "CC02 fired in the audited module: {diags:?}"
    );
}

// ---- RS01: RNG stream discipline ----------------------------------------

#[test]
fn rs01_fixture_flags_raw_ctor_and_drop_draw() {
    let diags = lint_as("crates/net/src/fixture.rs", "rs01_violation.rs");
    assert_all_rule(&diags, "RS01");
    assert_eq!(diags.len(), 2, "DetRng::new + draw inside Drop");
}

#[test]
fn rs01_fixture_clean_passes() {
    assert_clean(&lint_as("crates/net/src/fixture.rs", "rs01_clean.rs"));
}

#[test]
fn rs01_stream_registry_is_exempt() {
    let diags = lint_as("crates/sim/src/rng.rs", "rs01_violation.rs");
    assert!(
        diags.iter().all(|d| d.rule != "RS01"),
        "RS01 fired in the registry: {diags:?}"
    );
}

// ---- Severities ---------------------------------------------------------

#[test]
fn new_rules_land_at_warn_severity() {
    use netaware_xtask::Severity;
    let diags = lint_as("crates/sim/src/fixture.rs", "cc01_violation.rs");
    assert!(
        diags.iter().all(|d| d.severity == Severity::Warn),
        "{diags:?}"
    );
    let diags = lint_as("crates/net/src/fixture.rs", "pa01_violation.rs");
    assert!(
        diags.iter().all(|d| d.severity == Severity::Deny),
        "{diags:?}"
    );
}

// ---- PA01: panicking escape hatches ------------------------------------

#[test]
fn pa01_fixture_flags_unwrap_and_expect() {
    let diags = lint_as("crates/net/src/fixture.rs", "pa01_violation.rs");
    assert_all_rule(&diags, "PA01");
    assert_eq!(diags.len(), 2, "one unwrap + one expect");
}

#[test]
fn pa01_fixture_clean_passes() {
    assert_clean(&lint_as("crates/net/src/fixture.rs", "pa01_clean.rs"));
}

// ---- DOC01: missing public docs ----------------------------------------

#[test]
fn doc01_fixture_flags_undocumented_items() {
    let diags = lint_as("crates/trace/src/fixture.rs", "doc01_violation.rs");
    assert_all_rule(&diags, "DOC01");
    assert_eq!(diags.len(), 3, "fn + struct + field");
}

#[test]
fn doc01_fixture_clean_passes() {
    assert_clean(&lint_as("crates/trace/src/fixture.rs", "doc01_clean.rs"));
}

// ---- OB01: console printing in library code ----------------------------

#[test]
fn ob01_fixture_flags_console_macros() {
    let diags = lint_as("crates/obs/src/fixture.rs", "ob01_violation.rs");
    assert_all_rule(&diags, "OB01");
    assert_eq!(diags.len(), 3, "println + eprintln + dbg");
}

#[test]
fn ob01_fixture_clean_passes() {
    // event! emission and writeln! into a caller buffer are the idiom.
    assert_clean(&lint_as("crates/obs/src/fixture.rs", "ob01_clean.rs"));
}

#[test]
fn ob01_out_of_scope_in_xtask() {
    // The linter's own CLI reporting prints legitimately.
    let diags = lint_as("crates/xtask/src/fixture.rs", "ob01_violation.rs");
    assert!(diags.iter().all(|d| d.rule != "OB01"), "OB01 fired in xtask");
}

#[test]
fn ob01_allow_directive_suppresses() {
    let src = "/// Prints a banner.\n\
               pub fn banner() {\n\
               \x20   // netaware-lint: allow(OB01) one-shot startup banner requested by the host\n\
               \x20   println!(\"netaware\");\n\
               }\n";
    assert_clean(&netaware_xtask::lint_source(
        "crates/analysis/src/fixture.rs",
        src,
    ));
}

// ---- BH01: behaviour-layer discipline -----------------------------------

#[test]
fn bh01_fixture_flags_scheduler_and_event_patterns() {
    let diags = lint_as("crates/proto/src/swarm/announce.rs", "bh01_violation.rs");
    assert_all_rule(&diags, "BH01");
    assert_eq!(
        diags.len(),
        6,
        "one Scheduler + four match-arm patterns + one if-let"
    );
}

#[test]
fn bh01_fixture_clean_passes() {
    // Constructing events for Ctx::schedule is the sanctioned idiom.
    assert_clean(&lint_as(
        "crates/proto/src/swarm/announce.rs",
        "bh01_clean.rs",
    ));
}

#[test]
fn bh01_dispatcher_module_is_exempt() {
    // The dispatcher owns the scheduler and the event match by design.
    let diags = lint_as("crates/proto/src/swarm/dispatch.rs", "bh01_violation.rs");
    assert!(
        diags.iter().all(|d| d.rule != "BH01"),
        "BH01 fired in the dispatcher: {diags:?}"
    );
}

#[test]
fn bh01_out_of_scope_outside_proto() {
    // The sim crate owns the Scheduler type itself.
    let diags = lint_as("crates/sim/src/fixture.rs", "bh01_violation.rs");
    assert!(
        diags.iter().all(|d| d.rule != "BH01"),
        "BH01 fired outside proto"
    );
}

#[test]
fn bh01_allow_directive_suppresses() {
    let src = "/// Debug helper.\n\
               pub fn tick_index(ev: &Event) -> Option<u32> {\n\
               \x20   // netaware-lint: allow(BH01) read-only introspection for a trace dump\n\
               \x20   if let Event::Tick(i) = ev {\n\
               \x20       return Some(*i);\n\
               \x20   }\n\
               \x20   None\n\
               }\n";
    assert_clean(&netaware_xtask::lint_source(
        "crates/proto/src/swarm/announce.rs",
        src,
    ));
}

// ---- OB02: process-clock reads outside the Clock module -----------------

#[test]
fn ob02_fixture_flags_clock_reads() {
    let diags = lint_as("crates/analysis/src/fixture.rs", "ob02_violation.rs");
    assert_all_rule(&diags, "OB02");
    assert!(diags.len() >= 3, "Instant + SystemTime + UNIX_EPOCH should fire");
    assert!(
        diags.iter().all(|d| d.severity.label() == "warn"),
        "OB02 lands warn-first"
    );
}

#[test]
fn ob02_fixture_clean_passes() {
    assert_clean(&lint_as("crates/analysis/src/fixture.rs", "ob02_clean.rs"));
}

#[test]
fn ob02_out_of_scope_in_clock_module_and_sim() {
    // clock.rs is the sanctioned wall-clock boundary.
    let diags = lint_as("crates/obs/src/clock.rs", "ob02_violation.rs");
    assert!(diags.iter().all(|d| d.rule != "OB02"), "OB02 fired in clock.rs");
    // Simulation crates are ND01's stricter territory — no double report.
    let diags = lint_as("crates/sim/src/fixture.rs", "ob02_violation.rs");
    assert!(diags.iter().all(|d| d.rule != "OB02"), "OB02 fired in ND01 scope");
    assert!(diags.iter().any(|d| d.rule == "ND01"), "ND01 should cover sim");
}

#[test]
fn ob02_allow_directive_suppresses() {
    let src = "/// Reads the host clock for a log banner.\n\
               pub fn banner_nanos() -> u128 {\n\
               \x20   // netaware-lint: allow(OB02) one-shot banner stamp, not measurement\n\
               \x20   std::time::SystemTime::now().elapsed().map(|d| d.as_nanos()).unwrap_or(0)\n\
               }\n";
    assert_clean(&netaware_xtask::lint_source(
        "crates/trace/src/fixture.rs",
        src,
    ));
}

// ---- Escape hatch -------------------------------------------------------

#[test]
fn allow_directives_suppress_every_rule() {
    assert_clean(&lint_as("crates/sim/src/fixture.rs", "allow_escape.rs"));
}

#[test]
fn fixtures_in_tests_dirs_are_never_linted() {
    // Real location of the fixtures: under tests/, which is out of scope,
    // so the violating corpus cannot dirty the workspace lint.
    let diags = lint_as(
        "crates/xtask/tests/fixtures/pa01_violation.rs",
        "pa01_violation.rs",
    );
    assert_clean(&diags);
}

// ---- Span accuracy across a fixture ------------------------------------

#[test]
fn pa01_fixture_spans_point_at_the_call() {
    let src = fixture("pa01_violation.rs");
    let diags = lint_source("crates/net/src/fixture.rs", &src);
    for d in &diags {
        let line = src.lines().nth(d.line - 1).unwrap_or("");
        let at = &line[d.col - 1..];
        assert!(
            at.starts_with("unwrap") || at.starts_with("expect"),
            "span {}:{} lands on {at:?}",
            d.line,
            d.col
        );
    }
}
