//! Counting-allocator accuracy, pinned against known allocation
//! patterns, the allocation budgets of two hot loops (the swarm loop
//! over every golden cell and a flash crowd), the bound on what
//! a lying trace header can make the reader allocate, and the streaming
//! analysis's memory bound. The counters are process-wide, so every
//! check runs in sequence inside one test: tests of one binary run on
//! parallel threads, and each would count the others' allocations.

use netaware::net::{GeoRegistryBuilder, Ip};
use netaware::obs::alloc::{reset_peak, snapshot, CountingAlloc};
use netaware::proto::{NetworkEnv, StreamParams, Swarm, SwarmConfig};
use netaware::sim::{Scheduler, SimTime};
use netaware::testbed::{BuiltScenario, ScenarioConfig};
use netaware::trace::{
    read_trace, write_trace, MemorySink, PacketRecord, PayloadKind, ProbeTrace, TraceError,
    TraceSet,
};
use netaware::{analyze_corpus, AnalysisConfig, AppProfile, ChurnPlan, FaultPlan, SessionModel};
use std::collections::BTreeSet;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn counters_track_a_known_allocation_pattern_exactly() {
    known_pattern_is_counted_exactly();
    scheduler_steady_state_allocates_nothing();
    swarm_loop_allocates_less_than_once_per_event();
    lying_trace_header_allocates_little();
    corpus_analysis_heap_is_bounded_by_remotes_not_records();
}

fn known_pattern_is_counted_exactly() {
    assert!(netaware::obs::alloc::is_counting());
    let before = snapshot();

    // One Vec of 1000 u64 is exactly one allocation of 8000 bytes.
    let v: Vec<u64> = Vec::with_capacity(1000);
    let held = snapshot();
    assert_eq!(held.allocs - before.allocs, 1, "one allocation expected");
    assert_eq!(held.bytes - before.bytes, 8000, "8000 bytes expected");
    assert_eq!(held.live_bytes - before.live_bytes, 8000);
    assert!(held.peak_bytes >= before.live_bytes + 8000);

    // A second, differently-sized block accumulates on top.
    let w: Vec<u8> = Vec::with_capacity(512);
    let held2 = snapshot();
    assert_eq!(held2.allocs - before.allocs, 2);
    assert_eq!(held2.bytes - before.bytes, 8512);
    assert_eq!(held2.live_bytes - before.live_bytes, 8512);

    // Frees return live bytes to the starting level; the cumulative
    // counters are monotone and keep both allocations.
    drop(v);
    drop(w);
    let after = snapshot();
    assert_eq!(after.live_bytes, before.live_bytes, "frees balance");
    assert_eq!(after.allocs - before.allocs, 2);
    assert_eq!(after.bytes - before.bytes, 8512);
    assert!(after.peak_bytes >= held2.live_bytes);
}

fn scheduler_steady_state_allocates_nothing() {
    // The calendar-queue scheduler recycles popped slots through its
    // free slab, so once the bucket wheel and slab are warm, push/pop
    // traffic must be allocation-free — an exact zero delta, not a
    // bound. The swarm event loop runs exactly this traffic.
    // Bucket width 16 µs × 512 ring slots = an 8 192 µs window; the
    // phase below is an exact replay of the warm-up phase (same seeded
    // delay stream, started at a wheel-aligned timestamp), so every
    // ring slot sees precisely the load it was grown for.
    const WIDTH: u64 = 16;
    const WINDOW: u64 = WIDTH * 512;
    let mut s: Scheduler<u64> = Scheduler::with_granularity(WIDTH);
    let phase = |s: &mut Scheduler<u64>| {
        let mut x = 0x9e3779b97f4a7c15u64;
        for i in 0..20_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push(SimTime::from_us(s.now().as_us() + (x >> 40) % 5_000), i);
            if i % 2 == 0 {
                s.pop();
            }
        }
        while s.pop().is_some() {}
        // Re-align the clock to a wheel boundary so the next phase maps
        // onto the same ring slots.
        let aligned = s.now().as_us().div_ceil(WINDOW) * WINDOW;
        s.push(SimTime::from_us(aligned), u64::MAX);
        s.pop();
    };
    // Warm-up: grow the wheel and slab to the phase's exact footprint.
    phase(&mut s);

    let before = snapshot();
    phase(&mut s);
    let after = snapshot();
    assert_eq!(
        after.allocs - before.allocs,
        0,
        "steady-state scheduler traffic allocated ({} allocs, {} bytes)",
        after.allocs - before.allocs,
        after.bytes - before.bytes
    );
    assert_eq!(after.bytes - before.bytes, 0);
}

fn swarm_loop_allocates_less_than_once_per_event() {
    // The swarm's event loop keeps its per-event lists in reused
    // scratch buffers, so a whole run — dispatch, capture growth and
    // the finalize sort — stays under one allocation per dispatched
    // event. Per-event Vecs in a behaviour hook would cost several.
    // The cells are the golden ones (seed 777, scale 0.02, 20 s; every
    // profile, clean and under loss, jitter and churn) plus PPLive under
    // a flash crowd, so churn recovery and epidemic push are covered.
    let flashcrowd = FaultPlan {
        churn: Some(ChurnPlan::preset()),
        session: Some(SessionModel::flashcrowd_preset()),
        ..FaultPlan::none()
    };
    let plans = [
        ("clean", FaultPlan::none()),
        ("faulted", FaultPlan::from_flags(Some(0.05), Some(2_000), true)),
    ];
    let mut cells = vec![(AppProfile::pplive(), "flash crowd", flashcrowd)];
    for profile in [
        AppProfile::pplive(),
        AppProfile::sopcast(),
        AppProfile::tvants(),
        AppProfile::epidemic_rp(),
        AppProfile::epidemic_ba(),
    ] {
        for (kind, plan) in &plans {
            cells.push((profile.clone(), kind, plan.clone()));
        }
    }
    for (profile, kind, faults) in cells {
        let cell = format!("{} {kind}", profile.name);
        let scenario = BuiltScenario::build(
            &ScenarioConfig {
                seed: 777,
                scale: 0.02,
                ..ScenarioConfig::default()
            },
            profile.overlay_size,
        );
        let env = NetworkEnv {
            registry: &scenario.registry,
            paths: scenario.paths,
            latency: scenario.latency,
        };
        let cfg = SwarmConfig {
            seed: 777,
            duration_us: 20_000_000,
            stream: StreamParams::cctv1(),
            profile,
        };
        let mut swarm = Swarm::new(cfg, env, scenario.peer_setup());
        swarm.set_faults(&faults);

        let before = snapshot();
        let (set, report) = swarm
            .run_into(MemorySink::new())
            .expect("in-memory sink cannot fail");
        let allocs = snapshot().allocs - before.allocs;
        assert!(set.total_packets() > 0, "{cell}: degenerate run");
        let events = report.events_dispatched;
        assert!(events > 10_000, "{cell}: only {events} events dispatched");
        assert!(
            allocs <= events,
            "{cell}: {allocs} allocations over {events} events ({:.2} per event)",
            allocs as f64 / events as f64
        );
    }
}

fn lying_trace_header_allocates_little() {
    // A 3-record trace whose header claims u64::MAX records: the reader
    // must fail with `Truncated` after the 3 it finds, having reserved
    // room for a few records rather than for what the header promised.
    let probe = netaware::net::Ip::from_octets(130, 192, 1, 9);
    let mut t = ProbeTrace::new(probe);
    for i in 0..3u64 {
        t.push(PacketRecord {
            ts_us: i * 100,
            src: probe,
            dst: netaware::net::Ip::from_octets(58, 0, 0, 1),
            sport: 1,
            dport: 2,
            size: 1250,
            ttl: 128,
            kind: PayloadKind::Video,
        });
    }
    let mut bytes = Vec::new();
    write_trace(&t, &mut bytes).expect("in-memory write");
    // Header: magic (4 B), version (2 B), probe (4 B), then the count.
    bytes[10..18].copy_from_slice(&u64::MAX.to_le_bytes());

    let before = snapshot();
    let result = read_trace(&mut bytes.as_slice());
    let allocated = snapshot().bytes - before.bytes;
    assert!(
        matches!(
            result,
            Err(TraceError::Truncated {
                expected: u64::MAX,
                got: 3
            })
        ),
        "unexpected result {result:?}"
    );
    assert!(
        allocated < 4 << 20,
        "a lying header made the reader allocate {allocated} bytes"
    );
}

fn corpus_analysis_heap_is_bounded_by_remotes_not_records() {
    // `analyze_corpus` streams each probe's records through per-probe
    // accumulators, so its peak heap grows with the remotes a probe
    // talks to, never with the records. One probe with 8 remotes and
    // 200 000 records (4.8 MB once decoded) makes buffering even one
    // probe's records stand out against a few kilobytes of flow state.
    const RECORDS: u64 = 200_000;
    let probe = Ip::from_octets(130, 192, 1, 9);
    let mut t = ProbeTrace::new(probe);
    for i in 0..RECORDS {
        let remote = Ip::from_octets(58, 0, 0, (i % 8) as u8 + 1);
        let (src, dst) = if i % 4 == 0 {
            (probe, remote)
        } else {
            (remote, probe)
        };
        t.push(PacketRecord {
            ts_us: i * 50,
            src,
            dst,
            sport: 1,
            dport: 2,
            size: 1250,
            ttl: 110,
            kind: PayloadKind::Video,
        });
    }
    let mut set = TraceSet::new("HeapBound", RECORDS * 50);
    set.add(t);
    set.finalize();
    let dir = std::env::temp_dir().join(format!("netaware_heap_bound_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    set.write_dir(&dir).expect("spill the corpus");
    drop(set);
    let registry = GeoRegistryBuilder::new().build();
    let cfg = AnalysisConfig::default();
    let highbw = BTreeSet::new();

    let base = snapshot().live_bytes;
    reset_peak();
    let analysis = analyze_corpus(&dir, &registry, &cfg, &highbw);
    let grew = snapshot().peak_bytes.saturating_sub(base);
    let _ = std::fs::remove_dir_all(&dir);
    let analysis = analysis.expect("the corpus analyses");
    assert_eq!(analysis.total_packets as u64, RECORDS);
    let decoded = std::mem::size_of::<PacketRecord>() as u64 * RECORDS;
    assert!(
        grew < decoded / 8,
        "analyze_corpus grew the heap by {grew} bytes for {decoded} bytes of decoded records"
    );
}
