//! Analysis-pipeline performance and threshold-sensitivity benches
//! (Ablation B of DESIGN.md).
//!
//! * flow aggregation throughput, sequential vs rayon-parallel — the
//!   hot loop of the whole framework (one pass over every packet);
//! * the preference computation across hop/IPG threshold sweeps, which
//!   doubles as the sensitivity ablation: the assertions verify that the
//!   BW conclusion is stable in a wide band around the paper's 1 ms
//!   threshold;
//! * the streaming pipeline: single-pass `analyze` vs the legacy
//!   multi-pass shape, and disk-streaming `analyze_corpus` vs
//!   materialise-then-analyze, with peak heap reported via a counting
//!   allocator.

#![allow(clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netaware_analysis::flows::{aggregate, aggregate_probe};
use netaware_analysis::partition::Metric;
use netaware_analysis::preference::{preference, Dir};
use netaware_analysis::{analyze, analyze_corpus, AnalysisConfig};
use netaware_bench::fixture;
use netaware_obs::alloc::{reset_peak, snapshot, CountingAlloc};
use netaware_trace::TraceSet;
use std::hint::black_box;
use std::path::Path;

/// Heap meter for the streaming comparison, so the bench can report
/// peak memory, not just time.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how far the heap high-water mark rose above the
/// live baseline during the call, in bytes.
fn peak_heap_of(f: impl FnOnce()) -> u64 {
    let base = snapshot().live_bytes;
    reset_peak();
    f();
    snapshot().peak_bytes.saturating_sub(base)
}

fn flow_aggregation(c: &mut Criterion) {
    let f = fixture();
    let cfg = AnalysisConfig::default();
    let total_packets: usize = f.traces.total_packets();

    let mut g = c.benchmark_group("flows/aggregate");
    g.throughput(Throughput::Elements(total_packets as u64));
    g.bench_function("sequential", |b| {
        b.iter(|| {
            let out: Vec<_> = f
                .traces
                .traces
                .iter()
                .map(|t| aggregate_probe(t, &cfg))
                .collect();
            black_box(out)
        })
    });
    g.bench_function("parallel", |b| b.iter(|| black_box(aggregate(&f.traces, &cfg))));
    g.finish();
}

fn preference_computation(c: &mut Criterion) {
    let f = fixture();
    let cfg = AnalysisConfig::default();
    let mut g = c.benchmark_group("preference");
    for metric in Metric::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(metric.name()),
            &metric,
            |b, &m| {
                b.iter(|| {
                    black_box(preference(
                        &f.flows,
                        &f.registry,
                        &cfg,
                        19,
                        m,
                        Dir::Download,
                        None,
                    ))
                })
            },
        );
    }
    g.finish();
}

/// Sensitivity sweep: how the BW byte preference responds to the IPG
/// threshold. The conclusion ("traffic comes overwhelmingly from
/// high-bandwidth peers") must hold from 0.3 ms to 3 ms.
fn ipg_threshold_sweep(c: &mut Criterion) {
    let f = fixture();
    let mut g = c.benchmark_group("sensitivity/ipg_threshold");
    for thr_us in [300u64, 1_000, 3_000] {
        let cfg = AnalysisConfig {
            ipg_high_bw_us: thr_us,
            ..Default::default()
        };
        let v = preference(&f.flows, &f.registry, &cfg, 19, Metric::Bw, Dir::Download, None);
        assert!(
            v.bytes_pct > 75.0,
            "BW conclusion unstable at {thr_us} µs: {:.1}%",
            v.bytes_pct
        );
        g.bench_with_input(BenchmarkId::from_parameter(thr_us), &cfg, |b, cfg| {
            b.iter(|| {
                black_box(preference(
                    &f.flows,
                    &f.registry,
                    cfg,
                    19,
                    Metric::Bw,
                    Dir::Download,
                    None,
                ))
            })
        });
    }
    g.finish();
}

/// Hop-threshold sweep around the paper's fixed 19.
fn hop_threshold_sweep(c: &mut Criterion) {
    let f = fixture();
    let cfg = AnalysisConfig::default();
    let mut g = c.benchmark_group("sensitivity/hop_threshold");
    for thr in [15u8, 19, 23] {
        g.bench_with_input(BenchmarkId::from_parameter(thr), &thr, |b, &t| {
            b.iter(|| {
                black_box(preference(
                    &f.flows,
                    &f.registry,
                    &cfg,
                    t,
                    Metric::Hop,
                    Dir::Download,
                    None,
                ))
            })
        });
    }
    g.finish();
}

/// The streaming-pipeline comparison. In memory, the single sweep of
/// `analyze` is measured against the legacy multi-pass shape (flow
/// aggregation and the rate summary each re-walking every record). On
/// disk, streaming `analyze_corpus` is measured against materialising a
/// `TraceSet` first; the peak-heap report is the memory half of that
/// story.
fn streaming(c: &mut Criterion) {
    let f = fixture();
    let cfg = AnalysisConfig::default();
    let dir = std::env::temp_dir().join(format!("netaware_bench_corpus_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    f.traces.write_dir(&dir).expect("write corpus");
    let total = f.traces.total_packets();

    let mut g = c.benchmark_group("streaming");
    g.throughput(Throughput::Elements(total as u64));
    g.bench_function("multi_pass_legacy", |b| {
        b.iter(|| {
            let flows = aggregate(&f.traces, &cfg);
            let summary = netaware_analysis::summary::summarize(&f.traces, &flows, &cfg);
            black_box((flows, summary))
        })
    });
    g.bench_function("single_pass_analyze", |b| {
        b.iter(|| black_box(analyze(&f.traces, &f.registry, &cfg, &f.highbw)))
    });
    g.bench_function("disk_read_then_analyze", |b| {
        b.iter(|| {
            let set = TraceSet::read_dir(&dir).expect("read corpus");
            black_box(analyze(&set, &f.registry, &cfg, &f.highbw))
        })
    });
    g.bench_function("disk_streaming_analyze", |b| {
        b.iter(|| black_box(analyze_corpus(&dir, &f.registry, &cfg, &f.highbw).expect("corpus")))
    });
    g.finish();

    report_peak_memory(&dir, total);
    let _ = std::fs::remove_dir_all(&dir);
}

#[allow(clippy::print_stderr)]
fn report_peak_memory(dir: &Path, total: usize) {
    let f = fixture();
    let cfg = AnalysisConfig::default();
    let mat = peak_heap_of(|| {
        let set = TraceSet::read_dir(dir).expect("read corpus");
        black_box(analyze(&set, &f.registry, &cfg, &f.highbw));
    });
    let streamed = peak_heap_of(|| {
        black_box(analyze_corpus(dir, &f.registry, &cfg, &f.highbw).expect("corpus"));
    });
    const MIB: f64 = 1024.0 * 1024.0;
    eprintln!(
        "[streaming] peak heap over baseline analysing {total} packets from disk: \
         read_dir+analyze {:.1} MiB, analyze_corpus {:.1} MiB ({:.1}x)",
        mat as f64 / MIB,
        streamed as f64 / MIB,
        mat as f64 / (streamed as f64).max(1.0),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = flow_aggregation, preference_computation, ipg_threshold_sweep, hop_threshold_sweep,
        streaming
}
criterion_main!(benches);
