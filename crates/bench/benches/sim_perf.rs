//! Simulation-engine performance: end-to-end swarm throughput per
//! application profile, plus microbenches of the DES primitives whose
//! cost dominates the event loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netaware_bench::tiny_options;
use netaware_proto::AppProfile;
use netaware_sim::{AccessSerializer, DetRng, Scheduler, SimTime};
use netaware_testbed::run_experiment;
use std::hint::black_box;

fn swarm_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("swarm/run_30s_scale2pct");
    g.sample_size(10);
    for profile in AppProfile::paper_apps() {
        g.bench_with_input(
            BenchmarkId::from_parameter(&profile.name),
            &profile,
            |b, p| b.iter(|| black_box(run_experiment(p.clone(), &tiny_options()))),
        );
    }
    g.finish();
}

fn scheduler_microbench(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    let n = 100_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("push_pop_100k", |b| {
        b.iter(|| {
            let mut s: Scheduler<u64> = Scheduler::new();
            // Interleaved pushes at pseudo-random future times.
            let mut x = 0x12345u64;
            for i in 0..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                s.push(SimTime::from_us(s.now().as_us() + (x >> 33) % 10_000), i);
                if i % 4 == 0 {
                    black_box(s.pop());
                }
            }
            while s.pop().is_some() {}
            black_box(s.dispatched())
        })
    });
    g.finish();
}

fn serializer_microbench(c: &mut Criterion) {
    let mut g = c.benchmark_group("link");
    let n = 100_000u32;
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("enqueue_100k", |b| {
        b.iter(|| {
            let mut l = AccessSerializer::new(100_000_000);
            let mut t = SimTime::ZERO;
            for i in 0..n {
                t = l.enqueue(t, 1_250 - (i % 7));
            }
            black_box(t)
        })
    });
    g.finish();
}

fn rng_microbench(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("weighted_pick_16", |b| {
        let weights: Vec<f64> = (1..=16).map(|i| i as f64).collect();
        b.iter(|| {
            let mut r = DetRng::stream(7, "bench");
            let mut acc = 0usize;
            for _ in 0..100_000 {
                acc += r.pick_weighted(&weights).unwrap_or(0);
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = swarm_throughput, scheduler_microbench, serializer_microbench, rng_microbench
}
criterion_main!(benches);
