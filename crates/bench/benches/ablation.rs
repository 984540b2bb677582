//! Ablation A: native selection policies vs the uniform-random control.
//!
//! Benches the end-to-end native/uniform pair per application and — at
//! setup time — asserts the causal claim behind the whole reproduction:
//! the measured biases appear under the native policy and vanish under
//! uniform selection on the *same* testbed.

#![allow(clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netaware_bench::tiny_options;
use netaware_proto::AppProfile;
use netaware_testbed::run_experiment;
use std::hint::black_box;

fn assert_causality() {
    // One SopCast-scale check is enough at bench time (the integration
    // tests cover all apps).
    let native = run_experiment(AppProfile::sopcast(), &tiny_options());
    let uniform = run_experiment(AppProfile::sopcast().uniform_selection(), &tiny_options());
    let nb = native
        .analysis
        .preference("BW")
        .unwrap()
        .download_all
        .bytes_pct;
    let ub = uniform
        .analysis
        .preference("BW")
        .unwrap()
        .download_all
        .bytes_pct;
    assert!(
        nb > ub + 10.0,
        "uniform selection must collapse the BW bias: native {nb:.1}% vs uniform {ub:.1}%"
    );
}

fn native_vs_uniform(c: &mut Criterion) {
    assert_causality();
    let mut g = c.benchmark_group("ablation/run");
    g.sample_size(10);
    for profile in AppProfile::paper_apps() {
        g.bench_with_input(
            BenchmarkId::new("native", &profile.name),
            &profile,
            |b, p| b.iter(|| black_box(run_experiment(p.clone(), &tiny_options()))),
        );
        let uni = profile.clone().uniform_selection();
        g.bench_with_input(BenchmarkId::new("uniform", &profile.name), &uni, |b, p| {
            b.iter(|| black_box(run_experiment(p.clone(), &tiny_options())))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = native_vs_uniform
}
criterion_main!(benches);
