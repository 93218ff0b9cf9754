//! Recording-off overhead on the replay hot path.
//!
//! The telemetry layer promises that a [`NullRecorder`] is free: every
//! hook is an `#[inline]` default no-op, so `run_packing_with` handed
//! the null recorder must land within measurement noise of the bare
//! `run_packing`. This harness pins that promise, and also quantifies
//! what the *enabled* paths cost — the full [`Telemetry`] stack and an
//! hourly [`ClusterSampler`] — so regressions in either budget show up
//! in the criterion history. Record the observed deltas in
//! EXPERIMENTS.md when they move.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use slackvm::prelude::*;

fn workload(population: u32) -> Workload {
    WorkloadGenerator::new(WorkloadSpec {
        catalog: catalog::azure(),
        mix: DistributionPoint::by_letter('F').expect("F exists").mix(),
        arrivals: ArrivalModel::constant(population, 2 * 86_400, 7 * 86_400),
        seed: 0x5AC4,
    })
    .generate()
}

fn shared_model() -> DeploymentModel {
    DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128)))
}

fn bench(c: &mut Criterion) {
    let wl = workload(300);
    let mut group = c.benchmark_group("sim/recorder_overhead");

    group.bench_function("bare", |b| {
        b.iter(|| {
            let mut model = shared_model();
            std::hint::black_box(run_packing(&wl, &mut model))
        })
    });

    group.bench_function("null_recorder", |b| {
        b.iter(|| {
            let mut model = shared_model();
            let mut recorder = NullRecorder;
            std::hint::black_box(run_packing_with(
                &wl,
                &mut model,
                RunOptions::default(),
                &mut recorder,
            ))
        })
    });

    group.bench_function("telemetry", |b| {
        b.iter(|| {
            let mut model = shared_model();
            let mut telemetry = Telemetry::new();
            std::hint::black_box(run_packing_with(
                &wl,
                &mut model,
                RunOptions::default(),
                &mut telemetry,
            ))
        })
    });

    group.bench_function("telemetry_sampled_hourly", |b| {
        b.iter(|| {
            let mut model = shared_model();
            let mut telemetry = Telemetry::new();
            let mut sampler = ClusterSampler::new(3600);
            std::hint::black_box(run_packing_with(
                &wl,
                &mut model,
                RunOptions {
                    sampler: Some(&mut sampler),
                    ..RunOptions::default()
                },
                &mut telemetry,
            ))
        })
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench
}
criterion_main!(benches);
