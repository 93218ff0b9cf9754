//! Micro-benchmarks of the incremental placement index against the
//! naive full-fleet rescan it replaces: per-event candidate assembly,
//! dirty-slot refresh, and an end-to-end replay A/B at fleet scale.
//! The `selective` gather at 8192 PMs is the regime the index's single
//! slot scan gave up (DESIGN.md §9): a range structure over free memory
//! would visit a handful of hosts there. Rerun it before reintroducing
//! one, and pair it with a `BENCHMARK.json` workload of that scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slackvm::model::{gib, AllocView, Millicores, OversubLevel, PmConfig, PmId, VmSpec};
use slackvm::prelude::{
    run_packing, scenarios, DeploymentModel, SharedDeployment, WorkloadGenerator, WorkloadSpec,
};
use slackvm::sched::{AdmissionKey, Candidate, CandidateIndex, IndexMode};
use slackvm::topology::builders::flat;
use slackvm::workload::ArrivalModel;
use std::sync::Arc;

fn candidates(n: u32) -> Vec<Candidate> {
    (0..n)
        .map(|i| Candidate {
            id: PmId(i),
            config: PmConfig::simulation_host(),
            alloc: AllocView::new(Millicores::from_cores(i % 32), gib(((i * 7) % 128) as u64)),
            vms: (i % 9) as usize,
        })
        .collect()
}

fn key_of(c: &Candidate) -> AdmissionKey {
    AdmissionKey {
        free_mem_mib: c.config.mem_mib.saturating_sub(c.alloc.mem_mib),
        free_vcpus: None,
    }
}

fn populated_index(n: u32) -> CandidateIndex {
    let mut index = CandidateIndex::new();
    for c in candidates(n) {
        let key = key_of(&c);
        index.upsert(c, key);
    }
    index
}

fn bench(c: &mut Criterion) {
    // Two admission regimes: a small VM almost every PM can take and a
    // large VM only the near-empty tail of the fleet can take. The
    // index scans every slot in both; what differs is how many
    // candidates it copies out.
    let small = VmSpec::of(2, gib(12), OversubLevel::of(3));
    let large = VmSpec::of(16, gib(112), OversubLevel::of(3));

    // Per-event candidate assembly: naive rebuild (filter + collect the
    // whole fleet) vs the index's gate-filtered gather.
    let mut group = c.benchmark_group("index/gather");
    for (regime, vm) in [("dense", small), ("selective", large)] {
        for n in [128u32, 1024, 8192] {
            let fleet = candidates(n);
            let label = format!("{regime}/{n}");
            group.bench_with_input(
                BenchmarkId::new("naive_rebuild", &label),
                &fleet,
                |b, fleet| {
                    b.iter(|| {
                        let buf: Vec<Candidate> = fleet
                            .iter()
                            .filter(|c| c.config.mem_mib - c.alloc.mem_mib >= vm.mem_mib())
                            .cloned()
                            .collect();
                        std::hint::black_box(buf.len())
                    })
                },
            );
            let index = populated_index(n);
            group.bench_with_input(BenchmarkId::new("indexed", &label), &index, |b, index| {
                let mut buf = Vec::new();
                b.iter(|| {
                    buf.clear();
                    let stats = index.gather_into(&mut buf, vm.mem_mib(), vm.vcpus());
                    std::hint::black_box((buf.len(), stats.admitted))
                })
            });
        }
    }
    group.finish();

    // The dirty-tracking write path: one slot refresh per mutation.
    let mut group = c.benchmark_group("index/refresh");
    for n in [1024u32, 8192] {
        let index = populated_index(n);
        group.bench_with_input(BenchmarkId::new("upsert", n), &n, |b, &n| {
            let mut index = index.clone();
            let mut i = 0u32;
            b.iter(|| {
                let id = PmId(i % n);
                let c = Candidate {
                    id,
                    config: PmConfig::simulation_host(),
                    alloc: AllocView::new(Millicores::from_cores(i % 32), gib((i % 96) as u64)),
                    vms: (i % 9) as usize,
                };
                let key = key_of(&c);
                index.upsert(c, key);
                i = i.wrapping_add(1);
            })
        });
    }
    group.finish();

    // End-to-end: one day of week-F arrivals through the shared pool,
    // naive vs incremental. Decision-identity is guarded by tests; this
    // measures the wall-clock gap the index buys.
    let scenario = scenarios::paper_week_f(200);
    let workload = WorkloadGenerator::new(WorkloadSpec {
        catalog: scenario.catalog.clone(),
        mix: scenario.mix.clone(),
        arrivals: ArrivalModel::constant(200, 86_400, 86_400),
        seed: 42,
    })
    .generate();
    let mut group = c.benchmark_group("index/replay_day_f");
    group.sample_size(10);
    for mode in [IndexMode::Naive, IndexMode::Incremental] {
        group.bench_with_input(
            BenchmarkId::new("shared", mode.name()),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    let mut model = DeploymentModel::Shared(SharedDeployment::new(
                        Arc::new(flat(32)),
                        gib(128),
                    ))
                    .with_index_mode(mode);
                    std::hint::black_box(run_packing(&workload, &mut model))
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench
}
criterion_main!(benches);
