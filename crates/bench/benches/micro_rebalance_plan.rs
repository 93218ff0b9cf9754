//! Planning cost of the background consolidation pass.
//!
//! The online executor computes a rebalance plan inside the shard
//! worker's tick, between admission batches — so plan latency is the
//! number that decides how aggressive `--rebalance-every-ms` can be.
//! This bench replays a mid-week prefix of the paper's week-F trace
//! (the moment of peak departure fragmentation) into both deployment
//! models and measures the full plan pipeline (`plan_rebalance`: shadow
//! clone, victim ordering, candidate-indexed drain) and the validator
//! alone (`validate_plan`: the "checked, not trusted" replay the
//! executor pays again before moving anything). The record of these
//! costs is the `plan_rebalance` workload of `benchmark/README.md`
//! (`rebalance.plan_us` / `.validate_us` under `--trace 1`); quote fleet
//! size next to any figure — plan cost scales with live PMs, not with
//! trace length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slackvm::prelude::*;
use slackvm_rebalance::{plan_rebalance, validate_plan, Budget};
use slackvm_workload::{scenarios, WorkloadEvent};

/// Replays the first 60% of a seeded week-F trace — mid-week, after
/// the departure tail has punched holes in the packing — and returns
/// the fragmented fleet.
fn fragmented(dedicated: bool, population: u32) -> DeploymentModel {
    let mut model = if dedicated {
        DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::of(32, gib(128)),
            [
                OversubLevel::of(1),
                OversubLevel::of(2),
                OversubLevel::of(3),
            ],
        ))
    } else {
        DeploymentModel::Shared(SharedDeployment::with_policy(
            std::sync::Arc::new(flat(32)),
            gib(128),
            PlacementPolicy::FirstFit,
        ))
    };
    let trace = scenarios::paper_week_f(population).generate(42);
    let cutoff = trace.events.len() * 3 / 5;
    for (_at, event) in trace.events.iter().take(cutoff) {
        match event {
            WorkloadEvent::Arrival(vm) => {
                let _ = model.deploy(vm.id, vm.spec);
            }
            WorkloadEvent::Departure { id } => {
                if model.location_of(*id).is_some() {
                    model.remove(*id).expect("located VM removes");
                }
            }
            WorkloadEvent::Resize { .. } => {}
        }
    }
    model.check_invariants().expect("replayed state is legal");
    model
}

fn bench(c: &mut Criterion) {
    let budget = Budget::default();
    let mut group = c.benchmark_group("rebalance");

    for population in [200u32, 1000] {
        for (flavor, dedicated) in [("shared", false), ("dedicated", true)] {
            let model = fragmented(dedicated, population);
            let label = format!("{flavor}/{population}/pms{}", model.active_pms());
            group.bench_with_input(
                BenchmarkId::new("plan", &label),
                &model,
                |b, model| {
                    b.iter(|| {
                        std::hint::black_box(
                            plan_rebalance(model, &budget).expect("planner runs"),
                        )
                    })
                },
            );
            let plan = plan_rebalance(&model, &budget).expect("planner runs");
            group.bench_with_input(
                BenchmarkId::new("validate", &label),
                &(model, plan),
                |b, (model, plan)| {
                    b.iter(|| std::hint::black_box(validate_plan(model, plan).is_ok()))
                },
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
