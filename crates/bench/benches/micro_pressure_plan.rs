//! Planning cost of the background hotspot-mitigation pass.
//!
//! The online executor scores every opened PM and computes a
//! mitigation plan inside the shard worker's tick, between admission
//! batches — so the score+plan latency is the number that decides how
//! aggressive `--pressure-every-ms` can be. This bench replays a
//! mid-week prefix of the paper's week-F trace into both deployment
//! models, synthesizes the skewed usage signal through the estimator
//! pipeline exactly the way the serve tick does, and measures the
//! scorer alone (`score_pressure`: one fleet sweep with hysteresis
//! classification) and the full plan pipeline (`plan_mitigation`:
//! score, shadow clone, hottest-first drain through the candidate
//! index). The record of these costs is the `plan_pressure` workload
//! of `benchmark/README.md` (`pressure.score_us` / `.plan_us` under
//! `--trace 1`); quote fleet size next to any figure — both passes
//! scale with live PMs, not with trace length.

use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slackvm::prelude::*;
use slackvm_pressure::{
    observe_model, plan_mitigation, score_pressure, synth_frac, EstimatorConfig, PressureConfig,
    UsageTracker,
};
use slackvm_rebalance::Budget;
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
    let config = PressureConfig::default();
    let mut group = c.benchmark_group("pressure");

    for population in [200u32, 1000] {
        for (flavor, dedicated) in [("shared", false), ("dedicated", true)] {
            let model = fragmented(dedicated, population);
            // The same skew the serve tick synthesizes: half the fleet
            // pinned hot, demands folded through the estimator.
            let mut tracker = UsageTracker::new(EstimatorConfig::default());
            observe_model(&mut tracker, &model, |vm| synth_frac(42, vm, 0.5));
            let label = format!("{flavor}/{population}/pms{}", model.active_pms());
            group.bench_with_input(
                BenchmarkId::new("score", &label),
                &(&model, &tracker),
                |b, (model, tracker)| {
                    b.iter(|| {
                        std::hint::black_box(score_pressure(
                            model,
                            &config,
                            &|vm| tracker.demand(vm),
                            &BTreeMap::new(),
                        ))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new("plan", &label),
                &(&model, &tracker),
                |b, (model, tracker)| {
                    b.iter(|| {
                        std::hint::black_box(
                            plan_mitigation(model, &config, &budget, &|vm| tracker.demand(vm))
                                .expect("planner runs"),
                        )
                    })
                },
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
