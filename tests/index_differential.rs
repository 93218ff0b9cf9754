//! Differential guard for the incremental placement index: replaying
//! the same trace with `IndexMode::Naive` and `IndexMode::Incremental`
//! must produce *identical decisions* — the same [`PackingOutcome`] and
//! the same per-event VM→PM placements — on every deployment model and
//! policy. Telemetry counters are explicitly out of scope (the index
//! legitimately does less scoring work).

use std::sync::Arc;

use slackvm::prelude::*;
use slackvm::workload::inject_resizes;
use slackvm_suite::paper_levels;

/// Replays `workload` through the model built by `make`, capturing the
/// packing outcome plus the full placement decision sequence
/// `(time, vm, pm)` from the event journal.
fn replay(
    workload: &Workload,
    mode: IndexMode,
    make: impl Fn() -> DeploymentModel,
) -> (PackingOutcome, Vec<(u64, VmId, PmId)>) {
    let mut model = make().with_index_mode(mode);
    let mut telemetry = Telemetry::new();
    let outcome =
        run_packing_with(workload, &mut model, RunOptions::default(), &mut telemetry).outcome;
    let picks = telemetry
        .journal
        .iter()
        .filter_map(|r| match r.event {
            Event::VmPlaced { vm, pm, .. } => Some((r.time_secs, vm, pm)),
            _ => None,
        })
        .collect();
    (outcome, picks)
}

/// Asserts decision-identity of the two index modes for one model
/// constructor over one workload.
fn assert_decision_identical(workload: &Workload, make: impl Fn() -> DeploymentModel) {
    let (out_naive, picks_naive) = replay(workload, IndexMode::Naive, &make);
    let (out_incr, picks_incr) = replay(workload, IndexMode::Incremental, &make);
    assert_eq!(out_naive, out_incr, "packing outcomes diverged");
    assert_eq!(
        picks_naive.len(),
        picks_incr.len(),
        "placement counts diverged"
    );
    for (a, b) in picks_naive.iter().zip(&picks_incr) {
        assert_eq!(a, b, "placement decision diverged");
    }
}

fn week_f(seed: u64, population: u32) -> Workload {
    scenarios::paper_week_f(population).generate(seed)
}

fn dedicated() -> DeploymentModel {
    DeploymentModel::Dedicated(DedicatedDeployment::new(
        PmConfig::simulation_host(),
        paper_levels(),
    ))
}

fn shared_default() -> DeploymentModel {
    DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128)))
}

fn shared_paper_pure() -> DeploymentModel {
    DeploymentModel::Shared(SharedDeployment::paper_pure(Arc::new(flat(32)), gib(128)))
}

fn shared_weighted() -> DeploymentModel {
    DeploymentModel::Shared(SharedDeployment::with_policy(
        Arc::new(flat(32)),
        gib(128),
        PlacementPolicy::weighted(vec![
            (1.0, Box::new(ProgressScorer::paper())),
            (0.5, Box::new(BestFitScorer)),
        ]),
    ))
}

/// Short trace, all models — fast enough for a CI smoke gate
/// (`cargo test --test index_differential smoke`).
#[test]
fn smoke_short_trace_is_decision_identical_on_every_model() {
    let scenario = scenarios::paper_week_f(30);
    let w = WorkloadGenerator::new(WorkloadSpec {
        catalog: scenario.catalog.clone(),
        mix: scenario.mix.clone(),
        arrivals: ArrivalModel::constant(30, 86_400, 86_400),
        seed: 11,
    })
    .generate();
    for make in [
        dedicated as fn() -> DeploymentModel,
        shared_default,
        shared_paper_pure,
        shared_weighted,
    ] {
        assert_decision_identical(&w, make);
    }
}

#[test]
fn dedicated_first_fit_week_is_decision_identical() {
    assert_decision_identical(&week_f(101, 120), dedicated);
}

#[test]
fn shared_default_composite_week_is_decision_identical() {
    assert_decision_identical(&week_f(102, 120), shared_default);
}

#[test]
fn shared_paper_pure_week_is_decision_identical() {
    assert_decision_identical(&week_f(103, 120), shared_paper_pure);
}

#[test]
fn shared_weighted_week_is_decision_identical() {
    assert_decision_identical(&week_f(104, 100), shared_weighted);
}

#[test]
fn resize_churn_week_is_decision_identical_on_both_models() {
    let base = week_f(105, 100);
    let w = inject_resizes(&base, &catalog::ovhcloud(), 0.6, 0xC0FFEE);
    assert_decision_identical(&w, dedicated);
    assert_decision_identical(&w, shared_default);
}

#[test]
fn compacting_replay_is_decision_identical() {
    // Compaction migrates VMs between hosts mid-replay — the index must
    // track both migration endpoints to stay coherent.
    let w = week_f(106, 80);
    let run = |mode: IndexMode| {
        let mut s = SharedDeployment::new(Arc::new(flat(32)), gib(128));
        s.cluster.set_index_mode(mode);
        let run = run_packing_with(
            &w,
            &mut DeploymentModel::Shared(s),
            RunOptions {
                compact_every: Some(6 * 3_600),
                ..RunOptions::default()
            },
            &mut NullRecorder,
        );
        (run.outcome, run.compaction)
    };
    let (out_naive, stats_naive) = run(IndexMode::Naive);
    let (out_incr, stats_incr) = run(IndexMode::Incremental);
    assert_eq!(out_naive, out_incr);
    assert_eq!(stats_naive, stats_incr);
}

#[test]
fn failure_injected_replay_is_decision_identical() {
    // Host failures retire slots; repairs and evicted-VM re-placement
    // must see the same candidates in both modes.
    let w = week_f(107, 80);
    let failures = vec![
        (86_400, PmId(0)),
        (2 * 86_400, PmId(1)),
        (4 * 86_400, PmId(0)),
    ];
    let run = |mode: IndexMode| {
        let mut s = SharedDeployment::new(Arc::new(flat(32)), gib(128));
        s.cluster.set_index_mode(mode);
        let run = run_packing_with(
            &w,
            &mut DeploymentModel::Shared(s),
            RunOptions {
                failures: &failures,
                ..RunOptions::default()
            },
            &mut NullRecorder,
        );
        (run.outcome, run.failures)
    };
    let (out_naive, stats_naive) = run(IndexMode::Naive);
    let (out_incr, stats_incr) = run(IndexMode::Incremental);
    assert_eq!(out_naive, out_incr);
    assert_eq!(stats_naive, stats_incr);
}

#[test]
fn incremental_index_does_less_scoring_work() {
    // The point of the index: `sched.candidates_scored` must drop on a
    // growing fleet (the gate pre-filters hopeless hosts), while the
    // decisions stay identical (guarded above).
    let w = week_f(108, 100);
    let scored = |mode: IndexMode| {
        let mut model = shared_default().with_index_mode(mode);
        let mut telemetry = Telemetry::new();
        run_packing_with(&w, &mut model, RunOptions::default(), &mut telemetry);
        telemetry.metrics.counter("sched.candidates_scored")
    };
    let naive = scored(IndexMode::Naive);
    let incremental = scored(IndexMode::Incremental);
    assert!(
        incremental <= naive,
        "index must never score more than the naive scan ({incremental} > {naive})"
    );
}
