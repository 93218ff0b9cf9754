//! End-to-end telemetry capture: a recorded replay of a seeded
//! week-long scenario produces a journal that round-trips through
//! serde, a parseable Chrome trace, and metrics that agree with the
//! run's [`PackingOutcome`].

use std::sync::Arc;

use slackvm::prelude::*;
use slackvm::workload::scenarios;

fn week_scenario() -> Workload {
    scenarios::all(150)
        .into_iter()
        .find(|s| s.name == "paper-week-f")
        .expect("canned scenario")
        .generate(0x5AC4)
}

fn shared_pool() -> DeploymentModel {
    DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128)))
}

#[test]
fn recorded_week_replay_round_trips_and_matches_outcome() {
    let workload = week_scenario();

    let mut plain_model = shared_pool();
    let plain = run_packing(&workload, &mut plain_model);

    let mut model = shared_pool();
    let mut telemetry = Telemetry::new();
    let out =
        run_packing_with(&workload, &mut model, RunOptions::default(), &mut telemetry).outcome;

    // Recording must not perturb the simulation.
    assert_eq!(out.deployments, plain.deployments);
    assert_eq!(out.rejections, plain.rejections);
    assert_eq!(out.opened_pms, plain.opened_pms);
    assert_eq!(out.peak_alive_vms, plain.peak_alive_vms);

    // The journal round-trips through its JSONL serde representation.
    assert!(!telemetry.journal.is_empty());
    let jsonl = telemetry.journal.to_jsonl();
    let reparsed = Journal::from_jsonl(&jsonl).expect("journal parses back");
    assert_eq!(reparsed, telemetry.journal);

    // Metrics counters mirror the outcome exactly.
    assert_eq!(
        telemetry.metrics.counter("sim.deployments"),
        out.deployments as u64
    );
    assert_eq!(
        telemetry.metrics.counter("sim.rejections"),
        out.rejections as u64
    );
    assert_eq!(
        telemetry.metrics.gauge("sim.opened_pms"),
        Some(out.opened_pms as f64)
    );
    assert_eq!(
        telemetry.journal.count_kind("vm_placed") as u32,
        out.deployments - out.rejections
    );
    assert_eq!(
        telemetry.journal.count_kind("pm_opened") as u32,
        out.opened_pms
    );

    // The Chrome trace is valid JSON with non-empty traceEvents, and
    // every event is a complete ("ph":"X") slice with a name.
    let chrome: serde_json::Value =
        serde_json::from_str(&telemetry.trace.to_chrome_json()).expect("trace parses");
    let events = chrome["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    for event in events {
        assert_eq!(event["ph"], "X");
        assert!(event["name"].as_str().is_some_and(|n| !n.is_empty()));
    }
}

#[test]
fn journal_timestamps_are_monotone_and_typed() {
    let workload = week_scenario();
    let mut model = shared_pool();
    let mut telemetry = Telemetry::new();
    run_packing_with(&workload, &mut model, RunOptions::default(), &mut telemetry);

    let mut last = 0;
    for record in telemetry.journal.iter() {
        assert!(record.time_secs >= last, "journal out of order");
        last = record.time_secs;
    }
    // Every arrival resolves to exactly one placement or rejection.
    assert_eq!(
        telemetry.journal.count_kind("vm_arrival"),
        telemetry.journal.count_kind("vm_placed") + telemetry.journal.count_kind("vm_rejected")
    );
}
