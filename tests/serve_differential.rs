//! Differential proof that the online service is the offline engine.
//!
//! A single-shard `PlacementService` in deterministic mode, driven by
//! `serve_replay`, must make exactly the decisions of the offline
//! `run_packing` loop — the same VMs placed on the same PMs, the same
//! VMs rejected, in the same order. Both sides are built from the same
//! `ModelSpec`, so any divergence is a service bug, not a config skew.

use slackvm::prelude::*;
use slackvm::sim::{EventQueue, SimEvent};
use slackvm::telemetry::{Event, Telemetry};
use slackvm::workload::scenarios;
use slackvm_serve::{serve_replay, ModelSpec, Op, Outcome, PlacementService, ServeConfig};

/// The offline decision sequence: `(vm, Some(pm))` per placement,
/// `(vm, None)` per rejection, in journal order.
fn offline_decisions(
    workload: &slackvm::workload::Workload,
    spec: &ModelSpec,
) -> (Vec<(VmId, Option<PmId>)>, slackvm::sim::PackingOutcome) {
    let mut model = spec.build(1).expect("offline model");
    let mut telemetry = Telemetry::new();
    let outcome =
        run_packing_with(workload, &mut model, RunOptions::default(), &mut telemetry).outcome;
    let decisions = telemetry
        .journal
        .iter()
        .filter_map(|record| match record.event {
            Event::VmPlaced { vm, pm, .. } => Some((vm, Some(pm))),
            Event::VmRejected { vm, .. } => Some((vm, None)),
            _ => None,
        })
        .collect();
    (decisions, outcome)
}

fn online_decisions(
    workload: &slackvm::workload::Workload,
    spec: &ModelSpec,
) -> (Vec<(VmId, Option<PmId>)>, slackvm_serve::ServiceReport) {
    let service = PlacementService::start(ServeConfig {
        shards: 1,
        deterministic: true,
        model: spec.clone(),
        ..ServeConfig::default()
    })
    .expect("service start");
    let summary = serve_replay(workload, &service).expect("serve replay");
    let decisions = summary.decisions.iter().map(|d| (d.vm, d.pm)).collect();
    (decisions, service.stop())
}

#[test]
fn deterministic_serve_reproduces_offline_packing_event_for_event() {
    let workload = scenarios::paper_week_f(120).generate(42);
    let spec = ModelSpec::default_shared();
    let (offline, outcome) = offline_decisions(&workload, &spec);
    let (online, report) = online_decisions(&workload, &spec);

    assert_eq!(online.len(), outcome.deployments as usize);
    assert_eq!(online, offline, "decision sequences diverged");
    assert_eq!(
        report.admitted() + report.rejected(),
        outcome.deployments as u64
    );
    assert_eq!(report.rejected(), outcome.rejections as u64);
    assert_eq!(report.opened_pms(), outcome.opened_pms);
    report.check_invariants().expect("final state invariants");
}

#[test]
fn capped_fleet_rejections_match_offline_too() {
    // A deliberately small fleet forces rejections, so the equality
    // also covers the rejected path and the post-rejection state.
    let workload = scenarios::devtest_churn(150).generate(7);
    let spec = ModelSpec::Shared {
        topology: "cores=16".into(),
        mem_mib: gib(64),
        policy: "best-fit".into(),
        fleet_cap: Some(6),
    };
    let (offline, outcome) = offline_decisions(&workload, &spec);
    assert!(outcome.rejections > 0, "scenario must exercise rejections");
    let (online, report) = online_decisions(&workload, &spec);
    assert_eq!(online, offline, "decision sequences diverged");
    assert_eq!(report.rejected(), outcome.rejections as u64);
    assert_eq!(report.opened_pms(), outcome.opened_pms);
    report.check_invariants().expect("final state invariants");
}

/// Drives arrivals and synthesized departures through a single-shard
/// deterministic service, injecting `FailPm` control ops at the same
/// `(time, pm)` points the offline engine would, with the offline
/// engine's exact event discipline (failures due at or before an
/// event's time fire first). Returns the arrival decision sequence,
/// the summed `(hosts_failed, evicted, replaced, lost)` from the
/// `PmFailed` acks, and the final service report.
#[allow(clippy::type_complexity)]
fn online_decisions_with_failures(
    workload: &slackvm::workload::Workload,
    spec: &ModelSpec,
    failures: &[(u64, PmId)],
) -> (
    Vec<(VmId, Option<PmId>)>,
    (u32, u32, u32, u32),
    slackvm_serve::ServiceReport,
) {
    let service = PlacementService::start(ServeConfig {
        shards: 1,
        deterministic: true,
        model: spec.clone(),
        ..ServeConfig::default()
    })
    .expect("service start");

    let mut queue = EventQueue::new();
    for (t, event) in &workload.events {
        if let slackvm::workload::WorkloadEvent::Arrival(vm) = event {
            queue.push(*t, SimEvent::Arrival(vm.clone()));
        }
    }
    let mut failure_queue = failures.to_vec();
    failure_queue.sort_by_key(|(t, pm)| (*t, *pm));
    let mut failure_idx = 0usize;

    let mut decisions = Vec::new();
    let (mut hosts_failed, mut evicted, mut replaced, mut lost) = (0u32, 0u32, 0u32, 0u32);
    while let Some((t, event)) = queue.pop() {
        while failure_idx < failure_queue.len() && failure_queue[failure_idx].0 <= t {
            let (_, pm) = failure_queue[failure_idx];
            failure_idx += 1;
            let reply = service.call(Op::FailPm { shard: 0, pm }).expect("fail-pm");
            let Outcome::PmFailed {
                evicted: e,
                replaced: r,
                lost: l,
            } = reply.outcome
            else {
                panic!("fail-pm answered {:?}", reply.outcome);
            };
            hosts_failed += 1;
            evicted += e;
            replaced += r;
            lost += l;
        }
        match event {
            SimEvent::Arrival(vm) => {
                let reply = service
                    .call(Op::Place {
                        id: vm.id,
                        spec: vm.spec,
                    })
                    .expect("place");
                match reply.outcome {
                    Outcome::Placed(pm) => {
                        decisions.push((vm.id, Some(pm)));
                        queue.push(vm.departure_secs.max(t + 1), SimEvent::Departure(vm.id));
                    }
                    Outcome::Rejected => decisions.push((vm.id, None)),
                    other => panic!("placement answered {other:?}"),
                }
            }
            SimEvent::Departure(id) => {
                let reply = service.call(Op::Remove { id }).expect("remove");
                // A departure finds its VM unless evacuation lost it.
                assert!(
                    matches!(reply.outcome, Outcome::Removed(_) | Outcome::UnknownVm),
                    "departure answered {:?}",
                    reply.outcome
                );
            }
            SimEvent::Resize { .. } => {
                unreachable!("the offline failure engine replays arrivals only")
            }
        }
    }
    (decisions, (hosts_failed, evicted, replaced, lost), service.stop())
}

#[test]
fn online_failpm_evacuation_matches_offline_failure_injection() {
    // A capped fleet sized from an unbounded probe run, so failing
    // hosts mid-trace makes some evictions genuinely unplaceable —
    // the equality must cover the lost path, not just re-placements.
    let workload = scenarios::devtest_churn(150).generate(7);
    let spec_probe = ModelSpec::Shared {
        topology: "cores=16".into(),
        mem_mib: gib(64),
        policy: "best-fit".into(),
        fleet_cap: None,
    };
    let mut probe = spec_probe.build(1).expect("probe model");
    let cap = slackvm::sim::run_packing(&workload, &mut probe).opened_pms;
    let spec = ModelSpec::Shared {
        topology: "cores=16".into(),
        mem_mib: gib(64),
        policy: "best-fit".into(),
        fleet_cap: Some(cap),
    };
    // Fail two-thirds of the fleet mid-trace: the survivors cannot
    // absorb the evictions (the cap forbids opening replacements), so
    // some VMs are genuinely lost, plus one early single-host failure
    // whose evictions all re-place.
    let mut failures = vec![(86_400u64, PmId(0))];
    failures.extend((0..cap * 2 / 3).map(|i| (3 * 86_400, PmId(i))));

    // Offline oracle: the real failure-injection engine, recorded so
    // the per-arrival decisions and per-VM evacuation outcomes are
    // both visible.
    let mut model = spec.build(1).expect("offline model");
    let mut telemetry = Telemetry::new();
    let run = run_packing_with(
        &workload,
        &mut model,
        RunOptions {
            failures: &failures,
            ..RunOptions::default()
        },
        &mut telemetry,
    );
    let (outcome, stats) = (run.outcome, run.failures);
    let DeploymentModel::Shared(pool) = model else {
        panic!("shared spec builds a shared model");
    };
    let offline: Vec<(VmId, Option<PmId>)> = telemetry
        .journal
        .iter()
        .filter_map(|record| match record.event {
            Event::VmPlaced { vm, pm, .. } => Some((vm, Some(pm))),
            Event::VmRejected { vm, .. } => Some((vm, None)),
            _ => None,
        })
        .collect();
    let mut offline_lost: Vec<VmId> = telemetry
        .journal
        .iter()
        .filter_map(|record| match record.event {
            Event::VmLost { vm } => Some(vm),
            _ => None,
        })
        .collect();
    offline_lost.sort();

    let (online, (hosts_failed, evicted, replaced, lost), report) =
        online_decisions_with_failures(&workload, &spec, &failures);

    assert_eq!(online, offline, "decision sequences diverged");
    assert_eq!(hosts_failed, stats.hosts_failed);
    assert_eq!(evicted, stats.vms_evicted);
    assert_eq!(replaced, stats.vms_replaced);
    assert_eq!(lost, stats.vms_lost);
    assert!(lost > 0, "the capped fleet must actually lose VMs");
    assert_eq!(report.rejected(), outcome.rejections as u64 + lost as u64,
        "online rejections = offline arrival rejections + evacuation losses (each loss is a rejected re-placement)");

    let mut online_lost = report.lost_vms.clone();
    online_lost.sort();
    assert_eq!(online_lost, offline_lost, "lost VM identities diverged");

    // The final states are bit-identical modulo ordering: evictions,
    // re-placements, departures of survivors, and the failed set.
    assert_eq!(
        report.shards[0].model.capture_state().normalized(),
        DeploymentModel::Shared(pool).capture_state().normalized(),
        "final cluster states diverged"
    );
    report.check_invariants().expect("final state invariants");
}

#[test]
fn every_policy_round_trips_through_the_service() {
    // Cheap smoke across the whole policy registry: online equals
    // offline for each policy on a small trace.
    let workload = scenarios::paper_week_f(40).generate(3);
    for policy in slackvm::sched::POLICY_NAMES {
        let spec = ModelSpec::Shared {
            topology: "cores=32".into(),
            mem_mib: gib(128),
            policy: (*policy).into(),
            fleet_cap: None,
        };
        let (offline, _) = offline_decisions(&workload, &spec);
        let (online, report) = online_decisions(&workload, &spec);
        assert_eq!(online, offline, "policy {policy} diverged");
        report.check_invariants().expect("invariants");
    }
}
