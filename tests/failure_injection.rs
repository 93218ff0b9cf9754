//! Failure injection: host crashes mid-replay, evicted VMs re-place on
//! the surviving pool, accounting stays consistent.

use std::sync::Arc;

use slackvm::prelude::*;
use slackvm_suite::test_workload;

fn pool() -> SharedDeployment {
    SharedDeployment::new(Arc::new(flat(32)), gib(128))
}

/// [`run_packing_with`] on a shared pool with `failures` injected.
fn replay_with_failures(
    w: &Workload,
    deployment: &mut SharedDeployment,
    failures: &[(u64, PmId)],
) -> (PackingOutcome, FailureStats) {
    let mut model = DeploymentModel::Shared(std::mem::replace(deployment, pool()));
    let run = run_packing_with(
        w,
        &mut model,
        RunOptions {
            failures,
            ..RunOptions::default()
        },
        &mut NullRecorder,
    );
    let DeploymentModel::Shared(after) = model else {
        unreachable!("built shared above")
    };
    *deployment = after;
    (run.outcome, run.failures)
}

fn workload(seed: u64) -> Workload {
    test_workload(
        catalog::azure(),
        LevelMix::three_level(40.0, 30.0, 30.0).unwrap(),
        80,
        3,
        seed,
    )
}

#[test]
fn failures_evict_and_replace_on_an_unbounded_pool() {
    let w = workload(1);
    let mut deployment = pool();
    // Fail the first two workers on day 1 and day 2.
    let failures = vec![(86_400u64, PmId(0)), (2 * 86_400, PmId(1))];
    let (out, stats) = replay_with_failures(&w, &mut deployment, &failures);
    assert_eq!(stats.hosts_failed, 2);
    assert!(stats.vms_evicted > 0, "day-1 workers host VMs");
    // Unbounded pool: every evicted VM finds a new home.
    assert_eq!(stats.vms_lost, 0);
    assert_eq!(stats.vms_replaced, stats.vms_evicted);
    assert_eq!(out.rejections, 0);
    // Failed hosts take no further VMs.
    assert!(deployment.cluster.is_failed(PmId(0)));
    assert_eq!(deployment.cluster.failed_count(), 2);
    let failed_host = &deployment.cluster.hosts()[0];
    assert!(failed_host.is_idle(), "failed host must stay drained");
    // Everything placed eventually departed.
    for host in deployment.cluster.hosts() {
        host.check_invariants().unwrap();
        assert!(host.is_idle());
    }
}

#[test]
fn capped_pool_loses_vms_when_capacity_vanishes() {
    let w = workload(2);
    // First find how many hosts the unbounded run needs, then cap
    // exactly there and fail one: some evictions cannot re-place.
    let mut probe = pool();
    let baseline = slackvm::sim::run_packing(
        &w,
        &mut DeploymentModel::Shared(std::mem::replace(&mut probe, pool())),
    );
    let cap = baseline.opened_pms;
    let mut deployment = SharedDeployment::with_capped_cluster(Arc::new(flat(32)), gib(128), cap);
    // Fail a host mid-week at peak-ish occupancy.
    let failures = vec![(4 * 86_400u64, PmId(0))];
    let (_, stats) = replay_with_failures(&w, &mut deployment, &failures);
    assert_eq!(stats.hosts_failed, 1);
    assert_eq!(stats.vms_replaced + stats.vms_lost, stats.vms_evicted);
}

#[test]
fn failing_unknown_or_empty_hosts_is_harmless() {
    let w = workload(3);
    let mut deployment = pool();
    let failures = vec![
        (10u64, PmId(99)), // never opened
        (20u64, PmId(0)),  // likely empty this early
        (20u64, PmId(0)),  // repeated failure: idempotent
    ];
    let (out, stats) = replay_with_failures(&w, &mut deployment, &failures);
    assert_eq!(stats.hosts_failed, 3, "each injection is counted");
    assert_eq!(out.rejections, 0);
}

#[test]
fn repair_returns_a_host_to_service() {
    let mut deployment = pool();
    deployment
        .deploy(VmId(0), VmSpec::of(2, gib(4), OversubLevel::of(1)))
        .unwrap();
    let evicted = deployment.fail_host(PmId(0));
    assert_eq!(evicted.len(), 1);
    // While failed, deployments open a new host instead.
    let pm = deployment
        .deploy(VmId(1), VmSpec::of(2, gib(4), OversubLevel::of(1)))
        .unwrap();
    assert_eq!(pm, PmId(1));
    deployment.cluster.repair_host(PmId(0));
    assert!(!deployment.cluster.is_failed(PmId(0)));
    // Repaired host 0 is eligible again (composite scorer may pick
    // either; just assert placement succeeds and invariants hold).
    deployment
        .deploy(VmId(2), VmSpec::of(2, gib(4), OversubLevel::of(1)))
        .unwrap();
    for host in deployment.cluster.hosts() {
        host.check_invariants().unwrap();
    }
}

#[test]
fn migration_to_failed_host_is_refused() {
    let mut deployment = pool();
    deployment
        .deploy(VmId(0), VmSpec::of(2, gib(4), OversubLevel::of(1)))
        .unwrap();
    // Open a second host by force-failing the first after placing.
    deployment.fail_host(PmId(0));
    deployment
        .deploy(VmId(1), VmSpec::of(2, gib(4), OversubLevel::of(1)))
        .unwrap();
    let err = deployment.cluster.migrate(VmId(1), PmId(0)).unwrap_err();
    assert!(matches!(err, slackvm::sim::SimError::DeploymentFailed(_)));
    // VM 1 is still placed on its original host.
    assert_eq!(deployment.cluster.location_of(VmId(1)), Some(PmId(1)));
}
