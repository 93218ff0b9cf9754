//! Full-stack fuzzing: randomly structured (but valid) traces replayed
//! through both deployment models, checking conservation invariants the
//! engine must uphold regardless of workload shape.

use std::sync::Arc;

use proptest::prelude::*;

use slackvm::prelude::*;
use slackvm::workload::WorkloadEvent;

/// A compact random trace description: per VM, an arrival slot, a
/// lifetime, a size, a level, and optionally a resize.
#[derive(Debug, Clone)]
struct FuzzVm {
    arrival: u64,
    lifetime: u64,
    vcpus: u32,
    mem_gib: u64,
    level: u32,
    resize: Option<(u32, u64)>,
}

fn fuzz_vm() -> impl Strategy<Value = FuzzVm> {
    (
        0u64..86_400,
        600u64..86_400,
        1u32..8,
        1u64..16,
        1u32..=3,
        prop::option::of((1u32..8, 1u64..16)),
    )
        .prop_map(
            |(arrival, lifetime, vcpus, mem_gib, level, resize)| FuzzVm {
                arrival,
                lifetime,
                vcpus,
                mem_gib,
                level,
                resize,
            },
        )
}

fn build_trace(vms: &[FuzzVm]) -> Workload {
    let mut events: Vec<(u64, WorkloadEvent)> = Vec::new();
    for (i, vm) in vms.iter().enumerate() {
        let id = VmId(i as u64);
        let spec = VmSpec::of(vm.vcpus, gib(vm.mem_gib), OversubLevel::of(vm.level));
        let instance = VmInstance {
            id,
            spec,
            class: UsageClass::Stress,
            usage: CpuUsageModel::Constant { base: 0.5 },
            seed: i as u64,
            arrival_secs: vm.arrival,
            departure_secs: vm.arrival + vm.lifetime,
        };
        events.push((vm.arrival, WorkloadEvent::Arrival(Box::new(instance))));
        events.push((vm.arrival + vm.lifetime, WorkloadEvent::Departure { id }));
        if let Some((vcpus, mem_gib)) = vm.resize {
            events.push((
                vm.arrival + vm.lifetime / 2,
                WorkloadEvent::Resize {
                    id,
                    vcpus,
                    mem_mib: gib(mem_gib),
                },
            ));
        }
    }
    events.sort_by_key(|(t, e)| {
        let class = match e {
            WorkloadEvent::Departure { .. } => 0u8,
            WorkloadEvent::Resize { .. } => 1,
            WorkloadEvent::Arrival(_) => 2,
        };
        (*t, class)
    });
    Workload { events }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_traces_replay_cleanly_through_both_models(
        vms in prop::collection::vec(fuzz_vm(), 1..60),
    ) {
        let w = build_trace(&vms);
        prop_assert!(w.validate().is_ok(), "fuzz builder must emit valid traces");

        // Dedicated model.
        let mut dedicated = DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::simulation_host(),
            [OversubLevel::of(1), OversubLevel::of(2), OversubLevel::of(3)],
        ));
        let base = run_packing(&w, &mut dedicated);
        prop_assert_eq!(base.rejections, 0, "unbounded clusters never reject");
        prop_assert_eq!(base.deployments as usize, vms.len());
        let (alloc, _) = dedicated.totals();
        prop_assert!(alloc.is_empty(), "dedicated drains clean");

        // Shared model.
        let mut shared = DeploymentModel::Shared(SharedDeployment::new(
            Arc::new(flat(32)),
            gib(128),
        ));
        let slack = run_packing(&w, &mut shared);
        prop_assert_eq!(slack.rejections, 0);
        prop_assert_eq!(slack.peak_alive_vms, base.peak_alive_vms);
        if let DeploymentModel::Shared(s) = &shared {
            for host in s.cluster.hosts() {
                prop_assert!(host.check_invariants().is_ok());
                prop_assert!(host.is_idle());
            }
            // Churn bookkeeping balances on a drained pool.
            let churn = s.total_churn();
            prop_assert_eq!(churn.cores_added, churn.cores_released);
        }
        // Peak stranding shares are proper fractions for both.
        for out in [&base, &slack] {
            prop_assert!((0.0..=1.0).contains(&out.at_peak.unallocated_cpu));
            prop_assert!((0.0..=1.0).contains(&out.at_peak.unallocated_mem));
        }
    }

    #[test]
    fn compacting_replays_of_random_traces_conserve_vms(
        vms in prop::collection::vec(fuzz_vm(), 1..40),
    ) {
        let w = build_trace(&vms);
        let mut pool = DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128)));
        let out = run_packing_with(
            &w,
            &mut pool,
            RunOptions {
                compact_every: Some(6 * 3600),
                ..RunOptions::default()
            },
            &mut NullRecorder,
        )
        .outcome;
        let DeploymentModel::Shared(pool) = pool else {
            unreachable!("built shared above")
        };
        prop_assert_eq!(out.rejections, 0);
        for host in pool.cluster.hosts() {
            prop_assert!(host.check_invariants().is_ok());
            prop_assert!(host.is_idle());
        }
    }
}
