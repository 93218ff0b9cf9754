//! Where per-VM usage samples come from.
//!
//! The pressure plane consumes one number per VM — the fraction of its
//! vCPU allocation it is actually demanding — and this module defines
//! the two deterministic sources of that number:
//!
//! - **Replay/sim**: a workload trace's [`VmInstance`]s already carry a
//!   [`CpuUsageModel`]; for VMs without one, [`replay_model`] derives a
//!   behaviour from the `slackvm-perf` contention model's §VII-A load
//!   mix ([`slackvm_perf::paper_usage_mix`]), seeded from the VM id —
//!   so hotspot detection sees the same load the latency model charges
//!   response time for.
//! - **Serve**: the wire protocol carries no usage field, so the online
//!   service synthesizes a per-VM profile from a seeded derivation of
//!   the VM id ([`synth_frac`]). A `hot_frac` fraction of VM ids are
//!   "hot" (benchmark-class, ~0.9 of allocation); the rest idle low.
//!   The `bombard` load generator computes the *same* derivation
//!   client-side ([`is_hot`]) to keep hot VMs alive and concentrate
//!   them into hotspots.
//!
//! Both sources are pure functions of their seeds, which is what lets
//! the offline planner and the online tick agree move for move.

use slackvm_hypervisor::Host;
use slackvm_model::VmId;
use slackvm_sim::DeploymentModel;
use slackvm_workload::CpuUsageModel;

use crate::estimator::UsageTracker;

/// SplitMix64 finalizer — the same mixer the workload jitter and the
/// serve trace-id mint use.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to the unit interval `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Whether the seeded serve-side derivation classifies `vm` as hot.
/// `bombard --hot-frac` uses this exact function so client and server
/// agree on which VM ids form the hot population.
pub fn is_hot(usage_seed: u64, vm: VmId, hot_frac: f64) -> bool {
    unit(splitmix64(usage_seed ^ splitmix64(vm.0))) < hot_frac.clamp(0.0, 1.0)
}

/// The synthesized serve-side usage fraction for `vm`, in `[0, 1]`.
///
/// Hot VMs demand 0.80–0.98 of their allocation (benchmark-class); the
/// rest 0.02–0.24 (idle/interactive valley). Constant per VM — the
/// online estimators converge after one sample, so an offline replay of
/// the same population computes identical demand, which the
/// differential suite relies on.
pub fn synth_frac(usage_seed: u64, vm: VmId, hot_frac: f64) -> f64 {
    let h = splitmix64(usage_seed ^ splitmix64(vm.0));
    let jitter = unit(splitmix64(h));
    if unit(h) < hot_frac.clamp(0.0, 1.0) {
        0.80 + 0.18 * jitter
    } else {
        0.02 + 0.22 * jitter
    }
}

/// Derives a usage behaviour for a VM the trace does not describe,
/// from the `slackvm-perf` §VII-A load mix (10% idle / 60% bursty
/// benchmark / 30% diurnal interactive), seeded by the VM id.
pub fn replay_model(seed: u64) -> CpuUsageModel {
    let h = splitmix64(seed);
    slackvm_perf::paper_usage_mix(unit(h), h).1
}

/// Feeds one usage sample per placed VM into the tracker and prunes
/// estimators for VMs no longer placed — one call per planning round,
/// with `sample` supplying the instantaneous usage fraction.
pub fn observe_model(
    tracker: &mut UsageTracker,
    model: &DeploymentModel,
    sample: impl Fn(VmId) -> f64,
) {
    let mut alive: Vec<VmId> = Vec::new();
    for_each_placed(model, &mut |vm| alive.push(vm));
    alive.sort_unstable();
    alive.dedup();
    for &vm in &alive {
        tracker.observe(vm, sample(vm));
    }
    tracker.retain(|vm| alive.binary_search(&vm).is_ok());
}

/// Visits every placed VM id across both deployment models.
pub fn for_each_placed(model: &DeploymentModel, visit: &mut impl FnMut(VmId)) {
    match model {
        DeploymentModel::Shared(s) => {
            for host in s.cluster.hosts() {
                for (vm, _) in host.placements() {
                    visit(vm);
                }
            }
        }
        DeploymentModel::Dedicated(d) => {
            for (_, cluster) in d.clusters() {
                for host in cluster.hosts() {
                    for (vm, _) in host.placements() {
                        visit(vm);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_frac_is_deterministic_and_bounded() {
        for id in 0..512u64 {
            let a = synth_frac(42, VmId(id), 0.2);
            let b = synth_frac(42, VmId(id), 0.2);
            assert_eq!(a.to_bits(), b.to_bits());
            assert!((0.0..=1.0).contains(&a), "vm {id}: {a}");
        }
    }

    #[test]
    fn hot_fraction_tracks_the_requested_share() {
        let hot = (0..10_000u64)
            .filter(|&id| is_hot(7, VmId(id), 0.2))
            .count();
        assert!(
            (1_600..=2_400).contains(&hot),
            "expected ~20% hot, got {hot}/10000"
        );
        assert_eq!((0..1000).filter(|&id| is_hot(7, VmId(id), 0.0)).count(), 0);
        assert_eq!(
            (0..1000).filter(|&id| is_hot(7, VmId(id), 1.0)).count(),
            1000
        );
    }

    #[test]
    fn hot_vms_demand_high_cold_vms_low() {
        for id in 0..2_000u64 {
            let frac = synth_frac(42, VmId(id), 0.3);
            if is_hot(42, VmId(id), 0.3) {
                assert!(frac >= 0.80, "hot vm {id} demands only {frac}");
            } else {
                assert!(frac <= 0.24, "cold vm {id} demands {frac}");
            }
        }
    }

    #[test]
    fn different_usage_seeds_pick_different_hot_sets() {
        let set = |seed: u64| -> Vec<u64> {
            (0..1_000u64)
                .filter(|&id| is_hot(seed, VmId(id), 0.2))
                .collect()
        };
        assert_ne!(set(1), set(2));
    }

    #[test]
    fn replay_model_is_deterministic_and_unit_bounded() {
        for seed in 0..64u64 {
            let a = replay_model(seed);
            assert_eq!(a, replay_model(seed));
            for t in (0..86_400u64).step_by(7_200) {
                let u = a.utilization(seed, t);
                assert!((0.0..=1.0).contains(&u));
            }
        }
    }
}
