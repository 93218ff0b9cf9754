//! The greedy consolidation planner.
//!
//! Strategy (Stillwell-style periodic re-optimization, bounded by a
//! migration budget): walk the fleet's PMs from least to most
//! utilized and try to *fully* drain each one into the rest of the
//! fleet. Destinations are chosen by the same filter+score pipeline
//! admission uses — gather feasible candidates through the
//! [`CandidateIndex`], let the deployment's [`PlacementPolicy`] pick —
//! so consolidation reinforces the packing objective instead of
//! fighting it. A victim that cannot be fully drained (or whose drain
//! would bust the budget) is left untouched: partial drains move
//! memory without freeing a PM, the worst of both worlds.
//!
//! All planning happens on *shadow hosts* — a [`ShadowHosts`] view that
//! borrows the live machines and clones one only when a tentative move
//! first mutates it — so every tentative move runs the authoritative
//! `Host::can_host`/`deploy` admission path (capacity,
//! oversubscription ratios, pooled-vNode rules) without touching the
//! live cluster.

use std::collections::BTreeSet;

use slackvm_hypervisor::Host;
use slackvm_model::{PmId, VmSpec};
use slackvm_sched::{Candidate, CandidateIndex, PlacementPolicy};
use slackvm_sim::{index_entry, Cluster, DeploymentModel};

use crate::plan::{Budget, PlannedMove, RebalancePlan};
use crate::shadow::ShadowHosts;
use crate::RebalanceError;

/// Plans a consolidation pass over the whole deployment.
pub fn plan_rebalance(
    model: &DeploymentModel,
    budget: &Budget,
) -> Result<RebalancePlan, RebalanceError> {
    plan_rebalance_avoiding(model, budget, &BTreeSet::new())
}

/// Plans a consolidation pass that never touches the PMs in `avoid`
/// (neither as source nor destination) — the online executor passes
/// its draining set here; failed PMs are always excluded.
///
/// For the dedicated baseline, `avoid` applies to every per-level
/// sub-cluster (PM ids are per-level namespaces).
pub fn plan_rebalance_avoiding(
    model: &DeploymentModel,
    budget: &Budget,
    avoid: &BTreeSet<PmId>,
) -> Result<RebalancePlan, RebalanceError> {
    budget.validate().map_err(RebalanceError::Budget)?;
    let mut moves = Vec::new();
    let mut used_moves = 0u32;
    let mut used_mem = 0u64;
    let pms_freed = match model {
        DeploymentModel::Shared(s) => {
            plan_cluster(
                &s.cluster,
                &s.policy,
                avoid,
                budget,
                &mut used_moves,
                &mut used_mem,
                &mut moves,
            )
            .freed
        }
        DeploymentModel::Dedicated(d) => {
            // The baseline always packs First-Fit; consolidation must
            // not introduce a smarter policy than admission has.
            let first_fit = PlacementPolicy::FirstFit;
            d.clusters()
                .map(|(_, cluster)| {
                    plan_cluster(
                        cluster,
                        &first_fit,
                        avoid,
                        budget,
                        &mut used_moves,
                        &mut used_mem,
                        &mut moves,
                    )
                    .freed
                })
                .sum()
        }
    };
    Ok(RebalancePlan {
        model: model.name(),
        moves,
        pms_freed,
        moved_mem_mib: used_mem,
        budget: *budget,
    })
}

/// What draining one (sub)cluster did. Only `freed` reaches the plan;
/// the other counts are what the differential tests pin.
#[derive(Debug, Default)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct DrainStats {
    /// PMs drained to empty.
    pub freed: u32,
    /// Victims skipped, untouched, for holding a VM of a dead shape.
    pub victims_skipped: u32,
    /// Moves staged on the shadows, kept or not.
    pub trial_moves: u32,
    /// Staged moves taken back because their victim did not drain.
    pub undone_moves: u32,
}

/// Drains what the budget allows from one (sub)cluster; appends the
/// staged moves to `moves`.
pub(crate) fn plan_cluster<H: Host + Clone>(
    cluster: &Cluster<H>,
    policy: &PlacementPolicy,
    avoid: &BTreeSet<PmId>,
    budget: &Budget,
    used_moves: &mut u32,
    used_mem: &mut u64,
    moves: &mut Vec<PlannedMove>,
) -> DrainStats {
    let mut shadow = ShadowHosts::of(cluster, avoid);

    // Cheapest-to-free first: ascending mean utilization, then fewer
    // VMs, then *higher* PM id — freeing trailing ids preserves the
    // First-Fit consolidation bias at the front of the fleet.
    let mut victims: Vec<usize> = (0..shadow.len())
        .filter(|&i| !shadow.is_blocked(i) && shadow.get(i).num_vms() > 0)
        .collect();
    victims.sort_by(|&a, &b| {
        let (a, b) = (shadow.get(a), shadow.get(b));
        utilization(a)
            .total_cmp(&utilization(b))
            .then(a.num_vms().cmp(&b.num_vms()))
            .then(b.id().cmp(&a.id()))
    });

    // Destinations are *active* PMs only: moving a VM onto an empty
    // machine frees the victim but occupies the destination — a net
    // zero that re-plans forever (drain A into empty B, then B into
    // empty A). Empty PMs are the consolidation win, never a target.
    let mut index = CandidateIndex::new();
    for i in 0..shadow.len() {
        let host = shadow.get(i);
        debug_assert_eq!(host.id().0 as usize, i, "hosts are dense by PmId");
        if !shadow.is_blocked(i) && host.num_vms() > 0 {
            let (candidate, key) = index_entry(host);
            index.upsert(candidate, key);
        }
    }

    // Shapes no PM will admit for the rest of this plan. Committed
    // capacity is monotone: a destination only fills, a drained victim
    // stays retired, and a failed drain puts every VM back — so once no
    // indexed PM can host a shape, none ever will, and a victim holding
    // a VM of that shape cannot drain. It is skipped before it is
    // retired or touched; trying it would stage moves and undo them all.
    let mut dead: Vec<VmSpec> = Vec::new();
    let mut received: BTreeSet<PmId> = BTreeSet::new();
    let mut buf: Vec<Candidate> = Vec::new();
    let mut stats = DrainStats::default();
    for &v in &victims {
        let victim_pm = shadow.get(v).id();
        // A PM that absorbed another victim's VMs stays put: draining
        // it would undo the consolidation we just planned.
        if received.contains(&victim_pm) {
            continue;
        }
        let placements = shadow.get(v).placements();
        let victim_mem: u64 = placements.iter().map(|(_, spec)| spec.mem_mib()).sum();
        if *used_moves + placements.len() as u32 > budget.max_migrations
            || *used_mem + victim_mem > budget.max_moved_mem_mib
        {
            // Over budget for this victim; a smaller one may still fit.
            continue;
        }
        if placements.iter().any(|(_, spec)| dead.contains(spec)) {
            stats.victims_skipped += 1;
            continue;
        }

        index.retire(victim_pm);
        let mut staged: Vec<PlannedMove> = Vec::new();
        let mut stuck: Option<VmSpec> = None;
        for (vm, spec) in &placements {
            index.gather_into(&mut buf, spec.mem_mib(), spec.vcpus());
            buf.retain(|c| shadow.get(c.id.0 as usize).can_host(spec));
            let Some(to) = policy.select(&buf, spec) else {
                stuck = Some(*spec);
                break;
            };
            let lifted = shadow.get_mut(v).remove(*vm).expect("victim hosts the vm");
            shadow
                .get_mut(to.0 as usize)
                .deploy(*vm, lifted)
                .expect("can_host admitted the vm");
            let (candidate, key) = index_entry(shadow.get(to.0 as usize));
            index.upsert(candidate, key);
            staged.push(PlannedMove {
                vm: *vm,
                spec: lifted,
                from: victim_pm,
                to,
            });
        }
        stats.trial_moves += staged.len() as u32;

        if stuck.is_none() && !staged.is_empty() {
            *used_moves += staged.len() as u32;
            *used_mem += victim_mem;
            received.extend(staged.iter().map(|mv| mv.to));
            moves.extend(staged);
            stats.freed += 1;
            // The drained victim stays retired: it is the freed
            // capacity and must not become a destination again.
        } else {
            // All-or-nothing: undo the partial drain on the shadows.
            // The clones stay; a host that has its VMs back answers
            // every question the plan asks as the live host does (see
            // `ShadowHosts`).
            stats.undone_moves += staged.len() as u32;
            for mv in staged.iter().rev() {
                let spec = shadow
                    .get_mut(mv.to.0 as usize)
                    .remove(mv.vm)
                    .expect("staged move is present");
                shadow
                    .get_mut(v)
                    .deploy(mv.vm, spec)
                    .expect("victim re-admits its own vm");
                let (candidate, key) = index_entry(shadow.get(mv.to.0 as usize));
                index.upsert(candidate, key);
            }
            // Everything is back where it was and the victim is still
            // out of the index: if no indexed PM admits the shape that
            // stuck, and the victim — about to be indexed again —
            // cannot take another VM of it either, the shape is dead.
            if let Some(spec) = stuck {
                index.gather_into(&mut buf, spec.mem_mib(), spec.vcpus());
                if !buf
                    .iter()
                    .any(|c| shadow.get(c.id.0 as usize).can_host(&spec))
                    && !shadow.get(v).can_host(&spec)
                {
                    dead.push(spec);
                }
            }
            let (candidate, key) = index_entry(shadow.get(v));
            index.upsert(candidate, key);
        }
    }
    stats
}

fn utilization<H: Host>(host: &H) -> f64 {
    let config = host.config();
    let alloc = host.alloc();
    let cpu = alloc.cpu.as_cores_f64() / config.cores as f64;
    let mem = alloc.mem_mib as f64 / config.mem_mib as f64;
    0.5 * (cpu + mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_model::{gib, OversubLevel, PmConfig, VmId, VmSpec};
    use slackvm_sim::{DedicatedDeployment, SharedDeployment};
    use std::sync::Arc;

    fn spec(vcpus: u32, mem_gib: u64, level: u32) -> VmSpec {
        VmSpec::of(vcpus, gib(mem_gib), OversubLevel::of(level))
    }

    /// pm0 nearly empty (one small VM), pm1 heavy: the classic
    /// departure-fragmentation shape.
    fn fragmented_shared() -> DeploymentModel {
        let mut s = SharedDeployment::with_policy(
            Arc::new(slackvm_topology::builders::flat(32)),
            gib(128),
            PlacementPolicy::FirstFit,
        );
        s.deploy(VmId(0), spec(20, 80, 1)).unwrap();
        s.deploy(VmId(1), spec(20, 80, 1)).unwrap();
        s.remove(VmId(0)).unwrap();
        s.deploy(VmId(2), spec(4, 16, 1)).unwrap();
        DeploymentModel::Shared(s)
    }

    #[test]
    fn drains_the_least_utilized_pm() {
        let model = fragmented_shared();
        assert_eq!(model.active_pms(), 2);
        let plan = plan_rebalance(&model, &Budget::default()).unwrap();
        assert_eq!(plan.pms_freed, 1);
        assert_eq!(plan.moves.len(), 1);
        let mv = plan.moves[0];
        assert_eq!(mv.vm, VmId(2));
        assert_eq!(mv.from, PmId(0));
        assert_eq!(mv.to, PmId(1));
        assert_eq!(plan.moved_mem_mib, gib(16));
    }

    #[test]
    fn respects_the_memory_budget() {
        let model = fragmented_shared();
        let tight = Budget {
            max_moved_mem_mib: gib(8),
            ..Budget::default()
        };
        let plan = plan_rebalance(&model, &tight).unwrap();
        assert!(plan.is_empty(), "{plan:?}");
        assert_eq!(plan.pms_freed, 0);
    }

    #[test]
    fn rejects_a_degenerate_budget() {
        let model = fragmented_shared();
        let broken = Budget {
            max_migrations: 0,
            ..Budget::default()
        };
        assert!(matches!(
            plan_rebalance(&model, &broken),
            Err(RebalanceError::Budget(_))
        ));
    }

    #[test]
    fn never_touches_failed_or_avoided_pms() {
        // Avoiding the only destination leaves nothing to plan.
        let model = fragmented_shared();
        let avoid: BTreeSet<PmId> = [PmId(1)].into();
        let plan = plan_rebalance_avoiding(&model, &Budget::default(), &avoid).unwrap();
        assert!(plan.is_empty(), "{plan:?}");

        // Same if the destination is failed.
        let mut model = fragmented_shared();
        model.fail_host(PmId(1));
        let plan = plan_rebalance(&model, &Budget::default()).unwrap();
        assert!(plan.is_empty(), "{plan:?}");

        // Avoiding the victim also empties the plan.
        let model = fragmented_shared();
        let avoid: BTreeSet<PmId> = [PmId(0)].into();
        let plan = plan_rebalance_avoiding(&model, &Budget::default(), &avoid).unwrap();
        assert!(plan.is_empty(), "{plan:?}");
    }

    #[test]
    fn all_or_nothing_per_victim() {
        // pm0 hosts two VMs; only one of them fits anywhere else. The
        // victim must be left alone entirely, not half-drained.
        let mut s = SharedDeployment::with_policy(
            Arc::new(slackvm_topology::builders::flat(32)),
            gib(128),
            PlacementPolicy::FirstFit,
        );
        s.deploy(VmId(0), spec(4, 16, 1)).unwrap();
        s.deploy(VmId(1), spec(24, 96, 1)).unwrap(); // pm0 is now 28c/112g
        s.deploy(VmId(2), spec(20, 80, 1)).unwrap(); // pm1: 12c/48g free
        let model = DeploymentModel::Shared(s);
        let plan = plan_rebalance(&model, &Budget::default()).unwrap();
        // pm1 is the lighter victim but its 20c VM fits nowhere (pm0
        // has 4c free); pm0's pair can't fully move either.
        assert!(plan.is_empty(), "{plan:?}");
    }

    #[test]
    fn never_drains_into_an_empty_pm() {
        // pm0 active, pm1 opened but empty: "draining" pm0 into pm1
        // would free one PM by occupying another — a net zero the
        // planner must not propose (and would re-propose forever).
        let mut s = SharedDeployment::with_policy(
            Arc::new(slackvm_topology::builders::flat(32)),
            gib(128),
            PlacementPolicy::FirstFit,
        );
        s.deploy(VmId(0), spec(20, 80, 1)).unwrap();
        s.deploy(VmId(1), spec(20, 80, 1)).unwrap();
        s.deploy(VmId(2), spec(4, 16, 1)).unwrap(); // pm0 with vm0
        s.remove(VmId(1)).unwrap(); // pm1 empty but opened
        let model = DeploymentModel::Shared(s);
        assert_eq!(model.active_pms(), 1);
        let plan = plan_rebalance(&model, &Budget::default()).unwrap();
        assert!(plan.is_empty(), "{plan:?}");
    }

    #[test]
    fn replanning_after_apply_quiesces() {
        // plan -> apply -> replan must reach a fixed point; each
        // accepted plan strictly reduces the active-PM count, so the
        // loop is bounded by the fleet size.
        let mut model = fragmented_shared();
        let budget = Budget::default();
        let mut rounds = 0;
        loop {
            let plan = plan_rebalance(&model, &budget).unwrap();
            if plan.is_empty() {
                break;
            }
            let before = model.active_pms();
            crate::apply_plan(&mut model, &plan).unwrap();
            assert!(model.active_pms() < before, "a plan must free a PM");
            rounds += 1;
            assert!(rounds <= 4, "consolidation oscillates");
        }
        assert_eq!(model.active_pms(), 1);
    }

    #[test]
    fn dedicated_drains_within_each_level() {
        let mut model = DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::simulation_host(),
            [OversubLevel::of(1), OversubLevel::of(3)],
        ));
        model.deploy(VmId(0), spec(20, 80, 1)).unwrap();
        model.deploy(VmId(1), spec(20, 80, 1)).unwrap();
        model.remove(VmId(0)).unwrap();
        model.deploy(VmId(2), spec(4, 16, 1)).unwrap();
        model.deploy(VmId(10), spec(40, 20, 3)).unwrap();
        let plan = plan_rebalance(&model, &Budget::default()).unwrap();
        assert_eq!(plan.pms_freed, 1);
        assert_eq!(plan.moves.len(), 1);
        let mv = plan.moves[0];
        assert_eq!(mv.vm, VmId(2));
        assert_eq!(mv.spec.level, OversubLevel::of(1));
        assert_eq!((mv.from, mv.to), (PmId(0), PmId(1)));
    }
}
