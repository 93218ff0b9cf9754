//! The plan validator: invariants are checked, not trusted.
//!
//! A plan is data that may have travelled — computed against an older
//! snapshot, deserialized from an operator's file, or produced by a
//! buggy planner. Before anything moves, the validator replays the
//! whole plan in order against *shadows* of the live hosts — borrowed,
//! and cloned only where a move lands or lifts ([`ShadowHosts`]) — so
//! every hard constraint (capacity, oversubscription ratios,
//! pooled-vNode rules) is enforced by the same `Host::can_host` /
//! `deploy` admission path the cluster itself uses. Any mismatch
//! rejects the plan whole — a stale plan is never partially applied.

use std::collections::{BTreeMap, BTreeSet};

use slackvm_hypervisor::Host;
use slackvm_model::{PmId, VmId};
use slackvm_sim::DeploymentModel;

use crate::plan::{PlannedMove, RebalancePlan};
use crate::shadow::ShadowHosts;
use crate::RebalanceError;

/// Validates `plan` against the live `model`. `Ok(())` means every
/// move, applied in order, lands on a live PM that admits it, and the
/// plan stays within its own budget.
pub fn validate_plan(model: &DeploymentModel, plan: &RebalancePlan) -> Result<(), RebalanceError> {
    validate_plan_avoiding(model, plan, &BTreeSet::new())
}

/// Like [`validate_plan`], additionally rejecting any move that
/// touches a PM in `avoid` (the online executor's draining set).
pub fn validate_plan_avoiding(
    model: &DeploymentModel,
    plan: &RebalancePlan,
    avoid: &BTreeSet<PmId>,
) -> Result<(), RebalanceError> {
    plan.budget.validate().map_err(RebalanceError::Budget)?;
    if plan.moves.len() as u32 > plan.budget.max_migrations {
        return Err(RebalanceError::Invalid(format!(
            "{} moves exceed the {}-migration budget",
            plan.moves.len(),
            plan.budget.max_migrations
        )));
    }
    let total_mem: u64 = plan.moves.iter().map(|mv| mv.spec.mem_mib()).sum();
    if total_mem > plan.budget.max_moved_mem_mib {
        return Err(RebalanceError::Invalid(format!(
            "{total_mem} MiB moved exceeds the {} MiB budget",
            plan.budget.max_moved_mem_mib
        )));
    }
    let mut seen: BTreeSet<VmId> = BTreeSet::new();
    for mv in &plan.moves {
        if !seen.insert(mv.vm) {
            return Err(RebalanceError::Invalid(format!(
                "{} is moved more than once",
                mv.vm
            )));
        }
    }
    if plan.model != model.name() {
        return Err(RebalanceError::Stale(format!(
            "plan was computed for model '{}', cluster is '{}'",
            plan.model,
            model.name()
        )));
    }

    match model {
        DeploymentModel::Shared(s) => {
            let mut hosts = ShadowHosts::of(&s.cluster, avoid);
            for mv in &plan.moves {
                replay_move(&mut hosts, mv)?;
            }
        }
        DeploymentModel::Dedicated(d) => {
            let mut shadows: BTreeMap<_, _> = d
                .clusters()
                .map(|(level, cluster)| (level, ShadowHosts::of(cluster, avoid)))
                .collect();
            for mv in &plan.moves {
                let hosts = shadows.get_mut(&mv.spec.level).ok_or_else(|| {
                    RebalanceError::Invalid(format!(
                        "{} targets unconfigured level {}",
                        mv.vm, mv.spec.level
                    ))
                })?;
                replay_move(hosts, mv)?;
            }
        }
    }
    Ok(())
}

/// Replays one move on the shadows of its (sub)cluster through the
/// authoritative admission path: lift, compare the spec, ask the
/// destination, land.
pub(crate) fn replay_move<H: Host + Clone>(
    hosts: &mut ShadowHosts<'_, H>,
    mv: &PlannedMove,
) -> Result<(), RebalanceError> {
    let from = mv.from.0 as usize;
    let to = mv.to.0 as usize;
    if from >= hosts.len() {
        return Err(RebalanceError::Stale(format!(
            "{} names unknown source pm-{}",
            mv.vm, mv.from.0
        )));
    }
    if to >= hosts.len() {
        return Err(RebalanceError::Invalid(format!(
            "{} names unknown destination pm-{}",
            mv.vm, mv.to.0
        )));
    }
    if from == to {
        return Err(RebalanceError::Invalid(format!(
            "{} moves onto its own source pm-{}",
            mv.vm, mv.from.0
        )));
    }
    if hosts.is_blocked(from) || hosts.is_blocked(to) {
        return Err(RebalanceError::Invalid(format!(
            "{} touches a failed/draining pm (pm-{} -> pm-{})",
            mv.vm, mv.from.0, mv.to.0
        )));
    }
    let spec = hosts
        .get_mut(from)
        .remove(mv.vm)
        .map_err(|_| RebalanceError::Stale(format!("{} is not on pm-{}", mv.vm, mv.from.0)))?;
    if spec != mv.spec {
        return Err(RebalanceError::Stale(format!(
            "{} spec changed since planning ({} != {})",
            mv.vm, spec, mv.spec
        )));
    }
    if !hosts.get(to).can_host(&spec) {
        return Err(RebalanceError::Invalid(format!(
            "pm-{} cannot host {} ({})",
            mv.to.0, mv.vm, spec
        )));
    }
    hosts
        .get_mut(to)
        .deploy(mv.vm, spec)
        .map_err(|e| RebalanceError::Invalid(format!("pm-{} rejected {}: {e}", mv.to.0, mv.vm)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Budget;
    use crate::planner::plan_rebalance;
    use slackvm_model::{gib, OversubLevel, VmSpec};
    use slackvm_sched::PlacementPolicy;
    use slackvm_sim::SharedDeployment;
    use std::sync::Arc;

    fn spec(vcpus: u32, mem_gib: u64) -> VmSpec {
        VmSpec::of(vcpus, gib(mem_gib), OversubLevel::of(1))
    }

    fn fragmented() -> DeploymentModel {
        let mut s = SharedDeployment::with_policy(
            Arc::new(slackvm_topology::builders::flat(32)),
            gib(128),
            PlacementPolicy::FirstFit,
        );
        s.deploy(VmId(0), spec(20, 80)).unwrap();
        s.deploy(VmId(1), spec(20, 80)).unwrap();
        s.remove(VmId(0)).unwrap();
        s.deploy(VmId(2), spec(4, 16)).unwrap();
        DeploymentModel::Shared(s)
    }

    #[test]
    fn accepts_a_fresh_plan() {
        let model = fragmented();
        let plan = plan_rebalance(&model, &Budget::default()).unwrap();
        assert!(!plan.is_empty());
        validate_plan(&model, &plan).unwrap();
    }

    #[test]
    fn rejects_every_tampered_mutation() {
        let model = fragmented();
        let plan = plan_rebalance(&model, &Budget::default()).unwrap();

        // Swapped endpoints: the VM is not at `from`.
        let mut tampered = plan.clone();
        tampered.moves[0].from = PmId(1);
        tampered.moves[0].to = PmId(0);
        assert!(matches!(
            validate_plan(&model, &tampered),
            Err(RebalanceError::Stale(_))
        ));

        // Self-move.
        let mut tampered = plan.clone();
        tampered.moves[0].to = tampered.moves[0].from;
        assert!(matches!(
            validate_plan(&model, &tampered),
            Err(RebalanceError::Invalid(_))
        ));

        // Unknown destination.
        let mut tampered = plan.clone();
        tampered.moves[0].to = PmId(99);
        assert!(matches!(
            validate_plan(&model, &tampered),
            Err(RebalanceError::Invalid(_))
        ));

        // Oversized spec lie: claims fewer resources than the VM has.
        let mut tampered = plan.clone();
        tampered.moves[0].spec = spec(1, 1);
        assert!(matches!(
            validate_plan(&model, &tampered),
            Err(RebalanceError::Stale(_))
        ));

        // Duplicate move of the same VM.
        let mut tampered = plan.clone();
        let dup = tampered.moves[0];
        tampered.moves.push(dup);
        assert!(matches!(
            validate_plan(&model, &tampered),
            Err(RebalanceError::Invalid(_))
        ));

        // More moves than the budget admits.
        let mut tampered = plan.clone();
        tampered.budget = Budget {
            max_migrations: 1,
            ..Budget::default()
        };
        let mut extra = tampered.moves[0];
        extra.vm = VmId(1);
        extra.spec = spec(20, 80);
        extra.from = PmId(1);
        extra.to = PmId(0);
        tampered.moves.push(extra);
        assert!(matches!(
            validate_plan(&model, &tampered),
            Err(RebalanceError::Invalid(_))
        ));

        // Wrong model label.
        let mut tampered = plan.clone();
        tampered.model = "dedicated/first-fit".into();
        assert!(matches!(
            validate_plan(&model, &tampered),
            Err(RebalanceError::Stale(_))
        ));
    }

    #[test]
    fn rejects_moves_touching_failed_or_draining_pms() {
        let model = fragmented();
        let plan = plan_rebalance(&model, &Budget::default()).unwrap();
        // The destination starts draining after planning.
        let avoid: BTreeSet<PmId> = [plan.moves[0].to].into();
        assert!(matches!(
            validate_plan_avoiding(&model, &plan, &avoid),
            Err(RebalanceError::Invalid(_))
        ));
        // The destination fails after planning.
        let mut model = model;
        model.fail_host(plan.moves[0].to);
        assert!(matches!(
            validate_plan(&model, &plan),
            Err(RebalanceError::Invalid(_))
        ));
    }

    #[test]
    fn rejects_a_stale_snapshot_plan() {
        let model = fragmented();
        let plan = plan_rebalance(&model, &Budget::default()).unwrap();
        // The cluster changes underneath: the planned VM departs.
        let mut model = model;
        model.remove(VmId(2)).unwrap();
        assert!(matches!(
            validate_plan(&model, &plan),
            Err(RebalanceError::Stale(_))
        ));
    }

    #[test]
    fn rejects_an_infeasible_destination() {
        let mut model = fragmented();
        let plan = plan_rebalance(&model, &Budget::default()).unwrap();
        // The destination fills up after planning: VM1 grows in place
        // and pm1's headroom drops below the planned VM's needs.
        model.resize(VmId(1), 30, gib(120)).unwrap();
        assert!(matches!(
            validate_plan(&model, &plan),
            Err(RebalanceError::Invalid(_))
        ));
    }
}
