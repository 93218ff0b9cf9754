//! The planner and validator bodies this crate shipped before they
//! moved onto [`crate::ShadowHosts`], kept **verbatim** (only
//! visibility widened) as the reference the differential suite compares
//! against: every host deep-cloned up front, every victim tried, no
//! memo. Test-only; never edit these to make a test pass.

use std::collections::{BTreeMap, BTreeSet};

use slackvm_hypervisor::Host;
use slackvm_model::{PmId, VmId};
use slackvm_sched::{Candidate, CandidateIndex, PlacementPolicy};
use slackvm_sim::{index_entry, Cluster, DeploymentModel};

use crate::plan::{Budget, PlannedMove, RebalancePlan};
use crate::RebalanceError;

/// Plans a consolidation pass that never touches the PMs in `avoid`
/// (neither as source nor destination) — the online executor passes
/// its draining set here; failed PMs are always excluded.
///
/// For the dedicated baseline, `avoid` applies to every per-level
/// sub-cluster (PM ids are per-level namespaces).
pub(crate) fn plan_rebalance_avoiding(
    model: &DeploymentModel,
    budget: &Budget,
    avoid: &BTreeSet<PmId>,
) -> Result<RebalancePlan, RebalanceError> {
    budget.validate().map_err(RebalanceError::Budget)?;
    let mut moves = Vec::new();
    let mut used_moves = 0u32;
    let mut used_mem = 0u64;
    let pms_freed = match model {
        DeploymentModel::Shared(s) => plan_cluster(
            &s.cluster,
            &s.policy,
            avoid,
            budget,
            &mut used_moves,
            &mut used_mem,
            &mut moves,
        ),
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

/// Drains what the budget allows from one (sub)cluster. Returns the
/// number of PMs freed; appends the staged moves to `moves`.
pub(crate) fn plan_cluster<H: Host + Clone>(
    cluster: &Cluster<H>,
    policy: &PlacementPolicy,
    avoid: &BTreeSet<PmId>,
    budget: &Budget,
    used_moves: &mut u32,
    used_mem: &mut u64,
    moves: &mut Vec<PlannedMove>,
) -> u32 {
    let mut shadow: Vec<H> = cluster.hosts().to_vec();
    let blocked: Vec<bool> = shadow
        .iter()
        .map(|h| cluster.is_failed(h.id()) || avoid.contains(&h.id()))
        .collect();

    // Cheapest-to-free first: ascending mean utilization, then fewer
    // VMs, then *higher* PM id — freeing trailing ids preserves the
    // First-Fit consolidation bias at the front of the fleet.
    let mut victims: Vec<usize> = (0..shadow.len())
        .filter(|&i| !blocked[i] && shadow[i].num_vms() > 0)
        .collect();
    victims.sort_by(|&a, &b| {
        utilization(&shadow[a])
            .total_cmp(&utilization(&shadow[b]))
            .then(shadow[a].num_vms().cmp(&shadow[b].num_vms()))
            .then(shadow[b].id().cmp(&shadow[a].id()))
    });

    // Destinations are *active* PMs only: moving a VM onto an empty
    // machine frees the victim but occupies the destination — a net
    // zero that re-plans forever (drain A into empty B, then B into
    // empty A). Empty PMs are the consolidation win, never a target.
    let mut index = CandidateIndex::new();
    for (i, host) in shadow.iter().enumerate() {
        debug_assert_eq!(host.id().0 as usize, i, "hosts are dense by PmId");
        if !blocked[i] && host.num_vms() > 0 {
            let (candidate, key) = index_entry(host);
            index.upsert(candidate, key);
        }
    }

    let mut received: BTreeSet<PmId> = BTreeSet::new();
    let mut buf: Vec<Candidate> = Vec::new();
    let mut freed = 0u32;
    for &v in &victims {
        let victim_pm = shadow[v].id();
        // A PM that absorbed another victim's VMs stays put: draining
        // it would undo the consolidation we just planned.
        if received.contains(&victim_pm) {
            continue;
        }
        let placements = shadow[v].placements();
        let victim_mem: u64 = placements.iter().map(|(_, spec)| spec.mem_mib()).sum();
        if *used_moves + placements.len() as u32 > budget.max_migrations
            || *used_mem + victim_mem > budget.max_moved_mem_mib
        {
            // Over budget for this victim; a smaller one may still fit.
            continue;
        }

        index.retire(victim_pm);
        let mut staged: Vec<PlannedMove> = Vec::new();
        let mut drained = true;
        for (vm, spec) in &placements {
            index.gather_into(&mut buf, spec.mem_mib(), spec.vcpus());
            buf.retain(|c| shadow[c.id.0 as usize].can_host(spec));
            let Some(to) = policy.select(&buf, spec) else {
                drained = false;
                break;
            };
            let lifted = shadow[v].remove(*vm).expect("victim hosts the vm");
            shadow[to.0 as usize]
                .deploy(*vm, lifted)
                .expect("can_host admitted the vm");
            let (candidate, key) = index_entry(&shadow[to.0 as usize]);
            index.upsert(candidate, key);
            staged.push(PlannedMove {
                vm: *vm,
                spec: lifted,
                from: victim_pm,
                to,
            });
        }

        if drained && !staged.is_empty() {
            *used_moves += staged.len() as u32;
            *used_mem += victim_mem;
            received.extend(staged.iter().map(|mv| mv.to));
            moves.extend(staged);
            freed += 1;
            // The drained victim stays retired: it is the freed
            // capacity and must not become a destination again.
        } else {
            // All-or-nothing: undo the partial drain on the shadows.
            for mv in staged.iter().rev() {
                let spec = shadow[mv.to.0 as usize]
                    .remove(mv.vm)
                    .expect("staged move is present");
                shadow[v]
                    .deploy(mv.vm, spec)
                    .expect("victim re-admits its own vm");
                let (candidate, key) = index_entry(&shadow[mv.to.0 as usize]);
                index.upsert(candidate, key);
            }
            let (candidate, key) = index_entry(&shadow[v]);
            index.upsert(candidate, key);
        }
    }
    freed
}

fn utilization<H: Host>(host: &H) -> f64 {
    let config = host.config();
    let alloc = host.alloc();
    let cpu = alloc.cpu.as_cores_f64() / config.cores as f64;
    let mem = alloc.mem_mib as f64 / config.mem_mib as f64;
    0.5 * (cpu + mem)
}

/// Like [`validate_plan`], additionally rejecting any move that
/// touches a PM in `avoid` (the online executor's draining set).
pub(crate) fn validate_plan_avoiding(
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
            let mut shadow = Shadow::of(&s.cluster, avoid);
            for mv in &plan.moves {
                shadow.apply(mv)?;
            }
        }
        DeploymentModel::Dedicated(d) => {
            let mut shadows: BTreeMap<_, _> = d
                .clusters()
                .map(|(level, cluster)| (level, Shadow::of(cluster, avoid)))
                .collect();
            for mv in &plan.moves {
                let shadow = shadows.get_mut(&mv.spec.level).ok_or_else(|| {
                    RebalanceError::Invalid(format!(
                        "{} targets unconfigured level {}",
                        mv.vm, mv.spec.level
                    ))
                })?;
                shadow.apply(mv)?;
            }
        }
    }
    Ok(())
}

/// Shadow clones of one (sub)cluster's hosts, replaying moves through
/// the authoritative admission path.
pub(crate) struct Shadow<H: Host + Clone> {
    pub(crate) hosts: Vec<H>,
    blocked: Vec<bool>,
}

impl<H: Host + Clone> Shadow<H> {
    pub(crate) fn of(cluster: &Cluster<H>, avoid: &BTreeSet<PmId>) -> Self {
        let hosts: Vec<H> = cluster.hosts().to_vec();
        let blocked = hosts
            .iter()
            .map(|h| cluster.is_failed(h.id()) || avoid.contains(&h.id()))
            .collect();
        Shadow { hosts, blocked }
    }

    pub(crate) fn apply(&mut self, mv: &PlannedMove) -> Result<(), RebalanceError> {
        let from = mv.from.0 as usize;
        let to = mv.to.0 as usize;
        if from >= self.hosts.len() {
            return Err(RebalanceError::Stale(format!(
                "{} names unknown source pm-{}",
                mv.vm, mv.from.0
            )));
        }
        if to >= self.hosts.len() {
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
        if self.blocked[from] || self.blocked[to] {
            return Err(RebalanceError::Invalid(format!(
                "{} touches a failed/draining pm (pm-{} -> pm-{})",
                mv.vm, mv.from.0, mv.to.0
            )));
        }
        let spec = self.hosts[from].remove(mv.vm).map_err(|_| {
            RebalanceError::Stale(format!("{} is not on pm-{}", mv.vm, mv.from.0))
        })?;
        if spec != mv.spec {
            return Err(RebalanceError::Stale(format!(
                "{} spec changed since planning ({} != {})",
                mv.vm, spec, mv.spec
            )));
        }
        if !self.hosts[to].can_host(&spec) {
            return Err(RebalanceError::Invalid(format!(
                "pm-{} cannot host {} ({})",
                mv.to.0, mv.vm, spec
            )));
        }
        self.hosts[to].deploy(mv.vm, spec).map_err(|e| {
            RebalanceError::Invalid(format!("pm-{} rejected {}: {e}", mv.to.0, mv.vm))
        })
    }
}
