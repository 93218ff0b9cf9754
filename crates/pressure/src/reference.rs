//! The scorer and planner bodies this crate shipped before a plan was
//! derived from one fleet reading, kept **verbatim** (only visibility
//! narrowed) as the reference the differential suite compares against:
//! every host deep-cloned, the fleet scored three times, `score_host`
//! re-run on every candidate of every victim VM, no memo. Test-only;
//! never edit these to make a test pass.

use std::collections::{BTreeMap, BTreeSet};

use slackvm_hypervisor::Host;
use slackvm_model::{PmId, VmId};
use slackvm_rebalance::{Budget, PlannedMove, RebalanceError, RebalancePlan};
use slackvm_sched::{Candidate, CandidateIndex, PlacementPolicy};
use slackvm_sim::{index_entry, Cluster, DeploymentModel};

use crate::planner::MitigationPlan;
use crate::score::{
    vm_weight, PmPressure, PressureConfig, PressureReport, PressureState, StateKey,
};

/// Scores one host: weighted demanded cores and their ratio to the
/// physical core count.
pub(crate) fn score_host<H: Host>(
    host: &H,
    config: &PressureConfig,
    usage: &impl Fn(VmId) -> f64,
) -> (f64, f64) {
    let mut demand = 0.0;
    for (vm, spec) in host.placements() {
        demand += usage(vm).clamp(0.0, 1.0) * spec.vcpus() as f64 * vm_weight(config, &spec);
    }
    let cores = host.config().cores.max(1) as f64;
    (demand / cores, demand)
}

fn score_cluster<H: Host>(
    cluster: &Cluster<H>,
    level: u32,
    config: &PressureConfig,
    usage: &impl Fn(VmId) -> f64,
    prev: &BTreeMap<StateKey, PressureState>,
    out: &mut Vec<PmPressure>,
) {
    for host in cluster.hosts() {
        let (score, demand_cores) = score_host(host, config, usage);
        out.push(PmPressure {
            level,
            pm: host.id(),
            score,
            demand_cores,
            cores: host.config().cores,
            vms: host.num_vms(),
            state: config.classify(score, prev.get(&(level, host.id())).copied()),
            failed: cluster.is_failed(host.id()),
        });
    }
}

/// Scores every opened PM of the deployment, classifying with the
/// hysteresis memory in `prev` (pass an empty map for a stateless
/// snapshot — everything classifies by the enter/cold thresholds).
pub(crate) fn score_pressure(
    model: &DeploymentModel,
    config: &PressureConfig,
    usage: &impl Fn(VmId) -> f64,
    prev: &BTreeMap<StateKey, PressureState>,
) -> PressureReport {
    let mut pms = Vec::new();
    match model {
        DeploymentModel::Shared(s) => {
            score_cluster(&s.cluster, 0, config, usage, prev, &mut pms);
        }
        DeploymentModel::Dedicated(d) => {
            for (level, cluster) in d.clusters() {
                score_cluster(cluster, level.ratio(), config, usage, prev, &mut pms);
            }
        }
    }
    PressureReport { pms }
}

/// Plans a mitigation pass that never touches the PMs in `avoid`
/// (neither as victim source nor destination; failed PMs are always
/// excluded) and classifies with the hysteresis memory in `prev` — the
/// online executor passes its draining set and last tick's states.
pub(crate) fn plan_mitigation_avoiding(
    model: &DeploymentModel,
    config: &PressureConfig,
    budget: &Budget,
    usage: &impl Fn(VmId) -> f64,
    avoid: &BTreeSet<PmId>,
    prev: &BTreeMap<StateKey, PressureState>,
) -> Result<MitigationPlan, RebalanceError> {
    budget.validate().map_err(RebalanceError::Budget)?;
    config
        .validate()
        .map_err(|e| RebalanceError::Invalid(format!("pressure thresholds: {e}")))?;

    let before = score_pressure(model, config, usage, prev);
    let mut moves = Vec::new();
    let mut used_moves = 0u32;
    let mut used_mem = 0u64;
    let mut freed = 0u32;
    let mut states_after = BTreeMap::new();

    match model {
        DeploymentModel::Shared(s) => mitigate_cluster(
            &s.cluster,
            &s.policy,
            0,
            config,
            budget,
            usage,
            avoid,
            prev,
            &mut used_moves,
            &mut used_mem,
            &mut moves,
            &mut states_after,
            &mut freed,
        ),
        DeploymentModel::Dedicated(d) => {
            // The baseline packs First-Fit; spreading must not be
            // smarter than admission.
            let first_fit = PlacementPolicy::FirstFit;
            for (level, cluster) in d.clusters() {
                mitigate_cluster(
                    cluster,
                    &first_fit,
                    level.ratio(),
                    config,
                    budget,
                    usage,
                    avoid,
                    prev,
                    &mut used_moves,
                    &mut used_mem,
                    &mut moves,
                    &mut states_after,
                    &mut freed,
                );
            }
        }
    }

    let hot_before = before.hot();
    let hot_after = states_after
        .values()
        .filter(|&&s| s == PressureState::Hot)
        .count() as u32;
    let cooled = before
        .pms
        .iter()
        .filter(|p| {
            p.state == PressureState::Hot
                && states_after.get(&(p.level, p.pm)) != Some(&PressureState::Hot)
        })
        .count() as u32;
    Ok(MitigationPlan {
        plan: RebalancePlan {
            model: model.name(),
            moves,
            pms_freed: freed,
            moved_mem_mib: used_mem,
            budget: *budget,
        },
        before,
        hot_before,
        hot_after,
        cooled,
        states_after,
    })
}

/// Mitigates one (sub)cluster's hot PMs on shadow hosts.
#[allow(clippy::too_many_arguments)]
fn mitigate_cluster<H: Host + Clone>(
    cluster: &Cluster<H>,
    policy: &PlacementPolicy,
    level: u32,
    config: &PressureConfig,
    budget: &Budget,
    usage: &impl Fn(VmId) -> f64,
    avoid: &BTreeSet<PmId>,
    prev: &BTreeMap<StateKey, PressureState>,
    used_moves: &mut u32,
    used_mem: &mut u64,
    moves: &mut Vec<PlannedMove>,
    states_after: &mut BTreeMap<StateKey, PressureState>,
    freed: &mut u32,
) {
    let mut shadow: Vec<H> = cluster.hosts().to_vec();
    let blocked: Vec<bool> = shadow
        .iter()
        .map(|h| cluster.is_failed(h.id()) || avoid.contains(&h.id()))
        .collect();
    let prev_of = |pm: PmId| prev.get(&(level, pm)).copied();
    let initial: Vec<f64> = shadow
        .iter()
        .map(|h| score_host(h, config, usage).0)
        .collect();
    // Each PM's classification entering this round — the hysteresis
    // memory every in-round reclassification builds on (a hot PM that
    // only cools into the band must stay hot).
    let state0: Vec<PressureState> = shadow
        .iter()
        .zip(&initial)
        .map(|(h, &s)| config.classify(s, prev_of(h.id())))
        .collect();

    // Hottest first: the PM deepest into saturation is degrading its
    // tenants hardest right now.
    let mut hot: Vec<usize> = (0..shadow.len())
        .filter(|&i| !blocked[i] && state0[i] == PressureState::Hot)
        .collect();
    hot.sort_by(|&a, &b| {
        initial[b]
            .total_cmp(&initial[a])
            .then(shadow[a].id().cmp(&shadow[b].id()))
    });

    // Destinations: cold, unblocked PMs only (empty-but-opened PMs
    // included — spreading out *wants* headroom, unlike consolidation).
    let mut index = CandidateIndex::new();
    for (i, host) in shadow.iter().enumerate() {
        debug_assert_eq!(host.id().0 as usize, i, "hosts are dense by PmId");
        if !blocked[i] && state0[i] == PressureState::Cold {
            let (candidate, key) = index_entry(host);
            index.upsert(candidate, key);
        }
    }

    let mut buf: Vec<Candidate> = Vec::new();
    let mut budget_full = false;
    for &h in &hot {
        let victim_pm = shadow[h].id();
        // Drain the busiest VMs until the PM cools through the
        // hysteresis exit or nothing movable remains.
        loop {
            if budget_full {
                break;
            }
            let (cur, _) = score_host(&shadow[h], config, usage);
            if cur < config.hot_exit {
                break; // cooled — partial mitigation is a win.
            }
            // Highest usage-per-freed-core first: the busiest VM
            // removes the most demand for each core's worth of churn.
            let mut placements = shadow[h].placements();
            placements.sort_by(|(va, sa), (vb, sb)| {
                usage(*vb)
                    .clamp(0.0, 1.0)
                    .total_cmp(&usage(*va).clamp(0.0, 1.0))
                    .then(sb.vcpus().cmp(&sa.vcpus()))
                    .then(va.cmp(vb))
            });
            let mut moved = false;
            for (vm, spec) in &placements {
                if *used_moves >= budget.max_migrations {
                    budget_full = true;
                    break;
                }
                if *used_mem + spec.mem_mib() > budget.max_moved_mem_mib {
                    // This VM busts the memory budget; a smaller one
                    // may still fit.
                    continue;
                }
                index.gather_into(&mut buf, spec.mem_mib(), spec.vcpus());
                let add = usage(*vm).clamp(0.0, 1.0) * spec.vcpus() as f64 * vm_weight(config, spec);
                buf.retain(|c| {
                    let dest = &shadow[c.id.0 as usize];
                    if !dest.can_host(spec) {
                        return false;
                    }
                    // Still cold now (earlier moves may have warmed it),
                    // and predicted to stay out of the hot band after
                    // absorbing this VM.
                    let (now, _) = score_host(dest, config, usage);
                    config.classify(now, Some(state0[c.id.0 as usize])) == PressureState::Cold
                        && now + add / (dest.config().cores.max(1) as f64) < config.hot_exit
                });
                let Some(to) = policy.select(&buf, spec) else {
                    continue;
                };
                let lifted = shadow[h].remove(*vm).expect("victim hosts the vm");
                shadow[to.0 as usize]
                    .deploy(*vm, lifted)
                    .expect("can_host admitted the vm");
                let (entry, key) = index_entry(&shadow[to.0 as usize]);
                let (dest_score, _) = score_host(&shadow[to.0 as usize], config, usage);
                if config.classify(dest_score, Some(state0[to.0 as usize])) == PressureState::Cold {
                    index.upsert(entry, key);
                } else {
                    // The destination warmed up; it receives no more.
                    index.retire(to);
                }
                *used_moves += 1;
                *used_mem += lifted.mem_mib();
                moves.push(PlannedMove {
                    vm: *vm,
                    spec: lifted,
                    from: victim_pm,
                    to,
                });
                moved = true;
                break;
            }
            if !moved {
                break; // nothing movable — leave the PM as mitigated as it got.
            }
        }
        if shadow[h].num_vms() == 0 {
            *freed += 1;
        }
    }

    // Predicted post-apply classification, hysteresis-aware: what the
    // online executor remembers for the next tick.
    for (i, host) in shadow.iter().enumerate() {
        let (score, _) = score_host(host, config, usage);
        states_after.insert((level, host.id()), config.classify(score, Some(state0[i])));
    }
}
