//! The hot-to-cold spread-out planner.
//!
//! The mirror image of `slackvm-rebalance`: where consolidation drains
//! the *least* utilized PMs to free machines, mitigation drains the
//! *hottest* PMs just far enough to get them out of the saturation
//! band. Victims are picked highest usage-per-freed-core first (moving
//! the busiest VM removes the most demand per core of churn) and
//! re-placed through the same `CandidateIndex` + `PlacementPolicy`
//! pipeline admission and rebalance use — restricted to *cold*
//! destinations whose predicted post-move score stays below the hot
//! exit, so mitigation never creates the hotspot it is curing.
//!
//! Unlike consolidation, mitigation is *not* all-or-nothing per
//! victim PM: cooling a hot PM below the hysteresis exit is a win even
//! if some of its VMs stay put. The emitted artifact is the same
//! checked [`RebalancePlan`] — validated by
//! [`slackvm_rebalance::validate_plan`] against the live model and
//! journalled as `WalOp::Migrate` by the online executor, so recovery
//! and fsck replay mitigation exactly like consolidation.

use std::collections::{BTreeMap, BTreeSet};

use slackvm_hypervisor::Host;
use slackvm_model::{PmId, VmId};
use slackvm_rebalance::{Budget, PlannedMove, RebalanceError, RebalancePlan};
use slackvm_sched::{Candidate, CandidateIndex, PlacementPolicy};
use slackvm_sim::{index_entry, Cluster, DeploymentModel};

use crate::score::{
    score_host, score_pressure, vm_weight, PressureConfig, PressureReport, PressureState, StateKey,
};

/// A mitigation plan: the checked migration artifact plus the pressure
/// accounting around it.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationPlan {
    /// The migrations, as the same checked artifact rebalance emits —
    /// validate with [`slackvm_rebalance::validate_plan`], execute with
    /// [`slackvm_rebalance::apply_plan`].
    pub plan: RebalancePlan,
    /// The fleet's pressure readings before any move.
    pub before: PressureReport,
    /// Hot PMs before planning.
    pub hot_before: u32,
    /// Hot PMs predicted after the plan applies (hysteresis-aware).
    pub hot_after: u32,
    /// Hot PMs the plan cools below the hysteresis exit.
    pub cooled: u32,
    /// Predicted post-apply classification of every PM — the online
    /// executor carries this into the next tick as hysteresis memory.
    pub states_after: BTreeMap<StateKey, PressureState>,
}

impl MitigationPlan {
    /// True when no hot PM could be (or needed to be) mitigated.
    pub fn is_empty(&self) -> bool {
        self.plan.moves.is_empty()
    }

    /// Number of planned migrations.
    pub fn len(&self) -> usize {
        self.plan.moves.len()
    }

    /// Human-readable rendering for the CLI.
    pub fn render(&self) -> String {
        let mut out = format!(
            "pressure plan for {}: {} migration(s), hot PMs {} -> {} ({} cooled), {} MiB moved \
             (budget: {} moves / {} MiB / {} concurrent)\n",
            self.plan.model,
            self.plan.moves.len(),
            self.hot_before,
            self.hot_after,
            self.cooled,
            self.plan.moved_mem_mib,
            self.plan.budget.max_migrations,
            self.plan.budget.max_moved_mem_mib,
            self.plan.budget.max_concurrent,
        );
        for mv in &self.plan.moves {
            out.push_str(&format!(
                "  {}  pm-{} -> pm-{}  ({})\n",
                mv.vm, mv.from.0, mv.to.0, mv.spec,
            ));
        }
        out
    }

    /// Hand-rolled JSON rendering: the pressure accounting wrapping the
    /// plan's own stable JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hot_before\":{},\"hot_after\":{},\"cooled\":{},\"plan\":{}}}",
            self.hot_before,
            self.hot_after,
            self.cooled,
            self.plan.to_json(),
        )
    }
}

/// Plans a mitigation pass over the whole deployment (no avoided PMs,
/// no hysteresis memory — the offline entry point).
pub fn plan_mitigation(
    model: &DeploymentModel,
    config: &PressureConfig,
    budget: &Budget,
    usage: &impl Fn(VmId) -> f64,
) -> Result<MitigationPlan, RebalanceError> {
    plan_mitigation_avoiding(model, config, budget, usage, &BTreeSet::new(), &BTreeMap::new())
}

/// Plans a mitigation pass that never touches the PMs in `avoid`
/// (neither as victim source nor destination; failed PMs are always
/// excluded) and classifies with the hysteresis memory in `prev` — the
/// online executor passes its draining set and last tick's states.
pub fn plan_mitigation_avoiding(
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

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_model::{gib, OversubLevel, PmConfig, VmSpec};
    use slackvm_sim::{DedicatedDeployment, SharedDeployment};
    use std::sync::Arc;

    fn spec(vcpus: u32, mem_gib: u64, level: u32) -> VmSpec {
        VmSpec::of(vcpus, gib(mem_gib), OversubLevel::of(level))
    }

    /// pm0 stacked with four busy 8-core VMs (score ≈ 0.9), pm1 nearly
    /// idle: the canonical hotspot shape.
    fn hotspot() -> (DeploymentModel, impl Fn(VmId) -> f64 + Clone) {
        let mut s = SharedDeployment::with_policy(
            Arc::new(slackvm_topology::builders::flat(32)),
            gib(128),
            PlacementPolicy::FirstFit,
        );
        for id in 0..4u64 {
            s.deploy(VmId(id), spec(8, 16, 1)).unwrap();
        }
        s.deploy(VmId(10), spec(4, 8, 1)).unwrap(); // lands on pm1
        s.deploy(VmId(11), spec(4, 8, 1)).unwrap();
        assert_eq!(s.cluster.active(), 2);
        let usage = |vm: VmId| if vm.0 < 4 { 0.9 } else { 0.05 };
        (DeploymentModel::Shared(s), usage)
    }

    #[test]
    fn spreads_a_hotspot_onto_the_cold_pm() {
        let (model, usage) = hotspot();
        let cfg = PressureConfig::default();
        let plan = plan_mitigation(&model, &cfg, &Budget::default(), &usage).unwrap();
        assert_eq!(plan.hot_before, 1, "{}", plan.before.render());
        assert!(!plan.is_empty(), "{plan:?}");
        assert_eq!(plan.hot_after, 0, "{}", plan.render());
        assert_eq!(plan.cooled, 1);
        // Every move leaves the hot PM and lands on the cold one.
        for mv in &plan.plan.moves {
            assert_eq!(mv.from, PmId(0));
            assert_eq!(mv.to, PmId(1));
            assert!(usage(mv.vm) > 0.8, "picked an idle victim {:?}", mv.vm);
        }
        // Two busy 8c VMs must leave: 28.8/32 -> 21.6/32 -> 14.4/32.
        assert_eq!(plan.len(), 2, "{}", plan.render());
    }

    #[test]
    fn applying_the_plan_cools_the_fleet() {
        let (mut model, usage) = hotspot();
        let cfg = PressureConfig::default();
        let plan = plan_mitigation(&model, &cfg, &Budget::default(), &usage).unwrap();
        slackvm_rebalance::validate_plan(&model, &plan.plan).unwrap();
        slackvm_rebalance::apply_plan(&mut model, &plan.plan).unwrap();
        model.check_invariants().unwrap();
        let after = score_pressure(&model, &cfg, &usage, &plan.states_after);
        assert_eq!(after.hot(), 0, "{}", after.render());
        // Predicted states match the replayed reality.
        assert_eq!(after.states(), plan.states_after);
    }

    #[test]
    fn cold_fleet_plans_nothing() {
        let (model, _) = hotspot();
        let cfg = PressureConfig::default();
        let plan = plan_mitigation(&model, &cfg, &Budget::default(), &|_| 0.05).unwrap();
        assert!(plan.is_empty(), "{}", plan.render());
        assert_eq!((plan.hot_before, plan.hot_after), (0, 0));
    }

    #[test]
    fn budget_caps_the_moves() {
        let (model, usage) = hotspot();
        let cfg = PressureConfig::default();
        let tight = Budget {
            max_migrations: 1,
            ..Budget::default()
        };
        let plan = plan_mitigation(&model, &cfg, &tight, &usage).unwrap();
        assert_eq!(plan.len(), 1, "{}", plan.render());
        // One move is not enough to cool the PM.
        assert_eq!(plan.hot_after, 1);
        assert_eq!(plan.cooled, 0);

        let broken = Budget {
            max_migrations: 0,
            ..Budget::default()
        };
        assert!(matches!(
            plan_mitigation(&model, &cfg, &broken, &usage),
            Err(RebalanceError::Budget(_))
        ));
    }

    #[test]
    fn avoided_and_failed_pms_are_untouchable() {
        let (model, usage) = hotspot();
        let cfg = PressureConfig::default();
        // Avoiding the only cold destination leaves nothing to plan.
        let avoid: BTreeSet<PmId> = [PmId(1)].into();
        let plan = plan_mitigation_avoiding(
            &model,
            &cfg,
            &Budget::default(),
            &usage,
            &avoid,
            &BTreeMap::new(),
        )
        .unwrap();
        assert!(plan.is_empty(), "{}", plan.render());

        // Same when the destination is failed.
        let (mut model, usage) = hotspot();
        model.fail_host(PmId(1));
        let plan = plan_mitigation(&model, &cfg, &Budget::default(), &usage).unwrap();
        assert!(plan.is_empty(), "{}", plan.render());

        // Avoiding the hot source also empties the plan.
        let (model, usage) = hotspot();
        let avoid: BTreeSet<PmId> = [PmId(0)].into();
        let plan = plan_mitigation_avoiding(
            &model,
            &cfg,
            &Budget::default(),
            &usage,
            &avoid,
            &BTreeMap::new(),
        )
        .unwrap();
        assert!(plan.is_empty(), "{}", plan.render());
    }

    #[test]
    fn never_spreads_onto_a_warm_destination() {
        // pm1 warm (score between cold_max and hot_exit): no legal
        // destination exists, so the hot PM stays put.
        let mut s = SharedDeployment::with_policy(
            Arc::new(slackvm_topology::builders::flat(32)),
            gib(128),
            PlacementPolicy::FirstFit,
        );
        for id in 0..4u64 {
            s.deploy(VmId(id), spec(8, 16, 1)).unwrap();
        }
        s.deploy(VmId(10), spec(16, 32, 1)).unwrap(); // pm1
        let usage = |vm: VmId| if vm.0 < 4 { 0.9 } else { 0.9 };
        // pm1: 0.9×16/32 = 0.45 -> warm.
        let model = DeploymentModel::Shared(s);
        let cfg = PressureConfig::default();
        let plan = plan_mitigation(&model, &cfg, &Budget::default(), &usage).unwrap();
        assert!(plan.is_empty(), "{}", plan.render());
        assert_eq!(plan.hot_after, plan.hot_before);
    }

    #[test]
    fn hysteresis_memory_keeps_a_cooling_pm_off_the_destination_list() {
        let (model, usage) = hotspot();
        let cfg = PressureConfig::default();
        // Pretend pm1 was hot last tick; its low score now puts it in
        // the cold range, but a previously-hot PM inside the band
        // would stay hot. Here the score is far below the band, so it
        // cools fully and still serves as a destination.
        let prev: BTreeMap<StateKey, PressureState> = [((0, PmId(1)), PressureState::Hot)].into();
        let plan = plan_mitigation_avoiding(
            &model,
            &cfg,
            &Budget::default(),
            &usage,
            &BTreeSet::new(),
            &prev,
        )
        .unwrap();
        assert!(!plan.is_empty());
    }

    #[test]
    fn dedicated_spreads_within_each_level() {
        let mut model = DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::of(32, gib(128)),
            [OversubLevel::of(1), OversubLevel::of(3)],
        ));
        // Level 1: hot pm0, cold pm1.
        for id in 0..4u64 {
            model.deploy(VmId(id), spec(8, 16, 1)).unwrap();
        }
        model.deploy(VmId(10), spec(4, 8, 1)).unwrap();
        model.deploy(VmId(11), spec(24, 16, 1)).unwrap(); // forces pm1 open
        model.remove(VmId(11)).unwrap();
        // Level 3: one idle VM.
        model.deploy(VmId(20), spec(8, 8, 3)).unwrap();
        let usage = |vm: VmId| if vm.0 < 4 { 0.9 } else { 0.05 };
        let cfg = PressureConfig::default();
        let plan = plan_mitigation(&model, &cfg, &Budget::default(), &usage).unwrap();
        assert!(!plan.is_empty(), "{}", plan.before.render());
        for mv in &plan.plan.moves {
            assert_eq!(mv.spec.level, OversubLevel::of(1), "{mv:?}");
        }
        let mut model = model;
        slackvm_rebalance::apply_plan(&mut model, &plan.plan).unwrap();
        model.check_invariants().unwrap();
    }

    #[test]
    fn planning_is_deterministic() {
        let (model, usage) = hotspot();
        let cfg = PressureConfig::default();
        let a = plan_mitigation(&model, &cfg, &Budget::default(), &usage).unwrap();
        let b = plan_mitigation(&model, &cfg, &Budget::default(), &usage).unwrap();
        assert_eq!(a, b);
    }
}
