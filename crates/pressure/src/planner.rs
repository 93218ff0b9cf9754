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

use std::collections::{BTreeMap, BTreeSet, HashMap};

use slackvm_hypervisor::Host;
use slackvm_model::{PmId, VmId, VmSpec};
use slackvm_rebalance::{Budget, PlannedMove, RebalanceError, RebalancePlan, ShadowHosts};
use slackvm_sched::{Candidate, CandidateIndex, PlacementPolicy};
use slackvm_sim::{index_entry, Cluster, DeploymentModel};

use crate::score::{
    read_model, report_of, score_of, weighted_demand, PmReading, PressureConfig, PressureReport,
    PressureState, StateKey, VmRow,
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
///
/// `usage` must be pure — the same fraction for the same VM however
/// often it is asked. It is read **once per placed VM per plan**; the
/// report, the victim order, every destination test and the predicted
/// states all derive from that one reading.
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
/// `usage` as for [`plan_mitigation`].
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

    let readings = read_model(model, config, usage, prev);
    let before = report_of(&readings);
    let mut round = Round {
        config,
        budget,
        avoid,
        used_moves: 0,
        used_mem: 0,
        moves: Vec::new(),
        states_after: BTreeMap::new(),
        freed: 0,
    };

    let mut readings = readings.into_iter();
    let mut next = || readings.next().expect("one reading per (sub)cluster");
    match model {
        DeploymentModel::Shared(s) => round.mitigate_cluster(&s.cluster, &s.policy, next()),
        DeploymentModel::Dedicated(d) => {
            // The baseline packs First-Fit; spreading must not be
            // smarter than admission.
            let first_fit = PlacementPolicy::FirstFit;
            for (_, cluster) in d.clusters() {
                round.mitigate_cluster(cluster, &first_fit, next());
            }
        }
    }
    let Round {
        used_mem,
        moves,
        states_after,
        freed,
        ..
    } = round;

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

/// What one planning round carries from (sub)cluster to (sub)cluster.
struct Round<'a> {
    config: &'a PressureConfig,
    budget: &'a Budget,
    avoid: &'a BTreeSet<PmId>,
    used_moves: u32,
    used_mem: u64,
    moves: Vec<PlannedMove>,
    states_after: BTreeMap<StateKey, PressureState>,
    freed: u32,
}

impl Round<'_> {
    /// Mitigates one (sub)cluster's hot PMs on shadow hosts, from the
    /// `reading` taken of it: `reading[i].pressure` holds PM `i`'s
    /// entering score and classification, `reading[i].rows` its VMs.
    fn mitigate_cluster<H: Host + Clone>(
        &mut self,
        cluster: &Cluster<H>,
        policy: &PlacementPolicy,
        mut reading: Vec<PmReading>,
    ) {
        let (config, budget) = (self.config, self.budget);
        let mut shadow = ShadowHosts::of(cluster, self.avoid);
        // Each PM's classification entering this round — the hysteresis
        // memory every in-round reclassification builds on (a hot PM
        // that only cools into the band must stay hot).
        let state0: Vec<PressureState> = reading.iter().map(|r| r.pressure.state).collect();
        // Each PM's score as the plan so far left it. Only the two PMs a
        // move touches are refreshed, by re-summing their rows.
        let mut now: Vec<f64> = reading.iter().map(|r| r.pressure.score).collect();

        // Hottest first: the PM deepest into saturation is degrading its
        // tenants hardest right now.
        let mut hot: Vec<usize> = (0..shadow.len())
            .filter(|&i| !shadow.is_blocked(i) && state0[i] == PressureState::Hot)
            .collect();
        hot.sort_by(|&a, &b| {
            now[b]
                .total_cmp(&now[a])
                .then(reading[a].pressure.pm.cmp(&reading[b].pressure.pm))
        });

        // Destinations: cold, unblocked PMs only (empty-but-opened PMs
        // included — spreading out *wants* headroom, unlike consolidation).
        let mut index = CandidateIndex::new();
        for (i, &state) in state0.iter().enumerate() {
            let host = shadow.get(i);
            debug_assert_eq!(host.id().0 as usize, i, "hosts are dense by PmId");
            if !shadow.is_blocked(i) && state == PressureState::Cold {
                let (candidate, key) = index_entry(host);
                index.upsert(candidate, key);
            }
        }

        // The least demand of each shape that found no destination. A
        // destination only ever receives VMs in a mitigation plan
        // (sources entered hot and never join the index; a destination
        // that warms is retired, none is added), so `can_host(spec)` and
        // `now + add / cores < hot_exit` can only turn false: once
        // `(spec, add)` had no destination, a VM of the same shape
        // demanding at least as much has none either, and the gather is
        // skipped.
        let mut no_destination: HashMap<VmSpec, f64> = HashMap::new();
        let mut buf: Vec<Candidate> = Vec::new();
        let mut budget_full = false;
        for &h in &hot {
            let victim_pm = reading[h].pressure.pm;
            // Highest usage-per-freed-core first: the busiest VM
            // removes the most demand for each core's worth of churn.
            // The order is total and a move only takes its VM out of it,
            // so it is sorted once per PM.
            let mut order: Vec<VmRow> = reading[h].rows.clone();
            order.sort_by(|a, b| {
                b.usage
                    .total_cmp(&a.usage)
                    .then(b.spec.vcpus().cmp(&a.spec.vcpus()))
                    .then(a.vm.cmp(&b.vm))
            });
            // Drain the busiest VMs until the PM cools through the
            // hysteresis exit or nothing movable remains.
            loop {
                if budget_full {
                    break;
                }
                if now[h] < config.hot_exit {
                    break; // cooled — partial mitigation is a win.
                }
                let mut moved = None;
                for (at, row) in order.iter().enumerate() {
                    let spec = &row.spec;
                    if self.used_moves >= budget.max_migrations {
                        budget_full = true;
                        break;
                    }
                    if self.used_mem + spec.mem_mib() > budget.max_moved_mem_mib {
                        // This VM busts the memory budget; a smaller one
                        // may still fit.
                        continue;
                    }
                    let add = row.demand(config);
                    if no_destination.get(spec).is_some_and(|&least| add >= least) {
                        continue;
                    }
                    index.gather_into(&mut buf, spec.mem_mib(), spec.vcpus());
                    buf.retain(|c| {
                        let i = c.id.0 as usize;
                        // Still cold now (earlier moves may have warmed
                        // it), and predicted to stay out of the hot band
                        // after absorbing this VM — two float tests on
                        // the cached score before the host is asked.
                        config.classify(now[i], Some(state0[i])) == PressureState::Cold
                            && now[i] + add / (reading[i].pressure.cores.max(1) as f64)
                                < config.hot_exit
                            && shadow.get(i).can_host(spec)
                    });
                    let Some(to) = policy.select(&buf, spec) else {
                        no_destination
                            .entry(*spec)
                            .and_modify(|least| *least = least.min(add))
                            .or_insert(add);
                        continue;
                    };
                    let t = to.0 as usize;
                    let lifted = shadow
                        .get_mut(h)
                        .remove(row.vm)
                        .expect("victim hosts the vm");
                    shadow
                        .get_mut(t)
                        .deploy(row.vm, lifted)
                        .expect("can_host admitted the vm");
                    // Move the row with the VM and refresh the two PMs.
                    let from_at = reading[h]
                        .rows
                        .binary_search_by_key(&row.vm, |r| r.vm)
                        .expect("the victim's rows hold the vm");
                    reading[h].rows.remove(from_at);
                    let to_at = reading[t].rows.partition_point(|r| r.vm < row.vm);
                    reading[t].rows.insert(to_at, *row);
                    for i in [h, t] {
                        debug_assert!(
                            reading[i]
                                .rows
                                .iter()
                                .map(|r| (r.vm, r.spec))
                                .eq(shadow.get(i).placements()),
                            "pm-{i}: cached rows drifted from placements()"
                        );
                        now[i] = score_of(
                            weighted_demand(&reading[i].rows, config),
                            reading[i].pressure.cores,
                        );
                    }
                    let (entry, key) = index_entry(shadow.get(t));
                    if config.classify(now[t], Some(state0[t])) == PressureState::Cold {
                        index.upsert(entry, key);
                    } else {
                        // The destination warmed up; it receives no more.
                        index.retire(to);
                    }
                    self.used_moves += 1;
                    self.used_mem += lifted.mem_mib();
                    self.moves.push(PlannedMove {
                        vm: row.vm,
                        spec: lifted,
                        from: victim_pm,
                        to,
                    });
                    moved = Some(at);
                    break;
                }
                let Some(at) = moved else {
                    break; // nothing movable — leave the PM as mitigated as it got.
                };
                order.remove(at);
            }
            if shadow.get(h).num_vms() == 0 {
                self.freed += 1;
            }
        }

        // Predicted post-apply classification, hysteresis-aware: what the
        // online executor remembers for the next tick.
        for (i, pm) in reading.iter().enumerate() {
            self.states_after.insert(
                (pm.pressure.level, pm.pressure.pm),
                config.classify(now[i], Some(state0[i])),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::score_pressure;
    use slackvm_model::{gib, OversubLevel, PmConfig};
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
