//! Differential tests: the planner that reads the fleet once against
//! the bodies it replaced ([`crate::reference`]) — every host cloned,
//! the fleet scored three times, `score_host` re-run per candidate.
//!
//! Fleets come from an own SplitMix64 (no `proptest`/`rand`, so the
//! suite runs wherever the crate builds). Every [`MitigationPlan`] must
//! equal the reference's — moves, accounting, predicted states, and the
//! `before` report's floats bit for bit — and validate.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use slackvm_hypervisor::Host;
use slackvm_model::{gib, OversubLevel, PmConfig, PmId, VmId, VmSpec};
use slackvm_rebalance::{validate_plan_avoiding, Budget};
use slackvm_sched::PlacementPolicy;
use slackvm_sim::{DedicatedDeployment, DeploymentModel, SharedDeployment};
use slackvm_topology::builders::flat;

use crate::planner::{plan_mitigation, plan_mitigation_avoiding, MitigationPlan};
use crate::reference;
use crate::score::{score_pressure, PressureConfig, PressureReport, PressureState, StateKey};
use crate::signal::{for_each_placed, synth_frac};

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One step of a fleet's history.
enum Step {
    Arrive(VmId, VmSpec),
    Depart(VmId),
}

/// A week in miniature (the generator of `slackvm-rebalance`'s
/// differential suite): growth for two thirds of the history, then
/// decline, so that cutting at 30/60/85 % meets a filling, a full and a
/// fragmented fleet; shapes from a small catalog, so shapes repeat.
fn history(seed: u64, events: usize) -> Vec<Step> {
    let mut rng = SplitMix64(seed);
    let mut alive: Vec<VmId> = Vec::new();
    let mut steps = Vec::with_capacity(events);
    for i in 0..events {
        let leaving = if i * 3 < events * 2 { 3 } else { 6 };
        if alive.len() > 3 && rng.below(9) < leaving {
            let at = rng.below(alive.len() as u64) as usize;
            steps.push(Step::Depart(alive.swap_remove(at)));
        } else {
            let vcpus = [1, 2, 2, 4, 4, 8, 8, 16][rng.below(8) as usize];
            let mem = gib(u64::from(vcpus) * [1, 2, 4, 8][rng.below(4) as usize]).min(gib(96));
            let level = OversubLevel::of([1, 1, 2, 3][rng.below(4) as usize]);
            let id = VmId(i as u64);
            alive.push(id);
            steps.push(Step::Arrive(id, VmSpec::of(vcpus, mem, level)));
        }
    }
    steps
}

/// The fleet after the first `cut_pct` percent of `steps`: the
/// dedicated baseline, or the shared pool under either policy.
fn fleet(dedicated: bool, seed: u64, steps: &[Step], cut_pct: usize) -> DeploymentModel {
    let mut model = if dedicated {
        DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::of(32, gib(128)),
            [1, 2, 3].map(OversubLevel::of),
        ))
    } else if seed & 1 == 0 {
        DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128)))
    } else {
        DeploymentModel::Shared(SharedDeployment::with_policy(
            Arc::new(flat(32)),
            gib(128),
            PlacementPolicy::FirstFit,
        ))
    };
    for step in &steps[..steps.len() * cut_pct / 100] {
        match step {
            Step::Arrive(id, spec) => {
                model.deploy(*id, *spec).expect("unbounded fleet admits");
            }
            Step::Depart(id) => {
                model.remove(*id).expect("alive VM departs");
            }
        }
    }
    model
}

fn budgets() -> [Budget; 4] {
    [
        Budget::default(),
        Budget {
            max_migrations: 8,
            ..Budget::default()
        },
        Budget {
            max_moved_mem_mib: gib(24),
            ..Budget::default()
        },
        Budget {
            max_migrations: 200,
            max_moved_mem_mib: gib(4096),
            max_concurrent: 4,
        },
    ]
}

fn some_pm(rng: &mut SplitMix64, model: &DeploymentModel) -> PmId {
    PmId(rng.below(u64::from(model.opened_pms().max(1))) as u32)
}

/// Hysteresis memory drawn at random: most PMs remembered in some
/// state, some forgotten.
fn random_memory(
    rng: &mut SplitMix64,
    report: &PressureReport,
) -> BTreeMap<StateKey, PressureState> {
    let states = [PressureState::Cold, PressureState::Warm, PressureState::Hot];
    report
        .pms
        .iter()
        .filter_map(|p| {
            let pick = rng.below(4) as usize;
            (pick < 3).then(|| ((p.level, p.pm), states[pick]))
        })
        .collect()
}

/// `PartialEq` on a report compares floats by value; the cached scores
/// promise more.
fn assert_same_bits(a: &PressureReport, b: &PressureReport, ctx: &str) {
    assert_eq!(a.pms.len(), b.pms.len(), "{ctx}");
    for (x, y) in a.pms.iter().zip(&b.pms) {
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{ctx}: score of {:?}",
            x.pm
        );
        assert_eq!(
            x.demand_cores.to_bits(),
            y.demand_cores.to_bits(),
            "{ctx}: demand of {:?}",
            x.pm
        );
    }
}

fn assert_same_plan(plan: &MitigationPlan, expected: &MitigationPlan, ctx: &str) {
    assert_eq!(plan.plan, expected.plan, "{ctx}: moves differ");
    assert_eq!(
        plan.states_after, expected.states_after,
        "{ctx}: predicted states differ"
    );
    assert_eq!(plan, expected, "{ctx}");
    assert_same_bits(&plan.before, &expected.before, ctx);
}

/// Plans one fleet under every hot fraction, budget and avoid/memory
/// variant on both implementations. Returns (plans compared, moves).
fn compare_fleet(
    label: &str,
    seed: u64,
    rng: &mut SplitMix64,
    model: &mut DeploymentModel,
) -> (usize, usize) {
    let config = PressureConfig::default();
    let (mut plans, mut moves) = (0, 0);
    for variant in 0..3 {
        let mut avoid = BTreeSet::new();
        if variant > 0 {
            avoid.extend((0..1 + rng.below(3)).map(|_| some_pm(rng, model)));
        }
        if variant == 2 {
            // A failed PM on top of the avoid set; its VMs are gone.
            model.fail_host(some_pm(rng, model));
        }
        for hot_frac in [0.2, 0.5, 0.8] {
            let usage = |vm: VmId| synth_frac(seed, vm, hot_frac);
            let prev = if variant == 2 {
                random_memory(
                    rng,
                    &score_pressure(model, &config, &usage, &BTreeMap::new()),
                )
            } else {
                BTreeMap::new()
            };
            let ctx = format!("{label} variant {variant} hot {hot_frac}");
            assert_same_bits(
                &score_pressure(model, &config, &usage, &prev),
                &reference::score_pressure(model, &config, &usage, &prev),
                &ctx,
            );
            for budget in budgets() {
                let ctx = format!("{ctx} budget {budget:?}");
                let plan = plan_mitigation_avoiding(model, &config, &budget, &usage, &avoid, &prev)
                    .expect("valid budget and thresholds");
                let expected = reference::plan_mitigation_avoiding(
                    model, &config, &budget, &usage, &avoid, &prev,
                )
                .expect("valid budget and thresholds");
                assert_same_plan(&plan, &expected, &ctx);
                assert_eq!(
                    validate_plan_avoiding(model, &plan.plan, &avoid),
                    Ok(()),
                    "{ctx}: the fresh plan does not validate"
                );
                plans += 1;
                moves += plan.len();
            }
        }
    }
    (plans, moves)
}

#[test]
fn differential_plans_equal_the_thrice_scoring_reference() {
    let (mut fleets, mut plans, mut moves) = (0, 0, 0);
    for seed in 0..52u64 {
        let mut rng = SplitMix64(seed ^ 0xd1ff);
        let steps = history(seed, 260 + rng.below(700) as usize);
        for dedicated in [false, true] {
            for cut_pct in [30, 60, 85] {
                let mut model = fleet(dedicated, seed, &steps, cut_pct);
                let label = format!("seed {seed} dedicated {dedicated} cut {cut_pct}%");
                let (p, m) = compare_fleet(&label, seed, &mut rng, &mut model);
                plans += p;
                moves += m;
                fleets += 1;
            }
        }
    }
    assert!(fleets >= 300, "{fleets} fleets");
    assert_eq!(plans, fleets * 36);
    // The generator must not have degenerated into fleets with nothing
    // hot, or nowhere cold to go.
    assert!(
        moves >= 4 * fleets,
        "{moves} moves planned over {fleets} fleets"
    );
}

/// `usage` behind a call counter.
fn counted(calls: &Cell<usize>, seed: u64) -> impl Fn(VmId) -> f64 + '_ {
    move |vm| {
        calls.set(calls.get() + 1);
        synth_frac(seed, vm, 0.2)
    }
}

#[test]
fn differential_usage_is_read_once_per_vm() {
    let steps = history(5, 900);
    for dedicated in [false, true] {
        let model = fleet(dedicated, 5, &steps, 60);
        let mut vms = 0;
        for_each_placed(&model, &mut |_| vms += 1);
        assert!(vms > 100, "{vms} VMs");
        let config = PressureConfig::default();

        let calls = Cell::new(0);
        let report = score_pressure(&model, &config, &counted(&calls, 5), &BTreeMap::new());
        assert_eq!(calls.get(), vms, "score_pressure");
        assert!(report.hot() > 0 && report.cold() > 0, "{}", report.render());

        let calls = Cell::new(0);
        let plan = plan_mitigation(&model, &config, &Budget::default(), &counted(&calls, 5))
            .expect("valid budget and thresholds");
        assert!(!plan.is_empty(), "{}", plan.render());
        assert_eq!(calls.get(), vms, "plan_mitigation of {} moves", plan.len());
    }
}

#[test]
fn differential_observe_model_feeds_each_placed_vm_once_in_ascending_order() {
    use crate::estimator::UsageTracker;
    use crate::signal::observe_model;

    let steps = history(9, 600);
    let mut model = fleet(true, 9, &steps, 60);
    let mut tracker = UsageTracker::new(Default::default());
    let seen = std::cell::RefCell::new(Vec::new());
    observe_model(&mut tracker, &model, |vm| {
        seen.borrow_mut().push(vm);
        synth_frac(9, vm, 0.5)
    });
    let mut placed = Vec::new();
    for_each_placed(&model, &mut |vm| placed.push(vm));
    placed.sort_unstable();
    assert_eq!(*seen.borrow(), placed);
    assert_eq!(tracker.len(), placed.len());

    // Departed VMs are forgotten, the rest keep their history.
    let gone: Vec<VmId> = placed.iter().copied().step_by(3).collect();
    for vm in &gone {
        model.remove(*vm).expect("placed VM departs");
    }
    let kept = tracker.demand(placed[1]);
    observe_model(&mut tracker, &model, |vm| synth_frac(9, vm, 0.5));
    assert_eq!(tracker.len(), placed.len() - gone.len());
    assert_eq!(tracker.demand(gone[0]), 0.0);
    assert_eq!(tracker.demand(placed[1]).to_bits(), kept.to_bits());
}

#[test]
fn differential_hosts_are_read_in_placements_order() {
    // The summation rule rests on `placements()` being ascending by id.
    let steps = history(2, 500);
    for dedicated in [false, true] {
        let model = fleet(dedicated, 2, &steps, 85);
        let sorted = |rows: Vec<(VmId, VmSpec)>| rows.windows(2).all(|w| w[0].0 < w[1].0);
        match &model {
            DeploymentModel::Shared(s) => {
                assert!(s.cluster.hosts().iter().all(|h| sorted(h.placements())));
            }
            DeploymentModel::Dedicated(d) => {
                for (_, cluster) in d.clusters() {
                    assert!(cluster.hosts().iter().all(|h| sorted(h.placements())));
                }
            }
        }
    }
}
