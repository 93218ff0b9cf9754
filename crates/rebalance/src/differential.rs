//! Differential tests: the planner and validator on copy-on-write
//! [`ShadowHosts`] against the full-clone bodies they replaced
//! ([`crate::reference`]).
//!
//! Fleets come from an own SplitMix64 (no `proptest`/`rand`, so the
//! suite runs wherever the crate builds). Every plan must equal the
//! reference's move for move, and the validator must return the same
//! verdict — same variant, same message — on the fresh plan and on
//! every tampering of it.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use slackvm_hypervisor::{Host, HypervisorError, PhysicalMachine};
use slackvm_model::{gib, AllocView, OversubLevel, PmConfig, PmId, VmId, VmSpec};
use slackvm_sched::PlacementPolicy;
use slackvm_sim::{Cluster, DedicatedDeployment, DeploymentModel, SharedDeployment};
use slackvm_topology::builders::flat;

use crate::plan::{Budget, PlannedMove, RebalancePlan};
use crate::planner::{plan_cluster, plan_rebalance_avoiding, DrainStats};
use crate::reference;
use crate::shadow::ShadowHosts;
use crate::validate::{replay_move, validate_plan_avoiding};

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

/// A week in miniature: the population grows by a third of an event per
/// event for the first two thirds of the history, then shrinks, so that
/// cutting it at 30/60/85 % meets a filling, a full and a fragmented
/// fleet. Shapes come from a small catalog, so shapes repeat.
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

const LEVELS: [u32; 3] = [1, 2, 3];

fn empty_model(dedicated: bool, seed: u64) -> DeploymentModel {
    if dedicated {
        DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::of(32, gib(128)),
            LEVELS.map(OversubLevel::of),
        ))
    } else if seed & 1 == 0 {
        DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128)))
    } else {
        DeploymentModel::Shared(SharedDeployment::with_policy(
            Arc::new(flat(32)),
            gib(128),
            PlacementPolicy::FirstFit,
        ))
    }
}

/// The fleet after the first `cut_pct` percent of `steps`.
fn fleet(dedicated: bool, seed: u64, steps: &[Step], cut_pct: usize) -> DeploymentModel {
    let mut model = empty_model(dedicated, seed);
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

/// A few PM ids of the fleet, picked by the generator.
fn some_pms(rng: &mut SplitMix64, opened: u32) -> BTreeSet<PmId> {
    let n = 1 + rng.below(3);
    (0..n)
        .map(|_| PmId(rng.below(u64::from(opened.max(1))) as u32))
        .collect()
}

/// Every VM of the fleet with its spec and PM (the dedicated model's PM
/// ids are per level, as a plan's are).
fn placed(model: &DeploymentModel) -> Vec<(VmId, VmSpec, PmId)> {
    fn of<H: Host>(hosts: &[H]) -> impl Iterator<Item = (VmId, VmSpec, PmId)> + '_ {
        hosts.iter().flat_map(|host| {
            let pm = host.id();
            host.placements()
                .into_iter()
                .map(move |(vm, spec)| (vm, spec, pm))
        })
    }
    match model {
        DeploymentModel::Shared(s) => of(s.cluster.hosts()).collect(),
        DeploymentModel::Dedicated(d) => d
            .clusters()
            .flat_map(|(_, cluster)| of(cluster.hosts()))
            .collect(),
    }
}

/// The plan and its tamperings: swapped endpoints, unknown destination,
/// self-move, a destination over-filled by appended moves, a spec
/// edited by one vCPU, and a hand-made partial drain (the shape a
/// mitigation plan has).
fn tamperings(
    rng: &mut SplitMix64,
    model: &DeploymentModel,
    plan: &RebalancePlan,
) -> Vec<(&'static str, RebalancePlan)> {
    let roomy = Budget {
        max_migrations: 10_000,
        max_moved_mem_mib: gib(1 << 20),
        max_concurrent: 4,
    };
    let vms = placed(model);
    let mut out = vec![("fresh", plan.clone())];
    if !plan.moves.is_empty() {
        let k = rng.below(plan.moves.len() as u64) as usize;
        let edit = |f: &dyn Fn(&mut PlannedMove)| {
            let mut t = plan.clone();
            f(&mut t.moves[k]);
            t
        };
        out.push((
            "swapped",
            edit(&|mv| std::mem::swap(&mut mv.from, &mut mv.to)),
        ));
        out.push((
            "unknown destination",
            edit(&|mv| mv.to = PmId(model.opened_pms() + 7)),
        ));
        out.push(("self-move", edit(&|mv| mv.to = mv.from)));
        out.push((
            "one vCPU more",
            edit(&|mv| mv.spec = VmSpec::of(mv.spec.vcpus() + 1, mv.spec.mem_mib(), mv.spec.level)),
        ));
        // Everything else of the destination's level piles onto it.
        let target = plan.moves[k];
        let mut t = plan.clone();
        t.budget = roomy;
        let moved: BTreeSet<VmId> = plan.moves.iter().map(|mv| mv.vm).collect();
        for &(vm, spec, from) in &vms {
            let same_pool =
                matches!(model, DeploymentModel::Shared(_)) || spec.level == target.spec.level;
            if same_pool && from != target.to && !moved.contains(&vm) {
                t.moves.push(PlannedMove {
                    vm,
                    spec,
                    from,
                    to: target.to,
                });
            }
        }
        out.push(("over-filled", t));
    }
    if !vms.is_empty() {
        let moves = (0..1 + rng.below(6))
            .map(|_| {
                let (vm, spec, from) = vms[rng.below(vms.len() as u64) as usize];
                PlannedMove {
                    vm,
                    spec,
                    from,
                    to: PmId(rng.below(u64::from(model.opened_pms())) as u32),
                }
            })
            .collect();
        out.push((
            "random partial drain",
            RebalancePlan {
                moves,
                budget: roomy,
                ..plan.clone()
            },
        ));
    }
    out
}

/// Plans and validates one fleet under every budget and avoid variant,
/// on both implementations. Returns the number of plans compared.
fn compare_fleet(label: &str, rng: &mut SplitMix64, model: &mut DeploymentModel) -> usize {
    let mut plans = 0;
    for variant in 0..3 {
        let avoid = if variant == 0 {
            BTreeSet::new()
        } else {
            some_pms(rng, model.opened_pms())
        };
        if variant == 2 {
            // A failed PM on top of the avoid set; its VMs are gone.
            model.fail_host(PmId(rng.below(u64::from(model.opened_pms().max(1))) as u32));
        }
        for budget in budgets() {
            let ctx = format!("{label} variant {variant} budget {budget:?}");
            let plan = plan_rebalance_avoiding(model, &budget, &avoid).expect("valid budget");
            let expected =
                reference::plan_rebalance_avoiding(model, &budget, &avoid).expect("valid budget");
            assert_eq!(plan, expected, "{ctx}: plans differ");
            plans += 1;
            assert_eq!(
                validate_plan_avoiding(model, &plan, &avoid),
                Ok(()),
                "{ctx}: the fresh plan does not validate"
            );
            for (what, tampered) in tamperings(rng, model, &plan) {
                // Under the plan's own avoid set, and under one drawn
                // after planning (a PM started draining since).
                for avoid in [avoid.clone(), some_pms(rng, model.opened_pms())] {
                    assert_eq!(
                        validate_plan_avoiding(model, &tampered, &avoid),
                        reference::validate_plan_avoiding(model, &tampered, &avoid),
                        "{ctx}: verdicts differ on '{what}'"
                    );
                }
            }
        }
    }
    plans
}

/// The shared pool's plan with the counts `plan_rebalance` drops.
fn drain_stats(model: &DeploymentModel, budget: &Budget) -> (Vec<PlannedMove>, DrainStats) {
    let mut moves = Vec::new();
    let stats = match model {
        DeploymentModel::Shared(s) => plan_cluster(
            &s.cluster,
            &s.policy,
            &BTreeSet::new(),
            budget,
            &mut 0,
            &mut 0,
            &mut moves,
        ),
        DeploymentModel::Dedicated(_) => DrainStats::default(),
    };
    (moves, stats)
}

#[test]
fn differential_plans_and_verdicts_equal_the_full_clone_reference() {
    let (mut fleets, mut plans, mut moves, mut skipped) = (0, 0, 0, 0);
    for seed in 0..52u64 {
        let mut rng = SplitMix64(seed ^ 0xd1ff);
        let steps = history(seed, 260 + rng.below(700) as usize);
        for dedicated in [false, true] {
            for cut_pct in [30, 60, 85] {
                let mut model = fleet(dedicated, seed, &steps, cut_pct);
                let (m, stats) = drain_stats(&model, &Budget::default());
                moves += m.len();
                skipped += stats.victims_skipped;
                let label = format!("seed {seed} dedicated {dedicated} cut {cut_pct}%");
                plans += compare_fleet(&label, &mut rng, &mut model);
                fleets += 1;
            }
        }
    }
    assert!(fleets >= 300, "{fleets} fleets");
    // The generator must not have degenerated into fleets with nothing
    // to consolidate.
    assert!(
        moves >= fleets,
        "{moves} moves planned over {fleets} fleets"
    );
    // ... nor into fleets the dead-shape memo never meets.
    assert!(
        skipped >= 100,
        "{skipped} victims skipped over {fleets} fleets"
    );
    assert_eq!(plans, fleets * 12);
}

// ------------------------------------------------ the pathological fleet

/// `benchmark/README.md`'s pathological input — `paper_week_f(2000)`,
/// seed 16015981125662989062 of the benchmark's stand-in generator,
/// first 60 %, shared `flat(32)` pool — as data, one PM per line
/// (`vm:vcpus:GiB:level ...`), so that the test does not depend on which
/// `rand` the build resolved. A host's answers depend on which VMs it
/// holds, not on how they got there, so restoring the placements
/// restores the planning problem.
fn pathological_fleet() -> DeploymentModel {
    let mut model = DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128)));
    for (pm, line) in include_str!("testdata/pathological_fleet.txt")
        .lines()
        .enumerate()
    {
        for vm in line.split(' ') {
            let mut fields = vm.split(':').map(|f| f.parse::<u64>().expect("a number"));
            let mut field = || fields.next().expect("four fields");
            let (id, vcpus, mem_gib, level) = (field(), field(), field(), field());
            let spec = VmSpec::of(vcpus as u32, gib(mem_gib), OversubLevel::of(level as u32));
            model
                .restore_placement(VmId(id), spec, PmId(pm as u32))
                .expect("the dump is a legal fleet");
        }
    }
    model
}

#[test]
fn differential_pathological_fleet_skips_dead_shape_victims() {
    let model = pathological_fleet();
    assert_eq!((model.opened_pms(), model.active_pms()), (122, 122));
    let budget = Budget::default();
    let (moves, stats) = drain_stats(&model, &budget);
    // Victim after victim fails to drain: the budget of 32 never fills.
    assert_eq!((moves.len(), stats.freed), (8, 1), "{stats:?}");
    assert!(stats.undone_moves > 10 * moves.len() as u32, "{stats:?}");
    // Most of the rest hold a VM of a shape already seen to fit nowhere.
    assert!(stats.victims_skipped >= 50, "{stats:?}");
    let expected = reference::plan_rebalance_avoiding(&model, &budget, &BTreeSet::new())
        .expect("valid budget");
    assert_eq!(moves, expected.moves);
    assert_eq!(
        validate_plan_avoiding(&model, &expected, &BTreeSet::new()),
        Ok(())
    );
}

// ------------------------------------------------------ counting clones

/// A host that records, fleet-wide, which PM each clone was taken of.
struct Counting {
    inner: PhysicalMachine,
    cloned: Arc<Mutex<Vec<PmId>>>,
}

impl Clone for Counting {
    fn clone(&self) -> Self {
        self.cloned.lock().expect("no panics").push(self.inner.id());
        Counting {
            inner: self.inner.clone(),
            cloned: self.cloned.clone(),
        }
    }
}

impl Host for Counting {
    fn id(&self) -> PmId {
        self.inner.id()
    }
    fn config(&self) -> PmConfig {
        self.inner.config()
    }
    fn alloc(&self) -> AllocView {
        self.inner.alloc()
    }
    fn can_host(&self, spec: &VmSpec) -> bool {
        self.inner.can_host(spec)
    }
    fn deploy(&mut self, id: VmId, spec: VmSpec) -> Result<(), HypervisorError> {
        self.inner.deploy(id, spec)
    }
    fn remove(&mut self, id: VmId) -> Result<VmSpec, HypervisorError> {
        self.inner.remove(id)
    }
    fn resize_vm(&mut self, id: VmId, vcpus: u32, mem_mib: u64) -> Result<(), HypervisorError> {
        Host::resize_vm(&mut self.inner, id, vcpus, mem_mib)
    }
    fn num_vms(&self) -> usize {
        self.inner.num_vms()
    }
    fn vm_ids(&self) -> Vec<VmId> {
        self.inner.vm_ids()
    }
    fn placements(&self) -> Vec<(VmId, VmSpec)> {
        self.inner.placements()
    }
}

struct CountedFleet {
    cluster: Cluster<Counting>,
    cloned: Arc<Mutex<Vec<PmId>>>,
}

impl CountedFleet {
    /// A First-Fit fleet of at least `min_pms` PMs at the 85 % cut of a
    /// long history.
    fn of_at_least(min_pms: u32) -> CountedFleet {
        let cloned = Arc::new(Mutex::new(Vec::new()));
        let topology = Arc::new(flat(32));
        let log = cloned.clone();
        let mut cluster = Cluster::new(move |pm| Counting {
            inner: PhysicalMachine::with_topology_policy(pm, topology.clone(), gib(128)),
            cloned: log.clone(),
        });
        let steps = history(11, 4_000);
        for step in &steps[..steps.len() * 85 / 100] {
            match step {
                Step::Arrive(id, spec) => {
                    cluster
                        .deploy(*id, *spec, &PlacementPolicy::FirstFit)
                        .expect("unbounded fleet admits");
                }
                Step::Depart(id) => {
                    cluster.remove(*id).expect("alive VM departs");
                }
            }
        }
        assert!(cluster.opened() >= min_pms, "only {} PMs", cluster.opened());
        CountedFleet { cluster, cloned }
    }

    /// The PMs cloned since the last call — by one shadow, so none twice.
    fn cloned_by_one_shadow(&self) -> Vec<PmId> {
        let pms = std::mem::take(&mut *self.cloned.lock().expect("no panics"));
        let distinct: BTreeSet<PmId> = pms.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            pms.len(),
            "a host was cloned twice: {pms:?}"
        );
        pms
    }
}

#[test]
fn differential_shadow_hosts_clone_only_what_a_move_touches() {
    let fleet = CountedFleet::of_at_least(100);
    let none = BTreeSet::new();

    // Reading never clones; writing clones once per host, undo or not.
    let mut shadow = ShadowHosts::of(&fleet.cluster, &none);
    for i in 0..shadow.len() {
        assert_eq!(shadow.get(i).id(), PmId(i as u32));
    }
    assert_eq!(fleet.cloned_by_one_shadow(), [], "get() cloned");
    let (vm, _) = shadow.get(3).placements()[0];
    let spec = shadow.get_mut(3).remove(vm).expect("hosted");
    shadow.get_mut(3).deploy(vm, spec).expect("its own VM");
    assert_eq!(
        shadow.get(3).placements(),
        fleet.cluster.hosts()[3].placements()
    );
    assert_eq!(fleet.cloned_by_one_shadow(), [PmId(3)]);
    drop(shadow);

    // A whole plan clones the hosts its trial moves touched, nothing else.
    let (mut used_moves, mut used_mem, mut moves) = (0, 0, Vec::new());
    let stats = plan_cluster(
        &fleet.cluster,
        &PlacementPolicy::FirstFit,
        &none,
        &Budget {
            max_migrations: 64,
            max_moved_mem_mib: gib(1024),
            max_concurrent: 4,
        },
        &mut used_moves,
        &mut used_mem,
        &mut moves,
    );
    let planning = fleet.cloned_by_one_shadow().len();
    assert!(!moves.is_empty() && stats.undone_moves > 0, "{stats:?}");
    assert_eq!(
        stats.trial_moves as usize,
        moves.len() + stats.undone_moves as usize
    );
    assert!(
        planning <= 2 * stats.trial_moves as usize,
        "{planning} clones, {stats:?}"
    );

    // So does validating it: exactly the endpoints of its moves.
    let mut shadow = ShadowHosts::of(&fleet.cluster, &none);
    for mv in &moves {
        replay_move(&mut shadow, mv).expect("a fresh plan validates");
    }
    let validating: BTreeSet<PmId> = fleet.cloned_by_one_shadow().into_iter().collect();
    let endpoints: BTreeSet<PmId> = moves.iter().flat_map(|mv| [mv.from, mv.to]).collect();
    assert_eq!(validating, endpoints);
    // Together a fraction of the fleet, where both used to clone all of it.
    assert!(
        planning + validating.len() < fleet.cluster.opened() as usize,
        "{planning} + {} clones of {} PMs",
        validating.len(),
        fleet.cluster.opened()
    );
}
