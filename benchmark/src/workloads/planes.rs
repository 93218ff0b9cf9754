//! `plan_rebalance` and `plan_pressure`: the two background planners on
//! a mid-week fragmented fleet. Ticks run inside the shard worker, so a
//! plan's duration is an admission stall; neither workload touches the
//! admission path, which separates planner gains from request-path
//! gains.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use slackvm_model::gib;
use slackvm_pressure::{
    observe_model, plan_mitigation, score_pressure, synth_frac, PressureConfig, UsageTracker,
};
use slackvm_rebalance::{plan_rebalance, score_model, validate_plan, Budget, RebalancePlan};
use slackvm_sim::{DeploymentModel, SharedDeployment};
use slackvm_topology::builders::flat;
use slackvm_workload::WorkloadEvent;

use super::{
    layer_metrics, timed_reps, week_f, write_trace, Oracles, Rep, RunArgs, RunOutput, Sizes,
    Workload,
};
use crate::metrics::LayerTable;
use crate::spans::{Tracer, NO_PARENT};

/// Share of VMs the synthesized usage signal makes hot.
const HOT_FRAC: f64 = 0.5;
/// Plans per timed repetition.
const PLANS_PER_REP: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    Rebalance,
    Pressure,
}

impl Plane {
    fn workload_name(self) -> &'static str {
        match self {
            Plane::Rebalance => "plan_rebalance",
            Plane::Pressure => "plan_pressure",
        }
    }
}

/// The fleet both planners read, and the usage the pressure plane sees.
pub struct Fleet {
    model: DeploymentModel,
    tracker: UsageTracker,
    usage_seed: u64,
    generate_ms: f64,
    events: usize,
    /// The first plan made; every later one must equal it.
    first: Option<RebalancePlan>,
}

impl Fleet {
    /// Replays the first `plan_cut_pct` percent of the week into a
    /// shared pool, then folds one usage sample per placed VM through
    /// the tracker, as the serve tick does before it plans.
    fn setup(sizes: &Sizes, seed: u64, oracles: &mut Oracles) -> Fleet {
        let week = week_f(sizes.population, seed, oracles);
        let mut model =
            DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128)));
        let events = week.workload.events.len() * sizes.plan_cut_pct / 100;
        for (_, event) in &week.workload.events[..events] {
            let applied = match event {
                WorkloadEvent::Arrival(vm) => model.deploy(vm.id, vm.spec).is_ok(),
                WorkloadEvent::Departure { id } => model.remove(*id).is_ok(),
                WorkloadEvent::Resize { .. } => true,
            };
            oracles.check(applied, || format!("set-up replay: {event:?} failed"));
        }
        let mut tracker = UsageTracker::new(Default::default());
        observe_model(&mut tracker, &model, |vm| synth_frac(seed, vm, HOT_FRAC));
        Fleet {
            model,
            tracker,
            usage_seed: seed,
            generate_ms: week.generate_ms,
            events,
            first: None,
        }
    }

    /// One tick's planning work; returns the checked plan.
    fn plan(&self, plane: Plane, oracles: &mut Oracles) -> RebalancePlan {
        let budget = Budget::default();
        let plan = match plane {
            Plane::Rebalance => plan_rebalance(&self.model, &budget),
            Plane::Pressure => {
                plan_mitigation(&self.model, &PressureConfig::default(), &budget, &|vm| {
                    self.tracker.demand(vm)
                })
                .map(|m| m.plan)
            }
        }
        .expect("the default budget and thresholds are valid");
        let valid = validate_plan(&self.model, &plan);
        oracles.check(valid.is_ok(), || format!("validate_plan: {valid:?}"));
        plan
    }
}

/// One of the two planners as a workload.
pub struct Plan(pub Plane);

impl Workload for Plan {
    type State = Fleet;

    fn name(&self) -> &'static str {
        self.0.workload_name()
    }

    /// How long a plan takes depends on the fleet more than anything
    /// else measured here (a quarter either way between seeds), and a
    /// fleet is cheap to build: twice the inputs.
    fn inputs(&self, sizes: &Sizes) -> usize {
        sizes.inputs * 2
    }

    fn setup(&self, sizes: &Sizes, seed: u64, oracles: &mut Oracles) -> Fleet {
        Fleet::setup(sizes, seed, oracles)
    }

    /// A repetition is a batch of ticks, so that each has a median and
    /// a tail of its own. Ops are plans, per second spent planning.
    fn rep(&self, fleet: &mut Fleet, _: &Sizes, oracles: &mut Oracles) -> Rep {
        let mut rep = Rep::default();
        for _ in 0..PLANS_PER_REP {
            let t = Instant::now();
            let plan = fleet.plan(self.0, oracles);
            let wall = t.elapsed();
            rep.wall_s += wall.as_secs_f64();
            rep.lat_ns.push(wall.as_nanos() as u64);
            match &fleet.first {
                None => {
                    oracles.check(!plan.moves.is_empty(), || {
                        format!("{}: the plan is empty", self.name())
                    });
                    fleet.first = Some(plan);
                }
                Some(first) => oracles.check(plan == *first, || {
                    "the plan differs between iterations".to_string()
                }),
            }
        }
        rep.ops = PLANS_PER_REP as u64;
        rep.attempted = PLANS_PER_REP as u64;
        rep
    }

    fn finish(&self, fleet: Fleet, _: &Sizes, _: &mut Oracles) -> u32 {
        fleet.model.opened_pms()
    }

    fn traced(&self, args: &RunArgs) -> RunOutput {
        let mut oracles = Oracles::default();
        let fleet = Fleet::setup(&args.sizes, args.seed, &mut oracles);
        traced(self.0, &fleet, args, oracles)
    }
}

// ---------------------------------------------------------------- traced

/// The consolidation plane's public calls, each under its own span:
/// first the two the untraced tick makes, in its order, so that their
/// sum compares with it; then the scorer.
/// Returns the nanoseconds of plan + validate and whether the plan
/// validated.
fn trace_rebalance(fleet: &Fleet, tracer: &mut Tracer, t: &mut LayerTable) -> (u64, bool) {
    let budget = Budget::default();
    let t0 = tracer.now();
    let plan = plan_rebalance(&fleet.model, &budget).expect("valid budget");
    let t1 = tracer.now();
    let ok = validate_plan(&fleet.model, &plan).is_ok();
    let t2 = tracer.now();
    black_box(score_model(&fleet.model));
    let t3 = tracer.now();
    tracer.push("rebalance.plan", t0, t1, NO_PARENT, 0);
    tracer.push("rebalance.validate", t1, t2, NO_PARENT, 0);
    tracer.push("rebalance.score", t2, t3, NO_PARENT, 0);
    t.set("rebalance.calls", 3.0);
    t.set("rebalance.plan_us", us(t0, t1));
    t.set("rebalance.validate_us", us(t1, t2));
    t.set("rebalance.score_us", us(t2, t3));
    t.set("rebalance.moves", plan.moves.len() as f64);
    t.set("rebalance.pms_freed", f64::from(plan.pms_freed));
    (t2 - t0, ok)
}

/// The mitigation plane's public calls, each under its own span: first
/// the two the untraced tick makes, then the scorer and the usage fold
/// the serve tick runs before planning.
/// Returns the nanoseconds of plan + validate and whether the plan
/// validated.
fn trace_pressure(fleet: &Fleet, tracer: &mut Tracer, t: &mut LayerTable) -> (u64, bool) {
    let budget = Budget::default();
    let config = PressureConfig::default();
    let usage = |vm| fleet.tracker.demand(vm);
    let t0 = tracer.now();
    let plan = plan_mitigation(&fleet.model, &config, &budget, &usage).expect("valid budget");
    let t1 = tracer.now();
    let ok = validate_plan(&fleet.model, &plan.plan).is_ok();
    let t2 = tracer.now();
    let report = score_pressure(&fleet.model, &config, &usage, &BTreeMap::new());
    let t3 = tracer.now();
    let mut tracker = fleet.tracker.clone();
    let t4 = tracer.now();
    observe_model(&mut tracker, &fleet.model, |vm| {
        synth_frac(fleet.usage_seed, vm, HOT_FRAC)
    });
    let t5 = tracer.now();
    tracer.push("pressure.plan", t0, t1, NO_PARENT, 1);
    // The mitigation plan is the same checked artifact; so is its check.
    tracer.push("rebalance.validate", t1, t2, NO_PARENT, 1);
    tracer.push("pressure.score", t2, t3, NO_PARENT, 1);
    tracer.push("pressure.observe", t4, t5, NO_PARENT, 1);
    t.set("pressure.calls", 3.0);
    t.set("pressure.plan_us", us(t0, t1));
    t.set("pressure.score_us", us(t2, t3));
    t.set("pressure.observe_us", us(t4, t5));
    t.set("pressure.moves", plan.plan.moves.len() as f64);
    t.set("pressure.hot_pms", f64::from(report.hot()));
    (t2 - t0, ok)
}

fn us(from_ns: u64, to_ns: u64) -> f64 {
    (to_ns - from_ns) as f64 / 1e3
}

fn traced(plane: Plane, fleet: &Fleet, args: &RunArgs, mut oracles: Oracles) -> RunOutput {
    let mut tracer = Tracer::new();
    let mut tables = Vec::new();
    let mut failed = 0u64;
    let reps = timed_reps(args.seconds, 2, || {
        tracer.spans.clear();
        let mut t = LayerTable::new();
        // The untraced tick (the second of two, so that it starts as
        // warm as what follows) and, straight after it, the same tick
        // with a stamp between its calls. The other plane comes last,
        // for its per-layer rows only.
        black_box(fleet.plan(plane, &mut oracles));
        let start = Instant::now();
        black_box(fleet.plan(plane, &mut oracles));
        let plain_ns = start.elapsed().as_nanos() as f64;
        let ((tick_ns, own_ok), (_, other_ok)) = match plane {
            Plane::Rebalance => (
                trace_rebalance(fleet, &mut tracer, &mut t),
                trace_pressure(fleet, &mut tracer, &mut t),
            ),
            Plane::Pressure => (
                trace_pressure(fleet, &mut tracer, &mut t),
                trace_rebalance(fleet, &mut tracer, &mut t),
            ),
        };
        failed += u64::from(!(own_ok && other_ok));
        t.set("workload.generate_ms", fleet.generate_ms);
        t.set("workload.events", fleet.events as f64);
        t.set("trace.spans", tracer.spans.len() as f64);
        t.set("trace.overhead_frac", tick_ns as f64 / plain_ns - 1.0);
        // Every public call of a tick is its own span: nothing is left
        // for a remainder to hide.
        t.set("trace.unattributed_frac", 0.0);
        tables.push(t);
    });
    write_trace(plane.workload_name(), &tracer);
    oracles.check(failed == 0, || {
        format!("{failed} traced plans failed validation")
    });
    RunOutput {
        attempted: reps as u64,
        failed,
        metrics: layer_metrics(&tables),
        oracle_failures: oracles.into_failures(),
    }
}
