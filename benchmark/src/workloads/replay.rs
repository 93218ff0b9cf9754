//! `replay_shared`, `replay_dedicated`, `replay_epyc`: the paper's
//! week-F trace through `run_packing`.
//!
//! Untraced, a repetition is one `run_packing` call (throughput) and
//! one benchmark-driven pass over the same event order that stamps each
//! arrival's `DeploymentModel::deploy` (decision latency). Traced, the
//! driven pass records a span per event and logs every decision; the log
//! is then re-driven onto bare hosts behind a mirrored `CandidateIndex`
//! to time the `sched` and `hypervisor` layers, which the real model
//! keeps private.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use slackvm_hypervisor::{Host, PhysicalMachine, UniformMachine};
use slackvm_model::{gib, OversubLevel, PmConfig, PmId, VmId, VmSpec};
use slackvm_sched::{AdmissionKey, Candidate, CandidateIndex, PlacementPolicy};
use slackvm_sim::{
    run_packing, DedicatedDeployment, DeploymentModel, PackingOutcome, SharedDeployment,
};
use slackvm_topology::builders::{dual_epyc_7662, flat};
use slackvm_topology::{
    core_distance, CoreId, CpuTopology, DistanceMatrix, SelectionPolicy, TopologySelection,
};
use slackvm_workload::WorkloadEvent;

use super::{
    layer_metrics, timed_reps, week_f, write_trace, Oracles, Rep, RunArgs, RunOutput, Sizes, Trace,
    Workload,
};
use crate::metrics::LayerTable;
use crate::spans::{aggregate, Agg, SpanId, Tracer, NO_PARENT};
use crate::stats::median;

/// Which fleet the trace is packed onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// Shared pool of `flat(32)` / 128 GiB workers, progress+bestfit.
    SharedFlat32,
    /// Dedicated per-level clusters of 32-core / 128 GiB workers,
    /// First-Fit, levels 1/2/3.
    DedicatedFlat32,
    /// Shared pool of `dual_epyc_7662()` / 1 TiB workers.
    SharedEpyc,
}

impl Fleet {
    fn workload_name(self) -> &'static str {
        match self {
            Fleet::SharedFlat32 => "replay_shared",
            Fleet::DedicatedFlat32 => "replay_dedicated",
            Fleet::SharedEpyc => "replay_epyc",
        }
    }

    fn population(self, sizes: &Sizes) -> u32 {
        match self {
            Fleet::SharedEpyc => sizes.epyc_population,
            _ => sizes.population,
        }
    }

    fn shape(self) -> (CpuTopology, u64) {
        match self {
            Fleet::SharedEpyc => (dual_epyc_7662(), gib(1024)),
            _ => (flat(32), gib(128)),
        }
    }
}

const DEDICATED_LEVELS: [u32; 3] = [1, 2, 3];

#[derive(Debug, Clone, Copy)]
enum Step {
    /// Index into `Input::arrivals`.
    Arrive(u32),
    Depart(VmId),
}

/// Everything a repetition needs, built once in set-up.
pub struct Input {
    fleet: Fleet,
    trace: Trace,
    arrivals: Vec<(VmId, VmSpec)>,
    /// The order `run_packing` processes events in.
    steps: Vec<Step>,
    topology: Arc<CpuTopology>,
    mem_mib: u64,
    /// The first repetition's outcome; every later one must equal it.
    first: Option<PackingOutcome>,
}

impl Input {
    fn setup(fleet: Fleet, sizes: &Sizes, seed: u64, oracles: &mut Oracles) -> Input {
        let trace = week_f(fleet.population(sizes), seed, oracles);
        let (topology, mem_mib) = fleet.shape();
        let mut arrivals = Vec::new();
        // (time, queue sequence, step). `run_packing` queues every
        // arrival first (sequence = trace order) and a departure when
        // its arrival is processed (sequence = arrivals + that order),
        // popping by (time, sequence).
        let mut keyed: Vec<(u64, u64, Step)> = Vec::new();
        let total = trace.workload.num_arrivals() as u64;
        for (t, event) in &trace.workload.events {
            if let WorkloadEvent::Arrival(vm) = event {
                let i = arrivals.len() as u64;
                arrivals.push((vm.id, vm.spec));
                keyed.push((*t, i, Step::Arrive(i as u32)));
                keyed.push((vm.departure_secs.max(t + 1), total + i, Step::Depart(vm.id)));
            }
        }
        keyed.sort_by_key(|(t, seq, _)| (*t, *seq));
        // The generator numbers VMs densely in arrival order; the mirror
        // looks a departing VM's shape up by its id.
        oracles.check(
            arrivals
                .iter()
                .enumerate()
                .all(|(i, (id, _))| id.0 == i as u64),
            || "trace VM ids are not dense in arrival order".to_string(),
        );
        Input {
            fleet,
            trace,
            arrivals,
            steps: keyed.into_iter().map(|(_, _, s)| s).collect(),
            topology: Arc::new(topology),
            mem_mib,
            first: None,
        }
    }

    fn model(&self) -> DeploymentModel {
        match self.fleet {
            Fleet::DedicatedFlat32 => DeploymentModel::Dedicated(DedicatedDeployment::new(
                PmConfig::of(self.topology.num_cores(), self.mem_mib),
                DEDICATED_LEVELS.map(OversubLevel::of),
            )),
            _ => DeploymentModel::Shared(SharedDeployment::new(
                Arc::clone(&self.topology),
                self.mem_mib,
            )),
        }
    }

    fn events(&self) -> u64 {
        self.steps.len() as u64
    }

    /// The driven pass with no stamps at all: what the event loop costs
    /// without `run_packing`'s queue and occupancy tracking.
    fn drive_plain(&self, model: &mut DeploymentModel) -> u64 {
        let mut failed = 0;
        for step in &self.steps {
            match *step {
                Step::Arrive(i) => {
                    let (id, spec) = self.arrivals[i as usize];
                    failed += u64::from(black_box(model.deploy(id, spec)).is_err());
                }
                Step::Depart(id) => failed += u64::from(black_box(model.remove(id)).is_err()),
            }
        }
        failed
    }

    /// The driven pass stamping each arrival's `deploy`.
    fn drive_latency(&self, model: &mut DeploymentModel, lat_ns: &mut Vec<u64>) -> u64 {
        let mut failed = 0;
        for step in &self.steps {
            match *step {
                Step::Arrive(i) => {
                    let (id, spec) = self.arrivals[i as usize];
                    let t = Instant::now();
                    let placed = black_box(model.deploy(id, spec));
                    lat_ns.push(t.elapsed().as_nanos() as u64);
                    failed += u64::from(placed.is_err());
                }
                Step::Depart(id) => failed += u64::from(black_box(model.remove(id)).is_err()),
            }
        }
        failed
    }
}

/// The replay workload on one of the three fleets.
pub struct Replay(pub Fleet);

impl Workload for Replay {
    type State = Input;

    fn name(&self) -> &'static str {
        self.0.workload_name()
    }

    /// A repetition on the 256-CPU fleet takes half a second; with half
    /// the inputs each still gets a dozen.
    fn inputs(&self, sizes: &Sizes) -> usize {
        match self.0 {
            Fleet::SharedEpyc => sizes.inputs.div_ceil(2),
            _ => sizes.inputs,
        }
    }

    fn setup(&self, sizes: &Sizes, seed: u64, oracles: &mut Oracles) -> Input {
        Input::setup(self.0, sizes, seed, oracles)
    }

    fn rep(&self, input: &mut Input, _: &Sizes, oracles: &mut Oracles) -> Rep {
        let mut model = input.model();
        let t = Instant::now();
        let outcome = run_packing(&input.trace.workload, &mut model);
        let wall_s = t.elapsed().as_secs_f64();

        let mut driven = input.model();
        let mut lat_ns = Vec::with_capacity(input.arrivals.len());
        let driven_failed = input.drive_latency(&mut driven, &mut lat_ns);

        oracles.check(outcome.rejections == 0 && driven_failed == 0, || {
            format!(
                "{} rejections, {driven_failed} failed driven ops",
                outcome.rejections
            )
        });
        oracles.check(model.check_invariants().is_ok(), || {
            format!("invariants: {:?}", model.check_invariants())
        });
        oracles.check(driven.opened_pms() == outcome.opened_pms, || {
            format!(
                "driven pass opened {} PMs, run_packing {}: the step order diverged",
                driven.opened_pms(),
                outcome.opened_pms
            )
        });
        let failed = u64::from(outcome.rejections);
        match &input.first {
            None => input.first = Some(outcome),
            Some(first) => oracles.check(*first == outcome, || {
                "PackingOutcome differs between repetitions".to_string()
            }),
        }
        Rep {
            ops: input.events(),
            wall_s,
            lat_ns,
            attempted: input.events(),
            failed,
        }
    }

    fn finish(&self, input: Input, _: &Sizes, oracles: &mut Oracles) -> u32 {
        let opened = input.first.as_ref().map_or(0, |o| o.opened_pms);
        // The paper's direction: the shared pool never needs more PMs
        // than the dedicated clusters on the same trace.
        if self.0 != Fleet::SharedEpyc {
            let other = Input {
                fleet: if self.0 == Fleet::SharedFlat32 {
                    Fleet::DedicatedFlat32
                } else {
                    Fleet::SharedFlat32
                },
                ..input
            };
            let other_pms = run_packing(&other.trace.workload, &mut other.model()).opened_pms;
            let (shared, dedicated) = if self.0 == Fleet::SharedFlat32 {
                (opened, other_pms)
            } else {
                (other_pms, opened)
            };
            oracles.check(shared <= dedicated, || {
                format!("shared pool opened {shared} PMs, dedicated {dedicated}")
            });
        }
        opened
    }

    fn traced(&self, args: &RunArgs) -> RunOutput {
        let mut oracles = Oracles::default();
        let input = Input::setup(self.0, &args.sizes, args.seed, &mut oracles);
        traced(&input, args, oracles)
    }
}

// ---------------------------------------------------------------- traced

/// A decision of the real model, as the driven pass logged it.
#[derive(Debug, Clone, Copy)]
struct Logged {
    pm: PmId,
    span: SpanId,
}

/// Bare hosts behind an index, doing what `Cluster` does per event —
/// with a stamp at every layer boundary.
struct Mirror<H> {
    hosts: Vec<H>,
    index: CandidateIndex,
    scratch: Vec<Candidate>,
    open: Box<dyn Fn(PmId) -> H>,
}

#[derive(Debug, Default)]
struct MirrorCounts {
    selects: u64,
    scored: u64,
    gate_skipped: u64,
    gate_seen: u64,
    can_host_calls: u64,
    mismatches: u64,
}

fn candidate_of<H: Host>(host: &H) -> (Candidate, AdmissionKey) {
    let headroom = host.admission_headroom();
    (
        Candidate {
            id: host.id(),
            config: host.config(),
            alloc: host.alloc(),
            vms: host.num_vms(),
        },
        AdmissionKey {
            free_mem_mib: headroom.free_mem_mib,
            free_vcpus: headroom.free_vcpus,
        },
    )
}

impl<H: Host> Mirror<H> {
    fn new(open: impl Fn(PmId) -> H + 'static) -> Self {
        Mirror {
            hosts: Vec::new(),
            index: CandidateIndex::new(),
            scratch: Vec::new(),
            open: Box::new(open),
        }
    }

    fn refresh(&mut self, pm: PmId, tracer: &mut Tracer, parent: SpanId, req: u64) {
        let t0 = tracer.now();
        let (candidate, key) = candidate_of(&self.hosts[pm.0 as usize]);
        self.index.upsert(candidate, key);
        tracer.push("sched.upsert", t0, tracer.now(), parent, req);
    }

    fn place(
        &mut self,
        id: VmId,
        spec: VmSpec,
        policy: &PlacementPolicy,
        logged: Logged,
        tracer: &mut Tracer,
        counts: &mut MirrorCounts,
    ) {
        let (parent, req) = (logged.span, id.0);
        let (need_mem, need_vcpus) = (spec.mem_mib(), spec.vcpus());
        counts.selects += 1;
        let picked = if matches!(policy, PlacementPolicy::FirstFit) {
            let hosts = &self.hosts;
            let t0 = tracer.now();
            let picked = self.index.first_admitted(need_mem, need_vcpus, |c| {
                hosts[c.id.0 as usize].can_host(&spec)
            });
            tracer.push("sched.first_admitted", t0, tracer.now(), parent, req);
            picked
        } else {
            let mut buf = std::mem::take(&mut self.scratch);
            let t0 = tracer.now();
            let stats = self.index.gather_into(&mut buf, need_mem, need_vcpus);
            let t1 = tracer.now();
            buf.retain(|c| self.hosts[c.id.0 as usize].can_host(&spec));
            let t2 = tracer.now();
            let picked = policy.select(&buf, &spec);
            let t3 = tracer.now();
            tracer.push("sched.gather", t0, t1, parent, req);
            tracer.push("hypervisor.can_host", t1, t2, parent, req);
            tracer.push("sched.select", t2, t3, parent, req);
            counts.gate_seen += stats.live as u64;
            counts.gate_skipped += stats.gate_skipped() as u64;
            counts.can_host_calls += stats.admitted as u64;
            counts.scored += buf.len() as u64;
            self.scratch = buf;
            picked
        };
        let pm = picked.unwrap_or(PmId(self.hosts.len() as u32));
        counts.mismatches += u64::from(pm != logged.pm);
        // Follow the logged decision so one mismatch does not cascade.
        let pm = logged.pm;
        let t0 = tracer.now();
        while self.hosts.len() <= pm.0 as usize {
            self.hosts.push((self.open)(PmId(self.hosts.len() as u32)));
        }
        let deployed = self.hosts[pm.0 as usize].deploy(id, spec);
        tracer.push("hypervisor.deploy", t0, tracer.now(), parent, req);
        counts.mismatches += u64::from(deployed.is_err());
        self.refresh(pm, tracer, parent, req);
    }

    fn depart(&mut self, id: VmId, logged: Logged, tracer: &mut Tracer, counts: &mut MirrorCounts) {
        let t0 = tracer.now();
        let removed = self.hosts[logged.pm.0 as usize].remove(id);
        tracer.push("hypervisor.remove", t0, tracer.now(), logged.span, id.0);
        counts.mismatches += u64::from(removed.is_err());
        self.refresh(logged.pm, tracer, logged.span, id.0);
    }
}

impl<H: Host + Clone> Mirror<H> {
    /// Times `Host::resize_vm` on a copy of the hosts (the trace itself
    /// never resizes): shrink one VM per host to half, then grow it
    /// back.
    fn probe_resize(&self, tracer: &mut Tracer) {
        for host in self.hosts.iter().take(256) {
            let Some((vm, spec)) = host.placements().into_iter().next() else {
                continue;
            };
            let mut copy = host.clone();
            let half = ((spec.vcpus() / 2).max(1), (spec.mem_mib() / 2).max(1));
            for (vcpus, mem_mib) in [half, (spec.vcpus(), spec.mem_mib())] {
                let t0 = tracer.now();
                let _ = black_box(copy.resize_vm(vm, vcpus, mem_mib));
                tracer.push("hypervisor.resize", t0, tracer.now(), NO_PARENT, vm.0);
            }
        }
    }
}

/// The mirrored fleet of either model.
enum MirrorFleet {
    Shared {
        pool: Box<Mirror<PhysicalMachine>>,
        policy: PlacementPolicy,
    },
    Dedicated(std::collections::BTreeMap<OversubLevel, Mirror<UniformMachine>>),
}

impl MirrorFleet {
    fn of(input: &Input) -> MirrorFleet {
        match input.fleet {
            Fleet::DedicatedFlat32 => {
                let config = PmConfig::of(input.topology.num_cores(), input.mem_mib);
                MirrorFleet::Dedicated(
                    DEDICATED_LEVELS
                        .iter()
                        .map(|&n| {
                            let level = OversubLevel::of(n);
                            (
                                level,
                                Mirror::new(move |id| UniformMachine::new(id, config, level)),
                            )
                        })
                        .collect(),
                )
            }
            _ => {
                let selection: Arc<dyn SelectionPolicy + Send + Sync> = Arc::new(
                    TopologySelection::new(DistanceMatrix::build(&input.topology)),
                );
                let (topology, mem_mib) = (Arc::clone(&input.topology), input.mem_mib);
                MirrorFleet::Shared {
                    pool: Box::new(Mirror::new(move |id| {
                        PhysicalMachine::new(
                            id,
                            Arc::clone(&topology),
                            mem_mib,
                            Arc::clone(&selection),
                        )
                    })),
                    // What `SharedDeployment::new` scores with.
                    policy: PlacementPolicy::by_name("progress+bestfit")
                        .expect("the paper's default policy is registered"),
                }
            }
        }
    }

    fn cores_moved(&self) -> u64 {
        match self {
            MirrorFleet::Shared { pool, .. } => pool
                .hosts
                .iter()
                .map(|h| h.churn().cores_added + h.churn().cores_released)
                .sum(),
            MirrorFleet::Dedicated(_) => 0,
        }
    }
}

fn total(aggs: &std::collections::BTreeMap<&'static str, Agg>, name: &str) -> Agg {
    aggs.get(name).copied().unwrap_or_default()
}

/// One traced pass: the two untraced references, the driven loop with
/// spans, then the mirror — all in one pass, so that a slow phase of
/// the machine falls on every term of the arithmetic alike.
fn traced_pass(input: &Input, tracer: &mut Tracer) -> (LayerTable, u64) {
    tracer.spans.clear();
    let capture_at = input.steps.len() * 6 / 10;

    // References: run_packing as users call it, and the bare driven
    // loop (no queue, no occupancy tracking, no stamps).
    let mut model = input.model();
    let t = Instant::now();
    let mut failed = u64::from(run_packing(&input.trace.workload, &mut model).rejections);
    let w_run_packing = t.elapsed().as_secs_f64();
    let mut model = input.model();
    let t = Instant::now();
    failed += input.drive_plain(&mut model);
    let w_plain = t.elapsed().as_secs_f64();

    // Pass 1: the real model, one span per event, decisions logged.
    let mut model = input.model();
    let mut log: Vec<Logged> = Vec::with_capacity(input.steps.len());
    let mut capture_us = 0.0;
    let t_pass = Instant::now();
    for (n, step) in input.steps.iter().enumerate() {
        if n == capture_at {
            let t0 = tracer.now();
            black_box(model.capture_state());
            let t1 = tracer.now();
            tracer.push("sim.capture_state", t0, t1, NO_PARENT, 0);
            capture_us = (t1 - t0) as f64 / 1e3;
        }
        match *step {
            Step::Arrive(i) => {
                let (id, spec) = input.arrivals[i as usize];
                let t0 = tracer.now();
                let pm = model
                    .deploy(id, spec)
                    .expect("elastic fleets admit every VM");
                let span = tracer.push("sim.deploy", t0, tracer.now(), NO_PARENT, id.0);
                log.push(Logged { pm, span });
            }
            Step::Depart(id) => {
                let t0 = tracer.now();
                let pm = model.remove(id).expect("departures follow placements");
                let span = tracer.push("sim.remove", t0, tracer.now(), NO_PARENT, id.0);
                log.push(Logged { pm, span });
            }
        }
    }
    let w_traced = t_pass.elapsed().as_secs_f64() - capture_us / 1e6;

    // Pass 2: the same decisions on bare hosts.
    let mut mirror = MirrorFleet::of(input);
    let mut counts = MirrorCounts::default();
    for (n, (step, logged)) in input.steps.iter().zip(&log).enumerate() {
        if n == capture_at {
            match &mirror {
                MirrorFleet::Shared { pool, .. } => pool.probe_resize(tracer),
                MirrorFleet::Dedicated(levels) => {
                    levels.values().for_each(|m| m.probe_resize(tracer))
                }
            }
        }
        match (*step, &mut mirror) {
            (Step::Arrive(i), MirrorFleet::Shared { pool, policy }) => {
                let (id, spec) = input.arrivals[i as usize];
                pool.place(id, spec, policy, *logged, tracer, &mut counts);
            }
            (Step::Arrive(i), MirrorFleet::Dedicated(levels)) => {
                let (id, spec) = input.arrivals[i as usize];
                levels
                    .get_mut(&spec.level)
                    .expect("week F uses levels 1 and 3")
                    .place(
                        id,
                        spec,
                        &PlacementPolicy::FirstFit,
                        *logged,
                        tracer,
                        &mut counts,
                    );
            }
            (Step::Depart(id), MirrorFleet::Shared { pool, .. }) => {
                pool.depart(id, *logged, tracer, &mut counts);
            }
            (Step::Depart(id), MirrorFleet::Dedicated(levels)) => {
                // PM ids are per level; the VM's level names its cluster.
                let level = input.arrivals[id.0 as usize].1.level;
                levels
                    .get_mut(&level)
                    .expect("the VM arrived through this level")
                    .depart(id, *logged, tracer, &mut counts);
            }
        }
    }

    let aggs = aggregate(&tracer.spans);
    let ns = |name: &str| total(&aggs, name).total_ns as f64;
    let calls = |name: &str| total(&aggs, name).calls;
    let mean = |name: &str| total(&aggs, name).mean_ns();
    let hypervisor_ns =
        ns("hypervisor.deploy") + ns("hypervisor.remove") + ns("hypervisor.can_host");
    let sched_ns =
        ns("sched.gather") + ns("sched.select") + ns("sched.upsert") + ns("sched.first_admitted");
    let sim_ns = ns("sim.deploy") + ns("sim.remove");
    let sim_self_ns = (sim_ns - hypervisor_ns - sched_ns).max(0.0);
    let engine_self_s = (w_run_packing - w_plain).max(0.0);
    let wall_ns = w_run_packing * 1e9;

    let mut t = LayerTable::new();
    t.set("workload.generate_ms", input.trace.generate_ms);
    t.set("workload.events", input.events() as f64);
    t.set(
        "hypervisor.calls",
        (calls("hypervisor.deploy")
            + calls("hypervisor.remove")
            + calls("hypervisor.resize")
            + counts.can_host_calls) as f64,
    );
    t.set("hypervisor.deploy_ns", mean("hypervisor.deploy"));
    t.set("hypervisor.remove_ns", mean("hypervisor.remove"));
    t.set("hypervisor.resize_ns", mean("hypervisor.resize"));
    t.set(
        "hypervisor.can_host_ns",
        if counts.can_host_calls == 0 {
            0.0
        } else {
            ns("hypervisor.can_host") / counts.can_host_calls as f64
        },
    );
    t.set("hypervisor.cores_moved", mirror.cores_moved() as f64);
    t.set("hypervisor.busy_frac", hypervisor_ns / wall_ns);
    t.set(
        "sched.calls",
        (calls("sched.gather")
            + calls("sched.select")
            + calls("sched.upsert")
            + calls("sched.first_admitted")) as f64,
    );
    t.set("sched.upsert_ns", mean("sched.upsert"));
    t.set(
        "sched.gather_ns",
        mean("sched.gather") + mean("sched.first_admitted"),
    );
    t.set("sched.select_ns", mean("sched.select"));
    t.set(
        "sched.candidates_per_select",
        counts.scored as f64 / counts.selects.max(1) as f64,
    );
    t.set(
        "sched.gate_skip_frac",
        counts.gate_skipped as f64 / counts.gate_seen.max(1) as f64,
    );
    t.set("sched.busy_frac", sched_ns / wall_ns);
    t.set("sched.mismatches", counts.mismatches as f64);
    t.set(
        "sim.calls",
        (calls("sim.deploy") + calls("sim.remove")) as f64,
    );
    t.set("sim.deploy_ns", mean("sim.deploy"));
    t.set("sim.remove_ns", mean("sim.remove"));
    t.set("sim.self_frac", sim_self_ns / wall_ns);
    t.set("sim.engine_self_frac", engine_self_s / w_run_packing);
    t.set("sim.capture_state_us", capture_us);
    t.set("trace.spans", tracer.spans.len() as f64);
    t.set("trace.overhead_frac", (w_traced - w_plain) / w_plain);
    // How far the four shares are from summing to the run_packing wall.
    let claimed_ns = hypervisor_ns + sched_ns + sim_self_ns + engine_self_s * 1e9;
    t.set(
        "trace.unattributed_frac",
        (wall_ns - claimed_ns).abs() / wall_ns,
    );
    (t, failed)
}

fn traced(input: &Input, args: &RunArgs, mut oracles: Oracles) -> RunOutput {
    // The topology layer on its own.
    let mut build_us = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        black_box(DistanceMatrix::build(&input.topology));
        build_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let build_us = median(&build_us);
    let n = input.topology.num_cores();
    let t = Instant::now();
    let mut sum = 0u64;
    for a in 0..n {
        for b in 0..n {
            sum += u64::from(core_distance(&input.topology, CoreId(a), CoreId(b)));
        }
    }
    black_box(sum);
    let distance_ns = t.elapsed().as_nanos() as f64 / (f64::from(n) * f64::from(n));

    let mut tracer = Tracer::new();
    let mut tables = Vec::new();
    let mut failed = 0;
    let reps = timed_reps(args.seconds, 2, || {
        let (mut table, pass_failed) = traced_pass(input, &mut tracer);
        failed += pass_failed;
        table.set("topology.matrix_build_us", build_us);
        table.set("topology.distance_ns", distance_ns);
        tables.push(table);
    });
    write_trace(input.fleet.workload_name(), &tracer);

    let mismatches = tables
        .iter()
        .map(|t| t.get("sched.mismatches"))
        .sum::<f64>();
    oracles.check(mismatches == 0.0, || {
        format!("mirrored scheduler disagreed with the model {mismatches} times")
    });
    oracles.check(failed == 0, || {
        format!("{failed} failed ops in the reference passes")
    });
    RunOutput {
        attempted: input.events() * reps as u64,
        failed,
        metrics: layer_metrics(&tables),
        oracle_failures: oracles.into_failures(),
    }
}
