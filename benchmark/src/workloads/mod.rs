//! The eight workloads and what they share: frozen sizes, the seeded
//! input generators, the timed-repetition loop and the result shape.

pub mod planes;
pub mod recover;
pub mod replay;
pub mod serve_inproc;
pub mod serve_tcp;

use std::collections::VecDeque;
use std::time::Instant;

use slackvm_model::{VmId, VmSpec};
use slackvm_workload::scenarios;

use crate::metrics::{Better, LayerTable, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats;

/// Input sizes and repetition counts. [`Sizes::frozen`] is what every
/// recorded number was measured with; [`Sizes::quick`] is the toy scale
/// of the smoke test. Nothing else varies them.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Week-F target population of `replay_shared`/`replay_dedicated`;
    /// also the source of VM shapes for the serve, recover and plan
    /// workloads.
    pub population: u32,
    /// Week-F target population of `replay_epyc`.
    pub epyc_population: u32,
    /// Live VMs the serve and recover workloads hold steady.
    pub window: usize,
    /// Ops a placed VM must age before the generator may remove or
    /// resize it. Must exceed the most requests that can be in flight,
    /// or a remove could overtake its own place.
    pub maturity: u64,
    /// Admission queue depth of the in-process service.
    pub queue_depth: usize,
    /// `serve_inproc` phase A: saturated ops per repetition.
    pub sat_ops: usize,
    /// `serve_inproc` phase A: requests kept in flight.
    pub sat_window: usize,
    /// `serve_inproc` phase B: open-loop ops per repetition.
    pub open_ops: usize,
    /// `serve_inproc` phase B: offered rate, ops/s.
    pub open_rate: f64,
    /// `serve_tcp_durable`: ops each of the two clients sends per
    /// repetition.
    pub tcp_ops_per_client: usize,
    /// `serve_tcp_durable`: lines each client keeps in flight on its
    /// connection.
    pub tcp_window: usize,
    /// `recover`: records in the written journal; one snapshot at half.
    pub recover_records: u64,
    /// `plan_*`: share of the trace replayed before planning, percent.
    pub plan_cut_pct: usize,
    /// Inputs one run measures, each generated from its own seed.
    pub inputs: usize,
    /// Set-ups built, timed and released during the measuring window,
    /// beside the one that builds each input.
    pub extra_setups: usize,
    /// Untimed repetitions on each input before timing starts (caches
    /// warm).
    pub warmup_reps: usize,
    /// Timed repetitions made on each input even if `--seconds` is
    /// already spent.
    pub min_reps: usize,
}

impl Sizes {
    pub fn frozen() -> Self {
        Sizes {
            population: 2000,
            epyc_population: 800,
            window: 2000,
            maturity: 2200,
            queue_depth: 2048,
            sat_ops: 5_000,
            sat_window: 64,
            open_ops: 2_500,
            open_rate: 40_000.0,
            tcp_ops_per_client: 600,
            tcp_window: 8,
            recover_records: 30_000,
            plan_cut_pct: 60,
            inputs: 4,
            extra_setups: 6,
            warmup_reps: 1,
            min_reps: 3,
        }
    }

    pub fn quick() -> Self {
        Sizes {
            // Small, but a fleet the pressure planner finds cold PMs in.
            population: 400,
            epyc_population: 60,
            window: 300,
            maturity: 250,
            queue_depth: 128,
            sat_ops: 1_500,
            sat_window: 32,
            open_ops: 1_000,
            open_rate: 20_000.0,
            tcp_ops_per_client: 200,
            tcp_window: 4,
            recover_records: 3_000,
            plan_cut_pct: 60,
            inputs: 2,
            extra_setups: 1,
            warmup_reps: 1,
            min_reps: 1,
        }
    }
}

/// One invocation: a workload, a seed, how long to measure.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// A reported metric: `value` is what the run reports, beside the
/// median, quartiles and count of the samples it was taken from.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Metric {
    /// `value` beside the quartiles of `samples`.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: &[f64]) -> Metric {
        let (q1, median, q3) = stats::quartiles(samples);
        Metric {
            name,
            unit,
            value,
            q1,
            median,
            q3,
            n: samples.len(),
        }
    }

    /// A per-layer number: the median of its samples.
    pub fn median_of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::new(name, unit, stats::median(samples), samples)
    }
}

/// What a run hands back to `main`.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Ops attempted inside timed sections.
    pub attempted: u64,
    /// Ops that failed, were refused, shed or errored.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Oracles that did not hold; empty means the outputs are correct.
    pub oracle_failures: Vec<String>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.oracle_failures.is_empty()
    }
}

/// Collects oracle verdicts; a failed one is reported, not panicked on,
/// so the run still prints what it measured.
#[derive(Debug, Default)]
pub struct Oracles {
    failures: Vec<String>,
}

impl Oracles {
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        // A broken oracle breaks on every repetition; one line says it.
        if !holds && self.failures.len() < 16 {
            self.failures.push(what());
        }
    }

    pub fn into_failures(self) -> Vec<String> {
        self.failures
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Ops behind the rate, and the seconds they took.
    pub ops: u64,
    pub wall_s: f64,
    /// Latency of each op that has one, nanoseconds.
    pub lat_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

/// One workload, as the untraced driver sees it: build an input from a
/// seed, repeat the measured work on it, close it down and audit it.
pub trait Workload {
    type State;

    fn name(&self) -> &'static str;

    /// Builds everything a repetition needs. Timed as `setup_s`.
    fn setup(&self, sizes: &Sizes, seed: u64, oracles: &mut Oracles) -> Self::State;

    /// Releases a set-up that was only built to be timed.
    fn discard(&self, state: Self::State) {
        drop(state);
    }

    fn rep(&self, state: &mut Self::State, sizes: &Sizes, oracles: &mut Oracles) -> Rep;

    /// Inputs one run measures. Workloads whose timing hardly depends
    /// on the fleet they meet, and whose inputs are dear to build and
    /// to close down, take half.
    fn inputs(&self, sizes: &Sizes) -> usize {
        sizes.inputs
    }

    /// Ends the run on this input and checks what it leaves behind.
    /// Returns the PMs the input's fleet opened.
    fn finish(&self, state: Self::State, sizes: &Sizes, oracles: &mut Oracles) -> u32;

    /// The traced pass: per-layer metrics, spans written out.
    fn traced(&self, args: &RunArgs) -> RunOutput;
}

/// The seed of the `i`-th input of a run: the `i`-th output of a
/// SplitMix64 stream started at the run's seed.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    let mut rng = Rng64::new(seed);
    (0..i).for_each(|_| {
        rng.next();
    });
    rng.next()
}

/// Per-input samples of the rates and latencies.
#[derive(Debug, Default)]
struct InputSamples {
    ops_per_s: Vec<f64>,
    op_p50_us: Vec<f64>,
    op_p90_us: Vec<f64>,
}

impl InputSamples {
    fn push(&mut self, mut rep: Rep) {
        let (p50, p90) = stats::p50_p90(&mut rep.lat_ns);
        self.ops_per_s.push(rep.ops as f64 / rep.wall_s);
        self.op_p50_us.push(p50 as f64 / 1e3);
        self.op_p90_us.push(p90 as f64 / 1e3);
    }
}

/// Median over the inputs of each input's fast decile (see
/// [`stats::fast_decile`]), beside the quartiles of all the samples.
/// The median, because what an input costs can be heavy-tailed: one
/// fleet in a dozen makes `plan_rebalance` try ten times the victims.
fn combined(
    name: &'static str,
    unit: &'static str,
    better: Better,
    per_input: &[&[f64]],
) -> Metric {
    let deciles: Vec<f64> = per_input
        .iter()
        .map(|samples| stats::fast_decile(samples, better == Better::Higher))
        .collect();
    let all: Vec<f64> = per_input.iter().flat_map(|s| s.iter().copied()).collect();
    Metric::new(name, unit, stats::median(&deciles), &all)
}

/// The untraced run: end-to-end metrics.
///
/// A run measures several inputs, each generated from its own seed,
/// and reports their median (their mean, for `opened_pms`): how long a
/// plan takes depends on the fleet it meets, and one fleet per run would
/// make the spread between seeds a property of the inputs, not of the
/// code.
/// Repetitions go round the inputs in turn, so each input sees the
/// whole measuring window and a slow phase of the machine cannot fall
/// on one input alone.
pub fn run_untraced<W: Workload>(workload: &W, args: &RunArgs) -> RunOutput {
    let sizes = &args.sizes;
    let inputs = workload.inputs(sizes).max(1);
    let mut oracles = Oracles::default();
    let mut setup_s = Vec::new();
    let mut timed_setup = |i: usize, oracles: &mut Oracles| {
        let t = Instant::now();
        let state = workload.setup(sizes, input_seed(args.seed, i % inputs), oracles);
        setup_s.push(t.elapsed().as_secs_f64());
        state
    };
    let mut states: Vec<W::State> = (0..inputs).map(|i| timed_setup(i, &mut oracles)).collect();
    for state in &mut states {
        for _ in 0..sizes.warmup_reps {
            workload.rep(state, sizes, &mut oracles);
        }
    }
    let mut samples: Vec<InputSamples> = (0..inputs).map(|_| InputSamples::default()).collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut turn, mut done, mut extra_setups) = (0, 0, 0);
    let mut peak_rss_mib = 0.0;
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if done >= sizes.min_reps * inputs && elapsed >= args.seconds {
            break;
        }
        // Set-up is timed again at even steps through the window (built,
        // timed, released): set-ups made only at the start would all
        // fall into the same phase of the machine.
        // (Never before memory has been read: an input being built is
        // memory the workload does not hold.)
        let step = args.seconds / (sizes.extra_setups + 1) as f64;
        if done >= sizes.min_reps * inputs
            && extra_setups < sizes.extra_setups
            && elapsed >= step * (extra_setups + 1) as f64
        {
            let state = timed_setup(extra_setups, &mut oracles);
            workload.discard(state);
            extra_setups += 1;
            continue;
        }
        let rep = workload.rep(&mut states[turn], sizes, &mut oracles);
        attempted += rep.attempted;
        failed += rep.failed;
        samples[turn].push(rep);
        turn = (turn + 1) % inputs;
        done += 1;
        // Memory is read after a fixed amount of work, not a fixed time:
        // a service's books grow with the requests it has answered, and
        // how many fit into the window is the machine's business.
        if done == sizes.min_reps * inputs {
            peak_rss_mib = crate::env::peak_rss_mib();
        }
    }
    let opened: Vec<f64> = states
        .into_iter()
        .map(|state| f64::from(workload.finish(state, sizes, &mut oracles)))
        .collect();

    let metrics = END_TO_END
        .iter()
        .map(|def| {
            let of = |pick: fn(&InputSamples) -> &Vec<f64>| {
                let per_input: Vec<&[f64]> = samples.iter().map(|s| pick(s).as_slice()).collect();
                combined(def.name, def.unit, def.better, &per_input)
            };
            match def.name {
                "ops_per_s" => of(|s| &s.ops_per_s),
                "op_p50_us" => of(|s| &s.op_p50_us),
                "op_p90_us" => of(|s| &s.op_p90_us),
                "setup_s" => combined(def.name, def.unit, def.better, &[&setup_s]),
                "opened_pms" => Metric::new(
                    def.name,
                    def.unit,
                    opened.iter().sum::<f64>() / opened.len() as f64,
                    &opened,
                ),
                "peak_rss_mib" => Metric::median_of(def.name, def.unit, &[peak_rss_mib]),
                other => unreachable!("end-to-end metric {other} has no source"),
            }
        })
        .collect();
    RunOutput {
        attempted,
        failed,
        metrics,
        oracle_failures: oracles.into_failures(),
    }
}

/// The per-layer metrics in `PER_LAYER` order: the per-metric median
/// over the traced repetitions' tables.
pub fn layer_metrics(tables: &[LayerTable]) -> Vec<Metric> {
    assert!(!tables.is_empty(), "a traced run makes at least one pass");
    PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let samples: Vec<f64> = tables.iter().map(|t| t.get(name)).collect();
            Metric::median_of(name, unit, &samples)
        })
        .collect()
}

/// Runs `rep` until `seconds` have passed, and at least `min_reps`
/// times. Returns the number of repetitions made.
pub fn timed_reps(seconds: f64, min_reps: usize, mut rep: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut n = 0;
    while n < min_reps || start.elapsed().as_secs_f64() < seconds {
        rep();
        n += 1;
    }
    n
}

/// Writes the traced pass's spans to `benchmark/out/<workload>.trace.json`.
pub fn write_trace(workload: &str, tracer: &Tracer) {
    /// Enough to see every phase; the numbers come from all spans.
    const MAX_SPANS_WRITTEN: usize = 200_000;
    let dir = crate::env::out_dir();
    let path = dir.join(format!("{workload}.trace.json"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            crate::spans::chrome_json(&tracer.spans, MAX_SPANS_WRITTEN),
        )
    });
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn run_one<W: Workload>(workload: &W, args: &RunArgs) -> RunOutput {
    debug_assert_eq!(workload.name(), args.workload);
    if args.trace {
        workload.traced(args)
    } else {
        run_untraced(workload, args)
    }
}

/// Dispatches one run to its workload.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let serve = args.workload.starts_with("serve_");
    if serve && crate::env::nproc() < 2 {
        return Err(format!(
            "{} needs 2 cores (one load generator, one shard worker); this machine offers {}",
            args.workload,
            crate::env::nproc()
        ));
    }
    Ok(match args.workload.as_str() {
        "replay_shared" => run_one(&replay::Replay(replay::Fleet::SharedFlat32), args),
        "replay_dedicated" => run_one(&replay::Replay(replay::Fleet::DedicatedFlat32), args),
        "replay_epyc" => run_one(&replay::Replay(replay::Fleet::SharedEpyc), args),
        "serve_inproc" => run_one(&serve_inproc::ServeInproc, args),
        "serve_tcp_durable" => run_one(&serve_tcp::ServeTcp, args),
        "recover" => run_one(&recover::Recover, args),
        "plan_rebalance" => run_one(&planes::Plan(planes::Plane::Rebalance), args),
        "plan_pressure" => run_one(&planes::Plan(planes::Plane::Pressure), args),
        other => {
            return Err(format!(
                "unknown workload {other:?}; one of: {}",
                crate::metrics::WORKLOADS
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        }
    })
}

// ---------------------------------------------------------------- inputs

/// SplitMix64: the benchmark's own generator for op mixes, so its
/// inputs depend on `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng64(u64);

impl Rng64 {
    pub fn new(seed: u64) -> Self {
        Rng64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

/// A generated week-F trace and how long generating it took.
pub struct Trace {
    pub workload: slackvm_workload::Workload,
    pub generate_ms: f64,
}

/// Generates the paper's week-F trace and checks that the stand-in RNG
/// still produces the catalog's shape: the arrival count a week at this
/// population implies, and the 50/50 split of distribution F.
pub fn week_f(population: u32, seed: u64, oracles: &mut Oracles) -> Trace {
    let t = Instant::now();
    let workload = scenarios::paper_week_f(population).generate(seed);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;

    let arrivals = workload.num_arrivals();
    // paper_week: two-day mean lifetimes over seven days.
    let expected = f64::from(population) * 3.5;
    let premium = workload
        .instances()
        .filter(|vm| vm.spec.level.ratio() == 1)
        .count();
    let share = premium as f64 / arrivals.max(1) as f64;
    // Two points at full scale; four standard errors where the toy
    // sizes make that wider.
    let tolerance = (4.0 * (0.25 / arrivals.max(1) as f64).sqrt()).max(0.02);
    oracles.check(
        (arrivals as f64 - expected).abs() <= 0.10 * expected + 20.0,
        || format!("trace sanity: {arrivals} arrivals, expected about {expected:.0}"),
    );
    oracles.check((share - 0.5).abs() <= tolerance, || {
        format!("trace sanity: premium share {share:.3} is not 0.5 within {tolerance:.3}")
    });
    oracles.check(workload.validate().is_ok(), || {
        format!("trace sanity: {:?}", workload.validate())
    });
    Trace {
        workload,
        generate_ms,
    }
}

/// A fresh model of the service's default shape (shared `cores=32`
/// pool, 128 GiB, progress+bestfit): what `recover`/`fsck` rebuild into.
pub fn default_model() -> slackvm_sim::DeploymentModel {
    slackvm_serve::ModelSpec::default_shared()
        .build(1)
        .expect("the default model spec is valid")
}

/// The VM shapes of a trace, in arrival order.
pub fn shapes(workload: &slackvm_workload::Workload) -> Vec<VmSpec> {
    workload.instances().map(|vm| vm.spec).collect()
}

/// One generated operation, independent of the surface that takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenOp {
    Place { id: VmId, spec: VmSpec },
    Remove { id: VmId },
    Resize { id: VmId, vcpus: u32, mem_mib: u64 },
}

#[derive(Debug, Clone, Copy)]
struct LiveVm {
    id: VmId,
    spec: VmSpec,
    shrunk: bool,
}

/// Place/remove/resize churn around a steady window of live VMs.
///
/// Deterministic in its seed. Every op it emits succeeds on an elastic
/// fleet, with one exception the caller accounts for: a resize that
/// grows a VM back to its purchased size may be declined by a host that
/// has filled up meanwhile, which is an answer, not a failure.
pub struct Churn {
    rng: Rng64,
    specs: Vec<VmSpec>,
    next_id: u64,
    /// VMs old enough to be removed or resized.
    mature: Vec<LiveVm>,
    /// `(vm, ops_made when it was placed)`, oldest first.
    young: VecDeque<(LiveVm, u64)>,
    ops_made: u64,
    window: usize,
    maturity: u64,
    place_pct: u64,
    remove_pct: u64,
}

impl Churn {
    /// `mix` is `(place, remove)` in percent; the rest are resizes.
    /// `id_base` keeps concurrent generators in disjoint id bands.
    pub fn new(
        seed: u64,
        specs: Vec<VmSpec>,
        window: usize,
        maturity: u64,
        mix: (u64, u64),
        id_base: u64,
    ) -> Self {
        assert!(!specs.is_empty() && mix.0 + mix.1 <= 100 && window > 0);
        Churn {
            rng: Rng64::new(seed),
            specs,
            next_id: id_base,
            mature: Vec::new(),
            young: VecDeque::new(),
            ops_made: 0,
            window,
            maturity,
            place_pct: mix.0,
            remove_pct: mix.1,
        }
    }

    pub fn live(&self) -> usize {
        self.mature.len() + self.young.len()
    }

    fn place(&mut self) -> GenOp {
        let id = VmId(self.next_id);
        let spec = self.specs[(self.rng.next() % self.specs.len() as u64) as usize];
        self.next_id += 1;
        self.young.push_back((
            LiveVm {
                id,
                spec,
                shrunk: false,
            },
            self.ops_made,
        ));
        GenOp::Place { id, spec }
    }

    fn remove(&mut self) -> GenOp {
        let i = self.rng.below(self.mature.len() as u64) as usize;
        GenOp::Remove {
            id: self.mature.swap_remove(i).id,
        }
    }

    fn resize(&mut self) -> GenOp {
        let i = self.rng.below(self.mature.len() as u64) as usize;
        let vm = &mut self.mature[i];
        vm.shrunk = !vm.shrunk;
        let (vcpus, mem_mib) = if vm.shrunk {
            ((vm.spec.vcpus() / 2).max(1), (vm.spec.mem_mib() / 2).max(1))
        } else {
            (vm.spec.vcpus(), vm.spec.mem_mib())
        };
        GenOp::Resize {
            id: vm.id,
            vcpus,
            mem_mib,
        }
    }

    /// The next op of the mix, steered to keep the window: below it (or
    /// with nothing mature to touch) everything becomes a place, a
    /// twentieth above it places become removes.
    pub fn next_op(&mut self) -> GenOp {
        while self
            .young
            .front()
            .is_some_and(|(_, born)| self.ops_made - born >= self.maturity)
        {
            let (vm, _) = self.young.pop_front().expect("front checked");
            self.mature.push(vm);
        }
        let roll = self.rng.below(100);
        let slack = self.window / 20;
        let op = if self.mature.is_empty() || self.live() + slack < self.window {
            self.place()
        } else if roll < self.place_pct {
            if self.live() > self.window + slack {
                self.remove()
            } else {
                self.place()
            }
        } else if roll < self.place_pct + self.remove_pct {
            self.remove()
        } else {
            self.resize()
        };
        self.ops_made += 1;
        op
    }

    /// Places until the window is full: the warm fleet a run starts from.
    pub fn prefill(&mut self) -> Vec<GenOp> {
        let ops: Vec<GenOp> = (self.live()..self.window).map(|_| self.place()).collect();
        // The prefill is applied before any timed op is generated.
        self.mature.extend(self.young.drain(..).map(|(vm, _)| vm));
        ops
    }

    /// Removes of every live VM, emptying the fleet (the drain oracle).
    pub fn drain(&mut self) -> Vec<GenOp> {
        self.mature
            .drain(..)
            .chain(self.young.drain(..).map(|(vm, _)| vm))
            .map(|vm| GenOp::Remove { id: vm.id })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_model::OversubLevel;
    use std::collections::{BTreeMap, BTreeSet};

    fn specs() -> Vec<VmSpec> {
        vec![
            VmSpec::of(4, 8192, OversubLevel::of(1)),
            VmSpec::of(2, 4096, OversubLevel::of(3)),
        ]
    }

    #[test]
    fn churn_is_deterministic_and_keeps_its_window() {
        let run = |seed| {
            let mut c = Churn::new(seed, specs(), 200, 50, (45, 45), 0);
            let mut ops = c.prefill();
            ops.extend((0..5000).map(|_| c.next_op()));
            (ops, c.live())
        };
        let (a, live_a) = run(7);
        let (b, _) = run(7);
        let (c, _) = run(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((180..=220).contains(&live_a), "window drifted to {live_a}");
    }

    #[test]
    fn churn_never_touches_a_vm_younger_than_its_maturity() {
        let maturity = 64;
        let mut c = Churn::new(3, specs(), 100, maturity, (45, 45), 1 << 40);
        let mut born: BTreeMap<VmId, u64> = BTreeMap::new();
        let mut live: BTreeSet<VmId> = BTreeSet::new();
        for op in c.prefill() {
            let GenOp::Place { id, .. } = op else {
                panic!("prefill only places")
            };
            assert!(id.0 >= 1 << 40);
            live.insert(id);
        }
        for i in 0..20_000u64 {
            match c.next_op() {
                GenOp::Place { id, .. } => {
                    assert!(live.insert(id), "{id} placed twice");
                    born.insert(id, i);
                }
                GenOp::Remove { id } => {
                    assert!(live.remove(&id), "{id} removed while not live");
                    assert!(born.get(&id).is_none_or(|b| i - b >= maturity));
                }
                GenOp::Resize { id, vcpus, mem_mib } => {
                    assert!(live.contains(&id));
                    assert!(vcpus >= 1 && mem_mib >= 1);
                    assert!(born.get(&id).is_none_or(|b| i - b >= maturity));
                }
            }
        }
        assert_eq!(c.live(), live.len());
        let drained = c.drain();
        assert_eq!(drained.len(), live.len());
        assert_eq!(c.live(), 0);
    }

    #[test]
    fn timed_reps_honours_the_minimum_and_the_clock() {
        let mut calls = 0;
        assert_eq!(timed_reps(0.0, 3, || calls += 1), 3);
        assert_eq!(calls, 3);
        let n = timed_reps(0.02, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!(
            (2..=6).contains(&n),
            "{n} repetitions in 20 ms of 5 ms sleeps"
        );
    }

    #[test]
    fn week_f_sanity_guards_the_stand_in_rng() {
        let mut oracles = Oracles::default();
        let trace = week_f(400, 11, &mut oracles);
        assert!(trace.workload.num_arrivals() > 1000);
        assert_eq!(oracles.into_failures(), Vec::<String>::new());
        assert!(!shapes(&trace.workload).is_empty());
    }

    /// A workload whose repetitions take a known, input-dependent time.
    struct Fake;

    impl Workload for Fake {
        /// (base latency in ns, repetitions made)
        type State = (u64, u64);

        fn name(&self) -> &'static str {
            "fake"
        }

        fn setup(&self, _: &Sizes, seed: u64, _: &mut Oracles) -> Self::State {
            (1000 + seed % 1000, 0)
        }

        fn rep(&self, state: &mut Self::State, _: &Sizes, _: &mut Oracles) -> Rep {
            state.1 += 1;
            // Every third repetition is caught by a "slow phase".
            let slow = if state.1 % 3 == 0 { 2 } else { 1 };
            Rep {
                ops: 10,
                wall_s: 1e-6 * slow as f64,
                lat_ns: vec![state.0 * slow; 10],
                attempted: 10,
                failed: 0,
            }
        }

        fn finish(&self, state: Self::State, _: &Sizes, oracles: &mut Oracles) -> u32 {
            oracles.check(state.1 > 0, || "never repeated".to_string());
            (state.0 / 100) as u32
        }

        fn traced(&self, _: &RunArgs) -> RunOutput {
            unreachable!("the untraced driver never traces")
        }
    }

    #[test]
    fn the_untraced_driver_reports_the_median_over_inputs_of_their_fast_deciles() {
        let sizes = Sizes {
            inputs: 3,
            extra_setups: 3,
            warmup_reps: 1,
            min_reps: 6,
            ..Sizes::quick()
        };
        let args = RunArgs {
            workload: "fake".into(),
            seed: 5,
            // Long enough for the extra set-ups to come due, short
            // enough that the minimum repetition count ends the run.
            seconds: 1e-6,
            trace: false,
            sizes,
        };
        let out = run_untraced(&Fake, &args);
        assert!(out.correct());
        assert_eq!((out.attempted, out.failed), (3 * 6 * 10, 0));
        let bases: Vec<u64> = (0..3).map(|i| 1000 + input_seed(5, i) % 1000).collect();
        let metric = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap();
        // The slow third of the repetitions does not reach the decile.
        let mut sorted = bases.clone();
        sorted.sort_unstable();
        let median_us = sorted[1] as f64 / 1e3;
        assert!((metric("op_p50_us").value - median_us).abs() < 1e-9);
        assert!((metric("op_p90_us").value - median_us).abs() < 1e-9);
        assert!((metric("ops_per_s").value - 1e7).abs() < 1e-3);
        // ...but it is in the samples the quartiles describe.
        assert_eq!(metric("op_p50_us").n, 18);
        assert!(metric("op_p50_us").q3 > metric("op_p50_us").value);
        let opened = bases.iter().map(|b| (b / 100) as f64).sum::<f64>() / 3.0;
        assert!((metric("opened_pms").value - opened).abs() < 1e-9);
        // One set-up per input, plus those spread over the window.
        assert!((3..=6).contains(&metric("setup_s").n));
        assert!(metric("peak_rss_mib").value > 0.0);
        assert_eq!(out.metrics.len(), END_TO_END.len());
    }

    #[test]
    fn input_seeds_differ_between_inputs_and_between_neighbouring_runs() {
        let mut seen = BTreeSet::new();
        for seed in 100..110 {
            for i in 0..4 {
                assert!(seen.insert(input_seed(seed, i)));
            }
        }
        assert_eq!(input_seed(7, 2), input_seed(7, 2));
    }

    #[test]
    fn metrics_carry_their_value_beside_quartiles_and_count() {
        let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
        let m = Metric::median_of("sched.calls", "count", &samples);
        assert_eq!((m.value, m.median, m.n), (3.0, 3.0, 5));
        assert!(m.q1 < m.median && m.median < m.q3);
        let picked = Metric::new("op_p50_us", "us", 1.0, &samples);
        assert_eq!((picked.value, picked.median), (1.0, 3.0));
    }
}
