//! The bombard load generator: workload scenarios as live traffic.
//!
//! Replays the VM shapes of a canned workload scenario
//! ([`slackvm_workload::scenarios`]) against a placement service as
//! fast as the service allows (closed loop) or at a fixed request rate
//! (open loop), in-process or over the TCP frontend, and reports
//! throughput plus tail latency ([`slackvm_perf::TailPercentiles`]).
//!
//! Closed loop: `clients` threads each keep a sliding window of
//! `population / clients` live VMs — every placement beyond the window
//! first removes the oldest — so the service sees the scenario's
//! steady-state occupancy, not unbounded growth. Latency is measured
//! client-side around each synchronous call.
//!
//! Open loop: a single pacer submits placements at `rate` requests per
//! second through the non-blocking path; a full queue counts as `busy`
//! (shed at the door) instead of slowing the pacer — the textbook
//! open-loop overload model.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use slackvm_model::{PmId, VmId, VmSpec};
use slackvm_perf::TailPercentiles;
use slackvm_workload::{scenarios, WorkloadEvent};

use crate::error::ServeError;
use crate::request::{Op, Outcome, Reply};
use crate::service::PlacementService;
use crate::wire;

/// Load-generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BombardConfig {
    /// Canned scenario name (see [`scenarios::SCENARIO_NAMES`]).
    pub scenario: String,
    /// Scenario population — also the closed-loop live-VM window.
    pub population: u32,
    /// Workload generation seed.
    pub seed: u64,
    /// Concurrent closed-loop clients.
    pub clients: u32,
    /// Total placement requests across all clients.
    pub requests: u64,
    /// Chaos mode: every `N` of client 0's placements, interleave a
    /// deterministic `fail-pm` or `recover-pm` control op. `None`
    /// disables chaos.
    pub chaos_fail_every: Option<u64>,
    /// Fraction of placed VMs pinned in place for the whole run
    /// (never removed by the sliding window, drained only at the end).
    /// The pinned set is exactly the VMs [`slackvm_pressure::is_hot`]
    /// marks hot for `usage_seed`, so a server running the pressure
    /// plane with the same seed sees its hot VMs accumulate into
    /// hotspots instead of churning away. `0.0` disables pinning.
    pub hot_frac: f64,
    /// Seed for the hot-VM draw — pass the server's
    /// `--pressure-usage-seed` so client pinning and server usage
    /// synthesis agree on which VMs are hot.
    pub usage_seed: u64,
}

impl Default for BombardConfig {
    fn default() -> Self {
        BombardConfig {
            scenario: "paper-week-f".into(),
            population: 200,
            seed: 42,
            clients: 4,
            requests: 10_000,
            chaos_fail_every: None,
            hot_frac: 0.0,
            usage_seed: 42,
        }
    }
}

impl BombardConfig {
    /// Rejects parameter combinations that break the generator's
    /// invariants — per-client request counts that would spill one
    /// client's VM ids into the next client's billion-wide band.
    pub fn validate(&self) -> Result<(), ServeError> {
        let clients = self.clients.max(1);
        let per_client = self.requests / clients as u64;
        if clients > 1 && per_client > CLIENT_ID_BAND {
            return Err(ServeError::Config(format!(
                "requests/clients = {per_client} exceeds the {CLIENT_ID_BAND}-wide \
                 per-client VM-id band: client ids would collide"
            )));
        }
        if self.chaos_fail_every == Some(0) {
            return Err(ServeError::Config(
                "chaos-fail-every must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.hot_frac) {
            return Err(ServeError::Config(
                "hot-frac must be within [0, 1]".into(),
            ));
        }
        Ok(())
    }

    /// The VM shapes the generator cycles through: every arrival spec
    /// of the scenario's workload, in trace order.
    pub fn specs(&self) -> Result<Vec<VmSpec>, ServeError> {
        let scenario = scenarios::by_name(&self.scenario, self.population).ok_or_else(|| {
            ServeError::Config(format!(
                "unknown scenario {:?} ({})",
                self.scenario,
                scenarios::SCENARIO_NAMES.join(", ")
            ))
        })?;
        let workload = scenario.generate(self.seed);
        let specs: Vec<VmSpec> = workload
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                WorkloadEvent::Arrival(vm) => Some(vm.spec),
                _ => None,
            })
            .collect();
        if specs.is_empty() {
            return Err(ServeError::Config(format!(
                "scenario {:?} generated no arrivals",
                self.scenario
            )));
        }
        Ok(specs)
    }
}

/// What a bombard run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct BombardReport {
    /// `"closed-loop"`, `"open-loop"`, or `"closed-loop/tcp"`.
    pub mode: String,
    /// Operations executed (placements plus window removals).
    pub ops: u64,
    /// Wall-clock duration of the run.
    pub wall_secs: f64,
    /// `ops / wall_secs`.
    pub throughput: f64,
    /// Placements admitted.
    pub placed: u64,
    /// Placements rejected.
    pub rejected: u64,
    /// Requests shed past deadline.
    pub shed: u64,
    /// Open-loop submissions refused at the door (queue full).
    pub busy: u64,
    /// Unknown-VM answers.
    pub unknown: u64,
    /// Window removals executed.
    pub removed: u64,
    /// Chaos control ops issued (`fail-pm` + `recover-pm`).
    pub chaos_ops: u64,
    /// VMs evicted by chaos-injected PM failures.
    pub evicted: u64,
    /// Evicted VMs the service could not re-place anywhere (lost).
    pub lost: u64,
    /// Placement latency distribution, microseconds (client-observed in
    /// closed loop, worker-observed in open loop). `None` when nothing
    /// completed.
    pub latency: Option<TailPercentiles>,
    /// Server-reported per-stage breakdown of the same requests, from
    /// the stage fields replies carry when the service runs staged
    /// tracing. Empty under `TraceLevel::Off`.
    pub stages: StageBreakdown,
}

/// Server-side stage latencies of the bombarded requests: where the
/// client-observed latency was actually spent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageBreakdown {
    /// Queue-wait stage (enqueue → dequeue).
    pub queue: Option<TailPercentiles>,
    /// Placement stage (dequeue → decision).
    pub place: Option<TailPercentiles>,
    /// WAL-commit stage (zero-duration when the service is in-memory).
    pub commit: Option<TailPercentiles>,
}

impl StageBreakdown {
    /// Whether any stage was reported.
    pub fn is_empty(&self) -> bool {
        self.queue.is_none() && self.place.is_none() && self.commit.is_none()
    }
}

/// Per-client accumulator of server-reported stage samples.
#[derive(Default)]
struct StageSamples {
    queue: Vec<f64>,
    place: Vec<f64>,
    commit: Vec<f64>,
}

/// Server-reported queue / place / commit times of one reply, each
/// `None` where the reply carried none.
type StageSample = [Option<u64>; 3];

/// The stage sample of an in-process reply: all three fields when the
/// service stages its requests, nothing under `TraceLevel::Off`.
fn stage_sample(reply: &Reply, staged: bool) -> StageSample {
    [reply.queue_us, reply.place_us, reply.commit_us].map(|us| staged.then_some(us))
}

impl StageSamples {
    fn note(&mut self, [queue, place, commit]: StageSample) {
        self.queue.extend(queue.map(|us| us as f64));
        self.place.extend(place.map(|us| us as f64));
        self.commit.extend(commit.map(|us| us as f64));
    }

    fn absorb(&mut self, other: StageSamples) {
        self.queue.extend(other.queue);
        self.place.extend(other.place);
        self.commit.extend(other.commit);
    }

    fn breakdown(&self) -> StageBreakdown {
        StageBreakdown {
            queue: TailPercentiles::of(&self.queue),
            place: TailPercentiles::of(&self.place),
            commit: TailPercentiles::of(&self.commit),
        }
    }
}

impl BombardReport {
    /// Renders the human-readable summary block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("bombard ({})\n", self.mode));
        out.push_str(&format!(
            "  ops        {} in {:.3} s  ({:.0} ops/s)\n",
            self.ops, self.wall_secs, self.throughput
        ));
        out.push_str(&format!(
            "  outcomes   placed {}  rejected {}  shed {}  busy {}  unknown {}  removed {}\n",
            self.placed, self.rejected, self.shed, self.busy, self.unknown, self.removed
        ));
        if self.chaos_ops > 0 {
            out.push_str(&format!(
                "  chaos      ops {}  evicted {}  lost {}\n",
                self.chaos_ops, self.evicted, self.lost
            ));
        }
        match &self.latency {
            Some(p) => out.push_str(&format!(
                "  latency    p50 {:.0} us  p99 {:.0} us  p999 {:.0} us  max {:.0} us  (n={})\n",
                p.p50, p.p99, p.p999, p.max, p.count
            )),
            None => out.push_str("  latency    (no completed placements)\n"),
        }
        if !self.stages.is_empty() {
            let cell = |p: &Option<TailPercentiles>| match p {
                Some(p) => format!("p50 {:.0}/p99 {:.0} us", p.p50, p.p99),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "  server     queue {}  place {}  commit {}\n",
                cell(&self.stages.queue),
                cell(&self.stages.place),
                cell(&self.stages.commit)
            ));
        }
        out
    }
}

#[derive(Default)]
struct Tally {
    placed: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    busy: AtomicU64,
    unknown: AtomicU64,
    removed: AtomicU64,
    chaos_ops: AtomicU64,
    evicted: AtomicU64,
    lost: AtomicU64,
}

impl Tally {
    fn note(&self, outcome: Outcome) {
        match outcome {
            Outcome::Placed(_) => self.placed.fetch_add(1, Ordering::Relaxed),
            Outcome::Rejected => self.rejected.fetch_add(1, Ordering::Relaxed),
            Outcome::Shed => self.shed.fetch_add(1, Ordering::Relaxed),
            Outcome::UnknownVm => self.unknown.fetch_add(1, Ordering::Relaxed),
            Outcome::Removed(_) => self.removed.fetch_add(1, Ordering::Relaxed),
            Outcome::Resized { .. } => 0,
            Outcome::PmFailed { evicted, lost, .. } | Outcome::PmDraining { evicted, lost, .. } => {
                self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
                self.lost.fetch_add(lost as u64, Ordering::Relaxed);
                self.chaos_ops.fetch_add(1, Ordering::Relaxed)
            }
            Outcome::PmRecovered => self.chaos_ops.fetch_add(1, Ordering::Relaxed),
        };
    }
}

fn report(
    mode: &str,
    ops: u64,
    wall: Duration,
    tally: &Tally,
    latencies: &[f64],
    stages: &StageSamples,
) -> BombardReport {
    let wall_secs = wall.as_secs_f64().max(1e-9);
    BombardReport {
        mode: mode.into(),
        ops,
        wall_secs,
        throughput: ops as f64 / wall_secs,
        placed: tally.placed.load(Ordering::Relaxed),
        rejected: tally.rejected.load(Ordering::Relaxed),
        shed: tally.shed.load(Ordering::Relaxed),
        busy: tally.busy.load(Ordering::Relaxed),
        unknown: tally.unknown.load(Ordering::Relaxed),
        removed: tally.removed.load(Ordering::Relaxed),
        chaos_ops: tally.chaos_ops.load(Ordering::Relaxed),
        evicted: tally.evicted.load(Ordering::Relaxed),
        lost: tally.lost.load(Ordering::Relaxed),
        latency: TailPercentiles::of(latencies),
        stages: stages.breakdown(),
    }
}

/// Width of each client's private VM-id band.
const CLIENT_ID_BAND: u64 = 1_000_000_000;

/// Each client's VM ids live in a disjoint billion-wide band so clients
/// can never collide ([`BombardConfig::validate`] enforces the width).
fn client_vm_id(client: u32, n: u64) -> VmId {
    VmId(client as u64 * CLIENT_ID_BAND + n)
}

/// Deterministic chaos driver: client 0 interleaves one `fail-pm` or
/// `recover-pm` control op every `every` of its own placements. Targets
/// are drawn from a splitmix of the workload seed, at most two PMs are
/// down at any moment (the oldest is recovered first), and every PM
/// still down when the client finishes is recovered so the run ends on
/// a healthy fleet.
struct Chaos {
    every: u64,
    shards: u32,
    state: u64,
    down: VecDeque<(u32, u32)>,
}

impl Chaos {
    fn new(config: &BombardConfig, shards: u32) -> Option<Chaos> {
        let every = config.chaos_fail_every.filter(|&n| n > 0)?;
        Some(Chaos {
            every,
            shards: shards.max(1),
            state: config.seed | 1,
            down: VecDeque::new(),
        })
    }

    fn splitmix(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The control op due after client 0's `n`-th placement, if any.
    fn tick(&mut self, n: u64) -> Option<Op> {
        if (n + 1) % self.every != 0 {
            return None;
        }
        if self.down.len() >= 2 {
            return self.recover_oldest();
        }
        let draw = self.splitmix();
        let shard = (draw % self.shards as u64) as u32;
        // Low PM ids are the ones a loaded shard has certainly opened.
        let pm = ((draw >> 32) % 4) as u32;
        if self.down.contains(&(shard, pm)) {
            return self.recover_oldest();
        }
        self.down.push_back((shard, pm));
        Some(Op::FailPm { shard, pm: PmId(pm) })
    }

    fn recover_oldest(&mut self) -> Option<Op> {
        let (shard, pm) = self.down.pop_front()?;
        Some(Op::RecoverPm {
            shard,
            pm: PmId(pm),
        })
    }

    /// Recover-ops for every PM still down.
    fn drain(&mut self) -> Vec<Op> {
        std::iter::from_fn(|| self.recover_oldest()).collect()
    }
}

/// The closed loop both surfaces share (see the module docs): `connect`
/// opens one client's channel to the service — a round trip taking one
/// [`Op`] to its [`Outcome`] and the stage sample its reply carried —
/// and each of `config.clients` threads drives its own.
fn drive_closed_loop<T>(
    mode: &str,
    config: &BombardConfig,
    chaos_shards: u32,
    connect: impl Fn() -> Result<T, ServeError> + Sync,
) -> Result<BombardReport, ServeError>
where
    T: FnMut(Op) -> Result<(Outcome, StageSample), ServeError>,
{
    config.validate()?;
    let specs = config.specs()?;
    let clients = config.clients.max(1);
    let window = (config.population / clients).max(1) as usize;
    let per_client = config.requests / clients as u64;
    let tally = Tally::default();
    let started = Instant::now();
    let mut ops = 0u64;
    let mut all_latencies: Vec<f64> = Vec::new();
    let mut all_stages = StageSamples::default();

    std::thread::scope(|scope| -> Result<(), ServeError> {
        let mut handles = Vec::new();
        for client in 0..clients {
            let (specs, tally, connect) = (&specs, &tally, &connect);
            handles.push(scope.spawn(
                move || -> Result<(u64, Vec<f64>, StageSamples), ServeError> {
                    let mut round_trip = connect()?;
                    let mut ops = 0u64;
                    let mut issue = |op: Op| -> Result<(Outcome, StageSample), ServeError> {
                        let answer = round_trip(op)?;
                        ops += 1;
                        tally.note(answer.0);
                        Ok(answer)
                    };
                    let mut alive: VecDeque<VmId> = VecDeque::with_capacity(window + 1);
                    let mut pinned: Vec<VmId> = Vec::new();
                    let mut latencies = Vec::with_capacity(per_client as usize);
                    let mut stages = StageSamples::default();
                    // Client 0 doubles as the chaos injector.
                    let mut chaos = (client == 0)
                        .then(|| Chaos::new(config, chaos_shards))
                        .flatten();
                    // Clients start at staggered offsets of the trace so the
                    // fleet sees the scenario's mix, not one slice of it.
                    let offset = (client as usize * specs.len()) / clients as usize;
                    for n in 0..per_client {
                        let spec = specs[(offset + n as usize) % specs.len()];
                        let id = client_vm_id(client, n);
                        let t0 = Instant::now();
                        let (outcome, sample) = issue(Op::Place { id, spec })?;
                        latencies.push(t0.elapsed().as_micros() as f64);
                        stages.note(sample);
                        if matches!(outcome, Outcome::Placed(_)) {
                            // Hot VMs sit out the sliding window: they stay
                            // placed for the whole run, accumulating into the
                            // hotspots the server's pressure plane hunts.
                            if slackvm_pressure::is_hot(config.usage_seed, id, config.hot_frac) {
                                pinned.push(id);
                            } else {
                                alive.push_back(id);
                            }
                        }
                        if alive.len() > window {
                            let oldest = alive.pop_front().expect("window > 0");
                            issue(Op::Remove { id: oldest })?;
                        }
                        if let Some(op) = chaos.as_mut().and_then(|chaos| chaos.tick(n)) {
                            issue(op)?;
                        }
                    }
                    // Recover every PM chaos still has down, then drain the
                    // window, so the run ends on a healthy, empty fleet.
                    for op in chaos.as_mut().map(Chaos::drain).unwrap_or_default() {
                        issue(op)?;
                    }
                    for id in alive.into_iter().chain(pinned) {
                        issue(Op::Remove { id })?;
                    }
                    Ok((ops, latencies, stages))
                },
            ));
        }
        for handle in handles {
            let (client_ops, latencies, stages) =
                handle.join().expect("bombard client panicked")?;
            ops += client_ops;
            all_latencies.extend(latencies);
            all_stages.absorb(stages);
        }
        Ok(())
    })?;

    Ok(report(
        mode,
        ops,
        started.elapsed(),
        &tally,
        &all_latencies,
        &all_stages,
    ))
}

/// Closed-loop, in-process: see the module docs.
pub fn run_closed_loop(
    service: &PlacementService,
    config: &BombardConfig,
) -> Result<BombardReport, ServeError> {
    let staged = service.config().trace.stages();
    drive_closed_loop("closed-loop", config, service.config().shards, || {
        Ok(move |op| {
            let reply = service.call(op)?;
            Ok((reply.outcome, stage_sample(&reply, staged)))
        })
    })
}

/// Open-loop, in-process: paced submission at `rate` placements per
/// second through [`PlacementService::try_submit_with`]; a full queue
/// counts as `busy`. Latencies are the worker-observed queueing plus
/// service times.
pub fn run_open_loop(
    service: &PlacementService,
    config: &BombardConfig,
    rate: f64,
) -> Result<BombardReport, ServeError> {
    if rate.is_nan() || rate <= 0.0 {
        return Err(ServeError::Config("open-loop rate must be positive".into()));
    }
    config.validate()?;
    let specs = config.specs()?;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let tally = Tally::default();
    let (reply_tx, reply_rx) = mpsc::channel();
    let started = Instant::now();
    let mut submitted = 0u64;
    for n in 0..config.requests {
        let due = started + interval.mul_f64(n as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let op = Op::Place {
            id: client_vm_id(0, n),
            spec: specs[n as usize % specs.len()],
        };
        match service.try_submit_with(op, reply_tx.clone()) {
            Ok(_) => submitted += 1,
            Err(ServeError::Busy) => {
                tally.busy.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => return Err(e),
        }
    }
    drop(reply_tx);
    let staged = service.config().trace.stages();
    let mut latencies = Vec::with_capacity(submitted as usize);
    let mut stages = StageSamples::default();
    for _ in 0..submitted {
        let reply = reply_rx.recv().map_err(|_| ServeError::Disconnected)?;
        tally.note(reply.outcome);
        latencies.push(reply.latency_us as f64);
        stages.note(stage_sample(&reply, staged));
    }
    Ok(report(
        "open-loop",
        submitted,
        started.elapsed(),
        &tally,
        &latencies,
        &stages,
    ))
}

/// Closed-loop over the TCP frontend: like [`run_closed_loop`], but
/// each client drives its own connection with wire-protocol lines.
pub fn run_tcp(addr: &str, config: &BombardConfig) -> Result<BombardReport, ServeError> {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    // The shard count is not visible over the wire, so chaos targets
    // shard 0.
    drive_closed_loop("closed-loop/tcp", config, 1, || {
        let stream = TcpStream::connect(addr)?;
        // One-line requests: never wait out Nagle + delayed ACK.
        stream.set_nodelay(true)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        Ok(move |op: Op| {
            writeln!(writer, "{}", wire::render_request(&op))?;
            writer.flush()?;
            line.clear();
            reader.read_line(&mut line)?;
            let reply = wire::parse_reply(&line)?;
            Ok((
                crate::tcp::classify(&reply),
                [reply.queue_us, reply.place_us, reply.commit_us],
            ))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ModelSpec, ServeConfig};

    fn service(shards: u32) -> PlacementService {
        PlacementService::start(ServeConfig {
            shards,
            model: ModelSpec::default_shared(),
            ..ServeConfig::default()
        })
        .unwrap()
    }

    fn small() -> BombardConfig {
        BombardConfig {
            population: 64,
            clients: 2,
            requests: 400,
            ..BombardConfig::default()
        }
    }

    #[test]
    fn unknown_scenario_is_a_config_error() {
        let config = BombardConfig {
            scenario: "rush-hour".into(),
            ..BombardConfig::default()
        };
        let err = config.specs().unwrap_err().to_string();
        assert!(
            err.contains("rush-hour") && err.contains("paper-week-f"),
            "{err}"
        );
    }

    #[test]
    fn closed_loop_places_everything_on_an_elastic_fleet() {
        let svc = service(2);
        let report = run_closed_loop(&svc, &small()).unwrap();
        assert_eq!(report.placed, 400, "{report:?}");
        assert_eq!(report.rejected + report.shed + report.unknown, 0);
        assert_eq!(report.removed, report.placed, "window fully drained");
        assert_eq!(report.ops, report.placed + report.removed);
        let p = report.latency.expect("latencies recorded");
        assert_eq!(p.count, 400);
        assert!(p.p50 <= p.p99 && p.p99 <= p.max);
        // Default trace level stages every request: the server-side
        // breakdown rides back on the replies.
        assert!(!report.stages.is_empty(), "{report:?}");
        assert_eq!(report.stages.queue.as_ref().unwrap().count, 400);
        assert!(report.render().contains("server     queue"), "{report:?}");
        let final_report = svc.stop();
        for shard in &final_report.shards {
            let (alloc, _) = shard.model.totals();
            assert!(alloc.is_empty(), "shard {} not drained", shard.shard);
        }
        final_report.check_invariants().unwrap();
    }

    #[test]
    fn colliding_client_bands_are_rejected() {
        let config = BombardConfig {
            clients: 2,
            requests: 4_000_000_000,
            ..BombardConfig::default()
        };
        let err = config.validate().unwrap_err().to_string();
        assert!(err.contains("band"), "{err}");
        assert!(BombardConfig::default().validate().is_ok());
        let zero = BombardConfig {
            chaos_fail_every: Some(0),
            ..BombardConfig::default()
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn chaos_failures_evacuate_and_recover() {
        let svc = service(2);
        let config = BombardConfig {
            chaos_fail_every: Some(25),
            ..small()
        };
        let report = run_closed_loop(&svc, &config).unwrap();
        assert!(report.chaos_ops > 0, "{report:?}");
        // The elastic fleet always has room, so every evicted VM is
        // re-placed and every window removal still finds its VM.
        assert_eq!(report.placed, 400, "{report:?}");
        assert_eq!(report.lost, 0, "{report:?}");
        assert_eq!(report.unknown, 0, "{report:?}");
        assert_eq!(
            report.ops,
            report.placed + report.removed + report.chaos_ops
        );
        let final_report = svc.stop();
        for shard in &final_report.shards {
            assert_eq!(shard.model.failed_pms(), 0, "shard {}", shard.shard);
            let (alloc, _) = shard.model.totals();
            assert!(alloc.is_empty(), "shard {} not drained", shard.shard);
        }
        final_report.check_invariants().unwrap();
    }

    #[test]
    fn hot_pinned_vms_survive_the_window_and_drain_at_the_end() {
        let svc = service(2);
        let config = BombardConfig {
            hot_frac: 0.25,
            ..small()
        };
        let report = run_closed_loop(&svc, &config).unwrap();
        // Every placed VM — windowed or pinned — is removed by the end,
        // so the run still drains to an empty fleet.
        assert_eq!(report.placed, 400, "{report:?}");
        assert_eq!(report.removed, report.placed, "{report:?}");
        assert_eq!(report.unknown, 0, "{report:?}");
        let final_report = svc.stop();
        for shard in &final_report.shards {
            let (alloc, _) = shard.model.totals();
            assert!(alloc.is_empty(), "shard {} not drained", shard.shard);
        }
        final_report.check_invariants().unwrap();

        let bad = BombardConfig {
            hot_frac: 1.5,
            ..BombardConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    /// One client, chaos and hot pinning on: the in-process and the TCP
    /// surface drive the same loop, so against fresh one-shard services
    /// they issue the same ops and count the same outcomes.
    #[test]
    fn in_process_and_tcp_runs_tally_identically() {
        use std::io::Write;
        let config = BombardConfig {
            clients: 1,
            requests: 300,
            chaos_fail_every: Some(20),
            hot_frac: 0.25,
            ..small()
        };
        let svc = service(1);
        let local = run_closed_loop(&svc, &config).unwrap();
        svc.stop().check_invariants().unwrap();

        let server = crate::tcp::TcpServer::bind("127.0.0.1:0", service(1)).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let remote = run_tcp(&addr.to_string(), &config).unwrap();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let (_, final_report) = handle.join().unwrap();
        final_report.check_invariants().unwrap();

        assert_eq!(local.mode, "closed-loop");
        assert_eq!(remote.mode, "closed-loop/tcp");
        let tallies = |r: &BombardReport| {
            let outcomes = [r.placed, r.removed, r.rejected, r.shed, r.unknown];
            (r.ops, outcomes, [r.chaos_ops, r.evicted, r.lost])
        };
        assert_eq!(tallies(&local), tallies(&remote), "{local:?}\n{remote:?}");
        assert_eq!(local.placed, 300, "{local:?}");
        assert!(local.chaos_ops > 0 && local.evicted > 0, "{local:?}");
        assert_eq!(local.ops, local.placed + local.removed + local.chaos_ops);
        for report in [&local, &remote] {
            assert_eq!(report.latency.as_ref().unwrap().count, 300);
        }
        assert_eq!(local.stages.queue.as_ref().unwrap().count, 300);
    }

    #[test]
    fn open_loop_completes_at_a_modest_rate() {
        let svc = service(1);
        let config = BombardConfig {
            requests: 50,
            ..small()
        };
        let report = run_open_loop(&svc, &config, 5_000.0).unwrap();
        assert_eq!(report.placed, 50, "{report:?}");
        assert_eq!(report.busy, 0);
        assert!(report.latency.is_some());
        svc.stop().check_invariants().unwrap();
    }
}
