//! Shard workers: single-threaded owners of a fleet partition.
//!
//! Each shard owns one [`DeploymentModel`] outright — admission within a
//! shard is lock-free because exactly one thread ever touches the model.
//! Coordination happens at the edges: a bounded MPSC admission queue in
//! front of each worker, lock-striped shared metrics flushed once per
//! batch, and atomic [`ShardSummary`] scoreboards the router reads
//! without locking.
//!
//! Shutdown is an explicit [`Msg::Stop`] message rather than
//! sender-drop: workers hold clones of *every* shard's sender (for
//! rejection fall-through), so a drop-based protocol would deadlock —
//! each worker would wait for the others to drop first.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use slackvm_durable::{CommitStamp, DurableError, ShardDurable, WalOp, WalOutcome};
use slackvm_model::{AllocView, PmId, VmId};
use slackvm_sim::{DeploymentModel, SimError};
use slackvm_telemetry::{MetricsRegistry, SloTracker, SlowOpsDigest, TraceBuilder, TraceSpan};

use crate::request::{Op, Outcome, PressureOptions, RebalanceOptions, Reply, TraceLevel};

/// Milliseconds elapsed since the service's trace epoch.
pub(crate) fn ms_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_millis() as u64
}

/// One queued request, carrying its reply channel.
pub(crate) struct Request {
    pub seq: u64,
    pub op: Op,
    /// Shed when still queued past this instant (`None`: never shed).
    pub deadline: Option<Instant>,
    /// Door-accept instant — when the request crossed the service
    /// boundary (TCP read complete / `submit` entered), before routing.
    pub door: Instant,
    /// Submission instant, for end-to-end latency accounting.
    pub enqueued: Instant,
    /// Request-scoped trace ID, minted at the door.
    pub trace: u64,
    /// Shards that already rejected this request (fall-through hops).
    pub tried: u32,
    /// `Some(origin shard)` for an evacuation re-placement minted by a
    /// `FailPm`/`DrainPm`: no client is waiting on the reply channel,
    /// the deadline is `None` (evacuations are never shed), and the
    /// terminal outcome is tallied against the origin's evacuation
    /// scoreboard (and the lost-VM ledger) instead of a caller.
    pub evac: Option<u32>,
    pub reply: Sender<Reply>,
}

/// The admission-queue message.
pub(crate) enum Msg {
    Req(Request),
    /// Process what is queued, then exit — see the module docs for why
    /// shutdown is a message and not a disconnect.
    Stop,
    /// Test hook: sleep this long mid-loop, wedging the worker so the
    /// `/healthz` watchdog's stall detection can be exercised without
    /// a pathological model.
    #[allow(dead_code)]
    Stall(Duration),
    /// Test hook: simulate a journal write failure, so journal-degraded
    /// mode can be exercised without an actual disk fault.
    #[allow(dead_code)]
    DegradeJournal,
    /// Run one tick of a background plane right now, bypassing its
    /// interval (the safety interlocks still apply), and report what it
    /// did. Runs inline at message-drain time: requests already drained
    /// into the current batch execute after the tick.
    Tick(Plane, Sender<PlaneTick>),
}

/// A background plane of the shard worker. Both planes run through
/// [`Worker::plane_tick`]; they differ in how a tick plans its moves and
/// in what it accounts for afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Plane {
    /// Consolidation: drain the least-utilized PMs (`slackvm_rebalance`).
    Rebalance,
    /// Hotspot mitigation: spread hot PMs onto cold ones
    /// (`slackvm_pressure`).
    Pressure,
}

impl Plane {
    /// The plane's metric names: plans counter, planning-time
    /// histogram, migrations counter.
    fn metric_names(self) -> [&'static str; 3] {
        match self {
            Plane::Rebalance => [
                "rebalance.plans",
                "rebalance.plan_us",
                "rebalance.migrations",
            ],
            Plane::Pressure => ["pressure.plans", "pressure.plan_us", "pressure.migrations"],
        }
    }
}

/// Why a background-plane tick declined to plan: background work yields
/// to anything more important the shard is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickSkip {
    /// The worker was started without this plane configured.
    Disabled,
    /// A PM on the shard is draining for maintenance.
    Draining,
    /// A PM on the shard is failed and not yet recovered.
    FailedPms,
    /// The shard serves without durability after a journal failure.
    JournalDegraded,
    /// The SLO tracker reports error-budget burn or a latency miss.
    SloBurn,
}

/// What one online background-plane tick did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlaneTick {
    /// `Some` when the tick declined to plan (and why); `None` when a
    /// planning pass ran, even one that found nothing to move.
    pub skipped: Option<TickSkip>,
    /// Migrations executed this tick.
    pub migrations: u32,
    /// Moves the plan wanted beyond this tick's concurrency throttle —
    /// the next tick re-plans and picks them up.
    pub deferred: u32,
    /// PMs drained to empty this tick (consolidation ticks).
    pub pms_freed: u32,
    /// Hot PMs observed at the start of the tick (pressure ticks).
    pub hot_pms: u32,
}

/// A shard's lock-free scoreboard: queue depth and coarse utilization,
/// refreshed by the owning worker once per batch and read by the router
/// and the sampler without synchronization.
#[derive(Debug, Default)]
pub struct ShardSummary {
    queued: AtomicUsize,
    admitted: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    opened_pms: AtomicU64,
    used_cpu_mc: AtomicU64,
    cap_cpu_mc: AtomicU64,
    /// Worker liveness heartbeat: milliseconds since the service epoch
    /// at the worker's last loop turn (idle timeouts count — an idle
    /// worker is alive, a wedged one is not).
    last_beat_ms: AtomicU64,
    /// PMs on this shard currently failed (crashed, not yet recovered).
    failed_pms: AtomicU64,
    /// PMs on this shard currently draining for maintenance.
    draining_pms: AtomicU64,
    /// Displaced VMs this shard has forwarded into the ring whose
    /// evacuation has not resolved (placed or lost) yet — nonzero means
    /// an evacuation is still in progress.
    evac_pending: AtomicU64,
    /// Set once the worker's journal has failed and the shard serves
    /// without durability; `/healthz` names the shard.
    journal_degraded: AtomicBool,
    /// Migrations the online rebalancer has executed on this shard.
    rebalance_migrations: AtomicU64,
    /// PMs the online rebalancer has drained to empty on this shard.
    rebalance_pms_freed: AtomicU64,
    /// Spread-out migrations the pressure plane has executed.
    pressure_migrations: AtomicU64,
    /// Hot PMs observed by the most recent pressure tick.
    pressure_hot_pms: AtomicU64,
}

impl ShardSummary {
    /// Requests currently queued (approximate under concurrency).
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Placements admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Placements rejected so far (after fall-through).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Requests shed past their deadline.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// PMs opened on this shard's partition.
    pub fn opened_pms(&self) -> u64 {
        self.opened_pms.load(Ordering::Relaxed)
    }

    /// Allocated CPU, millicores.
    pub fn used_cpu_millicores(&self) -> u64 {
        self.used_cpu_mc.load(Ordering::Relaxed)
    }

    /// Capacity over opened PMs, millicores.
    pub fn capacity_cpu_millicores(&self) -> u64 {
        self.cap_cpu_mc.load(Ordering::Relaxed)
    }

    pub(crate) fn note_enqueued(&self) {
        self.queued.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_dequeued(&self) {
        // Saturating: a racing reader must never observe a wrap-around.
        let _ = self
            .queued
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |q| {
                Some(q.saturating_sub(1))
            });
    }

    fn add_counts(&self, admitted: u64, rejected: u64, shed: u64) {
        self.admitted.fetch_add(admitted, Ordering::Relaxed);
        self.rejected.fetch_add(rejected, Ordering::Relaxed);
        self.shed.fetch_add(shed, Ordering::Relaxed);
    }

    pub(crate) fn heartbeat(&self, t_ms: u64) {
        self.last_beat_ms.store(t_ms, Ordering::Relaxed);
    }

    /// Milliseconds-since-epoch of the worker's last heartbeat.
    pub fn last_beat_ms(&self) -> u64 {
        self.last_beat_ms.load(Ordering::Relaxed)
    }

    pub(crate) fn refresh(&self, opened: u64, alloc: AllocView, cap: AllocView) {
        self.opened_pms.store(opened, Ordering::Relaxed);
        self.used_cpu_mc.store(alloc.cpu.0, Ordering::Relaxed);
        self.cap_cpu_mc.store(cap.cpu.0, Ordering::Relaxed);
    }

    /// PMs currently failed on this shard.
    pub fn failed_pms(&self) -> u64 {
        self.failed_pms.load(Ordering::Relaxed)
    }

    /// PMs currently draining on this shard.
    pub fn draining_pms(&self) -> u64 {
        self.draining_pms.load(Ordering::Relaxed)
    }

    /// Displaced VMs whose evacuation (forwarded into the ring by this
    /// shard) has not resolved yet.
    pub fn evac_pending(&self) -> u64 {
        self.evac_pending.load(Ordering::Relaxed)
    }

    /// Whether this shard serves without durability after a journal
    /// write failure.
    pub fn journal_degraded(&self) -> bool {
        self.journal_degraded.load(Ordering::Relaxed)
    }

    pub(crate) fn set_pm_health(&self, failed: u64, draining: u64) {
        self.failed_pms.store(failed, Ordering::Relaxed);
        self.draining_pms.store(draining, Ordering::Relaxed);
    }

    pub(crate) fn note_evac_started(&self) {
        self.evac_pending.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_evac_resolved(&self) {
        let _ = self
            .evac_pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| {
                Some(p.saturating_sub(1))
            });
    }

    pub(crate) fn set_journal_degraded(&self, degraded: bool) {
        self.journal_degraded.store(degraded, Ordering::Relaxed);
    }

    /// Migrations the online rebalancer has executed on this shard.
    pub fn rebalance_migrations(&self) -> u64 {
        self.rebalance_migrations.load(Ordering::Relaxed)
    }

    /// PMs the online rebalancer has drained to empty on this shard.
    pub fn rebalance_pms_freed(&self) -> u64 {
        self.rebalance_pms_freed.load(Ordering::Relaxed)
    }

    pub(crate) fn note_rebalanced(&self, migrations: u64, pms_freed: u64) {
        self.rebalance_migrations
            .fetch_add(migrations, Ordering::Relaxed);
        self.rebalance_pms_freed
            .fetch_add(pms_freed, Ordering::Relaxed);
    }

    /// Spread-out migrations the pressure plane has executed on this
    /// shard.
    pub fn pressure_migrations(&self) -> u64 {
        self.pressure_migrations.load(Ordering::Relaxed)
    }

    /// Hot PMs the most recent pressure tick observed on this shard.
    pub fn pressure_hot_pms(&self) -> u64 {
        self.pressure_hot_pms.load(Ordering::Relaxed)
    }

    pub(crate) fn note_pressure(&self, migrations: u64, hot_pms: u64) {
        self.pressure_migrations
            .fetch_add(migrations, Ordering::Relaxed);
        self.pressure_hot_pms.store(hot_pms, Ordering::Relaxed);
    }
}

/// What a worker hands back when the service stops.
pub struct ShardReport {
    /// Shard index.
    pub shard: u32,
    /// The final deployment state, for invariant audits and totals.
    pub model: DeploymentModel,
    /// Placements admitted by this shard.
    pub admitted: u64,
    /// Placements this shard answered `Rejected` for.
    pub rejected: u64,
    /// Requests this shard shed.
    pub shed: u64,
    /// Slowest sampled request lifecycles seen by this shard (empty
    /// unless the service ran with [`TraceLevel::Sampled`]).
    pub slow: SlowOpsDigest,
}

/// Per-shard gauge names, leaked once per service start so the
/// `&'static str`-keyed registry can carry them.
pub(crate) struct ShardGauges {
    pub opened: &'static str,
    pub cpu_used_cores: &'static str,
    pub queue_depth: &'static str,
}

impl ShardGauges {
    pub(crate) fn for_shard(idx: u32) -> Self {
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        ShardGauges {
            opened: leak(format!("serve.shard{idx}.opened_pms")),
            cpu_used_cores: leak(format!("serve.shard{idx}.cpu_used_cores")),
            queue_depth: leak(format!("serve.shard{idx}.queue_depth")),
        }
    }
}

pub(crate) struct Worker {
    pub idx: u32,
    pub rx: std::sync::mpsc::Receiver<Msg>,
    /// Senders to every shard (self included), for fall-through.
    pub peers: Vec<SyncSender<Msg>>,
    pub model: DeploymentModel,
    pub summaries: Arc<Vec<ShardSummary>>,
    pub directory: Arc<Mutex<HashMap<VmId, u32>>>,
    pub metrics: Arc<Mutex<MetricsRegistry>>,
    pub gauges: ShardGauges,
    pub batch_max: usize,
    /// Deterministic mode never sheds.
    pub deterministic: bool,
    /// Write-ahead journal of this shard's decisions, when the service
    /// runs durable. Appends happen as decisions are made; the batch is
    /// committed (fsync per policy) *before* any reply is released.
    pub durable: Option<ShardDurable>,
    /// What a journal write failure does: `true` panics the worker
    /// (fail-stop), `false` enters journal-degraded mode — the shard
    /// keeps serving from memory and `/healthz` names it.
    pub fail_stop: bool,
    /// Service-wide ledger of VMs lost to evacuation: displaced by a
    /// PM failure and not re-placeable anywhere in the ring.
    pub lost: Arc<Mutex<Vec<VmId>>>,
    /// PMs on this shard currently draining (operator-initiated, as
    /// opposed to failed). The model tracks both identically; this set
    /// keeps the distinction for health reporting.
    pub draining: BTreeSet<PmId>,
    /// The service's trace epoch: all stage timestamps and heartbeats
    /// are offsets from this instant.
    pub epoch: Instant,
    /// How much per-request timing to record.
    pub level: TraceLevel,
    /// Shared span sink for sampled request lifecycles (present only
    /// under [`TraceLevel::Sampled`]).
    pub sink: Option<Arc<Mutex<TraceBuilder>>>,
    /// Rolling SLO window, fed once per batch.
    pub slo: Arc<Mutex<SloTracker>>,
    /// Per-shard top-K slowest sampled requests.
    pub slow: SlowOpsDigest,
    /// Idle-wait bound of the loop: waking this often stamps the
    /// liveness heartbeat even with no traffic.
    pub heartbeat_every: Duration,
    /// Online consolidation config (`None`: rebalancing off).
    pub rebalance: Option<RebalanceOptions>,
    /// When the last rebalance tick ran (or was skipped).
    pub last_rebalance: Instant,
    /// Online hotspot mitigation config (`None`: pressure plane off).
    pub pressure: Option<PressureOptions>,
    /// When the last pressure tick ran (or was skipped).
    pub last_pressure: Instant,
    /// Per-VM usage estimators, fed one synthesized sample per placed
    /// VM at each pressure tick.
    pub usage: slackvm_pressure::UsageTracker,
    /// Each PM's classification from the last pressure tick — the
    /// hysteresis memory the next tick classifies against.
    pub pressure_states: std::collections::BTreeMap<
        slackvm_pressure::StateKey,
        slackvm_pressure::PressureState,
    >,
}

/// Per-batch counter deltas, flushed under one metrics lock, plus the
/// replies to release once the flush lands.
#[derive(Default)]
struct BatchStats {
    requests: u64,
    admitted: u64,
    rejected: u64,
    shed: u64,
    removed: u64,
    resized: u64,
    unknown: u64,
    forwarded: u64,
    latencies_us: Vec<u64>,
    /// Queue-wait stage durations (enqueue → dequeue), when staged.
    queue_waits_us: Vec<u64>,
    /// Placement stage durations (dequeue → decision), when staged.
    places_us: Vec<u64>,
    /// Latencies of requests shed this batch (SLO "bad" events).
    shed_latencies_us: Vec<u64>,
    /// Displaced VMs re-placed this batch (locally or as a resolved
    /// evacuation forward).
    evac_replaced: u64,
    /// Displaced VMs lost this batch — no shard could absorb them.
    evac_lost: u64,
    /// Latencies of evacuations lost this batch (SLO "bad" events:
    /// losing a VM is the worst availability outcome the plane has).
    evac_lost_latencies_us: Vec<u64>,
    /// Sampled full lifecycles, emitted as spans after the commit.
    sampled: Vec<SampledLifecycle>,
    replies: Vec<(Sender<Reply>, Reply)>,
    /// Decisions to journal, in execution order (empty when the
    /// service is not durable).
    wal: Vec<(WalOp, WalOutcome)>,
    /// Journal bytes appended while executing the batch.
    wal_bytes: u64,
}

/// How many `try_send` attempts an evacuation forward makes against a
/// full peer queue before the VM is declared lost (backoff doubles
/// from 50µs between attempts).
const EVAC_RETRIES: u32 = 4;

/// What [`Worker::forward`] did with a request.
enum Forwarded {
    /// Handed to the next shard in the ring; it will answer.
    Sent,
    /// Answered `Rejected` here (ring exhausted or peer unreachable).
    Rejected,
    /// Answered `Shed` here (deadline already passed).
    Shed,
}

/// Epoch-relative stage timestamps of one sampled request, captured
/// while the batch executes and folded into Chrome-trace spans (one
/// track per trace ID) once the batch's commit lands.
struct SampledLifecycle {
    trace: u64,
    door_us: u64,
    enq_us: u64,
    deq_us: u64,
    dec_us: u64,
}

impl Worker {
    /// The worker loop: block for one message, drain up to `batch_max`,
    /// execute, flush. Returns the final state on [`Msg::Stop`] (after
    /// draining whatever is still queued).
    pub(crate) fn run(mut self) -> ShardReport {
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        let mut shed = 0u64;
        let mut draining = false;
        self.beat();
        // A recovered model may come back with hosts already failed;
        // publish them before the first request (the drain/fail
        // distinction is not persisted — a recovered down host reads
        // as failed until the operator recovers or re-drains it).
        self.summaries[self.idx as usize].set_pm_health(self.model.failed_pms() as u64, 0);
        loop {
            let first = if draining {
                match self.rx.try_recv() {
                    Ok(m) => m,
                    Err(_) => break,
                }
            } else {
                match self.rx.recv_timeout(self.heartbeat_every) {
                    Ok(m) => m,
                    // An idle worker is a live worker: the timeout wake
                    // exists solely to stamp the liveness heartbeat so
                    // the `/healthz` watchdog can tell idle from wedged.
                    Err(RecvTimeoutError::Timeout) => {
                        self.beat();
                        if let Some(plane) = self.due() {
                            self.plane_tick(plane);
                        }
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            };
            let mut batch: Vec<Request> = Vec::with_capacity(self.batch_max);
            let mut msg = first;
            loop {
                match msg {
                    Msg::Stop => draining = true,
                    Msg::Req(r) => batch.push(r),
                    // Wedge simulation: sleep without heartbeating, as a
                    // worker stuck in a pathological placement would.
                    Msg::Stall(d) => std::thread::sleep(d),
                    Msg::DegradeJournal => self.journal_failure("append", None),
                    Msg::Tick(plane, ack) => {
                        let tick = self.plane_tick(plane);
                        let _ = ack.send(tick);
                    }
                }
                if batch.len() >= self.batch_max {
                    break;
                }
                match self.rx.try_recv() {
                    Ok(m) => msg = m,
                    Err(_) => break,
                }
            }
            if !batch.is_empty() {
                let mut stats = self.process(batch);
                admitted += stats.admitted;
                rejected += stats.rejected;
                shed += stats.shed;
                // Durability point: the batch's journal frames reach
                // stable storage (per the fsync policy) before anything
                // downstream — metrics, replies — can reveal the
                // decisions. A failure here fail-stops the worker or
                // flips the shard to journal-degraded mode, per
                // configuration — either way no reply is released on
                // the strength of an unpersisted commit.
                let commit = match self.durable.as_mut().map(|d| d.commit()) {
                    Some(Ok(stamp)) => Some(stamp),
                    Some(Err(e)) => {
                        self.journal_failure("commit", Some(&e));
                        None
                    }
                    None => None,
                };
                let commit_us = commit
                    .map(|c| c.wall.as_micros() as u64)
                    .unwrap_or_default();
                if self.level.stages() && commit_us > 0 {
                    // The commit gated every reply in the batch equally:
                    // its wall time is each request's wal_commit stage.
                    for (_, reply) in stats.replies.iter_mut() {
                        reply.commit_us = commit_us;
                    }
                }
                self.emit_sampled(&stats, commit_us);
                self.summaries[self.idx as usize].add_counts(
                    stats.admitted,
                    stats.rejected,
                    stats.shed,
                );
                self.flush(&stats, commit);
                // Replies go out only after the metrics flush: a client
                // that has its reply in hand can scrape the exposition
                // and find its own request already counted.
                for (tx, reply) in stats.replies {
                    let _ = tx.send(reply);
                }
                // Snapshot cadence runs after replies: it bounds future
                // recovery time and should not sit in any request's
                // latency path beyond the batch that crossed it.
                let model = &self.model;
                match self.durable.as_mut().map(|d| d.maybe_snapshot(model)) {
                    Some(Ok(true)) => {
                        self.metrics
                            .lock()
                            .expect("metrics lock")
                            .inc("durable.snapshots", 1);
                    }
                    Some(Err(e)) => self.journal_failure("snapshot", Some(&e)),
                    _ => {}
                }
            }
            // Background planes interleave with admission: the interval
            // check is a clock read per configured plane, a tick itself
            // only runs when due — and never while the worker is
            // draining to exit.
            if !draining {
                if let Some(plane) = self.due() {
                    self.plane_tick(plane);
                }
            }
            self.beat();
        }
        // Drain-to-snapshot: a clean shutdown leaves the freshest
        // possible checkpoint so the next start replays no tail.
        let model = &self.model;
        if let Some(Err(e)) = self.durable.as_mut().map(|d| d.snapshot_now(model)) {
            self.journal_failure("final snapshot", Some(&e));
        }
        ShardReport {
            shard: self.idx,
            model: self.model,
            admitted,
            rejected,
            shed,
            slow: self.slow,
        }
    }

    /// Stamps the liveness heartbeat the `/healthz` watchdog reads.
    fn beat(&self) {
        self.summaries[self.idx as usize].heartbeat(ms_since(self.epoch));
    }

    /// The plane whose interval has elapsed, if any — at most one per
    /// loop turn. Mitigation and consolidation pull in opposite
    /// directions, so pressure preempts: consolidation waits for a turn
    /// on which no pressure tick is due. Reads no clock when no plane
    /// is configured.
    fn due(&self) -> Option<Plane> {
        let pressure = self
            .pressure
            .as_ref()
            .map(|o| (o.every, self.last_pressure));
        let rebalance = self
            .rebalance
            .as_ref()
            .map(|o| (o.every, self.last_rebalance));
        if pressure.is_some_and(|(every, last)| last.elapsed() >= every) {
            Some(Plane::Pressure)
        } else if rebalance.is_some_and(|(every, last)| last.elapsed() >= every) {
            Some(Plane::Rebalance)
        } else {
            None
        }
    }

    /// The safety interlocks: a background plane pauses whenever the
    /// shard has anything more important going on.
    fn interlock(&self) -> Option<TickSkip> {
        if !self.draining.is_empty() {
            Some(TickSkip::Draining)
        } else if self.model.failed_pms() > 0 {
            Some(TickSkip::FailedPms)
        } else if self.summaries[self.idx as usize].journal_degraded() {
            Some(TickSkip::JournalDegraded)
        } else {
            let report = self
                .slo
                .lock()
                .expect("slo lock")
                .report(ms_since(self.epoch));
            // An empty window scores healthy; only observed burn pauses.
            (!report.healthy()).then_some(TickSkip::SloBurn)
        }
    }

    /// One online pass of a background plane: plan against the live
    /// model this worker exclusively owns, validate, then execute at
    /// most `budget.max_concurrent` moves — journalled like any
    /// admission decision, so `recover`/`fsck` replay the same history.
    ///
    /// Only two steps differ per plane. *Planning*: consolidation asks
    /// `slackvm_rebalance` for a drain of the least-utilized PMs;
    /// mitigation first feeds the synthesized usage signal into the
    /// per-VM estimators, then asks `slackvm_pressure` for a spread-out
    /// of the hot PMs. *Accounting*: consolidation counts the PMs it
    /// freed; mitigation publishes the hot-PM count and refreshes the
    /// hysteresis memory the next tick classifies against.
    fn plane_tick(&mut self, plane: Plane) -> PlaneTick {
        let budget = match plane {
            Plane::Rebalance => {
                self.last_rebalance = Instant::now();
                self.rebalance.as_ref().map(|o| o.budget)
            }
            Plane::Pressure => {
                self.last_pressure = Instant::now();
                self.pressure.as_ref().map(|o| o.budget)
            }
        };
        let skipped = |why| PlaneTick {
            skipped: Some(why),
            ..PlaneTick::default()
        };
        let Some(budget) = budget else {
            return skipped(TickSkip::Disabled);
        };
        if let Some(why) = self.interlock() {
            return skipped(why);
        }

        let [plans, plan_us, migrations] = plane.metric_names();
        let started = Instant::now();
        // A pressure plan's hot-PM count and predicted classification.
        let mut pressure_view = None;
        let planned = match plane {
            Plane::Rebalance => {
                slackvm_rebalance::plan_rebalance_avoiding(&self.model, &budget, &self.draining)
            }
            Plane::Pressure => {
                let opts = self.pressure.as_ref().expect("the budget came from it");
                let (seed, hot_frac) = (opts.usage_seed, opts.hot_frac);
                slackvm_pressure::observe_model(&mut self.usage, &self.model, |vm| {
                    slackvm_pressure::synth_frac(seed, vm, hot_frac)
                });
                let tracker = &self.usage;
                slackvm_pressure::plan_mitigation_avoiding(
                    &self.model,
                    &opts.thresholds,
                    &budget,
                    &|vm| tracker.demand(vm),
                    &self.draining,
                    &self.pressure_states,
                )
                .map(|mitigation| {
                    pressure_view = Some((mitigation.hot_before, mitigation.states_after));
                    mitigation.plan
                })
            }
        };
        {
            let mut m = self.metrics.lock().expect("metrics lock");
            m.inc(plans, 1);
            m.observe(plan_us, started.elapsed().as_micros() as f64);
        }
        let Ok(plan) = planned else {
            return PlaneTick::default();
        };
        // Planned against the model this thread exclusively owns, so it
        // cannot be stale — but invariants are checked, not trusted:
        // execution still goes through the validator.
        if !plan.is_empty()
            && slackvm_rebalance::validate_plan_avoiding(&self.model, &plan, &self.draining)
                .is_err()
        {
            return PlaneTick::default();
        }

        let active_before = self.model.active_pms();
        let throttle = (budget.max_concurrent as usize).min(plan.moves.len());
        let mut migrated = 0u32;
        let mut journal: Vec<(WalOp, WalOutcome)> = Vec::new();
        for mv in plan.moves.iter().take(throttle) {
            match self.model.migrate(mv.vm, mv.to) {
                Ok(from) if from == mv.from => {
                    migrated += 1;
                    if self.durable.is_some() {
                        journal.push((
                            WalOp::Migrate {
                                id: mv.vm,
                                from,
                                to: mv.to,
                            },
                            WalOutcome::Migrated,
                        ));
                    }
                }
                Ok(from) => {
                    // The validator makes this unreachable; put the VM
                    // back and stop rather than trust a surprise.
                    let _ = self.model.migrate(mv.vm, from);
                    break;
                }
                Err(_) => break,
            }
        }
        if !journal.is_empty() {
            self.append_all(journal);
            // Migrations reach stable storage before the tick reports
            // itself done, exactly like an admission batch.
            if let Some(Err(e)) = self.durable.as_mut().map(|d| d.commit()) {
                self.journal_failure("commit", Some(&e));
            }
        }

        let mut tick = PlaneTick {
            skipped: None,
            migrations: migrated,
            deferred: (plan.moves.len() - throttle) as u32,
            ..PlaneTick::default()
        };
        let summary = &self.summaries[self.idx as usize];
        if migrated > 0 {
            self.metrics
                .lock()
                .expect("metrics lock")
                .inc(migrations, migrated as u64);
        }
        match plane {
            Plane::Rebalance => {
                let freed = active_before.saturating_sub(self.model.active_pms());
                tick.pms_freed = freed;
                if freed > 0 {
                    self.metrics
                        .lock()
                        .expect("metrics lock")
                        .inc("rebalance.pms_freed", freed as u64);
                }
                summary.note_rebalanced(migrated as u64, freed as u64);
            }
            Plane::Pressure => {
                let (hot, predicted) = pressure_view.expect("set by a successful pressure plan");
                tick.hot_pms = hot;
                self.pressure_states = if plan.is_empty() {
                    predicted
                } else {
                    // A throttled tick executed only a prefix of the
                    // plan, so the predicted states may run ahead of
                    // reality: re-score the live model instead.
                    let opts = self.pressure.as_ref().expect("checked on entry");
                    let tracker = &self.usage;
                    slackvm_pressure::score_pressure(
                        &self.model,
                        &opts.thresholds,
                        &|vm| tracker.demand(vm),
                        &self.pressure_states,
                    )
                    .states()
                };
                self.metrics
                    .lock()
                    .expect("metrics lock")
                    .set_gauge("pressure.hot_pms", hot as f64);
                summary.note_pressure(migrated as u64, hot as u64);
            }
        }
        if migrated > 0 {
            let (alloc, cap) = self.model.totals();
            summary.refresh(self.model.opened_pms() as u64, alloc, cap);
        }
        tick
    }

    /// Folds the batch's sampled lifecycles into the shared span sink
    /// (one Chrome-trace track per trace ID) and the shard's slow-
    /// request digest. The parent `serve.request` span stretches from
    /// door accept through the WAL commit that gated the reply.
    fn emit_sampled(&mut self, stats: &BatchStats, commit_us: u64) {
        let Some(sink) = &self.sink else { return };
        if stats.sampled.is_empty() {
            return;
        }
        let mut sink = sink.lock().expect("trace sink lock");
        for s in &stats.sampled {
            let end_us = s.dec_us + commit_us;
            let parent = TraceSpan {
                name: "serve.request",
                start_us: s.door_us,
                dur_us: end_us.saturating_sub(s.door_us),
            };
            sink.push_on(s.trace, parent);
            sink.push_on(
                s.trace,
                TraceSpan {
                    name: "serve.door",
                    start_us: s.door_us,
                    dur_us: s.enq_us.saturating_sub(s.door_us),
                },
            );
            sink.push_on(
                s.trace,
                TraceSpan {
                    name: "serve.queue_wait",
                    start_us: s.enq_us,
                    dur_us: s.deq_us.saturating_sub(s.enq_us),
                },
            );
            sink.push_on(
                s.trace,
                TraceSpan {
                    name: "serve.placement",
                    start_us: s.deq_us,
                    dur_us: s.dec_us.saturating_sub(s.deq_us),
                },
            );
            sink.push_on(
                s.trace,
                TraceSpan {
                    name: "serve.wal_commit",
                    start_us: s.dec_us,
                    dur_us: commit_us,
                },
            );
            self.slow.offer(parent);
        }
    }

    fn process(&mut self, batch: Vec<Request>) -> BatchStats {
        // One clock read amortized over the whole batch: deadlines are
        // checked and latencies stamped against the same instant.
        let now = Instant::now();
        let mut stats = BatchStats {
            latencies_us: Vec::with_capacity(batch.len()),
            ..BatchStats::default()
        };
        // Which decisions get journaled: state changes plus terminal
        // `Rejected` placements (themselves deterministic decisions
        // `slackvm fsck` re-derives). Shed and unknown-VM outcomes
        // never touched the model and are not logged.
        let journal = self.durable.is_some();
        let staged = self.level.stages();
        for req in batch {
            self.summaries[self.idx as usize].note_dequeued();
            stats.requests += 1;
            let latency_us = now.saturating_duration_since(req.enqueued).as_micros() as u64;
            // FIFO queues mean the oldest requests surface first, so
            // shedding on dequeue is shed-oldest-first by construction.
            if !self.deterministic {
                if let Some(deadline) = req.deadline {
                    if now > deadline {
                        stats.shed += 1;
                        stats.shed_latencies_us.push(latency_us);
                        self.answer(&mut stats, &req, Outcome::Shed, latency_us, None);
                        continue;
                    }
                }
            }
            stats.latencies_us.push(latency_us);
            // Stage stamp #1 of 2: the queue-wait hop ends here. The
            // second lands in `answer`, once the decision exists.
            let dequeued = if staged { Some(Instant::now()) } else { None };
            match req.op {
                Op::Place { id, spec } => match self.model.deploy(id, spec) {
                    Ok(pm) => {
                        stats.admitted += 1;
                        if journal {
                            stats
                                .wal
                                .push((WalOp::Place { id, spec }, WalOutcome::Placed(pm)));
                        }
                        self.directory
                            .lock()
                            .expect("directory lock")
                            .insert(id, self.idx);
                        self.answer(&mut stats, &req, Outcome::Placed(pm), latency_us, dequeued);
                    }
                    Err(SimError::DeploymentFailed(_)) => {
                        match self.forward(req, &mut stats, dequeued) {
                            Forwarded::Sent | Forwarded::Shed => {}
                            Forwarded::Rejected => {
                                stats.rejected += 1;
                                if journal {
                                    stats
                                        .wal
                                        .push((WalOp::Place { id, spec }, WalOutcome::Rejected));
                                }
                            }
                        }
                    }
                    Err(SimError::Unsatisfiable(_)) => {
                        // Exceeds an empty host: no shard can ever take
                        // it, don't waste fall-through hops.
                        stats.rejected += 1;
                        if journal {
                            stats
                                .wal
                                .push((WalOp::Place { id, spec }, WalOutcome::Rejected));
                        }
                        self.answer(&mut stats, &req, Outcome::Rejected, latency_us, dequeued);
                    }
                    Err(SimError::UnknownVm(_)) => unreachable!("deploy never reports UnknownVm"),
                },
                Op::Remove { id } => match self.model.remove(id) {
                    Ok(pm) => {
                        stats.removed += 1;
                        if journal {
                            stats
                                .wal
                                .push((WalOp::Remove { id }, WalOutcome::Removed(pm)));
                        }
                        self.directory.lock().expect("directory lock").remove(&id);
                        self.answer(&mut stats, &req, Outcome::Removed(pm), latency_us, dequeued);
                    }
                    Err(_) => {
                        stats.unknown += 1;
                        self.answer(&mut stats, &req, Outcome::UnknownVm, latency_us, dequeued);
                    }
                },
                Op::Resize { id, vcpus, mem_mib } => match self.model.resize(id, vcpus, mem_mib) {
                    Ok(()) => {
                        stats.resized += 1;
                        if journal {
                            stats.wal.push((
                                WalOp::Resize { id, vcpus, mem_mib },
                                WalOutcome::Resized { accepted: true },
                            ));
                        }
                        self.answer(
                            &mut stats,
                            &req,
                            Outcome::Resized { accepted: true },
                            latency_us,
                            dequeued,
                        );
                    }
                    Err(SimError::UnknownVm(_)) => {
                        stats.unknown += 1;
                        self.answer(&mut stats, &req, Outcome::UnknownVm, latency_us, dequeued);
                    }
                    Err(_) => {
                        stats.resized += 1;
                        if journal {
                            stats.wal.push((
                                WalOp::Resize { id, vcpus, mem_mib },
                                WalOutcome::Resized { accepted: false },
                            ));
                        }
                        self.answer(
                            &mut stats,
                            &req,
                            Outcome::Resized { accepted: false },
                            latency_us,
                            dequeued,
                        );
                    }
                },
                Op::FailPm { pm, .. } | Op::DrainPm { pm, .. } => {
                    let drain = matches!(req.op, Op::DrainPm { .. });
                    let evicted = self.model.fail_host(pm);
                    if drain {
                        self.draining.insert(pm);
                    } else {
                        self.draining.remove(&pm);
                    }
                    if journal {
                        let op = if drain {
                            WalOp::DrainPm { pm }
                        } else {
                            WalOp::FailPm { pm }
                        };
                        stats
                            .wal
                            .push((op, WalOutcome::HostDown { evicted: evicted.len() as u32 }));
                    }
                    {
                        let mut dir = self.directory.lock().expect("directory lock");
                        for (id, _) in &evicted {
                            dir.remove(id);
                        }
                    }
                    let total = evicted.len() as u32;
                    let (replaced, lost) = self.evacuate(evicted, &mut stats, journal);
                    let outcome = if drain {
                        Outcome::PmDraining {
                            evicted: total,
                            replaced,
                            lost,
                        }
                    } else {
                        Outcome::PmFailed {
                            evicted: total,
                            replaced,
                            lost,
                        }
                    };
                    self.answer(&mut stats, &req, outcome, latency_us, dequeued);
                }
                Op::RecoverPm { pm, .. } => {
                    self.model.repair_host(pm);
                    self.draining.remove(&pm);
                    if journal {
                        stats.wal.push((WalOp::RecoverPm { pm }, WalOutcome::HostUp));
                    }
                    self.answer(&mut stats, &req, Outcome::PmRecovered, latency_us, dequeued);
                }
            }
        }
        let (alloc, cap) = self.model.totals();
        let summary = &self.summaries[self.idx as usize];
        summary.refresh(self.model.opened_pms() as u64, alloc, cap);
        let down = self.model.failed_pms() as u64;
        let draining_now = self.draining.len() as u64;
        summary.set_pm_health(down.saturating_sub(draining_now), draining_now);
        stats.wal_bytes = self.append_all(std::mem::take(&mut stats.wal));
        stats
    }

    /// Appends decisions to the journal in execution order, returning
    /// the bytes written. The first write failure stops the appends and
    /// fail-stops or degrades the shard (see
    /// [`Worker::journal_failure`]). `entries` is empty whenever the
    /// shard is not durable.
    fn append_all(&mut self, entries: Vec<(WalOp, WalOutcome)>) -> u64 {
        let mut bytes = 0;
        for (op, outcome) in entries {
            let Some(durable) = self.durable.as_mut() else {
                break;
            };
            match durable.append(op, outcome) {
                Ok(n) => bytes += n,
                Err(e) => {
                    self.journal_failure("append", Some(&e));
                    break;
                }
            }
        }
        bytes
    }

    /// Re-places the VMs a failed (or draining) host displaced, through
    /// the normal admission path: local re-placement first (journalled
    /// like any placement), then ring fall-through as evacuation
    /// requests with bounded retry. A VM no shard can absorb is
    /// recorded in the lost-VM ledger by ID. Returns how many were
    /// re-placed locally and how many are already known lost;
    /// forwarded evacuations resolve later and are tallied under
    /// `serve.evac.*` as each lands.
    fn evacuate(
        &mut self,
        evicted: Vec<(VmId, slackvm_model::VmSpec)>,
        stats: &mut BatchStats,
        journal: bool,
    ) -> (u32, u32) {
        let mut replaced = 0u32;
        let mut lost = 0u32;
        let single = self.peers.len() == 1;
        for (id, spec) in evicted {
            match self.model.deploy(id, spec) {
                Ok(pm) => {
                    replaced += 1;
                    stats.admitted += 1;
                    stats.evac_replaced += 1;
                    if journal {
                        stats
                            .wal
                            .push((WalOp::Place { id, spec }, WalOutcome::Placed(pm)));
                    }
                    self.directory
                        .lock()
                        .expect("directory lock")
                        .insert(id, self.idx);
                }
                Err(_) if single => {
                    // One shard is the whole ring: a local refusal is a
                    // terminal rejection, the VM is lost.
                    lost += 1;
                    stats.rejected += 1;
                    stats.evac_lost += 1;
                    stats.evac_lost_latencies_us.push(0);
                    if journal {
                        stats
                            .wal
                            .push((WalOp::Place { id, spec }, WalOutcome::Rejected));
                    }
                    self.lost.lock().expect("lost ledger lock").push(id);
                }
                Err(_) => {
                    let now = Instant::now();
                    let (tx, _) = std::sync::mpsc::channel();
                    let req = Request {
                        // No sampling track: evacuations carry trace 0
                        // and a sequence no sampling period divides.
                        seq: u64::MAX,
                        op: Op::Place { id, spec },
                        deadline: None,
                        door: now,
                        enqueued: now,
                        trace: 0,
                        tried: 0,
                        evac: Some(self.idx),
                        reply: tx,
                    };
                    self.summaries[self.idx as usize].note_evac_started();
                    match self.forward(req, stats, None) {
                        Forwarded::Sent => {}
                        Forwarded::Shed => unreachable!("evacuations carry no deadline"),
                        Forwarded::Rejected => {
                            // `answer` already tallied the loss (ledger,
                            // counters, pending); this shard's model did
                            // refuse the VM, so the terminal rejection
                            // is journalled here like any other.
                            lost += 1;
                            stats.rejected += 1;
                            if journal {
                                stats
                                    .wal
                                    .push((WalOp::Place { id, spec }, WalOutcome::Rejected));
                            }
                        }
                    }
                }
            }
        }
        (replaced, lost)
    }

    /// Rejection fall-through: hand the request to the next shard in
    /// the ring. `try_send`, never `send` — a worker blocking on a
    /// full peer queue while that peer blocks back is a deadlock.
    /// Evacuation requests get a few bounded, backed-off retries
    /// against a full peer before giving up (losing a VM is worth a
    /// few hundred microseconds; an ordinary placement is not).
    /// [`Forwarded::Rejected`]/[`Forwarded::Shed`] mean the request
    /// was answered terminally here.
    fn forward(
        &self,
        mut req: Request,
        stats: &mut BatchStats,
        dequeued: Option<Instant>,
    ) -> Forwarded {
        // A request whose deadline has already passed must not burn a
        // fall-through hop: re-enqueueing it at a peer only to be shed
        // on dequeue there wastes a queue slot and inflates its
        // latency. Shed it now. (Evacuations carry no deadline.)
        if !self.deterministic {
            if let (Some(deadline), now) = (req.deadline, Instant::now()) {
                if now > deadline {
                    let latency_us = now.saturating_duration_since(req.enqueued).as_micros() as u64;
                    stats.shed += 1;
                    stats.shed_latencies_us.push(latency_us);
                    self.answer(stats, &req, Outcome::Shed, latency_us, dequeued);
                    return Forwarded::Shed;
                }
            }
        }
        let shards = self.peers.len() as u32;
        if req.tried + 1 >= shards {
            let latency_us = Instant::now()
                .saturating_duration_since(req.enqueued)
                .as_micros() as u64;
            self.answer(stats, &req, Outcome::Rejected, latency_us, dequeued);
            return Forwarded::Rejected;
        }
        req.tried += 1;
        let next = ((self.idx + 1) % shards) as usize;
        let evac = req.evac.is_some();
        let mut attempts = 0u32;
        let mut backoff = Duration::from_micros(50);
        let mut msg = Msg::Req(req);
        loop {
            self.summaries[next].note_enqueued();
            match self.peers[next].try_send(msg) {
                Ok(()) => {
                    stats.forwarded += 1;
                    return Forwarded::Sent;
                }
                Err(TrySendError::Full(Msg::Req(r))) => {
                    self.summaries[next].note_dequeued();
                    attempts += 1;
                    if evac && attempts < EVAC_RETRIES {
                        std::thread::sleep(backoff);
                        backoff *= 2;
                        msg = Msg::Req(r);
                        continue;
                    }
                    let latency_us = Instant::now()
                        .saturating_duration_since(r.enqueued)
                        .as_micros() as u64;
                    self.answer(stats, &r, Outcome::Rejected, latency_us, dequeued);
                    return Forwarded::Rejected;
                }
                Err(TrySendError::Disconnected(Msg::Req(r))) => {
                    self.summaries[next].note_dequeued();
                    let latency_us = Instant::now()
                        .saturating_duration_since(r.enqueued)
                        .as_micros() as u64;
                    self.answer(stats, &r, Outcome::Rejected, latency_us, dequeued);
                    return Forwarded::Rejected;
                }
                Err(_) => unreachable!("only Req messages are forwarded"),
            }
        }
    }

    /// Queues the reply for release after the batch's metrics flush.
    /// (A gone receiver at send time — caller stopped waiting — is not
    /// an error.) `dequeued` is the request's stage stamp #1; stamp #2
    /// (the decision instant) is read here, closing the placement hop.
    fn answer(
        &self,
        stats: &mut BatchStats,
        req: &Request,
        outcome: Outcome,
        latency_us: u64,
        dequeued: Option<Instant>,
    ) {
        // Evacuation resolution: no client is listening, so the
        // terminal outcome lands on the origin shard's scoreboard —
        // and, for a loss, in the service-wide ledger by VM ID.
        if let Some(origin) = req.evac {
            match outcome {
                Outcome::Placed(_) => stats.evac_replaced += 1,
                Outcome::Rejected => {
                    stats.evac_lost += 1;
                    stats.evac_lost_latencies_us.push(latency_us);
                    if let Some(id) = req.op.vm() {
                        self.lost.lock().expect("lost ledger lock").push(id);
                    }
                }
                _ => {}
            }
            self.summaries[origin as usize].note_evac_resolved();
        }
        let (queue_us, place_us) = match dequeued {
            Some(deq) => {
                let decided = Instant::now();
                let queue_us = deq.saturating_duration_since(req.enqueued).as_micros() as u64;
                let place_us = decided.saturating_duration_since(deq).as_micros() as u64;
                stats.queue_waits_us.push(queue_us);
                stats.places_us.push(place_us);
                if let Some(every) = self.level.sample_every() {
                    if req.seq % every == 0 && req.trace != 0 {
                        stats.sampled.push(SampledLifecycle {
                            trace: req.trace,
                            door_us: req.door.saturating_duration_since(self.epoch).as_micros()
                                as u64,
                            enq_us: req.enqueued.saturating_duration_since(self.epoch).as_micros()
                                as u64,
                            deq_us: deq.saturating_duration_since(self.epoch).as_micros() as u64,
                            dec_us: decided.saturating_duration_since(self.epoch).as_micros()
                                as u64,
                        });
                    }
                }
                (queue_us, place_us)
            }
            None => (0, 0),
        };
        stats.replies.push((
            req.reply.clone(),
            Reply {
                seq: req.seq,
                shard: Some(self.idx),
                outcome,
                latency_us,
                trace: req.trace,
                queue_us,
                place_us,
                commit_us: 0,
            },
        ));
    }

    /// A journal write failed. Under fail-stop the worker panics —
    /// the shard goes down rather than serve without durability. The
    /// default degrades gracefully: drop the journal, keep serving
    /// from memory, and let `/healthz` name the degraded shard.
    fn journal_failure(&mut self, stage: &str, err: Option<&DurableError>) {
        let detail = err
            .map(|e| e.to_string())
            .unwrap_or_else(|| "fault injected".into());
        if self.fail_stop {
            panic!("shard {}: wal {stage} failed: {detail}", self.idx);
        }
        if self.durable.take().is_some() {
            eprintln!(
                "slackvm-serve: shard {}: journal {stage} failed ({detail}); \
                 entering journal-degraded mode — decisions are no longer persisted",
                self.idx
            );
            self.summaries[self.idx as usize].set_journal_degraded(true);
            self.metrics
                .lock()
                .expect("metrics lock")
                .inc("serve.journal_degraded", 1);
        }
    }

    fn flush(&self, stats: &BatchStats, commit: Option<CommitStamp>) {
        let summary = &self.summaries[self.idx as usize];
        let mut m = self.metrics.lock().expect("metrics lock");
        m.inc("serve.requests", stats.requests);
        if stats.wal_bytes > 0 {
            m.inc("durable.wal_bytes", stats.wal_bytes);
        }
        if let Some(stamp) = commit {
            if let Some(took) = stamp.fsync {
                m.inc("durable.fsyncs", 1);
                m.observe("durable.fsync", took.as_micros() as f64);
            }
            if self.level.stages() {
                m.observe("serve.wal_commit_us", stamp.wall.as_micros() as f64);
            }
        }
        for us in &stats.queue_waits_us {
            m.observe("serve.queue_wait_us", *us as f64);
        }
        for us in &stats.places_us {
            m.observe("serve.placement_us", *us as f64);
        }
        m.inc("serve.admitted", stats.admitted);
        m.inc("serve.rejected", stats.rejected);
        m.inc("serve.shed", stats.shed);
        m.inc("serve.removed", stats.removed);
        m.inc("serve.resized", stats.resized);
        m.inc("serve.unknown_vm", stats.unknown);
        m.inc("serve.forwarded", stats.forwarded);
        if stats.evac_replaced > 0 {
            m.inc("serve.evac.replaced", stats.evac_replaced);
        }
        if stats.evac_lost > 0 {
            m.inc("serve.evac.lost", stats.evac_lost);
        }
        m.observe("serve.batch", stats.requests as f64);
        for us in &stats.latencies_us {
            m.observe("serve.admit", *us as f64);
        }
        m.set_gauge(self.gauges.opened, summary.opened_pms() as f64);
        m.set_gauge(
            self.gauges.cpu_used_cores,
            slackvm_model::Millicores(summary.used_cpu_millicores()).as_cores_f64(),
        );
        m.set_gauge(self.gauges.queue_depth, summary.queued() as f64);
        drop(m);
        // One SLO-window update per batch: executed requests are good
        // events scored on latency, shed requests are bad events.
        let t_ms = ms_since(self.epoch);
        let mut slo = self.slo.lock().expect("slo lock");
        for us in &stats.latencies_us {
            slo.record(t_ms, *us, true);
        }
        for us in &stats.shed_latencies_us {
            slo.record(t_ms, *us, false);
        }
        // A lost VM is the worst availability outcome the plane has:
        // every loss burns SLO error budget like a shed request.
        for us in &stats.evac_lost_latencies_us {
            slo.record(t_ms, *us, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_queue_depth_never_underflows() {
        let s = ShardSummary::default();
        s.note_dequeued();
        assert_eq!(s.queued(), 0);
        s.note_enqueued();
        s.note_enqueued();
        s.note_dequeued();
        assert_eq!(s.queued(), 1);
    }

    #[test]
    fn shard_gauges_are_distinct_per_shard() {
        let a = ShardGauges::for_shard(0);
        let b = ShardGauges::for_shard(1);
        assert_ne!(a.opened, b.opened);
        assert!(a.opened.contains("shard0"));
        assert!(b.queue_depth.contains("shard1"));
    }
}
