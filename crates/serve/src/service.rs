//! The embeddable placement service.
//!
//! [`PlacementService::start`] spawns one worker thread per shard, each
//! owning a partition of the fleet, plus an optional sampler thread.
//! Clients submit [`Op`]s through a bounded queue and receive [`Reply`]s
//! on a channel they provide ([`PlacementService::submit_with`]) or via
//! the synchronous convenience [`PlacementService::call`].
//!
//! Routing: `Place` goes to the shard with the shallowest queue (ties
//! broken by least-allocated CPU, then lowest index); `Remove`/`Resize`
//! are routed by the placement directory — a VM the directory does not
//! know is answered `UnknownVm` at the front door without touching a
//! worker. The PM-lifecycle control ops (`FailPm`/`RecoverPm`/
//! `DrainPm`) carry their shard explicitly: PM ids are shard-local, so
//! the operator names the shard that owns the machine.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use slackvm_model::VmId;
use slackvm_telemetry::{
    prometheus, MetricsRegistry, SloReport, SloTracker, SlowOpsDigest, TimeSeriesStore,
    TraceBuilder, TraceSpan,
};

use crate::error::ServeError;
use crate::request::{Op, Outcome, Reply, ServeConfig};
use crate::shard::{
    ms_since, Msg, Plane, PlaneTick, Request, ShardGauges, ShardReport, ShardSummary, Worker,
};

/// Mints a request-scoped trace ID from a sequence number: splitmix64
/// masked to 48 bits (so IDs survive JSON round trips as exact
/// integers), never zero.
fn mint_trace(seq: u64) -> u64 {
    let mut z = seq.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let id = z & ((1u64 << 48) - 1);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Final state handed back by [`PlacementService::stop`].
pub struct ServiceReport {
    /// One report per shard, in shard order.
    pub shards: Vec<ShardReport>,
    /// The sampled request lifecycles as Chrome trace-event JSON
    /// (`None` unless the service ran with
    /// [`TraceLevel::Sampled`](crate::TraceLevel::Sampled)).
    pub trace_json: Option<String>,
    /// VMs lost to evacuation, by ID: displaced by a PM failure or
    /// drain and not re-placeable on any shard.
    pub lost_vms: Vec<VmId>,
}

impl ServiceReport {
    /// PMs opened across the whole fleet.
    pub fn opened_pms(&self) -> u32 {
        self.shards.iter().map(|s| s.model.opened_pms()).sum()
    }

    /// Total placements admitted.
    pub fn admitted(&self) -> u64 {
        self.shards.iter().map(|s| s.admitted).sum()
    }

    /// Total placements rejected.
    pub fn rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected).sum()
    }

    /// Total requests shed.
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// Renders the per-shard slow-request digests, one header per shard
    /// that sampled anything; empty when tracing was not sampled.
    pub fn render_slow_requests(&self) -> String {
        let mut out = String::new();
        for shard in &self.shards {
            if shard.slow.is_empty() {
                continue;
            }
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!("shard {}:\n{}", shard.shard, shard.slow.render()));
        }
        out
    }

    /// Audits every shard's final model state (capacity bounds,
    /// accounting consistency). Errors carry the shard index.
    pub fn check_invariants(&self) -> Result<(), String> {
        for report in &self.shards {
            report
                .model
                .check_invariants()
                .map_err(|e| format!("shard {}: {e}", report.shard))?;
        }
        Ok(())
    }
}

/// A running sharded placement service. See the module docs.
pub struct PlacementService {
    senders: Vec<SyncSender<Msg>>,
    summaries: Arc<Vec<ShardSummary>>,
    directory: Arc<Mutex<HashMap<VmId, u32>>>,
    metrics: Arc<Mutex<MetricsRegistry>>,
    series: Option<Arc<Mutex<TimeSeriesStore>>>,
    workers: Vec<JoinHandle<ShardReport>>,
    sampler: Option<(JoinHandle<()>, Arc<AtomicBool>)>,
    seq: AtomicU64,
    config: ServeConfig,
    epoch: Instant,
    recovery: Vec<slackvm_durable::RecoveryReport>,
    slo: Arc<Mutex<SloTracker>>,
    sink: Option<Arc<Mutex<TraceBuilder>>>,
    lost: Arc<Mutex<Vec<VmId>>>,
}

impl PlacementService {
    /// Validates the configuration, builds one deployment model per
    /// shard, and spawns the worker (and sampler) threads.
    pub fn start(config: ServeConfig) -> Result<Self, ServeError> {
        config.validate()?;
        let shards = config.shards as usize;
        let mut models = Vec::with_capacity(shards);
        for _ in 0..shards {
            let mut model = config
                .model
                .build(config.shards)
                .map_err(ServeError::Config)?;
            model.set_index_mode(config.index);
            models.push(model);
        }

        // Durable mode: verify (or initialize) the state directory's
        // manifest, then recover each shard's model from its snapshot
        // and journal tail before any worker starts taking requests.
        let mut durables: Vec<Option<slackvm_durable::ShardDurable>> =
            (0..shards).map(|_| None).collect();
        let mut recovery: Vec<slackvm_durable::RecoveryReport> = Vec::new();
        if let Some(opts) = &config.durable {
            std::fs::create_dir_all(&opts.dir).map_err(ServeError::Io)?;
            let manifest = config.manifest();
            if opts.dir.join(slackvm_durable::MANIFEST_FILE).exists() {
                let found = slackvm_durable::Manifest::load(&opts.dir)?;
                if found != manifest {
                    return Err(ServeError::Config(format!(
                        "state directory {} was written under a different service shape \
                         (manifest records {} shards, model {:?}; configuration wants {} \
                         shards, model {:?})",
                        opts.dir.display(),
                        found.shards,
                        found.model,
                        manifest.shards,
                        manifest.model,
                    )));
                }
            } else {
                manifest.store(&opts.dir)?;
            }
            for (idx, model) in models.iter_mut().enumerate() {
                let (handle, report) =
                    slackvm_durable::ShardDurable::open(opts, idx as u32, model)?;
                durables[idx] = Some(handle);
                recovery.push(report);
            }
        }

        let mut senders = Vec::with_capacity(shards);
        let mut receivers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::sync_channel::<Msg>(config.queue_depth);
            senders.push(tx);
            receivers.push(rx);
        }
        let summaries: Arc<Vec<ShardSummary>> =
            Arc::new((0..shards).map(|_| ShardSummary::default()).collect());
        let directory: Arc<Mutex<HashMap<VmId, u32>>> = Arc::new(Mutex::new(HashMap::new()));
        let mut registry = MetricsRegistry::new();
        // Batch sizes live in [1, batch_max]; powers of two cover the
        // range without the microsecond-scale tail of the default
        // duration layout.
        registry.register_histogram("serve.batch", (0..12).map(|i| (1u64 << i) as f64).collect());
        if !recovery.is_empty() {
            let replayed: u64 = recovery.iter().map(|r| r.records_replayed).sum();
            let recovery_ms: f64 = recovery.iter().map(|r| r.elapsed.as_secs_f64() * 1e3).sum();
            registry.inc("durable.records_replayed", replayed);
            registry.set_gauge("durable.recovery_ms", recovery_ms);
        }
        let metrics = Arc::new(Mutex::new(registry));
        let series = config
            .sample_interval_ms
            .map(|_| Arc::new(Mutex::new(TimeSeriesStore::new())));
        let epoch = Instant::now();
        let slo = Arc::new(Mutex::new(SloTracker::new(config.slo)));
        let sink = config
            .trace
            .sample_every()
            .map(|_| Arc::new(Mutex::new(TraceBuilder::new())));
        // Seed every heartbeat at the epoch so the watchdog never
        // mistakes "worker thread not yet scheduled" for a stall.
        for summary in summaries.iter() {
            summary.heartbeat(0);
        }

        // Recovered placements must be routable before the first
        // request: seed the remove/resize directory and the router's
        // scoreboards from each shard's restored state.
        if config.durable.is_some() {
            let mut dir = directory.lock().expect("directory lock");
            for (idx, model) in models.iter().enumerate() {
                for placement in model.capture_state().placements() {
                    dir.insert(placement.vm, idx as u32);
                }
                let (alloc, cap) = model.totals();
                summaries[idx].refresh(model.opened_pms() as u64, alloc, cap);
            }
        }

        let lost: Arc<Mutex<Vec<VmId>>> = Arc::new(Mutex::new(Vec::new()));
        let mut workers = Vec::with_capacity(shards);
        for (idx, (rx, model)) in receivers.into_iter().zip(models).enumerate() {
            let worker = Worker {
                idx: idx as u32,
                rx,
                peers: senders.clone(),
                model,
                summaries: Arc::clone(&summaries),
                directory: Arc::clone(&directory),
                metrics: Arc::clone(&metrics),
                gauges: ShardGauges::for_shard(idx as u32),
                batch_max: config.batch_max,
                deterministic: config.deterministic,
                durable: durables[idx].take(),
                fail_stop: config.durable_fail_stop,
                lost: Arc::clone(&lost),
                draining: Default::default(),
                epoch,
                level: config.trace,
                sink: sink.clone(),
                slo: Arc::clone(&slo),
                slow: SlowOpsDigest::default(),
                heartbeat_every: (config.stall_threshold / 4).min(Duration::from_millis(250)),
                rebalance: config.rebalance.clone(),
                last_rebalance: epoch,
                pressure: config.pressure.clone(),
                last_pressure: epoch,
                usage: slackvm_pressure::UsageTracker::new(
                    slackvm_pressure::EstimatorConfig::default(),
                ),
                pressure_states: Default::default(),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("slackvm-shard-{idx}"))
                    .spawn(move || worker.run())
                    .map_err(ServeError::Io)?,
            );
        }

        let sampler = match (config.sample_interval_ms, series.as_ref()) {
            (Some(interval_ms), Some(store)) => {
                let stop = Arc::new(AtomicBool::new(false));
                let handle = Self::spawn_sampler(
                    interval_ms,
                    Arc::clone(store),
                    Arc::clone(&summaries),
                    Arc::clone(&stop),
                    epoch,
                )?;
                Some((handle, stop))
            }
            _ => None,
        };

        Ok(PlacementService {
            senders,
            summaries,
            directory,
            metrics,
            series,
            workers,
            sampler,
            seq: AtomicU64::new(0),
            config,
            epoch,
            recovery,
            slo,
            sink,
            lost,
        })
    }

    fn spawn_sampler(
        interval_ms: u64,
        store: Arc<Mutex<TimeSeriesStore>>,
        summaries: Arc<Vec<ShardSummary>>,
        stop: Arc<AtomicBool>,
        epoch: Instant,
    ) -> Result<JoinHandle<()>, ServeError> {
        std::thread::Builder::new()
            .name("slackvm-sampler".into())
            .spawn(move || {
                let interval = Duration::from_millis(interval_ms.max(1));
                loop {
                    // Sample first, sleep after: even a service stopped
                    // within one interval leaves a t=0 sample behind.
                    // The time column carries milliseconds since service
                    // start (not seconds): sampling is sub-second.
                    let t_ms = epoch.elapsed().as_millis() as u64;
                    let inflight: usize = summaries.iter().map(|s| s.queued()).sum();
                    let shed: u64 = summaries.iter().map(|s| s.shed()).sum();
                    let rebal_migrations: u64 =
                        summaries.iter().map(|s| s.rebalance_migrations()).sum();
                    let rebal_freed: u64 = summaries.iter().map(|s| s.rebalance_pms_freed()).sum();
                    let press_migrations: u64 =
                        summaries.iter().map(|s| s.pressure_migrations()).sum();
                    let press_hot: u64 = summaries.iter().map(|s| s.pressure_hot_pms()).sum();
                    let mut s = store.lock().expect("series lock");
                    s.record("serve.inflight", t_ms, inflight as f64);
                    s.record("serve.shed_total", t_ms, shed as f64);
                    s.record("rebalance.migrations", t_ms, rebal_migrations as f64);
                    s.record("rebalance.pms_freed", t_ms, rebal_freed as f64);
                    s.record("pressure.migrations", t_ms, press_migrations as f64);
                    s.record("pressure.hot_pms", t_ms, press_hot as f64);
                    for (idx, sum) in summaries.iter().enumerate() {
                        let cap = sum.capacity_cpu_millicores();
                        let util = if cap == 0 {
                            0.0
                        } else {
                            sum.used_cpu_millicores() as f64 / cap as f64
                        };
                        s.record(&format!("serve.shard{idx}.cpu_util"), t_ms, util);
                    }
                    drop(s);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(interval);
                }
            })
            .map_err(ServeError::Io)
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Per-shard scoreboards (queue depth, utilization, counts).
    pub fn summaries(&self) -> &[ShardSummary] {
        &self.summaries
    }

    /// What startup recovery did, one report per shard — empty when
    /// the service is not durable.
    pub fn recovery_reports(&self) -> &[slackvm_durable::RecoveryReport] {
        &self.recovery
    }

    /// Instant the service started; reply latencies and series sample
    /// times are relative to it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn route(&self, op: &Op) -> Result<u32, Outcome> {
        match op {
            // Least-loaded shard: shallowest queue, then least
            // allocated CPU, then lowest index. Reading relaxed atomics
            // keeps the router off every lock.
            Op::Place { .. } => {
                let mut best = 0u32;
                let mut best_key = (usize::MAX, u64::MAX);
                for (idx, s) in self.summaries.iter().enumerate() {
                    let key = (s.queued(), s.used_cpu_millicores());
                    if key < best_key {
                        best_key = key;
                        best = idx as u32;
                    }
                }
                Ok(best)
            }
            Op::Remove { id } | Op::Resize { id, .. } => self
                .directory
                .lock()
                .expect("directory lock")
                .get(id)
                .copied()
                .ok_or(Outcome::UnknownVm),
            // Control ops name their shard; a shard the service does
            // not run is refused at the front door.
            Op::FailPm { shard, .. } | Op::RecoverPm { shard, .. } | Op::DrainPm { shard, .. } => {
                if *shard < self.config.shards {
                    Ok(*shard)
                } else {
                    Err(Outcome::Rejected)
                }
            }
        }
    }

    fn make_request(&self, op: Op, reply: Sender<Reply>, door: Instant) -> (u64, Request) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let deadline = if self.config.deterministic {
            None
        } else {
            self.config.deadline.map(|d| now + d)
        };
        (
            seq,
            Request {
                seq,
                op,
                deadline,
                door,
                enqueued: now,
                trace: mint_trace(seq),
                tried: 0,
                evac: None,
                reply,
            },
        )
    }

    /// Front-door replies (e.g. `UnknownVm` for an undirected remove)
    /// never reach a worker; answer on the caller's channel directly.
    fn answer_front(&self, seq: u64, outcome: Outcome, reply: &Sender<Reply>) {
        let _ = reply.send(Reply {
            seq,
            shard: None,
            outcome,
            latency_us: 0,
            trace: mint_trace(seq),
            queue_us: 0,
            place_us: 0,
            commit_us: 0,
        });
        self.metrics.lock().expect("metrics lock").inc(
            match outcome {
                Outcome::UnknownVm => "serve.unknown_vm",
                _ => "serve.requests",
            },
            1,
        );
    }

    /// Submits an operation, blocking while the target shard's queue is
    /// full (backpressure). The reply arrives on `reply`; returns the
    /// sequence number that will tag it.
    pub fn submit_with(&self, op: Op, reply: Sender<Reply>) -> Result<u64, ServeError> {
        self.submit_with_from(op, reply, Instant::now())
    }

    /// [`Self::submit_with`] with an explicit door-accept instant — the
    /// moment the request crossed the service boundary (e.g. when its
    /// bytes finished arriving on a socket), so the `serve.door` trace
    /// stage covers parsing and routing, not just the queue hop.
    pub fn submit_with_from(
        &self,
        op: Op,
        reply: Sender<Reply>,
        door: Instant,
    ) -> Result<u64, ServeError> {
        match self.route(&op) {
            Ok(shard) => {
                let (seq, req) = self.make_request(op, reply, door);
                self.summaries[shard as usize].note_enqueued();
                match self.senders[shard as usize].send(Msg::Req(req)) {
                    Ok(()) => Ok(seq),
                    Err(_) => {
                        self.summaries[shard as usize].note_dequeued();
                        Err(ServeError::Disconnected)
                    }
                }
            }
            Err(outcome) => {
                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                self.answer_front(seq, outcome, &reply);
                Ok(seq)
            }
        }
    }

    /// Non-blocking variant of [`Self::submit_with`]: a full queue
    /// returns [`ServeError::Busy`] instead of waiting — shedding at
    /// the door, counted under `serve.busy` and held against the SLO
    /// error budget.
    pub fn try_submit_with(&self, op: Op, reply: Sender<Reply>) -> Result<u64, ServeError> {
        self.try_submit_with_from(op, reply, Instant::now())
    }

    /// [`Self::try_submit_with`] with an explicit door-accept instant.
    pub fn try_submit_with_from(
        &self,
        op: Op,
        reply: Sender<Reply>,
        door: Instant,
    ) -> Result<u64, ServeError> {
        match self.route(&op) {
            Ok(shard) => {
                let (seq, req) = self.make_request(op, reply, door);
                self.summaries[shard as usize].note_enqueued();
                match self.senders[shard as usize].try_send(Msg::Req(req)) {
                    Ok(()) => Ok(seq),
                    Err(e) => {
                        self.summaries[shard as usize].note_dequeued();
                        self.metrics
                            .lock()
                            .expect("metrics lock")
                            .inc("serve.busy", 1);
                        self.slo
                            .lock()
                            .expect("slo lock")
                            .record(ms_since(self.epoch), 0, false);
                        match e {
                            TrySendError::Full(_) => Err(ServeError::Busy),
                            TrySendError::Disconnected(_) => Err(ServeError::Disconnected),
                        }
                    }
                }
            }
            Err(outcome) => {
                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                self.answer_front(seq, outcome, &reply);
                Ok(seq)
            }
        }
    }

    /// Synchronous round trip: submit and wait for the reply.
    pub fn call(&self, op: Op) -> Result<Reply, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.submit_with(op, tx)?;
        rx.recv().map_err(|_| ServeError::Disconnected)
    }

    /// Synchronous round trip with an explicit door-accept instant.
    pub fn call_from(&self, op: Op, door: Instant) -> Result<Reply, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.submit_with_from(op, tx, door)?;
        rx.recv().map_err(|_| ServeError::Disconnected)
    }

    /// Closes a request's lifecycle from the transport: observes the
    /// reply-write stage (`serve.reply_us`) and, when the request was
    /// sampled, emits its `serve.reply` span on the request's track.
    /// Call after the reply's bytes have been written back.
    pub fn note_reply_write(&self, reply: &Reply, write_started: Instant) {
        if !self.config.trace.stages() {
            return;
        }
        let dur_us = write_started.elapsed().as_micros() as u64;
        self.metrics
            .lock()
            .expect("metrics lock")
            .observe("serve.reply_us", dur_us as f64);
        if let (Some(sink), Some(every)) = (&self.sink, self.config.trace.sample_every()) {
            if reply.seq % every == 0 && reply.trace != 0 {
                let start_us = write_started
                    .saturating_duration_since(self.epoch)
                    .as_micros() as u64;
                sink.lock().expect("trace sink lock").push_on(
                    reply.trace,
                    TraceSpan {
                        name: "serve.reply",
                        start_us,
                        dur_us,
                    },
                );
            }
        }
    }

    /// VMs lost to evacuation so far, by ID (empty while every
    /// displaced VM has been re-placed or is still in flight).
    pub fn lost_vms(&self) -> Vec<VmId> {
        self.lost.lock().expect("lost ledger lock").clone()
    }

    /// The rolling-window SLO scorecard as of now.
    pub fn slo_report(&self) -> SloReport {
        self.slo
            .lock()
            .expect("slo lock")
            .report(ms_since(self.epoch))
    }

    /// The sampled spans accumulated so far as Chrome trace-event JSON
    /// (`None` unless sampling is on). Cheap enough to call on a live
    /// service; `stop` returns the final cut.
    pub fn chrome_trace(&self) -> Option<String> {
        self.sink
            .as_ref()
            .map(|s| s.lock().expect("trace sink lock").to_chrome_json())
    }

    /// Test hook: wedge shard `shard`'s worker for `dur` (it sleeps
    /// without heartbeating, as a worker stuck in a pathological
    /// placement would), so the `/healthz` watchdog can be exercised.
    #[doc(hidden)]
    pub fn inject_stall(&self, shard: u32, dur: Duration) -> Result<(), ServeError> {
        self.senders
            .get(shard as usize)
            .ok_or_else(|| ServeError::Config(format!("no shard {shard}")))?
            .send(Msg::Stall(dur))
            .map_err(|_| ServeError::Disconnected)
    }

    /// Runs one rebalance tick on shard `shard` right now, bypassing
    /// the configured interval (the safety interlocks still apply),
    /// and blocks for its outcome. A worker started without
    /// [`ServeConfig::rebalance`](crate::request::ServeConfig) reports
    /// the tick skipped as disabled. Requests already queued ahead of
    /// the trigger may execute after the tick — the trigger is a
    /// consolidation nudge, not a barrier.
    pub fn trigger_rebalance(&self, shard: u32) -> Result<PlaneTick, ServeError> {
        self.trigger(shard, Plane::Rebalance)
    }

    /// [`Self::trigger_rebalance`] for the pressure (hotspot-mitigation)
    /// plane, configured by
    /// [`ServeConfig::pressure`](crate::request::ServeConfig).
    pub fn trigger_pressure(&self, shard: u32) -> Result<PlaneTick, ServeError> {
        self.trigger(shard, Plane::Pressure)
    }

    fn trigger(&self, shard: u32, plane: Plane) -> Result<PlaneTick, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.senders
            .get(shard as usize)
            .ok_or_else(|| ServeError::Config(format!("no shard {shard}")))?
            .send(Msg::Tick(plane, tx))
            .map_err(|_| ServeError::Disconnected)?;
        rx.recv().map_err(|_| ServeError::Disconnected)
    }

    /// Test hook: simulate a journal write failure on shard `shard`, so
    /// journal-degraded mode (or fail-stop) can be exercised without an
    /// actual disk fault.
    #[doc(hidden)]
    pub fn inject_journal_degraded(&self, shard: u32) -> Result<(), ServeError> {
        self.senders
            .get(shard as usize)
            .ok_or_else(|| ServeError::Config(format!("no shard {shard}")))?
            .send(Msg::DegradeJournal)
            .map_err(|_| ServeError::Disconnected)
    }

    /// Renders the Prometheus exposition (metrics plus, when sampling
    /// is on, the time series gauges).
    pub fn metrics_exposition(&self) -> String {
        let m = self.metrics.lock().expect("metrics lock");
        match self.series.as_ref() {
            Some(store) => {
                let s = store.lock().expect("series lock");
                prometheus::render(&m, Some(&s))
            }
            None => prometheus::render(&m, None),
        }
    }

    /// The sampled time series as CSV (`None` when sampling is off).
    pub fn series_csv(&self) -> Option<String> {
        self.series
            .as_ref()
            .map(|s| s.lock().expect("series lock").to_csv())
    }

    /// Graceful shutdown: stops the sampler, tells every worker to
    /// drain and exit, and joins them. Call once the caller has
    /// received every reply it still cares about — requests in flight
    /// are still answered, but nothing may be submitted afterwards.
    pub fn stop(self) -> ServiceReport {
        if let Some((handle, stop)) = self.sampler {
            stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }
        for tx in &self.senders {
            // Workers are alive and draining, so a blocking send of the
            // stop marker cannot wedge.
            let _ = tx.send(Msg::Stop);
        }
        drop(self.senders);
        let shards: Vec<ShardReport> = self
            .workers
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        // Render after the joins: every sampled span is in the sink.
        let trace_json = self
            .sink
            .as_ref()
            .map(|s| s.lock().expect("trace sink lock").to_chrome_json());
        let lost_vms = self.lost.lock().expect("lost ledger lock").clone();
        ServiceReport {
            shards,
            trace_json,
            lost_vms,
        }
    }

    /// A detached handle for the background observability listener:
    /// shared views of the metrics registry, time series, per-shard
    /// scoreboards, and SLO window, valid for the service's lifetime.
    pub fn obs_handle(&self) -> crate::obs::ObsHandle {
        crate::obs::ObsHandle {
            metrics: Arc::clone(&self.metrics),
            series: self.series.as_ref().map(Arc::clone),
            summaries: Arc::clone(&self.summaries),
            slo: Arc::clone(&self.slo),
            epoch: self.epoch,
            stall_threshold: self.config.stall_threshold,
            lost: Arc::clone(&self.lost),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelSpec;
    use slackvm_model::{gib, OversubLevel, VmId, VmSpec};

    fn small_config(shards: u32) -> ServeConfig {
        ServeConfig {
            shards,
            model: ModelSpec::Shared {
                topology: "cores=8".into(),
                mem_mib: gib(32),
                policy: "first-fit".into(),
                fleet_cap: None,
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn place_remove_round_trip_on_one_shard() {
        let svc = PlacementService::start(small_config(1)).unwrap();
        let reply = svc
            .call(Op::Place {
                id: VmId(1),
                spec: VmSpec::of(4, gib(8), OversubLevel::of(3)),
            })
            .unwrap();
        let pm = match reply.outcome {
            Outcome::Placed(pm) => pm,
            other => panic!("expected placement, got {other:?}"),
        };
        let reply = svc.call(Op::Remove { id: VmId(1) }).unwrap();
        assert_eq!(reply.outcome, Outcome::Removed(pm));
        let report = svc.stop();
        assert_eq!(report.admitted(), 1);
        report.check_invariants().unwrap();
    }

    #[test]
    fn unknown_vm_is_answered_at_the_front_door() {
        let svc = PlacementService::start(small_config(2)).unwrap();
        let reply = svc.call(Op::Remove { id: VmId(99) }).unwrap();
        assert_eq!(reply.outcome, Outcome::UnknownVm);
        assert_eq!(reply.shard, None);
        let reply = svc
            .call(Op::Resize {
                id: VmId(99),
                vcpus: 2,
                mem_mib: gib(4),
            })
            .unwrap();
        assert_eq!(reply.outcome, Outcome::UnknownVm);
        svc.stop();
    }

    #[test]
    fn remove_routes_to_the_owning_shard() {
        let svc = PlacementService::start(small_config(4)).unwrap();
        for i in 0..16u64 {
            let reply = svc
                .call(Op::Place {
                    id: VmId(i),
                    spec: VmSpec::of(2, gib(4), OversubLevel::of(2)),
                })
                .unwrap();
            assert!(matches!(reply.outcome, Outcome::Placed(_)), "{reply:?}");
        }
        for i in 0..16u64 {
            let reply = svc.call(Op::Remove { id: VmId(i) }).unwrap();
            assert!(matches!(reply.outcome, Outcome::Removed(_)), "{reply:?}");
        }
        let report = svc.stop();
        assert_eq!(report.admitted(), 16);
        for shard in &report.shards {
            let (alloc, _) = shard.model.totals();
            assert!(alloc.is_empty(), "shard {} not drained", shard.shard);
        }
        report.check_invariants().unwrap();
    }

    #[test]
    fn capped_fleet_rejects_after_fall_through() {
        let mut config = small_config(2);
        config.model = ModelSpec::Shared {
            topology: "cores=2".into(),
            mem_mib: gib(4),
            policy: "first-fit".into(),
            fleet_cap: Some(2),
        };
        let svc = PlacementService::start(config).unwrap();
        // Each shard caps at ceil(2/2) = 1 PM of 2 cores / 4 GiB at
        // level 1 => fleet absorbs at most 2 such VMs, third rejected
        // after trying both shards.
        let mut placed = 0;
        let mut rejected = 0;
        for i in 0..3u64 {
            let reply = svc
                .call(Op::Place {
                    id: VmId(i),
                    spec: VmSpec::of(2, gib(4), OversubLevel::of(1)),
                })
                .unwrap();
            match reply.outcome {
                Outcome::Placed(_) => placed += 1,
                Outcome::Rejected => rejected += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!((placed, rejected), (2, 1));
        let report = svc.stop();
        report.check_invariants().unwrap();
    }

    #[test]
    fn durable_service_recovers_after_restart() {
        use slackvm_durable::{DurableOptions, FsyncPolicy};
        let dir =
            std::env::temp_dir().join(format!("slackvm-serve-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            durable: Some(DurableOptions {
                fsync: FsyncPolicy::Every,
                ..DurableOptions::new(&dir)
            }),
            ..small_config(2)
        };

        let svc = PlacementService::start(config.clone()).unwrap();
        assert!(svc.recovery_reports().iter().all(|r| r.last_seq == 0));
        for i in 0..8u64 {
            let reply = svc
                .call(Op::Place {
                    id: VmId(i),
                    spec: VmSpec::of(2, gib(4), OversubLevel::of(2)),
                })
                .unwrap();
            assert!(matches!(reply.outcome, Outcome::Placed(_)), "{reply:?}");
        }
        svc.call(Op::Remove { id: VmId(3) }).unwrap();
        let first = svc.stop();
        first.check_invariants().unwrap();

        // Restart against the same directory: state comes back, the
        // directory routes a remove for a recovered VM, and a manifest
        // mismatch is refused.
        let svc = PlacementService::start(config.clone()).unwrap();
        let replayed: u64 = svc
            .recovery_reports()
            .iter()
            .map(|r| r.records_replayed)
            .sum();
        assert_eq!(replayed, 0, "clean shutdown snapshots leave no tail");
        let reply = svc.call(Op::Remove { id: VmId(5) }).unwrap();
        assert!(matches!(reply.outcome, Outcome::Removed(_)), "{reply:?}");
        let second = svc.stop();
        second.check_invariants().unwrap();
        assert_eq!(
            second.admitted(),
            0,
            "recovered placements are not re-admissions"
        );
        let total_vms: usize = second
            .shards
            .iter()
            .map(|s| s.model.capture_state().num_vms())
            .sum();
        assert_eq!(total_vms, 6, "8 placed, 2 removed across both runs");

        let mut mismatched = config;
        mismatched.shards = 4;
        let err = match PlacementService::start(mismatched) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("manifest mismatch accepted"),
        };
        assert!(err.contains("different service shape"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebalance_tick_consolidates_a_fragmented_shard() {
        use crate::request::RebalanceOptions;
        use slackvm_model::PmId;
        let config = ServeConfig {
            rebalance: Some(RebalanceOptions {
                // Effectively never on its own: only explicit triggers.
                every: Duration::from_secs(3600),
                ..RebalanceOptions::default()
            }),
            ..small_config(1)
        };
        let svc = PlacementService::start(config).unwrap();
        let place = |id: u64, vcpus: u32, mem_gib: u64| {
            svc.call(Op::Place {
                id: VmId(id),
                spec: VmSpec::of(vcpus, gib(mem_gib), OversubLevel::of(1)),
            })
            .unwrap()
            .outcome
        };
        // pm0 fills, VM1 opens pm1, VM0 leaves, VM2 lands first-fit on
        // the now nearly-empty pm0: classic fragmentation.
        assert!(matches!(place(0, 6, 24), Outcome::Placed(_)));
        assert!(matches!(place(1, 6, 24), Outcome::Placed(_)));
        assert_eq!(
            svc.call(Op::Remove { id: VmId(0) }).unwrap().outcome,
            Outcome::Removed(PmId(0))
        );
        assert!(matches!(place(2, 2, 8), Outcome::Placed(_)));

        let tick = svc.trigger_rebalance(0).unwrap();
        assert_eq!(tick.skipped, None);
        assert_eq!(tick.migrations, 1);
        assert_eq!(tick.pms_freed, 1);
        assert_eq!(tick.deferred, 0);
        assert_eq!(svc.summaries()[0].rebalance_migrations(), 1);
        assert_eq!(svc.summaries()[0].rebalance_pms_freed(), 1);
        let text = svc.metrics_exposition();
        assert!(text.contains("slackvm_rebalance_migrations 1"), "{text}");
        assert!(text.contains("slackvm_rebalance_plans 1"), "{text}");

        // The migrated VM is still routable: it moved PMs, not shards.
        assert_eq!(
            svc.call(Op::Remove { id: VmId(2) }).unwrap().outcome,
            Outcome::Removed(PmId(1))
        );
        let report = svc.stop();
        report.check_invariants().unwrap();
    }

    #[test]
    fn pressure_tick_spreads_a_hotspot_onto_a_cold_pm() {
        use crate::request::PressureOptions;
        use slackvm_model::PmId;
        let config = ServeConfig {
            pressure: Some(PressureOptions {
                // Only explicit triggers, and every VM runs hot.
                every: Duration::from_secs(3600),
                hot_frac: 1.0,
                ..PressureOptions::default()
            }),
            ..small_config(1)
        };
        let svc = PlacementService::start(config).unwrap();
        let place = |id: u64, vcpus: u32| {
            svc.call(Op::Place {
                id: VmId(id),
                spec: VmSpec::of(vcpus, gib(8), OversubLevel::of(1)),
            })
            .unwrap()
            .outcome
        };
        // Two 4-core VMs fill pm0's 8 cores; a third opens pm1 and
        // departs, leaving an empty opened PM — the cold destination.
        assert!(matches!(place(0, 4), Outcome::Placed(_)));
        assert!(matches!(place(1, 4), Outcome::Placed(_)));
        assert!(matches!(place(2, 4), Outcome::Placed(_)));
        assert_eq!(
            svc.call(Op::Remove { id: VmId(2) }).unwrap().outcome,
            Outcome::Removed(PmId(1))
        );

        // With hot_frac 1.0 both VMs synthesize ~0.8-0.98 usage, so pm0
        // scores hot; moving one 4-core VM to pm1 cools both sides.
        let tick = svc.trigger_pressure(0).unwrap();
        assert_eq!(tick.skipped, None);
        assert_eq!(tick.hot_pms, 1, "{tick:?}");
        assert_eq!(tick.migrations, 1, "{tick:?}");
        assert_eq!(tick.deferred, 0);
        assert_eq!(svc.summaries()[0].pressure_migrations(), 1);
        let text = svc.metrics_exposition();
        assert!(text.contains("slackvm_pressure_migrations 1"), "{text}");
        assert!(text.contains("slackvm_pressure_plans 1"), "{text}");

        // A second tick finds nothing left to spread.
        let tick = svc.trigger_pressure(0).unwrap();
        assert_eq!(tick.skipped, None);
        assert_eq!(tick.migrations, 0, "{tick:?}");

        // Both VMs remain routable after the move.
        for id in [0u64, 1] {
            assert!(matches!(
                svc.call(Op::Remove { id: VmId(id) }).unwrap().outcome,
                Outcome::Removed(_)
            ));
        }
        let report = svc.stop();
        report.check_invariants().unwrap();
    }

    #[test]
    fn plane_ticks_honor_every_interlock() {
        use crate::request::{PressureOptions, RebalanceOptions};
        use crate::shard::TickSkip;
        use slackvm_durable::DurableOptions;
        use slackvm_model::PmId;
        let (shard, pm) = (0, PmId(0));
        for plane in [Plane::Rebalance, Plane::Pressure] {
            // Plane not configured: the trigger reports it disabled.
            let svc = PlacementService::start(small_config(1)).unwrap();
            let tick = svc.trigger(shard, plane).unwrap();
            assert_eq!(tick.skipped, Some(TickSkip::Disabled), "{plane:?}");
            svc.stop();

            // Both planes on, explicit triggers only, journalled so the
            // degraded interlock has a journal to lose.
            let dir = std::env::temp_dir().join(format!(
                "slackvm-serve-interlocks-{plane:?}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let every = Duration::from_secs(3600);
            let config = ServeConfig {
                rebalance: Some(RebalanceOptions {
                    every,
                    ..RebalanceOptions::default()
                }),
                pressure: Some(PressureOptions {
                    every,
                    ..PressureOptions::default()
                }),
                durable: Some(DurableOptions::new(&dir)),
                ..small_config(1)
            };
            let svc = PlacementService::start(config).unwrap();
            svc.call(Op::Place {
                id: VmId(0),
                spec: VmSpec::of(2, gib(4), OversubLevel::of(1)),
            })
            .unwrap();
            // Each row: take the PM down one way, expect that skip,
            // bring it back.
            for (down, want) in [
                (Op::DrainPm { shard, pm }, TickSkip::Draining),
                (Op::FailPm { shard, pm }, TickSkip::FailedPms),
            ] {
                svc.call(down).unwrap();
                let tick = svc.trigger(shard, plane).unwrap();
                assert_eq!(tick.skipped, Some(want), "{plane:?}");
                assert_eq!(tick.migrations, 0);
                svc.call(Op::RecoverPm { shard, pm }).unwrap();
                let tick = svc.trigger(shard, plane).unwrap();
                assert_eq!(
                    tick.skipped, None,
                    "{plane:?}: recovering the PM resumes ticks"
                );
            }
            // Journal-degraded has no way back short of a restart.
            svc.inject_journal_degraded(shard).unwrap();
            let tick = svc.trigger(shard, plane).unwrap();
            assert_eq!(tick.skipped, Some(TickSkip::JournalDegraded), "{plane:?}");
            svc.stop();
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn exposition_carries_serve_counters_and_validates() {
        let svc = PlacementService::start(small_config(1)).unwrap();
        svc.call(Op::Place {
            id: VmId(7),
            spec: VmSpec::of(2, gib(4), OversubLevel::of(2)),
        })
        .unwrap();
        let text = svc.metrics_exposition();
        prometheus::validate(&text).unwrap();
        assert!(text.contains("slackvm_serve_admitted"), "{text}");
        assert!(text.contains("slackvm_build_info{"), "{text}");
        svc.stop();
    }
}
