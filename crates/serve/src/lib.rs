//! # slackvm-serve
//!
//! An online placement service over the SlackVM deployment models: the
//! offline replay engine's decision logic (`slackvm_sim`), turned into
//! a long-running control plane that owns cluster state and answers
//! placement requests concurrently.
//!
//! The architecture is sharded ownership, not shared locking:
//!
//! - [`shard`]: the PM fleet is partitioned across N shards, each a
//!   single worker thread that owns its [`slackvm_sim::DeploymentModel`]
//!   outright — admission within a shard takes no locks. Workers drain
//!   their bounded admission queue in batches, shed requests whose
//!   deadline passed while queued (oldest first, by FIFO construction),
//!   and fall a rejected placement through to the next shard in the
//!   ring before answering `Rejected`.
//! - [`service`]: the embeddable [`PlacementService`] — routing by
//!   lock-free shard summaries, backpressure on full queues, a placement
//!   directory for remove/resize routing, telemetry (counters, latency
//!   histograms, Prometheus exposition, optional time-series sampling),
//!   and graceful drain-and-report shutdown.
//! - [`wire`] / [`tcp`]: a line-delimited JSON protocol over plain
//!   `std::net` TCP, plus a one-shot HTTP `GET` answer for Prometheus
//!   scrapes — no async runtime, no serialization dependency.
//! - [`bombard`]: a closed- and open-loop load generator replaying
//!   workload-scenario VM shapes as live traffic, reporting throughput
//!   and p50/p99/p999 placement latency.
//! - [`replay`]: deterministic trace replay through the service. With
//!   one shard in deterministic mode the service makes the same
//!   decisions as offline `run_packing`, placement for placement
//!   (proven by the `serve_differential` suite test).
//! - [`obs`]: the always-on observability plane — a dedicated
//!   background HTTP listener (`serve --obs-addr`) serving `/metrics`,
//!   `/healthz` (per-shard heartbeat watchdog), and `/slo` (rolling
//!   error-budget scorecard) off the request path. Request-scoped
//!   tracing ([`TraceLevel`]) mints a trace ID at the door, stamps
//!   every lifecycle stage (door → queue → placement → WAL commit →
//!   reply) into per-stage histograms, and can sample full request
//!   lifecycles as Chrome-trace spans.
//!
//! With [`ServeConfig::durable`](request::ServeConfig::durable) set,
//! every committed decision is journaled to a per-shard write-ahead
//! log and snapshotted periodically (`slackvm_durable`); a restart
//! against the same state directory recovers the fleet, and
//! `slackvm fsck` proves the recovery equals the committed history.
//!
//! The fault-tolerance plane rides on the same machinery: `fail-pm`,
//! `drain-pm`, and `recover-pm` control ops evict a PM's VMs and
//! re-place them through the normal admission path (local first, then
//! ring fall-through with bounded retry), journal every decision, and
//! report any VM that could not be re-placed as lost — by id — in
//! `/healthz` and the final service report. WAL append failures
//! degrade the shard to journal-off instead of panicking unless
//! `durable_fail_stop` asks for the old behavior.
//!
//! With [`ServeConfig::rebalance`](request::ServeConfig::rebalance)
//! set, each shard's worker runs a background consolidation tick
//! between admission batches: it plans a drain of its least-utilized
//! PMs (`slackvm_rebalance`), validates the plan, and executes a
//! throttled slice of it as live migrations — journalled like any
//! admission decision, paused automatically while a PM is failed or
//! draining, the journal is degraded, or the SLO window is burning
//! error budget.
//!
//! With [`ServeConfig::pressure`](request::ServeConfig::pressure) set,
//! the same worker loop also runs a hotspot-mitigation tick
//! (`slackvm_pressure`): per-VM usage samples feed EWMA/percentile
//! estimators, each PM gets an oversubscription-weighted pressure
//! score with hysteresis (hot/warm/cold), and hot PMs are drained onto
//! cold ones through the shared placement pipeline. The two planes are
//! interlocked — a tick runs pressure *or* consolidation, never both,
//! with pressure taking precedence — and pressure pauses on the same
//! conditions consolidation does.

#![warn(missing_docs)]

pub mod bombard;
pub mod error;
pub mod obs;
pub mod replay;
pub mod request;
pub mod service;
pub mod shard;
pub mod tcp;
pub mod wire;

pub use bombard::{
    run_closed_loop, run_open_loop, run_tcp, BombardConfig, BombardReport, StageBreakdown,
};
pub use error::ServeError;
pub use obs::{HealthReport, ObsHandle, ObsServer, ShardHealth};
pub use replay::{serve_replay, Decision, ReplaySummary};
pub use request::{
    ModelSpec, Op, Outcome, PressureOptions, RebalanceOptions, Reply, ServeConfig, TraceLevel,
};
pub use service::{PlacementService, ServiceReport};
pub use shard::{PlaneTick, ShardReport, ShardSummary, TickSkip};
pub use slackvm_durable::{DurableOptions, FsyncPolicy};
pub use slackvm_telemetry::{SloReport, SloTargets};
pub use tcp::{TcpServer, TcpStats};
