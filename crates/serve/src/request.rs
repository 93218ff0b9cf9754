//! Request and configuration types of the placement service.

use std::time::Duration;

use slackvm_durable::{DurableOptions, Manifest};
use slackvm_model::{PmId, VmId, VmSpec};
use slackvm_sched::IndexMode;
pub use slackvm_sim::ModelSpec;
use slackvm_telemetry::SloTargets;

use crate::error::ServeError;

/// One placement-plane operation, as submitted by a client.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Admit a VM into the fleet.
    Place {
        /// Client-chosen VM identity (must be fleet-unique).
        id: VmId,
        /// Requested shape and oversubscription level.
        spec: VmSpec,
    },
    /// Release a previously placed VM.
    Remove {
        /// The VM to release.
        id: VmId,
    },
    /// Vertically resize a placed VM in place.
    Resize {
        /// The VM to resize.
        id: VmId,
        /// New vCPU count.
        vcpus: u32,
        /// New memory size.
        mem_mib: u64,
    },
    /// Declare a PM failed: evict its VMs and re-place them through the
    /// normal admission path. PM ids are shard-local, so the op names
    /// the shard that owns the machine.
    FailPm {
        /// Shard owning the PM.
        shard: u32,
        /// The machine that failed.
        pm: PmId,
    },
    /// Return a previously failed (or draining) PM to service.
    RecoverPm {
        /// Shard owning the PM.
        shard: u32,
        /// The machine to restore.
        pm: PmId,
    },
    /// Drain a PM for maintenance: operationally identical to a
    /// failure (evict and re-place), but journalled and reported
    /// distinctly so an operator-initiated drain is never mistaken for
    /// a crash in the decision history.
    DrainPm {
        /// Shard owning the PM.
        shard: u32,
        /// The machine to drain.
        pm: PmId,
    },
}

impl Op {
    /// The VM the operation concerns (`None` for the PM-lifecycle
    /// control ops, which address machines, not VMs).
    pub fn vm(&self) -> Option<VmId> {
        match self {
            Op::Place { id, .. } | Op::Remove { id } | Op::Resize { id, .. } => Some(*id),
            Op::FailPm { .. } | Op::RecoverPm { .. } | Op::DrainPm { .. } => None,
        }
    }
}

/// The service's answer to one [`Op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Placed on this PM (PM ids are shard-local).
    Placed(PmId),
    /// Removed from this PM.
    Removed(PmId),
    /// Resize verdict: `accepted` is false when the hosting machine
    /// could not absorb the new size (old size stays in force).
    Resized {
        /// Whether the resize was applied.
        accepted: bool,
    },
    /// No shard could host the VM (capped fleets only).
    Rejected,
    /// Load-shed: the request's deadline passed while it was queued;
    /// it was never executed.
    Shed,
    /// Remove/Resize for a VM the service does not host.
    UnknownVm,
    /// A `FailPm` took effect: the evacuation scoreboard. `replaced`
    /// counts displaced VMs re-admitted synchronously on the owning
    /// shard; displaced VMs forwarded into the ring resolve later and
    /// are tallied under `serve.evac.*` and the lost-VM ledger.
    PmFailed {
        /// VMs evicted from the failed machine.
        evicted: u32,
        /// Evicted VMs re-placed on this shard before the reply.
        replaced: u32,
        /// Evicted VMs already known lost (no shard could host them).
        lost: u32,
    },
    /// A `RecoverPm` took effect; the machine accepts placements again.
    PmRecovered,
    /// A `DrainPm` took effect; same scoreboard as [`Outcome::PmFailed`].
    PmDraining {
        /// VMs evicted from the draining machine.
        evicted: u32,
        /// Evicted VMs re-placed on this shard before the reply.
        replaced: u32,
        /// Evicted VMs already known lost.
        lost: u32,
    },
}

/// One reply, paired to its request by `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// The sequence number assigned at submission.
    pub seq: u64,
    /// Shard that produced the decision (`None` for front-door
    /// rejections such as [`Outcome::UnknownVm`]).
    pub shard: Option<u32>,
    /// The decision.
    pub outcome: Outcome,
    /// Queueing plus service time observed by the worker, microseconds.
    pub latency_us: u64,
    /// Request-scoped trace ID, minted at the door. Never zero for a
    /// request that entered the service.
    pub trace: u64,
    /// Time spent queued (enqueue → dequeue), microseconds. Zero when
    /// the service runs with [`TraceLevel::Off`].
    pub queue_us: u64,
    /// Time from dequeue to the placement decision, microseconds. Zero
    /// under [`TraceLevel::Off`].
    pub place_us: u64,
    /// Wall time of the WAL commit that gated this reply, microseconds
    /// (shared by every request in the batch; zero when the service is
    /// not durable or under [`TraceLevel::Off`]).
    pub commit_us: u64,
}

/// How much per-request timing the serve path records.
///
/// The default, [`TraceLevel::Stages`], stamps the lifecycle stages of
/// every request (two extra clock reads per request) and folds them
/// into the per-stage histograms. [`TraceLevel::Sampled`] additionally
/// emits every `every`-th request's full lifecycle as Chrome-trace
/// spans and feeds the per-shard slow-request digests.
/// [`TraceLevel::Off`] restores the untraced hot path: one clock read
/// per batch, no stage fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceLevel {
    /// No per-request stage timing (stage fields in replies are zero).
    Off,
    /// Stage timestamps and histograms for every request.
    Stages,
    /// `Stages`, plus full span emission for one request in `every`.
    Sampled {
        /// Sampling period: request sequence numbers divisible by this
        /// are traced end to end. 1 traces everything.
        every: u64,
    },
}

impl TraceLevel {
    /// Whether stage timestamps are being recorded at all.
    pub fn stages(&self) -> bool {
        !matches!(self, TraceLevel::Off)
    }

    /// The sampling period when span emission is on.
    pub fn sample_every(&self) -> Option<u64> {
        match self {
            TraceLevel::Sampled { every } => Some(*every),
            _ => None,
        }
    }
}

/// Online consolidation: each shard's worker periodically plans a
/// rebalance against its own model and executes a throttled slice of
/// the plan between admission batches (`slackvm_rebalance`).
///
/// The tick pauses itself whenever the shard is doing anything more
/// important: PMs draining or failed, the journal degraded, or the SLO
/// tracker reporting error-budget burn. Consolidation is strictly
/// optional work — it never competes with recovery or a struggling
/// request path.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceOptions {
    /// Planning interval: how often an idle (or between-batches) worker
    /// re-plans. Each tick executes at most
    /// [`Budget::max_concurrent`](slackvm_rebalance::Budget) moves.
    pub every: Duration,
    /// Cost budget every planning pass runs under.
    pub budget: slackvm_rebalance::Budget,
}

impl Default for RebalanceOptions {
    fn default() -> Self {
        RebalanceOptions {
            every: Duration::from_secs(5),
            budget: slackvm_rebalance::Budget::default(),
        }
    }
}

/// Online hotspot mitigation: each shard's worker periodically scores
/// per-PM pressure from the synthesized usage signal
/// (`slackvm_pressure::synth_frac`) and executes a throttled slice of
/// the resulting spread-out plan between admission batches.
///
/// The pressure tick obeys the same pauses as consolidation (draining
/// or failed PMs, a degraded journal, SLO burn) and is interlocked
/// with it: when both are due in the same tick, mitigation runs and
/// consolidation waits — packing tighter is pointless while a PM is
/// saturating.
#[derive(Debug, Clone, PartialEq)]
pub struct PressureOptions {
    /// Planning interval: how often an idle (or between-batches)
    /// worker re-scores the fleet. Each tick executes at most
    /// [`Budget::max_concurrent`](slackvm_rebalance::Budget) moves.
    pub every: Duration,
    /// Cost budget every mitigation pass runs under.
    pub budget: slackvm_rebalance::Budget,
    /// Hot/warm/cold thresholds and oversubscription weighting.
    pub thresholds: slackvm_pressure::PressureConfig,
    /// Seed of the synthesized per-VM usage profile. `bombard
    /// --usage-seed` must match for the client-side hot set to line up.
    pub usage_seed: u64,
    /// Fraction of VM ids that are hot (benchmark-class) in the
    /// synthesized profile.
    pub hot_frac: f64,
}

impl Default for PressureOptions {
    fn default() -> Self {
        PressureOptions {
            every: Duration::from_secs(5),
            budget: slackvm_rebalance::Budget::default(),
            thresholds: slackvm_pressure::PressureConfig::default(),
            usage_seed: 42,
            hot_frac: 0.0,
        }
    }
}

/// Service configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of shards (single-threaded state owners).
    pub shards: u32,
    /// Bounded depth of each shard's admission queue; a full queue
    /// blocks `submit` (backpressure) or fails `try_submit` (shedding
    /// at the door).
    pub queue_depth: usize,
    /// Maximum requests drained per batch (amortizes index refresh and
    /// metric flushing).
    pub batch_max: usize,
    /// Default per-request deadline; a request still queued past it is
    /// shed. `None` disables shedding.
    pub deadline: Option<Duration>,
    /// Deterministic mode: requires one shard, ignores deadlines, and
    /// makes the service reproduce offline `run_packing` decisions
    /// exactly (proven by `tests/serve_differential.rs`).
    pub deterministic: bool,
    /// Per-shard deployment model.
    pub model: ModelSpec,
    /// Candidate-assembly mode for every shard.
    pub index: IndexMode,
    /// Sample in-flight depth / shed rate / per-shard utilization every
    /// this many milliseconds (`None` disables the sampler thread).
    pub sample_interval_ms: Option<u64>,
    /// Crash durability: journal every committed decision to a
    /// write-ahead log and snapshot periodically under this state
    /// directory. On restart against the same directory the service
    /// recovers its placements. `None` keeps the service in-memory
    /// only.
    pub durable: Option<DurableOptions>,
    /// What a journal write failure does to its shard. `false` (the
    /// default) degrades gracefully: the shard stops journalling, keeps
    /// serving from memory, and `/healthz` names it journal-degraded.
    /// `true` restores fail-stop behavior: the worker panics, taking
    /// the shard down rather than serving without durability.
    pub durable_fail_stop: bool,
    /// Per-request tracing depth (stage histograms, span sampling).
    pub trace: TraceLevel,
    /// Watchdog threshold for the `/healthz` plane: a shard whose
    /// worker heartbeat is older than this is reported stalled and
    /// flips the endpoint to 503.
    pub stall_threshold: Duration,
    /// Objectives the `/slo` plane scores the rolling window against.
    pub slo: SloTargets,
    /// Online consolidation: background rebalance ticks per shard.
    /// `None` (the default) never migrates on its own.
    pub rebalance: Option<RebalanceOptions>,
    /// Online hotspot mitigation: background pressure ticks per shard.
    /// `None` (the default) never spreads on its own.
    pub pressure: Option<PressureOptions>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            queue_depth: 1024,
            batch_max: 64,
            deadline: None,
            deterministic: false,
            model: ModelSpec::default_shared(),
            index: IndexMode::default(),
            sample_interval_ms: None,
            durable: None,
            durable_fail_stop: false,
            trace: TraceLevel::Stages,
            stall_threshold: Duration::from_secs(2),
            slo: SloTargets::default(),
            rebalance: None,
            pressure: None,
        }
    }
}

impl ServeConfig {
    /// Validates field combinations.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::Config("shards must be >= 1".into()));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::Config("queue depth must be >= 1".into()));
        }
        if self.batch_max == 0 {
            return Err(ServeError::Config("batch max must be >= 1".into()));
        }
        if self.deterministic && self.shards != 1 {
            return Err(ServeError::Config(
                "deterministic mode requires exactly one shard".into(),
            ));
        }
        if let Some(durable) = &self.durable {
            if durable.dir.as_os_str().is_empty() {
                return Err(ServeError::Config(
                    "state directory must not be empty".into(),
                ));
            }
        }
        if self.durable_fail_stop && self.durable.is_none() {
            return Err(ServeError::Config(
                "durable fail-stop requires a state directory".into(),
            ));
        }
        if self.trace == (TraceLevel::Sampled { every: 0 }) {
            return Err(ServeError::Config(
                "trace sampling period must be >= 1".into(),
            ));
        }
        if self.stall_threshold.is_zero() {
            return Err(ServeError::Config(
                "stall threshold must be nonzero".into(),
            ));
        }
        self.slo
            .validate()
            .map_err(|e| ServeError::Config(format!("slo targets: {e}")))?;
        if let Some(rebalance) = &self.rebalance {
            if rebalance.every.is_zero() {
                return Err(ServeError::Config(
                    "rebalance interval must be nonzero".into(),
                ));
            }
            rebalance
                .budget
                .validate()
                .map_err(|e| ServeError::Config(format!("rebalance budget: {e}")))?;
        }
        if let Some(pressure) = &self.pressure {
            if pressure.every.is_zero() {
                return Err(ServeError::Config(
                    "pressure interval must be nonzero".into(),
                ));
            }
            pressure
                .budget
                .validate()
                .map_err(|e| ServeError::Config(format!("pressure budget: {e}")))?;
            pressure
                .thresholds
                .validate()
                .map_err(|e| ServeError::Config(format!("pressure thresholds: {e}")))?;
            if !(0.0..=1.0).contains(&pressure.hot_frac) {
                return Err(ServeError::Config(
                    "pressure hot fraction must be within [0, 1]".into(),
                ));
            }
        }
        Ok(())
    }

    /// The manifest this configuration writes into (and must agree
    /// with) a state directory.
    pub fn manifest(&self) -> Manifest {
        Manifest {
            shards: self.shards,
            index: self.index.name().to_string(),
            model: self.model.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_degenerate_shapes() {
        assert!(ServeConfig::default().validate().is_ok());
        let mut c = ServeConfig {
            shards: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.shards = 4;
        c.deterministic = true;
        assert!(c.validate().is_err(), "deterministic needs one shard");
        c.shards = 1;
        assert!(c.validate().is_ok());
        c.trace = TraceLevel::Sampled { every: 0 };
        assert!(c.validate().is_err(), "sampling period 0 is degenerate");
        c.trace = TraceLevel::Sampled { every: 8 };
        assert!(c.validate().is_ok());
        c.stall_threshold = Duration::ZERO;
        assert!(c.validate().is_err(), "watchdog needs a nonzero threshold");
        c.stall_threshold = Duration::from_millis(500);
        c.slo.availability = 1.5;
        assert!(c.validate().is_err(), "availability target out of range");
    }

    #[test]
    fn model_spec_build_reports_bad_names() {
        let bad_policy = ModelSpec::Shared {
            topology: "cores=8".into(),
            mem_mib: slackvm_model::gib(32),
            policy: "best-effort".into(),
            fleet_cap: None,
        };
        let err = match bad_policy.build(1) {
            Err(e) => e,
            Ok(_) => panic!("bad policy accepted"),
        };
        assert!(
            err.contains("best-effort") && err.contains("progress"),
            "{err}"
        );
        let bad_topo = ModelSpec::Dedicated {
            topology: "cores=banana".into(),
            mem_mib: slackvm_model::gib(32),
        };
        assert!(bad_topo.build(1).is_err());
    }

    #[test]
    fn manifest_carries_shards_index_and_the_spec_itself() {
        let config = ServeConfig {
            shards: 3,
            index: IndexMode::Naive,
            model: ModelSpec::Shared {
                topology: "cores=16".into(),
                mem_mib: slackvm_model::gib(64),
                policy: "progress+bestfit".into(),
                fleet_cap: Some(30),
            },
            ..Default::default()
        };
        let manifest = config.manifest();
        assert_eq!(manifest.shards, 3);
        assert_eq!(manifest.index, "naive");
        assert_eq!(manifest.model, config.model);
    }

    #[test]
    fn capped_fleet_splits_across_shards() {
        let spec = ModelSpec::Shared {
            topology: "cores=8".into(),
            mem_mib: slackvm_model::gib(32),
            policy: "first-fit".into(),
            fleet_cap: Some(5),
        };
        // ceil(5/2) = 3 PMs per shard; aggregate 6 >= requested 5.
        for _ in 0..2 {
            let model = spec.build(2).unwrap();
            assert_eq!(model.opened_pms(), 0);
        }
    }
}
