//! # slackvm-sim
//!
//! A discrete-event cloud simulator — the workspace's substitute for
//! CloudSimPlus (paper §VII-B).
//!
//! The paper uses CloudSimPlus for allocation bookkeeping: replaying a
//! week of VM arrivals/departures against a cluster that grows from
//! empty, with a pluggable host-selection policy, and reporting how many
//! PMs the workload required and how much CPU/memory sat unallocated.
//! This crate reproduces that machinery:
//!
//! - [`events`]: a deterministic event queue (time, then FIFO);
//! - [`cluster`]: an open-on-demand cluster generic over the host type,
//!   with an incremental placement index ([`slackvm_sched::index`]) so
//!   replay deployments stop rescanning the whole fleet per event;
//! - [`deployment`]: the two deployment models under comparison —
//!   [`deployment::DedicatedDeployment`] (one single-level cluster per
//!   oversubscription tier, the baseline) and
//!   [`deployment::SharedDeployment`] (one pool of partitioned SlackVM
//!   workers plus vClusters);
//! - [`engine`]: the one replay loop turning a workload trace into a
//!   [`metrics::PackingOutcome`] — [`run_packing`] for the plain run,
//!   [`run_packing_with`] when a [`RunOptions`] field (sample log,
//!   sampler, injected failures, periodic compaction) or a telemetry
//!   recorder is wanted;
//! - [`metrics`]: occupancy tracking and the unallocated-resource
//!   accounting behind the paper's Figures 3 and 4.

#![warn(missing_docs)]

pub mod cluster;
pub mod deployment;
pub mod engine;
pub mod error;
pub mod events;
pub mod metrics;
pub mod observe;
pub mod state;
pub mod steady;

pub use cluster::{index_entry, Cluster};
pub use deployment::{DedicatedDeployment, DeploymentModel, ModelSpec, SharedDeployment};
pub use engine::{
    run_packing, run_packing_with, CompactionStats, FailureStats, RunOptions, RunReport,
};
pub use error::SimError;
pub use events::{EventQueue, SimEvent};
pub use metrics::{OccupancySample, PackingOutcome};
pub use observe::{store_from_samples, ClusterObservables, ClusterSampler, PmUtilization};
pub use state::{ClusterState, ModelState, PlacementRecord};
pub use steady::{analyze_steady_state, SteadyStateSummary};
