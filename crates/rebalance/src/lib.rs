//! Background consolidation for SlackVM clusters.
//!
//! Admission-time packing (paper Algorithm 2) only ever *adds* VMs to
//! the balance it is optimizing; once VMs depart, fragmentation
//! accumulates and nothing moves the fleet back towards the target
//! M/C-balanced state. This crate is the repacking plane layered on
//! top of `sim`, `sched`, and (through `slackvm-serve`) the online
//! service:
//!
//! - [`score_model`] reads a [`DeploymentModel`](slackvm_sim::DeploymentModel)
//!   snapshot and computes per-PM packability metrics — free-core /
//!   free-memory stranding, the Algorithm-2 M/C ratio distance
//!   ([`slackvm_sched::ratio_distance`]), and empty-PM potential.
//! - [`plan_rebalance`] greedily drains the lowest-utilization PMs
//!   into the rest of the fleet through the existing filter+score
//!   pipeline and [`CandidateIndex`](slackvm_sched::CandidateIndex),
//!   subject to a migration cost [`Budget`].
//! - [`validate_plan`] replays a plan against the *live* model on
//!   shadow hosts before anything moves: capacity, oversubscription
//!   ratios, and pooled-vNode rules are enforced by the real
//!   `Host::deploy` admission path, not by trusting the planner. A
//!   plan computed against a stale snapshot is rejected whole, never
//!   partially applied.
//! - [`ShadowHosts`] is the view both of the above (and
//!   `slackvm-pressure`'s planner) work on: the live hosts borrowed, a
//!   private clone made only of a host a tentative move mutates.
//! - [`apply_plan`] executes a validated plan offline against a
//!   deployment model with rollback on unexpected failure, reporting
//!   the PM-count delta. The online executor in `slackvm-serve` uses
//!   the same plan/validate split, journalling each migration as a WAL
//!   record and throttling by `Budget::max_concurrent` per tick.

pub mod apply;
pub mod plan;
pub mod planner;
pub mod score;
pub mod shadow;
pub mod validate;

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

pub use apply::{apply_plan, ApplyReport};
pub use plan::{Budget, PlannedMove, RebalancePlan};
pub use planner::{plan_rebalance, plan_rebalance_avoiding};
pub use score::{score_model, FragmentationReport, PmScore};
pub use shadow::ShadowHosts;
pub use validate::{validate_plan, validate_plan_avoiding};

use slackvm_model::VmId;

/// Why a plan was refused or an application aborted.
#[derive(Debug, thiserror::Error, PartialEq, Eq)]
pub enum RebalanceError {
    /// The migration budget itself is malformed (a zero bound).
    #[error("invalid budget: {0}")]
    Budget(String),

    /// The plan does not match the live cluster — computed against a
    /// stale snapshot, or the cluster changed underneath it. The model
    /// is untouched.
    #[error("stale plan: {0}")]
    Stale(String),

    /// The plan violates a hard constraint (budget conformance, failed
    /// or avoided PM, infeasible destination). The model is untouched.
    #[error("invalid plan: {0}")]
    Invalid(String),

    /// A validated move failed mid-application; every already-applied
    /// move was rolled back.
    #[error("apply aborted at {vm}: {reason}; applied moves rolled back")]
    Aborted {
        /// The VM whose migration failed.
        vm: VmId,
        /// The underlying failure.
        reason: String,
    },
}
