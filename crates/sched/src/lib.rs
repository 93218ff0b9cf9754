//! # slackvm-sched
//!
//! The SlackVM *global scheduler* layer (paper §VI).
//!
//! Cloud control planes pick a PM for each deployment by **filtering**
//! candidates on hard constraints and **scoring** the survivors on soft
//! ones. Here the hard constraints are capacity only: the index's
//! admission gate skips PMs that provably cannot fit the VM and the
//! host's own `can_host` decides the rest (both applied by
//! `slackvm_sim::Cluster`). SlackVM does not replace that pipeline; it
//! contributes one new scorer — the *progress towards the target Memory-per-Core ratio*
//! (paper Algorithm 2, [`progress::progress_score`]) — that makes the
//! scheduler prefer PMs whose resource-ratio imbalance the candidate VM
//! would counteract.
//!
//! This crate provides:
//! - [`progress`]: Algorithm 2 as a pure function plus knobs for the
//!   ablation studies (negative-score load factor on/off, empty-PM-as-
//!   ideal-ratio rule on/off);
//! - [`scorers`]: the [`scorers::Scorer`] trait, the
//!   [`scorers::ProgressScorer`], and classic fit-family scorers used as
//!   baselines;
//! - [`pipeline`]: candidate views and the placement policies
//!   (First-Fit and score-based selection) used by the simulator;
//! - [`index`]: the incremental placement index — dirty-tracked per-PM
//!   candidate state behind a conservative admission gate, so replay
//!   deployments stop re-querying every host per event;
//! - [`vcluster`]: the vCluster abstraction — a per-level view over a
//!   shared pool of SlackVM workers.

#![warn(missing_docs)]

pub mod index;
pub mod pipeline;
pub mod progress;
pub mod scorers;
pub mod vcluster;

pub use index::{AdmissionKey, CandidateIndex, GatherStats, IndexMode};
pub use pipeline::{Candidate, PlacementPolicy, POLICY_NAMES};
pub use progress::{progress_score, ratio_distance, ProgressConfig};
pub use scorers::{
    BestFitScorer, CompositeScorer, DotProductScorer, NormBasedGreedyScorer, ProgressScorer,
    Scorer, WorstFitScorer, DEFAULT_CONSOLIDATION_WEIGHT,
};
pub use vcluster::VCluster;
