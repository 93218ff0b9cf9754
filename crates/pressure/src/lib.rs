//! # slackvm-pressure
//!
//! Usage-driven hotspot detection and spread-out mitigation for
//! oversubscribed fleets.
//!
//! Packing by *allocated* resources (the admission plane) and
//! consolidating by *allocated* resources (the rebalance plane) both
//! assume the paper's premise: most VMs leave slack between what they
//! hold and what they use. When that premise fails locally — a PM
//! accumulates VMs that actually burn their allocation — the
//! oversubscribed PM saturates and every tenant on it degrades. This
//! crate is the counterweight:
//!
//! 1. **Signal** ([`signal`]): one deterministic usage fraction per VM.
//!    Replay derives it from the workload trace's usage models (falling
//!    back to the `slackvm-perf` §VII-A load mix); the online service
//!    synthesizes it from a seeded per-VM profile that `bombard
//!    --hot-frac` reproduces client-side.
//! 2. **Estimation** ([`estimator`]): per-VM EWMA plus a windowed
//!    percentile, folded into a demand figure `max(ewma, p-tail)` that
//!    reacts to sustained load without chasing single spikes.
//! 3. **Scoring** ([`score`]): per-PM pressure = estimated used vCPUs
//!    (weighted up on more oversubscribed capacity — the inverse of the
//!    paper's slack) over physical cores, classified hot/warm/cold with
//!    hysteresis so PMs don't flap at the threshold.
//! 4. **Mitigation** ([`planner`]): drain the busiest VMs off hot PMs
//!    onto cold ones through the same `CandidateIndex` + policy
//!    pipeline admission uses, under the same [`Budget`] discipline as
//!    rebalance, emitting the same checked [`RebalancePlan`] artifact —
//!    so the durable journal, recovery, and fsck treat a mitigation
//!    migration exactly like any other.
//!
//! The spread-out direction deliberately opposes consolidation: the
//! online service interlocks the two ticks (pressure preempts
//! consolidation, never both in one tick) so they cannot fight over the
//! same VMs within a tick, and hysteresis keeps a PM that pressure just
//! cooled from being immediately re-packed into the hot band.
//!
//! [`Budget`]: slackvm_rebalance::Budget
//! [`RebalancePlan`]: slackvm_rebalance::RebalancePlan

#![warn(missing_docs)]

pub mod estimator;
pub mod planner;
pub mod score;
pub mod signal;

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

pub use estimator::{EstimatorConfig, UsageEstimator, UsageTracker};
pub use planner::{plan_mitigation, plan_mitigation_avoiding, MitigationPlan};
pub use score::{
    score_pressure, PmPressure, PressureConfig, PressureReport, PressureState, StateKey,
};
pub use signal::{is_hot, observe_model, replay_model, splitmix64, synth_frac};
