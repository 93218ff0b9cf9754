//! # slackvm-hypervisor
//!
//! The SlackVM *local scheduler* (paper §V): a per-PM agent that
//! partitions the machine's schedulable CPUs into **vNodes**, one per
//! oversubscription level hosted on the machine.
//!
//! - A vNode is a set of whole physical CPUs plus the VMs pinned to them;
//!   its size is `ceil(Σ vCPUs / n)` cores for an `n:1` vNode and is
//!   adjusted *dynamically* on each VM arrival and departure.
//! - Growth picks free cores *closest* (paper Algorithm 1 distance) to
//!   the vNode's current span; a brand-new vNode seeds from the core
//!   *farthest* from every other vNode — maximizing cache/socket
//!   isolation between levels.
//! - Spans, the machine's assigned set and its free set are
//!   [`slackvm_topology::CoreSet`] bitsets, and the selection policy
//!   answers from per-topology tier masks, so resizing a vNode allocates
//!   nothing and costs a few word operations per core moved.
//! - Oversubscribed vNodes may be *pooled* (§V-B) for execution purposes:
//!   the union of their cores plus any unassigned cores, provided the
//!   strictest pooled level's `n:1` guarantee still holds over the union.
//!
//! Two host implementations share the [`Host`] trait:
//! [`PhysicalMachine`] (partitioned, multi-level — the SlackVM worker)
//! and [`UniformMachine`] (single-level capacity counter — the dedicated
//! -cluster baseline worker).

#![warn(missing_docs)]

pub mod compaction;
#[cfg(test)]
mod differential;
pub mod dynamic;
pub mod error;
pub mod host;
pub mod layout;
pub mod machine;
pub mod pooling;
pub mod stats;
pub mod uniform;
pub mod virtual_topology;
pub mod vnode;

pub use compaction::{plan_compaction, plan_compaction_recorded, CompactionPlan, MachineSnapshot};
pub use dynamic::{
    recommend_level, recommend_level_recorded, DynamicLevelConfig, LevelRecommendation,
};
pub use error::HypervisorError;
pub use host::{AdmissionHeadroom, Host};
pub use layout::render_layout;
pub use machine::PhysicalMachine;
pub use stats::PinChurn;
pub use uniform::UniformMachine;
pub use virtual_topology::VirtualTopology;
pub use vnode::VNode;
