//! # slackvm-topology
//!
//! A CPU-topology model for the SlackVM local scheduler.
//!
//! Modern server processors have intricate topologies: multiple sockets,
//! NUMA nodes, segmented last-level caches (EPYC CCXs) and SMT sibling
//! threads. SlackVM's local scheduler pins vNodes to groups of cores that
//! "resemble a CPU model with fewer cores" (paper §V-A), and it does so by
//! ranking cores with a *cache-aware distance metric* that extends the NUMA
//! distance notion (paper Algorithm 1).
//!
//! This crate provides:
//! - [`CpuTopology`]: an immutable description of schedulable CPUs with
//!   their per-level cache identifiers, socket and NUMA placement;
//! - [`builders`]: ready-made topologies (the paper's dual AMD EPYC 7662
//!   testbed, generic monolithic-LLC hosts, flat single-socket hosts) plus
//!   a custom [`builders::TopologyBuilder`];
//! - [`distance`]: paper Algorithm 1 and a precomputed [`distance::DistanceMatrix`];
//! - [`coreset`]: [`CoreSet`], the `u64`-word bitset that holds every set of
//!   CPUs the local scheduler keeps (vNode spans, assigned and free cores);
//! - [`select`]: the core-selection policies ("closest to the vNode" for
//!   growth, "farthest from other vNodes" for seeding, "farthest from the
//!   rest" for release), answered from per-topology tier masks over
//!   `CoreSet` words, and a naive policy used by the ablation benchmarks.

#![warn(missing_docs)]

pub mod builders;
pub mod coreset;
pub mod distance;
pub mod select;
pub mod spec;
pub mod topo;

pub use builders::TopologyBuilder;
pub use coreset::CoreSet;
pub use distance::{core_distance, DistanceMatrix};
pub use select::{NaiveSelection, SelectionPolicy, TopologySelection};
pub use spec::{parse_spec, topology_from_spec, SpecError};
pub use topo::{CacheId, Core, CoreId, CpuTopology, TopologyError};
