//! # slackvm-durable
//!
//! Crash durability for the placement service (`slackvm-serve`): a
//! per-shard write-ahead log of committed placement decisions, periodic
//! snapshots of the shard's logical state, and the recovery path that
//! rebuilds a shard after `kill -9`.
//!
//! The design leans entirely on *decision determinism* — the property,
//! proven differentially by `tests/index_differential.rs` and
//! `tests/serve_differential.rs`, that replaying the same operation
//! sequence against the same deployment model reproduces the same
//! placements. Because decisions are deterministic the WAL does not
//! need to persist hypervisor internals (core pins, vNode spans): it
//! records each *decision* (`Place vm-7 → pm-3`), and recovery replays
//! the decision through a directed placement primitive that rebuilds an
//! equivalent internal layout.
//!
//! Layout of a state directory:
//!
//! ```text
//! <state-dir>/
//!   MANIFEST                 # service shape: shards, model, index mode
//!   shard-0/
//!     wal.log                # CRC32-framed append-only decision log
//!     snap-00000000000000000042.snap
//!   shard-1/ ...
//! ```
//!
//! The WAL is never truncated by snapshotting: snapshots bound
//! *recovery time*, while the full journal from genesis is what lets
//! [`fsck_shard`] re-derive every decision offline and prove the
//! recovered state is the one the service actually committed.
//!
//! All on-disk encodings are hand-rolled little-endian binary (see
//! [`codec`]) — a durability layer should not entangle its file formats
//! with a serialization framework's evolution.

#![warn(missing_docs)]

pub mod codec;
pub mod crc32;
pub mod error;
pub mod manifest;
pub mod recovery;
pub mod shard;
pub mod snapshot;
pub mod wal;

pub use error::DurableError;
pub use manifest::{Manifest, MANIFEST_FILE};
pub use recovery::{fsck_shard, recover_shard, shard_dir, FsckReport, RecoveryReport};
pub use shard::{DurableOptions, ShardDurable};
pub use slackvm_telemetry::FsyncPolicy;
pub use snapshot::{load_latest_snapshot, prune_snapshots, read_snapshot, write_snapshot};
pub use wal::{scan_wal, CommitStamp, WalOp, WalOutcome, WalRecord, WalScan, WalWriter, WAL_FILE};
