//! Service errors.

use thiserror::Error;

/// Errors raised by the placement service and its frontends.
#[derive(Debug, Error)]
pub enum ServeError {
    /// A configuration field failed validation.
    #[error("invalid serve configuration: {0}")]
    Config(String),

    /// The admission queue of every eligible shard was full and the
    /// caller asked not to block ([`crate::PlacementService::try_submit`]).
    #[error("admission queue full; request dropped under backpressure")]
    Busy,

    /// The service stopped before answering — the request's reply
    /// channel disconnected.
    #[error("service stopped before replying")]
    Disconnected,

    /// A wire-protocol line could not be parsed.
    #[error("bad request line: {0}")]
    BadRequest(String),

    /// Socket-level failure on the TCP frontend.
    #[error("i/o error: {0}")]
    Io(#[from] std::io::Error),

    /// The durability layer failed while opening or recovering shard
    /// state at startup. (Failures *after* startup — a WAL append or
    /// fsync going bad mid-flight — never surface here: the owning
    /// shard goes journal-degraded, keeps serving from memory and is
    /// named on `/healthz`; only `ServeConfig::durable_fail_stop`
    /// makes its worker panic instead.)
    #[error("durability: {0}")]
    Durable(#[from] slackvm_durable::DurableError),
}
