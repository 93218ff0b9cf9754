//! A compact textual topology spec.
//!
//! Operators describe machine shapes as one-liners —
//! `"sockets=2 cores=64 smt=2 ccx=4 nps=1 remote=32"` — in CLI flags and
//! config files; this module parses them into [`TopologyBuilder`]s.
//! Keys may appear in any order; unknown keys are rejected. Only
//! `cores` is required.

use thiserror::Error;

use crate::builders::TopologyBuilder;
use crate::topo::{CpuTopology, TopologyError};

/// Errors raised while parsing a topology spec.
#[derive(Debug, Error, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A token that is not `key=value`.
    #[error("malformed token {0:?} (expected key=value)")]
    MalformedToken(String),

    /// An unknown key.
    #[error("unknown key {0:?} (sockets, cores, smt, ccx, nps, remote, intra)")]
    UnknownKey(String),

    /// A value that does not parse as a positive integer.
    #[error("invalid value for {key}: {value:?}")]
    BadValue {
        /// Offending key.
        key: String,
        /// Offending raw value.
        value: String,
    },

    /// A key given twice.
    #[error("duplicate key {0:?}")]
    DuplicateKey(String),

    /// The mandatory `cores` key is missing.
    #[error("missing mandatory key 'cores'")]
    MissingCores,

    /// The parsed builder produced an invalid topology.
    #[error("invalid topology: {0}")]
    Topology(#[from] TopologyError),
}

/// Parses a spec string into a builder.
pub fn parse_spec(spec: &str) -> Result<TopologyBuilder, SpecError> {
    let mut builder = TopologyBuilder::new();
    let mut seen: Vec<String> = Vec::new();
    let mut cores_given = false;
    for token in spec.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| SpecError::MalformedToken(token.to_string()))?;
        if seen.iter().any(|k| k == key) {
            return Err(SpecError::DuplicateKey(key.to_string()));
        }
        seen.push(key.to_string());
        let parse = |value: &str| -> Result<u32, SpecError> {
            value
                .parse::<u32>()
                .ok()
                .filter(|&v| v > 0)
                .ok_or_else(|| SpecError::BadValue {
                    key: key.to_string(),
                    value: value.to_string(),
                })
        };
        builder = match key {
            "sockets" => builder.sockets(parse(value)?),
            "cores" => {
                cores_given = true;
                builder.physical_cores_per_socket(parse(value)?)
            }
            "smt" => builder.threads_per_core(parse(value)?),
            "ccx" => builder.ccx_size(Some(parse(value)?)),
            "nps" => builder.numa_per_socket(parse(value)?),
            "remote" => builder.remote_numa_distance(parse(value)?),
            "intra" => builder.intra_socket_numa_distance(parse(value)?),
            other => return Err(SpecError::UnknownKey(other.to_string())),
        };
    }
    if !cores_given {
        return Err(SpecError::MissingCores);
    }
    Ok(builder)
}

/// Parses a spec string directly into a topology.
pub fn topology_from_spec(spec: &str) -> Result<CpuTopology, SpecError> {
    Ok(parse_spec(spec)?.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::topo::CoreId;

    #[test]
    fn epyc_spec_matches_the_builder() {
        let spec = "sockets=2 cores=64 smt=2 ccx=4 remote=32";
        let parsed = topology_from_spec(spec).unwrap();
        assert_eq!(parsed, builders::dual_epyc_7662());
    }

    #[test]
    fn minimal_spec_is_a_flat_machine() {
        let parsed = topology_from_spec("cores=32").unwrap();
        assert_eq!(parsed, builders::flat(32));
    }

    #[test]
    fn keys_in_any_order() {
        let a = topology_from_spec("smt=2 cores=16 sockets=2").unwrap();
        let b = topology_from_spec("sockets=2 cores=16 smt=2").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.num_cores(), 64);
    }

    #[test]
    fn nps_key_splits_numa() {
        let t = topology_from_spec("cores=8 nps=2").unwrap();
        assert_eq!(t.num_numa_nodes(), 2);
        assert_ne!(t.core(CoreId(0)).numa, t.core(CoreId(7)).numa);
    }

    #[test]
    fn errors_are_specific() {
        assert!(matches!(
            topology_from_spec("cores").unwrap_err(),
            SpecError::MalformedToken(_)
        ));
        assert!(matches!(
            topology_from_spec("cores=0").unwrap_err(),
            SpecError::BadValue { .. }
        ));
        assert!(matches!(
            topology_from_spec("cores=4 cores=8").unwrap_err(),
            SpecError::DuplicateKey(_)
        ));
        assert!(matches!(
            topology_from_spec("sockets=2").unwrap_err(),
            SpecError::MissingCores
        ));
        assert!(matches!(
            topology_from_spec("cores=4 cache=9").unwrap_err(),
            SpecError::UnknownKey(_)
        ));
        assert!(matches!(
            topology_from_spec("cores=4 smt=-1").unwrap_err(),
            SpecError::BadValue { .. }
        ));
    }

    #[test]
    fn numa_distance_that_would_wrap_u16_is_rejected() {
        // Algorithm 1 gives 30 + 65516 = 65546 across sockets, which a
        // `u16` table stores as 10 — closer than a same-socket neighbour.
        let err = topology_from_spec("sockets=2 cores=4 remote=65516").unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::Topology(TopologyError::NumaDistanceTooLarge {
                    distance: 65516,
                    ..
                })
            ),
            "{err}"
        );
        // The largest distance that still fits builds, and the matrix
        // returns it unchanged.
        let topo = topology_from_spec("sockets=2 cores=4 remote=65505").unwrap();
        let matrix = crate::DistanceMatrix::build(&topo);
        assert_eq!(crate::core_distance(&topo, CoreId(0), CoreId(4)), 65535);
        assert_eq!(matrix.get(CoreId(0), CoreId(4)), 65535);
        assert_eq!(matrix.get(CoreId(0), CoreId(1)), 20);
    }

    #[test]
    fn empty_spec_misses_cores() {
        assert_eq!(topology_from_spec("").unwrap_err(), SpecError::MissingCores);
    }
}
