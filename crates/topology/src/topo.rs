//! The immutable CPU-topology description.

use serde::{Deserialize, Serialize};
use thiserror::Error;

/// Maximum number of cache levels a topology may describe.
pub const MAX_CACHE_LEVELS: usize = 4;

/// Index of a schedulable CPU (a hardware thread on SMT machines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct CoreId(pub u32);

impl CoreId {
    /// The raw index, as `usize` for table lookups.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Identifier of a cache *zone* at some level: cores reporting the same
/// `CacheId` at level `l` share that cache. Mirrors the per-level IDs Linux
/// exposes under `/sys/devices/system/cpu/cpu*/cache/index*/id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct CacheId(pub u32);

/// One schedulable CPU with its placement information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Core {
    /// The CPU index.
    pub id: CoreId,
    /// Physical package (socket) index.
    pub socket: u32,
    /// NUMA node index.
    pub numa: u32,
    /// Cache-zone identifier per level, `caches[0]` being the innermost
    /// (L1). `None` marks "no cache at this level" for heterogeneous or
    /// truncated hierarchies.
    pub caches: [Option<CacheId>; MAX_CACHE_LEVELS],
}

impl Core {
    /// Cache-zone id at `level`, if the topology describes that level.
    #[inline]
    pub fn cache_at(&self, level: usize) -> Option<CacheId> {
        self.caches.get(level).copied().flatten()
    }
}

/// Errors raised while constructing or validating a topology.
#[derive(Debug, Error, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The topology has no cores at all.
    #[error("a topology requires at least one core")]
    Empty,

    /// Core ids must be the contiguous range `0..n`.
    #[error("core ids must be contiguous 0..n; index {index} holds id {found}")]
    NonContiguousIds {
        /// Position in the core list.
        index: usize,
        /// Id found at that position.
        found: u32,
    },

    /// A NUMA node index outside the distance table.
    #[error(
        "core {core} references NUMA node {numa}, but the distance table covers {nodes} nodes"
    )]
    NumaOutOfRange {
        /// Offending core id.
        core: u32,
        /// Referenced NUMA node.
        numa: u32,
        /// Number of nodes in the distance table.
        nodes: usize,
    },

    /// The NUMA distance table is not square.
    #[error("NUMA distance table must be square; row {row} has {len} entries for {nodes} nodes")]
    RaggedNumaTable {
        /// Offending row.
        row: usize,
        /// Entries in that row.
        len: usize,
        /// Expected entries.
        nodes: usize,
    },

    /// Algorithm 1 adds 10 per cache level to the NUMA distance and the
    /// sum is stored as a `u16` ([`crate::DistanceMatrix`]); a larger
    /// value would wrap and rank a remote node as the nearest.
    #[error(
        "NUMA distance {distance} from node {from} to node {to} is too large: with {levels} cache level(s) at 10 each, core distances must stay within 65535"
    )]
    NumaDistanceTooLarge {
        /// Source NUMA node.
        from: usize,
        /// Destination NUMA node.
        to: usize,
        /// The offending table entry.
        distance: u32,
        /// Cache levels of the topology.
        levels: usize,
    },
}

/// An immutable description of a machine's schedulable CPUs.
///
/// Built once (see [`crate::builders`]) and then shared; all queries are
/// `O(1)` or iterate the core list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuTopology {
    cores: Vec<Core>,
    /// Number of meaningful cache levels (`height` in Algorithm 1).
    height: usize,
    /// Square matrix of NUMA distances, `numa_distances[a][b]`, in the
    /// Linux convention (10 = local).
    numa_distances: Vec<Vec<u32>>,
}

impl CpuTopology {
    /// Builds a validated topology.
    pub fn new(
        cores: Vec<Core>,
        height: usize,
        numa_distances: Vec<Vec<u32>>,
    ) -> Result<Self, TopologyError> {
        if cores.is_empty() {
            return Err(TopologyError::Empty);
        }
        for (index, core) in cores.iter().enumerate() {
            if core.id.index() != index {
                return Err(TopologyError::NonContiguousIds {
                    index,
                    found: core.id.0,
                });
            }
        }
        let nodes = numa_distances.len();
        for (row, entries) in numa_distances.iter().enumerate() {
            if entries.len() != nodes {
                return Err(TopologyError::RaggedNumaTable {
                    row,
                    len: entries.len(),
                    nodes,
                });
            }
        }
        for core in &cores {
            if core.numa as usize >= nodes {
                return Err(TopologyError::NumaOutOfRange {
                    core: core.id.0,
                    numa: core.numa,
                    nodes,
                });
            }
        }
        let height = height.min(MAX_CACHE_LEVELS);
        let room = u32::from(u16::MAX) - 10 * height as u32;
        for (from, entries) in numa_distances.iter().enumerate() {
            if let Some(to) = entries.iter().position(|&d| d > room) {
                return Err(TopologyError::NumaDistanceTooLarge {
                    from,
                    to,
                    distance: entries[to],
                    levels: height,
                });
            }
        }
        Ok(CpuTopology {
            cores,
            height,
            numa_distances,
        })
    }

    /// Number of schedulable CPUs.
    #[inline]
    pub fn num_cores(&self) -> u32 {
        self.cores.len() as u32
    }

    /// The cache-hierarchy height used by Algorithm 1.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The core list, ordered by id.
    #[inline]
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// Looks up a core by id. Panics on an out-of-range id — ids come from
    /// this topology, so a miss is a logic error.
    #[inline]
    pub fn core(&self, id: CoreId) -> &Core {
        &self.cores[id.index()]
    }

    /// All core ids, ascending.
    pub fn core_ids(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.cores.len() as u32).map(CoreId)
    }

    /// NUMA distance between two nodes (Linux convention, 10 = local).
    #[inline]
    pub fn numa_distance(&self, a: u32, b: u32) -> u32 {
        self.numa_distances[a as usize][b as usize]
    }

    /// Number of distinct sockets.
    pub fn num_sockets(&self) -> u32 {
        self.cores
            .iter()
            .map(|c| c.socket)
            .max()
            .map_or(0, |m| m + 1)
    }

    /// Number of NUMA nodes in the distance table.
    pub fn num_numa_nodes(&self) -> usize {
        self.numa_distances.len()
    }

    /// The SMT *sibling group* of a CPU: all CPUs sharing its innermost
    /// (L1) cache, itself included. On non-SMT machines this is a
    /// singleton.
    pub fn smt_siblings(&self, id: CoreId) -> Vec<CoreId> {
        let me = self.core(id);
        match me.cache_at(0) {
            None => vec![id],
            Some(l1) => self
                .cores
                .iter()
                .filter(|c| c.cache_at(0) == Some(l1))
                .map(|c| c.id)
                .collect(),
        }
    }

    /// Number of *distinct physical cores* (L1 groups) covered by a set of
    /// CPUs — what bounds pre-SMT compute capacity in the perf model.
    pub fn physical_core_count<'a>(&self, cpus: impl IntoIterator<Item = &'a CoreId>) -> u32 {
        let mut groups: Vec<CacheId> = Vec::new();
        let mut singletons = 0u32;
        for &id in cpus {
            match self.core(id).cache_at(0) {
                Some(l1) => {
                    if !groups.contains(&l1) {
                        groups.push(l1);
                    }
                }
                None => singletons += 1,
            }
        }
        groups.len() as u32 + singletons
    }

    /// Cores belonging to `socket`, ascending by id.
    pub fn cores_in_socket(&self, socket: u32) -> Vec<CoreId> {
        self.cores
            .iter()
            .filter(|c| c.socket == socket)
            .map(|c| c.id)
            .collect()
    }

    /// A short human-readable summary, e.g. `2 socket(s) x 128 cpus, 3 cache levels`.
    pub fn summary(&self) -> String {
        format!(
            "{} socket(s) x {} cpus, {} cache levels, {} NUMA node(s)",
            self.num_sockets(),
            self.num_cores(),
            self.height,
            self.num_numa_nodes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn rejects_empty_and_ragged() {
        assert_eq!(
            CpuTopology::new(vec![], 1, vec![vec![10]]).unwrap_err(),
            TopologyError::Empty
        );
        let core = Core {
            id: CoreId(0),
            socket: 0,
            numa: 0,
            caches: [None; MAX_CACHE_LEVELS],
        };
        assert!(matches!(
            CpuTopology::new(vec![core], 1, vec![vec![10, 20]]).unwrap_err(),
            TopologyError::RaggedNumaTable { .. }
        ));
    }

    #[test]
    fn rejects_non_contiguous_ids() {
        let mk = |id| Core {
            id: CoreId(id),
            socket: 0,
            numa: 0,
            caches: [None; MAX_CACHE_LEVELS],
        };
        let err = CpuTopology::new(vec![mk(0), mk(2)], 1, vec![vec![10]]).unwrap_err();
        assert_eq!(err, TopologyError::NonContiguousIds { index: 1, found: 2 });
    }

    #[test]
    fn rejects_numa_out_of_range() {
        let core = Core {
            id: CoreId(0),
            socket: 0,
            numa: 1,
            caches: [None; MAX_CACHE_LEVELS],
        };
        assert!(matches!(
            CpuTopology::new(vec![core], 1, vec![vec![10]]).unwrap_err(),
            TopologyError::NumaOutOfRange { .. }
        ));
    }

    #[test]
    fn smt_siblings_on_epyc() {
        let topo = builders::dual_epyc_7662();
        // EPYC builder lays out sibling threads adjacently: (0,1), (2,3), ...
        let sib = topo.smt_siblings(CoreId(0));
        assert_eq!(sib.len(), 2);
        assert!(sib.contains(&CoreId(0)) && sib.contains(&CoreId(1)));
        assert_eq!(topo.physical_core_count(&[CoreId(0), CoreId(1)]), 1);
        assert_eq!(topo.physical_core_count(&[CoreId(0), CoreId(2)]), 2);
    }

    #[test]
    fn summary_mentions_shape() {
        let topo = builders::dual_epyc_7662();
        assert_eq!(topo.num_cores(), 256);
        assert_eq!(topo.num_sockets(), 2);
        assert!(topo.summary().contains("2 socket(s) x 256 cpus"));
    }
}
