//! Paper Algorithm 1: cache-aware core distance.
//!
//! The distance between two schedulable CPUs is found by walking the cache
//! hierarchy from the innermost level outwards. The first shared cache
//! zone stops the walk; every level crossed without sharing adds 10 (the
//! same order of magnitude as Linux's NUMA distances). If no cache is
//! shared at any level, the NUMA distance between the cores' nodes is
//! added on top.
//!
//! Consequences on the paper's EPYC testbed:
//! - SMT siblings (shared L1) are at distance 0;
//! - cores of the same CCX (shared L3, distinct L1/L2) are at distance 20;
//! - same-socket cores of different CCXs are at 30 + 10 (local NUMA) = 40;
//! - cross-socket cores are at 30 + 32 (remote NUMA) = 62.

use crate::topo::{CoreId, CpuTopology};

/// Computes paper Algorithm 1 for a pair of CPUs.
///
/// `distance(a, a)` is 0 (a core shares its own L1). The metric is
/// symmetric by construction as long as the NUMA table is.
///
/// ```
/// use slackvm_topology::{core_distance, CoreId};
/// use slackvm_topology::builders::dual_epyc_7662;
/// let topo = dual_epyc_7662();
/// assert_eq!(core_distance(&topo, CoreId(0), CoreId(1)), 0);   // SMT siblings
/// assert_eq!(core_distance(&topo, CoreId(0), CoreId(2)), 20);  // same CCX (L3)
/// assert_eq!(core_distance(&topo, CoreId(0), CoreId(128)), 62); // other socket
/// ```
pub fn core_distance(topo: &CpuTopology, a: CoreId, b: CoreId) -> u32 {
    let ca = topo.core(a);
    let cb = topo.core(b);
    let mut distance = 0u32;
    for level in 0..topo.height() {
        match (ca.cache_at(level), cb.cache_at(level)) {
            (Some(za), Some(zb)) if za == zb => return distance,
            _ => distance += 10,
        }
    }
    distance + topo.numa_distance(ca.numa, cb.numa)
}

/// A precomputed, symmetric all-pairs distance table.
///
/// vNode resizing queries distances between every free core and every
/// vNode member on each deployment; precomputing the `n²` table (a 128 KiB
/// `u16` matrix for 256 CPUs) makes those queries branch-free lookups.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    table: Vec<u16>,
}

impl DistanceMatrix {
    /// Precomputes all pairwise distances for `topo`.
    pub fn build(topo: &CpuTopology) -> Self {
        let n = topo.num_cores() as usize;
        let mut table = vec![0u16; n * n];
        for i in 0..n {
            // Exploit symmetry: compute the upper triangle and mirror.
            for j in i..n {
                let d = core_distance(topo, CoreId(i as u32), CoreId(j as u32));
                let d = u16::try_from(d).expect("CpuTopology::new bounds every core distance");
                table[i * n + j] = d;
                table[j * n + i] = d;
            }
        }
        DistanceMatrix { n, table }
    }

    /// Number of CPUs covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix covers zero CPUs (never, in practice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between two CPUs.
    #[inline]
    pub fn get(&self, a: CoreId, b: CoreId) -> u32 {
        self.table[a.index() * self.n + b.index()] as u32
    }

    /// Smallest distance from `core` to any member of `set`.
    /// Returns `None` when `set` is empty.
    pub fn min_distance_to_set<'a>(
        &self,
        core: CoreId,
        set: impl IntoIterator<Item = &'a CoreId>,
    ) -> Option<u32> {
        set.into_iter().map(|&m| self.get(core, m)).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use proptest::prelude::*;

    #[test]
    fn epyc_distance_tiers_match_hierarchy() {
        let topo = builders::dual_epyc_7662();
        // Sibling threads of the same physical core: share L1 -> 0.
        assert_eq!(core_distance(&topo, CoreId(0), CoreId(1)), 0);
        // Same CCX (cores 0..8 cover CCX 0 = 4 physical cores): share L3 only -> 20.
        assert_eq!(core_distance(&topo, CoreId(0), CoreId(2)), 20);
        // Same socket, different CCX: no shared cache -> 30 + local NUMA 10 = 40.
        assert_eq!(core_distance(&topo, CoreId(0), CoreId(8)), 40);
        // Different socket: 30 + remote NUMA 32 = 62.
        assert_eq!(core_distance(&topo, CoreId(0), CoreId(128)), 62);
    }

    #[test]
    fn self_distance_is_zero() {
        let topo = builders::xeon(2, 16, 2);
        for id in topo.core_ids() {
            assert_eq!(core_distance(&topo, id, id), 0);
        }
    }

    #[test]
    fn xeon_monolithic_llc_keeps_socket_cohesion() {
        let topo = builders::xeon(2, 4, 1);
        // No SMT: distinct L1/L2, shared socket L3 -> 20.
        assert_eq!(core_distance(&topo, CoreId(0), CoreId(1)), 20);
        // Cross socket: 30 + 21 = 51 (default remote distance for xeon builder).
        assert_eq!(core_distance(&topo, CoreId(0), CoreId(4)), 51);
    }

    #[test]
    fn matrix_agrees_with_direct_computation() {
        let topo = builders::dual_epyc_7662();
        let matrix = DistanceMatrix::build(&topo);
        assert_eq!(matrix.len(), 256);
        for &(a, b) in &[(0u32, 1u32), (0, 2), (0, 8), (0, 128), (5, 77), (250, 3)] {
            assert_eq!(
                matrix.get(CoreId(a), CoreId(b)),
                core_distance(&topo, CoreId(a), CoreId(b)),
            );
        }
    }

    #[test]
    fn min_distance_to_set_behaviour() {
        let topo = builders::flat(8);
        let matrix = DistanceMatrix::build(&topo);
        assert_eq!(matrix.min_distance_to_set(CoreId(0), &[]), None);
        let set = [CoreId(4), CoreId(5)];
        let d = matrix.min_distance_to_set(CoreId(0), &set).unwrap();
        assert_eq!(
            d,
            set.iter().map(|&m| matrix.get(CoreId(0), m)).min().unwrap()
        );
    }

    proptest! {
        #[test]
        fn distance_is_symmetric(a in 0u32..256, b in 0u32..256) {
            let topo = builders::dual_epyc_7662();
            prop_assert_eq!(
                core_distance(&topo, CoreId(a), CoreId(b)),
                core_distance(&topo, CoreId(b), CoreId(a)),
            );
        }

        #[test]
        fn distance_respects_containment_hierarchy(a in 0u32..256, b in 0u32..256) {
            // On the EPYC layout every pair lands on one of the four tiers.
            let topo = builders::dual_epyc_7662();
            let d = core_distance(&topo, CoreId(a), CoreId(b));
            prop_assert!([0, 20, 40, 62].contains(&d), "unexpected tier {}", d);
        }
    }
}
