//! Core-selection policies for vNode resizing (paper §V-A).
//!
//! Three operations matter:
//! - **growing** an existing vNode: pick the free CPU *closest* (in
//!   Algorithm 1 distance) to the vNode's current cores, so sibling cores
//!   integrate gradually and the vNode keeps resembling a smaller CPU;
//! - **seeding** a new vNode: pick the free CPU *farthest* from every
//!   already-placed vNode, maximizing isolation (ideally a different
//!   socket);
//! - **shrinking** a vNode: release the member farthest from the rest of
//!   the span, keeping it compact.
//!
//! Ties are broken by CPU id (lowest when adding, highest when
//! releasing), which keeps the policies fully deterministic — a
//! requirement for reproducible simulation runs.
//!
//! The machine resizes a vNode on every VM arrival and departure, so the
//! kernels run on the admission path. [`TopologySelection`] therefore
//! answers them from per-topology *tier masks* over [`CoreSet`] words
//! (DESIGN.md §16) and allocates nothing.

use crate::coreset::CoreSet;
use crate::distance::DistanceMatrix;
use crate::topo::CoreId;

/// A deterministic core-selection strategy.
pub trait SelectionPolicy {
    /// Chooses which free CPU to add to a vNode currently holding
    /// `members`; `None` when `free` is empty. `members` may be empty (a
    /// vNode that holds VMs but no core yet).
    fn pick_expansion(&self, members: &CoreSet, free: &CoreSet) -> Option<CoreId>;

    /// Chooses the first CPU of a new vNode, given the CPUs already
    /// `occupied` by other vNodes.
    fn pick_seed(&self, occupied: &CoreSet, free: &CoreSet) -> Option<CoreId>;

    /// Chooses which member CPU to release when a vNode shrinks. The
    /// default drops the highest id; topology-aware policies drop the
    /// member farthest from the rest of the span, keeping it compact.
    fn pick_release(&self, members: &CoreSet) -> Option<CoreId> {
        members.last()
    }

    /// Policy name, for reports and ablation labels.
    fn name(&self) -> &'static str;
}

/// The paper's topology-driven policy.
///
/// Built once per topology and shared by every machine of that shape. On
/// top of the distance matrix it holds the sorted distinct distances the
/// matrix contains — the *tiers*, 0/20/40/62 on the paper's EPYC testbed —
/// and, for every CPU and tier, the mask of CPUs within that distance of
/// it: `n × tiers × ⌈n/64⌉` words (32 KiB for 256 CPUs and four tiers).
#[derive(Debug, Clone)]
pub struct TopologySelection {
    matrix: DistanceMatrix,
    /// Words per mask, `⌈n/64⌉`.
    words: usize,
    /// Number of distinct distances in the matrix.
    tiers: usize,
    /// `masks[(cpu × tiers + tier) × words ..][..words]`: the CPUs whose
    /// distance to `cpu` is at most the `tier`-th smallest distance. The
    /// top tier's mask is every CPU; every mask of `cpu` holds `cpu`.
    masks: Vec<u64>,
}

impl TopologySelection {
    /// Precomputes the tier masks for the machine shape `matrix` describes.
    pub fn new(matrix: DistanceMatrix) -> Self {
        let n = matrix.len();
        let cpus = || (0..n as u32).map(CoreId);
        let mut distances: Vec<u32> = Vec::new();
        for a in cpus() {
            for b in cpus() {
                let d = matrix.get(a, b);
                if !distances.contains(&d) {
                    distances.push(d);
                }
            }
        }
        distances.sort_unstable();

        let words = n.div_ceil(64);
        let tiers = distances.len();
        let mut masks = vec![0u64; n * tiers * words];
        for cpu in cpus() {
            let row = &mut masks[cpu.index() * tiers * words..][..tiers * words];
            for other in cpus() {
                let tier = distances
                    .binary_search(&matrix.get(cpu, other))
                    .expect("every distance of the matrix is a tier");
                row[tier * words + other.index() / 64] |= 1 << (other.index() % 64);
            }
            // "At exactly tier t" becomes "within tier t".
            for word in words..tiers * words {
                row[word] |= row[word - words];
            }
        }
        TopologySelection {
            matrix,
            words,
            tiers,
            masks,
        }
    }

    /// Access to the underlying matrix (used by isolation diagnostics).
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.matrix
    }

    /// Word `word` of the union, over `set`, of the CPUs within `tier` of
    /// a member: the CPUs of that word whose minimum distance to `set` is
    /// at most the tier's (the matrix is symmetric).
    #[inline]
    fn within(&self, set: &CoreSet, tier: usize, word: usize) -> u64 {
        let offset = tier * self.words + word;
        set.iter().fold(0, |near, cpu| {
            near | self.masks[cpu.index() * self.tiers * self.words + offset]
        })
    }

    /// Whether a member of `members` other than `cpu` lies within `tier`
    /// of `cpu`. `D[c][c] = 0` puts `cpu` in every one of its own masks,
    /// so it is struck out explicitly.
    #[inline]
    fn has_neighbour_within(&self, cpu: CoreId, tier: usize, members: &CoreSet) -> bool {
        let mask = &self.masks[(cpu.index() * self.tiers + tier) * self.words..][..self.words];
        mask.iter().enumerate().any(|(word, &near)| {
            let mut rest = near & members.word(word);
            if word == cpu.index() / 64 {
                rest &= !(1 << (cpu.index() % 64));
            }
            rest != 0
        })
    }
}

/// Lowest CPU of `bits`, the `word`-th word of a set.
#[inline]
fn lowest(word: usize, bits: u64) -> CoreId {
    CoreId((word * 64) as u32 + bits.trailing_zeros())
}

impl SelectionPolicy for TopologySelection {
    /// `(min distance to members, lowest id)`: the first tier whose
    /// neighbourhood of `members` reaches a free CPU holds exactly the
    /// free CPUs at the minimum distance, and its lowest bit is the pick.
    fn pick_expansion(&self, members: &CoreSet, free: &CoreSet) -> Option<CoreId> {
        if members.is_empty() {
            // Nothing to be close to: lowest id keeps determinism.
            return free.first();
        }
        for tier in 0..self.tiers {
            for word in 0..self.words {
                let candidates = free.word(word);
                if candidates == 0 {
                    continue;
                }
                let near = candidates & self.within(members, tier, word);
                if near != 0 {
                    return Some(lowest(word, near));
                }
            }
        }
        None
    }

    /// `(max min-distance to occupied, lowest id)`: the highest tier `t`
    /// that leaves a free CPU outside the tier `t − 1` neighbourhood of
    /// `occupied` is the largest minimum distance any free CPU has, and
    /// the CPUs left are exactly those at it.
    fn pick_seed(&self, occupied: &CoreSet, free: &CoreSet) -> Option<CoreId> {
        if occupied.is_empty() {
            return free.first();
        }
        for tier in (0..self.tiers).rev() {
            for word in 0..self.words {
                let candidates = free.word(word);
                if candidates == 0 {
                    continue;
                }
                let far = match tier {
                    0 => candidates,
                    _ => candidates & !self.within(occupied, tier - 1, word),
                };
                if far != 0 {
                    return Some(lowest(word, far));
                }
            }
        }
        None
    }

    /// `(max nearest-neighbour distance, highest id)`: members are
    /// visited ascending and a tie replaces the incumbent. A member
    /// displaces an incumbent at tier `t` iff it has no neighbour within
    /// tier `t − 1`, so most members cost one mask test.
    fn pick_release(&self, members: &CoreSet) -> Option<CoreId> {
        if members.len() <= 1 {
            return members.first();
        }
        let mut victim = None;
        let mut victim_tier = 0;
        for cpu in members {
            if victim_tier > 0 && self.has_neighbour_within(cpu, victim_tier - 1, members) {
                continue;
            }
            // The top tier spans every CPU and the rest is non-empty.
            while victim_tier + 1 < self.tiers
                && !self.has_neighbour_within(cpu, victim_tier, members)
            {
                victim_tier += 1;
            }
            victim = Some(cpu);
        }
        victim
    }

    fn name(&self) -> &'static str {
        "topology"
    }
}

/// A deliberately topology-blind policy — always the lowest-indexed free
/// CPU — used as the ablation baseline ("no pinning considerations").
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveSelection;

impl SelectionPolicy for NaiveSelection {
    fn pick_expansion(&self, _members: &CoreSet, free: &CoreSet) -> Option<CoreId> {
        free.first()
    }

    fn pick_seed(&self, _occupied: &CoreSet, free: &CoreSet) -> Option<CoreId> {
        free.first()
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}

/// Mean Algorithm 1 distance between two CPU sets — the isolation metric
/// reported by the ablation benchmarks (higher across vNodes = better
/// isolation; lower within a vNode = better locality).
pub fn mean_cross_distance(matrix: &DistanceMatrix, a: &[CoreId], b: &[CoreId]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut total = 0u64;
    for &x in a {
        for &y in b {
            total += matrix.get(x, y) as u64;
        }
    }
    total as f64 / (a.len() * b.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    fn epyc_selection() -> TopologySelection {
        TopologySelection::new(DistanceMatrix::build(&builders::dual_epyc_7662()))
    }

    fn set(ids: impl IntoIterator<Item = u32>) -> CoreSet {
        ids.into_iter().map(CoreId).collect()
    }

    #[test]
    fn tier_masks_hold_exactly_the_cpus_within_each_distance() {
        // 70 CPUs leave a 6-bit tail word; the NPS-2 shape has five tiers.
        let nps2 = "sockets=2 cores=48 smt=2 ccx=4 nps=2 intra=12 remote=32";
        for (topo, tiers) in [
            (builders::flat(70), vec![0, 20]),
            (builders::dual_epyc_7662(), vec![0, 20, 40, 62]),
            (
                crate::topology_from_spec(nps2).unwrap(),
                vec![0, 20, 40, 42, 62],
            ),
        ] {
            let n = topo.num_cores();
            let sel = TopologySelection::new(DistanceMatrix::build(&topo));
            assert_eq!(sel.tiers, tiers.len());
            assert_eq!(sel.words, (n as usize).div_ceil(64));
            assert_eq!(sel.masks.len(), n as usize * sel.tiers * sel.words);
            for cpu in (0..n).map(CoreId) {
                for (tier, &distance) in tiers.iter().enumerate() {
                    let mask = &sel.masks[(cpu.index() * sel.tiers + tier) * sel.words..];
                    for other in 0..(sel.words * 64) as u32 {
                        let expected = other < n && sel.matrix.get(cpu, CoreId(other)) <= distance;
                        let held = mask[other as usize / 64] >> (other % 64) & 1 == 1;
                        assert_eq!(held, expected, "{cpu} tier {distance} {other}");
                    }
                }
            }
        }
    }

    #[test]
    fn expansion_prefers_smt_sibling_then_ccx() {
        let sel = epyc_selection();
        let members = set([0]);
        // Sibling thread 1 is at distance 0: always first choice.
        let free = set(1..256);
        assert_eq!(sel.pick_expansion(&members, &free), Some(CoreId(1)));
        // Without the sibling, the CCX mate (distance 20) wins over
        // another CCX (40) or the other socket (62).
        let free = set([130, 9, 2]);
        assert_eq!(sel.pick_expansion(&members, &free), Some(CoreId(2)));
    }

    #[test]
    fn expansion_tie_breaks_on_lowest_id() {
        let sel = epyc_selection();
        let members = set([0]);
        // CPUs 2..8 are all CCX mates at distance 20.
        let free = set([6, 3, 5]);
        assert_eq!(sel.pick_expansion(&members, &free), Some(CoreId(3)));
    }

    #[test]
    fn seed_flees_to_other_socket() {
        let sel = epyc_selection();
        let occupied = set(0..8);
        let free = set(8..256);
        let seed = sel.pick_seed(&occupied, &free).unwrap();
        // Farthest tier is the other socket (distance 62); lowest id there is 128.
        assert_eq!(seed, CoreId(128));
    }

    #[test]
    fn seed_on_empty_machine_is_lowest_id() {
        let sel = epyc_selection();
        let free = set(0..256);
        assert_eq!(sel.pick_seed(&set([]), &free), Some(CoreId(0)));
    }

    #[test]
    fn empty_free_list_returns_none() {
        let sel = epyc_selection();
        assert_eq!(sel.pick_expansion(&set([0]), &set([])), None);
        assert_eq!(sel.pick_seed(&set([0]), &set([])), None);
    }

    #[test]
    fn release_drops_the_outlier() {
        let sel = epyc_selection();
        // A compact CCX pair plus one far-socket straggler: the straggler
        // goes first.
        let members = set([0, 1, 200]);
        assert_eq!(sel.pick_release(&members), Some(CoreId(200)));
        // Singleton and empty cases.
        assert_eq!(sel.pick_release(&set([3])), Some(CoreId(3)));
        assert_eq!(sel.pick_release(&set([])), None);
        // Naive default: highest id.
        assert_eq!(NaiveSelection.pick_release(&members), Some(CoreId(200)));
    }

    #[test]
    fn release_ties_break_on_highest_id() {
        let sel = epyc_selection();
        // Three CCX mates, all pairwise distance 20: release the highest.
        let members = set([2, 4, 6]);
        assert_eq!(sel.pick_release(&members), Some(CoreId(6)));
    }

    #[test]
    fn naive_ignores_topology() {
        let sel = NaiveSelection;
        let free = set([130, 9, 2]);
        assert_eq!(sel.pick_expansion(&set([0]), &free), Some(CoreId(2)));
        assert_eq!(sel.pick_seed(&set([0]), &free), Some(CoreId(2)));
        assert_eq!(sel.name(), "naive");
    }

    #[test]
    fn mean_cross_distance_reflects_isolation() {
        let sel = epyc_selection();
        let m = sel.matrix();
        let ccx0: Vec<CoreId> = (0..8).map(CoreId).collect();
        let ccx1: Vec<CoreId> = (8..16).map(CoreId).collect();
        let far: Vec<CoreId> = (128..136).map(CoreId).collect();
        let near = mean_cross_distance(m, &ccx0, &ccx1);
        let cross = mean_cross_distance(m, &ccx0, &far);
        assert!(cross > near, "{cross} should exceed {near}");
        assert_eq!(mean_cross_distance(m, &ccx0, &[]), 0.0);
    }
}
