//! Differential tests: the tier-mask kernels of [`TopologySelection`]
//! against the slice scans they replaced.
//!
//! [`BruteForce`] holds the previous `TopologySelection` bodies verbatim
//! — `(min distance, lowest id)`, `(max min-distance, lowest id)`,
//! `(max nearest-neighbour distance, highest id)` over id slices and the
//! distance matrix — behind the `CoreSet` signatures. One machine runs on
//! it, a twin on the real policy, through the same seeded operations;
//! every pick, counter and error must agree after every step.

use std::sync::Arc;

use slackvm_model::{OversubLevel, PmId, VmId, VmSpec};
use slackvm_topology::{
    builders, topology_from_spec, CoreId, CoreSet, CpuTopology, DistanceMatrix, SelectionPolicy,
    TopologySelection,
};

use crate::{Host, HypervisorError, PhysicalMachine};

/// The reference policy. Besides answering, it checks what the machine
/// hands a policy: `free` is disjoint from the cores in use, and for a
/// seed the two together are the whole machine.
struct BruteForce(DistanceMatrix);

impl SelectionPolicy for BruteForce {
    fn pick_expansion(&self, members: &CoreSet, free: &CoreSet) -> Option<CoreId> {
        assert!(members.iter().all(|c| !free.contains(c)), "member is free");
        let (members, free): (&Vec<_>, &Vec<_>) =
            (&members.iter().collect(), &free.iter().collect());
        if members.is_empty() {
            return free.iter().copied().min();
        }
        free.iter().copied().min_by_key(|&c| {
            let d = self
                .0
                .min_distance_to_set(c, members)
                .expect("members is non-empty");
            (d, c)
        })
    }

    fn pick_seed(&self, occupied: &CoreSet, free: &CoreSet) -> Option<CoreId> {
        assert!(
            occupied.iter().all(|c| !free.contains(c)),
            "occupied is free"
        );
        assert_eq!(
            occupied.len() + free.len(),
            self.0.len(),
            "phantom or lost CPU"
        );
        let (occupied, free): (&Vec<_>, &Vec<_>) =
            (&occupied.iter().collect(), &free.iter().collect());
        if occupied.is_empty() {
            return free.iter().copied().min();
        }
        free.iter().copied().max_by_key(|&c| {
            let d = self
                .0
                .min_distance_to_set(c, occupied)
                .expect("occupied is non-empty");
            // Farthest first; on equal distance prefer the LOWEST id, so
            // invert the id in the key.
            (d, u32::MAX - c.0)
        })
    }

    fn pick_release(&self, members: &CoreSet) -> Option<CoreId> {
        let members: &Vec<_> = &members.iter().collect();
        if members.len() <= 1 {
            return members.first().copied();
        }
        members.iter().copied().max_by_key(|&c| {
            let rest_min = members
                .iter()
                .filter(|&&m| m != c)
                .map(|&m| self.0.get(c, m))
                .min()
                .unwrap_or(0);
            // Farthest from the rest first; on ties, the highest id.
            (rest_min, c)
        })
    }

    fn name(&self) -> &'static str {
        "brute-force"
    }
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// The four shapes: one word, a 6-bit tail word, the paper's testbed
/// (four words, four tiers), and a three-word NPS-2 host with five tiers
/// (0/20/40/42/62; `select.rs` pins the tier lists of these specs).
fn topologies() -> Vec<(&'static str, CpuTopology)> {
    let nps2 = "sockets=2 cores=48 smt=2 ccx=4 nps=2 intra=12 remote=32";
    vec![
        ("flat(32)", builders::flat(32)),
        ("flat(70)", builders::flat(70)),
        ("dual_epyc_7662", builders::dual_epyc_7662()),
        ("nps2-192", topology_from_spec(nps2).expect("valid spec")),
    ]
}

/// Arbitrary sets, not only those a machine reaches: every CPU is free,
/// a member, or held by another vNode, with probabilities that vary per
/// round so that near-empty and near-full sets both occur.
#[test]
fn differential_kernels_agree_on_arbitrary_sets() {
    for (name, topology) in topologies() {
        let n = topology.num_cores();
        let matrix = DistanceMatrix::build(&topology);
        let fast = TopologySelection::new(matrix.clone());
        let slow = BruteForce(matrix);
        let mut rng = SplitMix64(0x51ac ^ u64::from(n));
        for round in 0..500 {
            let (p_free, p_member) = (rng.between(0, 100), rng.between(0, 100));
            let mut free = CoreSet::new();
            let mut members = CoreSet::with_capacity(n);
            let mut occupied = CoreSet::new();
            for cpu in (0..n).map(CoreId) {
                if rng.between(1, 100) <= p_free {
                    free.insert(cpu);
                } else {
                    occupied.insert(cpu);
                    if rng.between(1, 100) <= p_member {
                        members.insert(cpu);
                    }
                }
            }
            let context = format!("{name} round {round}: {members:?} / free {free:?}");
            assert_eq!(
                fast.pick_expansion(&members, &free),
                slow.pick_expansion(&members, &free),
                "expansion, {context}"
            );
            assert_eq!(
                fast.pick_seed(&occupied, &free),
                slow.pick_seed(&occupied, &free),
                "seed, {context}"
            );
            // A run of releases, as a shrink makes them (the reference is
            // quadratic in the set, so not down to nothing every round).
            for _ in 0..12 {
                let victim = fast.pick_release(&members);
                assert_eq!(victim, slow.pick_release(&members), "release, {context}");
                match victim {
                    Some(victim) => members.remove(victim),
                    None => break,
                };
            }
        }
    }
}

/// Deploy-heavy seeded traffic over levels 1–4 and 1–16 vCPUs, on a
/// machine whose memory runs out about as often as its cores do.
fn drive_twins(name: &str, topology: CpuTopology, steps: u32, seed: u64) {
    let topology = Arc::new(topology);
    let matrix = DistanceMatrix::build(&topology);
    let mem_mib = u64::from(topology.num_cores()) * 1024;
    let mut fast = PhysicalMachine::new(
        PmId(0),
        Arc::clone(&topology),
        mem_mib,
        Arc::new(TopologySelection::new(matrix.clone())),
    );
    let mut slow = PhysicalMachine::new(
        PmId(0),
        Arc::clone(&topology),
        mem_mib,
        Arc::new(BruteForce(matrix)),
    );

    let mut rng = SplitMix64(seed);
    let mut live: Vec<VmId> = Vec::new();
    let mut next_id = 0u64;
    let (mut cpu_full, mut mem_full, mut admitted) = (0u32, 0u32, 0u32);
    for step in 0..steps {
        let vcpus = rng.between(1, 16) as u32;
        let mem = rng.between(256, u64::from(vcpus) * 1024);
        let roll = rng.between(0, 99);
        let outcome: (Result<(), HypervisorError>, Result<(), HypervisorError>) =
            if live.is_empty() || roll < 50 {
                // One deploy in fifty reuses a live id.
                let id = match live.first() {
                    Some(&id) if roll == 0 => id,
                    _ => {
                        next_id += 1;
                        VmId(next_id)
                    }
                };
                let spec = VmSpec::of(vcpus, mem, OversubLevel::of(rng.between(1, 4) as u32));
                let pair = (fast.deploy(id, spec), slow.deploy(id, spec));
                if pair.0.is_ok() {
                    live.push(id);
                    admitted += 1;
                }
                pair
            } else if roll < 78 {
                let id = live.swap_remove(rng.between(0, live.len() as u64 - 1) as usize);
                (fast.remove(id).map(drop), slow.remove(id).map(drop))
            } else if roll < 80 {
                let unknown = VmId(u64::MAX - u64::from(step));
                (
                    fast.remove(unknown).map(drop),
                    slow.remove(unknown).map(drop),
                )
            } else {
                let id = live[rng.between(0, live.len() as u64 - 1) as usize];
                (
                    fast.resize_vm(id, vcpus, mem),
                    slow.resize_vm(id, vcpus, mem),
                )
            };
        assert_eq!(outcome.0, outcome.1, "{name} step {step}: results differ");
        match outcome.0 {
            Err(HypervisorError::InsufficientCpu { .. }) => cpu_full += 1,
            Err(HypervisorError::InsufficientMemory { .. }) => mem_full += 1,
            _ => {}
        }
        for level in (1..=4).map(OversubLevel::of) {
            assert_eq!(
                fast.vnode(level).map(|v| v.core_vec()),
                slow.vnode(level).map(|v| v.core_vec()),
                "{name} step {step}: {level} spans differ"
            );
        }
        assert_eq!(fast.churn(), slow.churn(), "{name} step {step}");
        assert_eq!(fast.alloc(), slow.alloc(), "{name} step {step}");
        assert_eq!(fast.free_cores(), slow.free_cores(), "{name} step {step}");
        fast.check_invariants()
            .unwrap_or_else(|e| panic!("{name} step {step}: {e}"));
        slow.check_invariants()
            .unwrap_or_else(|e| panic!("{name} step {step}: {e}"));
    }
    assert!(
        cpu_full > 50 && mem_full > 50 && admitted > steps / 10,
        "{name}: traffic must exhaust both resources \
         (cpu {cpu_full}, mem {mem_full}, admitted {admitted})"
    );
    assert!(fast.churn().vnodes_dissolved > 10 && fast.churn().shrinks > steps as u64 / 50);
}

// 40 000 + 40 000 + 15 000 + 15 000 = 110 000 steps; the deep shapes get
// fewer because the reference costs O(free × members) per pick there.

#[test]
fn differential_flat_32_one_word() {
    let (name, topology) = topologies().swap_remove(0);
    drive_twins(name, topology, 40_000, 7);
}

#[test]
fn differential_flat_70_tail_word() {
    let (name, topology) = topologies().swap_remove(1);
    drive_twins(name, topology, 40_000, 11);
}

#[test]
fn differential_dual_epyc_four_words_four_tiers() {
    let (name, topology) = topologies().swap_remove(2);
    drive_twins(name, topology, 15_000, 13);
}

#[test]
fn differential_nps2_three_words_five_tiers() {
    let (name, topology) = topologies().swap_remove(3);
    drive_twins(name, topology, 15_000, 17);
}
