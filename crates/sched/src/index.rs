//! The incremental placement index — per-PM candidate state kept alive
//! across events so the replay hot path no longer rescales with fleet
//! size on every deployment.
//!
//! The naive control-plane loop rebuilds a `Vec<Candidate>` over *all*
//! PMs and re-queries each host's feasibility on every single deploy,
//! which makes a week-long trace cost O(events × PMs) even though each
//! event touches exactly one PM. The [`CandidateIndex`] inverts that:
//! the cluster *upserts* the one PM an event touched (dirty-tracking)
//! and deploy-time queries read everyone else's cached state.
//!
//! # Invariants
//!
//! - One slot per opened PM, dense by [`PmId`]; a slot is *live* unless
//!   the PM was retired (host failure) — retired slots are invisible to
//!   queries until re-upserted (host repair).
//! - Every slot carries a **conservative admission headroom**: a free
//!   memory bound (exact for both host kinds — memory is never
//!   oversubscribed) and an optional free-vCPU bound (exact for
//!   single-level uniform machines; `None` for partitioned hosts, whose
//!   vNode slack can make the marginal CPU cost of a VM zero). The gate
//!   may only *under*-approximate infeasibility: a PM skipped by the
//!   gate must be provably unable to host the VM, so skipping it can
//!   never change a placement decision.
//! - Queries yield candidates in ascending [`PmId`] order, matching the
//!   naive host-iteration order byte for byte.
//!
//! # Dirty-tracking rules
//!
//! The owner must upsert a PM's slot after **every** mutation of that
//! host — deploy, remove, resize, both endpoints of a migration — and
//! retire/re-upsert it on failure/repair. An owner that could not track
//! a mutation invalidates the whole index instead:
//! [`CandidateIndex::clear`] plus a full re-upsert pass restores
//! consistency.
//!
//! # Why one flat scan
//!
//! A gather walks the slot vector once, in id order. No secondary
//! ordering by headroom is kept: on every measured workload roughly
//! 85 % or more of gathers admit a quarter of the fleet or more, so a range
//! structure would be paid for on every upsert and rarely read, and no
//! workload opens more than ~155 PMs (DESIGN.md §9 has the counts).

use slackvm_model::PmId;

use crate::pipeline::Candidate;

/// How a cluster assembles the candidate set for each deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Rebuild the candidate vector from every host on every deploy —
    /// the reference path the incremental index is differentially
    /// tested against.
    Naive,
    /// Maintain a [`CandidateIndex`] updated by dirty-tracking; only
    /// the PM an event touches is refreshed.
    #[default]
    Incremental,
}

impl IndexMode {
    /// Parses a CLI-style mode name.
    pub fn parse(raw: &str) -> Option<IndexMode> {
        match raw {
            "naive" => Some(IndexMode::Naive),
            "incremental" => Some(IndexMode::Incremental),
            _ => None,
        }
    }

    /// Mode label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            IndexMode::Naive => "naive",
            IndexMode::Incremental => "incremental",
        }
    }
}

/// Conservative per-PM admission headroom, maintained by dirty-tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionKey {
    /// Free physical memory in MiB. Exact: a VM needing more memory than
    /// this can never be hosted.
    pub free_mem_mib: u64,
    /// Free vCPU capacity at the host's level, when the host kind admits
    /// a cheap exact bound; `None` disables the CPU gate.
    pub free_vcpus: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    candidate: Candidate,
    key: AdmissionKey,
    live: bool,
}

impl Slot {
    /// The cheap admission gate: live, and both headroom bounds cover
    /// the need.
    fn admits(&self, need_mem_mib: u64, need_vcpus: u32) -> bool {
        self.live
            && self.key.free_mem_mib >= need_mem_mib
            && self.key.free_vcpus.is_none_or(|free| free >= need_vcpus)
    }
}

/// Statistics of one [`CandidateIndex::gather_into`] query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GatherStats {
    /// Live PMs in the index when the query ran.
    pub live: usize,
    /// PMs that passed the cheap admission gate (the candidates handed
    /// to the authoritative feasibility check).
    pub admitted: usize,
}

impl GatherStats {
    /// PMs the admission gate skipped as provably infeasible.
    pub fn gate_skipped(&self) -> usize {
        self.live - self.admitted
    }
}

/// Per-PM [`Candidate`] state with its admission headroom, dense by
/// [`PmId`].
///
/// See the [module docs](self) for the invariants and dirty-tracking
/// rules.
#[derive(Debug, Clone, Default)]
pub struct CandidateIndex {
    slots: Vec<Option<Slot>>,
    live: usize,
}

impl CandidateIndex {
    /// An empty index.
    pub fn new() -> Self {
        CandidateIndex::default()
    }

    /// Drops every slot (full invalidation).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.live = 0;
    }

    /// Number of live (non-retired) PMs.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// The cached candidate state of a live PM.
    pub fn get(&self, pm: PmId) -> Option<&Candidate> {
        self.slots
            .get(pm.0 as usize)?
            .as_ref()
            .filter(|s| s.live)
            .map(|s| &s.candidate)
    }

    /// Inserts or refreshes a PM's slot (the dirty-tracking entry
    /// point). A previously retired PM comes back live.
    pub fn upsert(&mut self, candidate: Candidate, key: AdmissionKey) {
        let i = candidate.id.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        if !self.slots[i].as_ref().is_some_and(|old| old.live) {
            self.live += 1;
        }
        self.slots[i] = Some(Slot {
            candidate,
            key,
            live: true,
        });
    }

    /// Retires a PM (host failure): it stops appearing in queries until
    /// re-upserted. Returns whether the PM was live.
    pub fn retire(&mut self, pm: PmId) -> bool {
        match self.slots.get_mut(pm.0 as usize).and_then(Option::as_mut) {
            Some(slot) if slot.live => {
                slot.live = false;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Gathers every live candidate passing the cheap admission gate
    /// for a VM needing `need_mem_mib` MiB and `need_vcpus` vCPUs into
    /// `buf` (cleared first), in ascending [`PmId`] order.
    ///
    /// The gate is conservative: a gathered candidate may still fail
    /// the host's authoritative feasibility check, but a skipped PM can
    /// never host the VM.
    pub fn gather_into(
        &self,
        buf: &mut Vec<Candidate>,
        need_mem_mib: u64,
        need_vcpus: u32,
    ) -> GatherStats {
        buf.clear();
        for slot in self.slots.iter().flatten() {
            if slot.admits(need_mem_mib, need_vcpus) {
                buf.push(slot.candidate);
            }
        }
        GatherStats {
            live: self.live,
            admitted: buf.len(),
        }
    }

    /// The lowest-id live PM passing the admission gate for which
    /// `feasible` holds — the First-Fit fast path, which skips scoring
    /// entirely (First-Fit is the minimum feasible id by definition).
    pub fn first_admitted(
        &self,
        need_mem_mib: u64,
        need_vcpus: u32,
        mut feasible: impl FnMut(&Candidate) -> bool,
    ) -> Option<PmId> {
        self.slots
            .iter()
            .flatten()
            .find(|s| s.admits(need_mem_mib, need_vcpus) && feasible(&s.candidate))
            .map(|s| s.candidate.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_model::{gib, AllocView, Millicores, PmConfig};

    fn cand(id: u32, free_mem_gib: u64, free_vcpus: Option<u32>) -> (Candidate, AdmissionKey) {
        let config = PmConfig::simulation_host();
        let used = config.mem_mib - gib(free_mem_gib);
        (
            Candidate {
                id: PmId(id),
                config,
                alloc: AllocView::new(Millicores::from_cores(4), used),
                vms: 1,
            },
            AdmissionKey {
                free_mem_mib: gib(free_mem_gib),
                free_vcpus,
            },
        )
    }

    fn index_of(entries: &[(Candidate, AdmissionKey)]) -> CandidateIndex {
        let mut index = CandidateIndex::new();
        for (c, k) in entries {
            index.upsert(*c, *k);
        }
        index
    }

    #[test]
    fn gather_orders_by_id_and_applies_both_gates() {
        let index = index_of(&[
            cand(3, 64, None),
            cand(0, 1, None),     // too little memory
            cand(2, 64, Some(2)), // too few vCPUs
            cand(1, 64, Some(8)),
        ]);
        let mut buf = Vec::new();
        let stats = index.gather_into(&mut buf, gib(32), 4);
        let ids: Vec<u32> = buf.iter().map(|c| c.id.0).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(stats.live, 4);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.gate_skipped(), 2);
    }

    #[test]
    fn upsert_refreshes_the_admission_key() {
        let mut index = index_of(&[cand(0, 64, None)]);
        let mut buf = Vec::new();
        assert_eq!(index.gather_into(&mut buf, gib(32), 1).admitted, 1);
        // The PM fills up: same slot, new key — the old headroom must
        // not linger.
        let (c, k) = cand(0, 2, None);
        index.upsert(c, k);
        assert_eq!(index.live_len(), 1);
        assert_eq!(index.gather_into(&mut buf, gib(32), 1).admitted, 0);
        assert_eq!(index.gather_into(&mut buf, gib(1), 1).admitted, 1);
    }

    #[test]
    fn retire_and_reupsert_roundtrip() {
        let mut index = index_of(&[cand(0, 64, None), cand(1, 64, None)]);
        assert!(index.retire(PmId(0)));
        assert!(!index.retire(PmId(0)), "retire is idempotent");
        assert!(!index.retire(PmId(9)), "unknown PMs retire to nothing");
        assert_eq!(index.live_len(), 1);
        let mut buf = Vec::new();
        let stats = index.gather_into(&mut buf, 0, 0);
        assert_eq!(stats.admitted, 1);
        assert_eq!(buf[0].id, PmId(1));
        assert!(index.get(PmId(0)).is_none());
        // Repair: the PM is upserted back and queries see it again.
        let (c, k) = cand(0, 64, None);
        index.upsert(c, k);
        assert_eq!(index.gather_into(&mut buf, 0, 0).admitted, 2);
    }

    #[test]
    fn first_admitted_takes_lowest_feasible_id() {
        let index = index_of(&[cand(2, 64, None), cand(0, 1, None), cand(1, 64, None)]);
        // PM 0 fails the gate; PM 1 is vetoed by the authoritative
        // check; PM 2 wins.
        let picked = index.first_admitted(gib(16), 1, |c| c.id != PmId(1));
        assert_eq!(picked, Some(PmId(2)));
        assert_eq!(index.first_admitted(gib(512), 1, |_| true), None);
    }

    /// SplitMix64 — the test's own generator, so the sequence is the
    /// same under every harness.
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// A value of a uniformly drawn bit-width in `0..=max_bits`, so
        /// needs and headrooms meet at every magnitude.
        fn of_random_width(&mut self, max_bits: u32) -> u64 {
            match self.below(u64::from(max_bits) + 1) {
                0 => 0,
                bits => (1 << (bits - 1)) | self.below(1 << (bits - 1)),
            }
        }
    }

    #[test]
    fn seeded_mutations_agree_with_a_shadow_filter_at_every_step() {
        const PMS: u64 = 200;
        const STEPS: usize = 2_500;
        // Per PM: the key, whether it is live, and the step that last
        // upserted it (carried in `Candidate::vms`, so a stale cached
        // candidate is caught too).
        let mut shadow: Vec<Option<(AdmissionKey, bool, usize)>> = vec![None; PMS as usize];
        let mut index = CandidateIndex::new();
        let mut rng = SplitMix64(0x51AC_C0DE);
        let mut buf = Vec::new();
        let (mut retired_then_back, mut nonempty_gathers) = (0, 0);
        for step in 1..=STEPS {
            let pm = rng.below(PMS) as usize;
            if rng.below(4) == 0 {
                let was_live = shadow[pm].is_some_and(|(_, live, _)| live);
                assert_eq!(index.retire(PmId(pm as u32)), was_live, "step {step}");
                if let Some(entry) = &mut shadow[pm] {
                    entry.1 = false;
                }
            } else {
                let key = AdmissionKey {
                    free_mem_mib: rng.of_random_width(40),
                    free_vcpus: (rng.below(3) != 0).then(|| rng.below(65) as u32),
                };
                let (mut candidate, _) = cand(pm as u32, 1, None);
                candidate.vms = step;
                index.upsert(candidate, key);
                if shadow[pm].is_some_and(|(_, live, _)| !live) {
                    retired_then_back += 1;
                }
                shadow[pm] = Some((key, true, step));
            }

            let need_mem = rng.of_random_width(41);
            let need_vcpus = rng.below(66) as u32;
            let expect: Vec<(u32, usize)> = shadow
                .iter()
                .enumerate()
                .filter_map(|(id, entry)| {
                    let (key, live, stamp) = (*entry)?;
                    (live
                        && key.free_mem_mib >= need_mem
                        && key.free_vcpus.is_none_or(|free| free >= need_vcpus))
                    .then_some((id as u32, stamp))
                })
                .collect();
            let live = shadow.iter().flatten().filter(|(_, live, _)| *live).count();

            let stats = index.gather_into(&mut buf, need_mem, need_vcpus);
            let got: Vec<(u32, usize)> = buf.iter().map(|c| (c.id.0, c.vms)).collect();
            assert_eq!(
                got, expect,
                "step {step}: need {need_mem} MiB / {need_vcpus}"
            );
            assert_eq!(
                stats,
                GatherStats {
                    live,
                    admitted: expect.len()
                }
            );
            assert_eq!(stats.gate_skipped(), live - expect.len());
            assert_eq!(index.live_len(), live);
            nonempty_gathers += usize::from(!expect.is_empty());

            let (modulus, residue) = (1 + rng.below(4) as u32, rng.below(4) as u32);
            let allowed = |id: u32| id % modulus != residue % modulus;
            assert_eq!(
                index.first_admitted(need_mem, need_vcpus, |c| allowed(c.id.0)),
                expect
                    .iter()
                    .map(|&(id, _)| id)
                    .filter(|&id| allowed(id))
                    .min()
                    .map(PmId),
                "step {step}"
            );
        }
        // The sequence exercised what it claims to.
        assert!(retired_then_back > 50, "{retired_then_back} re-upserts");
        assert!(nonempty_gathers > STEPS / 2 && nonempty_gathers < STEPS);
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(IndexMode::parse("naive"), Some(IndexMode::Naive));
        assert_eq!(
            IndexMode::parse("incremental"),
            Some(IndexMode::Incremental)
        );
        assert_eq!(IndexMode::parse("bogus"), None);
        assert_eq!(IndexMode::default().name(), "incremental");
    }
}
