//! Candidate views and the placement policies that choose among them.

use slackvm_model::{AllocView, PmConfig, PmId, VmSpec};
use slackvm_telemetry::Recorder;

use crate::scorers::Scorer;

/// A PM presented to a placement policy: the information a cloud
/// control plane gathers from each local scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// The PM's id.
    pub id: PmId,
    /// Its hardware configuration.
    pub config: PmConfig,
    /// Its current allocation.
    pub alloc: AllocView,
    /// Number of VMs it currently hosts.
    pub vms: usize,
}

/// Total order on scores with NaN ranking *lowest*: a scorer that
/// emits NaN (e.g. a 0/0 in a ratio) can never win a placement, and —
/// unlike `partial_cmp(..).unwrap_or(Equal)` — the comparison stays a
/// real total order, so the winner is independent of candidate
/// iteration order.
///
/// `f64::total_cmp` alone would rank positive NaN *above* +∞; this
/// helper pins both NaN payloads below every real score instead.
fn score_order(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        (false, false) => a.total_cmp(&b),
    }
}

/// How to pick one PM among filtered candidates.
pub enum PlacementPolicy {
    /// Lowest PM id that fits — the packing-efficiency baseline the paper
    /// evaluates against ("fills existing servers before considering new
    /// ones", §VII-B).
    FirstFit,
    /// Highest score wins; ties go to the lowest PM id, which preserves
    /// First-Fit's consolidation bias among equals. NaN scores rank
    /// lowest, so a NaN-emitting scorer can never steer placement and
    /// the winner never depends on candidate iteration order.
    Scored(Box<dyn Scorer>),
    /// OpenStack-weigher-style selection: each scorer's outputs are
    /// min–max normalized to `[0, 1]` *across the candidate set* before
    /// the weighted sum — so weights express relative importance
    /// independently of each scorer's natural scale (the way Nova
    /// combines its weighers, paper ref. [41]).
    WeightedNormalized(Vec<(f64, Box<dyn Scorer>)>),
}

/// The policy names [`PlacementPolicy::by_name`] accepts, in the order
/// they should be listed in error messages and `--help` text.
pub const POLICY_NAMES: &[&str] = &[
    "first-fit",
    "progress",
    "progress+bestfit",
    "best-fit",
    "worst-fit",
    "dot-product",
    "norm-greedy",
];

impl PlacementPolicy {
    /// A score-based policy from any scorer.
    pub fn scored(scorer: impl Scorer + 'static) -> Self {
        PlacementPolicy::Scored(Box::new(scorer))
    }

    /// Builds a policy from its report label — the single registry
    /// behind every `--policy` flag (replay, serve, bombard), so the
    /// accepted names and the labels printed in reports never drift
    /// apart. Returns `None` for an unknown name; see [`POLICY_NAMES`].
    pub fn by_name(name: &str) -> Option<Self> {
        use crate::scorers::{
            BestFitScorer, CompositeScorer, DotProductScorer, NormBasedGreedyScorer,
            ProgressScorer, WorstFitScorer, DEFAULT_CONSOLIDATION_WEIGHT,
        };
        match name {
            "first-fit" => Some(PlacementPolicy::FirstFit),
            "progress" => Some(PlacementPolicy::scored(ProgressScorer::paper())),
            "progress+bestfit" => Some(PlacementPolicy::scored(
                CompositeScorer::progress_with_consolidation(DEFAULT_CONSOLIDATION_WEIGHT),
            )),
            "best-fit" => Some(PlacementPolicy::scored(BestFitScorer)),
            "worst-fit" => Some(PlacementPolicy::scored(WorstFitScorer)),
            "dot-product" => Some(PlacementPolicy::scored(DotProductScorer)),
            "norm-greedy" => Some(PlacementPolicy::scored(NormBasedGreedyScorer)),
            _ => None,
        }
    }

    /// A normalized multi-weigher policy.
    pub fn weighted(parts: Vec<(f64, Box<dyn Scorer>)>) -> Self {
        PlacementPolicy::WeightedNormalized(parts)
    }

    /// Policy label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::FirstFit => "first-fit",
            PlacementPolicy::Scored(s) => s.name(),
            PlacementPolicy::WeightedNormalized(_) => "weighted-normalized",
        }
    }

    /// Picks the target PM for `vm` among `candidates` (all of which
    /// satisfy the hard constraints). Returns `None` when the slice is
    /// empty.
    pub fn select(&self, candidates: &[Candidate], vm: &VmSpec) -> Option<PmId> {
        match self {
            PlacementPolicy::FirstFit => candidates.iter().map(|c| c.id).min(),
            PlacementPolicy::Scored(scorer) => candidates
                .iter()
                .map(|c| (c.id, scorer.score(&c.config, &c.alloc, vm)))
                // max_by on (score, Reverse(id)): highest score, lowest
                // id; NaN scores rank lowest (see `score_order`).
                .max_by(|(ida, sa), (idb, sb)| score_order(*sa, *sb).then(idb.cmp(ida)))
                .map(|(id, _)| id),
            PlacementPolicy::WeightedNormalized(parts) => {
                if candidates.is_empty() {
                    return None;
                }
                let mut totals = vec![0.0f64; candidates.len()];
                for (weight, scorer) in parts {
                    let raw: Vec<f64> = candidates
                        .iter()
                        .map(|c| scorer.score(&c.config, &c.alloc, vm))
                        .collect();
                    let lo = raw.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let span = hi - lo;
                    // Relative tolerance: an absolute epsilon would
                    // misread a constant large-magnitude scorer (ULP
                    // jitter near 1e9 dwarfs f64::EPSILON) as varying,
                    // and zero out legitimate tiny spans near 0.
                    let negligible = span <= hi.abs().max(lo.abs()) * 1e-12;
                    for (total, value) in totals.iter_mut().zip(&raw) {
                        // A constant scorer contributes nothing (every
                        // candidate would normalize identically anyway).
                        // NaN raw scores poison only their own
                        // candidate's total, which then ranks lowest.
                        if !negligible {
                            *total += weight * (value - lo) / span;
                        }
                    }
                }
                candidates
                    .iter()
                    .zip(&totals)
                    .max_by(|(ca, sa), (cb, sb)| score_order(**sa, **sb).then(cb.id.cmp(&ca.id)))
                    .map(|(c, _)| c.id)
            }
        }
    }

    /// [`PlacementPolicy::select`] with span timing and candidate
    /// accounting around the scoring loop.
    ///
    /// With a disabled recorder (e.g. `NullRecorder`) this is exactly
    /// `select`: `begin` returns `None` without reading the clock, the
    /// `enabled()` guard skips the counters, and nothing allocates.
    pub fn select_recorded<R: Recorder>(
        &self,
        candidates: &[Candidate],
        vm: &VmSpec,
        recorder: &mut R,
    ) -> Option<PmId> {
        let span = recorder.begin("sched.select");
        let picked = self.select(candidates, vm);
        recorder.end(span);
        if recorder.enabled() {
            recorder.count("sched.selections", 1);
            recorder.count("sched.candidates_scored", candidates.len() as u64);
            if picked.is_none() {
                recorder.count("sched.no_candidate", 1);
            }
        }
        picked
    }
}

impl std::fmt::Debug for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PlacementPolicy::{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorers::{BestFitScorer, ProgressScorer};
    use slackvm_model::{gib, Millicores, OversubLevel};

    fn cand(id: u32, cores: u32, mem_gib: u64) -> Candidate {
        Candidate {
            id: PmId(id),
            config: PmConfig::simulation_host(),
            alloc: AllocView::new(Millicores::from_cores(cores), gib(mem_gib)),
            vms: 1,
        }
    }

    fn vm(vcpus: u32, mem_gib: u64) -> VmSpec {
        VmSpec::of(vcpus, gib(mem_gib), OversubLevel::PREMIUM)
    }

    #[test]
    fn first_fit_takes_lowest_id() {
        let policy = PlacementPolicy::FirstFit;
        let cands = vec![cand(7, 0, 0), cand(2, 30, 120), cand(5, 1, 1)];
        assert_eq!(policy.select(&cands, &vm(1, 1)), Some(PmId(2)));
        assert_eq!(policy.select(&[], &vm(1, 1)), None);
    }

    #[test]
    fn scored_takes_highest_score() {
        let policy = PlacementPolicy::scored(BestFitScorer);
        // Best-fit: the fuller PM (id 9) wins over the emptier (id 1).
        let cands = vec![cand(1, 2, 8), cand(9, 28, 112)];
        assert_eq!(policy.select(&cands, &vm(1, 4)), Some(PmId(9)));
    }

    #[test]
    fn score_ties_break_to_lowest_id() {
        let policy = PlacementPolicy::scored(BestFitScorer);
        let cands = vec![cand(4, 8, 32), cand(3, 8, 32), cand(6, 8, 32)];
        assert_eq!(policy.select(&cands, &vm(1, 4)), Some(PmId(3)));
    }

    #[test]
    fn progress_policy_prefers_complementary_pm() {
        let policy = PlacementPolicy::scored(ProgressScorer::paper());
        // PM 0: CPU-heavy (ratio 1); PM 1: memory-heavy (ratio 8). A
        // memory-heavy VM (ratio 8) should land on the CPU-heavy PM 0.
        let cands = vec![cand(0, 8, 8), cand(1, 4, 32)];
        assert_eq!(policy.select(&cands, &vm(1, 8)), Some(PmId(0)));
        // ... and a CPU-heavy VM (ratio 1) on the memory-heavy PM 1.
        assert_eq!(policy.select(&cands, &vm(4, 4)), Some(PmId(1)));
    }

    #[test]
    fn names() {
        assert_eq!(PlacementPolicy::FirstFit.name(), "first-fit");
        assert_eq!(
            PlacementPolicy::scored(ProgressScorer::paper()).name(),
            "progress"
        );
    }

    #[test]
    fn by_name_round_trips_every_registered_policy() {
        for name in POLICY_NAMES {
            let policy = PlacementPolicy::by_name(name)
                .unwrap_or_else(|| panic!("{name} is registered but not constructible"));
            assert_eq!(policy.name(), *name, "label drifted for {name}");
        }
        assert!(PlacementPolicy::by_name("round-robin").is_none());
        assert!(PlacementPolicy::by_name("").is_none());
        assert!(
            PlacementPolicy::by_name("First-Fit").is_none(),
            "names are case-sensitive identifiers"
        );
    }

    #[test]
    fn weighted_normalized_balances_scales() {
        use crate::scorers::{BestFitScorer, ProgressScorer};
        // Progress scores live in GiB/core units (can be ±4); best-fit
        // scores in [-2, 0]. Normalization makes a 1:1 weighting
        // meaningful.
        let policy = PlacementPolicy::weighted(vec![
            (1.0, Box::new(ProgressScorer::paper())),
            (1.0, Box::new(BestFitScorer)),
        ]);
        assert_eq!(policy.name(), "weighted-normalized");
        // PM 5: CPU-heavy and nearly empty; PM 6: balanced and fuller.
        // Progress prefers 5 for a memory-heavy VM, best-fit prefers 6;
        // the tie of normalized winners (1.0 + 0.0 vs 0.0 + 1.0) breaks
        // to the lowest id.
        let cands = vec![cand(5, 4, 4), cand(6, 16, 64)];
        let vm_mem = VmSpec::of(1, gib(8), OversubLevel::PREMIUM);
        assert_eq!(policy.select(&cands, &vm_mem), Some(PmId(5)));
        // Doubling the consolidation weight flips the decision.
        let policy = PlacementPolicy::weighted(vec![
            (1.0, Box::new(ProgressScorer::paper())),
            (3.0, Box::new(BestFitScorer)),
        ]);
        assert_eq!(policy.select(&cands, &vm_mem), Some(PmId(6)));
    }

    #[test]
    fn weighted_normalized_edge_cases() {
        use crate::scorers::BestFitScorer;
        let policy = PlacementPolicy::weighted(vec![(1.0, Box::new(BestFitScorer))]);
        assert_eq!(policy.select(&[], &vm(1, 1)), None);
        // Single candidate: picked regardless of score.
        let one = vec![cand(9, 0, 0)];
        assert_eq!(policy.select(&one, &vm(1, 1)), Some(PmId(9)));
        // Identical candidates (constant scores): lowest id wins.
        let same = vec![cand(4, 8, 32), cand(2, 8, 32), cand(7, 8, 32)];
        assert_eq!(policy.select(&same, &vm(1, 1)), Some(PmId(2)));
    }

    /// Every rotation of the candidate slice must yield the same winner.
    fn assert_permutation_invariant(policy: &PlacementPolicy, cands: &[Candidate], spec: &VmSpec) {
        let baseline = policy.select(cands, spec);
        let mut rotated = cands.to_vec();
        for _ in 0..cands.len() {
            rotated.rotate_left(1);
            assert_eq!(
                policy.select(&rotated, spec),
                baseline,
                "selection changed under permutation"
            );
        }
        let mut reversed = cands.to_vec();
        reversed.reverse();
        assert_eq!(policy.select(&reversed, spec), baseline);
    }

    #[test]
    fn nan_scores_rank_lowest_under_any_order() {
        // Poisoned PMs carry mem allocations in the poison list.
        struct MemNan;
        impl crate::scorers::Scorer for MemNan {
            fn name(&self) -> &'static str {
                "mem-nan"
            }
            fn score(&self, _c: &PmConfig, alloc: &AllocView, _v: &VmSpec) -> f64 {
                if alloc.mem_mib == gib(13) {
                    f64::NAN
                } else {
                    -(alloc.mem_mib as f64)
                }
            }
        }
        let policy = PlacementPolicy::scored(MemNan);
        // PM 8 is poisoned (NaN); the best real score is PM 5 (least
        // mem used). Under the old partial_cmp(..).unwrap_or(Equal)
        // comparator the answer depended on which side of the NaN the
        // max_by scan was on.
        let cands = vec![cand(8, 4, 13), cand(2, 4, 40), cand(5, 4, 20)];
        assert_eq!(policy.select(&cands, &vm(1, 1)), Some(PmId(5)));
        assert_permutation_invariant(&policy, &cands, &vm(1, 1));
        // All-NaN: still deterministic — lowest id wins the tie.
        let all_nan = vec![cand(8, 4, 13), cand(3, 2, 13), cand(6, 1, 13)];
        assert_eq!(policy.select(&all_nan, &vm(1, 1)), Some(PmId(3)));
        assert_permutation_invariant(&policy, &all_nan, &vm(1, 1));
        // Weighted-normalized with a NaN-poisoned component behaves the
        // same way: the poisoned candidate's total is NaN, ranks lowest.
        let weighted = PlacementPolicy::weighted(vec![
            (1.0, Box::new(MemNan)),
            (0.5, Box::new(BestFitScorer)),
        ]);
        assert_eq!(weighted.select(&cands, &vm(1, 1)), Some(PmId(5)));
        assert_permutation_invariant(&weighted, &cands, &vm(1, 1));
    }

    #[test]
    fn nan_never_beats_a_real_score_even_negative_infinity() {
        struct Inf;
        impl crate::scorers::Scorer for Inf {
            fn name(&self) -> &'static str {
                "inf"
            }
            fn score(&self, _c: &PmConfig, alloc: &AllocView, _v: &VmSpec) -> f64 {
                if alloc.mem_mib == gib(13) {
                    f64::NAN
                } else {
                    f64::NEG_INFINITY
                }
            }
        }
        let policy = PlacementPolicy::scored(Inf);
        let cands = vec![cand(1, 4, 13), cand(7, 4, 40)];
        // -inf is a real score and must outrank NaN (total_cmp alone
        // would let positive NaN beat it).
        assert_eq!(policy.select(&cands, &vm(1, 1)), Some(PmId(7)));
        assert_permutation_invariant(&policy, &cands, &vm(1, 1));
    }

    #[test]
    fn weighted_constant_large_magnitude_scorer_contributes_nothing() {
        struct Huge;
        impl crate::scorers::Scorer for Huge {
            fn name(&self) -> &'static str {
                "huge"
            }
            fn score(&self, _c: &PmConfig, _a: &AllocView, _v: &VmSpec) -> f64 {
                // Constant up to one ULP of jitter — far above
                // f64::EPSILON in absolute terms.
                1.0e9 + f64::EPSILON * 1.0e9
            }
        }
        // Alone, the constant scorer must not differentiate: lowest id
        // wins among distinct candidates.
        let policy = PlacementPolicy::weighted(vec![(1.0, Box::new(Huge))]);
        let cands = vec![cand(4, 8, 32), cand(2, 2, 8), cand(7, 28, 112)];
        assert_eq!(policy.select(&cands, &vm(1, 1)), Some(PmId(2)));
        // Paired with a real scorer, the constant must not drown it out.
        let policy =
            PlacementPolicy::weighted(vec![(10.0, Box::new(Huge)), (1.0, Box::new(BestFitScorer))]);
        // Best-fit prefers the fullest PM that still fits: id 7.
        assert_eq!(policy.select(&cands, &vm(1, 4)), Some(PmId(7)));
    }

    #[test]
    fn weighted_tiny_span_still_differentiates() {
        struct Tiny;
        impl crate::scorers::Scorer for Tiny {
            fn name(&self) -> &'static str {
                "tiny"
            }
            fn score(&self, _c: &PmConfig, alloc: &AllocView, _v: &VmSpec) -> f64 {
                // Legitimate spread of ~1e-16 around zero — below
                // f64::EPSILON but meaningful relative to the scale.
                alloc.mem_mib as f64 * 1.0e-21
            }
        }
        let policy = PlacementPolicy::weighted(vec![(1.0, Box::new(Tiny))]);
        let cands = vec![cand(1, 2, 8), cand(9, 28, 112)];
        // Higher mem -> higher tiny score: PM 9 must win, which the old
        // absolute-epsilon guard zeroed out (falling back to lowest id).
        assert_eq!(policy.select(&cands, &vm(1, 1)), Some(PmId(9)));
    }

    #[test]
    fn recorded_select_matches_plain_and_counts() {
        use slackvm_telemetry::{NullRecorder, Recorder as _, Telemetry};
        let policy = PlacementPolicy::scored(BestFitScorer);
        let cands = vec![cand(1, 2, 8), cand(9, 28, 112)];
        let spec = vm(1, 4);
        let mut telemetry = Telemetry::new();
        let recorded = policy.select_recorded(&cands, &spec, &mut telemetry);
        assert_eq!(recorded, policy.select(&cands, &spec));
        assert_eq!(telemetry.metrics.counter("sched.selections"), 1);
        assert_eq!(telemetry.metrics.counter("sched.candidates_scored"), 2);
        assert_eq!(telemetry.metrics.counter("sched.no_candidate"), 0);
        assert_eq!(telemetry.trace.len(), 1);
        assert_eq!(telemetry.trace.spans()[0].name, "sched.select");
        // Empty candidate set: the miss is counted.
        policy.select_recorded(&[], &spec, &mut telemetry);
        assert_eq!(telemetry.metrics.counter("sched.no_candidate"), 1);
        // The null recorder changes nothing about the decision.
        let mut null = NullRecorder;
        assert!(!null.enabled());
        assert_eq!(policy.select_recorded(&cands, &spec, &mut null), recorded);
    }
}
