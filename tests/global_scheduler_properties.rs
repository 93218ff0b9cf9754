//! Property-based tests of the global scheduler: placement policies
//! and scorers.

use proptest::prelude::*;

use slackvm::prelude::*;

fn candidate_strategy() -> impl Strategy<Value = Candidate> {
    (0u32..64, 0u32..=32, 0u64..=128, 0usize..40).prop_map(|(id, cores, mem, vms)| Candidate {
        id: PmId(id),
        config: PmConfig::simulation_host(),
        alloc: AllocView::new(Millicores::from_cores(cores), gib(mem)),
        vms,
    })
}

fn vm_strategy() -> impl Strategy<Value = VmSpec> {
    (1u32..16, 1u64..64, 1u32..=3)
        .prop_map(|(vcpus, mem, level)| VmSpec::of(vcpus, gib(mem), OversubLevel::of(level)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn selected_pm_is_always_a_candidate(
        cands in prop::collection::vec(candidate_strategy(), 0..20),
        vm in vm_strategy(),
    ) {
        for policy in [
            PlacementPolicy::FirstFit,
            PlacementPolicy::scored(ProgressScorer::paper()),
            PlacementPolicy::scored(BestFitScorer),
            PlacementPolicy::scored(WorstFitScorer),
            PlacementPolicy::scored(DotProductScorer),
            PlacementPolicy::scored(NormBasedGreedyScorer),
            PlacementPolicy::scored(CompositeScorer::progress_with_consolidation(0.15)),
            PlacementPolicy::weighted(vec![
                (1.0, Box::new(ProgressScorer::paper())),
                (0.5, Box::new(BestFitScorer)),
            ]),
        ] {
            match policy.select(&cands, &vm) {
                Some(pm) => prop_assert!(cands.iter().any(|c| c.id == pm)),
                None => prop_assert!(cands.is_empty()),
            }
        }
    }

    #[test]
    fn first_fit_is_minimum_id(
        cands in prop::collection::vec(candidate_strategy(), 1..20),
        vm in vm_strategy(),
    ) {
        let expected = cands.iter().map(|c| c.id).min();
        prop_assert_eq!(PlacementPolicy::FirstFit.select(&cands, &vm), expected);
    }

    #[test]
    fn every_scorer_is_finite(
        cand in candidate_strategy(),
        vm in vm_strategy(),
    ) {
        let scorers: Vec<Box<dyn Scorer>> = vec![
            Box::new(ProgressScorer::paper()),
            Box::new(BestFitScorer),
            Box::new(WorstFitScorer),
            Box::new(DotProductScorer),
            Box::new(NormBasedGreedyScorer),
            Box::new(CompositeScorer::progress_with_consolidation(0.15)),
        ];
        for s in scorers {
            let score = s.score(&cand.config, &cand.alloc, &vm);
            prop_assert!(score.is_finite(), "{} produced {score}", s.name());
        }
    }

    #[test]
    fn scored_selection_is_permutation_invariant(
        mut cands in prop::collection::vec(candidate_strategy(), 1..12),
        vm in vm_strategy(),
    ) {
        // Distinct ids required for a well-defined winner.
        cands.sort_by_key(|c| c.id);
        cands.dedup_by_key(|c| c.id);
        let policy = PlacementPolicy::scored(ProgressScorer::paper());
        let sorted = policy.select(&cands, &vm);
        cands.reverse();
        let reversed = policy.select(&cands, &vm);
        prop_assert_eq!(sorted, reversed);
    }

    #[test]
    fn selection_is_permutation_invariant_even_with_nan_scores(
        mut cands in prop::collection::vec(candidate_strategy(), 1..12),
        vm in vm_strategy(),
        nan_mask in prop::collection::vec(any::<bool>(), 12),
    ) {
        // A scorer that emits NaN for a subset of candidates. Before
        // selection ordering went total, one NaN poisoned `max_by`
        // (`partial_cmp(..).unwrap_or(Equal)`) and the winner depended
        // on iteration order; this property fails on that revert.
        struct NanFor(std::collections::BTreeSet<u32>);
        impl Scorer for NanFor {
            fn score(&self, _: &PmConfig, alloc: &AllocView, _: &VmSpec) -> f64 {
                let key = (alloc.mem_mib / gib(1)) as u32;
                if self.0.contains(&key) {
                    f64::NAN
                } else {
                    -(alloc.mem_mib as f64) // best-fit-ish real score
                }
            }
            fn name(&self) -> &'static str {
                "nan-for"
            }
        }
        cands.sort_by_key(|c| c.id);
        cands.dedup_by_key(|c| c.id);
        let poisoned: std::collections::BTreeSet<u32> = cands
            .iter()
            .zip(&nan_mask)
            .filter(|(_, &nan)| nan)
            .map(|(c, _)| (c.alloc.mem_mib / gib(1)) as u32)
            .collect();
        for policy in [
            PlacementPolicy::scored(NanFor(poisoned.clone())),
            PlacementPolicy::weighted(vec![
                (1.0, Box::new(NanFor(poisoned.clone()))),
                (0.25, Box::new(BestFitScorer)),
            ]),
        ] {
            let baseline = policy.select(&cands, &vm);
            // Every rotation and the reversal must agree.
            for rot in 0..cands.len() {
                let mut perm = cands.clone();
                perm.rotate_left(rot);
                prop_assert_eq!(policy.select(&perm, &vm), baseline);
            }
            let mut rev = cands.clone();
            rev.reverse();
            prop_assert_eq!(policy.select(&rev, &vm), baseline);
        }
        // A NaN score never wins while any candidate scored a real
        // number (NaN ranks lowest by contract). Checked on the plain
        // scored policy only: the weighted policy may legitimately skip
        // a negligible-span component, NaNs and all.
        let scored = PlacementPolicy::scored(NanFor(poisoned.clone()));
        if let Some(pm) = scored.select(&cands, &vm) {
            let is_poisoned = |c: &Candidate| poisoned.contains(&((c.alloc.mem_mib / gib(1)) as u32));
            let winner_nan = cands.iter().find(|c| c.id == pm).map(|c| is_poisoned(c)).unwrap_or(false);
            if cands.iter().any(|c| !is_poisoned(c)) {
                prop_assert!(!winner_nan, "NaN-scored {pm} beat a real score");
            }
        }
    }

    #[test]
    fn composite_score_is_linear_in_weights(
        cand in candidate_strategy(),
        vm in vm_strategy(),
        w in 0.0f64..10.0,
    ) {
        let single = BestFitScorer.score(&cand.config, &cand.alloc, &vm);
        let composite = CompositeScorer::new(
            "w-bestfit",
            vec![(w, Box::new(BestFitScorer))],
        );
        let got = composite.score(&cand.config, &cand.alloc, &vm);
        prop_assert!((got - w * single).abs() < 1e-9 * (1.0 + got.abs()));
    }
}

#[test]
fn progress_scorer_beats_first_fit_on_a_constructed_complementarity_case() {
    // PM 0 is memory-saturated but CPU-rich (hosting 3:1 VMs); PM 1 is
    // fresh. First-Fit sends a CPU-heavy premium VM to PM 0 (it fits),
    // wasting the fresh PM's balance; the progress scorer sends it to
    // PM 0 as well *only if* that improves the ratio — here it does
    // (PM 0 ratio 6 > target 4, a CPU-heavy VM pulls it down).
    let cands = vec![
        Candidate {
            id: PmId(0),
            config: PmConfig::simulation_host(),
            alloc: AllocView::new(Millicores::from_cores(16), gib(96)), // ratio 6
            vms: 10,
        },
        Candidate {
            id: PmId(1),
            config: PmConfig::simulation_host(),
            alloc: AllocView::new(Millicores::from_cores(8), gib(32)), // ratio 4
            vms: 4,
        },
    ];
    let cpu_heavy = VmSpec::of(8, gib(8), OversubLevel::PREMIUM); // ratio 1
    let progress = PlacementPolicy::scored(ProgressScorer::paper());
    assert_eq!(progress.select(&cands, &cpu_heavy), Some(PmId(0)));
    // A strongly memory-heavy VM also lands on PM 0 — counterintuitive
    // but exactly Algorithm 2: PM 0 is already far from its target, so
    // the *marginal* degradation (|6.59−4| − |6−4| ≈ 0.59, load-scaled)
    // is smaller than knocking the balanced PM 1 off its target
    // (|5.33−4| ≈ 1.33). The algorithm concentrates unavoidable
    // imbalance where imbalance already lives.
    let mem_heavy = VmSpec::of(1, gib(16), OversubLevel::PREMIUM); // ratio 16
    assert_eq!(progress.select(&cands, &mem_heavy), Some(PmId(0)));
    // A *moderately* memory-heavy VM (ratio 6 < PM 0's ratio... equal,
    // keeps PM 0 at 6) scores 0 there but negative on PM 1: PM 0 again.
    // The preference flips only when the VM would rebalance PM 1 —
    // i.e. a VM slightly CPU-side of PM 1's ratio with PM 0 saturated
    // in CPU terms is steered by the load factor:
    let slightly_cpu = VmSpec::of(4, gib(12), OversubLevel::PREMIUM); // ratio 3
                                                                      // PM 0: next (96+12)/20 = 5.4, Δ 2->1.4: +0.6. PM 1: next 44/12 ≈
                                                                      // 3.67, Δ 0->0.33: −0.33·factor. PM 0 wins on genuine progress.
    assert_eq!(progress.select(&cands, &slightly_cpu), Some(PmId(0)));
}
