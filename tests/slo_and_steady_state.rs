//! End-to-end: SLO attainment and steady-state analysis through the
//! public API.

use std::collections::BTreeMap;
use std::sync::Arc;

use slackvm::perf::{Slo, SloPolicy};
use slackvm::prelude::*;
use slackvm::sim::analyze_steady_state;
use slackvm_suite::test_workload;

#[test]
fn tiered_slo_policy_judges_the_fig2_run() {
    let out = Fig2Scenario {
        step_secs: 1200,
        ..Fig2Scenario::default()
    }
    .run();
    // A tiered policy scaled off the premium baseline with generous
    // slack: every tier's SlackVM median p90 passes.
    let levels = [
        OversubLevel::of(1),
        OversubLevel::of(2),
        OversubLevel::of(3),
    ];
    let policy = SloPolicy::scaled(out.levels[0].baseline_ms, 6.0, levels);
    for row in &out.levels {
        let slo = policy.get(row.level).expect("declared tier");
        assert!(
            row.slackvm_ms <= slo.threshold_ms,
            "{}: {:.2} ms vs SLO {:.2} ms",
            row.level,
            row.slackvm_ms,
            slo.threshold_ms
        );
    }
    // A flat premium-grade SLO applied to every tier fails on 3:1 under
    // co-hosting — the quantitative form of "oversubscribed tiers are
    // less prone to enforcing strict SLOs".
    let strict = Slo::new(out.levels[0].baseline_ms * 1.5, 0.9);
    assert!(
        out.levels[2].slackvm_ms > strict.threshold_ms,
        "3:1 co-hosted should violate a premium-grade SLO"
    );
}

#[test]
fn slo_attainment_report_over_synthetic_series() {
    let mut samples: BTreeMap<VmId, (OversubLevel, Vec<f64>)> = BTreeMap::new();
    // Premium VMs: tight latencies. 3:1 VMs: one meets, one violates.
    samples.insert(VmId(0), (OversubLevel::of(1), vec![1.0; 50]));
    samples.insert(VmId(1), (OversubLevel::of(1), vec![1.1; 50]));
    samples.insert(VmId(2), (OversubLevel::of(3), vec![3.0; 50]));
    let mut bad = vec![3.0; 30];
    bad.extend(vec![50.0; 20]);
    samples.insert(VmId(3), (OversubLevel::of(3), bad));
    let policy = SloPolicy::scaled(1.5, 1.0, [OversubLevel::of(1), OversubLevel::of(3)]);
    let report = policy.attainment(&samples);
    assert_eq!(report.rows.len(), 2);
    assert_eq!(report.rows[0].met, 2);
    assert_eq!(report.rows[1].met, 1);
    assert!(!report.all_met());
}

#[test]
fn steady_state_of_a_real_replay_is_sane_for_both_models() {
    let w = test_workload(
        catalog::ovhcloud(),
        LevelMix::three_level(50.0, 0.0, 50.0).unwrap(),
        120,
        6,
        17,
    );
    let mut results = Vec::new();
    for shared in [false, true] {
        let mut model = if shared {
            DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128)))
        } else {
            DeploymentModel::Dedicated(DedicatedDeployment::new(
                PmConfig::simulation_host(),
                vec![OversubLevel::of(1), OversubLevel::of(3)],
            ))
        };
        let mut samples = Vec::new();
        run_packing_with(
            &w,
            &mut model,
            RunOptions {
                samples: Some(&mut samples),
                ..RunOptions::default()
            },
            &mut NullRecorder,
        );
        let steady = analyze_steady_state(&samples).expect("long enough");
        // The ramp from the empty cluster is detected...
        assert!(steady.warmup_samples > 0);
        // ...and the steady population sits near the 120-VM target.
        assert!(
            (90.0..160.0).contains(&steady.mean_population),
            "steady population {}",
            steady.mean_population
        );
        results.push(steady);
    }
    // The shared pool strands less in steady state on this
    // complementary mix.
    let (dedicated, shared) = (&results[0], &results[1]);
    let total =
        |s: &slackvm::sim::SteadyStateSummary| s.mean_unallocated_cpu + s.mean_unallocated_mem;
    assert!(
        total(shared) < total(dedicated) + 1e-9,
        "shared {:.3} vs dedicated {:.3}",
        total(shared),
        total(dedicated)
    );
}
