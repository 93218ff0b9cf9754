//! The simulation observatory end to end: an observed replay samples a
//! deterministic multi-series trajectory, the Prometheus exposition of
//! the same run passes the strict validator, and the self-profiling
//! digest surfaces the scheduler hot path.

use std::sync::Arc;

use slackvm::prelude::*;
use slackvm::telemetry::prometheus;
use slackvm::workload::scenarios;

fn week_scenario() -> Workload {
    scenarios::all(150)
        .into_iter()
        .find(|s| s.name == "paper-week-f")
        .expect("canned scenario")
        .generate(0x5AC4)
}

fn shared_pool() -> DeploymentModel {
    DeploymentModel::Shared(SharedDeployment::new(Arc::new(flat(32)), gib(128)))
}

fn dedicated_pool() -> DeploymentModel {
    DeploymentModel::Dedicated(DedicatedDeployment::new(
        PmConfig::simulation_host(),
        [
            OversubLevel::of(1),
            OversubLevel::of(2),
            OversubLevel::of(3),
        ],
    ))
}

fn observed_csv(model: &mut DeploymentModel, workload: &Workload, interval: u64) -> String {
    let mut telemetry = Telemetry::new();
    let mut sampler = ClusterSampler::new(interval);
    run_packing_with(
        workload,
        model,
        RunOptions {
            sampler: Some(&mut sampler),
            ..RunOptions::default()
        },
        &mut telemetry,
    );
    sampler.into_store().to_csv()
}

#[test]
fn observed_replay_is_deterministic_and_rich() {
    let workload = week_scenario();
    let csv_a = observed_csv(&mut shared_pool(), &workload, 3600);
    let csv_b = observed_csv(&mut shared_pool(), &workload, 3600);
    assert_eq!(csv_a, csv_b, "same seed + interval must be byte-identical");

    let store = TimeSeriesStore::from_csv(&csv_a).expect("CSV parses back");
    assert!(store.len() >= 5, "only {} series", store.len());
    for name in [
        "cluster.alive_vms",
        "cluster.active_pms",
        "cluster.cpu_utilization",
        "cluster.mem_utilization",
        "cluster.fragmentation",
        "cluster.mc_deviation_mean",
    ] {
        let series = store.series(name).unwrap_or_else(|| panic!("no {name}"));
        assert!(series.len() > 24, "{name} too sparse: {}", series.len());
    }
    assert!(
        store.iter().any(|s| s.name().starts_with("vnode.width.l")),
        "no per-level vNode width series"
    );

    // Utilization stays a fraction; population counts stay non-negative.
    let cpu = store.series("cluster.cpu_utilization").expect("cpu");
    assert!(cpu.points().all(|p| (0.0..=1.0).contains(&p.value)));
}

#[test]
fn dedicated_model_is_observable_too() {
    let workload = week_scenario();
    let csv = observed_csv(&mut dedicated_pool(), &workload, 7200);
    let store = TimeSeriesStore::from_csv(&csv).expect("CSV parses back");
    assert!(store.len() >= 5);
    // The baseline deploys each level into its own cluster, so every
    // paper level shows up as a width series.
    for level in 1..=3u32 {
        assert!(
            store.series(&format!("vnode.width.l{level}")).is_some(),
            "missing width for level {level}"
        );
    }
}

#[test]
fn interval_beyond_horizon_still_takes_the_initial_sample() {
    let workload = week_scenario();
    let mut model = shared_pool();
    let mut telemetry = Telemetry::new();
    let mut sampler = ClusterSampler::new(u64::MAX / 4);
    run_packing_with(
        &workload,
        &mut model,
        RunOptions {
            sampler: Some(&mut sampler),
            ..RunOptions::default()
        },
        &mut telemetry,
    );
    assert_eq!(sampler.samples_taken(), 1);
    assert!(sampler.store().len() >= 5);
}

#[test]
fn sampling_does_not_perturb_the_outcome() {
    let workload = week_scenario();
    let mut plain_model = shared_pool();
    let plain = run_packing(&workload, &mut plain_model);

    let mut model = shared_pool();
    let mut telemetry = Telemetry::new();
    let mut sampler = ClusterSampler::new(1800);
    let observed = run_packing_with(
        &workload,
        &mut model,
        RunOptions {
            sampler: Some(&mut sampler),
            ..RunOptions::default()
        },
        &mut telemetry,
    )
    .outcome;
    assert_eq!(observed.opened_pms, plain.opened_pms);
    assert_eq!(observed.deployments, plain.deployments);
    assert_eq!(observed.rejections, plain.rejections);
    assert_eq!(observed.peak_alive_vms, plain.peak_alive_vms);
}

#[test]
fn prometheus_exposition_of_a_run_validates_and_profiles_the_hot_path() {
    let workload = week_scenario();
    let mut model = shared_pool();
    let mut telemetry = Telemetry::new();
    let mut sampler = ClusterSampler::new(3600);
    run_packing_with(
        &workload,
        &mut model,
        RunOptions {
            sampler: Some(&mut sampler),
            ..RunOptions::default()
        },
        &mut telemetry,
    );

    let exposition = prometheus::render(&telemetry.metrics, Some(sampler.store()));
    prometheus::validate(&exposition).expect("self-produced exposition is valid");
    assert!(exposition.contains("# TYPE slackvm_sched_select histogram"));
    assert!(exposition.contains("slackvm_sched_select_count"));
    assert!(exposition.contains("slackvm_timeseries"));

    // The pipeline latency histograms recorded real observations.
    let select = telemetry.metrics.histogram("sched.select").expect("select");
    assert!(select.count() > 0);

    // The summary carries the top-K slowest-operations digest.
    let summary = telemetry.render_summary();
    assert!(summary.contains("slowest operations"));
    assert!(summary.contains("sched.select"));
}

#[test]
fn occupancy_samples_downsample_onto_the_grid() {
    let workload = week_scenario();
    let mut model = shared_pool();
    let mut samples = Vec::new();
    run_packing_with(
        &workload,
        &mut model,
        RunOptions {
            samples: Some(&mut samples),
            ..RunOptions::default()
        },
        &mut NullRecorder,
    );
    assert!(!samples.is_empty());

    let store = store_from_samples(&samples, 6 * 3600);
    for name in [
        "cluster.alive_vms",
        "cluster.opened_pms",
        "cluster.cpu_utilization",
        "cluster.mem_utilization",
    ] {
        let series = store.series(name).unwrap_or_else(|| panic!("no {name}"));
        assert!(series.len() <= samples.len());
        assert!(!series.is_empty());
    }
}
