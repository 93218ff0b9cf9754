//! One-stop imports for applications using the SlackVM stack.

pub use slackvm_hypervisor::{
    plan_compaction, plan_compaction_recorded, recommend_level, recommend_level_recorded,
    render_layout, CompactionPlan, DynamicLevelConfig, Host, LevelRecommendation, MachineSnapshot,
    PhysicalMachine, UniformMachine, VNode, VirtualTopology,
};
pub use slackvm_model::{
    gib, mib, AllocView, MemPerCore, Millicores, OversubLevel, OversubPolicy, PmConfig, PmId,
    Resources, VmId, VmSpec,
};
pub use slackvm_perf::{
    calibrate, erlang_c, pooling_benefit, slowdown, CalibrationTargets, ContentionModel,
    Fig2Outcome, Fig2Scenario, MmcModel, Percentiles, Slo, SloPolicy, SlowdownCurve,
};
pub use slackvm_sched::{
    progress_score, BestFitScorer, Candidate, CandidateIndex, CompositeScorer, DotProductScorer,
    IndexMode, NormBasedGreedyScorer, PlacementPolicy, ProgressConfig, ProgressScorer, Scorer,
    VCluster, WorstFitScorer,
};
pub use slackvm_sim::{
    analyze_steady_state, run_packing, run_packing_with, store_from_samples, Cluster,
    ClusterObservables, ClusterSampler, CompactionStats, DedicatedDeployment, DeploymentModel,
    FailureStats, OccupancySample, PackingOutcome, RunOptions, RunReport, SharedDeployment,
    SteadyStateSummary,
};
pub use slackvm_telemetry::{
    Event, Journal, MetricsRegistry, NullRecorder, Recorder, Sampler, Telemetry, TimeSeriesStore,
    TraceBuilder,
};
pub use slackvm_topology::builders::{dual_epyc_7662, flat, xeon, TopologyBuilder};
pub use slackvm_topology::{
    core_distance, topology_from_spec, CoreId, CpuTopology, DistanceMatrix,
};
pub use slackvm_workload::{
    catalog, scenarios, ArrivalModel, Catalog, CatalogError, CpuUsageModel, DistributionPoint,
    Flavor, LevelMix, LifetimeModel, RateShape, Scenario, TraceStats, UsageClass, VmInstance,
    Workload, WorkloadGenerator, WorkloadSpec,
};

pub use crate::experiments;
pub use crate::report;
