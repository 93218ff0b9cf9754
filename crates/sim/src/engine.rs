//! The replay engine: workload trace → packing outcome.

use std::collections::BTreeSet;

use slackvm_model::{PmId, VmId};
use slackvm_telemetry::{Event, NullRecorder, Recorder};
use slackvm_workload::Workload;

use crate::deployment::DeploymentModel;
use crate::error::SimError;
use crate::events::{EventQueue, SimEvent};
use crate::metrics::{OccupancySample, OccupancyTracker, PackingOutcome};
use crate::observe::ClusterSampler;

/// Replays `workload` against `deployment` and reports the packing
/// outcome.
///
/// Arrivals are fed through the event queue; each successful placement
/// schedules the VM's departure. The run never aborts on a deployment
/// failure (possible only on capped clusters) — failures are counted as
/// rejections, matching how a control plane degrades.
///
/// Candidate assembly per event follows the deployment's configured
/// [`IndexMode`](slackvm_sched::IndexMode) (the incremental placement
/// index by default; `DeploymentModel::set_index_mode` selects the
/// naive full rebuild for A/B comparison — both modes are
/// decision-identical).
///
/// This is [`run_packing_with`] with nothing switched on: no sample
/// log, no sampler, no failures, no compaction, and the disabled
/// [`NullRecorder`] — no clock reads, no allocations, no journal.
///
/// ```
/// use slackvm_sim::{run_packing, DeploymentModel, SharedDeployment};
/// use slackvm_model::gib;
/// use slackvm_topology::builders::flat;
/// use slackvm_workload::scenarios;
/// use std::sync::Arc;
///
/// let workload = scenarios::paper_week_f(60).generate(42);
/// let mut pool = DeploymentModel::Shared(
///     SharedDeployment::new(Arc::new(flat(32)), gib(128)));
/// let outcome = run_packing(&workload, &mut pool);
/// assert_eq!(outcome.rejections, 0);
/// assert!(outcome.opened_pms > 0);
/// ```
pub fn run_packing(workload: &Workload, deployment: &mut DeploymentModel) -> PackingOutcome {
    run_packing_with(
        workload,
        deployment,
        RunOptions::default(),
        &mut NullRecorder,
    )
    .outcome
}

/// What a replay does beyond placing and retiring the trace's VMs.
/// The default switches everything off.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Appends every occupancy sample (one per processed event) here —
    /// the time series behind utilization plots and steady-state
    /// analyses.
    pub samples: Option<&'a mut Vec<OccupancySample>>,
    /// Interval-driven sampler snapshotting utilization, fragmentation,
    /// per-level vNode width, and Algorithm-2 M/C deviation as time
    /// series. It observes the cluster *after* each processed event, on
    /// its own simulated-time grid: its first due tick is taken
    /// immediately, so an interval longer than the replay horizon still
    /// yields exactly one snapshot.
    pub sampler: Option<&'a mut ClusterSampler>,
    /// Host failures to inject, as `(time_secs, pm)` points in any
    /// order. Evicted VMs are immediately re-placed on surviving hosts
    /// (opening new ones if allowed); VMs that cannot be re-placed are
    /// lost: their departures are cancelled and their resizes skipped.
    pub failures: &'a [(u64, PmId)],
    /// Runs a compaction round every this many seconds of simulated
    /// time (clamped to at least 1) — the paper's future-work live
    /// migration as an operating mode. Only the shared pool migrates;
    /// on the dedicated baseline rounds are counted and move nothing.
    pub compact_every: Option<u64>,
}

/// Statistics of a compacting replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStats {
    /// Compaction rounds executed.
    pub rounds: u32,
    /// Successful migrations across all rounds.
    pub migrations: u32,
    /// PMs drained (cumulative, per round).
    pub drained: u32,
}

/// Statistics of a failure-injected replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailureStats {
    /// Hosts failed.
    pub hosts_failed: u32,
    /// VMs evicted by failures.
    pub vms_evicted: u32,
    /// Evicted VMs successfully re-placed.
    pub vms_replaced: u32,
    /// Evicted VMs the cluster could not re-place (lost).
    pub vms_lost: u32,
}

/// What [`run_packing_with`] hands back.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The packing outcome. Its `model` label carries a `+compaction`
    /// and/or `+failures` suffix when those options were on.
    pub outcome: PackingOutcome,
    /// Compaction rounds and migrations (all zero without
    /// [`RunOptions::compact_every`]).
    pub compaction: CompactionStats,
    /// Injected failures and what became of the evicted VMs (all zero
    /// without [`RunOptions::failures`]).
    pub failures: FailureStats,
}

/// The replay loop — every way of running a trace goes through here.
///
/// The recorder journals every arrival / placement / rejection /
/// departure / resize (plus the PM-open and vNode lifecycle events the
/// deployment emits), times each event dispatch under the
/// `sim.dispatch` span, and accumulates the run-level counters
/// `sim.deployments` / `sim.rejections`. Compaction rounds journal their
/// plan and applied moves (see
/// [`SharedDeployment::compact_now_recorded`](crate::deployment::SharedDeployment::compact_now_recorded))
/// plus a closing `CompactionRound`; injected failures journal
/// `HostFailed` + per-VM `VmEvicted`, then `VmReplaced` or `VmLost` per
/// re-placement. [`CompactionStats`] and [`FailureStats`] are mirrored
/// into the metrics registry as `sim.compaction.*` / `sim.failures.*`.
///
/// Failures and compaction rounds due at or before an event's time run
/// before that event, oldest first (a failure before a round due at the
/// same instant).
pub fn run_packing_with<R: Recorder>(
    workload: &Workload,
    deployment: &mut DeploymentModel,
    options: RunOptions<'_>,
    recorder: &mut R,
) -> RunReport {
    let RunOptions {
        mut samples,
        mut sampler,
        failures,
        compact_every,
    } = options;
    let mut queue = EventQueue::from_workload(workload);

    let mut pending_failures = failures.to_vec();
    pending_failures.sort_unstable();
    let mut pending_failures = pending_failures.into_iter().peekable();
    let mut failure_stats = FailureStats::default();
    // VMs a failure evicted and nothing could re-place: their queued
    // departures and resizes no longer have a target.
    let mut lost: BTreeSet<VmId> = BTreeSet::new();

    let compact_every = compact_every.map(|every| every.max(1));
    let mut next_compaction = compact_every;
    let mut compaction_stats = CompactionStats::default();

    let mut tracker = OccupancyTracker::new();
    let mut alive: u32 = 0;
    let mut rejections = 0u32;
    let mut deployments = 0u32;

    while let Some((t, event)) = queue.pop() {
        loop {
            let fail_at = pending_failures.peek().map(|f| f.0).filter(|at| *at <= t);
            let compact_at = next_compaction.filter(|at| *at <= t);
            match (fail_at, compact_at) {
                (None, None) => break,
                (Some(t_fail), round) if round.is_none_or(|at| t_fail <= at) => {
                    let (_, pm) = pending_failures.next().expect("peeked above");
                    failure_stats.hosts_failed += 1;
                    for (id, spec) in deployment.fail_host_recorded(pm, t_fail, recorder) {
                        failure_stats.vms_evicted += 1;
                        match deployment.deploy_recorded(id, spec, t_fail, recorder) {
                            Ok(new_pm) => {
                                failure_stats.vms_replaced += 1;
                                if recorder.enabled() {
                                    recorder
                                        .record(t_fail, Event::VmReplaced { vm: id, pm: new_pm });
                                }
                            }
                            Err(_) => {
                                failure_stats.vms_lost += 1;
                                lost.insert(id);
                                alive -= 1;
                                if recorder.enabled() {
                                    recorder.record(t_fail, Event::VmLost { vm: id });
                                }
                            }
                        }
                    }
                }
                _ => {
                    let at = next_compaction.expect("a round is due in this arm");
                    let (migrations, drained) = match deployment {
                        DeploymentModel::Shared(pool) => pool.compact_now_recorded(at, recorder),
                        DeploymentModel::Dedicated(_) => (0, 0),
                    };
                    compaction_stats.rounds += 1;
                    compaction_stats.migrations += migrations;
                    compaction_stats.drained += drained;
                    if recorder.enabled() {
                        recorder.record(
                            at,
                            Event::CompactionRound {
                                round: compaction_stats.rounds,
                                migrations,
                                drained,
                            },
                        );
                        recorder.count("sim.compaction.rounds", 1);
                        recorder.count("sim.compaction.migrations", migrations as u64);
                        recorder.count("sim.compaction.drained", drained as u64);
                    }
                    next_compaction = compact_every.map(|every| at + every);
                }
            }
        }

        let span = recorder.begin("sim.dispatch");
        match event {
            SimEvent::Arrival(vm) => {
                deployments += 1;
                if recorder.enabled() {
                    recorder.record(
                        t,
                        Event::VmArrival {
                            vm: vm.id,
                            vcpus: vm.spec.vcpus(),
                            mem_mib: vm.spec.mem_mib(),
                            level: vm.spec.level.ratio(),
                        },
                    );
                }
                match deployment.deploy_recorded(vm.id, vm.spec, t, recorder) {
                    Ok(pm) => {
                        alive += 1;
                        queue.push(vm.departure_secs.max(t + 1), SimEvent::Departure(vm.id));
                        if recorder.enabled() {
                            recorder.record(
                                t,
                                Event::VmPlaced {
                                    vm: vm.id,
                                    pm,
                                    level: vm.spec.level.ratio(),
                                },
                            );
                        }
                    }
                    Err(SimError::DeploymentFailed(_)) | Err(SimError::Unsatisfiable(_)) => {
                        rejections += 1;
                        if recorder.enabled() {
                            recorder.record(
                                t,
                                Event::VmRejected {
                                    vm: vm.id,
                                    vcpus: vm.spec.vcpus(),
                                    mem_mib: vm.spec.mem_mib(),
                                    level: vm.spec.level.ratio(),
                                },
                            );
                        }
                    }
                    Err(SimError::UnknownVm(_)) => unreachable!("deploy never reports UnknownVm"),
                }
            }
            SimEvent::Departure(id) => {
                if lost.is_empty() || !lost.remove(&id) {
                    let pm = deployment
                        .remove_recorded(id, t, recorder)
                        .expect("departures are only scheduled for placed, non-lost VMs");
                    alive -= 1;
                    if recorder.enabled() {
                        recorder.record(t, Event::VmDeparted { vm: id, pm });
                    }
                }
            }
            SimEvent::Resize { id, vcpus, mem_mib } => {
                if lost.is_empty() || !lost.contains(&id) {
                    // A rejected resize (or one targeting a VM that was
                    // never placed) leaves the old size in force.
                    let accepted = deployment
                        .resize_recorded(id, vcpus, mem_mib, t, recorder)
                        .is_ok();
                    if recorder.enabled() {
                        recorder.record(
                            t,
                            Event::VmResized {
                                vm: id,
                                vcpus,
                                mem_mib,
                                accepted,
                            },
                        );
                    }
                }
            }
        }
        recorder.end(span);
        let (alloc, capacity) = deployment.totals();
        let sample =
            OccupancySample::from_totals(t, alive, deployment.opened_pms(), alloc, capacity);
        tracker.observe(sample);
        if let Some(log) = samples.as_deref_mut() {
            log.push(sample);
        }
        if let Some(s) = sampler.as_deref_mut() {
            s.sample_if_due(t, deployment);
        }
    }

    if recorder.enabled() {
        if !failures.is_empty() {
            recorder.count(
                "sim.failures.hosts_failed",
                failure_stats.hosts_failed as u64,
            );
            recorder.count("sim.failures.vms_evicted", failure_stats.vms_evicted as u64);
            recorder.count(
                "sim.failures.vms_replaced",
                failure_stats.vms_replaced as u64,
            );
            recorder.count("sim.failures.vms_lost", failure_stats.vms_lost as u64);
        }
        recorder.count("sim.deployments", deployments as u64);
        recorder.count("sim.rejections", rejections as u64);
        recorder.gauge("sim.opened_pms", deployment.opened_pms() as f64);
        recorder.gauge("sim.peak_alive_vms", tracker.peak_alive() as f64);
    }

    let mut model = deployment.name();
    if compact_every.is_some() {
        model.push_str("+compaction");
    }
    if !failures.is_empty() {
        model.push_str("+failures");
    }
    let (mean_cpu, mean_mem) = tracker.means();
    RunReport {
        outcome: PackingOutcome {
            model,
            opened_pms: deployment.opened_pms(),
            peak_alive_vms: tracker.peak_alive(),
            at_peak: tracker.peak().unwrap_or_default(),
            mean_unallocated_cpu: mean_cpu,
            mean_unallocated_mem: mean_mem,
            rejections,
            deployments,
        },
        compaction: compaction_stats,
        failures: failure_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{DedicatedDeployment, SharedDeployment};
    use slackvm_model::{OversubLevel, PmConfig};
    use slackvm_topology::builders;
    use slackvm_workload::{
        catalog, ArrivalModel, DistributionPoint, WorkloadGenerator, WorkloadSpec,
    };
    use std::sync::Arc;

    fn small_workload(letter: char, seed: u64) -> Workload {
        WorkloadGenerator::new(WorkloadSpec {
            catalog: catalog::azure(),
            mix: DistributionPoint::by_letter(letter).unwrap().mix(),
            arrivals: ArrivalModel::constant(60, 86_400, 3 * 86_400),
            seed,
        })
        .generate()
    }

    fn dedicated() -> DeploymentModel {
        DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::simulation_host(),
            vec![
                OversubLevel::of(1),
                OversubLevel::of(2),
                OversubLevel::of(3),
            ],
        ))
    }

    fn shared() -> DeploymentModel {
        DeploymentModel::Shared(SharedDeployment::new(
            Arc::new(builders::flat(32)),
            slackvm_model::gib(128),
        ))
    }

    fn compacting<R: Recorder>(
        w: &Workload,
        model: &mut DeploymentModel,
        every_secs: u64,
        recorder: &mut R,
    ) -> (PackingOutcome, CompactionStats) {
        let options = RunOptions {
            compact_every: Some(every_secs),
            ..RunOptions::default()
        };
        let run = run_packing_with(w, model, options, recorder);
        (run.outcome, run.compaction)
    }

    fn failing<R: Recorder>(
        w: &Workload,
        model: &mut DeploymentModel,
        failures: &[(u64, PmId)],
        recorder: &mut R,
    ) -> (PackingOutcome, FailureStats) {
        let options = RunOptions {
            failures,
            ..RunOptions::default()
        };
        let run = run_packing_with(w, model, options, recorder);
        (run.outcome, run.failures)
    }

    #[test]
    fn replay_is_deterministic() {
        let w = small_workload('F', 1);
        let a = run_packing(&w, &mut dedicated());
        let b = run_packing(&w, &mut dedicated());
        assert_eq!(a, b);
    }

    #[test]
    fn no_rejections_on_unbounded_clusters() {
        let w = small_workload('E', 2);
        let out = run_packing(&w, &mut dedicated());
        assert_eq!(out.rejections, 0);
        assert_eq!(out.deployments as usize, w.num_arrivals());
        assert!(out.opened_pms > 0);
        let out = run_packing(&w, &mut shared());
        assert_eq!(out.rejections, 0);
    }

    #[test]
    fn all_vms_depart_by_end() {
        let w = small_workload('F', 3);
        let mut model = shared();
        let out = run_packing(&w, &mut model);
        // After the full replay every VM departed: nothing allocated.
        let (alloc, _) = model.totals();
        assert!(alloc.is_empty(), "leftover allocation {alloc:?}");
        assert!(out.peak_alive_vms > 0);
    }

    #[test]
    fn shared_needs_no_more_pms_than_dedicated_on_mix_f() {
        // The headline direction of the paper: on a complementary mix
        // the shared pool packs at least as well as dedicated clusters.
        let w = small_workload('F', 4);
        let base = run_packing(&w, &mut dedicated());
        let slack = run_packing(&w, &mut shared());
        assert!(
            slack.opened_pms <= base.opened_pms,
            "slackvm {} vs baseline {}",
            slack.opened_pms,
            base.opened_pms
        );
    }

    #[test]
    fn compacting_replay_matches_or_beats_plain_shared() {
        let w = small_workload('F', 7);
        let mut plain = shared();
        let plain_out = run_packing(&w, &mut plain);
        let mut pool = shared();
        let (compacted_out, stats) = compacting(&w, &mut pool, 6 * 3600, &mut NullRecorder);
        assert_eq!(compacted_out.rejections, 0);
        assert!(
            compacted_out.opened_pms <= plain_out.opened_pms,
            "compaction opened {} vs plain {}",
            compacted_out.opened_pms,
            plain_out.opened_pms
        );
        assert!(stats.rounds > 0);
        assert!(compacted_out.model.contains("compaction"));
        // Post-replay: fully drained, invariants hold on every worker.
        use slackvm_hypervisor::Host as _;
        let DeploymentModel::Shared(pool) = &pool else {
            unreachable!("shared() builds the shared model")
        };
        for host in pool.cluster.hosts() {
            host.check_invariants().unwrap();
            assert!(host.is_idle());
        }
    }

    #[test]
    fn compaction_rounds_fire_on_schedule() {
        let w = small_workload('E', 8);
        let horizon = w.events.last().map(|(t, _)| *t).unwrap_or(0);
        let (_, stats) = compacting(&w, &mut shared(), 86_400, &mut NullRecorder);
        // One round per simulated day that has a subsequent event.
        assert!(stats.rounds >= (horizon / 86_400).saturating_sub(1) as u32);
    }

    #[test]
    fn sample_log_covers_every_event() {
        let w = small_workload('E', 6);
        let mut samples = Vec::new();
        let out = run_packing_with(
            &w,
            &mut dedicated(),
            RunOptions {
                samples: Some(&mut samples),
                ..RunOptions::default()
            },
            &mut NullRecorder,
        )
        .outcome;
        // One sample per processed event: every arrival (incl. rejected)
        // plus every departure of a placed VM.
        assert_eq!(
            samples.len() as u32,
            out.deployments + (out.deployments - out.rejections)
        );
        // Times are non-decreasing and the peak sample appears in the log.
        assert!(samples.windows(2).all(|p| p[0].time_secs <= p[1].time_secs));
        assert!(samples.contains(&out.at_peak));
        // The log ends fully drained.
        assert_eq!(samples.last().unwrap().alive_vms, 0);
    }

    #[test]
    fn recorded_replay_matches_plain_and_mirrors_outcome() {
        use slackvm_telemetry::Telemetry;
        let w = small_workload('F', 11);
        let plain = run_packing(&w, &mut shared());
        let mut telemetry = Telemetry::new();
        let recorded =
            run_packing_with(&w, &mut shared(), RunOptions::default(), &mut telemetry).outcome;
        // Recording must not perturb the simulation.
        assert_eq!(recorded, plain);
        // The journal and the counters agree with the outcome.
        let placements = recorded.deployments - recorded.rejections;
        assert_eq!(
            telemetry.journal.count_kind("vm_arrival") as u32,
            recorded.deployments
        );
        assert_eq!(telemetry.journal.count_kind("vm_placed") as u32, placements);
        assert_eq!(
            telemetry.journal.count_kind("vm_rejected") as u32,
            recorded.rejections
        );
        assert_eq!(
            telemetry.journal.count_kind("vm_departed") as u32,
            placements
        );
        assert_eq!(
            telemetry.journal.count_kind("pm_opened") as u32,
            recorded.opened_pms
        );
        assert_eq!(
            telemetry.metrics.counter("sim.deployments") as u32,
            recorded.deployments
        );
        assert_eq!(
            telemetry.metrics.counter("sim.rejections") as u32,
            recorded.rejections
        );
        assert_eq!(
            telemetry.metrics.gauge("sim.opened_pms"),
            Some(recorded.opened_pms as f64)
        );
        // vNode lifecycle closes: every created vNode eventually
        // dissolves (the replay drains fully).
        assert_eq!(
            telemetry.journal.count_kind("v_node_created"),
            telemetry.journal.count_kind("v_node_dissolved")
        );
        assert!(telemetry.journal.count_kind("v_node_created") > 0);
        // Dispatch spans were timed and feed a duration histogram.
        assert!(telemetry.metrics.histogram("sim.dispatch").is_some());
        assert!(telemetry.trace.len() > 0);
        // Journal timestamps are non-decreasing.
        let times: Vec<u64> = telemetry.journal.iter().map(|r| r.time_secs).collect();
        assert!(times.windows(2).all(|p| p[0] <= p[1]));
    }

    #[test]
    fn recorded_compaction_journal_matches_stats() {
        use slackvm_telemetry::Telemetry;
        let w = small_workload('F', 7);
        let (plain_out, plain_stats) = compacting(&w, &mut shared(), 6 * 3600, &mut NullRecorder);
        let mut telemetry = Telemetry::new();
        let (out, stats) = compacting(&w, &mut shared(), 6 * 3600, &mut telemetry);
        assert_eq!(out, plain_out);
        assert_eq!(stats, plain_stats);
        // The folded counters equal the legacy stats struct, field by
        // field — the struct's public API is unchanged, the registry is
        // a faithful mirror.
        assert_eq!(
            telemetry.metrics.counter("sim.compaction.rounds") as u32,
            stats.rounds
        );
        assert_eq!(
            telemetry.metrics.counter("sim.compaction.migrations") as u32,
            stats.migrations
        );
        assert_eq!(
            telemetry.metrics.counter("sim.compaction.drained") as u32,
            stats.drained
        );
        // ... and so do the journalled round events.
        assert_eq!(
            telemetry.journal.count_kind("compaction_round") as u32,
            stats.rounds
        );
        let migrations_journalled: u32 = telemetry
            .journal
            .iter()
            .filter_map(|r| match r.event {
                slackvm_telemetry::Event::CompactionRound { migrations, .. } => Some(migrations),
                _ => None,
            })
            .sum();
        assert_eq!(migrations_journalled, stats.migrations);
        assert_eq!(
            telemetry.journal.count_kind("compaction_planned") as u32,
            stats.rounds
        );
    }

    #[test]
    fn recorded_failures_journal_matches_stats() {
        use slackvm_telemetry::Telemetry;
        let w = small_workload('F', 9);
        let failures = vec![(86_400, PmId(0)), (2 * 86_400, PmId(1))];
        let (plain_out, plain_stats) = failing(&w, &mut shared(), &failures, &mut NullRecorder);
        let mut telemetry = Telemetry::new();
        let (out, stats) = failing(&w, &mut shared(), &failures, &mut telemetry);
        assert_eq!(out, plain_out);
        assert_eq!(stats, plain_stats);
        assert!(stats.hosts_failed > 0 && stats.vms_evicted > 0);
        // Journal event counts equal the stats counters.
        assert_eq!(
            telemetry.journal.count_kind("host_failed") as u32,
            stats.hosts_failed
        );
        assert_eq!(
            telemetry.journal.count_kind("vm_evicted") as u32,
            stats.vms_evicted
        );
        assert_eq!(
            telemetry.journal.count_kind("vm_replaced") as u32,
            stats.vms_replaced
        );
        assert_eq!(
            telemetry.journal.count_kind("vm_lost") as u32,
            stats.vms_lost
        );
        // ... and the folded registry counters do too.
        assert_eq!(
            telemetry.metrics.counter("sim.failures.hosts_failed") as u32,
            stats.hosts_failed
        );
        assert_eq!(
            telemetry.metrics.counter("sim.failures.vms_evicted") as u32,
            stats.vms_evicted
        );
        assert_eq!(
            telemetry.metrics.counter("sim.failures.vms_replaced") as u32,
            stats.vms_replaced
        );
        assert_eq!(
            telemetry.metrics.counter("sim.failures.vms_lost") as u32,
            stats.vms_lost
        );
    }

    #[test]
    fn observed_replay_samples_deterministically() {
        use slackvm_telemetry::TimeSeriesStore;
        let w = small_workload('F', 12);
        let run = || {
            let mut sampler = crate::observe::ClusterSampler::new(6 * 3600);
            let out = run_packing_with(
                &w,
                &mut shared(),
                RunOptions {
                    sampler: Some(&mut sampler),
                    ..RunOptions::default()
                },
                &mut NullRecorder,
            )
            .outcome;
            (out, sampler.into_store().to_csv())
        };
        let (a_out, a_csv) = run();
        let (b_out, b_csv) = run();
        assert_eq!(a_out, b_out);
        assert_eq!(a_csv, b_csv, "same workload + interval ⇒ identical CSV");
        // The CSV parses back into at least the five headline series.
        let store = TimeSeriesStore::from_csv(&a_csv).unwrap();
        assert!(store.len() >= 5, "only {} series", store.len());
        for name in [
            "cluster.cpu_utilization",
            "cluster.fragmentation",
            "cluster.active_pms",
            "cluster.mc_deviation_mean",
        ] {
            assert!(store.series(name).is_some(), "missing {name}");
        }
        assert!(
            store.iter().any(|s| s.name().starts_with("vnode.width.l")),
            "no per-level width series"
        );
        // Sampling must not perturb the simulation.
        assert_eq!(a_out, run_packing(&w, &mut shared()));
    }

    #[test]
    fn interval_beyond_horizon_yields_one_sample() {
        let w = small_workload('E', 13);
        let mut sampler = crate::observe::ClusterSampler::new(u64::MAX / 4);
        run_packing_with(
            &w,
            &mut shared(),
            RunOptions {
                sampler: Some(&mut sampler),
                ..RunOptions::default()
            },
            &mut NullRecorder,
        );
        assert_eq!(sampler.samples_taken(), 1, "exactly one initial sample");
        assert!(sampler.store().len() >= 5);
    }

    #[test]
    fn plain_run_is_the_optionless_run_field_for_field() {
        let w = slackvm_workload::scenarios::paper_week_f(60).generate(5);
        for build in [dedicated as fn() -> DeploymentModel, shared] {
            let plain = run_packing(&w, &mut build());
            let run = run_packing_with(&w, &mut build(), RunOptions::default(), &mut NullRecorder);
            assert_eq!(run.outcome, plain);
            assert_eq!(run.compaction, CompactionStats::default());
            assert_eq!(run.failures, FailureStats::default());
        }
    }

    /// Regression: the failure-injecting (and compacting) replays used
    /// to seed their queue from arrivals only, silently dropping every
    /// resize in the trace.
    #[test]
    fn resizes_land_in_the_allocation_of_a_failure_injected_replay() {
        use slackvm_telemetry::Telemetry;
        let base = small_workload('F', 14);
        let w = slackvm_workload::inject_resizes(&base, &catalog::azure(), 1.0, 0xC0FFEE);
        let t_fail = 86_400;
        let mut samples = Vec::new();
        let mut telemetry = Telemetry::new();
        let options = RunOptions {
            samples: Some(&mut samples),
            failures: &[(t_fail, PmId(0))],
            ..RunOptions::default()
        };
        let run = run_packing_with(&w, &mut shared(), options, &mut telemetry);
        assert!(run.failures.vms_evicted > 0);
        assert_eq!(run.failures.vms_lost, 0, "the unbounded pool re-places");
        // Memory is additive per VM, so a ledger kept from the journal
        // must match the sample the engine took after each event: an
        // accepted resize that never reached the hosts breaks it there
        // and at every sample until the VM departs.
        let mut mem_of = std::collections::BTreeMap::new();
        let mut samples = samples.iter();
        let (mut arriving_mem, mut resized_after_failure) = (0, false);
        for record in telemetry.journal.iter() {
            match record.event {
                Event::VmArrival { mem_mib, .. } => {
                    arriving_mem = mem_mib;
                    continue;
                }
                Event::VmPlaced { vm, .. } => {
                    mem_of.insert(vm, arriving_mem);
                }
                Event::VmDeparted { vm, .. } => {
                    mem_of.remove(&vm);
                }
                Event::VmResized {
                    accepted: true,
                    vm,
                    mem_mib,
                    ..
                } => {
                    mem_of.insert(vm, mem_mib);
                    resized_after_failure |= record.time_secs > t_fail;
                }
                Event::VmRejected { .. } | Event::VmResized { .. } => {}
                _ => continue,
            }
            let sample = samples.next().expect("one sample per dispatched event");
            assert_eq!(sample.time_secs, record.time_secs);
            let capacity = (sample.opened_pms as u64 * slackvm_model::gib(128)) as f64;
            let expected = 1.0 - mem_of.values().sum::<u64>() as f64 / capacity;
            assert!(
                (sample.unallocated_mem - expected).abs() < 1e-9,
                "t={}: sampled {} vs ledger {expected}",
                record.time_secs,
                sample.unallocated_mem
            );
        }
        assert!(samples.next().is_none());
        assert!(resized_after_failure);
        assert!(mem_of.is_empty(), "the replay drains");
    }

    #[test]
    fn resizes_of_lost_vms_are_skipped() {
        use slackvm_telemetry::Telemetry;
        let base = small_workload('F', 15);
        let w = slackvm_workload::inject_resizes(&base, &catalog::azure(), 1.0, 7);
        // A one-host pool, failed mid-run: every evicted VM is lost,
        // with its resize and departure still queued.
        let mut pool = DeploymentModel::Shared(SharedDeployment::with_capped_cluster(
            Arc::new(builders::flat(32)),
            slackvm_model::gib(128),
            1,
        ));
        let mut telemetry = Telemetry::new();
        let (_, stats) = failing(&w, &mut pool, &[(86_400, PmId(0))], &mut telemetry);
        assert!(stats.vms_lost > 0, "{stats:?}");
        let mut lost = BTreeSet::new();
        for record in telemetry.journal.iter() {
            match record.event {
                Event::VmResized { vm, .. } | Event::VmDeparted { vm, .. } => {
                    assert!(!lost.contains(&vm), "{vm} was lost, then touched");
                }
                Event::VmLost { vm } => {
                    lost.insert(vm);
                }
                _ => {}
            }
        }
        assert!(pool.totals().0.is_empty());
    }

    #[test]
    fn peak_sample_is_meaningful() {
        let w = small_workload('A', 5);
        let out = run_packing(&w, &mut dedicated());
        assert!(out.at_peak.alive_vms == out.peak_alive_vms);
        assert!(out.at_peak.opened_pms <= out.opened_pms);
        assert!((0.0..=1.0).contains(&out.at_peak.unallocated_cpu));
        assert!((0.0..=1.0).contains(&out.at_peak.unallocated_mem));
        // Azure 1:1 is CPU-bound: memory strands more than CPU.
        assert!(out.at_peak.unallocated_mem > out.at_peak.unallocated_cpu);
    }
}
