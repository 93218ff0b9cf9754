//! One-stop markdown report for a workload trace: what the trace looks
//! like, what each deployment model costs, where the steady state sits,
//! and what migration could still reclaim.

use std::fmt::Write as _;
use std::sync::Arc;

use slackvm_hypervisor::{plan_compaction, MachineSnapshot};
use slackvm_model::{OversubLevel, PmConfig};
use slackvm_sim::{
    analyze_steady_state, run_packing_with, DedicatedDeployment, DeploymentModel, RunOptions,
    SharedDeployment,
};
use slackvm_topology::builders;
use slackvm_workload::{TraceStats, Workload, WorkloadEvent};

/// Renders a markdown report for `workload` on workers of shape `host`.
///
/// Sections: trace statistics, dedicated-vs-shared replay comparison,
/// steady-state analysis of the shared replay, and the compaction
/// headroom at the trace's midpoint.
pub fn trace_report(workload: &Workload, host: PmConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# SlackVM trace report\n");

    // --- Trace statistics. ---
    let _ = writeln!(out, "## Trace\n");
    match TraceStats::of(workload) {
        None => {
            let _ = writeln!(out, "(empty trace)\n");
            return out;
        }
        Some(stats) => {
            let _ = writeln!(out, "- arrivals: {}", stats.arrivals);
            let _ = writeln!(out, "- peak population: {}", stats.peak_population);
            let _ = writeln!(
                out,
                "- mean request: {:.2} vCPU / {:.2} GiB",
                stats.mean_vcpus, stats.mean_mem_gib
            );
            let shares: Vec<String> = stats
                .level_shares
                .iter()
                .map(|(l, s)| format!("{l}:1 = {:.0}%", s * 100.0))
                .collect();
            let _ = writeln!(out, "- level shares: {}", shares.join(", "));
            let (p50, p90, p99) = stats.lifetime_percentiles;
            let _ = writeln!(
                out,
                "- lifetimes: p50 {:.1} h, p90 {:.1} h, p99 {:.1} h\n",
                p50 as f64 / 3600.0,
                p90 as f64 / 3600.0,
                p99 as f64 / 3600.0
            );
        }
    }

    // --- Replays. ---
    let levels: Vec<OversubLevel> = TraceStats::of(workload)
        .map(|s| {
            s.level_shares
                .keys()
                .map(|&n| OversubLevel::of(n))
                .collect()
        })
        .unwrap_or_default();
    let mut dedicated = DeploymentModel::Dedicated(DedicatedDeployment::new(host, levels));
    let base = slackvm_sim::run_packing(workload, &mut dedicated);
    let topology = Arc::new(builders::flat(host.cores));
    let mut shared_model =
        DeploymentModel::Shared(SharedDeployment::new(Arc::clone(&topology), host.mem_mib));
    let mut samples = Vec::new();
    let slack = run_packing_with(
        workload,
        &mut shared_model,
        RunOptions {
            samples: Some(&mut samples),
            ..RunOptions::default()
        },
        &mut slackvm_telemetry::NullRecorder,
    )
    .outcome;
    let _ = writeln!(out, "## Packing ({host})\n");
    let _ = writeln!(
        out,
        "| model | PMs | peak stranded CPU | peak stranded mem |\n|---|---|---|---|"
    );
    for outcome in [&base, &slack] {
        let _ = writeln!(
            out,
            "| {} | {} | {:.1}% | {:.1}% |",
            outcome.model,
            outcome.opened_pms,
            outcome.at_peak.unallocated_cpu * 100.0,
            outcome.at_peak.unallocated_mem * 100.0
        );
    }
    let _ = writeln!(
        out,
        "\nSlackVM saves **{:.1}%** of PMs on this trace.\n",
        slack.savings_vs(&base)
    );

    // --- Steady state of the shared replay. ---
    let _ = writeln!(out, "## Steady state (shared pool)\n");
    match analyze_steady_state(&samples) {
        None => {
            let _ = writeln!(out, "(trace too short for steady-state analysis)\n");
        }
        Some(steady) => {
            let _ = writeln!(
                out,
                "- warm-up: {} samples, ends at t = {:.2} d",
                steady.warmup_samples,
                steady.warmup_end_secs as f64 / 86_400.0
            );
            let _ = writeln!(out, "- steady population: {:.1}", steady.mean_population);
            let _ = writeln!(
                out,
                "- steady stranding: cpu {:.1}%, mem {:.1}%\n",
                steady.mean_unallocated_cpu * 100.0,
                steady.mean_unallocated_mem * 100.0
            );
        }
    }

    // --- Compaction headroom at the trace midpoint. ---
    let horizon = workload.events.last().map_or(0, |(t, _)| *t);
    let midpoint = horizon / 2;
    let mut pool = SharedDeployment::new(topology, host.mem_mib);
    for (time, event) in &workload.events {
        if *time > midpoint {
            break;
        }
        match event {
            WorkloadEvent::Arrival(vm) => {
                let _ = pool.deploy(vm.id, vm.spec);
            }
            WorkloadEvent::Departure { id } => {
                if pool.cluster.location_of(*id).is_some() {
                    let _ = pool.remove(*id);
                }
            }
            WorkloadEvent::Resize { id, vcpus, mem_mib } => {
                let _ = pool.resize(*id, *vcpus, *mem_mib);
            }
        }
    }
    let snapshots: Vec<MachineSnapshot> =
        pool.cluster.hosts().iter().map(|h| h.snapshot()).collect();
    let plan = plan_compaction(&snapshots);
    let _ = writeln!(out, "## Migration headroom (trace midpoint)\n");
    let _ = writeln!(
        out,
        "- {} workers opened, {} active",
        pool.cluster.opened(),
        pool.cluster.active()
    );
    let _ = writeln!(
        out,
        "- compaction could drain {} worker(s) with {} migration(s)\n",
        plan.reclaimed_pms(),
        plan.moves.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_workload::scenarios;

    #[test]
    fn report_contains_every_section() {
        let workload = scenarios::paper_week_f(80).generate(3);
        let report = trace_report(&workload, PmConfig::simulation_host());
        for section in [
            "# SlackVM trace report",
            "## Trace",
            "## Packing",
            "## Steady state",
            "## Migration headroom",
            "SlackVM saves",
        ] {
            assert!(report.contains(section), "missing {section}");
        }
        assert!(report.contains("dedicated/first-fit"));
        assert!(report.contains("slackvm/"));
    }

    #[test]
    fn empty_trace_renders_a_stub() {
        let report = trace_report(&Workload::default(), PmConfig::simulation_host());
        assert!(report.contains("(empty trace)"));
        assert!(!report.contains("## Packing"));
    }

    #[test]
    fn report_is_deterministic() {
        let workload = scenarios::devtest_churn(60).generate(9);
        let a = trace_report(&workload, PmConfig::simulation_host());
        let b = trace_report(&workload, PmConfig::simulation_host());
        assert_eq!(a, b);
    }
}
