//! Steady-state detection over occupancy sample logs.
//!
//! The paper's week-long protocol ramps an empty cluster to a steady
//! population; measurements taken during the ramp understate
//! utilization. This module finds the warm-up/steady-state boundary in a
//! sample log (an MSER-inspired truncation rule: drop the prefix whose
//! removal minimizes the standard error of the remainder's mean) and
//! summarizes the steady region — the statistically sound way to quote
//! mean utilization numbers.

use serde::{Deserialize, Serialize};

use crate::metrics::OccupancySample;

/// Summary of the steady-state region of a replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SteadyStateSummary {
    /// Index of the first steady sample.
    pub warmup_samples: usize,
    /// Simulation time at which steady state begins (seconds).
    pub warmup_end_secs: u64,
    /// Samples in the steady region.
    pub steady_samples: usize,
    /// Mean alive population over the steady region.
    pub mean_population: f64,
    /// Mean unallocated CPU share over the steady region.
    pub mean_unallocated_cpu: f64,
    /// Mean unallocated memory share over the steady region.
    pub mean_unallocated_mem: f64,
}

/// Finds the warm-up truncation point of a sample log by the MSER rule
/// applied to the alive-population series, evaluated on a grid of
/// candidate cut points (at most `max_cut` of the log may be dropped).
///
/// Returns `None` for logs too short to analyze (< 8 samples).
pub fn analyze_steady_state(samples: &[OccupancySample]) -> Option<SteadyStateSummary> {
    if samples.len() < 8 {
        return None;
    }
    let series: Vec<f64> = samples.iter().map(|s| s.alive_vms as f64).collect();
    let max_cut = samples.len() / 2;
    // Evaluate MSER statistic on ~64 candidate cuts.
    let step = (max_cut / 64).max(1);
    let mut best_cut = 0usize;
    let mut best_stat = f64::INFINITY;
    let mut cut = 0usize;
    while cut <= max_cut {
        let rest = &series[cut..];
        let n = rest.len() as f64;
        let mean = rest.iter().sum::<f64>() / n;
        let var = rest.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        // MSER: standard error of the truncated mean = sqrt(var/n); the
        // classic statistic is var / n (monotone equivalent).
        let stat = var / n;
        if stat < best_stat {
            best_stat = stat;
            best_cut = cut;
        }
        cut += step;
    }
    let steady = &samples[best_cut..];
    let n = steady.len() as f64;
    Some(SteadyStateSummary {
        warmup_samples: best_cut,
        warmup_end_secs: steady.first().map_or(0, |s| s.time_secs),
        steady_samples: steady.len(),
        mean_population: steady.iter().map(|s| s.alive_vms as f64).sum::<f64>() / n,
        mean_unallocated_cpu: steady.iter().map(|s| s.unallocated_cpu).sum::<f64>() / n,
        mean_unallocated_mem: steady.iter().map(|s| s.unallocated_mem).sum::<f64>() / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: u64, alive: u32, cpu_free: f64) -> OccupancySample {
        OccupancySample {
            time_secs: t,
            alive_vms: alive,
            opened_pms: 10,
            unallocated_cpu: cpu_free,
            unallocated_mem: cpu_free / 2.0,
        }
    }

    #[test]
    fn ramp_then_plateau_is_cut_at_the_knee() {
        // 100 ramp samples (0..100) then 300 plateau samples around 100.
        let mut samples = Vec::new();
        for i in 0..100u64 {
            samples.push(sample(i * 60, i as u32, 0.9 - i as f64 * 0.005));
        }
        for i in 100..400u64 {
            let wiggle = ((i * 7919) % 5) as u32; // deterministic noise
            samples.push(sample(i * 60, 98 + wiggle, 0.4));
        }
        let s = analyze_steady_state(&samples).unwrap();
        assert!(
            (80..=160).contains(&s.warmup_samples),
            "cut at {}",
            s.warmup_samples
        );
        assert!(
            (s.mean_population - 100.0).abs() < 3.0,
            "steady mean {}",
            s.mean_population
        );
        assert!((s.mean_unallocated_cpu - 0.4).abs() < 0.02);
    }

    #[test]
    fn flat_series_needs_no_warmup() {
        let samples: Vec<_> = (0..100u64).map(|i| sample(i, 50, 0.3)).collect();
        let s = analyze_steady_state(&samples).unwrap();
        assert_eq!(s.warmup_samples, 0);
        assert_eq!(s.mean_population, 50.0);
    }

    #[test]
    fn short_logs_are_rejected() {
        let samples: Vec<_> = (0..7u64).map(|i| sample(i, 1, 0.5)).collect();
        assert!(analyze_steady_state(&samples).is_none());
    }

    #[test]
    fn real_replay_reaches_its_target_population() {
        use crate::deployment::{DedicatedDeployment, DeploymentModel};
        use crate::engine::{run_packing_with, RunOptions};
        use slackvm_model::{OversubLevel, PmConfig};
        use slackvm_workload::{
            catalog, ArrivalModel, DistributionPoint, WorkloadGenerator, WorkloadSpec,
        };
        // 80 VMs steady state, one-day lifetimes, 6-day horizon: the
        // steady mean should sit near the target.
        let w = WorkloadGenerator::new(WorkloadSpec {
            catalog: catalog::azure(),
            mix: DistributionPoint::by_letter('E').unwrap().mix(),
            arrivals: ArrivalModel::constant(80, 86_400, 6 * 86_400),
            seed: 3,
        })
        .generate();
        let mut model = DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::simulation_host(),
            vec![
                OversubLevel::of(1),
                OversubLevel::of(2),
                OversubLevel::of(3),
            ],
        ));
        let mut samples = Vec::new();
        run_packing_with(
            &w,
            &mut model,
            RunOptions {
                samples: Some(&mut samples),
                ..RunOptions::default()
            },
            &mut slackvm_telemetry::NullRecorder,
        );
        let s = analyze_steady_state(&samples).unwrap();
        assert!(
            (60.0..=100.0).contains(&s.mean_population),
            "steady population {}",
            s.mean_population
        );
        assert!(s.warmup_samples > 0, "a ramp exists from the empty start");
    }
}
