//! Fig. 3: unallocated resources, dedicated clusters vs SlackVM.

use std::sync::Arc;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use slackvm_model::PmConfig;
use slackvm_sim::{
    run_packing, DedicatedDeployment, DeploymentModel, PackingOutcome, SharedDeployment,
};
use slackvm_topology::builders;
use slackvm_workload::{
    ArrivalModel, Catalog, DistributionPoint, LevelMix, WorkloadGenerator, WorkloadSpec,
};

/// Protocol parameters of the scale experiments (paper §VII-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackingConfig {
    /// Steady-state VM population target (paper: 500).
    pub target_population: u32,
    /// Worker hardware (paper: 32 cores / 128 GiB, M/C = 4).
    pub host: PmConfig,
    /// RNG seed for workload generation.
    pub seed: u64,
}

impl Default for PackingConfig {
    fn default() -> Self {
        PackingConfig {
            target_population: 500,
            host: PmConfig::simulation_host(),
            seed: 0x5AC4,
        }
    }
}

/// Baseline and SlackVM outcomes on the same workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PackingComparison {
    /// Dedicated First-Fit clusters.
    pub baseline: PackingOutcome,
    /// Shared SlackVM pool with the progress scorer.
    pub slackvm: PackingOutcome,
}

impl PackingComparison {
    /// PM savings in percent (Fig. 4's cell value).
    pub fn savings_pct(&self) -> f64 {
        self.slackvm.savings_vs(&self.baseline)
    }
}

/// Replays one generated workload against both deployment models.
pub fn compare_packing(
    catalog: &Catalog,
    mix: &LevelMix,
    config: &PackingConfig,
) -> PackingComparison {
    let workload = WorkloadGenerator::new(WorkloadSpec {
        catalog: catalog.clone(),
        mix: mix.clone(),
        arrivals: ArrivalModel::paper_week(config.target_population),
        seed: config.seed,
    })
    .generate();

    let mut baseline =
        DeploymentModel::Dedicated(DedicatedDeployment::new(config.host, mix.levels()));
    let baseline_out = run_packing(&workload, &mut baseline);

    let topology = Arc::new(builders::flat(config.host.cores));
    let mut shared = DeploymentModel::Shared(SharedDeployment::new(topology, config.host.mem_mib));
    let slackvm_out = run_packing(&workload, &mut shared);

    PackingComparison {
        baseline: baseline_out,
        slackvm: slackvm_out,
    }
}

/// Like [`compare_packing`], with the SlackVM pool additionally running
/// a compaction (live-migration) round every `compact_every_secs` — the
/// paper's future-work extension as a third contender. Returns the
/// comparison (SlackVM side = compacting pool) plus migration stats.
pub fn compare_packing_with_compaction(
    catalog: &Catalog,
    mix: &LevelMix,
    config: &PackingConfig,
    compact_every_secs: u64,
) -> (PackingComparison, slackvm_sim::CompactionStats) {
    let workload = WorkloadGenerator::new(WorkloadSpec {
        catalog: catalog.clone(),
        mix: mix.clone(),
        arrivals: ArrivalModel::paper_week(config.target_population),
        seed: config.seed,
    })
    .generate();

    let mut baseline =
        DeploymentModel::Dedicated(DedicatedDeployment::new(config.host, mix.levels()));
    let baseline_out = run_packing(&workload, &mut baseline);

    let topology = Arc::new(builders::flat(config.host.cores));
    let mut pool = DeploymentModel::Shared(SharedDeployment::new(topology, config.host.mem_mib));
    let run = slackvm_sim::run_packing_with(
        &workload,
        &mut pool,
        slackvm_sim::RunOptions {
            compact_every: Some(compact_every_secs),
            ..Default::default()
        },
        &mut slackvm_telemetry::NullRecorder,
    );

    (
        PackingComparison {
            baseline: baseline_out,
            slackvm: run.outcome,
        },
        run.compaction,
    )
}

/// One bar group of Fig. 3: a distribution's unallocated shares under
/// both models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Row {
    /// Distribution letter (A..O).
    pub letter: char,
    /// Shares of the three levels, in percent points.
    pub shares: (u32, u32, u32),
    /// Unallocated CPU share at peak occupancy, baseline.
    pub baseline_cpu: f64,
    /// Unallocated memory share at peak occupancy, baseline.
    pub baseline_mem: f64,
    /// Unallocated CPU share at peak occupancy, SlackVM.
    pub slackvm_cpu: f64,
    /// Unallocated memory share at peak occupancy, SlackVM.
    pub slackvm_mem: f64,
    /// PMs opened, baseline.
    pub baseline_pms: u32,
    /// PMs opened, SlackVM.
    pub slackvm_pms: u32,
}

impl Fig3Row {
    /// Combined (cpu + mem) unallocated share, baseline.
    pub fn baseline_total(&self) -> f64 {
        self.baseline_cpu + self.baseline_mem
    }

    /// Combined (cpu + mem) unallocated share, SlackVM.
    pub fn slackvm_total(&self) -> f64 {
        self.slackvm_cpu + self.slackvm_mem
    }
}

/// Runs Fig. 3 for one provider catalog across the fifteen paper
/// distributions A..O (in parallel).
pub fn run_fig3(catalog: &Catalog, config: &PackingConfig) -> Vec<Fig3Row> {
    DistributionPoint::all()
        .into_par_iter()
        .map(|point| {
            let cmp = compare_packing(catalog, &point.mix(), config);
            Fig3Row {
                letter: point.letter,
                shares: (point.p1, point.p2, point.p3),
                baseline_cpu: cmp.baseline.at_peak.unallocated_cpu,
                baseline_mem: cmp.baseline.at_peak.unallocated_mem,
                slackvm_cpu: cmp.slackvm.at_peak.unallocated_cpu,
                slackvm_mem: cmp.slackvm.at_peak.unallocated_mem,
                baseline_pms: cmp.baseline.opened_pms,
                slackvm_pms: cmp.slackvm.opened_pms,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_workload::catalog;

    fn quick_config() -> PackingConfig {
        PackingConfig {
            target_population: 400,
            ..PackingConfig::default()
        }
    }

    #[test]
    fn mix_f_ovh_shows_substantial_savings() {
        // The paper's headline: distribution F (50% 1:1 + 50% 3:1) on
        // OVHcloud saves ~9.6% of PMs.
        let point = DistributionPoint::by_letter('F').unwrap();
        let cmp = compare_packing(&catalog::ovhcloud(), &point.mix(), &quick_config());
        let savings = cmp.savings_pct();
        assert!(
            savings > 4.0,
            "expected substantial savings on F/OVH, got {savings:.1}% \
             ({} -> {} PMs)",
            cmp.baseline.opened_pms,
            cmp.slackvm.opened_pms
        );
    }

    #[test]
    fn pure_premium_distribution_saves_little() {
        // Distribution A (100% 1:1): no complementarity to exploit; any
        // gain is the marginal threshold effect.
        let point = DistributionPoint::by_letter('A').unwrap();
        let cmp = compare_packing(&catalog::ovhcloud(), &point.mix(), &quick_config());
        let savings = cmp.savings_pct();
        assert!(
            savings.abs() < 6.0,
            "A should be near-neutral, got {savings:.1}%"
        );
    }

    #[test]
    fn fig3_covers_all_letters_and_shows_the_shift() {
        let rows = run_fig3(&catalog::azure(), &quick_config());
        assert_eq!(rows.len(), 15);
        let a = rows.iter().find(|r| r.letter == 'A').unwrap();
        let o = rows.iter().find(|r| r.letter == 'O').unwrap();
        // Paper Fig. 3: low-oversubscription mixes strand memory
        // (CPU-bound); heavily oversubscribed ones strand CPU
        // (memory-bound).
        assert!(
            a.baseline_mem > a.baseline_cpu,
            "A: mem {} vs cpu {}",
            a.baseline_mem,
            a.baseline_cpu
        );
        assert!(
            o.baseline_cpu > o.baseline_mem,
            "O: cpu {} vs mem {}",
            o.baseline_cpu,
            o.baseline_mem
        );
    }

    #[test]
    fn compaction_mode_matches_or_beats_plain_slackvm() {
        let point = DistributionPoint::by_letter('F').unwrap();
        let cfg = quick_config();
        let plain = compare_packing(&catalog::ovhcloud(), &point.mix(), &cfg);
        let (compacting, stats) =
            compare_packing_with_compaction(&catalog::ovhcloud(), &point.mix(), &cfg, 12 * 3600);
        assert_eq!(compacting.baseline, plain.baseline, "same baseline trace");
        assert!(
            compacting.slackvm.opened_pms <= plain.slackvm.opened_pms,
            "compacting {} vs plain {}",
            compacting.slackvm.opened_pms,
            plain.slackvm.opened_pms
        );
        assert!(stats.rounds > 10, "a week at 12h cadence: {:?}", stats);
        assert!(stats.migrations > 0);
    }

    #[test]
    fn slackvm_never_needs_vastly_more_pms() {
        for letter in ['A', 'F', 'K', 'O'] {
            let point = DistributionPoint::by_letter(letter).unwrap();
            let cmp = compare_packing(&catalog::azure(), &point.mix(), &quick_config());
            assert!(
                cmp.slackvm.opened_pms <= cmp.baseline.opened_pms + 2,
                "{letter}: slackvm {} vs baseline {}",
                cmp.slackvm.opened_pms,
                cmp.baseline.opened_pms
            );
        }
    }
}
