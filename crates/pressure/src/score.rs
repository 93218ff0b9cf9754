//! Per-PM pressure scoring and hot/warm/cold classification.
//!
//! The paper packs by *requested* resources and bets that actual usage
//! leaves slack; pressure is the inverse of that slack — the fraction
//! of a PM's physical cores its VMs are actually demanding, with
//! demand from heavily oversubscribed VMs weighted up (the 3:1 tier is
//! where the paper's Table IV shows the bet failing first, because
//! bursts there correlate and the guarantee is thinnest).
//!
//! Classification is hysteretic: a PM becomes hot at `hot_enter`, but
//! only cools once its score drops below `hot_exit` — without the
//! band, a PM sitting on the threshold would flap between states and
//! the mitigation planner would thrash migrations. `cold_max` bounds
//! the PMs that may *receive* spread-out migrations.

use std::collections::BTreeMap;

use slackvm_hypervisor::Host;
use slackvm_model::{PmId, VmId, VmSpec};
use slackvm_sim::{Cluster, DeploymentModel};

/// Scoring thresholds and weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureConfig {
    /// Score at which a PM is classified hot.
    pub hot_enter: f64,
    /// Score below which a hot PM cools (hysteresis floor; also the
    /// level a destination's predicted score must stay under).
    pub hot_exit: f64,
    /// Maximum score of a PM that may receive spread-out migrations.
    pub cold_max: f64,
    /// Extra demand weight per oversubscription step above 1:1 — a VM
    /// at level L contributes `usage × vcpus × (1 + overweight×(L−1))`.
    pub overweight: f64,
}

impl Default for PressureConfig {
    fn default() -> Self {
        PressureConfig {
            hot_enter: 0.75,
            hot_exit: 0.60,
            cold_max: 0.40,
            overweight: 0.15,
        }
    }
}

impl PressureConfig {
    /// Rejects threshold orderings that make the hysteresis vacuous.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.cold_max > 0.0) {
            return Err("cold ceiling must be positive".into());
        }
        if !(self.cold_max < self.hot_exit) {
            return Err("cold ceiling must sit below the hot exit".into());
        }
        if !(self.hot_exit < self.hot_enter) {
            return Err("hot exit must sit below hot enter (hysteresis band)".into());
        }
        if !(self.overweight >= 0.0 && self.overweight.is_finite()) {
            return Err("oversubscription overweight must be finite and >= 0".into());
        }
        Ok(())
    }

    /// Classifies a score, honouring the hysteresis band when the PM's
    /// previous state is known.
    pub fn classify(&self, score: f64, prev: Option<PressureState>) -> PressureState {
        if score >= self.hot_enter {
            PressureState::Hot
        } else if prev == Some(PressureState::Hot) && score >= self.hot_exit {
            // Inside the band a previously-hot PM stays hot.
            PressureState::Hot
        } else if score <= self.cold_max {
            PressureState::Cold
        } else {
            PressureState::Warm
        }
    }
}

/// A PM's pressure classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureState {
    /// Demand comfortably below the mitigation ceiling; may receive
    /// spread-out migrations.
    Cold,
    /// In between: neither a victim source nor a destination.
    Warm,
    /// Demand at or above the hot threshold (or cooling through the
    /// hysteresis band); the mitigation planner drains these.
    Hot,
}

impl PressureState {
    /// Lower-case label for rendering and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            PressureState::Cold => "cold",
            PressureState::Warm => "warm",
            PressureState::Hot => "hot",
        }
    }
}

/// The key pressure state is remembered under across planning rounds:
/// the oversubscription ratio of the sub-cluster (0 for the shared
/// pool, whose PM ids are a single namespace) and the PM id.
pub type StateKey = (u32, PmId);

/// One PM's pressure reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmPressure {
    /// Sub-cluster oversubscription ratio (0 for the shared pool).
    pub level: u32,
    /// The PM.
    pub pm: PmId,
    /// Weighted demanded-cores : physical-cores ratio.
    pub score: f64,
    /// Weighted demand in physical-core units.
    pub demand_cores: f64,
    /// Physical cores.
    pub cores: u32,
    /// Hosted VMs.
    pub vms: usize,
    /// Hysteresis-aware classification.
    pub state: PressureState,
    /// Whether the PM is failed (excluded from planning either way).
    pub failed: bool,
}

/// The fleet's pressure readings, one row per opened PM.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PressureReport {
    /// Per-PM readings, in (level, PM id) order.
    pub pms: Vec<PmPressure>,
}

impl PressureReport {
    /// Number of hot PMs.
    pub fn hot(&self) -> u32 {
        self.count(PressureState::Hot)
    }

    /// Number of warm PMs.
    pub fn warm(&self) -> u32 {
        self.count(PressureState::Warm)
    }

    /// Number of cold PMs.
    pub fn cold(&self) -> u32 {
        self.count(PressureState::Cold)
    }

    fn count(&self, state: PressureState) -> u32 {
        self.pms.iter().filter(|p| p.state == state).count() as u32
    }

    /// The highest score in the fleet (zero when empty).
    pub fn peak_score(&self) -> f64 {
        self.pms.iter().map(|p| p.score).fold(0.0, f64::max)
    }

    /// The classification map the online executor carries into the
    /// next round as hysteresis memory.
    pub fn states(&self) -> BTreeMap<StateKey, PressureState> {
        self.pms
            .iter()
            .map(|p| ((p.level, p.pm), p.state))
            .collect()
    }

    /// Human-readable rendering for the CLI `pressure status` action.
    pub fn render(&self) -> String {
        let mut out = format!(
            "pressure: {} PM(s) — {} hot, {} warm, {} cold (peak score {:.2})\n",
            self.pms.len(),
            self.hot(),
            self.warm(),
            self.cold(),
            self.peak_score(),
        );
        for p in &self.pms {
            let level = if p.level == 0 {
                "pool".to_string()
            } else {
                format!("{}:1 ", p.level)
            };
            out.push_str(&format!(
                "  {level} pm-{}  {:<4} score {:.2}  ({:.1}/{} cores, {} VM(s)){}\n",
                p.pm.0,
                p.state.name(),
                p.score,
                p.demand_cores,
                p.cores,
                p.vms,
                if p.failed { "  [failed]" } else { "" },
            ));
        }
        out
    }

    /// Hand-rolled JSON rendering (stable, serde-free like the
    /// rebalance plan's).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.pms.len() * 96);
        out.push_str("{\"hot\":");
        out.push_str(&self.hot().to_string());
        out.push_str(",\"warm\":");
        out.push_str(&self.warm().to_string());
        out.push_str(",\"cold\":");
        out.push_str(&self.cold().to_string());
        out.push_str(",\"pms\":[");
        for (i, p) in self.pms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"level\":{},\"pm\":{},\"score\":{:.4},\"state\":\"{}\",\"vms\":{}}}",
                p.level,
                p.pm.0,
                p.score,
                p.state.name(),
                p.vms,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The demand weight of one VM's oversubscription level: heavier the
/// thinner the guarantee behind its vCPUs.
pub(crate) fn vm_weight(config: &PressureConfig, spec: &VmSpec) -> f64 {
    1.0 + config.overweight * (spec.level.ratio().saturating_sub(1)) as f64
}

/// One placed VM as the pressure plane read it. `usage` is evaluated
/// once, when the row is built, and kept beside the VM (clamped), so a
/// plan never asks twice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VmRow {
    pub(crate) vm: VmId,
    pub(crate) spec: VmSpec,
    pub(crate) usage: f64,
}

impl VmRow {
    /// The VM's weighted demand in physical-core units: its term in its
    /// PM's score, and what it adds to a destination's.
    pub(crate) fn demand(&self, config: &PressureConfig) -> f64 {
        self.usage * self.spec.vcpus() as f64 * vm_weight(config, &self.spec)
    }
}

/// A PM's weighted demanded cores: its rows' terms summed in the order
/// given, which must be `placements()` order (ascending `VmId`). Float
/// addition is not associative, so a score cached and refreshed by the
/// planner equals a score computed from scratch bit for bit only if both
/// sum the same terms in the same order — this is the one body that
/// does, for the scorer and for the planner's refreshes.
pub(crate) fn weighted_demand(rows: &[VmRow], config: &PressureConfig) -> f64 {
    let mut demand = 0.0;
    for row in rows {
        demand += row.demand(config);
    }
    demand
}

/// The pressure score of `demand` weighted cores on a `cores`-core PM.
pub(crate) fn score_of(demand: f64, cores: u32) -> f64 {
    demand / cores.max(1) as f64
}

/// One PM as read for a scoring or planning round: the report row and
/// the per-VM rows it was summed from.
#[derive(Debug)]
pub(crate) struct PmReading {
    pub(crate) rows: Vec<VmRow>,
    pub(crate) pressure: PmPressure,
}

/// Reads one (sub)cluster: one `usage` call per placed VM.
fn read_cluster<H: Host>(
    cluster: &Cluster<H>,
    level: u32,
    config: &PressureConfig,
    usage: &impl Fn(VmId) -> f64,
    prev: &BTreeMap<StateKey, PressureState>,
) -> Vec<PmReading> {
    cluster
        .hosts()
        .iter()
        .map(|host| {
            let rows: Vec<VmRow> = host
                .placements()
                .into_iter()
                .map(|(vm, spec)| VmRow {
                    vm,
                    spec,
                    usage: usage(vm).clamp(0.0, 1.0),
                })
                .collect();
            let demand_cores = weighted_demand(&rows, config);
            let cores = host.config().cores;
            let score = score_of(demand_cores, cores);
            let pressure = PmPressure {
                level,
                pm: host.id(),
                score,
                demand_cores,
                cores,
                vms: host.num_vms(),
                state: config.classify(score, prev.get(&(level, host.id())).copied()),
                failed: cluster.is_failed(host.id()),
            };
            PmReading { rows, pressure }
        })
        .collect()
}

/// Reads the whole deployment, one vector per (sub)cluster in
/// [`PressureReport`] order — the single fleet reading a scoring or
/// planning round is derived from.
pub(crate) fn read_model(
    model: &DeploymentModel,
    config: &PressureConfig,
    usage: &impl Fn(VmId) -> f64,
    prev: &BTreeMap<StateKey, PressureState>,
) -> Vec<Vec<PmReading>> {
    match model {
        DeploymentModel::Shared(s) => vec![read_cluster(&s.cluster, 0, config, usage, prev)],
        DeploymentModel::Dedicated(d) => d
            .clusters()
            .map(|(level, cluster)| read_cluster(cluster, level.ratio(), config, usage, prev))
            .collect(),
    }
}

/// The report rows of a reading.
pub(crate) fn report_of(readings: &[Vec<PmReading>]) -> PressureReport {
    PressureReport {
        pms: readings.iter().flatten().map(|r| r.pressure).collect(),
    }
}

/// Scores every opened PM of the deployment, classifying with the
/// hysteresis memory in `prev` (pass an empty map for a stateless
/// snapshot — everything classifies by the enter/cold thresholds).
/// `usage` is called once per placed VM.
pub fn score_pressure(
    model: &DeploymentModel,
    config: &PressureConfig,
    usage: &impl Fn(VmId) -> f64,
    prev: &BTreeMap<StateKey, PressureState>,
) -> PressureReport {
    report_of(&read_model(model, config, usage, prev))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_model::{gib, OversubLevel, VmSpec};
    use slackvm_sched::PlacementPolicy;
    use slackvm_sim::SharedDeployment;
    use std::sync::Arc;

    fn pool() -> DeploymentModel {
        let mut s = SharedDeployment::with_policy(
            Arc::new(slackvm_topology::builders::flat(32)),
            gib(128),
            PlacementPolicy::FirstFit,
        );
        s.deploy(VmId(0), VmSpec::of(16, gib(32), OversubLevel::of(1)))
            .unwrap();
        s.deploy(VmId(1), VmSpec::of(16, gib(32), OversubLevel::of(1)))
            .unwrap();
        DeploymentModel::Shared(s)
    }

    #[test]
    fn config_rejects_inverted_thresholds() {
        assert!(PressureConfig::default().validate().is_ok());
        for broken in [
            PressureConfig {
                cold_max: 0.0,
                ..PressureConfig::default()
            },
            PressureConfig {
                cold_max: 0.7,
                ..PressureConfig::default()
            },
            PressureConfig {
                hot_exit: 0.8,
                ..PressureConfig::default()
            },
            PressureConfig {
                overweight: -1.0,
                ..PressureConfig::default()
            },
        ] {
            assert!(broken.validate().is_err(), "{broken:?}");
        }
    }

    #[test]
    fn hysteresis_keeps_a_hot_pm_hot_inside_the_band() {
        let cfg = PressureConfig::default();
        assert_eq!(cfg.classify(0.8, None), PressureState::Hot);
        assert_eq!(cfg.classify(0.65, None), PressureState::Warm);
        assert_eq!(
            cfg.classify(0.65, Some(PressureState::Hot)),
            PressureState::Hot
        );
        assert_eq!(
            cfg.classify(0.55, Some(PressureState::Hot)),
            PressureState::Warm
        );
        assert_eq!(cfg.classify(0.3, Some(PressureState::Hot)), PressureState::Cold);
    }

    #[test]
    fn busy_vms_make_a_pm_hot_idle_vms_leave_it_cold() {
        let model = pool();
        let cfg = PressureConfig::default();
        let hot = score_pressure(&model, &cfg, &|_| 0.9, &BTreeMap::new());
        assert_eq!(hot.hot(), 1, "{}", hot.render());
        assert!(hot.peak_score() > 0.8);
        let cold = score_pressure(&model, &cfg, &|_| 0.05, &BTreeMap::new());
        assert_eq!(cold.hot(), 0);
        assert_eq!(cold.cold(), 1, "{}", cold.render());
    }

    #[test]
    fn oversubscribed_demand_weighs_heavier() {
        let mut s = SharedDeployment::with_policy(
            Arc::new(slackvm_topology::builders::flat(32)),
            gib(128),
            PlacementPolicy::FirstFit,
        );
        s.deploy(VmId(0), VmSpec::of(16, gib(32), OversubLevel::of(3)))
            .unwrap();
        let model = DeploymentModel::Shared(s);
        let cfg = PressureConfig::default();
        let report = score_pressure(&model, &cfg, &|_| 1.0, &BTreeMap::new());
        // 16 demanded cores × (1 + 0.15×2) = 20.8 of 32.
        assert!((report.pms[0].score - 0.65).abs() < 1e-9, "{report:?}");
    }

    #[test]
    fn report_counts_and_json_agree() {
        let model = pool();
        let report = score_pressure(
            &model,
            &PressureConfig::default(),
            &|_| 0.9,
            &BTreeMap::new(),
        );
        let json = report.to_json();
        assert!(json.starts_with("{\"hot\":1,"), "{json}");
        assert!(json.contains("\"state\":\"hot\""), "{json}");
        assert_eq!(report.states().len(), report.pms.len());
        assert!(report.render().contains("1 hot"), "{}", report.render());
    }
}
