//! The two deployment models under comparison.

use std::collections::BTreeMap;
use std::sync::Arc;

use slackvm_hypervisor::{Host, PhysicalMachine, PinChurn, UniformMachine};
use slackvm_model::{AllocView, OversubLevel, PmConfig, PmId, VmId, VmSpec};
use slackvm_sched::vcluster::VClusterMember;
use slackvm_sched::{
    CompositeScorer, IndexMode, PlacementPolicy, ProgressScorer, VCluster, POLICY_NAMES,
};
use slackvm_topology::{
    topology_from_spec, CpuTopology, DistanceMatrix, SelectionPolicy, TopologySelection,
};

use crate::cluster::Cluster;
use crate::error::SimError;
use crate::state::{ClusterState, ModelState, PlacementRecord};

/// Captures a cluster's logical state: provisioned size plus every
/// live placement in host order.
fn capture_cluster<H: Host>(cluster: &Cluster<H>) -> ClusterState {
    let mut placements = Vec::with_capacity(cluster.num_vms());
    for host in cluster.hosts() {
        let pm = host.id();
        placements.extend(
            host.placements()
                .into_iter()
                .map(|(vm, spec)| PlacementRecord { vm, spec, pm }),
        );
    }
    ClusterState {
        opened: cluster.opened(),
        placements,
        failed: cluster.failed_ids(),
    }
}

/// Restores a captured cluster state onto a freshly built (empty)
/// cluster via directed placements, then reopens emptied hosts so the
/// provisioned size matches, and re-marks the captured failed set so
/// a snapshot taken mid-outage keeps those hosts out of service.
fn restore_cluster<H: Host>(cluster: &mut Cluster<H>, state: &ClusterState) -> Result<(), String> {
    for p in &state.placements {
        cluster
            .restore_placement(p.vm, p.spec, p.pm)
            .map_err(|e| format!("restoring {} onto pm {}: {e}", p.vm, p.pm.0))?;
    }
    if !cluster.ensure_opened(state.opened) {
        return Err(format!(
            "captured state provisions {} hosts but the cluster is capped below that",
            state.opened
        ));
    }
    for pm in &state.failed {
        cluster.mark_failed(*pm);
    }
    Ok(())
}

/// A deployment model: where VMs of each level may land and how targets
/// are chosen.
pub enum DeploymentModel {
    /// One isolated, single-level cluster per oversubscription tier —
    /// the conventional architecture the paper baselines against.
    Dedicated(DedicatedDeployment),
    /// One shared pool of partitioned SlackVM workers.
    Shared(SharedDeployment),
}

impl DeploymentModel {
    /// Places a VM.
    pub fn deploy(&mut self, id: VmId, spec: VmSpec) -> Result<PmId, SimError> {
        self.deploy_recorded(id, spec, 0, &mut slackvm_telemetry::NullRecorder)
    }

    /// [`DeploymentModel::deploy`] with telemetry: scoring-loop spans,
    /// `PmOpened`, and (on the shared pool) vNode lifecycle events, all
    /// stamped with `time_secs`.
    pub fn deploy_recorded<R: slackvm_telemetry::Recorder>(
        &mut self,
        id: VmId,
        spec: VmSpec,
        time_secs: u64,
        recorder: &mut R,
    ) -> Result<PmId, SimError> {
        match self {
            DeploymentModel::Dedicated(d) => d.deploy_recorded(id, spec, time_secs, recorder),
            DeploymentModel::Shared(s) => s.deploy_recorded(id, spec, time_secs, recorder),
        }
    }

    /// Removes a VM.
    pub fn remove(&mut self, id: VmId) -> Result<PmId, SimError> {
        self.remove_recorded(id, 0, &mut slackvm_telemetry::NullRecorder)
    }

    /// [`DeploymentModel::remove`] with telemetry (vNode shrink /
    /// dissolution on the shared pool).
    pub fn remove_recorded<R: slackvm_telemetry::Recorder>(
        &mut self,
        id: VmId,
        time_secs: u64,
        recorder: &mut R,
    ) -> Result<PmId, SimError> {
        match self {
            DeploymentModel::Dedicated(d) => d.remove(id),
            DeploymentModel::Shared(s) => s.remove_recorded(id, time_secs, recorder),
        }
    }

    /// Vertically resizes a hosted VM in place. Fails (without side
    /// effects) when the hosting machine cannot absorb the new size —
    /// control planes surface that as a rejected resize request.
    pub fn resize(&mut self, id: VmId, vcpus: u32, mem_mib: u64) -> Result<(), SimError> {
        self.resize_recorded(id, vcpus, mem_mib, 0, &mut slackvm_telemetry::NullRecorder)
    }

    /// [`DeploymentModel::resize`] with telemetry (vNode grow / shrink
    /// on the shared pool).
    pub fn resize_recorded<R: slackvm_telemetry::Recorder>(
        &mut self,
        id: VmId,
        vcpus: u32,
        mem_mib: u64,
        time_secs: u64,
        recorder: &mut R,
    ) -> Result<(), SimError> {
        match self {
            DeploymentModel::Dedicated(d) => d.resize(id, vcpus, mem_mib),
            DeploymentModel::Shared(s) => {
                s.resize_recorded(id, vcpus, mem_mib, time_secs, recorder)
            }
        }
    }

    /// Total PMs opened across all (sub)clusters.
    pub fn opened_pms(&self) -> u32 {
        match self {
            DeploymentModel::Dedicated(d) => d.opened_pms(),
            DeploymentModel::Shared(s) => s.cluster.opened(),
        }
    }

    /// PMs currently hosting at least one VM across all (sub)clusters —
    /// the quantity background consolidation tries to shrink (opened
    /// counts never go down; active counts do when a PM is drained).
    pub fn active_pms(&self) -> u32 {
        match self {
            DeploymentModel::Dedicated(d) => d.active_pms(),
            DeploymentModel::Shared(s) => s.cluster.active(),
        }
    }

    /// Cluster-wide allocation and capacity over opened PMs.
    pub fn totals(&self) -> (AllocView, AllocView) {
        match self {
            DeploymentModel::Dedicated(d) => d.totals(),
            DeploymentModel::Shared(s) => (s.cluster.total_alloc(), s.cluster.total_capacity()),
        }
    }

    /// Model label for reports.
    pub fn name(&self) -> String {
        match self {
            DeploymentModel::Dedicated(_) => "dedicated/first-fit".to_string(),
            DeploymentModel::Shared(s) => format!("slackvm/{}", s.policy.name()),
        }
    }

    /// A point-in-time snapshot of the cluster observables (utilization,
    /// fragmentation, per-level width, Algorithm-2 M/C deviation).
    pub fn observables(&self) -> crate::observe::ClusterObservables {
        match self {
            DeploymentModel::Dedicated(d) => d.observables(),
            DeploymentModel::Shared(s) => s.observables(),
        }
    }

    /// Selects how deploy-time candidate sets are assembled on every
    /// (sub)cluster: the naive full rebuild or the incremental placement
    /// index (see [`slackvm_sched::index`]).
    pub fn set_index_mode(&mut self, mode: IndexMode) {
        match self {
            DeploymentModel::Dedicated(d) => d.set_index_mode(mode),
            DeploymentModel::Shared(s) => s.cluster.set_index_mode(mode),
        }
    }

    /// Builder form of [`DeploymentModel::set_index_mode`].
    pub fn with_index_mode(mut self, mode: IndexMode) -> Self {
        self.set_index_mode(mode);
        self
    }

    /// The candidate-assembly mode in use.
    pub fn index_mode(&self) -> IndexMode {
        match self {
            DeploymentModel::Dedicated(d) => d.index_mode,
            DeploymentModel::Shared(s) => s.cluster.index_mode(),
        }
    }

    /// Audits every opened host's internal invariants (capacity bounds,
    /// pin accounting, vNode bookkeeping). An error names the first
    /// violating host — the safety net concurrency and soak tests lean
    /// on after hammering a deployment.
    pub fn check_invariants(&self) -> Result<(), String> {
        match self {
            DeploymentModel::Dedicated(d) => d.check_invariants(),
            DeploymentModel::Shared(s) => s.check_invariants(),
        }
    }

    /// Captures the model's logical state — provisioned sizes and live
    /// placements — as a serializable [`ModelState`] (the snapshot body
    /// of the durability layer).
    pub fn capture_state(&self) -> ModelState {
        match self {
            DeploymentModel::Shared(s) => ModelState::Shared(capture_cluster(&s.cluster)),
            DeploymentModel::Dedicated(d) => ModelState::Dedicated(
                d.clusters
                    .iter()
                    .map(|(level, c)| (*level, capture_cluster(c)))
                    .collect(),
            ),
        }
    }

    /// Restores a captured state onto this *freshly built, empty* model
    /// (same config as the captured one). Placements are replayed as
    /// directed deployments; the model-kind of `state` must match.
    pub fn restore_state(&mut self, state: &ModelState) -> Result<(), String> {
        match (self, state) {
            (DeploymentModel::Shared(s), ModelState::Shared(cs)) => s.restore_state(cs),
            (DeploymentModel::Dedicated(d), ModelState::Dedicated(levels)) => {
                d.restore_state(levels)
            }
            (DeploymentModel::Shared(_), ModelState::Dedicated(_)) => {
                Err("state captures a dedicated model, restore target is shared".into())
            }
            (DeploymentModel::Dedicated(_), ModelState::Shared(_)) => {
                Err("state captures a shared model, restore target is dedicated".into())
            }
        }
    }

    /// Fails a host: it stops accepting deployments and every hosted VM
    /// is evicted and returned, for the caller to re-place or declare
    /// lost. On the dedicated baseline, PM ids are per-level, so the
    /// same id fails across every configured sub-cluster. Idempotent.
    pub fn fail_host(&mut self, pm: PmId) -> Vec<(VmId, VmSpec)> {
        self.fail_host_recorded(pm, 0, &mut slackvm_telemetry::NullRecorder)
    }

    /// [`DeploymentModel::fail_host`] with telemetry (`HostFailed`,
    /// per-VM `VmEvicted`, and vNode dissolution on the shared pool).
    pub fn fail_host_recorded<R: slackvm_telemetry::Recorder>(
        &mut self,
        pm: PmId,
        time_secs: u64,
        recorder: &mut R,
    ) -> Vec<(VmId, VmSpec)> {
        match self {
            DeploymentModel::Shared(s) => s.fail_host_recorded(pm, time_secs, recorder),
            DeploymentModel::Dedicated(d) => d.fail_host(pm),
        }
    }

    /// Returns a failed host to service (e.g. after repair).
    pub fn repair_host(&mut self, pm: PmId) {
        match self {
            DeploymentModel::Shared(s) => s.repair_host(pm),
            DeploymentModel::Dedicated(d) => d.repair_host(pm),
        }
    }

    /// Number of hosts currently failed (summed across sub-clusters on
    /// the dedicated baseline).
    pub fn failed_pms(&self) -> u32 {
        match self {
            DeploymentModel::Shared(s) => s.cluster.failed_count(),
            DeploymentModel::Dedicated(d) => {
                d.clusters.values().map(|c| c.failed_count()).sum()
            }
        }
    }

    /// Where a VM currently lives. On the dedicated baseline PM ids are
    /// per-level, so the returned id is scoped to the sub-cluster of the
    /// VM's level.
    pub fn location_of(&self, id: VmId) -> Option<PmId> {
        match self {
            DeploymentModel::Shared(s) => s.cluster.location_of(id),
            DeploymentModel::Dedicated(d) => d.location_of(id),
        }
    }

    /// Moves a VM to a specific PM — the migration primitive the
    /// consolidation plane executes. Returns the source PM on success;
    /// on failure the VM stays where it was (no side effects). On the
    /// dedicated baseline the move is scoped to the VM's own level
    /// sub-cluster (PM ids are per-level).
    pub fn migrate(&mut self, id: VmId, to: PmId) -> Result<PmId, SimError> {
        match self {
            DeploymentModel::Shared(s) => s.migrate_vm(id, to),
            DeploymentModel::Dedicated(d) => d.migrate_vm(id, to),
        }
    }

    /// Places a VM on the *specific* PM a previous run chose — the
    /// directed primitive WAL-tail replay uses (never re-decides).
    pub fn restore_placement(&mut self, id: VmId, spec: VmSpec, pm: PmId) -> Result<(), SimError> {
        match self {
            DeploymentModel::Shared(s) => {
                s.cluster.restore_placement(id, spec, pm)?;
                s.refresh_vcluster_recorded(
                    pm,
                    spec.level,
                    0,
                    &mut slackvm_telemetry::NullRecorder,
                );
                Ok(())
            }
            DeploymentModel::Dedicated(d) => d.restore_placement(id, spec, pm),
        }
    }
}

/// A [`DeploymentModel`] described by value: what the CLI flags select,
/// what each shard of the placement service builds, and what a state
/// directory's `MANIFEST` records.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// A SlackVM shared pool per shard.
    Shared {
        /// Worker topology spec (e.g. `"cores=32"`, see
        /// [`slackvm_topology::topology_from_spec`]).
        topology: String,
        /// Worker memory.
        mem_mib: u64,
        /// Placement policy name (see [`POLICY_NAMES`]).
        policy: String,
        /// Total fleet cap, split evenly across shards (`None` for an
        /// elastic fleet that opens PMs on demand).
        fleet_cap: Option<u32>,
    },
    /// The dedicated per-level baseline per shard.
    Dedicated {
        /// Worker topology spec.
        topology: String,
        /// Worker memory.
        mem_mib: u64,
    },
}

impl ModelSpec {
    /// The default shared pool: 32-core workers, 128 GiB, the paper's
    /// progress+bestfit policy, elastic fleet.
    pub fn default_shared() -> Self {
        ModelSpec::Shared {
            topology: "cores=32".into(),
            mem_mib: slackvm_model::gib(128),
            policy: "progress+bestfit".into(),
            fleet_cap: None,
        }
    }

    /// The model's name (`shared` / `dedicated`), as flags and the
    /// manifest spell it.
    pub fn name(&self) -> &'static str {
        match self {
            ModelSpec::Shared { .. } => "shared",
            ModelSpec::Dedicated { .. } => "dedicated",
        }
    }

    /// Builds one shard's deployment model. `shards` is the total
    /// shard count (a capped fleet is split `ceil(cap / shards)` each,
    /// so the aggregate never falls below the configured cap). The
    /// error is the message naming the bad topology spec or policy.
    pub fn build(&self, shards: u32) -> Result<DeploymentModel, String> {
        match self {
            ModelSpec::Shared {
                topology,
                mem_mib,
                policy,
                fleet_cap,
            } => {
                let topo = Arc::new(topology_from_spec(topology).map_err(|e| e.to_string())?);
                let policy = PlacementPolicy::by_name(policy).ok_or_else(|| {
                    format!("unknown policy {policy:?} ({})", POLICY_NAMES.join(", "))
                })?;
                let pool = match fleet_cap {
                    Some(cap) => {
                        let per_shard = cap.div_ceil(shards.max(1));
                        let mut pool =
                            SharedDeployment::with_capped_cluster(topo, *mem_mib, per_shard);
                        pool.policy = policy;
                        pool
                    }
                    None => SharedDeployment::with_policy(topo, *mem_mib, policy),
                };
                Ok(DeploymentModel::Shared(pool))
            }
            ModelSpec::Dedicated { topology, mem_mib } => {
                let topo = topology_from_spec(topology).map_err(|e| e.to_string())?;
                Ok(DeploymentModel::Dedicated(DedicatedDeployment::new(
                    PmConfig::of(topo.num_cores(), *mem_mib),
                    [
                        OversubLevel::of(1),
                        OversubLevel::of(2),
                        OversubLevel::of(3),
                    ],
                )))
            }
        }
    }
}

/// The baseline: per-level clusters of [`UniformMachine`]s, each placed
/// by First-Fit.
pub struct DedicatedDeployment {
    clusters: BTreeMap<OversubLevel, Cluster<UniformMachine>>,
    config: PmConfig,
    index_mode: IndexMode,
}

impl DedicatedDeployment {
    /// Builds the baseline for a set of levels with identical hardware.
    pub fn new(config: PmConfig, levels: impl IntoIterator<Item = OversubLevel>) -> Self {
        let mut clusters = BTreeMap::new();
        for level in levels {
            clusters.insert(
                level,
                Cluster::new(move |id| UniformMachine::new(id, config, level)),
            );
        }
        DedicatedDeployment {
            clusters,
            config,
            index_mode: IndexMode::default(),
        }
    }

    /// Selects the candidate-assembly mode on every per-level cluster,
    /// including ones opened lazily later.
    pub fn set_index_mode(&mut self, mode: IndexMode) {
        self.index_mode = mode;
        for cluster in self.clusters.values_mut() {
            cluster.set_index_mode(mode);
        }
    }

    /// The per-level cluster, if that level was configured.
    pub fn cluster(&self, level: OversubLevel) -> Option<&Cluster<UniformMachine>> {
        self.clusters.get(&level)
    }

    /// PMs opened per level, for the paper's per-cluster breakdowns
    /// ("83 PMs: 55 for the 1:1 cluster and 28 for the 3:1 cluster").
    pub fn opened_per_level(&self) -> BTreeMap<OversubLevel, u32> {
        self.clusters
            .iter()
            .map(|(level, c)| (*level, c.opened()))
            .collect()
    }

    fn opened_pms(&self) -> u32 {
        self.clusters.values().map(|c| c.opened()).sum()
    }

    /// PMs hosting at least one VM, summed over the per-level clusters.
    pub fn active_pms(&self) -> u32 {
        self.clusters.values().map(|c| c.active()).sum()
    }

    /// The configured levels with their clusters, ascending by level —
    /// the per-level walk the consolidation planner drains each
    /// dedicated sub-cluster with.
    pub fn clusters(&self) -> impl Iterator<Item = (OversubLevel, &Cluster<UniformMachine>)> {
        self.clusters.iter().map(|(level, c)| (*level, c))
    }

    /// Cluster observables; the per-level "width" of the baseline is the
    /// physical cores allocated inside each dedicated sub-cluster (the
    /// quantity a shared pool carves into vNodes instead).
    pub fn observables(&self) -> crate::observe::ClusterObservables {
        let alive: u64 = self.clusters.values().map(|c| c.num_vms() as u64).sum();
        let mut obs =
            crate::observe::observe_hosts(self.clusters.values().flat_map(|c| c.hosts()), alive);
        for (level, cluster) in &self.clusters {
            obs.level_width_cores
                .insert(level.ratio(), cluster.total_alloc().cpu.as_cores_f64());
        }
        obs
    }

    fn totals(&self) -> (AllocView, AllocView) {
        let mut alloc = AllocView::EMPTY;
        let mut cap = AllocView::EMPTY;
        for c in self.clusters.values() {
            let a = c.total_alloc();
            let k = c.total_capacity();
            alloc = AllocView::new(alloc.cpu + a.cpu, alloc.mem_mib + a.mem_mib);
            cap = AllocView::new(cap.cpu + k.cpu, cap.mem_mib + k.mem_mib);
        }
        (alloc, cap)
    }

    #[cfg(test)]
    fn deploy(&mut self, id: VmId, spec: VmSpec) -> Result<PmId, SimError> {
        self.deploy_recorded(id, spec, 0, &mut slackvm_telemetry::NullRecorder)
    }

    fn deploy_recorded<R: slackvm_telemetry::Recorder>(
        &mut self,
        id: VmId,
        spec: VmSpec,
        time_secs: u64,
        recorder: &mut R,
    ) -> Result<PmId, SimError> {
        self.cluster_entry(spec.level).deploy_recorded(
            id,
            spec,
            &PlacementPolicy::FirstFit,
            time_secs,
            recorder,
        )
    }

    fn remove(&mut self, id: VmId) -> Result<PmId, SimError> {
        for cluster in self.clusters.values_mut() {
            if cluster.location_of(id).is_some() {
                return cluster.remove(id);
            }
        }
        Err(SimError::UnknownVm(id))
    }

    /// Vertically resizes a hosted VM on whatever machine hosts it.
    pub fn resize(&mut self, id: VmId, vcpus: u32, mem_mib: u64) -> Result<(), SimError> {
        for cluster in self.clusters.values_mut() {
            if cluster.location_of(id).is_some() {
                return cluster.resize_vm(id, vcpus, mem_mib).map(|_| ());
            }
        }
        Err(SimError::UnknownVm(id))
    }

    /// Where a VM lives (a per-level PM id — the baseline scopes ids to
    /// each sub-cluster).
    pub fn location_of(&self, id: VmId) -> Option<PmId> {
        self.clusters.values().find_map(|c| c.location_of(id))
    }

    /// Moves a VM to `to` inside its own level's sub-cluster, returning
    /// the source PM. Fails without side effects when the VM is unknown
    /// or the destination cannot take it.
    pub fn migrate_vm(&mut self, id: VmId, to: PmId) -> Result<PmId, SimError> {
        for cluster in self.clusters.values_mut() {
            if let Some(from) = cluster.location_of(id) {
                cluster.migrate(id, to)?;
                return Ok(from);
            }
        }
        Err(SimError::UnknownVm(id))
    }

    /// Fails `pm` across every configured sub-cluster (PM ids are
    /// per-level on the baseline), returning the evictions in level
    /// order. Idempotent per sub-cluster.
    pub fn fail_host(&mut self, pm: PmId) -> Vec<(VmId, VmSpec)> {
        let mut evicted = Vec::new();
        for cluster in self.clusters.values_mut() {
            evicted.extend(cluster.fail_host(pm));
        }
        evicted
    }

    /// Returns `pm` to service in every sub-cluster.
    pub fn repair_host(&mut self, pm: PmId) {
        for cluster in self.clusters.values_mut() {
            cluster.repair_host(pm);
        }
    }

    /// The per-level cluster for `level`, created lazily with the
    /// deployment's config and index mode.
    fn cluster_entry(&mut self, level: OversubLevel) -> &mut Cluster<UniformMachine> {
        let config = self.config;
        let index_mode = self.index_mode;
        self.clusters.entry(level).or_insert_with(|| {
            Cluster::new(move |id| UniformMachine::new(id, config, level))
                .with_index_mode(index_mode)
        })
    }

    /// Directed placement onto a specific PM of the level's sub-cluster
    /// (see [`DeploymentModel::restore_placement`]).
    pub fn restore_placement(&mut self, id: VmId, spec: VmSpec, pm: PmId) -> Result<(), SimError> {
        self.cluster_entry(spec.level)
            .restore_placement(id, spec, pm)
    }

    /// Restores captured per-level states onto this freshly built,
    /// empty baseline.
    pub fn restore_state(&mut self, levels: &[(OversubLevel, ClusterState)]) -> Result<(), String> {
        for (level, state) in levels {
            restore_cluster(self.cluster_entry(*level), state)
                .map_err(|e| format!("level {level}: {e}"))?;
        }
        Ok(())
    }

    /// Audits every opened machine: allocations must stay within the
    /// hardware capacity of each per-level cluster.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (level, cluster) in &self.clusters {
            for host in cluster.hosts() {
                let alloc = host.alloc();
                let config = host.config();
                if alloc.cpu > config.cpu_capacity() {
                    return Err(format!(
                        "pm {} ({level}): cpu alloc {:?} exceeds capacity {:?}",
                        host.id().0,
                        alloc.cpu,
                        config.cpu_capacity()
                    ));
                }
                if alloc.mem_mib > config.mem_mib {
                    return Err(format!(
                        "pm {} ({level}): mem alloc {} MiB exceeds capacity {} MiB",
                        host.id().0,
                        alloc.mem_mib,
                        config.mem_mib
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The SlackVM architecture: one shared pool of partitioned workers; all
/// levels coexist; targets picked by a configurable policy (the paper's
/// progress scorer by default); vClusters kept as per-level views.
pub struct SharedDeployment {
    /// The shared pool.
    pub cluster: Cluster<PhysicalMachine>,
    /// Placement policy (progress scorer unless overridden).
    pub policy: PlacementPolicy,
    vclusters: BTreeMap<OversubLevel, VCluster>,
}

pub use slackvm_sched::DEFAULT_CONSOLIDATION_WEIGHT;

impl SharedDeployment {
    /// Builds a shared pool whose workers expose `topology` and
    /// `mem_mib`, scored by the paper's progress metric with the default
    /// consolidation tiebreak, and topology-driven core selection.
    pub fn new(topology: Arc<CpuTopology>, mem_mib: u64) -> Self {
        Self::with_policy(
            topology,
            mem_mib,
            PlacementPolicy::scored(CompositeScorer::progress_with_consolidation(
                DEFAULT_CONSOLIDATION_WEIGHT,
            )),
        )
    }

    /// Builds a shared pool scored by the *pure* Algorithm 2 progress
    /// metric (no consolidation term) — the paper-exact scorer, kept for
    /// the ablation studies.
    pub fn paper_pure(topology: Arc<CpuTopology>, mem_mib: u64) -> Self {
        Self::with_policy(
            topology,
            mem_mib,
            PlacementPolicy::scored(ProgressScorer::paper()),
        )
    }

    /// Builds a *heterogeneous* shared pool: newly-opened workers cycle
    /// through `shapes` (`(topology, mem_mib)` pairs). Algorithm 2
    /// computes each machine's target ratio individually, so mixed
    /// hardware generations share one pool — the paper's "heterogeneous
    /// hardware" consideration (§VI) as a first-class deployment.
    pub fn heterogeneous(shapes: Vec<(Arc<CpuTopology>, u64)>, policy: PlacementPolicy) -> Self {
        assert!(!shapes.is_empty(), "at least one worker shape required");
        let selections: Vec<Arc<dyn SelectionPolicy + Send + Sync>> = shapes
            .iter()
            .map(|(topology, _)| {
                Arc::new(TopologySelection::new(DistanceMatrix::build(topology)))
                    as Arc<dyn SelectionPolicy + Send + Sync>
            })
            .collect();
        let factory = move |id: PmId| {
            let i = id.0 as usize % shapes.len();
            let (topology, mem_mib) = &shapes[i];
            PhysicalMachine::new(
                id,
                Arc::clone(topology),
                *mem_mib,
                Arc::clone(&selections[i]),
            )
        };
        SharedDeployment {
            cluster: Cluster::new(factory),
            policy,
            vclusters: BTreeMap::new(),
        }
    }

    /// Builds a shared pool capped at `max_hosts` workers, for
    /// rejection-path testing and capacity-planning what-ifs.
    pub fn with_capped_cluster(topology: Arc<CpuTopology>, mem_mib: u64, max_hosts: u32) -> Self {
        let mut pool = Self::new(topology, mem_mib);
        pool.cluster = std::mem::replace(
            &mut pool.cluster,
            Cluster::new(|_| unreachable!("replaced immediately")),
        )
        .with_max_hosts(max_hosts);
        pool
    }

    /// Builds a shared pool with an explicit placement policy.
    pub fn with_policy(topology: Arc<CpuTopology>, mem_mib: u64, policy: PlacementPolicy) -> Self {
        // One distance matrix + selection policy shared by every worker.
        let selection: Arc<dyn SelectionPolicy + Send + Sync> =
            Arc::new(TopologySelection::new(DistanceMatrix::build(&topology)));
        let factory = move |id: PmId| {
            PhysicalMachine::new(id, Arc::clone(&topology), mem_mib, Arc::clone(&selection))
        };
        SharedDeployment {
            cluster: Cluster::new(factory),
            policy,
            vclusters: BTreeMap::new(),
        }
    }

    /// The vCluster view for a level, if any VM of that level is (or
    /// was) hosted.
    pub fn vcluster(&self, level: OversubLevel) -> Option<&VCluster> {
        self.vclusters.get(&level)
    }

    /// Fails a worker: evicts and returns its VMs, refreshing the
    /// vCluster views. The worker stays opened but out of service.
    pub fn fail_host(&mut self, pm: PmId) -> Vec<(VmId, VmSpec)> {
        self.fail_host_recorded(pm, 0, &mut slackvm_telemetry::NullRecorder)
    }

    /// [`SharedDeployment::fail_host`] with telemetry: journals a
    /// `HostFailed` event (with the eviction count) plus one `VmEvicted`
    /// per displaced VM at `time_secs`. Re-placement outcomes belong to
    /// the caller, which journals `VmReplaced` / `VmLost`.
    pub fn fail_host_recorded<R: slackvm_telemetry::Recorder>(
        &mut self,
        pm: PmId,
        time_secs: u64,
        recorder: &mut R,
    ) -> Vec<(VmId, VmSpec)> {
        let evicted = self.cluster.fail_host(pm);
        if recorder.enabled() {
            use slackvm_telemetry::Event;
            recorder.record(
                time_secs,
                Event::HostFailed {
                    pm,
                    evicted: evicted.len() as u32,
                },
            );
            for (id, _) in &evicted {
                recorder.record(time_secs, Event::VmEvicted { vm: *id, pm });
            }
        }
        let levels: std::collections::BTreeSet<OversubLevel> =
            evicted.iter().map(|(_, spec)| spec.level).collect();
        for level in levels {
            self.refresh_vcluster_recorded(pm, level, time_secs, recorder);
        }
        evicted
    }

    /// Returns a failed worker to service (e.g. after repair).
    pub fn repair_host(&mut self, pm: PmId) {
        self.cluster.repair_host(pm);
    }

    /// Cluster observables; the per-level width is the total vNode cores
    /// currently dedicated to each oversubscription level across the pool.
    pub fn observables(&self) -> crate::observe::ClusterObservables {
        let mut obs = crate::observe::observe_hosts(
            self.cluster.hosts().iter(),
            self.cluster.num_vms() as u64,
        );
        let mut widths: BTreeMap<u32, f64> = BTreeMap::new();
        for host in self.cluster.hosts() {
            for vnode in host.vnodes() {
                if vnode.num_vms() > 0 {
                    *widths.entry(vnode.level().ratio()).or_insert(0.0) += vnode.num_cores() as f64;
                }
            }
        }
        obs.level_width_cores = widths;
        obs
    }

    /// Audits every opened worker's full hypervisor invariants (core
    /// pinning, vNode spans, capacity bounds) via
    /// [`PhysicalMachine::check_invariants`].
    pub fn check_invariants(&self) -> Result<(), String> {
        for host in self.cluster.hosts() {
            host.check_invariants()
                .map_err(|e| format!("pm {}: {e}", host.id().0))?;
        }
        Ok(())
    }

    /// Aggregated pin churn across all workers.
    pub fn total_churn(&self) -> PinChurn {
        let mut total = PinChurn::default();
        for host in self.cluster.hosts() {
            total.merge(host.churn());
        }
        total
    }

    /// Vertically resizes a hosted VM in place, refreshing the vCluster
    /// view. Fails without side effects when the hosting worker cannot
    /// absorb the new size.
    pub fn resize(&mut self, id: VmId, vcpus: u32, mem_mib: u64) -> Result<(), SimError> {
        self.resize_recorded(id, vcpus, mem_mib, 0, &mut slackvm_telemetry::NullRecorder)
    }

    /// [`SharedDeployment::resize`] with telemetry: the vNode grow or
    /// shrink an accepted resize triggers is journalled at `time_secs`
    /// (the `VmResized` outcome event belongs to the engine, which also
    /// sees rejected resizes).
    pub fn resize_recorded<R: slackvm_telemetry::Recorder>(
        &mut self,
        id: VmId,
        vcpus: u32,
        mem_mib: u64,
        time_secs: u64,
        recorder: &mut R,
    ) -> Result<(), SimError> {
        let pm = self
            .cluster
            .location_of(id)
            .ok_or(SimError::UnknownVm(id))?;
        let level = self
            .cluster
            .host(pm)
            .and_then(|h| h.level_of(id))
            .expect("placement is consistent");
        self.cluster.resize_vm(id, vcpus, mem_mib)?;
        self.refresh_vcluster_recorded(pm, level, time_secs, recorder);
        Ok(())
    }

    /// Executes one compaction round (the paper's future-work live
    /// migration, made concrete): plans over current snapshots, applies
    /// every move, and returns `(migrations, drained PMs)`. Moves whose
    /// destination meanwhile cannot take the VM are skipped — the plan
    /// is advisory, the cluster state is authoritative.
    pub fn compact_now(&mut self) -> (u32, u32) {
        self.compact_now_recorded(0, &mut slackvm_telemetry::NullRecorder)
    }

    /// [`SharedDeployment::compact_now`] with telemetry: the planning
    /// pass is timed and journalled (one `CompactionPlanned` plus a
    /// `CompactionMove` per planned migration) at `time_secs`, and the
    /// vNode resizes of applied moves are journalled as they land.
    pub fn compact_now_recorded<R: slackvm_telemetry::Recorder>(
        &mut self,
        time_secs: u64,
        recorder: &mut R,
    ) -> (u32, u32) {
        // Failed workers are out of service: their (evicted) snapshots
        // must not enter the plan as sources, and moves onto them would
        // be silently refused by `migrate` — keep them out entirely.
        let snapshots: Vec<slackvm_hypervisor::MachineSnapshot> = self
            .cluster
            .hosts()
            .iter()
            .filter(|h| !self.cluster.is_failed(h.id()))
            .map(|h| h.snapshot())
            .collect();
        let plan = slackvm_hypervisor::plan_compaction_recorded(&snapshots, time_secs, recorder);
        let mut migrations = 0u32;
        for mv in &plan.moves {
            // The planner may chain a VM through several hops; apply a
            // move only when the VM is still where the plan expects it.
            if self.cluster.location_of(mv.vm) != Some(mv.from) {
                continue;
            }
            let level = self.cluster.host(mv.from).and_then(|h| h.level_of(mv.vm));
            if self.cluster.migrate(mv.vm, mv.to).is_ok() {
                migrations += 1;
                if let Some(level) = level {
                    self.refresh_vcluster_recorded(mv.from, level, time_secs, recorder);
                    self.refresh_vcluster_recorded(mv.to, level, time_secs, recorder);
                }
            }
        }
        let drained = self
            .cluster
            .hosts()
            .iter()
            .filter(|h| plan.releasable.contains(&h.id()) && h.is_idle())
            .count() as u32;
        (migrations, drained)
    }

    /// Refreshes one vCluster membership, journalling the vNode
    /// lifecycle transition the refresh reveals: created, grew, shrunk,
    /// or dissolved (the local scheduler resizes spans on every arrival
    /// and departure, paper §V).
    fn refresh_vcluster_recorded<R: slackvm_telemetry::Recorder>(
        &mut self,
        pm: PmId,
        level: OversubLevel,
        time_secs: u64,
        recorder: &mut R,
    ) {
        let member = self
            .cluster
            .host(pm)
            .and_then(|h| h.vnode(level))
            .map(|v| VClusterMember {
                cores: v.num_cores(),
                vcpus: v.total_vcpus(),
                mem_mib: v.total_mem_mib(),
                vms: v.num_vms(),
            })
            .unwrap_or_default();
        if recorder.enabled() {
            use slackvm_telemetry::Event;
            let old = self
                .vclusters
                .get(&level)
                .and_then(|vc| vc.member(pm))
                .copied()
                .unwrap_or_default();
            let n = level.ratio();
            if old.vms == 0 && member.vms > 0 {
                recorder.record(
                    time_secs,
                    Event::VNodeCreated {
                        pm,
                        level: n,
                        cores: member.cores,
                    },
                );
            } else if old.vms > 0 && member.vms == 0 {
                recorder.record(time_secs, Event::VNodeDissolved { pm, level: n });
            } else if member.cores > old.cores {
                recorder.record(
                    time_secs,
                    Event::VNodeGrew {
                        pm,
                        level: n,
                        cores_before: old.cores,
                        cores_after: member.cores,
                    },
                );
            } else if member.cores < old.cores {
                recorder.record(
                    time_secs,
                    Event::VNodeShrunk {
                        pm,
                        level: n,
                        cores_before: old.cores,
                        cores_after: member.cores,
                    },
                );
            }
        }
        self.vclusters
            .entry(level)
            .or_insert_with(|| VCluster::new(level))
            .update(pm, member);
    }

    /// Places a VM on the shared pool (public for direct driving in
    /// tests and tools; the engine goes through [`DeploymentModel`]).
    pub fn deploy(&mut self, id: VmId, spec: VmSpec) -> Result<PmId, SimError> {
        self.deploy_recorded(id, spec, 0, &mut slackvm_telemetry::NullRecorder)
    }

    /// [`SharedDeployment::deploy`] with telemetry: the scheduler's
    /// scoring loop is timed, and PM-open plus vNode lifecycle events
    /// are journalled at `time_secs`.
    pub fn deploy_recorded<R: slackvm_telemetry::Recorder>(
        &mut self,
        id: VmId,
        spec: VmSpec,
        time_secs: u64,
        recorder: &mut R,
    ) -> Result<PmId, SimError> {
        let pm = self
            .cluster
            .deploy_recorded(id, spec, &self.policy, time_secs, recorder)?;
        self.refresh_vcluster_recorded(pm, spec.level, time_secs, recorder);
        Ok(pm)
    }

    /// Restores a captured pool state onto this freshly built, empty
    /// pool, then rebuilds the per-level vCluster views from the
    /// restored hosts.
    pub fn restore_state(&mut self, state: &ClusterState) -> Result<(), String> {
        restore_cluster(&mut self.cluster, state)?;
        let touched: std::collections::BTreeSet<(PmId, OversubLevel)> = state
            .placements
            .iter()
            .map(|p| (p.pm, p.spec.level))
            .collect();
        for (pm, level) in touched {
            self.refresh_vcluster_recorded(pm, level, 0, &mut slackvm_telemetry::NullRecorder);
        }
        Ok(())
    }

    /// Removes a VM from the shared pool.
    pub fn remove(&mut self, id: VmId) -> Result<PmId, SimError> {
        self.remove_recorded(id, 0, &mut slackvm_telemetry::NullRecorder)
    }

    /// Moves a VM to a specific worker, returning the source PM and
    /// refreshing the vCluster views at both endpoints. Fails without
    /// side effects when the VM is unknown or the destination cannot
    /// take it (including failed destinations).
    pub fn migrate_vm(&mut self, id: VmId, to: PmId) -> Result<PmId, SimError> {
        let from = self
            .cluster
            .location_of(id)
            .ok_or(SimError::UnknownVm(id))?;
        let level = self
            .cluster
            .host(from)
            .and_then(|h| h.level_of(id))
            .expect("placement is consistent");
        self.cluster.migrate(id, to)?;
        if from != to {
            let recorder = &mut slackvm_telemetry::NullRecorder;
            self.refresh_vcluster_recorded(from, level, 0, recorder);
            self.refresh_vcluster_recorded(to, level, 0, recorder);
        }
        Ok(from)
    }

    /// [`SharedDeployment::remove`] with telemetry: the vNode shrink or
    /// dissolution the departure triggers is journalled at `time_secs`.
    pub fn remove_recorded<R: slackvm_telemetry::Recorder>(
        &mut self,
        id: VmId,
        time_secs: u64,
        recorder: &mut R,
    ) -> Result<PmId, SimError> {
        let level = self
            .cluster
            .location_of(id)
            .and_then(|pm| self.cluster.host(pm))
            .and_then(|h| h.level_of(id))
            .ok_or(SimError::UnknownVm(id))?;
        let pm = self.cluster.remove(id)?;
        self.refresh_vcluster_recorded(pm, level, time_secs, recorder);
        Ok(pm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_model::gib;
    use slackvm_topology::builders;

    fn spec(vcpus: u32, mem_gib: u64, level: u32) -> VmSpec {
        VmSpec::of(vcpus, gib(mem_gib), OversubLevel::of(level))
    }

    fn levels() -> Vec<OversubLevel> {
        vec![
            OversubLevel::of(1),
            OversubLevel::of(2),
            OversubLevel::of(3),
        ]
    }

    #[test]
    fn dedicated_routes_by_level() {
        let mut d = DedicatedDeployment::new(PmConfig::simulation_host(), levels());
        d.deploy(VmId(0), spec(2, 4, 1)).unwrap();
        d.deploy(VmId(1), spec(2, 4, 3)).unwrap();
        assert_eq!(d.opened_pms(), 2);
        let per = d.opened_per_level();
        assert_eq!(per[&OversubLevel::of(1)], 1);
        assert_eq!(per[&OversubLevel::of(2)], 0);
        assert_eq!(per[&OversubLevel::of(3)], 1);
        d.remove(VmId(0)).unwrap();
        assert!(matches!(d.remove(VmId(0)), Err(SimError::UnknownVm(_))));
    }

    #[test]
    fn dedicated_opens_cluster_for_unconfigured_level() {
        let mut d = DedicatedDeployment::new(PmConfig::simulation_host(), vec![]);
        d.deploy(VmId(0), spec(2, 4, 2)).unwrap();
        assert_eq!(d.opened_pms(), 1);
    }

    #[test]
    fn shared_cohosts_levels_on_one_pm() {
        let mut s = SharedDeployment::new(Arc::new(builders::flat(32)), gib(128));
        let model_pm0 = s.deploy(VmId(0), spec(2, 4, 1)).unwrap();
        let pm1 = s.deploy(VmId(1), spec(2, 4, 3)).unwrap();
        assert_eq!(model_pm0, pm1, "both levels fit on the first worker");
        assert_eq!(s.cluster.opened(), 1);
        let vc3 = s.vcluster(OversubLevel::of(3)).unwrap();
        assert_eq!(vc3.total_vms(), 1);
        assert_eq!(vc3.total_cores(), 1);
    }

    #[test]
    fn shared_vcluster_tracks_departures() {
        let mut s = SharedDeployment::new(Arc::new(builders::flat(32)), gib(128));
        s.deploy(VmId(0), spec(3, 3, 3)).unwrap();
        s.deploy(VmId(1), spec(3, 3, 3)).unwrap();
        assert_eq!(s.vcluster(OversubLevel::of(3)).unwrap().total_vcpus(), 6);
        s.remove(VmId(0)).unwrap();
        assert_eq!(s.vcluster(OversubLevel::of(3)).unwrap().total_vcpus(), 3);
        s.remove(VmId(1)).unwrap();
        assert_eq!(s.vcluster(OversubLevel::of(3)).unwrap().num_members(), 0);
    }

    #[test]
    fn model_names() {
        let d = DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::simulation_host(),
            levels(),
        ));
        assert_eq!(d.name(), "dedicated/first-fit");
        let s = DeploymentModel::Shared(SharedDeployment::new(
            Arc::new(builders::flat(32)),
            gib(128),
        ));
        assert_eq!(s.name(), "slackvm/progress+bestfit");
    }

    #[test]
    fn heterogeneous_pool_cycles_shapes_and_targets() {
        use slackvm_sched::ProgressScorer;
        let shapes = vec![
            (Arc::new(builders::flat(48)), gib(96)),  // M/C 2
            (Arc::new(builders::flat(16)), gib(128)), // M/C 8
        ];
        let mut s = SharedDeployment::heterogeneous(
            shapes,
            PlacementPolicy::scored(ProgressScorer::paper()),
        );
        // Force two workers open with big premium VMs.
        s.deploy(VmId(0), spec(40, 40, 1)).unwrap();
        s.deploy(VmId(1), spec(12, 90, 1)).unwrap();
        let hosts = s.cluster.hosts();
        assert_eq!(hosts[0].config().cores, 48);
        assert_eq!(hosts[0].config().target_ratio().gib_per_core(), 2.0);
        assert_eq!(hosts[1].config().cores, 16);
        assert_eq!(hosts[1].config().target_ratio().gib_per_core(), 8.0);
        // The scorer routes a memory-heavy VM to the CPU-rich worker
        // only if it rebalances; here worker 0 hosts a CPU-heavy load
        // (ratio 1), so a memory-heavy VM improves it.
        let pm = s.deploy(VmId(2), spec(1, 16, 1)).unwrap();
        assert_eq!(pm, PmId(0));
        for host in s.cluster.hosts() {
            host.check_invariants().unwrap();
        }
    }

    #[test]
    fn shared_state_roundtrips_through_capture() {
        let mut s =
            DeploymentModel::Shared(SharedDeployment::new(Arc::new(builders::flat(8)), gib(32)));
        for i in 0..10u64 {
            s.deploy(
                VmId(i),
                spec(2 + (i % 3) as u32, 1 + i % 4, 1 + (i % 3) as u32),
            )
            .unwrap();
        }
        s.remove(VmId(4)).unwrap();
        s.resize(VmId(7), 1, gib(1)).unwrap();
        let state = s.capture_state();
        let mut restored =
            DeploymentModel::Shared(SharedDeployment::new(Arc::new(builders::flat(8)), gib(32)));
        restored.restore_state(&state).unwrap();
        restored.check_invariants().unwrap();
        assert_eq!(restored.capture_state().normalized(), state.normalized());
        assert_eq!(restored.opened_pms(), s.opened_pms());
        assert_eq!(restored.totals(), s.totals());
        // The restored pool keeps making the same decisions.
        let a = s.deploy(VmId(100), spec(2, 2, 1)).unwrap();
        let b = restored.deploy(VmId(100), spec(2, 2, 1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn dedicated_state_roundtrips_through_capture() {
        let mut d = DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::simulation_host(),
            levels(),
        ));
        for i in 0..8u64 {
            d.deploy(VmId(i), spec(4, 4, 1 + (i % 3) as u32)).unwrap();
        }
        d.remove(VmId(2)).unwrap();
        let state = d.capture_state();
        let mut restored = DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::simulation_host(),
            levels(),
        ));
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.capture_state().normalized(), state.normalized());
        assert_eq!(restored.opened_pms(), d.opened_pms());
        restored.check_invariants().unwrap();
    }

    #[test]
    fn restore_rejects_mismatched_model_kind() {
        let s =
            DeploymentModel::Shared(SharedDeployment::new(Arc::new(builders::flat(8)), gib(32)));
        let state = s.capture_state();
        let mut d = DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::simulation_host(),
            levels(),
        ));
        assert!(d.restore_state(&state).is_err());
    }

    #[test]
    fn restore_placement_is_directed() {
        let mut s =
            DeploymentModel::Shared(SharedDeployment::new(Arc::new(builders::flat(8)), gib(32)));
        // Force pm 1 open even though pm 0 would have been chosen.
        s.restore_placement(VmId(1), spec(2, 2, 1), PmId(1))
            .unwrap();
        assert_eq!(s.opened_pms(), 2);
        // A duplicate id is refused, not silently double-placed.
        assert!(s
            .restore_placement(VmId(1), spec(2, 2, 1), PmId(0))
            .is_err());
        s.check_invariants().unwrap();
    }

    #[test]
    fn model_migrate_moves_and_is_side_effect_free_on_failure() {
        // Shared pool: spread two workers, migrate back, vClusters track.
        let mut s =
            DeploymentModel::Shared(SharedDeployment::new(Arc::new(builders::flat(8)), gib(32)));
        s.deploy(VmId(0), spec(6, 6, 1)).unwrap();
        s.deploy(VmId(1), spec(6, 6, 1)).unwrap(); // forces pm 1 open
        s.deploy(VmId(2), spec(2, 2, 3)).unwrap();
        let from = s.location_of(VmId(2)).unwrap();
        let to = if from == PmId(0) { PmId(1) } else { PmId(0) };
        assert_eq!(s.migrate(VmId(2), to).unwrap(), from);
        assert_eq!(s.location_of(VmId(2)), Some(to));
        s.check_invariants().unwrap();
        // An infeasible destination leaves everything in place.
        let before = s.capture_state().normalized();
        assert!(s.migrate(VmId(0), to).is_err());
        assert_eq!(s.capture_state().normalized(), before);
        assert!(matches!(
            s.migrate(VmId(99), PmId(0)),
            Err(SimError::UnknownVm(_))
        ));

        // Dedicated baseline: moves stay inside the VM's level cluster.
        let mut d = DeploymentModel::Dedicated(DedicatedDeployment::new(
            PmConfig::simulation_host(),
            levels(),
        ));
        d.deploy(VmId(0), spec(20, 20, 1)).unwrap();
        d.deploy(VmId(1), spec(20, 20, 1)).unwrap();
        d.deploy(VmId(2), spec(4, 4, 1)).unwrap();
        let from = d.location_of(VmId(2)).unwrap();
        let to = if from == PmId(0) { PmId(1) } else { PmId(0) };
        assert_eq!(d.migrate(VmId(2), to).unwrap(), from);
        assert_eq!(d.location_of(VmId(2)), Some(to));
        d.check_invariants().unwrap();
    }

    #[test]
    fn compaction_skips_failed_workers() {
        // Two lightly-loaded workers would normally consolidate; fail
        // the destination and the planner must not touch it.
        let mut s = SharedDeployment::with_policy(
            Arc::new(builders::flat(32)),
            gib(128),
            PlacementPolicy::FirstFit,
        );
        s.deploy(VmId(0), spec(20, 20, 1)).unwrap();
        s.deploy(VmId(1), spec(20, 20, 1)).unwrap();
        s.remove(VmId(0)).unwrap();
        s.deploy(VmId(2), spec(2, 2, 1)).unwrap();
        let victim_pm = s.cluster.location_of(VmId(2)).unwrap();
        assert_eq!(victim_pm, PmId(0), "first-fit backfills the freed host");
        let other = PmId(1);
        let evicted = s.fail_host(other);
        assert_eq!(evicted.len(), 1, "the big VM evicts");
        let (migrations, _) = s.compact_now();
        assert_eq!(migrations, 0, "no live destination exists");
        assert_eq!(s.cluster.location_of(VmId(2)), Some(victim_pm));
        s.check_invariants().unwrap();
    }

    #[test]
    fn shared_churn_aggregates() {
        let mut s = SharedDeployment::new(Arc::new(builders::flat(32)), gib(128));
        s.deploy(VmId(0), spec(2, 4, 1)).unwrap();
        s.deploy(VmId(1), spec(2, 4, 2)).unwrap();
        let churn = s.total_churn();
        assert_eq!(churn.vnodes_created, 2);
        assert!(churn.cores_added >= 3);
    }
}
