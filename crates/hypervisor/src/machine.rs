//! The partitioned SlackVM worker.

use std::collections::BTreeMap;
use std::sync::Arc;

use slackvm_model::{AllocView, Millicores, OversubLevel, PmConfig, PmId, VmId, VmSpec};
use slackvm_topology::{
    CoreId, CoreSet, CpuTopology, DistanceMatrix, SelectionPolicy, TopologySelection,
};

use crate::error::HypervisorError;
use crate::host::Host;
use crate::stats::PinChurn;
use crate::vnode::VNode;

/// A physical machine managed by the SlackVM local scheduler: its cores
/// are partitioned into per-level vNodes that grow and shrink with the
/// hosted VM set (paper §V).
///
/// CPU accounting is whole-core: the machine's allocated CPU is the union
/// of its vNode spans, which is also exactly what the pinning layer would
/// reserve. Memory is not oversubscribed unless a `mem_ratio` is set.
///
/// ```
/// use slackvm_hypervisor::{Host, PhysicalMachine};
/// use slackvm_model::{gib, OversubLevel, PmId, VmId, VmSpec};
/// use slackvm_topology::builders::flat;
/// use std::sync::Arc;
///
/// let mut pm = PhysicalMachine::with_topology_policy(PmId(0), Arc::new(flat(32)), gib(128));
/// // Three 1-vCPU VMs at 3:1 share a single physical core.
/// for i in 0..3 {
///     pm.deploy(VmId(i), VmSpec::of(1, gib(1), OversubLevel::of(3))).unwrap();
/// }
/// assert_eq!(pm.vnode(OversubLevel::of(3)).unwrap().num_cores(), 1);
/// ```
#[derive(Clone)]
pub struct PhysicalMachine {
    id: PmId,
    topology: Arc<CpuTopology>,
    policy: Arc<dyn SelectionPolicy + Send + Sync>,
    mem_capacity_mib: u64,
    mem_used_mib: u64,
    vnodes: BTreeMap<OversubLevel, VNode>,
    /// Union of all vNode spans.
    assigned: CoreSet,
    /// Scratch for `grow_vnode`: the complement of `assigned`, rebuilt at
    /// the start of each growth and meaningless in between. Kept here so
    /// that growing allocates nothing.
    free_scratch: CoreSet,
    vm_index: BTreeMap<VmId, OversubLevel>,
    churn: PinChurn,
}

impl std::fmt::Debug for PhysicalMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysicalMachine")
            .field("id", &self.id)
            .field("cores", &self.topology.num_cores())
            .field("mem_capacity_mib", &self.mem_capacity_mib)
            .field("mem_used_mib", &self.mem_used_mib)
            .field("vnodes", &self.vnodes.len())
            .field("vms", &self.vm_index.len())
            .finish()
    }
}

impl PhysicalMachine {
    /// Creates a machine with an explicit selection policy.
    pub fn new(
        id: PmId,
        topology: Arc<CpuTopology>,
        mem_capacity_mib: u64,
        policy: Arc<dyn SelectionPolicy + Send + Sync>,
    ) -> Self {
        let cores = topology.num_cores();
        PhysicalMachine {
            id,
            topology,
            policy,
            mem_capacity_mib,
            mem_used_mib: 0,
            vnodes: BTreeMap::new(),
            assigned: CoreSet::with_capacity(cores),
            free_scratch: CoreSet::with_capacity(cores),
            vm_index: BTreeMap::new(),
            churn: PinChurn::default(),
        }
    }

    /// Creates a machine with the paper's topology-driven selection
    /// policy (distance matrix precomputed from `topology`).
    pub fn with_topology_policy(
        id: PmId,
        topology: Arc<CpuTopology>,
        mem_capacity_mib: u64,
    ) -> Self {
        let policy = Arc::new(TopologySelection::new(DistanceMatrix::build(&topology)));
        Self::new(id, topology, mem_capacity_mib, policy)
    }

    /// Creates a machine whose memory is oversubscribed per `policy`
    /// (the §VIII "memory knob" perspective): the machine exposes
    /// `physical_mem_mib × policy.mem_ratio` MiB to its allocations.
    pub fn with_mem_oversub(
        id: PmId,
        topology: Arc<CpuTopology>,
        physical_mem_mib: u64,
        policy: slackvm_model::OversubPolicy,
    ) -> Self {
        let effective = policy.effective_mem_mib(physical_mem_mib);
        Self::with_topology_policy(id, topology, effective)
    }

    /// The machine's topology.
    pub fn topology(&self) -> &CpuTopology {
        &self.topology
    }

    /// The selection policy in use.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The vNode hosting `level`, if any.
    pub fn vnode(&self, level: OversubLevel) -> Option<&VNode> {
        self.vnodes.get(&level)
    }

    /// All vNodes, ascending by level.
    pub fn vnodes(&self) -> impl Iterator<Item = &VNode> {
        self.vnodes.values()
    }

    /// Cores not assigned to any vNode, ascending — an allocating
    /// convenience for pooling, reports and tests.
    pub fn free_cores(&self) -> Vec<CoreId> {
        self.topology
            .core_ids()
            .filter(|&c| !self.assigned.contains(c))
            .collect()
    }

    /// Number of unassigned cores.
    pub fn free_core_count(&self) -> u32 {
        self.topology.num_cores() - self.assigned.len() as u32
    }

    /// Free memory in MiB.
    pub fn free_mem_mib(&self) -> u64 {
        self.mem_capacity_mib - self.mem_used_mib
    }

    /// Accumulated pin-churn counters.
    pub fn churn(&self) -> &PinChurn {
        &self.churn
    }

    /// The level a hosted VM belongs to.
    pub fn level_of(&self, id: VmId) -> Option<OversubLevel> {
        self.vm_index.get(&id).copied()
    }

    /// The guest-visible topology of a level's vNode (paper §V-A's
    /// "exposing a virtual topology").
    pub fn virtual_topology(&self, level: OversubLevel) -> Option<crate::VirtualTopology> {
        self.vnodes
            .get(&level)
            .map(|v| crate::VirtualTopology::of(&self.topology, &v.core_vec()))
    }

    /// A planning snapshot of the machine (config + hosted VMs), the
    /// input of the compaction analyzer.
    pub fn snapshot(&self) -> crate::MachineSnapshot {
        let mut vms = Vec::with_capacity(self.vm_index.len());
        for vnode in self.vnodes.values() {
            vms.extend(vnode.vms().map(|(id, spec)| (*id, *spec)));
        }
        vms.sort_by_key(|(id, _)| *id);
        crate::MachineSnapshot {
            pm: self.id,
            config: self.config(),
            vms,
        }
    }

    /// Cores the deployment of `spec` would add to its vNode (zero when
    /// headroom inside the existing span suffices).
    fn growth_required(&self, spec: &VmSpec) -> u32 {
        match self.vnodes.get(&spec.level) {
            Some(vnode) => vnode.growth_for(spec.vcpus()),
            None => spec.level.cores_needed(spec.vcpus()),
        }
    }

    /// Grows (or seeds) the vNode for `level` by `growth` cores, chosen
    /// one at a time by the selection policy.
    fn grow_vnode(&mut self, level: OversubLevel, growth: u32) -> Result<(), HypervisorError> {
        let free_count = self.free_core_count();
        if free_count < growth {
            return Err(HypervisorError::InsufficientCpu {
                level,
                needed: growth,
                free: free_count,
            });
        }
        let fresh = !self.vnodes.contains_key(&level);
        let vnode = self
            .vnodes
            .entry(level)
            .or_insert_with(|| VNode::new(level));
        if fresh {
            self.churn.vnodes_created += 1;
        }
        if growth > 0 {
            let free = &mut self.free_scratch;
            free.assign_complement(&self.assigned, self.topology.num_cores());
            for step in 0..growth {
                let chosen = if vnode.cores().is_empty() {
                    // Seeding is only ever the first step, so `assigned`
                    // is still what the other vNodes held at entry.
                    self.policy.pick_seed(&self.assigned, free)
                } else {
                    self.policy.pick_expansion(vnode.cores(), free)
                }
                .unwrap_or_else(|| unreachable!("free set sized above; step {step}"));
                vnode.add_core(chosen);
                self.assigned.insert(chosen);
                free.remove(chosen);
            }
            let vms = vnode.num_vms();
            self.churn.record_expansion(growth, vms);
        }
        Ok(())
    }

    /// Shrinks the vNode of `level` to its tight size, releasing surplus
    /// cores chosen by the policy; dissolves the vNode when empty.
    fn shrink_vnode(&mut self, level: OversubLevel) {
        let Some(vnode) = self.vnodes.get_mut(&level) else {
            return;
        };
        let surplus = vnode.surplus_cores();
        if surplus > 0 {
            for _ in 0..surplus {
                if let Some(victim) = self.policy.pick_release(vnode.cores()) {
                    vnode.release_core(victim);
                    self.assigned.remove(victim);
                }
            }
            let vms = vnode.num_vms();
            self.churn.record_shrink(surplus, vms);
        }
        if vnode.is_empty() {
            debug_assert_eq!(vnode.num_cores(), 0, "empty vNode kept cores");
            self.vnodes.remove(&level);
            self.churn.vnodes_dissolved += 1;
        }
    }

    /// Vertically resizes a hosted VM in place (same oversubscription
    /// level). The operation is atomic: feasibility is checked before
    /// any mutation, so failure leaves the machine untouched. The vNode
    /// grows or shrinks exactly as if the VM had been redeployed, but
    /// without releasing its slot in between — no other tenant can steal
    /// the capacity mid-resize. Zero dimensions are clamped to 1 (a VM
    /// cannot resize itself away; use [`Host::remove`] for that).
    pub fn resize_vm(
        &mut self,
        id: VmId,
        new_vcpus: u32,
        new_mem_mib: u64,
    ) -> Result<(), HypervisorError> {
        let level = self
            .vm_index
            .get(&id)
            .copied()
            .ok_or(HypervisorError::UnknownVm(id))?;
        let new_spec = VmSpec::of(new_vcpus.max(1), new_mem_mib.max(1), level);
        let vnode = self.vnodes.get(&level).expect("indexed vNode exists");
        let old_spec = *vnode.spec_of(id).expect("indexed VM exists in vNode");

        // Feasibility first: memory...
        let mem_grow = new_spec.mem_mib().saturating_sub(old_spec.mem_mib());
        if mem_grow > self.free_mem_mib() {
            return Err(HypervisorError::InsufficientMemory {
                requested_mib: mem_grow,
                free_mib: self.free_mem_mib(),
            });
        }
        // ...then cores for the post-resize vNode population.
        let post_vcpus = vnode.total_vcpus() - old_spec.vcpus() + new_spec.vcpus();
        let needed = level.cores_needed(post_vcpus);
        let growth = needed.saturating_sub(vnode.num_cores());
        if growth > self.free_core_count() {
            return Err(HypervisorError::InsufficientCpu {
                level,
                needed: growth,
                free: self.free_core_count(),
            });
        }

        // Commit: grow the span, swap the spec, shrink if oversized.
        self.grow_vnode(level, growth)
            .expect("feasibility checked above");
        let vnode = self.vnodes.get_mut(&level).expect("still present");
        vnode.remove_vm(id).expect("checked above");
        vnode.insert_vm(id, new_spec);
        self.mem_used_mib = self.mem_used_mib - old_spec.mem_mib() + new_spec.mem_mib();
        self.shrink_vnode(level);
        Ok(())
    }

    /// Verifies internal invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = CoreSet::new();
        for vnode in self.vnodes.values() {
            // Spans are disjoint.
            for core in vnode.cores() {
                if !seen.insert(core) {
                    return Err(format!("core {core} in two vNodes"));
                }
                if !self.assigned.contains(core) {
                    return Err(format!("core {core} missing from assigned set"));
                }
            }
            // Each span satisfies its level.
            let needed = vnode.level().cores_needed(vnode.total_vcpus());
            if needed > vnode.num_cores() {
                return Err(format!(
                    "vNode {} has {} cores but needs {}",
                    vnode.level(),
                    vnode.num_cores(),
                    needed
                ));
            }
            // Spans are tight (machine shrinks eagerly).
            if vnode.num_cores() > needed {
                return Err(format!(
                    "vNode {} holds {} surplus core(s)",
                    vnode.level(),
                    vnode.num_cores() - needed
                ));
            }
        }
        if seen.len() != self.assigned.len() {
            return Err("assigned set contains cores of no vNode".into());
        }
        if let Some(core) = self.assigned.last() {
            if core.0 >= self.topology.num_cores() {
                return Err(format!("core {core} is not in the topology"));
            }
        }
        let mem: u64 = self.vnodes.values().map(|v| v.total_mem_mib()).sum();
        if mem != self.mem_used_mib {
            return Err(format!(
                "memory accounting drift: vNodes sum {mem}, counter {}",
                self.mem_used_mib
            ));
        }
        Ok(())
    }
}

impl Host for PhysicalMachine {
    fn id(&self) -> PmId {
        self.id
    }

    fn config(&self) -> PmConfig {
        PmConfig::of(self.topology.num_cores(), self.mem_capacity_mib)
    }

    fn alloc(&self) -> AllocView {
        AllocView::new(
            Millicores::from_cores(self.assigned.len() as u32),
            self.mem_used_mib,
        )
    }

    fn can_host(&self, spec: &VmSpec) -> bool {
        spec.mem_mib() <= self.free_mem_mib()
            && self.growth_required(spec) <= self.free_core_count()
    }

    fn deploy(&mut self, id: VmId, spec: VmSpec) -> Result<(), HypervisorError> {
        if self.vm_index.contains_key(&id) {
            return Err(HypervisorError::DuplicateVm(id));
        }
        if spec.mem_mib() > self.free_mem_mib() {
            return Err(HypervisorError::InsufficientMemory {
                requested_mib: spec.mem_mib(),
                free_mib: self.free_mem_mib(),
            });
        }
        let growth = self.growth_required(&spec);
        self.grow_vnode(spec.level, growth)?;
        let vnode = self
            .vnodes
            .get_mut(&spec.level)
            .expect("grow_vnode created the vNode");
        vnode.insert_vm(id, spec);
        self.mem_used_mib += spec.mem_mib();
        self.vm_index.insert(id, spec.level);
        Ok(())
    }

    fn remove(&mut self, id: VmId) -> Result<VmSpec, HypervisorError> {
        let level = self
            .vm_index
            .remove(&id)
            .ok_or(HypervisorError::UnknownVm(id))?;
        let vnode = self.vnodes.get_mut(&level).expect("indexed vNode exists");
        let spec = vnode.remove_vm(id).expect("indexed VM exists in vNode");
        self.mem_used_mib -= spec.mem_mib();
        self.shrink_vnode(level);
        Ok(spec)
    }

    fn resize_vm(
        &mut self,
        id: VmId,
        new_vcpus: u32,
        new_mem_mib: u64,
    ) -> Result<(), HypervisorError> {
        PhysicalMachine::resize_vm(self, id, new_vcpus, new_mem_mib)
    }

    fn num_vms(&self) -> usize {
        self.vm_index.len()
    }

    fn vm_ids(&self) -> Vec<VmId> {
        self.vm_index.keys().copied().collect()
    }

    fn placements(&self) -> Vec<(VmId, VmSpec)> {
        self.snapshot().vms
    }

    // `admission_headroom` uses the trait default: the memory bound is
    // exact (config mem − allocated mem = free mem), and no cheap vCPU
    // bound exists — existing vNode slack can make a VM's marginal core
    // cost zero, so only `can_host` can rule on CPU.
}

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_model::gib;
    use slackvm_topology::builders;

    fn epyc_machine() -> PhysicalMachine {
        PhysicalMachine::with_topology_policy(
            PmId(0),
            Arc::new(builders::dual_epyc_7662()),
            gib(1024),
        )
    }

    fn sim_machine() -> PhysicalMachine {
        PhysicalMachine::with_topology_policy(PmId(1), Arc::new(builders::flat(32)), gib(128))
    }

    fn spec(vcpus: u32, mem_gib: u64, level: u32) -> VmSpec {
        VmSpec::of(vcpus, gib(mem_gib), OversubLevel::of(level))
    }

    #[test]
    fn deploy_seeds_grows_and_accounts() {
        let mut m = sim_machine();
        m.deploy(VmId(0), spec(2, 4, 1)).unwrap();
        assert_eq!(m.vnode(OversubLevel::of(1)).unwrap().num_cores(), 2);
        assert_eq!(m.alloc().cpu, Millicores::from_cores(2));
        assert_eq!(m.alloc().mem_mib, gib(4));
        // Three 1-vCPU VMs at 3:1 fit in one core.
        m.deploy(VmId(1), spec(1, 1, 3)).unwrap();
        m.deploy(VmId(2), spec(1, 1, 3)).unwrap();
        m.deploy(VmId(3), spec(1, 1, 3)).unwrap();
        assert_eq!(m.vnode(OversubLevel::of(3)).unwrap().num_cores(), 1);
        assert_eq!(m.alloc().cpu, Millicores::from_cores(3));
        m.check_invariants().unwrap();
    }

    #[test]
    fn remove_shrinks_and_dissolves() {
        let mut m = sim_machine();
        m.deploy(VmId(0), spec(3, 3, 3)).unwrap();
        m.deploy(VmId(1), spec(3, 3, 3)).unwrap(); // second core
        assert_eq!(m.vnode(OversubLevel::of(3)).unwrap().num_cores(), 2);
        m.remove(VmId(0)).unwrap();
        assert_eq!(m.vnode(OversubLevel::of(3)).unwrap().num_cores(), 1);
        m.remove(VmId(1)).unwrap();
        assert!(m.vnode(OversubLevel::of(3)).is_none());
        assert!(m.is_idle());
        assert_eq!(m.alloc(), AllocView::EMPTY);
        assert_eq!(m.churn().vnodes_dissolved, 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn memory_is_a_hard_wall() {
        let mut m = sim_machine(); // 128 GiB
        m.deploy(VmId(0), spec(1, 100, 1)).unwrap();
        let err = m.deploy(VmId(1), spec(1, 29, 1)).unwrap_err();
        assert!(matches!(err, HypervisorError::InsufficientMemory { .. }));
        assert!(!m.can_host(&spec(1, 29, 1)));
        assert!(m.can_host(&spec(1, 28, 1)));
    }

    #[test]
    fn cpu_is_a_hard_wall() {
        let mut m = sim_machine(); // 32 cores
        m.deploy(VmId(0), spec(30, 30, 1)).unwrap();
        assert!(m.can_host(&spec(2, 1, 1)));
        assert!(!m.can_host(&spec(3, 1, 1)));
        let err = m.deploy(VmId(1), spec(3, 1, 1)).unwrap_err();
        assert!(matches!(err, HypervisorError::InsufficientCpu { .. }));
        // But an oversubscribed VM still fits: 6 vCPUs at 3:1 = 2 cores.
        m.deploy(VmId(2), spec(6, 1, 3)).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_and_unknown_vm_errors() {
        let mut m = sim_machine();
        m.deploy(VmId(0), spec(1, 1, 1)).unwrap();
        assert_eq!(
            m.deploy(VmId(0), spec(1, 1, 1)).unwrap_err(),
            HypervisorError::DuplicateVm(VmId(0))
        );
        assert_eq!(
            m.remove(VmId(9)).unwrap_err(),
            HypervisorError::UnknownVm(VmId(9))
        );
    }

    #[test]
    fn failed_memory_deploy_leaves_state_untouched() {
        let mut m = sim_machine();
        m.deploy(VmId(0), spec(1, 120, 1)).unwrap();
        let before = m.alloc();
        let _ = m.deploy(VmId(1), spec(1, 100, 2)).unwrap_err();
        assert_eq!(m.alloc(), before);
        assert!(m.vnode(OversubLevel::of(2)).is_none());
        m.check_invariants().unwrap();
    }

    #[test]
    fn three_levels_are_isolated_on_epyc_sockets() {
        let mut m = epyc_machine();
        m.deploy(VmId(0), spec(4, 4, 1)).unwrap();
        m.deploy(VmId(1), spec(4, 4, 2)).unwrap();
        m.deploy(VmId(2), spec(4, 4, 3)).unwrap();
        let v1 = m.vnode(OversubLevel::of(1)).unwrap().core_vec();
        let v2 = m.vnode(OversubLevel::of(2)).unwrap().core_vec();
        let topo = builders::dual_epyc_7662();
        // Second vNode seeded on the other socket.
        let socket = |c: CoreId| topo.core(c).socket;
        assert_eq!(socket(v1[0]), 0);
        assert_eq!(socket(v2[0]), 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn vnode_growth_prefers_adjacent_cores() {
        let mut m = epyc_machine();
        m.deploy(VmId(0), spec(1, 1, 1)).unwrap();
        m.deploy(VmId(1), spec(1, 1, 1)).unwrap();
        let v1 = m.vnode(OversubLevel::of(1)).unwrap().core_vec();
        // Growth picked the SMT sibling (distance 0).
        assert_eq!(v1, vec![CoreId(0), CoreId(1)]);
    }

    #[test]
    fn churn_counters_track_operations() {
        let mut m = sim_machine();
        m.deploy(VmId(0), spec(1, 1, 2)).unwrap(); // create + expand 1
        m.deploy(VmId(1), spec(1, 1, 2)).unwrap(); // headroom: no expand
        m.deploy(VmId(2), spec(1, 1, 2)).unwrap(); // expand 1
        assert_eq!(m.churn().vnodes_created, 1);
        assert_eq!(m.churn().expansions, 2);
        assert_eq!(m.churn().cores_added, 2);
        m.remove(VmId(2)).unwrap(); // shrink 1
        assert_eq!(m.churn().shrinks, 1);
    }

    #[test]
    fn virtual_topology_and_snapshot_roundtrip() {
        let mut m = epyc_machine();
        m.deploy(VmId(0), spec(4, 4, 1)).unwrap();
        m.deploy(VmId(1), spec(3, 3, 3)).unwrap();
        let vt = m.virtual_topology(OversubLevel::of(1)).unwrap();
        assert_eq!(vt.threads, 4);
        assert_eq!(vt.smt_pairs, 2, "growth picked sibling pairs");
        assert!(vt.single_socket());
        assert!(m.virtual_topology(OversubLevel::of(2)).is_none());

        let snap = m.snapshot();
        assert_eq!(snap.pm, m.id());
        assert_eq!(snap.vms.len(), 2);
        assert_eq!(snap.alloc(), m.alloc());
    }

    #[test]
    fn mem_oversubscription_expands_effective_capacity() {
        let policy = slackvm_model::OversubPolicy::new(OversubLevel::of(1), 1.5).unwrap();
        let m = PhysicalMachine::with_mem_oversub(
            PmId(7),
            Arc::new(builders::flat(32)),
            gib(128),
            policy,
        );
        assert_eq!(m.config().mem_mib, gib(192));
        assert!(m.can_host(&spec(1, 150, 1)));
    }

    #[test]
    fn resize_grows_and_shrinks_in_place() {
        let mut m = sim_machine();
        m.deploy(VmId(0), spec(3, 4, 3)).unwrap(); // 1 core at 3:1
        assert_eq!(m.vnode(OversubLevel::of(3)).unwrap().num_cores(), 1);
        // Grow to 7 vCPUs: span becomes 3 cores.
        m.resize_vm(VmId(0), 7, gib(6)).unwrap();
        let v = m.vnode(OversubLevel::of(3)).unwrap();
        assert_eq!(v.total_vcpus(), 7);
        assert_eq!(v.num_cores(), 3);
        assert_eq!(m.alloc().mem_mib, gib(6));
        // Shrink back to 2 vCPUs: span tightens to 1 core.
        m.resize_vm(VmId(0), 2, gib(1)).unwrap();
        assert_eq!(m.vnode(OversubLevel::of(3)).unwrap().num_cores(), 1);
        assert_eq!(m.alloc().mem_mib, gib(1));
        m.check_invariants().unwrap();
    }

    #[test]
    fn infeasible_resize_leaves_state_untouched() {
        let mut m = sim_machine(); // 32 cores / 128 GiB
        m.deploy(VmId(0), spec(30, 30, 1)).unwrap();
        m.deploy(VmId(1), spec(2, 2, 1)).unwrap();
        let before = m.alloc();
        // CPU-infeasible: growing VM 1 to 4 vCPUs needs 2 more cores.
        assert!(matches!(
            m.resize_vm(VmId(1), 4, gib(2)).unwrap_err(),
            HypervisorError::InsufficientCpu { .. }
        ));
        // Memory-infeasible.
        assert!(matches!(
            m.resize_vm(VmId(1), 2, gib(120)).unwrap_err(),
            HypervisorError::InsufficientMemory { .. }
        ));
        assert_eq!(m.alloc(), before);
        m.check_invariants().unwrap();
        // Unknown VM.
        assert!(matches!(
            m.resize_vm(VmId(9), 1, gib(1)).unwrap_err(),
            HypervisorError::UnknownVm(_)
        ));
    }

    #[test]
    fn resize_within_headroom_moves_no_cores() {
        let mut m = sim_machine();
        m.deploy(VmId(0), spec(1, 1, 3)).unwrap(); // 1 core, headroom 2
        let churn_before = m.churn().expansions;
        m.resize_vm(VmId(0), 3, gib(1)).unwrap();
        assert_eq!(m.churn().expansions, churn_before, "no span change");
        assert_eq!(m.vnode(OversubLevel::of(3)).unwrap().num_cores(), 1);
    }

    #[test]
    fn mixed_level_fill_matches_whole_core_accounting() {
        let mut m = sim_machine();
        // 10 cores premium + 5 cores of 2:1 (10 vCPUs) + 2 cores of 3:1 (6 vCPUs).
        m.deploy(VmId(0), spec(10, 10, 1)).unwrap();
        m.deploy(VmId(1), spec(10, 10, 2)).unwrap();
        m.deploy(VmId(2), spec(6, 6, 3)).unwrap();
        assert_eq!(m.alloc().cpu, Millicores::from_cores(17));
        assert_eq!(m.free_core_count(), 15);
        m.check_invariants().unwrap();
    }
}
