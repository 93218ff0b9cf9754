//! The vNode: an exclusive group of cores hosting one oversubscription
//! level's VMs.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use slackvm_model::{OversubLevel, VmId, VmSpec};
use slackvm_topology::{CoreId, CoreSet};

/// A dynamic resource partition: whole cores + the VM set pinned to them.
///
/// Invariant: `level.cores_needed(total_vcpus()) <= cores.len()` — the
/// span always satisfies the level's `n:1` guarantee. The owning machine
/// keeps spans *tight* (equality) by shrinking on departures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VNode {
    level: OversubLevel,
    cores: CoreSet,
    vms: BTreeMap<VmId, VmSpec>,
    total_vcpus: u32,
    total_mem_mib: u64,
}

impl VNode {
    /// Creates an empty vNode for `level`.
    pub fn new(level: OversubLevel) -> Self {
        VNode {
            level,
            cores: CoreSet::new(),
            vms: BTreeMap::new(),
            total_vcpus: 0,
            total_mem_mib: 0,
        }
    }

    /// The vNode's oversubscription level.
    #[inline]
    pub fn level(&self) -> OversubLevel {
        self.level
    }

    /// The pinned core span.
    pub fn cores(&self) -> &CoreSet {
        &self.cores
    }

    /// The span as an ascending vector — an allocating convenience for
    /// reports and tests; the resize path reads [`VNode::cores`].
    pub fn core_vec(&self) -> Vec<CoreId> {
        self.cores.iter().collect()
    }

    /// Number of cores in the span.
    #[inline]
    pub fn num_cores(&self) -> u32 {
        self.cores.len() as u32
    }

    /// Hosted VM count.
    #[inline]
    pub fn num_vms(&self) -> usize {
        self.vms.len()
    }

    /// True when no VM is hosted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    /// Sum of hosted vCPUs.
    #[inline]
    pub fn total_vcpus(&self) -> u32 {
        self.total_vcpus
    }

    /// Sum of hosted memory (MiB).
    #[inline]
    pub fn total_mem_mib(&self) -> u64 {
        self.total_mem_mib
    }

    /// The hosted VMs.
    pub fn vms(&self) -> impl Iterator<Item = (&VmId, &VmSpec)> {
        self.vms.iter()
    }

    /// Whether `id` is hosted here.
    pub fn hosts(&self, id: VmId) -> bool {
        self.vms.contains_key(&id)
    }

    /// The spec `id` was admitted (or last resized) with.
    pub fn spec_of(&self, id: VmId) -> Option<&VmSpec> {
        self.vms.get(&id)
    }

    /// Cores the span must hold to host the current VMs **plus** `extra`
    /// vCPUs.
    pub fn cores_needed_with(&self, extra_vcpus: u32) -> u32 {
        self.level.cores_needed(self.total_vcpus + extra_vcpus)
    }

    /// How many cores the span must *grow by* to admit `extra_vcpus`
    /// (zero when headroom inside the current span suffices).
    pub fn growth_for(&self, extra_vcpus: u32) -> u32 {
        self.cores_needed_with(extra_vcpus)
            .saturating_sub(self.num_cores())
    }

    /// Unexposed vCPU headroom inside the current span.
    pub fn vcpu_headroom(&self) -> u32 {
        self.level
            .vcpu_capacity(self.num_cores())
            .saturating_sub(self.total_vcpus)
    }

    /// Registers a VM. The caller must have grown the span first; this
    /// asserts the level invariant in debug builds.
    pub(crate) fn insert_vm(&mut self, id: VmId, spec: VmSpec) {
        debug_assert!(!self.vms.contains_key(&id));
        debug_assert_eq!(spec.level, self.level);
        self.total_vcpus += spec.vcpus();
        self.total_mem_mib += spec.mem_mib();
        self.vms.insert(id, spec);
        debug_assert!(
            self.level.cores_needed(self.total_vcpus) <= self.num_cores(),
            "span violates {} guarantee",
            self.level
        );
    }

    /// Unregisters a VM, returning its spec.
    pub(crate) fn remove_vm(&mut self, id: VmId) -> Option<VmSpec> {
        let spec = self.vms.remove(&id)?;
        self.total_vcpus -= spec.vcpus();
        self.total_mem_mib -= spec.mem_mib();
        Some(spec)
    }

    /// Adds a core to the span.
    pub(crate) fn add_core(&mut self, core: CoreId) {
        let inserted = self.cores.insert(core);
        debug_assert!(inserted, "core {core} already in span");
    }

    /// Removes a core from the span.
    pub(crate) fn release_core(&mut self, core: CoreId) {
        let removed = self.cores.remove(core);
        debug_assert!(removed, "core {core} not in span");
    }

    /// Cores beyond what the current VM set requires — candidates for
    /// release after a departure.
    pub fn surplus_cores(&self) -> u32 {
        self.num_cores()
            .saturating_sub(self.level.cores_needed(self.total_vcpus))
    }

    /// Effective vCPUs-per-core pressure of the span (how oversubscribed
    /// the span *actually* is; at most `level.ratio()`).
    pub fn effective_pressure(&self) -> f64 {
        if self.cores.is_empty() {
            0.0
        } else {
            self.total_vcpus as f64 / self.cores.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_model::gib;

    fn spec(vcpus: u32, mem_gib: u64, level: u32) -> VmSpec {
        VmSpec::of(vcpus, gib(mem_gib), OversubLevel::of(level))
    }

    #[test]
    fn growth_accounting_at_3_to_1() {
        let mut v = VNode::new(OversubLevel::of(3));
        assert_eq!(v.growth_for(1), 1); // first VM always needs a core
        v.add_core(CoreId(0));
        v.insert_vm(VmId(1), spec(1, 1, 3));
        // Two more vCPUs fit in the same core at 3:1.
        assert_eq!(v.growth_for(2), 0);
        assert_eq!(v.vcpu_headroom(), 2);
        // A third extra vCPU spills into a second core.
        assert_eq!(v.growth_for(3), 1);
    }

    #[test]
    fn remove_restores_totals() {
        let mut v = VNode::new(OversubLevel::of(2));
        v.add_core(CoreId(4));
        v.insert_vm(VmId(9), spec(2, 4, 2));
        assert_eq!(v.total_vcpus(), 2);
        assert_eq!(v.total_mem_mib(), gib(4));
        let out = v.remove_vm(VmId(9)).unwrap();
        assert_eq!(out, spec(2, 4, 2));
        assert_eq!(v.total_vcpus(), 0);
        assert_eq!(v.total_mem_mib(), 0);
        assert!(v.is_empty());
        assert_eq!(v.surplus_cores(), 1);
        assert!(v.remove_vm(VmId(9)).is_none());
    }

    #[test]
    fn effective_pressure_tracks_span() {
        let mut v = VNode::new(OversubLevel::of(3));
        assert_eq!(v.effective_pressure(), 0.0);
        v.add_core(CoreId(0));
        v.add_core(CoreId(1));
        v.insert_vm(VmId(1), spec(4, 4, 3));
        assert!((v.effective_pressure() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hosts_and_counts() {
        let mut v = VNode::new(OversubLevel::of(1));
        v.add_core(CoreId(0));
        v.add_core(CoreId(1));
        v.insert_vm(VmId(0), spec(2, 2, 1));
        assert!(v.hosts(VmId(0)));
        assert!(!v.hosts(VmId(1)));
        assert_eq!(v.spec_of(VmId(0)), Some(&spec(2, 2, 1)));
        assert_eq!(v.spec_of(VmId(1)), None);
        assert_eq!(v.num_vms(), 1);
        assert_eq!(v.num_cores(), 2);
        assert_eq!(v.core_vec(), vec![CoreId(0), CoreId(1)]);
    }
}
