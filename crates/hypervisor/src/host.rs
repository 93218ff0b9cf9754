//! The common host interface shared by SlackVM and baseline workers.

use slackvm_model::{AllocView, PmConfig, PmId, VmId, VmSpec};

use crate::error::HypervisorError;

/// A conservative admission bound a host publishes for cheap pre-filtering
/// (the placement index's admission key).
///
/// "Conservative" means: a VM exceeding either bound is *provably*
/// unhostable, while one within both bounds may still be rejected by
/// [`Host::can_host`]. Skipping hosts on these bounds can therefore never
/// change a placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionHeadroom {
    /// Free physical memory in MiB — exact for every host kind, since
    /// memory is never oversubscribed.
    pub free_mem_mib: u64,
    /// Free vCPU capacity, when the host kind can bound it cheaply and
    /// exactly (single-level workers). `None` means "no cheap CPU bound":
    /// partitioned hosts can absorb vCPUs into existing vNode slack, so
    /// their marginal core cost is not a simple subtraction.
    pub free_vcpus: Option<u32>,
}

/// A machine that can admit and release VMs.
///
/// Both the partitioned SlackVM worker ([`crate::PhysicalMachine`]) and
/// the dedicated-cluster baseline worker ([`crate::UniformMachine`])
/// implement this; the simulator and the global scheduler only ever see
/// this interface plus the pure `(PmConfig, AllocView)` scoring inputs.
pub trait Host {
    /// Stable identifier within the cluster.
    fn id(&self) -> PmId;

    /// Hardware configuration.
    fn config(&self) -> PmConfig;

    /// Current physical allocation (whole-core accounting for
    /// partitioned hosts — oversubscribed vNodes are "considered through
    /// the PM allocation", paper §VI).
    fn alloc(&self) -> AllocView;

    /// Whether `spec` could be deployed right now.
    fn can_host(&self, spec: &VmSpec) -> bool;

    /// Deploys a VM. Must succeed when [`Host::can_host`] just returned
    /// true and no other mutation intervened.
    fn deploy(&mut self, id: VmId, spec: VmSpec) -> Result<(), HypervisorError>;

    /// Removes a VM, returning its spec.
    fn remove(&mut self, id: VmId) -> Result<VmSpec, HypervisorError>;

    /// Vertically resizes a hosted VM in place. Atomic: either the VM
    /// ends up with the new dimensions or the host is unchanged.
    fn resize_vm(
        &mut self,
        id: VmId,
        new_vcpus: u32,
        new_mem_mib: u64,
    ) -> Result<(), HypervisorError>;

    /// The host's conservative admission bounds (see
    /// [`AdmissionHeadroom`]). The default derives the exact memory
    /// bound from `config`/`alloc` and declines to bound CPU; hosts
    /// with cheap exact CPU accounting should override.
    fn admission_headroom(&self) -> AdmissionHeadroom {
        AdmissionHeadroom {
            free_mem_mib: self.config().mem_mib.saturating_sub(self.alloc().mem_mib),
            free_vcpus: None,
        }
    }

    /// Number of hosted VMs.
    fn num_vms(&self) -> usize;

    /// Ids of the hosted VMs, ascending (used for eviction on host
    /// failure and for snapshots).
    fn vm_ids(&self) -> Vec<VmId>;

    /// The hosted VMs with their current specs, ascending by id — the
    /// non-destructive spec lookup durable state capture needs.
    fn placements(&self) -> Vec<(VmId, VmSpec)>;

    /// True when nothing is hosted.
    fn is_idle(&self) -> bool {
        self.num_vms() == 0
    }
}
