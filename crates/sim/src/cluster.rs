//! An open-on-demand cluster, generic over the host implementation.

use std::collections::BTreeMap;

use slackvm_hypervisor::Host;
use slackvm_model::{AllocView, Millicores, PmId, VmId, VmSpec};
use slackvm_sched::{AdmissionKey, Candidate, CandidateIndex, IndexMode, PlacementPolicy};

use crate::error::SimError;

/// A host's placement-index entry: the candidate view the control
/// plane gathers, keyed by the host's conservative admission headroom.
/// The cluster and both background planners index hosts through this
/// one mapping.
pub fn index_entry<H: Host>(host: &H) -> (Candidate, AdmissionKey) {
    let headroom = host.admission_headroom();
    (
        Candidate {
            id: host.id(),
            config: host.config(),
            alloc: host.alloc(),
            vms: host.num_vms(),
        },
        AdmissionKey {
            free_mem_mib: headroom.free_mem_mib,
            free_vcpus: headroom.free_vcpus,
        },
    )
}

/// A growable pool of hosts of one concrete type.
///
/// Mirrors the paper's protocol: "starting from an empty cluster and
/// progressively increased until the minimal number of PMs was
/// determined" — a new host opens only when no existing host passes the
/// hard-constraint filter, so the number of opened hosts *is* the
/// minimal cluster size for the replayed sequence under the policy.
pub struct Cluster<H: Host> {
    hosts: Vec<H>,
    factory: Box<dyn Fn(PmId) -> H + Send>,
    placements: BTreeMap<VmId, PmId>,
    max_hosts: Option<u32>,
    failed: std::collections::BTreeSet<PmId>,
    index_mode: IndexMode,
    index: CandidateIndex,
    /// Whether `index` reflects the current host states. False until
    /// the first indexed deploy and after a mode switch; the next
    /// indexed deploy rebuilds.
    index_synced: bool,
    /// Reusable candidate buffer for indexed deployments, so the steady
    /// state allocates nothing per event.
    scratch: Vec<Candidate>,
}

impl<H: Host> Cluster<H> {
    /// Creates an unbounded cluster with a host factory.
    pub fn new(factory: impl Fn(PmId) -> H + Send + 'static) -> Self {
        Cluster {
            hosts: Vec::new(),
            factory: Box::new(factory),
            placements: BTreeMap::new(),
            max_hosts: None,
            failed: Default::default(),
            index_mode: IndexMode::default(),
            index: CandidateIndex::new(),
            index_synced: false,
            scratch: Vec::new(),
        }
    }

    /// Caps the number of hosts that may be opened.
    pub fn with_max_hosts(mut self, max: u32) -> Self {
        self.max_hosts = Some(max);
        self
    }

    /// Selects how deploy-time candidate sets are assembled (builder
    /// form of [`Cluster::set_index_mode`]).
    pub fn with_index_mode(mut self, mode: IndexMode) -> Self {
        self.set_index_mode(mode);
        self
    }

    /// Selects how deploy-time candidate sets are assembled. Switching
    /// modes mid-run is safe: the index rebuilds on the next deploy.
    pub fn set_index_mode(&mut self, mode: IndexMode) {
        self.index_mode = mode;
        self.index_synced = false;
    }

    /// The candidate-assembly mode in use.
    pub fn index_mode(&self) -> IndexMode {
        self.index_mode
    }

    /// Hosts opened so far.
    pub fn hosts(&self) -> &[H] {
        &self.hosts
    }

    /// The host with id `pm`, if opened. Hosts are dense by [`PmId`]
    /// (the factory numbers them in opening order), so this is an
    /// index, not a scan. Hosts are mutated only through the cluster's
    /// own mutators (deploy/remove/[`Cluster::resize_vm`]/migrate),
    /// which keep the placement index in step.
    pub fn host(&self, pm: PmId) -> Option<&H> {
        let host = self.hosts.get(pm.0 as usize);
        debug_assert!(host.is_none_or(|h| h.id() == pm), "hosts are dense by PmId");
        host
    }

    /// Mutable [`Cluster::host`] for the cluster's own mutators, which
    /// refresh the host's index slot themselves.
    fn host_mut(&mut self, pm: PmId) -> Option<&mut H> {
        self.hosts.get_mut(pm.0 as usize)
    }

    /// Rebuilds the index from every non-failed host if it went stale.
    fn sync_index(&mut self) {
        if self.index_synced {
            return;
        }
        self.index.clear();
        for host in &self.hosts {
            if !self.failed.contains(&host.id()) {
                let (candidate, key) = index_entry(host);
                self.index.upsert(candidate, key);
            }
        }
        self.index_synced = true;
    }

    /// Dirty-tracking hook: refreshes one PM's slot after a mutation of
    /// that host (or retires it when the PM is failed). No-op in naive
    /// mode or while the index is stale (a sync will rebuild anyway).
    fn refresh_slot(&mut self, pm: PmId) {
        if self.index_mode == IndexMode::Naive || !self.index_synced {
            return;
        }
        if self.failed.contains(&pm) {
            self.index.retire(pm);
            return;
        }
        if let Some((candidate, key)) = self.host(pm).map(index_entry) {
            self.index.upsert(candidate, key);
        }
    }

    /// Assembles the feasible candidate set and runs the policy via the
    /// incremental index: the admission gate skips provably-infeasible
    /// PMs, the authoritative `can_host` check runs only on admitted
    /// ones, and First-Fit short-circuits scoring entirely (the lowest
    /// feasible id needs no scores).
    fn select_indexed<R: slackvm_telemetry::Recorder>(
        &mut self,
        spec: &VmSpec,
        policy: &PlacementPolicy,
        recorder: &mut R,
    ) -> Option<PmId> {
        self.sync_index();
        let need_mem = spec.mem_mib();
        let need_vcpus = spec.vcpus();
        let span = recorder.begin("sched.index.query");
        if matches!(policy, PlacementPolicy::FirstFit) {
            let hosts = &self.hosts;
            let picked = self.index.first_admitted(need_mem, need_vcpus, |c| {
                hosts[c.id.0 as usize].can_host(spec)
            });
            recorder.end(span);
            if recorder.enabled() {
                recorder.count("sched.selections", 1);
                if picked.is_none() {
                    recorder.count("sched.no_candidate", 1);
                }
            }
            return picked;
        }
        let mut buf = std::mem::take(&mut self.scratch);
        let stats = self.index.gather_into(&mut buf, need_mem, need_vcpus);
        let admitted = buf.len();
        buf.retain(|c| self.hosts[c.id.0 as usize].can_host(spec));
        recorder.end(span);
        if recorder.enabled() {
            recorder.count("sched.index.gate_skipped", stats.gate_skipped() as u64);
            recorder.count("sched.index.infeasible", (admitted - buf.len()) as u64);
        }
        let picked = policy.select_recorded(&buf, spec, recorder);
        self.scratch = buf;
        picked
    }

    /// Number of opened hosts — the provisioned cluster size.
    pub fn opened(&self) -> u32 {
        self.hosts.len() as u32
    }

    /// Number of hosts currently hosting at least one VM.
    pub fn active(&self) -> u32 {
        self.hosts.iter().filter(|h| !h.is_idle()).count() as u32
    }

    /// Where a VM is placed.
    pub fn location_of(&self, id: VmId) -> Option<PmId> {
        self.placements.get(&id).copied()
    }

    /// Currently placed VM count.
    pub fn num_vms(&self) -> usize {
        self.placements.len()
    }

    /// Sum of host allocations.
    pub fn total_alloc(&self) -> AllocView {
        self.hosts.iter().fold(AllocView::EMPTY, |acc, h| {
            let a = h.alloc();
            AllocView::new(acc.cpu + a.cpu, acc.mem_mib + a.mem_mib)
        })
    }

    /// Sum of host capacities over the *opened* cluster.
    pub fn total_capacity(&self) -> AllocView {
        self.hosts.iter().fold(AllocView::EMPTY, |acc, h| {
            let c = h.config();
            AllocView::new(
                acc.cpu + Millicores::from_cores(c.cores),
                acc.mem_mib + c.mem_mib,
            )
        })
    }

    /// Places a VM: filters hosts on the hard constraints, delegates the
    /// choice to `policy`, and opens a new host when nothing fits.
    pub fn deploy(
        &mut self,
        id: VmId,
        spec: VmSpec,
        policy: &PlacementPolicy,
    ) -> Result<PmId, SimError> {
        self.deploy_recorded(id, spec, policy, 0, &mut slackvm_telemetry::NullRecorder)
    }

    /// [`Cluster::deploy`] with telemetry: the policy's scoring loop is
    /// timed (via [`PlacementPolicy::select_recorded`]) and opening a new
    /// host journals a `PmOpened` event at `time_secs`.
    pub fn deploy_recorded<R: slackvm_telemetry::Recorder>(
        &mut self,
        id: VmId,
        spec: VmSpec,
        policy: &PlacementPolicy,
        time_secs: u64,
        recorder: &mut R,
    ) -> Result<PmId, SimError> {
        let picked = match self.index_mode {
            IndexMode::Naive => {
                let candidates: Vec<Candidate> = self
                    .hosts
                    .iter()
                    .filter(|h| !self.failed.contains(&h.id()) && h.can_host(&spec))
                    .map(|h| index_entry(h).0)
                    .collect();
                policy.select_recorded(&candidates, &spec, recorder)
            }
            IndexMode::Incremental => self.select_indexed(&spec, policy, recorder),
        };

        if let Some(pm) = picked {
            self.host_mut(pm)
                .expect("candidate came from this cluster")
                .deploy(id, spec)
                .expect("can_host was checked during filtering");
            self.placements.insert(id, pm);
            self.refresh_slot(pm);
            return Ok(pm);
        }

        // Nothing fits: open a new host.
        if let Some(max) = self.max_hosts {
            if self.opened() >= max {
                return Err(SimError::DeploymentFailed(id));
            }
        }
        let pm = PmId(self.hosts.len() as u32);
        let mut host = (self.factory)(pm);
        host.deploy(id, spec)
            .map_err(|_| SimError::Unsatisfiable(id))?;
        self.hosts.push(host);
        self.placements.insert(id, pm);
        self.refresh_slot(pm);
        if recorder.enabled() {
            recorder.record(time_secs, slackvm_telemetry::Event::PmOpened { pm });
        }
        Ok(pm)
    }

    /// Moves a VM to a specific host — the migration primitive. The
    /// destination must fit the VM; on failure the VM stays where it
    /// was (the check happens before the removal).
    pub fn migrate(&mut self, id: VmId, to: PmId) -> Result<(), SimError> {
        let from = self
            .placements
            .get(&id)
            .copied()
            .ok_or(SimError::UnknownVm(id))?;
        if from == to {
            return Ok(());
        }
        if self.failed.contains(&to) {
            return Err(SimError::DeploymentFailed(id));
        }
        // An unopened destination must be refused *before* the VM is
        // lifted off its source: hosts are dense by PmId, so a bounds
        // check suffices, and every later early-return leaves the
        // source untouched.
        if to.0 as usize >= self.hosts.len() {
            return Err(SimError::DeploymentFailed(id));
        }
        // The host trait has no spec lookup, so lift the VM off its
        // source and roll back if the destination refuses it.
        let spec = self
            .host_mut(from)
            .expect("placement map is consistent")
            .remove(id)
            .expect("placement map is consistent");
        let dest = self.host_mut(to).expect("destination bounds-checked above");
        if dest.can_host(&spec) {
            dest.deploy(id, spec).expect("can_host checked");
            self.placements.insert(id, to);
            self.refresh_slot(from);
            self.refresh_slot(to);
            Ok(())
        } else {
            // Roll back onto the source.
            self.host_mut(from)
                .expect("source still exists")
                .deploy(id, spec)
                .expect("the VM just vacated this capacity");
            Err(SimError::DeploymentFailed(id))
        }
    }

    /// Fails a host: it stops accepting deployments and every hosted VM
    /// is evicted and returned (for the caller to re-place or declare
    /// lost). Idempotent: failing a failed or unknown host evicts
    /// nothing.
    pub fn fail_host(&mut self, pm: PmId) -> Vec<(VmId, VmSpec)> {
        if !self.failed.insert(pm) {
            return Vec::new();
        }
        let Some(host) = self.hosts.get_mut(pm.0 as usize) else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
        for id in host.vm_ids() {
            let spec = host.remove(id).expect("vm_ids() lists hosted VMs");
            self.placements.remove(&id);
            evicted.push((id, spec));
        }
        // `pm` is now in the failed set, so this retires its slot.
        self.refresh_slot(pm);
        evicted
    }

    /// Returns a failed host to service (e.g. after repair).
    pub fn repair_host(&mut self, pm: PmId) {
        self.failed.remove(&pm);
        self.refresh_slot(pm);
    }

    /// Marks a host failed *without* evicting anything — the restore
    /// primitive for replaying a captured failed-set, where evictions
    /// already happened before the capture. Deliberately does not open
    /// hosts: the captured `opened` count is restored separately, and
    /// a failure logged against a never-opened PM stays a pure
    /// failed-set entry, exactly as the live cluster recorded it.
    pub fn mark_failed(&mut self, pm: PmId) {
        self.failed.insert(pm);
        self.refresh_slot(pm);
    }

    /// The currently-failed hosts, ascending by id.
    pub fn failed_ids(&self) -> Vec<PmId> {
        self.failed.iter().copied().collect()
    }

    /// Whether a host is currently failed.
    pub fn is_failed(&self, pm: PmId) -> bool {
        self.failed.contains(&pm)
    }

    /// Number of hosts currently failed.
    pub fn failed_count(&self) -> u32 {
        self.failed.len() as u32
    }

    /// Removes a VM, returning the PM that hosted it.
    pub fn remove(&mut self, id: VmId) -> Result<PmId, SimError> {
        let pm = self.placements.remove(&id).ok_or(SimError::UnknownVm(id))?;
        self.host_mut(pm)
            .expect("placement map points at an opened host")
            .remove(id)
            .expect("placement map is consistent");
        self.refresh_slot(pm);
        Ok(pm)
    }

    /// Places a VM on a *specific* PM, opening hosts through the
    /// factory up to and including `pm` — the directed primitive state
    /// restore and WAL replay use, where the target was decided by a
    /// previous run and must not be re-chosen. Fails (`DeploymentFailed`)
    /// when the target exceeds a host cap or cannot take the VM.
    pub fn restore_placement(&mut self, id: VmId, spec: VmSpec, pm: PmId) -> Result<(), SimError> {
        if self.placements.contains_key(&id) || !self.open_through(pm) {
            return Err(SimError::DeploymentFailed(id));
        }
        let host = &mut self.hosts[pm.0 as usize];
        if !host.can_host(&spec) {
            return Err(SimError::DeploymentFailed(id));
        }
        host.deploy(id, spec).expect("can_host was just checked");
        self.placements.insert(id, pm);
        self.refresh_slot(pm);
        Ok(())
    }

    /// Opens (empty) hosts until `opened` hosts exist, so a restored
    /// cluster reports the same provisioned size as the captured one —
    /// emptied-but-opened hosts stay candidates, exactly as they were.
    pub fn ensure_opened(&mut self, opened: u32) -> bool {
        opened == 0 || self.open_through(PmId(opened - 1))
    }

    /// Opens hosts densely up to and including `pm`; false when the
    /// host cap forbids it.
    fn open_through(&mut self, pm: PmId) -> bool {
        if let Some(max) = self.max_hosts {
            if pm.0 >= max {
                return false;
            }
        }
        while self.hosts.len() <= pm.0 as usize {
            let id = PmId(self.hosts.len() as u32);
            self.hosts.push((self.factory)(id));
            self.refresh_slot(id);
        }
        true
    }

    /// Vertically resizes a hosted VM in place, returning the hosting
    /// PM. Fails without side effects (`DeploymentFailed`) when that
    /// host cannot absorb the new size — control planes surface this as
    /// a rejected resize request.
    pub fn resize_vm(&mut self, id: VmId, vcpus: u32, mem_mib: u64) -> Result<PmId, SimError> {
        let pm = self
            .placements
            .get(&id)
            .copied()
            .ok_or(SimError::UnknownVm(id))?;
        self.host_mut(pm)
            .expect("placement map points at an opened host")
            .resize_vm(id, vcpus, mem_mib)
            .map_err(|_| SimError::DeploymentFailed(id))?;
        self.refresh_slot(pm);
        Ok(pm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_hypervisor::UniformMachine;
    use slackvm_model::{gib, OversubLevel, PmConfig};

    fn premium_cluster() -> Cluster<UniformMachine> {
        Cluster::new(|id| {
            UniformMachine::new(id, PmConfig::simulation_host(), OversubLevel::PREMIUM)
        })
    }

    fn spec(vcpus: u32, mem_gib: u64) -> VmSpec {
        VmSpec::of(vcpus, gib(mem_gib), OversubLevel::PREMIUM)
    }

    #[test]
    fn opens_hosts_on_demand_first_fit() {
        let mut c = premium_cluster();
        let policy = PlacementPolicy::FirstFit;
        // Each VM takes 20 cores of the 32: two per host never fit.
        for i in 0..4 {
            c.deploy(VmId(i), spec(20, 20), &policy).unwrap();
        }
        assert_eq!(c.opened(), 4);
        // Small VMs backfill host 0 first.
        let pm = c.deploy(VmId(10), spec(4, 4), &policy).unwrap();
        assert_eq!(pm, PmId(0));
        assert_eq!(c.opened(), 4);
    }

    #[test]
    fn removal_frees_capacity_for_reuse() {
        let mut c = premium_cluster();
        let policy = PlacementPolicy::FirstFit;
        c.deploy(VmId(0), spec(30, 30), &policy).unwrap();
        c.deploy(VmId(1), spec(30, 30), &policy).unwrap();
        assert_eq!(c.opened(), 2);
        assert_eq!(c.active(), 2);
        c.remove(VmId(0)).unwrap();
        assert_eq!(c.active(), 1);
        // The freed host 0 is reused instead of opening a third.
        let pm = c.deploy(VmId(2), spec(30, 30), &policy).unwrap();
        assert_eq!(pm, PmId(0));
        assert_eq!(c.opened(), 2);
    }

    #[test]
    fn cap_rejects_when_full() {
        let mut c = premium_cluster().with_max_hosts(1);
        let policy = PlacementPolicy::FirstFit;
        c.deploy(VmId(0), spec(30, 30), &policy).unwrap();
        let err = c.deploy(VmId(1), spec(30, 30), &policy).unwrap_err();
        assert_eq!(err, SimError::DeploymentFailed(VmId(1)));
    }

    #[test]
    fn unsatisfiable_request_is_flagged() {
        let mut c = premium_cluster();
        let policy = PlacementPolicy::FirstFit;
        let err = c.deploy(VmId(0), spec(64, 1), &policy).unwrap_err();
        assert_eq!(err, SimError::Unsatisfiable(VmId(0)));
        // The tentative host is discarded: nothing opened, nothing placed.
        assert_eq!(c.opened(), 0);
        assert_eq!(c.location_of(VmId(0)), None);
    }

    #[test]
    fn totals_track_allocations() {
        let mut c = premium_cluster();
        let policy = PlacementPolicy::FirstFit;
        c.deploy(VmId(0), spec(8, 16), &policy).unwrap();
        c.deploy(VmId(1), spec(8, 16), &policy).unwrap();
        let alloc = c.total_alloc();
        assert_eq!(alloc.cpu, Millicores::from_cores(16));
        assert_eq!(alloc.mem_mib, gib(32));
        let cap = c.total_capacity();
        assert_eq!(cap.cpu, Millicores::from_cores(32));
        assert_eq!(cap.mem_mib, gib(128));
        assert_eq!(c.num_vms(), 2);
    }

    #[test]
    fn unknown_vm_removal_errors() {
        let mut c = premium_cluster();
        assert_eq!(c.remove(VmId(9)).unwrap_err(), SimError::UnknownVm(VmId(9)));
    }

    #[test]
    fn cluster_resize_routes_through_the_host() {
        let mut c = premium_cluster();
        let policy = PlacementPolicy::FirstFit;
        c.deploy(VmId(0), spec(4, 8), &policy).unwrap();
        assert_eq!(c.resize_vm(VmId(0), 8, gib(16)).unwrap(), PmId(0));
        assert_eq!(c.total_alloc().mem_mib, gib(16));
        // Infeasible resize: rejected, no side effects.
        assert_eq!(
            c.resize_vm(VmId(0), 64, gib(1)).unwrap_err(),
            SimError::DeploymentFailed(VmId(0))
        );
        assert_eq!(c.total_alloc().mem_mib, gib(16));
        assert_eq!(
            c.resize_vm(VmId(7), 1, 1).unwrap_err(),
            SimError::UnknownVm(VmId(7))
        );
    }

    /// The incremental index and the naive rebuild must agree on every
    /// placement across the full mutation surface: deploys (reuse and
    /// open), removals, resizes, and failure/repair.
    #[test]
    fn incremental_index_matches_naive_across_mutations() {
        let policy = PlacementPolicy::FirstFit;
        let mut naive = premium_cluster().with_index_mode(IndexMode::Naive);
        let mut incr = premium_cluster().with_index_mode(IndexMode::Incremental);
        assert_eq!(incr.index_mode(), IndexMode::Incremental);
        let drive = |c: &mut Cluster<UniformMachine>| -> Vec<PmId> {
            let mut picks = Vec::new();
            for i in 0..6 {
                picks.push(c.deploy(VmId(i), spec(10, 30), &policy).unwrap());
            }
            c.remove(VmId(2)).unwrap();
            picks.push(c.deploy(VmId(10), spec(10, 30), &policy).unwrap());
            c.resize_vm(VmId(10), 2, gib(2)).unwrap();
            picks.push(c.deploy(VmId(11), spec(10, 28), &policy).unwrap());
            c.fail_host(PmId(0));
            picks.push(c.deploy(VmId(12), spec(4, 4), &policy).unwrap());
            c.repair_host(PmId(0));
            picks.push(c.deploy(VmId(13), spec(4, 4), &policy).unwrap());
            picks
        };
        assert_eq!(drive(&mut naive), drive(&mut incr));
        assert_eq!(naive.opened(), incr.opened());
        assert_eq!(naive.active(), incr.active());
    }

    #[test]
    fn incremental_index_matches_naive_under_scoring() {
        use slackvm_sched::BestFitScorer;
        let drive = |mode: IndexMode| {
            let mut c = premium_cluster().with_index_mode(mode);
            let policy = PlacementPolicy::scored(BestFitScorer);
            let mut picks = Vec::new();
            for i in 0..12 {
                let vcpus = 3 + (i % 5) as u32 * 4;
                let mem = 2 + (i % 7) * 9;
                picks.push(c.deploy(VmId(i), spec(vcpus, mem), &policy).unwrap());
            }
            for i in [1, 4, 7] {
                c.remove(VmId(i)).unwrap();
            }
            for i in 20..26 {
                picks.push(c.deploy(VmId(i), spec(6, 12), &policy).unwrap());
            }
            picks
        };
        assert_eq!(drive(IndexMode::Naive), drive(IndexMode::Incremental));
    }

    /// Regression: migrating to an unknown (never-opened) PmId must be
    /// a clean refusal. The pre-fix code removed the VM from its source
    /// before discovering the destination didn't exist, losing the VM
    /// while the placement map still claimed it lived on the source.
    #[test]
    fn migrate_to_unknown_destination_is_side_effect_free() {
        let mut c = premium_cluster();
        let policy = PlacementPolicy::FirstFit;
        c.deploy(VmId(0), spec(4, 8), &policy).unwrap();
        let alloc_before = c.total_alloc();
        assert_eq!(
            c.migrate(VmId(0), PmId(99)).unwrap_err(),
            SimError::DeploymentFailed(VmId(0))
        );
        // The VM is still on its source with its capacity accounted.
        assert_eq!(c.location_of(VmId(0)), Some(PmId(0)));
        assert_eq!(c.total_alloc(), alloc_before);
        // And the placement map stayed consistent: removal works
        // (pre-fix this panicked — the host no longer held the VM).
        assert_eq!(c.remove(VmId(0)).unwrap(), PmId(0));
    }

    #[test]
    fn migrate_moves_and_rolls_back() {
        let mut c = premium_cluster();
        let policy = PlacementPolicy::FirstFit;
        // Two hosts: a big VM on each, a small one on host 0.
        c.deploy(VmId(0), spec(20, 100), &policy).unwrap();
        c.deploy(VmId(1), spec(20, 100), &policy).unwrap();
        c.deploy(VmId(2), spec(4, 8), &policy).unwrap();
        assert_eq!(c.location_of(VmId(2)), Some(PmId(0)));
        // A fitting migration moves the VM.
        c.migrate(VmId(2), PmId(1)).unwrap();
        assert_eq!(c.location_of(VmId(2)), Some(PmId(1)));
        // A destination that cannot host rolls back onto the source.
        assert!(c.migrate(VmId(0), PmId(1)).is_err());
        assert_eq!(c.location_of(VmId(0)), Some(PmId(0)));
        // A failed destination is refused up front.
        c.fail_host(PmId(0));
        assert!(c.migrate(VmId(2), PmId(0)).is_err());
        assert_eq!(c.location_of(VmId(2)), Some(PmId(1)));
    }

    #[test]
    fn mark_failed_restores_the_failed_set() {
        let mut c = premium_cluster();
        let policy = PlacementPolicy::FirstFit;
        // Two opened hosts, then mark host 1 failed as a restore would.
        c.deploy(VmId(0), spec(30, 30), &policy).unwrap();
        c.deploy(VmId(1), spec(30, 30), &policy).unwrap();
        c.remove(VmId(1)).unwrap();
        c.mark_failed(PmId(1));
        assert!(c.is_failed(PmId(1)));
        assert_eq!(c.opened(), 2, "marking does not open hosts");
        assert_eq!(c.failed_ids(), vec![PmId(1)]);
        // Deploys skip the marked host: a new one opens instead.
        c.deploy(VmId(2), spec(30, 30), &policy).unwrap();
        assert_eq!(c.location_of(VmId(2)), Some(PmId(2)));
        c.repair_host(PmId(1));
        assert_eq!(c.failed_ids(), Vec::<PmId>::new());
    }
}
