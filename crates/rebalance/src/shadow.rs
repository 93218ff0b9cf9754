//! A copy-on-write view of a cluster's hosts for planning and
//! validation.

use std::collections::BTreeSet;

use slackvm_hypervisor::Host;
use slackvm_model::PmId;
use slackvm_sim::Cluster;

/// The hosts of one [`Cluster`], borrowed, with a private clone of each
/// host a planner or validator has mutated.
///
/// The cheapest exact view of a host nobody has touched is the live
/// host itself: [`ShadowHosts::get`] borrows it, and only
/// [`ShadowHosts::get_mut`] clones — once per host, on its first
/// mutation. Every `can_host`/`deploy`/`remove` therefore still runs the
/// authoritative [`Host`] path; nothing is approximated, and the live
/// cluster is never written.
///
/// A clone is **kept** after a trial move is undone. vNodes are sized
/// exactly (`shrink_vnode` releases every surplus core), so everything a
/// plan decides on — `can_host`, `alloc()`, `num_vms()`,
/// `admission_headroom()`, `placements()` — depends on *which VMs* a
/// host holds, never on which cores they sit on: a host that got its VMs
/// back answers as the live host does. The planners' differential suites
/// enforce this against the full-clone bodies they replaced.
pub struct ShadowHosts<'a, H: Host + Clone> {
    live: &'a [H],
    touched: Vec<Option<H>>,
    blocked: Vec<bool>,
}

impl<'a, H: Host + Clone> ShadowHosts<'a, H> {
    /// Shadows `cluster`, blocking its failed hosts and those in `avoid`.
    pub fn of(cluster: &'a Cluster<H>, avoid: &BTreeSet<PmId>) -> Self {
        let live = cluster.hosts();
        ShadowHosts {
            live,
            touched: vec![None; live.len()],
            blocked: live
                .iter()
                .map(|h| cluster.is_failed(h.id()) || avoid.contains(&h.id()))
                .collect(),
        }
    }

    /// Number of hosts (opened PMs; dense by [`PmId`]).
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when the cluster has opened no host.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether host `i` is failed or avoided — off limits as source and
    /// as destination.
    pub fn is_blocked(&self, i: usize) -> bool {
        self.blocked[i]
    }

    /// Host `i` as the plan so far left it: the private clone if one
    /// exists, else the live host. Never clones.
    pub fn get(&self, i: usize) -> &H {
        self.touched[i].as_ref().unwrap_or(&self.live[i])
    }

    /// Host `i` for mutation, cloned from the live host on first use.
    pub fn get_mut(&mut self, i: usize) -> &mut H {
        self.touched[i].get_or_insert_with(|| self.live[i].clone())
    }
}
