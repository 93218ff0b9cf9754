//! ASCII rendering of a machine's core→vNode layout.
//!
//! A quick visual check of what the local scheduler did — which cores
//! each vNode pinned, where the free cores sit, how the spans relate to
//! sockets — for demos, the CLI and debugging.

use std::collections::BTreeMap;

use slackvm_topology::CoreId;

use crate::host::Host;
use crate::machine::PhysicalMachine;

/// Renders the machine's core map plus per-vNode summaries.
///
/// Each core renders as one cell: `.` free, or the index (1-9, then
/// a-z) of the vNode owning it, in level order. A socket boundary
/// renders as `|`.
pub fn render_layout(machine: &PhysicalMachine) -> String {
    let topology = machine.topology();
    let mut owner: BTreeMap<CoreId, usize> = BTreeMap::new();
    let mut legend = Vec::new();
    for (i, vnode) in machine.vnodes().enumerate() {
        for core in vnode.cores() {
            owner.insert(core, i);
        }
        legend.push(format!(
            "  [{}] {}: {} VM(s), {} vCPUs on {} core(s), {:.1} GiB",
            glyph(i),
            vnode.level(),
            vnode.num_vms(),
            vnode.total_vcpus(),
            vnode.num_cores(),
            vnode.total_mem_mib() as f64 / 1024.0,
        ));
    }

    let mut map = String::new();
    let mut last_socket = None;
    for core in topology.cores() {
        if last_socket.is_some() && last_socket != Some(core.socket) {
            map.push('|');
        }
        last_socket = Some(core.socket);
        match owner.get(&core.id) {
            Some(&i) => map.push(glyph(i)),
            None => map.push('.'),
        }
    }

    let alloc = machine.alloc();
    format!(
        "{} — {} VM(s), {} / {} cores pinned, {:.1} / {:.1} GiB\n[{}]\n{}",
        machine.id(),
        machine.num_vms(),
        alloc.cpu.ceil_cores(),
        topology.num_cores(),
        alloc.mem_mib as f64 / 1024.0,
        machine.config().mem_mib as f64 / 1024.0,
        map,
        legend.join("\n"),
    )
}

/// Stable single-character tag for the i-th vNode.
fn glyph(i: usize) -> char {
    const GLYPHS: &[u8] = b"123456789abcdefghijklmnopqrstuvwxyz";
    GLYPHS[i % GLYPHS.len()] as char
}

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_model::{gib, OversubLevel, PmId, VmId, VmSpec};
    use slackvm_topology::builders;
    use std::sync::Arc;

    #[test]
    fn layout_shows_spans_and_free_cores() {
        let mut m =
            PhysicalMachine::with_topology_policy(PmId(0), Arc::new(builders::flat(8)), gib(32));
        m.deploy(VmId(0), VmSpec::of(2, gib(2), OversubLevel::of(1)))
            .unwrap();
        m.deploy(VmId(1), VmSpec::of(3, gib(3), OversubLevel::of(3)))
            .unwrap();
        let layout = render_layout(&m);
        // 2 premium cores, 1 three-to-one core, 5 free.
        assert!(layout.contains("[112....."), "map line missing:\n{layout}");
        assert!(layout.contains("[1] 1:1: 1 VM(s), 2 vCPUs"));
        assert!(layout.contains("[2] 3:1: 1 VM(s), 3 vCPUs"));
        assert!(layout.contains("3 / 8 cores pinned"));
    }

    #[test]
    fn socket_boundary_is_marked() {
        let mut m = PhysicalMachine::with_topology_policy(
            PmId(1),
            Arc::new(builders::xeon(2, 4, 1)),
            gib(32),
        );
        m.deploy(VmId(0), VmSpec::of(1, gib(1), OversubLevel::of(1)))
            .unwrap();
        let layout = render_layout(&m);
        assert!(layout.contains('|'), "no socket separator:\n{layout}");
    }

    #[test]
    fn empty_machine_renders_all_free() {
        let m = PhysicalMachine::with_topology_policy(PmId(2), Arc::new(builders::flat(4)), gib(8));
        let layout = render_layout(&m);
        assert!(layout.contains("[....]"));
        assert!(layout.contains("0 VM(s)"));
    }
}
