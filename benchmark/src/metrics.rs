//! The metric and workload names, fixed here and mirrored in the
//! repository's `BENCHMARK.json` (a test keeps the two in step).

use std::collections::BTreeMap;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system would see. Every
/// workload reports every one of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "opened_pms",
        unit: "count",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric from the traced pass: `(name, unit, better)`.
/// The layer is the crate name before the first dot. A traced run
/// reports every one of them; a layer the workload never enters
/// reports zero calls and zero time.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // workload: Scenario::generate
    ("workload.generate_ms", "ms", Better::Lower),
    ("workload.events", "count", Better::Lower),
    // topology: DistanceMatrix::build, core_distance
    ("topology.matrix_build_us", "us", Better::Lower),
    ("topology.distance_ns", "ns", Better::Lower),
    // hypervisor: Host::* on bare hosts, re-driving the decision log
    ("hypervisor.calls", "count", Better::Lower),
    ("hypervisor.deploy_ns", "ns", Better::Lower),
    ("hypervisor.remove_ns", "ns", Better::Lower),
    ("hypervisor.resize_ns", "ns", Better::Lower),
    ("hypervisor.can_host_ns", "ns", Better::Lower),
    ("hypervisor.cores_moved", "count", Better::Lower),
    ("hypervisor.busy_frac", "frac", Better::Lower),
    // sched: mirrored CandidateIndex + PlacementPolicy::select
    ("sched.calls", "count", Better::Lower),
    ("sched.upsert_ns", "ns", Better::Lower),
    ("sched.gather_ns", "ns", Better::Lower),
    ("sched.select_ns", "ns", Better::Lower),
    ("sched.candidates_per_select", "count", Better::Lower),
    ("sched.gate_skip_frac", "frac", Better::Higher),
    ("sched.busy_frac", "frac", Better::Lower),
    ("sched.mismatches", "count", Better::Lower),
    // sim: DeploymentModel::{deploy,remove}, run_packing, capture_state
    ("sim.calls", "count", Better::Lower),
    ("sim.deploy_ns", "ns", Better::Lower),
    ("sim.remove_ns", "ns", Better::Lower),
    ("sim.self_frac", "frac", Better::Lower),
    ("sim.engine_self_frac", "frac", Better::Lower),
    ("sim.capture_state_us", "us", Better::Lower),
    // serve: stamps around submit/reply plus Reply stage fields
    ("serve.calls", "count", Better::Lower),
    ("serve.door_ns", "ns", Better::Lower),
    ("serve.queue_wait_p50_us", "us", Better::Lower),
    ("serve.queue_wait_p99_us", "us", Better::Lower),
    ("serve.place_p50_us", "us", Better::Lower),
    ("serve.place_p99_us", "us", Better::Lower),
    ("serve.commit_p50_us", "us", Better::Lower),
    ("serve.reply_hop_p50_us", "us", Better::Lower),
    ("serve.busy_refused", "count", Better::Lower),
    ("serve.shed", "count", Better::Lower),
    ("serve.resize_declined", "count", Better::Lower),
    ("serve.gen_late_p99_us", "us", Better::Lower),
    ("serve.rtt_p99_us", "us", Better::Lower),
    ("serve.sweep.r10k.p99_us", "us", Better::Lower),
    ("serve.sweep.r40k.p99_us", "us", Better::Lower),
    ("serve.sweep.r80k.p99_us", "us", Better::Lower),
    ("serve.rate_ok_per_s", "1/s", Better::Higher),
    ("serve.wire_parse_ns", "ns", Better::Lower),
    ("serve.wire_render_ns", "ns", Better::Lower),
    ("serve.tcp_hop_p50_us", "us", Better::Lower),
    // durable, write path: WalWriter/ShardDurable
    ("durable.calls", "count", Better::Lower),
    ("durable.append_ns", "ns", Better::Lower),
    ("durable.commit_p50_us", "us", Better::Lower),
    ("durable.commit_p99_us", "us", Better::Lower),
    ("durable.bytes_per_record", "B", Better::Lower),
    ("durable.snapshot_ms", "ms", Better::Lower),
    ("durable.snapshot_bytes", "B", Better::Lower),
    // durable, read path: scan, decode, snapshot load, apply, fsck
    ("durable.scan_ms", "ms", Better::Lower),
    ("durable.decode_ns", "ns", Better::Lower),
    ("durable.snapshot_load_ms", "ms", Better::Lower),
    ("durable.apply_ns", "ns", Better::Lower),
    ("durable.fsck_ms", "ms", Better::Lower),
    // rebalance: score_model, plan_rebalance, validate_plan
    ("rebalance.calls", "count", Better::Lower),
    ("rebalance.score_us", "us", Better::Lower),
    ("rebalance.plan_us", "us", Better::Lower),
    ("rebalance.validate_us", "us", Better::Lower),
    ("rebalance.moves", "count", Better::Higher),
    ("rebalance.pms_freed", "count", Better::Higher),
    // pressure: observe_model, score_pressure, plan_mitigation
    ("pressure.calls", "count", Better::Lower),
    ("pressure.observe_us", "us", Better::Lower),
    ("pressure.score_us", "us", Better::Lower),
    ("pressure.plan_us", "us", Better::Lower),
    ("pressure.moves", "count", Better::Higher),
    ("pressure.hot_pms", "count", Better::Lower),
    // telemetry: the cost of watching
    ("telemetry.scrape_us", "us", Better::Lower),
    // the trace itself
    ("trace.spans", "count", Better::Lower),
    ("trace.overhead_frac", "frac", Better::Lower),
    ("trace.unattributed_frac", "frac", Better::Lower),
];

/// Per-layer values of one traced pass. Starts with every registered
/// metric at zero; setting an unregistered name is a bug.
#[derive(Debug, Clone)]
pub struct LayerTable(BTreeMap<&'static str, f64>);

impl LayerTable {
    pub fn new() -> Self {
        LayerTable(PER_LAYER.iter().map(|(name, _, _)| (*name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name:?} is not registered"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// `(name, why)` of every workload, in suite order. The reasons are
/// the ones `BENCHMARK.json` records.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "replay_shared",
        "week-F pop 2000 through run_packing on the shared flat(32) pool: the paper's model; hypervisor vNode bookkeeping does most of the work",
    ),
    (
        "replay_dedicated",
        "same trace on dedicated First-Fit: bypasses vNodes and scoring, so the sim engine dominates; a vNode change must predict no change here",
    ),
    (
        "replay_epyc",
        "week-F pop 800 on a shared pool of 256-CPU dual-EPYC PMs: deep topology, few PMs; core selection dominates and sched is idle",
    ),
    (
        "serve_inproc",
        "one in-process shard, no durability: saturated 64-deep pipeline for throughput, 40k/s open loop timed from due time for latency; isolates door, queue, placement, reply",
    ),
    (
        "serve_tcp_durable",
        "TcpServer on loopback with WAL on, closed loop, 2 clients x 8 lines in flight: the whole stack; sockets, wire and WAL commit dominate, placement is diluted",
    ),
    (
        "recover",
        "recover_shard over a written state dir (snapshot + WAL tail): the WAL read path beside serve_tcp_durable's write path",
    ),
    (
        "plan_rebalance",
        "plan_rebalance + validate_plan on a mid-week fragmented fleet: the consolidation planner alone; leaves admission untouched",
    ),
    (
        "plan_pressure",
        "score_pressure + plan_mitigation + validate_plan on the same fleet with half the VMs hot: the mitigation planner alone",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.0));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }

    #[test]
    fn layer_table_starts_at_zero_and_rejects_unknown_names() {
        let mut t = LayerTable::new();
        assert_eq!(t.get("sched.mismatches"), 0.0);
        t.set("sched.mismatches", 2.0);
        assert_eq!(t.get("sched.mismatches"), 2.0);
        let unknown = std::panic::catch_unwind(move || t.set("sched.nope", 1.0));
        assert!(unknown.is_err());
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; this file
    /// is what the program reports. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc,
            crate::suite::describe(),
            "regenerate with `slackvm-benchmark describe > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
        let Json::Obj(fields) = &doc else {
            panic!("BENCHMARK.json is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
