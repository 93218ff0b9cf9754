//! Micro-benchmarks of the local-scheduler hot path: distance-matrix
//! construction, core selection, and vNode deploy/remove cycles.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use slackvm::hypervisor::{Host, PhysicalMachine};
use slackvm::model::{gib, OversubLevel, PmId, VmId, VmSpec};
use slackvm::topology::builders;
use slackvm::topology::{CoreId, CoreSet, DistanceMatrix, SelectionPolicy, TopologySelection};

fn bench(c: &mut Criterion) {
    let epyc = builders::dual_epyc_7662();

    c.bench_function("hypervisor/distance_matrix_epyc_256", |b| {
        b.iter(|| std::hint::black_box(DistanceMatrix::build(&epyc)))
    });

    let selection = TopologySelection::new(DistanceMatrix::build(&epyc));
    let members: CoreSet = (0..32).map(CoreId).collect();
    let free: CoreSet = (32..256).map(CoreId).collect();
    c.bench_function("hypervisor/pick_expansion_224_free", |b| {
        b.iter(|| std::hint::black_box(selection.pick_expansion(&members, &free)))
    });
    c.bench_function("hypervisor/pick_seed_224_free", |b| {
        b.iter(|| std::hint::black_box(selection.pick_seed(&members, &free)))
    });
    // A socket-sized vNode: every member has an SMT sibling in the span,
    // the case a departure from a large vNode meets.
    let span: CoreSet = (0..128).map(CoreId).collect();
    c.bench_function("hypervisor/pick_release_128_members", |b| {
        b.iter(|| std::hint::black_box(selection.pick_release(&span)))
    });

    let topo = Arc::new(builders::dual_epyc_7662());
    c.bench_function("hypervisor/deploy_remove_cycle_3_levels", |b| {
        b.iter_batched(
            || PhysicalMachine::with_topology_policy(PmId(0), Arc::clone(&topo), gib(1024)),
            |mut m| {
                for i in 0..30u64 {
                    let level = OversubLevel::of((i % 3 + 1) as u32);
                    m.deploy(VmId(i), VmSpec::of(2, gib(4), level)).unwrap();
                }
                for i in 0..30u64 {
                    m.remove(VmId(i)).unwrap();
                }
                std::hint::black_box(m.churn().vm_repins)
            },
            BatchSize::SmallInput,
        )
    });

    let flat = Arc::new(builders::flat(32));
    c.bench_function("hypervisor/deploy_remove_cycle_sim_host", |b| {
        b.iter_batched(
            || PhysicalMachine::with_topology_policy(PmId(0), Arc::clone(&flat), gib(128)),
            |mut m| {
                for i in 0..12u64 {
                    let level = OversubLevel::of((i % 3 + 1) as u32);
                    m.deploy(VmId(i), VmSpec::of(2, gib(4), level)).unwrap();
                }
                for i in 0..12u64 {
                    m.remove(VmId(i)).unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_extra(c: &mut Criterion) {
    // Compaction planning over a 40-machine snapshot set.
    let snapshots: Vec<slackvm::hypervisor::MachineSnapshot> = (0..40u32)
        .map(|pm| {
            let mut m = PhysicalMachine::with_topology_policy(
                PmId(pm),
                Arc::new(builders::flat(32)),
                gib(128),
            );
            for i in 0..(pm % 7) as u64 {
                let level = OversubLevel::of((i % 3 + 1) as u32);
                m.deploy(VmId(pm as u64 * 100 + i), VmSpec::of(2, gib(4), level))
                    .unwrap();
            }
            m.snapshot()
        })
        .collect();
    c.bench_function("hypervisor/plan_compaction_40_machines", |b| {
        b.iter(|| std::hint::black_box(slackvm::hypervisor::plan_compaction(&snapshots)))
    });

    // Workload generation at the paper's protocol scale.
    c.bench_function("workload/generate_paper_week_500", |b| {
        b.iter(|| std::hint::black_box(slackvm::workload::scenarios::paper_week_f(500).generate(1)))
    });

    // Erlang-C at control-plane fan-out sizes.
    c.bench_function("perf/erlang_c_256_servers", |b| {
        b.iter(|| std::hint::black_box(slackvm::perf::erlang_c(256, 0.93)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench, bench_extra
}
criterion_main!(benches);
