//! Online admission throughput of the placement service.
//!
//! Drives the closed-loop bombard generator (paper-week-f arrival
//! shapes, sliding live-VM window) against an in-process
//! [`PlacementService`] at 1, 4, and 8 shards, plus a single-request
//! round-trip latency probe. Each iteration starts a fresh service so
//! runs are independent; the reported figure is the full
//! submit→route→batch→reply pipeline, not just the placement decision.
//! The record of service throughput is the `serve_inproc` workload of
//! `benchmark/README.md`; note the host's core count next to any figure
//! from here — shard scaling is meaningless on a single-core container.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slackvm_serve::{run_closed_loop, BombardConfig, ModelSpec, Op, PlacementService, ServeConfig};

fn service(shards: u32) -> PlacementService {
    PlacementService::start(ServeConfig {
        shards,
        model: ModelSpec::default_shared(),
        ..ServeConfig::default()
    })
    .expect("service start")
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/admission");
    group.sample_size(10);

    for shards in [1u32, 4, 8] {
        let config = BombardConfig {
            population: 200,
            clients: shards.max(2),
            requests: 2_000,
            ..BombardConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::new("closed_loop", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let svc = service(shards);
                    let report = run_closed_loop(&svc, &config).expect("bombard");
                    std::hint::black_box(svc.stop());
                    std::hint::black_box(report)
                })
            },
        );
    }

    // One synchronous place→reply round trip on an idle single shard:
    // the latency floor under the throughput numbers above.
    group.bench_function("call_round_trip", |b| {
        let svc = service(1);
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            let spec = slackvm_model::VmSpec::of(
                2,
                slackvm_model::gib(4),
                slackvm_model::OversubLevel::of(2),
            );
            std::hint::black_box(
                svc.call(Op::Place {
                    id: slackvm_model::VmId(n),
                    spec,
                })
                .expect("call"),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
