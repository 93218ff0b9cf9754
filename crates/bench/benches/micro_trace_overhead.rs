//! Cost of the request-scoped tracing plane.
//!
//! The same synchronous place→reply round trip on an idle single
//! shard, measured at each [`TraceLevel`]: `off` (one clock read per
//! batch — the pre-tracing hot path), `stages` (the default: two extra
//! clock reads per request, folded into the stage histograms), and
//! `sampled` at 1-in-1 (every request additionally emits five
//! Chrome-trace spans and feeds the slow-request digest — the
//! worst-case sampling bill, real deployments run 1-in-N). A closed-
//! loop throughput pass at the default level guards the `serve_inproc`
//! baseline of `benchmark/README.md`: `stages` must stay within noise
//! of the `off` row measured beside it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slackvm_serve::{
    run_closed_loop, BombardConfig, ModelSpec, Op, PlacementService, ServeConfig, TraceLevel,
};

fn service(trace: TraceLevel) -> PlacementService {
    PlacementService::start(ServeConfig {
        shards: 1,
        model: ModelSpec::default_shared(),
        trace,
        ..ServeConfig::default()
    })
    .expect("service start")
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve/trace");
    group.sample_size(10);

    for (label, level) in [
        ("off", TraceLevel::Off),
        ("stages", TraceLevel::Stages),
        ("sampled", TraceLevel::Sampled { every: 1 }),
    ] {
        group.bench_with_input(
            BenchmarkId::new("call_round_trip", label),
            &level,
            |b, &level| {
                let svc = service(level);
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
            },
        );
    }

    // Closed-loop admission at the default level, directly comparable
    // to serve/admission/closed_loop/1 from micro_serve_admission.
    let config = BombardConfig {
        population: 200,
        clients: 2,
        requests: 2_000,
        ..BombardConfig::default()
    };
    group.bench_function("closed_loop_stages/1", |b| {
        b.iter(|| {
            let svc = service(TraceLevel::Stages);
            let report = run_closed_loop(&svc, &config).expect("bombard");
            std::hint::black_box(svc.stop());
            std::hint::black_box(report)
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
