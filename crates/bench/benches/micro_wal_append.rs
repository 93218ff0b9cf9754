//! Per-decision cost of the write-ahead log.
//!
//! Appends placement decisions through [`WalWriter`] under each fsync
//! policy, one commit per record (the worst case: a batch of one, as a
//! synchronous client produces) and one commit per 64-record batch
//! (what a loaded shard actually does). The spread between `off` and
//! `every` is the price of the durability guarantee; `interval` shows
//! the bounded-loss middle ground. The record is `durable.append_ns` /
//! `durable.commit_p50_us` of a `--trace 1` run of `serve_tcp_durable`
//! (`benchmark/README.md`); quote the fsync policy next to any figure —
//! an `off` number quoted as WAL overhead would be a lie.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slackvm_durable::{FsyncPolicy, WalOp, WalOutcome, WalRecord, WalWriter};
use slackvm_model::{gib, OversubLevel, PmId, VmId, VmSpec};

/// A fresh WAL in a unique scratch file.
fn writer(tag: &str, policy: FsyncPolicy) -> WalWriter {
    let path = std::env::temp_dir().join(format!(
        "slackvm-bench-wal-{tag}-{}-{}.log",
        policy.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    WalWriter::open(&path, 0, policy).expect("wal opens")
}

fn record(seq: u64) -> WalRecord {
    WalRecord {
        seq,
        op: WalOp::Place {
            id: VmId(seq),
            spec: VmSpec::of(2, gib(4), OversubLevel::of(2)),
        },
        outcome: WalOutcome::Placed(PmId((seq % 64) as u32)),
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("durable/wal");
    let policies = [
        ("off", FsyncPolicy::Off),
        (
            "interval50ms",
            FsyncPolicy::Interval(Duration::from_millis(50)),
        ),
        ("every", FsyncPolicy::Every),
    ];

    for (name, policy) in policies {
        group.bench_with_input(
            BenchmarkId::new("append_commit_1", name),
            &policy,
            |b, &policy| {
                let mut wal = writer("single", policy);
                let mut seq = 0u64;
                b.iter(|| {
                    seq += 1;
                    wal.append(&record(seq)).expect("append");
                    std::hint::black_box(wal.commit().expect("commit"))
                })
            },
        );
    }

    for (name, policy) in policies {
        group.bench_with_input(
            BenchmarkId::new("append_commit_64", name),
            &policy,
            |b, &policy| {
                let mut wal = writer("batch", policy);
                let mut seq = 0u64;
                b.iter(|| {
                    for _ in 0..64 {
                        seq += 1;
                        wal.append(&record(seq)).expect("append");
                    }
                    std::hint::black_box(wal.commit().expect("commit"))
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
