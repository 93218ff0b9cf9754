//! `recover`: the WAL read path. Set-up writes a deterministic state
//! directory through `ShardDurable` (place/remove churn around a steady
//! window, one snapshot half way, fsync off); each repetition recovers
//! it into a fresh model with `recover_shard`.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use slackvm_durable::{
    codec, fsck_shard, load_latest_snapshot, recover_shard, scan_wal, shard_dir, DurableOptions,
    FsyncPolicy, ShardDurable, WalOp, WalOutcome, WAL_FILE,
};
use slackvm_sim::ModelState;

use super::{
    default_model, layer_metrics, shapes, timed_reps, week_f, write_trace, Churn, GenOp, Oracles,
    Rep, RunArgs, RunOutput, Sizes, Workload,
};
use crate::metrics::LayerTable;
use crate::spans::{Tracer, NO_PARENT};

/// Place / remove percentages: half and half, no resizes.
const MIX: (u64, u64) = (50, 50);
/// Records per commit while writing, as a busy shard batches them.
const BATCH: u64 = 64;
/// Recoveries per timed repetition.
const RECOVERIES_PER_REP: usize = 5;

/// A written state directory and what recovering it must yield.
pub struct Written {
    dir: PathBuf,
    expected: ModelState,
    opened_pms: u32,
    records: u64,
    generate_ms: f64,
}

impl Written {
    fn setup(sizes: &Sizes, seed: u64, oracles: &mut Oracles) -> Written {
        let week = week_f(sizes.population, seed, oracles);
        let dir = crate::env::fresh_state_dir("recover").expect("benchmark/out is writable");
        let opts = DurableOptions {
            fsync: FsyncPolicy::Off,
            // One snapshot, taken by hand half way.
            snapshot_every: u64::MAX,
            ..DurableOptions::new(&dir)
        };
        let mut model = default_model();
        let (mut shard, _) =
            ShardDurable::open(&opts, 0, &mut model).expect("a fresh state directory opens");
        let mut churn = Churn::new(seed, shapes(&week.workload), sizes.window, 0, MIX, 0);
        let mut ops = churn.prefill();
        while (ops.len() as u64) < sizes.recover_records {
            ops.push(churn.next_op());
        }
        for (n, op) in ops.iter().enumerate() {
            let n = n as u64 + 1;
            let (wal_op, outcome) = match *op {
                GenOp::Place { id, spec } => (
                    WalOp::Place { id, spec },
                    WalOutcome::Placed(model.deploy(id, spec).expect("elastic fleet admits")),
                ),
                GenOp::Remove { id } => (
                    WalOp::Remove { id },
                    WalOutcome::Removed(model.remove(id).expect("the generator removes live VMs")),
                ),
                GenOp::Resize { .. } => unreachable!("the recover mix has no resizes"),
            };
            shard.append(wal_op, outcome).expect("journal appends");
            if n.is_multiple_of(BATCH) {
                shard.commit().expect("journal commits");
            }
            if n == sizes.recover_records / 2 {
                shard.snapshot_now(&model).expect("snapshot writes");
            }
        }
        shard.commit().expect("journal commits");
        Written {
            dir,
            expected: model.capture_state().normalized(),
            opened_pms: model.opened_pms(),
            records: ops.len() as u64,
            generate_ms: week.generate_ms,
        }
    }

    fn discard(self) {
        let _ = std::fs::remove_dir_all(self.dir);
    }
}

pub struct Recover;

impl Workload for Recover {
    type State = Written;

    fn name(&self) -> &'static str {
        "recover"
    }

    fn inputs(&self, sizes: &Sizes) -> usize {
        sizes.inputs.div_ceil(2)
    }

    fn setup(&self, sizes: &Sizes, seed: u64, oracles: &mut Oracles) -> Written {
        Written::setup(sizes, seed, oracles)
    }

    fn discard(&self, written: Written) {
        written.discard();
    }

    /// A repetition is a handful of recoveries, so that each has a
    /// median and a tail of its own. Ops are journal records read back,
    /// per second spent recovering.
    fn rep(&self, written: &mut Written, _: &Sizes, oracles: &mut Oracles) -> Rep {
        let mut rep = Rep::default();
        for _ in 0..RECOVERIES_PER_REP {
            let mut model = default_model();
            let t = Instant::now();
            let report = recover_shard(&written.dir, 0, &mut model);
            let wall = t.elapsed();
            let ok = report
                .as_ref()
                .is_ok_and(|r| r.records_total == written.records);
            oracles.check(ok, || format!("recover_shard: {report:?}"));
            oracles.check(
                model.capture_state().normalized() == written.expected,
                || "recovered state differs from the writer's".to_string(),
            );
            rep.ops += written.records;
            rep.wall_s += wall.as_secs_f64();
            rep.lat_ns.push(wall.as_nanos() as u64);
            rep.attempted += 1;
            rep.failed += u64::from(!ok);
        }
        rep
    }

    fn finish(&self, written: Written, _: &Sizes, _: &mut Oracles) -> u32 {
        let opened = written.opened_pms;
        written.discard();
        opened
    }

    fn traced(&self, args: &RunArgs) -> RunOutput {
        let mut oracles = Oracles::default();
        let written = Written::setup(&args.sizes, args.seed, &mut oracles);
        traced(written, args, oracles)
    }
}

// ---------------------------------------------------------------- traced

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One traced pass: `recover_shard` as a whole, then each step of the
/// read path on its own, attached to it as the part it explains.
fn traced_pass(written: &Written, tracer: &mut Tracer) -> (LayerTable, bool) {
    tracer.spans.clear();
    let mut t = LayerTable::new();
    let shard = shard_dir(&written.dir, 0);

    let mut model = default_model();
    let t0 = tracer.now();
    let ok = recover_shard(&written.dir, 0, &mut model).is_ok();
    let root = tracer.push("durable.recover", t0, tracer.now(), NO_PARENT, 0);
    let recover_ns = tracer.spans[root as usize].dur_ns();

    let t0 = tracer.now();
    let snapshot = load_latest_snapshot(&shard).expect("the written snapshot loads");
    let t1 = tracer.now();
    tracer.push("durable.snapshot_load", t0, t1, root, 0);
    let (horizon, state) = snapshot.expect("set-up wrote one snapshot");

    let mut fresh = default_model();
    let t2 = tracer.now();
    fresh.restore_state(&state).expect("the snapshot restores");
    let t3 = tracer.now();
    tracer.push("sim.restore_state", t2, t3, root, 0);

    let scan = scan_wal(&shard.join(WAL_FILE)).expect("the written journal scans");
    let t4 = tracer.now();
    tracer.push("durable.scan", t3, t4, root, 0);

    // Decode alone, on the payloads the scan just checked.
    let payloads: Vec<Vec<u8>> = scan.records.iter().map(codec::encode_record).collect();
    let t5 = tracer.now();
    for payload in &payloads {
        black_box(codec::decode_record(payload).expect("round trip"));
    }
    let t6 = tracer.now();

    // The journal tail, applied as recovery applies it.
    let tail: Vec<_> = scan.records.iter().filter(|r| r.seq > horizon).collect();
    let t7 = tracer.now();
    for record in &tail {
        match (record.op, record.outcome) {
            (WalOp::Place { id, spec }, WalOutcome::Placed(pm)) => fresh
                .restore_placement(id, spec, pm)
                .expect("directed place"),
            (WalOp::Remove { id }, WalOutcome::Removed(_)) => {
                fresh.remove(id).expect("logged remove");
            }
            other => unreachable!("the recover mix journals only place/remove: {other:?}"),
        }
    }
    let t8 = tracer.now();
    tracer.push("durable.apply", t7, t8, root, 0);

    let t9 = tracer.now();
    let fsck = fsck_shard(&written.dir, 0, &model, &mut default_model());
    let t10 = tracer.now();
    tracer.push("durable.fsck", t9, t10, NO_PARENT, 0);

    let claimed = (t1 - t0) + (t3 - t2) + (t4 - t3) + (t8 - t7);
    t.set("workload.generate_ms", written.generate_ms);
    t.set("workload.events", written.records as f64);
    t.set("durable.calls", 5.0);
    t.set("durable.snapshot_load_ms", ms(t1 - t0));
    t.set("durable.scan_ms", ms(t4 - t3));
    t.set(
        "durable.decode_ns",
        (t6 - t5) as f64 / payloads.len().max(1) as f64,
    );
    t.set(
        "durable.apply_ns",
        (t8 - t7) as f64 / tail.len().max(1) as f64,
    );
    t.set("durable.fsck_ms", ms(t10 - t9));
    t.set("sim.calls", 1.0);
    t.set("trace.spans", tracer.spans.len() as f64);
    // recover_shard also audits invariants; that and rounding are all
    // the steps leave unexplained.
    t.set(
        "trace.unattributed_frac",
        (recover_ns as f64 - claimed as f64).abs() / recover_ns.max(1) as f64,
    );
    let agree =
        fresh.capture_state().normalized() == written.expected && fsck.is_ok_and(|f| f.ok());
    (t, ok && agree)
}

fn traced(written: Written, args: &RunArgs, mut oracles: Oracles) -> RunOutput {
    let mut tracer = Tracer::new();
    let mut tables = Vec::new();
    let mut failed = 0u64;
    let reps = timed_reps(args.seconds, 2, || {
        // The untraced reference, in the same pass as what it is
        // compared with (the second of two, so both start warm).
        let mut plain_s = 0.0;
        for _ in 0..2 {
            let mut model = default_model();
            let t = Instant::now();
            let _ = black_box(recover_shard(&written.dir, 0, &mut model));
            plain_s = t.elapsed().as_secs_f64();
        }
        let (mut t, ok) = traced_pass(&written, &mut tracer);
        failed += u64::from(!ok);
        let traced_s = tracer.spans[0].dur_ns() as f64 / 1e9;
        t.set("trace.overhead_frac", traced_s / plain_s - 1.0);
        tables.push(t);
    });
    write_trace("recover", &tracer);
    oracles.check(failed == 0, || {
        format!("{failed} traced passes did not reproduce the writer's state")
    });
    written.discard();
    RunOutput {
        attempted: reps as u64,
        failed,
        metrics: layer_metrics(&tables),
        oracle_failures: oracles.into_failures(),
    }
}
