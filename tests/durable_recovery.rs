//! Durability edge cases, end to end.
//!
//! The unit tests inside `slackvm-durable` cover each layer (frames,
//! snapshots, manifest, replay) in isolation; this suite attacks the
//! stack the way a machine does — torn tails at arbitrary byte offsets
//! (property-based), snapshots round-tripping live model state, state
//! directories in every partial shape a crash can leave behind, and a
//! real `SIGKILL` delivered to a child process mid-batch, after which
//! recovery *and* the fsck decision-replay proof must both hold.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use slackvm::prelude::*;
use slackvm_durable::{
    fsck_shard, recover_shard, scan_wal, shard_dir, write_snapshot, DurableOptions, FsyncPolicy,
    Manifest, ShardDurable, WalOp, WalOutcome, WAL_FILE,
};
use slackvm_serve::{DurableOptions as ServeDurableOptions, ModelSpec, Op, Outcome, ServeConfig};

/// A fresh shared-pool model matching [`ModelSpec::default_shared`].
fn shared_model() -> DeploymentModel {
    ModelSpec::default_shared().build(1).expect("model builds")
}

/// A unique scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slackvm-durable-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `ops` mixed decisions (places with a periodic remove) through a
/// journaled shard rooted at `dir` and returns the resulting WAL bytes.
fn journaled_run(dir: &Path, ops: u64) -> Vec<u8> {
    let mut model = shared_model();
    let opts = DurableOptions {
        fsync: FsyncPolicy::Off,
        ..DurableOptions::new(dir)
    };
    let (mut durable, report) = ShardDurable::open(&opts, 0, &mut model).expect("open");
    assert_eq!(report.last_seq, 0, "scratch dir starts at genesis");
    for i in 0..ops {
        let spec = VmSpec::of(
            1 + (i % 4) as u32,
            gib(2 + (i % 3)),
            OversubLevel::of(1 + (i % 3) as u32),
        );
        let pm = model.deploy(VmId(i), spec).expect("elastic fleet admits");
        durable
            .append(WalOp::Place { id: VmId(i), spec }, WalOutcome::Placed(pm))
            .expect("append");
        if i % 5 == 4 {
            let gone = VmId(i - 2);
            let pm = model.remove(gone).expect("present");
            durable
                .append(WalOp::Remove { id: gone }, WalOutcome::Removed(pm))
                .expect("append");
        }
    }
    durable.commit().expect("commit");
    drop(durable);
    std::fs::read(shard_dir(dir, 0).join(WAL_FILE)).expect("wal exists")
}

#[test]
fn snapshots_round_trip_live_model_state() {
    let root = scratch("snap");
    let mut model = shared_model();
    for i in 0..40u64 {
        model
            .deploy(
                VmId(i),
                VmSpec::of(2, gib(4), OversubLevel::of(1 + (i % 3) as u32)),
            )
            .unwrap();
    }
    let state = model.capture_state();
    let shard = shard_dir(&root, 0);
    std::fs::create_dir_all(&shard).unwrap();
    write_snapshot(&shard, 40, &state).unwrap();

    // A snapshot-only directory (no journal at all) restores the exact
    // captured state with nothing to replay.
    let mut restored = shared_model();
    let report = recover_shard(&root, 0, &mut restored).unwrap();
    assert_eq!(report.snapshot_seq, Some(40));
    assert_eq!(report.records_replayed, 0, "snapshot-only dir has no tail");
    assert_eq!(
        restored.capture_state().normalized(),
        state.normalized(),
        "restored state equals the captured one"
    );
    restored.check_invariants().unwrap();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn every_partial_directory_shape_recovers() {
    // Missing root, empty root, empty shard dir: genesis.
    for (tag, prepare) in [
        ("missing", false),
        ("empty-root", true),
        ("empty-shard", true),
    ] {
        let dir = scratch(&format!("partial-{tag}"));
        if !prepare {
            std::fs::remove_dir_all(&dir).unwrap();
        } else if tag == "empty-shard" {
            std::fs::create_dir_all(shard_dir(&dir, 0)).unwrap();
        }
        let mut model = shared_model();
        let report = recover_shard(&dir, 0, &mut model).unwrap();
        assert_eq!(report.last_seq, 0, "{tag}");
        assert_eq!(report.records_total, 0, "{tag}");
        assert_eq!(model.capture_state().num_vms(), 0, "{tag}");
        std::fs::remove_dir_all(&dir).ok();
    }

    // WAL-only: the journal alone rebuilds the state.
    let dir = scratch("partial-wal-only");
    journaled_run(&dir, 25);
    let mut model = shared_model();
    let report = recover_shard(&dir, 0, &mut model).unwrap();
    assert_eq!(report.snapshot_seq, None);
    assert!(report.records_replayed == report.records_total && report.records_total >= 25);
    model.check_invariants().unwrap();
    let mut fresh = shared_model();
    let fsck = fsck_shard(&dir, 0, &model, &mut fresh).unwrap();
    assert!(fsck.ok(), "{:?}", fsck.mismatches);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chop the journal anywhere — frame boundary, mid-header,
    /// mid-payload — and recovery still lands on a valid prefix whose
    /// state passes both the model invariants and the fsck proof.
    #[test]
    fn recovery_survives_a_tail_chopped_anywhere(cut_back in 0u64..600, flip in proptest::option::of(0usize..64)) {
        let dir = scratch("chop");
        let pristine = journaled_run(&dir, 30);
        let cut = pristine.len() as u64 - cut_back.min(pristine.len() as u64);
        let mut bytes = pristine[..cut as usize].to_vec();
        if let (Some(back), true) = (flip, !bytes.is_empty()) {
            // Also flip a bit near the new tail: a torn sector, not a
            // clean chop.
            let at = bytes.len() - 1 - back.min(bytes.len() - 1);
            bytes[at] ^= 0x40;
        }
        let wal = shard_dir(&dir, 0).join(WAL_FILE);
        std::fs::write(&wal, &bytes).unwrap();

        let scan = scan_wal(&wal).unwrap();
        prop_assert!(scan.valid_len <= bytes.len() as u64);

        let mut model = shared_model();
        let report = recover_shard(&dir, 0, &mut model).unwrap();
        prop_assert_eq!(report.records_total, scan.records.len() as u64);
        prop_assert_eq!(report.wal_bytes, scan.valid_len);
        model.check_invariants().unwrap();

        let mut fresh = shared_model();
        let fsck = fsck_shard(&dir, 0, &model, &mut fresh).unwrap();
        prop_assert!(fsck.ok(), "{:?}", fsck.mismatches);
        prop_assert_eq!(fsck.records_checked, report.records_total);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Builds one shard's empty model from a recovered manifest, exactly
/// as the service and `slackvm recover` do.
fn model_from(manifest: &Manifest) -> DeploymentModel {
    let spec = manifest.model.clone();
    let mut model = spec.build(manifest.shards).expect("manifest model");
    model.set_index_mode(IndexMode::parse(&manifest.index).expect("manifest index"));
    model
}

/// Child half of the crash test: an infinite placement loop against a
/// durable single-shard service, meant to be `SIGKILL`ed by the parent.
/// A no-op unless `SLACKVM_CRASH_DIR` is set.
#[test]
fn crash_victim() {
    let Ok(dir) = std::env::var("SLACKVM_CRASH_DIR") else {
        return;
    };
    let config = ServeConfig {
        shards: 1,
        queue_depth: 256,
        batch_max: 32,
        model: ModelSpec::default_shared(),
        durable: Some(ServeDurableOptions {
            fsync: FsyncPolicy::Every,
            snapshot_every: 512,
            retain: 2,
            ..ServeDurableOptions::new(&dir)
        }),
        ..ServeConfig::default()
    };
    let svc = slackvm_serve::PlacementService::start(config).expect("victim starts");
    // A sliding window of live VMs: every iteration places one and
    // removes one 64 back, so the journal grows while the model stays
    // bounded. The bound below is a safety valve, far beyond how long
    // the parent lets this run.
    for i in 0..4_000_000u64 {
        let reply = svc
            .call(Op::Place {
                id: VmId(i),
                spec: VmSpec::of(2, gib(4), OversubLevel::of(1 + (i % 3) as u32)),
            })
            .expect("place");
        assert!(matches!(reply.outcome, Outcome::Placed(_)), "{reply:?}");
        if i >= 64 {
            svc.call(Op::Remove { id: VmId(i - 64) }).expect("remove");
        }
    }
    svc.stop();
}

/// Child half of the evacuation crash test: like [`crash_victim`], but
/// the loop also keeps failing and recovering PMs, so the journal the
/// parent kills mid-write is full of `FailPm`/`RecoverPm` records and
/// the evacuation re-placements they displaced. A no-op unless
/// `SLACKVM_CRASH_EVAC_DIR` is set.
#[test]
fn crash_victim_evac() {
    let Ok(dir) = std::env::var("SLACKVM_CRASH_EVAC_DIR") else {
        return;
    };
    let config = ServeConfig {
        shards: 1,
        queue_depth: 256,
        batch_max: 32,
        model: ModelSpec::default_shared(),
        durable: Some(ServeDurableOptions {
            fsync: FsyncPolicy::Every,
            snapshot_every: 512,
            retain: 2,
            ..ServeDurableOptions::new(&dir)
        }),
        ..ServeConfig::default()
    };
    let svc = slackvm_serve::PlacementService::start(config).expect("victim starts");
    for i in 0..4_000_000u64 {
        let reply = svc
            .call(Op::Place {
                id: VmId(i),
                spec: VmSpec::of(2, gib(4), OversubLevel::of(1 + (i % 3) as u32)),
            })
            .expect("place");
        assert!(matches!(reply.outcome, Outcome::Placed(_)), "{reply:?}");
        if i >= 64 {
            svc.call(Op::Remove { id: VmId(i - 64) }).expect("remove");
        }
        // Every 50 placements, knock a low PM over (evacuating its
        // VMs through the normal admission path) and stand the
        // previous casualty back up.
        if i % 50 == 49 {
            let pm = PmId(((i / 50) % 3) as u32);
            let prev = PmId((((i / 50) + 2) % 3) as u32);
            svc.call(Op::RecoverPm { shard: 0, pm: prev })
                .expect("recover");
            let reply = svc.call(Op::FailPm { shard: 0, pm }).expect("fail");
            assert!(
                matches!(reply.outcome, Outcome::PmFailed { lost: 0, .. }),
                "elastic fleet re-places every evicted VM: {reply:?}"
            );
        }
    }
    svc.stop();
}

#[test]
fn kill_nine_during_evacuation_recovers_and_passes_fsck() {
    let dir = scratch("kill9-evac");
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["--exact", "crash_victim_evac", "--nocapture"])
        .env("SLACKVM_CRASH_EVAC_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn victim");

    let wal = shard_dir(&dir, 0).join(WAL_FILE);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if std::fs::metadata(&wal)
            .map(|m| m.len() > 64 * 1024)
            .unwrap_or(false)
        {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("victim exited on its own: {status}");
        }
        assert!(Instant::now() < deadline, "victim never produced a journal");
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("kill -9");
    child.wait().expect("reap");

    // The committed history must actually contain the failure plane:
    // host-down records and the evacuation re-placements they forced.
    let manifest = Manifest::load(&dir).expect("manifest survives");
    let scan = scan_wal(&wal).expect("scan");
    assert!(
        scan.records
            .iter()
            .any(|r| matches!(r.op, WalOp::FailPm { .. })),
        "journal holds FailPm records"
    );
    assert!(
        scan.records
            .iter()
            .any(|r| matches!(r.op, WalOp::RecoverPm { .. })),
        "journal holds RecoverPm records"
    );

    // Recovery replays that history — evictions, re-placements, and
    // repairs included — and fsck proves the replay from genesis lands
    // on the exact same state.
    let mut model = model_from(&manifest);
    let report = recover_shard(&dir, 0, &mut model).expect("recovery");
    model.check_invariants().expect("recovered invariants");
    let mut fresh = model_from(&manifest);
    let fsck = fsck_shard(&dir, 0, &model, &mut fresh).expect("fsck runs");
    assert!(fsck.ok(), "post-SIGKILL divergence: {:?}", fsck.mismatches);
    assert_eq!(fsck.records_checked, report.records_total);

    // And the service restarts cleanly against the directory.
    let config = ServeConfig {
        shards: 1,
        model: ModelSpec::default_shared(),
        durable: Some(ServeDurableOptions::new(&dir)),
        ..ServeConfig::default()
    };
    let svc = slackvm_serve::PlacementService::start(config).expect("restart");
    let recovered: u64 = svc.recovery_reports().iter().map(|r| r.records_total).sum();
    assert_eq!(recovered, report.records_total);
    svc.stop()
        .check_invariants()
        .expect("post-restart invariants");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_nine_mid_batch_recovers_and_passes_fsck() {
    let dir = scratch("kill9");
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["--exact", "crash_victim", "--nocapture"])
        .env("SLACKVM_CRASH_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn victim");

    // Let the victim commit a real body of work, then kill it without
    // any chance to flush: `Child::kill` is SIGKILL on unix.
    let wal = shard_dir(&dir, 0).join(WAL_FILE);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if std::fs::metadata(&wal)
            .map(|m| m.len() > 64 * 1024)
            .unwrap_or(false)
        {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("victim exited on its own: {status}");
        }
        assert!(Instant::now() < deadline, "victim never produced a journal");
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("kill -9");
    child.wait().expect("reap");

    // The service got far enough to snapshot at least once under the
    // 512-record cadence, so recovery exercises snapshot + tail.
    let manifest = Manifest::load(&dir).expect("manifest survives");
    assert_eq!(manifest.shards, 1);
    let mut model = model_from(&manifest);
    let report = recover_shard(&dir, 0, &mut model).expect("recovery");
    assert!(
        report.records_total > 500,
        "journal has real work: {report:?}"
    );
    model.check_invariants().expect("recovered invariants");

    // fsck: replay every committed decision from genesis through a
    // fresh model and prove the recovered state is the committed
    // history — with fsync=every, everything acked before the kill.
    let mut fresh = model_from(&manifest);
    let fsck = fsck_shard(&dir, 0, &model, &mut fresh).expect("fsck runs");
    assert!(fsck.ok(), "post-SIGKILL divergence: {:?}", fsck.mismatches);
    assert_eq!(fsck.records_checked, report.records_total);

    // And the service itself restarts cleanly against the directory.
    let config = ServeConfig {
        shards: 1,
        queue_depth: 256,
        batch_max: 32,
        model: ModelSpec::default_shared(),
        durable: Some(ServeDurableOptions::new(&dir)),
        ..ServeConfig::default()
    };
    let svc = slackvm_serve::PlacementService::start(config).expect("restart");
    let recovered: u64 = svc.recovery_reports().iter().map(|r| r.records_total).sum();
    assert_eq!(recovered, report.records_total);
    svc.stop()
        .check_invariants()
        .expect("post-restart invariants");
    std::fs::remove_dir_all(&dir).ok();
}
