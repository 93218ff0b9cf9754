//! Differential proof that the online pressure executor is the
//! offline one, plus the crash test for a journal holding interleaved
//! admission, consolidation, and mitigation migrations.
//!
//! The offline executor (`plan_mitigation` + `apply_plan` against a
//! `DeploymentModel`) and the online executor (the per-shard pressure
//! tick inside `slackvm-serve`) share the estimator pipeline, the
//! scorer, the planner, and the validator, but execute through
//! different code paths — one borrows the model exclusively, the other
//! interleaves with live admission and journals every migration as a
//! WAL record. This suite drives both with the same churn and the same
//! synthesized usage signal and proves they converge to the *same*
//! cluster state, move for move; then delivers a real `SIGKILL` to a
//! service running *both* background planes mid-flight and requires
//! recovery and the fsck decision-replay proof to hold over a journal
//! where admission, consolidation, and mitigation records interleave.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use slackvm::prelude::*;
use slackvm_durable::{fsck_shard, recover_shard, scan_wal, shard_dir, Manifest, WalOp, WAL_FILE};
use slackvm_pressure::{
    observe_model, plan_mitigation_avoiding, score_pressure, synth_frac, EstimatorConfig,
    PressureConfig, PressureState, StateKey, UsageTracker,
};
use slackvm_rebalance::{apply_plan, Budget, PlannedMove};
use slackvm_serve::{
    DurableOptions as ServeDurableOptions, FsyncPolicy, ModelSpec, Op, Outcome, PlacementService,
    PressureOptions, RebalanceOptions, ServeConfig,
};

/// The skew both executors synthesize usage from.
const USAGE_SEED: u64 = 42;
const HOT_FRAC: f64 = 0.5;

/// A unique scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slackvm-press-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// First-fit on the paper worker shape, same as the rebalance
/// differential, so hotspots form the way fragmentation does.
fn first_fit_spec() -> ModelSpec {
    ModelSpec::Shared {
        topology: "cores=32".into(),
        mem_mib: gib(128),
        policy: "first-fit".into(),
        fleet_cap: None,
    }
}

/// One admission step, identical for both executors.
enum Step {
    Place(VmId, VmSpec),
    Remove(VmId),
}

/// Deterministic departure-heavy churn, generated once and fed to both
/// sides so any state divergence is an executor bug, not input skew.
fn steps(seed: u64, events: u64) -> Vec<Step> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut alive: Vec<VmId> = Vec::new();
    let mut out = Vec::new();
    for i in 0..events {
        let r = next();
        if alive.len() > 3 && r % 3 == 0 {
            let id = alive.swap_remove((r >> 32) as usize % alive.len());
            out.push(Step::Remove(id));
        } else {
            let spec = VmSpec::of(
                1 + (r % 8) as u32,
                gib(1 + (r >> 8) % 24),
                OversubLevel::of(1 + ((r >> 16) % 3) as u32),
            );
            alive.push(VmId(i));
            out.push(Step::Place(VmId(i), spec));
        }
    }
    out
}

/// Runs the offline executor to quiescence, mirroring the online tick
/// exactly: observe the synthesized signal through the estimator
/// pipeline, plan with the carried hysteresis memory, apply the whole
/// plan, then re-score the live model for next round's memory.
fn offline_converge(steps: &[Step], budget: &Budget) -> (Vec<PlannedMove>, DeploymentModel) {
    let config = PressureConfig::default();
    let mut model = first_fit_spec().build(1).expect("offline model");
    for step in steps {
        match step {
            Step::Place(id, spec) => {
                model.deploy(*id, *spec).expect("elastic fleet admits");
            }
            Step::Remove(id) => {
                model.remove(*id).expect("alive VM removes");
            }
        }
    }
    let mut tracker = UsageTracker::new(EstimatorConfig::default());
    let mut prev: BTreeMap<StateKey, PressureState> = BTreeMap::new();
    let mut moves = Vec::new();
    for round in 0.. {
        assert!(round < 64, "offline mitigation never quiesced");
        observe_model(&mut tracker, &model, |vm| {
            synth_frac(USAGE_SEED, vm, HOT_FRAC)
        });
        let plan = {
            let t = &tracker;
            plan_mitigation_avoiding(
                &model,
                &config,
                budget,
                &|vm| t.demand(vm),
                &Default::default(),
                &prev,
            )
            .expect("planner runs")
        };
        if plan.is_empty() {
            break;
        }
        apply_plan(&mut model, &plan.plan).expect("fresh plan applies");
        let t = &tracker;
        prev = score_pressure(&model, &config, &|vm| t.demand(vm), &prev).states();
        moves.extend(plan.plan.moves);
    }
    model.check_invariants().expect("offline invariants");
    (moves, model)
}

#[test]
fn online_pressure_tick_matches_offline_apply_move_for_move() {
    let dir = scratch("diff");
    // `max_concurrent` covers any whole plan, so one online tick
    // executes exactly one offline plan-apply round and the two
    // executors iterate in lockstep.
    let budget = Budget {
        max_migrations: 16,
        max_moved_mem_mib: gib(256),
        max_concurrent: 16,
    };
    let churn = steps(0x4, 90);
    let (offline_moves, offline_model) = offline_converge(&churn, &budget);
    assert!(
        !offline_moves.is_empty(),
        "the skew must produce hotspots or the differential proves nothing"
    );

    // Online: same churn through a single-shard durable service, then
    // explicit pressure ticks (the interval is an hour so the timer
    // never races the trigger) until the executor finds nothing.
    let svc = PlacementService::start(ServeConfig {
        shards: 1,
        model: first_fit_spec(),
        durable: Some(ServeDurableOptions {
            fsync: FsyncPolicy::Off,
            ..ServeDurableOptions::new(&dir)
        }),
        pressure: Some(PressureOptions {
            every: Duration::from_secs(3600),
            budget,
            usage_seed: USAGE_SEED,
            hot_frac: HOT_FRAC,
            ..PressureOptions::default()
        }),
        ..ServeConfig::default()
    })
    .expect("service starts");
    for step in &churn {
        let reply = match step {
            Step::Place(id, spec) => svc.call(Op::Place {
                id: *id,
                spec: *spec,
            }),
            Step::Remove(id) => svc.call(Op::Remove { id: *id }),
        }
        .expect("call");
        assert!(
            matches!(reply.outcome, Outcome::Placed(_) | Outcome::Removed(_)),
            "{reply:?}"
        );
    }
    let mut online_migrations = 0u64;
    for round in 0.. {
        assert!(round < 64, "online mitigation never quiesced");
        let tick = svc.trigger_pressure(0).expect("tick");
        assert_eq!(tick.skipped, None, "no interlock applies here");
        assert_eq!(tick.deferred, 0, "budget covers whole plans");
        if tick.migrations == 0 {
            break;
        }
        online_migrations += u64::from(tick.migrations);
    }
    assert_eq!(online_migrations as usize, offline_moves.len());
    svc.stop().check_invariants().expect("online invariants");

    // The journal proves the executors made the same moves in the same
    // order...
    let scan = scan_wal(&shard_dir(&dir, 0).join(WAL_FILE)).expect("scan");
    let journalled: Vec<(VmId, PmId, PmId)> = scan
        .records
        .iter()
        .filter_map(|r| match r.op {
            WalOp::Migrate { id, from, to } => Some((id, from, to)),
            _ => None,
        })
        .collect();
    let planned: Vec<(VmId, PmId, PmId)> = offline_moves
        .iter()
        .map(|mv| (mv.vm, mv.from, mv.to))
        .collect();
    assert_eq!(journalled, planned, "executors diverged");

    // ...and recovery replays that journal onto the exact state the
    // offline executor reached.
    let manifest = Manifest::load(&dir).expect("manifest");
    let mut recovered = first_fit_spec().build(manifest.shards).expect("model");
    recover_shard(&dir, 0, &mut recovered).expect("recovery");
    assert_eq!(
        recovered.capture_state().normalized(),
        offline_model.capture_state().normalized(),
        "online and offline executors reached different states"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Child half of the crash test: a durable single-shard service running
/// *both* background planes on aggressive timers, churned so that the
/// canonical fragmentation pattern (consolidation fodder) and hot
/// 16-core pairs (mitigation fodder, with every VM synthesized hot)
/// interleave — so the journal fills with admission, consolidation,
/// and mitigation records mixed together. A no-op unless
/// `SLACKVM_CRASH_PRESS_DIR` is set.
#[test]
fn crash_victim_pressure() {
    let Ok(dir) = std::env::var("SLACKVM_CRASH_PRESS_DIR") else {
        return;
    };
    let config = ServeConfig {
        shards: 1,
        queue_depth: 256,
        batch_max: 32,
        model: first_fit_spec(),
        durable: Some(ServeDurableOptions {
            fsync: FsyncPolicy::Every,
            snapshot_every: 512,
            retain: 2,
            ..ServeDurableOptions::new(&dir)
        }),
        rebalance: Some(RebalanceOptions {
            every: Duration::from_millis(1),
            budget: Budget::default(),
        }),
        pressure: Some(PressureOptions {
            every: Duration::from_millis(1),
            usage_seed: USAGE_SEED,
            hot_frac: 1.0,
            ..PressureOptions::default()
        }),
        ..ServeConfig::default()
    };
    let svc = PlacementService::start(config).expect("victim starts");
    let spec = |v, m| VmSpec::of(v, gib(m), OversubLevel::of(1));
    for round in 0..1_000_000u64 {
        let base = round * 6;
        // Consolidation fodder: two big VMs, one departs, a straggler
        // lands in the hole.
        svc.call(Op::Place {
            id: VmId(base),
            spec: spec(20, 80),
        })
        .expect("big A");
        svc.call(Op::Place {
            id: VmId(base + 1),
            spec: spec(20, 80),
        })
        .expect("big B");
        svc.call(Op::Remove { id: VmId(base) }).expect("drain A");
        svc.call(Op::Place {
            id: VmId(base + 2),
            spec: spec(4, 16),
        })
        .expect("straggler");
        // Mitigation fodder: a hot 16-core pair fills one PM to a
        // score the pressure plane must spread out.
        svc.call(Op::Place {
            id: VmId(base + 3),
            spec: spec(16, 16),
        })
        .expect("hot A");
        svc.call(Op::Place {
            id: VmId(base + 4),
            spec: spec(16, 16),
        })
        .expect("hot B");
        // Keep the fleet bounded: retire the previous round's leftovers.
        if round > 16 {
            let old = (round - 16) * 6;
            for id in [VmId(old + 1), VmId(old + 2), VmId(old + 3), VmId(old + 4)] {
                svc.call(Op::Remove { id }).expect("retire");
            }
        }
    }
    svc.stop();
}

#[test]
fn kill_nine_mid_mitigation_recovers_and_passes_fsck() {
    let dir = scratch("kill9-press");
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = std::process::Command::new(exe)
        .args(["--exact", "crash_victim_pressure", "--nocapture"])
        .env("SLACKVM_CRASH_PRESS_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn victim");

    // Kill only after the journal demonstrably contains migration
    // records — the whole point is crashing mid-mitigation.
    let wal = shard_dir(&dir, 0).join(WAL_FILE);
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let has_migrate = std::fs::metadata(&wal)
            .map(|m| m.len() > 16 * 1024)
            .unwrap_or(false)
            && scan_wal(&wal)
                .map(|scan| {
                    scan.records
                        .iter()
                        .any(|r| matches!(r.op, WalOp::Migrate { .. }))
                })
                .unwrap_or(false);
        if has_migrate {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("victim exited on its own: {status}");
        }
        assert!(
            Instant::now() < deadline,
            "victim never journalled a migration"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("kill -9");
    child.wait().expect("reap");

    // Recovery replays the committed history — admissions and directed
    // migrations from both planes interleaved — and fsck proves the
    // replay from genesis lands on the exact recovered state.
    let manifest = Manifest::load(&dir).expect("manifest survives");
    let build = || {
        let spec = manifest.model.clone();
        let mut model = spec.build(manifest.shards).expect("manifest model");
        model.set_index_mode(IndexMode::parse(&manifest.index).expect("manifest index"));
        model
    };
    let mut model = build();
    let report = recover_shard(&dir, 0, &mut model).expect("recovery");
    model.check_invariants().expect("recovered invariants");
    let mut fresh = build();
    let fsck = fsck_shard(&dir, 0, &model, &mut fresh).expect("fsck runs");
    assert!(fsck.ok(), "post-SIGKILL divergence: {:?}", fsck.mismatches);
    assert_eq!(fsck.records_checked, report.records_total);

    // And the service restarts cleanly against the directory, ready to
    // keep mitigating.
    let svc = PlacementService::start(ServeConfig {
        shards: 1,
        model: first_fit_spec(),
        durable: Some(ServeDurableOptions::new(&dir)),
        pressure: Some(PressureOptions::default()),
        ..ServeConfig::default()
    })
    .expect("restart");
    let recovered: u64 = svc.recovery_reports().iter().map(|r| r.records_total).sum();
    assert_eq!(recovered, report.records_total);
    svc.stop()
        .check_invariants()
        .expect("post-restart invariants");
    std::fs::remove_dir_all(&dir).ok();
}
