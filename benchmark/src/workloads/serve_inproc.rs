//! `serve_inproc`: one in-process `PlacementService`, one shard, no
//! durability, one generator thread.
//!
//! Phase A keeps a fixed window of requests in flight through
//! `submit_with` (saturated: throughput). Phase B offers ops on a fixed
//! schedule through `try_submit_with` whatever the service does (open
//! loop: tenants arrive independently) and times each from the instant
//! it was *due*, so a stall is charged to every request it delays.

use std::hint::spin_loop;
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Instant;

use slackvm_serve::{
    Op, Outcome, PlacementService, Reply, ServeConfig, ServeError, ServiceReport, TraceLevel,
};

use super::{
    layer_metrics, shapes, timed_reps, week_f, write_trace, Churn, GenOp, Oracles, Rep, RunArgs,
    RunOutput, Sizes, Workload,
};
use crate::metrics::LayerTable;
use crate::spans::{Tracer, NO_PARENT};
use crate::stats::{median, p50_and_tail, percentile_sorted, supported_tail};

/// Place / remove percentages of the op mix; the rest are resizes.
const MIX: (u64, u64) = (45, 45);

pub fn to_op(op: GenOp) -> Op {
    match op {
        GenOp::Place { id, spec } => Op::Place { id, spec },
        GenOp::Remove { id } => Op::Remove { id },
        GenOp::Resize { id, vcpus, mem_mib } => Op::Resize { id, vcpus, mem_mib },
    }
}

/// Fills a fresh service with `ops` (all places), a window of them in
/// flight at a time: one round trip per VM would make set-up a measure
/// of how often the worker falls asleep between two of them.
pub fn prefill(svc: &PlacementService, ops: Vec<GenOp>, oracles: &mut Oracles) {
    const IN_FLIGHT: usize = 64;
    let (tx, rx) = mpsc::channel();
    let mut check = |reply: Reply| {
        oracles.check(matches!(reply.outcome, Outcome::Placed(_)), || {
            format!("prefill: {:?}", reply.outcome)
        })
    };
    let n = ops.len();
    for (i, op) in ops.into_iter().enumerate() {
        if i >= IN_FLIGHT {
            check(rx.recv().expect("service is running"));
        }
        svc.submit_with(to_op(op), tx.clone())
            .expect("service is running");
    }
    for _ in 0..n.min(IN_FLIGHT) {
        check(rx.recv().expect("service is running"));
    }
}

/// What became of every op offered to a service.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub placed: u64,
    pub removed: u64,
    pub resized: u64,
    /// Resizes the hosting PM could not absorb: answered, not failed.
    pub declined: u64,
    pub rejected: u64,
    pub shed: u64,
    pub unknown_vm: u64,
    /// Refusals at the door (`Busy`) of requests that were then offered
    /// again until accepted: paid for in latency, not counted as failed.
    pub busy: u64,
    pub errored: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.placed += other.placed;
        self.removed += other.removed;
        self.resized += other.resized;
        self.declined += other.declined;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.unknown_vm += other.unknown_vm;
        self.busy += other.busy;
        self.errored += other.errored;
    }
}

impl Tally {
    pub fn note(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Placed(_) => self.placed += 1,
            Outcome::Removed(_) => self.removed += 1,
            Outcome::Resized { accepted: true } => self.resized += 1,
            Outcome::Resized { accepted: false } => self.declined += 1,
            Outcome::Rejected => self.rejected += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::UnknownVm => self.unknown_vm += 1,
            _ => self.errored += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.rejected + self.shed + self.unknown_vm + self.errored
    }

    /// Every op offered has exactly one fate.
    pub fn answered(&self) -> u64 {
        self.placed
            + self.removed
            + self.resized
            + self.declined
            + self.rejected
            + self.shed
            + self.unknown_vm
            + self.errored
    }
}

/// A started, pre-filled service and the generator that feeds it.
pub struct Rig {
    svc: PlacementService,
    churn: Churn,
    generate_ms: f64,
    tx: Sender<Reply>,
    rx: Receiver<Reply>,
}

impl Rig {
    fn start(sizes: &Sizes, seed: u64, trace: TraceLevel, oracles: &mut Oracles) -> Rig {
        let week = week_f(sizes.population, seed, oracles);
        let mut churn = Churn::new(
            seed,
            shapes(&week.workload),
            sizes.window,
            sizes.maturity,
            MIX,
            0,
        );
        let svc = PlacementService::start(ServeConfig {
            queue_depth: sizes.queue_depth,
            trace,
            ..ServeConfig::default()
        })
        .expect("the default configuration is valid");
        prefill(&svc, churn.prefill(), oracles);
        let (tx, rx) = mpsc::channel();
        Rig {
            svc,
            churn,
            generate_ms: week.generate_ms,
            tx,
            rx,
        }
    }

    fn ops(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| to_op(self.churn.next_op())).collect()
    }

    /// Phase A: `window` requests in flight until `ops` are answered.
    /// Returns the wall seconds.
    fn saturated(&mut self, n: usize, window: usize, tally: &mut Tally) -> f64 {
        let ops = self.ops(n);
        let t = Instant::now();
        let mut in_flight = 0;
        for op in ops {
            if in_flight == window {
                tally.note(self.rx.recv().expect("service is running").outcome);
                in_flight -= 1;
            }
            self.svc
                .submit_with(op, self.tx.clone())
                .expect("service is running");
            tally.attempted += 1;
            in_flight += 1;
        }
        for _ in 0..in_flight {
            tally.note(self.rx.recv().expect("service is running").outcome);
        }
        t.elapsed().as_secs_f64()
    }

    /// Phase B: `n` ops offered at `rate` per second.
    fn open_loop(&mut self, n: usize, rate: f64, detail: bool, tally: &mut Tally) -> OpenLoop {
        let ops = self.ops(n);
        let mut out = OpenLoop::with_capacity(n, detail);
        // Request index by (seq - first seq); a refused submission burns
        // a sequence number, so the map may have holes.
        let mut first_seq: Option<u64> = None;
        let mut req_of_seq: Vec<u32> = Vec::with_capacity(n);
        let mut answered = 0usize;
        let gap_ns = 1e9 / rate;
        let epoch = Instant::now();
        let clock = || epoch.elapsed().as_nanos() as u64;

        let take = |reply: Reply,
                    out: &mut OpenLoop,
                    req_of_seq: &[u32],
                    first_seq: Option<u64>,
                    tally: &mut Tally| {
            let now = clock();
            let i = req_of_seq
                [(reply.seq - first_seq.expect("a reply follows a submission")) as usize]
                as usize;
            out.lat_ns.push(now - out.due_ns[i]);
            if let Some(d) = out.detail.as_mut() {
                d[i].recv_ns = now;
                d[i].reply = Some(reply);
            }
            tally.note(reply.outcome);
        };

        for (i, op) in ops.into_iter().enumerate() {
            let due = (i as f64 * gap_ns) as u64;
            let sent = loop {
                while let Ok(reply) = self.rx.try_recv() {
                    take(reply, &mut out, &req_of_seq, first_seq, tally);
                    answered += 1;
                }
                let now = clock();
                if now >= due {
                    break now;
                }
                spin_loop();
            };
            out.due_ns.push(due);
            out.late_ns.push(sent - due);
            tally.attempted += 1;
            let seq = loop {
                match self.svc.try_submit_with(op.clone(), self.tx.clone()) {
                    Ok(seq) => break seq,
                    // Refused at the door: the tenant asks again. The
                    // request stays timed from when it was first due, so
                    // the refusal costs it, and every later one, latency.
                    Err(ServeError::Busy) => {
                        tally.busy += 1;
                        spin_loop();
                    }
                    Err(e) => panic!("service stopped mid-run: {e}"),
                }
            };
            if let Some(d) = out.detail.as_mut() {
                d.push(Request {
                    sent_ns: sent,
                    door_end_ns: clock(),
                    recv_ns: 0,
                    reply: None,
                });
            }
            let base = *first_seq.get_or_insert(seq);
            let slot = (seq - base) as usize;
            if slot >= req_of_seq.len() {
                req_of_seq.resize(slot + 1, u32::MAX);
            }
            req_of_seq[slot] = i as u32;
        }
        out.in_flight_at_end = n - answered;
        while answered < n {
            match self.rx.try_recv() {
                Ok(reply) => {
                    take(reply, &mut out, &req_of_seq, first_seq, tally);
                    answered += 1;
                }
                Err(_) => spin_loop(),
            }
        }
        out
    }

    /// Empties the fleet, stops the service and audits what it leaves.
    fn finish(mut self, tally: &Tally, oracles: &mut Oracles) -> ServiceReport {
        for op in self.churn.drain() {
            let reply = self.svc.call(to_op(op)).expect("service is running");
            oracles.check(matches!(reply.outcome, Outcome::Removed(_)), || {
                format!("drain: {:?}", reply.outcome)
            });
        }
        let report = self.svc.stop();
        audit(&report, tally, oracles);
        report
    }
}

/// The serve oracles shared with `serve_tcp_durable`.
pub fn audit(report: &ServiceReport, tally: &Tally, oracles: &mut Oracles) {
    oracles.check(tally.answered() == tally.attempted, || {
        format!(
            "{} ops attempted, {} answered: {tally:?}",
            tally.attempted,
            tally.answered()
        )
    });
    oracles.check(tally.failed() == 0, || format!("failed ops: {tally:?}"));
    oracles.check(report.check_invariants().is_ok(), || {
        format!("invariants: {:?}", report.check_invariants())
    });
    let left: u32 = report.shards.iter().map(|s| s.model.active_pms()).sum();
    oracles.check(left == 0 && report.lost_vms.is_empty(), || {
        format!(
            "{left} PMs still host VMs after the drain; lost {:?}",
            report.lost_vms
        )
    });
}

#[derive(Debug, Clone, Copy)]
struct Request {
    sent_ns: u64,
    door_end_ns: u64,
    recv_ns: u64,
    reply: Option<Reply>,
}

/// What one open-loop phase measured.
#[derive(Debug)]
struct OpenLoop {
    /// When each request was due, ns from the phase's start.
    due_ns: Vec<u64>,
    /// Due time to reply received, per answered request.
    lat_ns: Vec<u64>,
    /// How late the generator sent each request.
    late_ns: Vec<u64>,
    in_flight_at_end: usize,
    /// Per-request stamps and replies; traced passes only.
    detail: Option<Vec<Request>>,
}

impl OpenLoop {
    fn with_capacity(n: usize, detail: bool) -> Self {
        OpenLoop {
            due_ns: Vec::with_capacity(n),
            lat_ns: Vec::with_capacity(n),
            late_ns: Vec::with_capacity(n),
            in_flight_at_end: 0,
            detail: detail.then(|| Vec::with_capacity(n)),
        }
    }
}

pub struct ServeInproc;

impl Workload for ServeInproc {
    /// The rig, and the fate of every op offered to it so far.
    type State = (Rig, Tally);

    fn name(&self) -> &'static str {
        "serve_inproc"
    }

    fn inputs(&self, sizes: &Sizes) -> usize {
        sizes.inputs.div_ceil(2)
    }

    fn setup(&self, sizes: &Sizes, seed: u64, oracles: &mut Oracles) -> Self::State {
        (
            Rig::start(sizes, seed, TraceLevel::Off, oracles),
            Tally::default(),
        )
    }

    fn discard(&self, (rig, _): Self::State) {
        drop(rig.svc.stop());
    }

    fn rep(&self, (rig, tally): &mut Self::State, sizes: &Sizes, _: &mut Oracles) -> Rep {
        let before = *tally;
        let wall_s = rig.saturated(sizes.sat_ops, sizes.sat_window, tally);
        let open = rig.open_loop(sizes.open_ops, sizes.open_rate, false, tally);
        Rep {
            ops: sizes.sat_ops as u64,
            wall_s,
            lat_ns: open.lat_ns,
            attempted: tally.attempted - before.attempted,
            failed: tally.failed() - before.failed(),
        }
    }

    fn finish(&self, (rig, tally): Self::State, _: &Sizes, oracles: &mut Oracles) -> u32 {
        rig.finish(&tally, oracles).opened_pms()
    }

    fn traced(&self, args: &RunArgs) -> RunOutput {
        traced(args)
    }
}

// ---------------------------------------------------------------- traced

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// p50 and p99 of `values` as they are (the p99 at the highest level
/// the sample supports); zeros for an empty sample.
pub fn p50_p99(values: &mut [u64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let (p50, p99) = p50_and_tail(values, 0.99);
    (p50 as f64, p99 as f64)
}

/// The worker-reported stages of a batch of requests, in whole
/// microseconds as `Reply` carries them.
pub fn set_stage_percentiles(
    t: &mut LayerTable,
    queue_us: &mut [u64],
    place_us: &mut [u64],
    commit_us: &mut [u64],
) {
    let (p50, p99) = p50_p99(queue_us);
    t.set("serve.queue_wait_p50_us", p50);
    t.set("serve.queue_wait_p99_us", p99);
    let (p50, p99) = p50_p99(place_us);
    t.set("serve.place_p50_us", p50);
    t.set("serve.place_p99_us", p99);
    t.set("serve.commit_p50_us", p50_p99(commit_us).0);
}

/// Turns one detailed open-loop phase into spans and a table.
///
/// A request's blocking chain is: into the queue (part of the submit
/// call), queue wait, placement, commit, and the reply's way back to
/// the generator. The worker reports the middle three; what is left of
/// the round trip is the two hops. The submit call itself keeps running
/// on the generator's core after the request is queued, beside the
/// worker, so it is a span of its own and not a link of the chain.
fn table_of(open: &OpenLoop, tracer: &mut Tracer, t: &mut LayerTable) {
    let detail = open.detail.as_ref().expect("traced phases keep detail");
    let (mut queue, mut place, mut commit) = (vec![], vec![], vec![]);
    let (mut door, mut hops) = (vec![], vec![]);
    let (mut total_ns, mut claimed_ns) = (0u64, 0u64);
    for r in detail {
        let reply = r.reply.expect("every request was answered");
        let root = tracer.push("serve.request", r.sent_ns, r.recv_ns, NO_PARENT, reply.seq);
        tracer.push("serve.door", r.sent_ns, r.door_end_ns, NO_PARENT, reply.seq);
        // The worker reports stage durations, not instants: lay them
        // end to end, ending where the reply hop must have begun.
        let staged = (reply.queue_us + reply.place_us + reply.commit_us) * 1000;
        let total = r.recv_ns - r.sent_ns;
        let mut at = r.sent_ns + total.saturating_sub(staged) / 2;
        for (name, stage_us) in [
            ("serve.queue_wait", reply.queue_us),
            ("serve.place", reply.place_us),
            ("serve.commit", reply.commit_us),
        ] {
            tracer.push(name, at, at + stage_us * 1000, root, reply.seq);
            at += stage_us * 1000;
        }
        let hop = total.saturating_sub(staged);
        queue.push(reply.queue_us);
        place.push(reply.place_us);
        commit.push(reply.commit_us);
        door.push(r.door_end_ns - r.sent_ns);
        hops.push(hop);
        total_ns += total;
        claimed_ns += staged + hop;
    }
    t.set("serve.calls", detail.len() as f64);
    door.sort_unstable();
    t.set("serve.door_ns", percentile_sorted(&door, 0.50) as f64);
    set_stage_percentiles(t, &mut queue, &mut place, &mut commit);
    hops.sort_unstable();
    t.set("serve.reply_hop_p50_us", us(percentile_sorted(&hops, 0.50)));
    let mut late = open.late_ns.clone();
    late.sort_unstable();
    let q = supported_tail(late.len(), 0.99);
    t.set("serve.gen_late_p99_us", us(percentile_sorted(&late, q)));
    let mut lat = open.lat_ns.clone();
    lat.sort_unstable();
    t.set("serve.rtt_p99_us", us(percentile_sorted(&lat, q)));
    // Stage durations come in whole microseconds; where they add up to
    // more than the round trip, the excess is nobody's.
    t.set(
        "trace.unattributed_frac",
        (total_ns as f64 - claimed_ns as f64).abs() / (total_ns.max(1)) as f64,
    );
}

fn traced(args: &RunArgs) -> RunOutput {
    let sizes = &args.sizes;
    let mut oracles = Oracles::default();

    // The untraced reference runs beside the traced service, turn and
    // turn about, so a slow phase of the machine falls on both.
    let mut plain = Rig::start(sizes, args.seed, TraceLevel::Off, &mut oracles);
    let mut plain_tally = Tally::default();
    plain.saturated(sizes.sat_ops, sizes.sat_window, &mut plain_tally);
    let mut rig = Rig::start(sizes, args.seed, TraceLevel::Stages, &mut oracles);
    let mut tally = Tally::default();
    rig.saturated(sizes.sat_ops, sizes.sat_window, &mut tally);
    let mut tracer = Tracer::new();
    let mut tables = Vec::new();
    timed_reps(args.seconds / 2.0, 2, || {
        tracer.spans.clear();
        let mut t = LayerTable::new();
        let plain_wall = plain.saturated(sizes.sat_ops, sizes.sat_window, &mut plain_tally);
        let wall = rig.saturated(sizes.sat_ops, sizes.sat_window, &mut tally);
        let before = tally;
        let open = rig.open_loop(sizes.open_ops, sizes.open_rate, true, &mut tally);
        table_of(&open, &mut tracer, &mut t);
        t.set("workload.generate_ms", rig.generate_ms);
        t.set("workload.events", (sizes.sat_ops + sizes.open_ops) as f64);
        t.set("serve.busy_refused", (tally.busy - before.busy) as f64);
        t.set("serve.shed", (tally.shed - before.shed) as f64);
        t.set(
            "serve.resize_declined",
            (tally.declined - before.declined) as f64,
        );
        t.set("trace.spans", tracer.spans.len() as f64);
        t.set("trace.overhead_frac", wall / plain_wall - 1.0);
        tables.push(t);
    });
    plain.finish(&plain_tally, &mut oracles);
    write_trace("serve_inproc", &tracer);

    // The latency/rate curve: short open-loop steps, diagnostic only.
    let step_s = (args.seconds / 10.0).min(0.6);
    let mut rate_ok = 0.0;
    let mut sweep = Vec::new();
    for (name, rate) in [
        ("serve.sweep.r10k.p99_us", 10_000.0),
        ("serve.sweep.r40k.p99_us", 40_000.0),
        ("serve.sweep.r80k.p99_us", 80_000.0),
    ] {
        let n = ((rate * step_s) as usize).max(200);
        let before = tally;
        let mut open = rig.open_loop(n, rate, false, &mut tally);
        open.lat_ns.sort_unstable();
        let q = supported_tail(open.lat_ns.len(), 0.99);
        let p99_us = us(percentile_sorted(&open.lat_ns, q));
        let clean = tally.failed() == before.failed();
        let draining = open.in_flight_at_end < sizes.queue_depth / 2;
        if p99_us <= 1000.0 && clean && draining {
            rate_ok = rate;
        }
        sweep.push((name, p99_us));
    }

    // What watching costs: one Prometheus scrape.
    let mut scrape_us = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        std::hint::black_box(rig.svc.metrics_exposition());
        scrape_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    for t in &mut tables {
        for (name, p99_us) in &sweep {
            t.set(name, *p99_us);
        }
        t.set("serve.rate_ok_per_s", rate_ok);
        t.set("telemetry.scrape_us", median(&scrape_us));
    }

    rig.finish(&tally, &mut oracles);
    RunOutput {
        attempted: tally.attempted,
        failed: tally.failed(),
        metrics: layer_metrics(&tables),
        oracle_failures: oracles.into_failures(),
    }
}
