//! `serve_tcp_durable`: the whole stack an operator runs. `TcpServer`
//! on loopback in this process, one shard, WAL on (interval fsync,
//! default snapshot cadence) in a fresh state directory; two client
//! threads, one connection each, closed loop with a window: a client
//! keeps a few lines in flight and sends the next when a reply arrives.
//!
//! With one line in flight every request is four thread wake-ups (client,
//! handler, worker, handler, client), and in a virtual machine what a
//! wake-up costs is the host's business: the same build's round trip
//! wandered between 52 and 77 µs over an afternoon. A window keeps the
//! handlers and the worker awake, so the run measures the stack's work.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use slackvm_durable::{
    fsck_shard, recover_shard, scan_wal, shard_dir, DurableOptions, FsyncPolicy, ShardDurable,
    WalOp, WalOutcome, WalRecord, WalWriter, WAL_FILE,
};
use slackvm_model::VmId;
use slackvm_serve::{
    tcp, wire, Op, PlacementService, Reply, ServeConfig, ServeError, ServiceReport, TcpServer,
    TcpStats, TraceLevel,
};

use super::serve_inproc::{audit, p50_p99, prefill, set_stage_percentiles, us, Tally};
use super::{
    default_model, layer_metrics, shapes, timed_reps, week_f, write_trace, Churn, GenOp, Oracles,
    Rep, RunArgs, RunOutput, Sizes, Workload,
};
use crate::metrics::LayerTable;
use crate::spans::{aggregate, Tracer, NO_PARENT};
use crate::stats::{median, percentile_sorted, supported_tail};

const CLIENTS: usize = 2;
/// Place / remove percentages: half and half, no resizes.
const MIX: (u64, u64) = (50, 50);
const FSYNC_INTERVAL: Duration = Duration::from_millis(50);
/// Ops per client of the traced run's low-load round-trip probe.
const LOW_LOAD_OPS_PER_CLIENT: usize = 1_000;

fn render(op: &GenOp) -> String {
    match op {
        GenOp::Place { id, spec } => format!(
            "{{\"op\":\"place\",\"id\":{},\"vcpus\":{},\"mem_mib\":{},\"level\":{}}}\n",
            id.0,
            spec.vcpus(),
            spec.mem_mib(),
            spec.level.ratio()
        ),
        GenOp::Remove { id } => format!("{{\"op\":\"remove\",\"id\":{}}}\n", id.0),
        GenOp::Resize { id, vcpus, mem_mib } => format!(
            "{{\"op\":\"resize\",\"id\":{},\"vcpus\":{vcpus},\"mem_mib\":{mem_mib}}}\n",
            id.0
        ),
    }
}

/// One request as a client saw it; traced passes only.
#[derive(Debug, Clone)]
struct Exchange {
    sent: Instant,
    recv: Instant,
    line: String,
    reply: wire::WireReply,
}

struct Client {
    churn: Churn,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// What one client measured in one repetition.
#[derive(Default)]
struct ClientRep {
    tally: Tally,
    place_rtt_ns: Vec<u64>,
    start: Option<Instant>,
    end: Option<Instant>,
    exchanges: Vec<Exchange>,
}

impl Client {
    fn connect(addr: SocketAddr, churn: Churn) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            churn,
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends `ops` keeping up to `window` lines in flight on the
    /// connection: the next line goes out when a reply comes in. The
    /// server answers a connection's lines in order, one at a time.
    fn exchange(&mut self, ops: &[GenOp], window: usize, detail: bool, out: &mut ClientRep) {
        let mut lines = ops.iter().map(render);
        let mut in_flight: VecDeque<(Instant, String)> = VecDeque::with_capacity(window);
        let mut reply = String::with_capacity(128);
        out.start = Some(Instant::now());
        for op in ops {
            while in_flight.len() < window.max(1) {
                let Some(line) = lines.next() else { break };
                let sent = Instant::now();
                self.writer
                    .write_all(line.as_bytes())
                    .expect("server connection is open");
                in_flight.push_back((sent, line));
            }
            reply.clear();
            self.reader
                .read_line(&mut reply)
                .expect("server connection is open");
            let recv = Instant::now();
            let (sent, line) = in_flight
                .pop_front()
                .expect("a reply answers a line in flight");
            out.tally.attempted += 1;
            match wire::parse_reply(&reply) {
                Ok(parsed) => {
                    out.tally.note(tcp::classify(&parsed));
                    if matches!(op, GenOp::Place { .. }) {
                        out.place_rtt_ns.push((recv - sent).as_nanos() as u64);
                    }
                    if detail {
                        out.exchanges.push(Exchange {
                            sent,
                            recv,
                            line,
                            reply: parsed,
                        });
                    }
                }
                Err(_) => out.tally.errored += 1,
            }
        }
        out.end = Some(Instant::now());
    }
}

type ServerResult = Result<(TcpStats, ServiceReport), ServeError>;

/// The running stack: server thread, state directory, two clients.
pub struct Rig {
    dir: PathBuf,
    addr: SocketAddr,
    server: JoinHandle<ServerResult>,
    clients: Vec<Client>,
    generate_ms: f64,
    /// In-process `call` round trips under the same configuration,
    /// taken before the listener binds; traced passes only.
    call_rtt_ns: Vec<u64>,
}

impl Rig {
    fn start(sizes: &Sizes, seed: u64, trace: TraceLevel, oracles: &mut Oracles) -> Rig {
        let week = week_f(sizes.population, seed, oracles);
        let dir = crate::env::fresh_state_dir("tcp").expect("benchmark/out is writable");
        let svc = PlacementService::start(ServeConfig {
            durable: Some(DurableOptions {
                fsync: FsyncPolicy::Interval(FSYNC_INTERVAL),
                ..DurableOptions::new(&dir)
            }),
            trace,
            ..ServeConfig::default()
        })
        .expect("a fresh state directory opens");

        // Disjoint id bands: each client only ever touches its own VMs,
        // so in a closed loop no request can overtake one it depends on.
        let mut churns: Vec<Churn> = (0..CLIENTS)
            .map(|c| {
                Churn::new(
                    seed ^ (c as u64 + 1),
                    shapes(&week.workload),
                    sizes.window / CLIENTS,
                    0,
                    MIX,
                    (c as u64 + 1) << 40,
                )
            })
            .collect();
        for churn in &mut churns {
            prefill(&svc, churn.prefill(), oracles);
        }
        let mut call_rtt_ns = Vec::new();
        if trace.stages() {
            let spec = shapes(&week.workload)[0];
            for i in 0..500u64 {
                let id = VmId(i);
                for op in [Op::Place { id, spec }, Op::Remove { id }] {
                    let t = Instant::now();
                    svc.call(op).expect("service is running");
                    call_rtt_ns.push(t.elapsed().as_nanos() as u64);
                }
            }
        }

        let server = TcpServer::bind("127.0.0.1:0", svc).expect("loopback binds");
        let addr = server.local_addr().expect("bound listener has an address");
        let server = std::thread::Builder::new()
            .name("bench-tcp-server".into())
            .spawn(move || server.run())
            .expect("thread spawns");
        let clients = churns
            .into_iter()
            .map(|churn| Client::connect(addr, churn).expect("loopback connects"))
            .collect();
        Rig {
            dir,
            addr,
            server,
            clients,
            generate_ms: week.generate_ms,
            call_rtt_ns,
        }
    }

    /// One closed-loop repetition: both clients send `n` ops each.
    /// Returns the wall seconds from the first send to the last reply.
    fn rep(&mut self, n: usize, window: usize, detail: bool) -> (f64, Vec<ClientRep>) {
        let barrier = Barrier::new(CLIENTS);
        let reps: Vec<ClientRep> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let ops: Vec<GenOp> = (0..n).map(|_| client.churn.next_op()).collect();
                        let mut out = ClientRep::default();
                        barrier.wait();
                        client.exchange(&ops, window, detail, &mut out);
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let start = reps
            .iter()
            .filter_map(|r| r.start)
            .min()
            .expect("clients ran");
        let end = reps
            .iter()
            .filter_map(|r| r.end)
            .max()
            .expect("clients ran");
        ((end - start).as_secs_f64(), reps)
    }

    /// Closes the clients and shuts the server down.
    fn shutdown(mut self) -> (TcpStats, ServiceReport, PathBuf) {
        // Close before shutdown: handlers see EOF at once instead of
        // waiting out their read timeout.
        self.clients.clear();
        let mut control = TcpStream::connect(self.addr).expect("loopback connects");
        control
            .write_all(b"{\"op\":\"shutdown\"}\n")
            .expect("control connection is open");
        let mut ack = String::new();
        let _ = BufReader::new(&control).read_line(&mut ack);
        drop(control);
        let (stats, report) = self
            .server
            .join()
            .expect("server thread panicked")
            .expect("server ran");
        (stats, report, self.dir)
    }

    /// Drains the fleet over the wire, shuts the server down, audits
    /// its report, then recovers the state directory and fscks it.
    fn finish(mut self, tally: &mut Tally, oracles: &mut Oracles) -> (ServiceReport, PathBuf) {
        for client in &mut self.clients {
            let ops = client.churn.drain();
            let mut out = ClientRep::default();
            client.exchange(&ops, 1, false, &mut out);
            *tally += out.tally;
        }
        let (stats, report, dir) = self.shutdown();
        oracles.check(stats.bad_lines == 0, || {
            format!("{} request lines did not parse", stats.bad_lines)
        });
        audit(&report, tally, oracles);

        let mut recovered = default_model();
        match recover_shard(&dir, 0, &mut recovered) {
            Ok(_) => {
                let fsck = fsck_shard(&dir, 0, &recovered, &mut default_model());
                oracles.check(fsck.as_ref().is_ok_and(|f| f.ok()), || {
                    format!("fsck: {fsck:?}")
                });
            }
            Err(e) => oracles.check(false, || format!("recover after shutdown: {e}")),
        }
        (report, dir)
    }
}

fn discard(rig: Rig) {
    let (_, _, dir) = rig.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

pub struct ServeTcp;

impl Workload for ServeTcp {
    /// The rig, and the fate of every op offered to it so far.
    type State = (Rig, Tally);

    fn name(&self) -> &'static str {
        "serve_tcp_durable"
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
        discard(rig);
    }

    fn rep(&self, (rig, tally): &mut Self::State, sizes: &Sizes, _: &mut Oracles) -> Rep {
        let before = *tally;
        let (wall_s, reps) = rig.rep(sizes.tcp_ops_per_client, sizes.tcp_window, false);
        let mut lat_ns = Vec::with_capacity(CLIENTS * sizes.tcp_ops_per_client);
        for r in reps {
            *tally += r.tally;
            lat_ns.extend(r.place_rtt_ns);
        }
        Rep {
            ops: (CLIENTS * sizes.tcp_ops_per_client) as u64,
            wall_s,
            lat_ns,
            attempted: tally.attempted - before.attempted,
            failed: tally.failed() - before.failed(),
        }
    }

    fn finish(&self, (rig, mut tally): Self::State, _: &Sizes, oracles: &mut Oracles) -> u32 {
        let (report, dir) = rig.finish(&mut tally, oracles);
        let _ = std::fs::remove_dir_all(dir);
        report.opened_pms()
    }

    fn traced(&self, args: &RunArgs) -> RunOutput {
        traced(args)
    }
}

// ---------------------------------------------------------------- traced

/// Rebuilds the `Op`/`Reply` pair a reply line was rendered from, for
/// timing `render_reply` on what the server actually sent.
fn rendered_pair(x: &Exchange) -> Option<(Op, Reply)> {
    let wire::WireRequest::Op(op) = wire::parse_request(&x.line).ok()? else {
        return None;
    };
    Some((
        op,
        Reply {
            seq: 0,
            shard: Some(0),
            outcome: tcp::classify(&x.reply),
            latency_us: x.reply.latency_us.unwrap_or(0),
            trace: x.reply.trace.unwrap_or(0),
            queue_us: x.reply.queue_us.unwrap_or(0),
            place_us: x.reply.place_us.unwrap_or(0),
            commit_us: x.reply.commit_us.unwrap_or(0),
        },
    ))
}

/// Spans and serve-layer numbers of one traced repetition.
fn serve_table(exchanges: &[Exchange], tracer: &mut Tracer, t: &mut LayerTable) {
    let (mut queue, mut place, mut commit) = (vec![], vec![], vec![]);
    for (n, x) in exchanges.iter().enumerate() {
        let req = n as u64;
        let (sent_ns, recv_ns) = (tracer.at(x.sent), tracer.at(x.recv));
        let root = tracer.push("serve.rtt", sent_ns, recv_ns, NO_PARENT, req);
        // Parse and render are timed on the same lines, outside the
        // loop the clients ran.
        let t0 = tracer.now();
        let parsed = std::hint::black_box(wire::parse_request(&x.line));
        let t1 = tracer.now();
        tracer.push("serve.wire_parse", t0, t1, root, req);
        debug_assert!(parsed.is_ok());
        if let Some((op, reply)) = rendered_pair(x) {
            let t0 = tracer.now();
            std::hint::black_box(wire::render_reply(&op, &reply));
            tracer.push("serve.wire_render", t0, tracer.now(), root, req);
        }
        let stages = [
            ("serve.queue_wait", x.reply.queue_us.unwrap_or(0)),
            ("serve.place", x.reply.place_us.unwrap_or(0)),
            ("serve.commit", x.reply.commit_us.unwrap_or(0)),
        ];
        let mut at = sent_ns;
        for (name, stage_us) in stages {
            tracer.push(name, at, at + stage_us * 1000, root, req);
            at += stage_us * 1000;
        }
        queue.push(stages[0].1);
        place.push(stages[1].1);
        commit.push(stages[2].1);
    }
    let aggs = aggregate(&tracer.spans);
    let mean = |name: &str| aggs.get(name).map_or(0.0, |a| a.mean_ns());
    t.set("serve.calls", exchanges.len() as f64);
    t.set("serve.wire_parse_ns", mean("serve.wire_parse"));
    t.set("serve.wire_render_ns", mean("serve.wire_render"));
    set_stage_percentiles(t, &mut queue, &mut place, &mut commit);
    // The part of the round trip no stage explains is the transport
    // itself and, with lines in flight, the wait behind the client's own
    // earlier lines (`serve.rtt` self time); nothing is left over.
    t.set("trace.unattributed_frac", 0.0);
}

/// What the sockets add at low load: round trips with one line in
/// flight per client, against the same request through `call` on the
/// same service before the listener bound.
fn low_load_table(exchanges: &[Exchange], call_p50_ns: u64, t: &mut LayerTable) {
    let mut rtt: Vec<u64> = exchanges
        .iter()
        .map(|x| (x.recv - x.sent).as_nanos() as u64)
        .collect();
    if rtt.is_empty() {
        return;
    }
    rtt.sort_unstable();
    t.set(
        "serve.rtt_p99_us",
        us(percentile_sorted(&rtt, supported_tail(rtt.len(), 0.99))),
    );
    t.set(
        "serve.tcp_hop_p50_us",
        us(percentile_sorted(&rtt, 0.50).saturating_sub(call_p50_ns)),
    );
}

/// The WAL write path on its own: the run's records appended and
/// committed again into a scratch journal under the run's fsync policy,
/// then a snapshot of the warm fleet.
fn durable_table(dir: &Path, sizes: &Sizes, tracer: &mut Tracer, t: &mut LayerTable) {
    /// Enough records for stable means; the journal may hold far more.
    const MAX_REDRIVEN: usize = 50_000;
    let Ok(scan) = scan_wal(&shard_dir(dir, 0).join(WAL_FILE)) else {
        return;
    };
    let records: &[WalRecord] = &scan.records[..scan.records.len().min(MAX_REDRIVEN)];
    let scratch = crate::env::fresh_state_dir("wal").expect("benchmark/out is writable");
    let policy = FsyncPolicy::Interval(FSYNC_INTERVAL);
    let mut wal =
        WalWriter::open(&scratch.join(WAL_FILE), 0, policy).expect("scratch journal opens");
    let mut commits_ns = Vec::new();
    for (n, record) in records.iter().enumerate() {
        let t0 = tracer.now();
        wal.append(record).expect("scratch journal appends");
        let t1 = tracer.now();
        tracer.push("durable.append", t0, t1, NO_PARENT, record.seq);
        // Two closed-loop clients fill a batch with at most two records.
        if n % CLIENTS == CLIENTS - 1 {
            wal.commit().expect("scratch journal commits");
            let t2 = tracer.now();
            tracer.push("durable.commit", t1, t2, NO_PARENT, record.seq);
            commits_ns.push(t2 - t1);
        }
    }
    let bytes = wal.appended_bytes();
    drop(wal);

    // The warm fleet: the prefill's placements, restored as recovery
    // would, snapshotted through a fresh shard handle.
    let mut model = default_model();
    for record in records.iter().take(sizes.window) {
        if let (WalOp::Place { id, spec }, WalOutcome::Placed(pm)) = (record.op, record.outcome) {
            let _ = model.restore_placement(id, spec, pm);
        }
    }
    let snap_root = scratch.join("snap");
    let opts = DurableOptions {
        fsync: FsyncPolicy::Off,
        ..DurableOptions::new(&snap_root)
    };
    let mut snapshot_ms = Vec::new();
    if let Ok((mut shard, _)) = ShardDurable::open(&opts, 0, &mut default_model()) {
        for _ in 0..3 {
            let t0 = tracer.now();
            shard.snapshot_now(&model).expect("scratch snapshot writes");
            let t1 = tracer.now();
            tracer.push("durable.snapshot", t0, t1, NO_PARENT, 0);
            snapshot_ms.push((t1 - t0) as f64 / 1e6);
        }
    }
    let snapshot_bytes = std::fs::read_dir(shard_dir(&snap_root, 0))
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .max()
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(scratch);

    let aggs = aggregate(&tracer.spans);
    let agg = |name: &str| aggs.get(name).copied().unwrap_or_default();
    t.set(
        "durable.calls",
        (agg("durable.append").calls + agg("durable.commit").calls + agg("durable.snapshot").calls)
            as f64,
    );
    t.set("durable.append_ns", agg("durable.append").mean_ns());
    let (p50, p99) = p50_p99(&mut commits_ns);
    t.set("durable.commit_p50_us", p50 / 1e3);
    t.set("durable.commit_p99_us", p99 / 1e3);
    t.set(
        "durable.bytes_per_record",
        bytes as f64 / records.len().max(1) as f64,
    );
    if !snapshot_ms.is_empty() {
        t.set("durable.snapshot_ms", median(&snapshot_ms));
    }
    t.set("durable.snapshot_bytes", snapshot_bytes as f64);
}

fn traced(args: &RunArgs) -> RunOutput {
    let sizes = &args.sizes;
    let mut oracles = Oracles::default();

    // The untraced reference runs beside the traced stack, turn and
    // turn about, so a slow phase of the machine falls on both.
    let mut plain = Rig::start(sizes, args.seed, TraceLevel::Off, &mut oracles);
    let mut plain_tally = Tally::default();
    plain.rep(sizes.tcp_ops_per_client, sizes.tcp_window, false);
    let mut rig = Rig::start(sizes, args.seed, TraceLevel::Stages, &mut oracles);
    let mut call_rtt = std::mem::take(&mut rig.call_rtt_ns);
    call_rtt.sort_unstable();
    let call_p50_ns = percentile_sorted(&call_rtt, 0.50);
    let mut tally = Tally::default();
    for r in rig.rep(sizes.tcp_ops_per_client, sizes.tcp_window, false).1 {
        tally += r.tally;
    }
    let mut tracer = Tracer::new();
    let mut tables = Vec::new();
    timed_reps(args.seconds / 2.0, 2, || {
        tracer.spans.clear();
        let (plain_wall, plain_reps) = plain.rep(sizes.tcp_ops_per_client, sizes.tcp_window, false);
        plain_reps.iter().for_each(|r| plain_tally += r.tally);
        let (wall, reps) = rig.rep(sizes.tcp_ops_per_client, sizes.tcp_window, true);
        let mut exchanges = Vec::new();
        for r in reps {
            tally += r.tally;
            exchanges.extend(r.exchanges);
        }
        let mut t = LayerTable::new();
        serve_table(&exchanges, &mut tracer, &mut t);
        t.set("workload.generate_ms", rig.generate_ms);
        t.set(
            "workload.events",
            (CLIENTS * sizes.tcp_ops_per_client) as f64,
        );
        t.set("trace.overhead_frac", wall / plain_wall - 1.0);
        tables.push(t);
    });
    discard(plain);
    oracles.check(plain_tally.failed() == 0, || {
        format!("reference pass: {plain_tally:?}")
    });
    // Low-load round trips: one line in flight, a fixed few hundred.
    let mut low_load = LayerTable::new();
    let low: Vec<Exchange> = rig
        .rep(
            LOW_LOAD_OPS_PER_CLIENT.min(sizes.tcp_ops_per_client),
            1,
            true,
        )
        .1
        .into_iter()
        .flat_map(|r| {
            tally += r.tally;
            r.exchanges
        })
        .collect();
    low_load_table(&low, call_p50_ns, &mut low_load);
    let timed = (tally.attempted, tally.failed());
    let (_, dir) = rig.finish(&mut tally, &mut oracles);

    let mut durable = LayerTable::new();
    durable_table(&dir, sizes, &mut tracer, &mut durable);
    let _ = std::fs::remove_dir_all(dir);
    write_trace("serve_tcp_durable", &tracer);
    for t in &mut tables {
        for (name, _, _) in crate::metrics::PER_LAYER {
            if name.starts_with("durable.") {
                t.set(name, durable.get(name));
            }
        }
        for name in ["serve.rtt_p99_us", "serve.tcp_hop_p50_us"] {
            t.set(name, low_load.get(name));
        }
        t.set("trace.spans", tracer.spans.len() as f64);
    }
    RunOutput {
        attempted: timed.0,
        failed: timed.1,
        metrics: layer_metrics(&tables),
        oracle_failures: oracles.into_failures(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::serve_inproc::to_op;
    use super::*;
    use slackvm_model::{OversubLevel, PmId, VmSpec};
    use slackvm_serve::Outcome;

    #[test]
    fn rendered_lines_parse_back_to_the_same_op() {
        let spec = VmSpec::of(4, 8192, OversubLevel::of(3));
        for op in [
            GenOp::Place { id: VmId(7), spec },
            GenOp::Remove { id: VmId(7) },
            GenOp::Resize {
                id: VmId(7),
                vcpus: 2,
                mem_mib: 4096,
            },
        ] {
            let line = render(&op);
            assert!(line.ends_with('\n'));
            match wire::parse_request(&line).unwrap() {
                wire::WireRequest::Op(parsed) => assert_eq!(parsed, to_op(op)),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn a_reply_line_rebuilds_its_render_inputs() {
        let reply = Reply {
            seq: 0,
            shard: Some(0),
            outcome: Outcome::Placed(PmId(3)),
            latency_us: 12,
            trace: 99,
            queue_us: 4,
            place_us: 6,
            commit_us: 2,
        };
        let op = Op::Place {
            id: VmId(7),
            spec: VmSpec::of(4, 8192, OversubLevel::of(3)),
        };
        let x = Exchange {
            sent: Instant::now(),
            recv: Instant::now(),
            line: render(&GenOp::Place {
                id: VmId(7),
                spec: VmSpec::of(4, 8192, OversubLevel::of(3)),
            }),
            reply: wire::parse_reply(&wire::render_reply(&op, &reply)).unwrap(),
        };
        assert_eq!(rendered_pair(&x), Some((op, reply)));
    }
}
