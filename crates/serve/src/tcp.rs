//! Line-JSON-over-TCP frontend.
//!
//! A plain `std::net` accept loop — one thread per connection, no async
//! runtime. Each connection speaks the [`crate::wire`] protocol, one
//! request line per reply line. Two extras ride on the same port:
//!
//! - an HTTP `GET` first line (e.g. `curl host:port/metrics`) is
//!   answered with a one-shot Prometheus exposition snapshot;
//! - `{"op":"shutdown"}` acknowledges, stops the accept loop, and
//!   [`TcpServer::run`] returns the drained service report.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::request::{Outcome, Reply};
use crate::service::{PlacementService, ServiceReport};
use crate::wire;

/// Frontend-level totals, returned by [`TcpServer::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Connections accepted (not counting the internal shutdown wake-up).
    pub connections: u64,
    /// Request lines executed.
    pub requests: u64,
    /// Lines that failed to parse.
    pub bad_lines: u64,
}

#[derive(Default)]
struct SharedStats {
    connections: AtomicU64,
    requests: AtomicU64,
    bad_lines: AtomicU64,
}

/// The TCP frontend: owns the listener and the service.
pub struct TcpServer {
    listener: TcpListener,
    service: PlacementService,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) in front of an
    /// already-started service.
    pub fn bind(addr: &str, service: PlacementService) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr)?;
        Ok(TcpServer { listener, service })
    }

    /// The bound address (the resolved port when bound with port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// Serves until a client sends `{"op":"shutdown"}`, then drains the
    /// service and returns the frontend totals plus the final report.
    pub fn run(self) -> Result<(TcpStats, ServiceReport), ServeError> {
        let addr = self.local_addr()?;
        // `SyncSender` is `Sync`, so the whole service can be shared
        // across connection threads behind one `Arc`.
        let service = Arc::new(self.service);
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(SharedStats::default());
        let mut handlers = Vec::new();

        for conn in self.listener.incoming() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            stats.connections.fetch_add(1, Ordering::Relaxed);
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            handlers.push(
                std::thread::Builder::new()
                    .name("slackvm-conn".into())
                    .spawn(move || handle_connection(stream, addr, &service, &stop, &stats))
                    .map_err(ServeError::Io)?,
            );
        }
        drop(self.listener);
        for h in handlers {
            let _ = h.join();
        }
        let service = Arc::try_unwrap(service)
            .unwrap_or_else(|_| unreachable!("all connection threads joined"));
        let report = service.stop();
        Ok((
            TcpStats {
                connections: stats.connections.load(Ordering::Relaxed),
                requests: stats.requests.load(Ordering::Relaxed),
                bad_lines: stats.bad_lines.load(Ordering::Relaxed),
            },
            report,
        ))
    }
}

fn handle_connection(
    stream: TcpStream,
    addr: SocketAddr,
    service: &PlacementService,
    stop: &AtomicBool,
    stats: &SharedStats,
) {
    // Short read timeouts keep handlers responsive to the stop flag
    // even while a client idles with the connection open. Nagle off:
    // one-line replies must not wait out a delayed ACK.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        // `read_line` appends, so a timeout mid-line keeps the partial
        // request and the next pass completes it.
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        if line.trim().is_empty() {
            line.clear();
            continue;
        }
        // The request line is complete: the request is through the
        // door. Everything before this instant was the client's wire
        // time; everything after is the service's.
        let door = Instant::now();
        // An HTTP probe: answer one properly framed response through
        // the same responder the dedicated `--obs-addr` listener uses
        // (`/metrics`, `/healthz`, `/slo`), and close.
        if line.starts_with("GET ") {
            let path = line.split_whitespace().nth(1).unwrap_or("/metrics");
            let handle = service.obs_handle();
            let _ = writer.write_all(crate::obs::respond(path, &handle).as_bytes());
            let _ = writer.flush();
            break;
        }
        let mut answered: Option<Reply> = None;
        let mut response = match wire::parse_request(&line) {
            Ok(wire::WireRequest::Op(op)) => {
                stats.requests.fetch_add(1, Ordering::Relaxed);
                match service.call_from(op.clone(), door) {
                    Ok(reply) => {
                        let rendered = wire::render_reply(&op, &reply);
                        answered = Some(reply);
                        rendered
                    }
                    Err(e) => wire::render_error(
                        "error",
                        op.vm().map(|v| v.0),
                        &e.to_string().replace('"', "'"),
                    ),
                }
            }
            Ok(wire::WireRequest::Ping) => {
                stats.requests.fetch_add(1, Ordering::Relaxed);
                wire::render_pong()
            }
            Ok(wire::WireRequest::Stats) => {
                stats.requests.fetch_add(1, Ordering::Relaxed);
                let (mut admitted, mut rejected, mut shed, mut opened) = (0, 0, 0, 0);
                for s in service.summaries() {
                    admitted += s.admitted();
                    rejected += s.rejected();
                    shed += s.shed();
                    opened += s.opened_pms();
                }
                wire::render_stats(admitted, rejected, shed, opened)
            }
            Ok(wire::WireRequest::Shutdown) => {
                stats.requests.fetch_add(1, Ordering::Relaxed);
                let _ = writeln!(writer, "{}", wire::render_shutdown_ack());
                let _ = writer.flush();
                stop.store(true, Ordering::Relaxed);
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(addr);
                break;
            }
            Err(e) => {
                stats.bad_lines.fetch_add(1, Ordering::Relaxed);
                wire::render_error("parse", None, &e.to_string().replace('"', "'"))
            }
        };
        response.push('\n');
        let write_started = Instant::now();
        // One `write` per reply: `writeln!` on the bare socket hands the
        // line and its newline to the kernel separately, and with Nagle
        // off that is two segments and up to two wake-ups of the client —
        // how many depends on how the two race, so a round trip's cost
        // would vary with scheduling rather than with the work done.
        if writer.write_all(response.as_bytes()).is_err() {
            break;
        }
        // The reply's bytes are on the wire: close the lifecycle's
        // final stage (histogram + sampled `serve.reply` span).
        if let Some(reply) = answered {
            service.note_reply_write(&reply, write_started);
        }
        line.clear();
    }
}

/// Classifies a wire [`Outcome`] the way the stats counters do — used
/// by the bombard client to tally TCP replies.
pub fn classify(reply: &wire::WireReply) -> Outcome {
    if reply.ok {
        let pm = slackvm_model::PmId(reply.pm.unwrap_or(0) as u32);
        match reply.op.as_deref() {
            Some("remove") => Outcome::Removed(pm),
            Some("resize") => Outcome::Resized {
                accepted: reply.accepted.unwrap_or(false),
            },
            Some("fail-pm") => Outcome::PmFailed {
                evicted: reply.evicted.unwrap_or(0) as u32,
                replaced: reply.replaced.unwrap_or(0) as u32,
                lost: reply.lost.unwrap_or(0) as u32,
            },
            Some("drain-pm") => Outcome::PmDraining {
                evicted: reply.evicted.unwrap_or(0) as u32,
                replaced: reply.replaced.unwrap_or(0) as u32,
                lost: reply.lost.unwrap_or(0) as u32,
            },
            Some("recover-pm") => Outcome::PmRecovered,
            _ => Outcome::Placed(pm),
        }
    } else {
        match reply.error.as_deref() {
            Some("rejected") => Outcome::Rejected,
            Some("shed") => Outcome::Shed,
            _ => Outcome::UnknownVm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ModelSpec, ServeConfig};
    use std::io::BufRead;

    fn server() -> TcpServer {
        let service = PlacementService::start(ServeConfig {
            model: ModelSpec::Shared {
                topology: "cores=8".into(),
                mem_mib: slackvm_model::gib(32),
                policy: "first-fit".into(),
                fleet_cap: None,
            },
            ..ServeConfig::default()
        })
        .unwrap();
        TcpServer::bind("127.0.0.1:0", service).unwrap()
    }

    #[test]
    fn wire_round_trip_place_stats_shutdown() {
        let server = server();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut ask = |req: &str| -> String {
            writeln!(writer, "{req}").unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim().to_string()
        };

        assert_eq!(ask("{\"op\":\"ping\"}"), wire::render_pong());
        let placed = ask("{\"op\":\"place\",\"id\":1,\"vcpus\":2,\"mem_mib\":2048,\"level\":2}");
        let parsed = wire::parse_reply(&placed).unwrap();
        assert!(parsed.ok, "{placed}");
        let stats_line = ask("{\"op\":\"stats\"}");
        assert!(stats_line.contains("\"admitted\":1"), "{stats_line}");
        let bad = ask("{\"op\":\"warp\"}");
        assert!(bad.contains("\"ok\":false"), "{bad}");
        assert_eq!(ask("{\"op\":\"shutdown\"}"), wire::render_shutdown_ack());
        drop(writer);
        drop(reader);

        let (tcp_stats, report) = handle.join().unwrap();
        assert_eq!(report.admitted(), 1);
        assert_eq!(tcp_stats.bad_lines, 1);
        assert!(tcp_stats.requests >= 4);
        report.check_invariants().unwrap();
    }

    #[test]
    fn a_reply_arrives_whole_in_one_read() {
        use std::io::Read;
        let server = server();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let mut stream = TcpStream::connect(addr).unwrap();
        let mut buf = [0u8; 512];
        for id in 0..50 {
            let line = format!(
                "{{\"op\":\"place\",\"id\":{id},\"vcpus\":1,\"mem_mib\":64,\"level\":1}}\n"
            );
            stream.write_all(line.as_bytes()).unwrap();
            // One line in flight, so whatever the first read returns is
            // what the server's first write carried: the whole line, with
            // its newline, not the line now and the newline later.
            let n = stream.read(&mut buf).unwrap();
            assert_eq!(buf[..n].last(), Some(&b'\n'), "reply {id} came in pieces");
            assert!(wire::parse_reply(std::str::from_utf8(&buf[..n]).unwrap()).is_ok());
        }
        writeln!(stream, "{{\"op\":\"shutdown\"}}").unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn http_get_serves_a_prometheus_snapshot() {
        let server = server();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());

        use std::io::Read;
        let mut probe = |path: &str| -> String {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "GET {path} HTTP/1.1\r\n\r\n").unwrap();
            stream.flush().unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };
        let response = probe("/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("Content-Length:"), "{response}");
        assert!(response.contains("slackvm_build_info{"), "{response}");
        let health = probe("/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("\"healthy\":true"), "{health}");
        let slo = probe("/slo");
        assert!(slo.contains("\"error_budget_remaining\""), "{slo}");

        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, "{{\"op\":\"shutdown\"}}").unwrap();
        let (_, report) = handle.join().unwrap();
        report.check_invariants().unwrap();
    }
}
