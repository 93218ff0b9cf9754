//! The line-delimited JSON wire protocol of the TCP frontend.
//!
//! One request per line, one reply line per request. The grammar is a
//! deliberately tiny JSON subset — flat objects, string and unsigned
//! integer fields, no escapes — parsed with hand-rolled field scanners
//! so the frontend carries no serialization dependency.
//!
//! Requests:
//!
//! ```text
//! {"op":"place","id":7,"vcpus":4,"mem_mib":8192,"level":3}
//! {"op":"remove","id":7}
//! {"op":"resize","id":7,"vcpus":8,"mem_mib":16384}
//! {"op":"fail-pm","shard":0,"pm":3}
//! {"op":"recover-pm","shard":0,"pm":3}
//! {"op":"drain-pm","shard":0,"pm":3}
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! (`shard` defaults to 0 on the PM-lifecycle ops; PM ids are
//! shard-local.)
//!
//! Replies mirror the op and id, e.g.
//! `{"ok":true,"op":"place","id":7,"pm":3,"shard":0,"latency_us":12}`;
//! failures carry `"ok":false` and an `"error"` word (`"rejected"`,
//! `"shed"`, `"unknown-vm"`, `"busy"`); a line that does not parse is
//! answered `"op":"parse"` with the parser's message as the error
//! (`"bad request line: ..."`), and the connection stays open.

use slackvm_model::{OversubLevel, PmId, VmId, VmSpec};

use crate::error::ServeError;
use crate::request::{Op, Outcome, Reply};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// A placement-plane operation for the service.
    Op(Op),
    /// Liveness probe.
    Ping,
    /// Service-wide counters snapshot.
    Stats,
    /// Stop accepting connections and shut the service down.
    Shutdown,
}

/// Scans `line` for `"key":<unsigned integer>`.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = line[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Scans `line` for `"key":"<string without escapes>"`.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = line[at..].trim_start().strip_prefix('"')?;
    rest.split('"').next()
}

fn require(line: &str, key: &str) -> Result<u64, ServeError> {
    field_u64(line, key)
        .ok_or_else(|| ServeError::BadRequest(format!("missing numeric field {key:?} in {line:?}")))
}

/// The `vcpus` / `mem_mib` pair of a place or resize line: both
/// positive, `vcpus` within the `u32` the model carries (checked, not
/// wrapped — 2^32 must not become 0, nor 2^32 + 1 a one-vCPU VM).
fn require_shape(line: &str) -> Result<(u32, u64), ServeError> {
    let vcpus = require(line, "vcpus")?;
    let mem_mib = require(line, "mem_mib")?;
    if vcpus == 0 || mem_mib == 0 {
        return Err(ServeError::BadRequest(
            "vcpus and mem_mib must be positive".into(),
        ));
    }
    let vcpus = u32::try_from(vcpus)
        .map_err(|_| ServeError::BadRequest(format!("vcpus {vcpus} must fit in 32 bits")))?;
    Ok((vcpus, mem_mib))
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<WireRequest, ServeError> {
    let line = line.trim();
    let op = field_str(line, "op")
        .ok_or_else(|| ServeError::BadRequest(format!("missing \"op\" in {line:?}")))?;
    match op {
        "place" => {
            let id = require(line, "id")?;
            let (vcpus, mem_mib) = require_shape(line)?;
            let level = field_u64(line, "level").unwrap_or(1);
            if !(1..=64).contains(&level) {
                return Err(ServeError::BadRequest(format!(
                    "level {level} outside 1..=64"
                )));
            }
            Ok(WireRequest::Op(Op::Place {
                id: VmId(id),
                spec: VmSpec::of(vcpus, mem_mib, OversubLevel::of(level as u32)),
            }))
        }
        "remove" => Ok(WireRequest::Op(Op::Remove {
            id: VmId(require(line, "id")?),
        })),
        "resize" => {
            let id = require(line, "id")?;
            let (vcpus, mem_mib) = require_shape(line)?;
            Ok(WireRequest::Op(Op::Resize {
                id: VmId(id),
                vcpus,
                mem_mib,
            }))
        }
        "fail-pm" | "recover-pm" | "drain-pm" => {
            let shard = field_u64(line, "shard").unwrap_or(0);
            let pm = require(line, "pm")?;
            if shard > u32::MAX as u64 || pm > u32::MAX as u64 {
                return Err(ServeError::BadRequest(
                    "shard and pm must fit in 32 bits".into(),
                ));
            }
            let (shard, pm) = (shard as u32, PmId(pm as u32));
            Ok(WireRequest::Op(match op {
                "fail-pm" => Op::FailPm { shard, pm },
                "recover-pm" => Op::RecoverPm { shard, pm },
                _ => Op::DrainPm { shard, pm },
            }))
        }
        "ping" => Ok(WireRequest::Ping),
        "stats" => Ok(WireRequest::Stats),
        "shutdown" => Ok(WireRequest::Shutdown),
        other => Err(ServeError::BadRequest(format!(
            "unknown op {other:?} (place, remove, resize, fail-pm, recover-pm, \
             drain-pm, ping, stats, shutdown)"
        ))),
    }
}

fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Place { .. } => "place",
        Op::Remove { .. } => "remove",
        Op::Resize { .. } => "resize",
        Op::FailPm { .. } => "fail-pm",
        Op::RecoverPm { .. } => "recover-pm",
        Op::DrainPm { .. } => "drain-pm",
    }
}

/// Renders the request line for an operation (client side) — the
/// inverse of [`parse_request`].
pub fn render_request(op: &Op) -> String {
    let name = op_name(op);
    match op {
        Op::Place { id, spec } => format!(
            "{{\"op\":\"{name}\",\"id\":{},\"vcpus\":{},\"mem_mib\":{},\"level\":{}}}",
            id.0,
            spec.vcpus(),
            spec.mem_mib(),
            spec.level.ratio()
        ),
        Op::Remove { id } => format!("{{\"op\":\"{name}\",\"id\":{}}}", id.0),
        Op::Resize { id, vcpus, mem_mib } => format!(
            "{{\"op\":\"{name}\",\"id\":{},\"vcpus\":{vcpus},\"mem_mib\":{mem_mib}}}",
            id.0
        ),
        Op::FailPm { shard, pm } | Op::RecoverPm { shard, pm } | Op::DrainPm { shard, pm } => {
            format!("{{\"op\":\"{name}\",\"shard\":{shard},\"pm\":{}}}", pm.0)
        }
    }
}

fn shard_suffix(reply: &Reply) -> String {
    let mut out = match reply.shard {
        Some(s) => format!(",\"shard\":{s},\"latency_us\":{}", reply.latency_us),
        None => format!(",\"latency_us\":{}", reply.latency_us),
    };
    if reply.trace != 0 {
        out.push_str(&format!(",\"trace\":{}", reply.trace));
    }
    // Stage timings ride along only when the service recorded them
    // (TraceLevel::Off leaves them zero and off the wire).
    if reply.queue_us != 0 || reply.place_us != 0 || reply.commit_us != 0 {
        out.push_str(&format!(
            ",\"queue_us\":{},\"place_us\":{},\"commit_us\":{}",
            reply.queue_us, reply.place_us, reply.commit_us
        ));
    }
    out
}

/// Renders the reply line for an executed operation.
pub fn render_reply(op: &Op, reply: &Reply) -> String {
    let name = op_name(op);
    let id = op.vm().map(|v| v.0);
    // The machine a PM-lifecycle op addressed, mirrored on its ack.
    let target_pm = match op {
        Op::FailPm { pm, .. } | Op::RecoverPm { pm, .. } | Op::DrainPm { pm, .. } => pm.0,
        _ => 0,
    };
    match reply.outcome {
        Outcome::Placed(pm) => format!(
            "{{\"ok\":true,\"op\":\"{name}\",\"id\":{},\"pm\":{}{}}}",
            id.unwrap_or_default(),
            pm.0,
            shard_suffix(reply)
        ),
        Outcome::Removed(pm) => format!(
            "{{\"ok\":true,\"op\":\"{name}\",\"id\":{},\"pm\":{}{}}}",
            id.unwrap_or_default(),
            pm.0,
            shard_suffix(reply)
        ),
        Outcome::Resized { accepted } => format!(
            "{{\"ok\":true,\"op\":\"{name}\",\"id\":{},\"accepted\":{accepted}{}}}",
            id.unwrap_or_default(),
            shard_suffix(reply)
        ),
        Outcome::Rejected => render_error(name, id, "rejected"),
        Outcome::Shed => render_error(name, id, "shed"),
        Outcome::UnknownVm => render_error(name, id, "unknown-vm"),
        Outcome::PmFailed {
            evicted,
            replaced,
            lost,
        }
        | Outcome::PmDraining {
            evicted,
            replaced,
            lost,
        } => format!(
            "{{\"ok\":true,\"op\":\"{name}\",\"pm\":{target_pm},\"evicted\":{evicted},\
             \"replaced\":{replaced},\"lost\":{lost}{}}}",
            shard_suffix(reply)
        ),
        Outcome::PmRecovered => format!(
            "{{\"ok\":true,\"op\":\"{name}\",\"pm\":{target_pm}{}}}",
            shard_suffix(reply)
        ),
    }
}

/// Renders a failure line.
pub fn render_error(op: &str, id: Option<u64>, error: &str) -> String {
    match id {
        Some(id) => format!("{{\"ok\":false,\"op\":\"{op}\",\"id\":{id},\"error\":\"{error}\"}}"),
        None => format!("{{\"ok\":false,\"op\":\"{op}\",\"error\":\"{error}\"}}"),
    }
}

/// Renders the `ping` reply.
pub fn render_pong() -> String {
    "{\"ok\":true,\"op\":\"ping\"}".to_string()
}

/// Renders the `stats` reply.
pub fn render_stats(admitted: u64, rejected: u64, shed: u64, opened_pms: u64) -> String {
    format!(
        "{{\"ok\":true,\"op\":\"stats\",\"admitted\":{admitted},\"rejected\":{rejected},\
         \"shed\":{shed},\"opened_pms\":{opened_pms}}}"
    )
}

/// Renders the `shutdown` acknowledgement.
pub fn render_shutdown_ack() -> String {
    "{\"ok\":true,\"op\":\"shutdown\"}".to_string()
}

/// Reads `"ok"` / `"op"` / `"pm"` / `"error"` off a reply line — what a
/// client (the bombard driver) needs to classify an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReply {
    /// The mirrored `"ok"` field.
    pub ok: bool,
    /// The mirrored operation name.
    pub op: Option<String>,
    /// Hosting PM for place/remove acks.
    pub pm: Option<u64>,
    /// Resize verdict on resize acks.
    pub accepted: Option<bool>,
    /// VMs evicted, on fail-pm/drain-pm acks.
    pub evicted: Option<u64>,
    /// VMs re-placed synchronously, on fail-pm/drain-pm acks.
    pub replaced: Option<u64>,
    /// VMs already known lost, on fail-pm/drain-pm acks.
    pub lost: Option<u64>,
    /// The error word on failures.
    pub error: Option<String>,
    /// Worker-observed latency, when present.
    pub latency_us: Option<u64>,
    /// Request-scoped trace ID, when present.
    pub trace: Option<u64>,
    /// Queue-wait stage, microseconds, when the service staged it.
    pub queue_us: Option<u64>,
    /// Placement stage, microseconds, when staged.
    pub place_us: Option<u64>,
    /// WAL-commit stage, microseconds, when staged.
    pub commit_us: Option<u64>,
}

/// Parses a reply line (client side).
pub fn parse_reply(line: &str) -> Result<WireReply, ServeError> {
    let line = line.trim();
    let ok = if line.contains("\"ok\":true") {
        true
    } else if line.contains("\"ok\":false") {
        false
    } else {
        return Err(ServeError::BadRequest(format!(
            "reply without \"ok\" field: {line:?}"
        )));
    };
    let accepted = if line.contains("\"accepted\":true") {
        Some(true)
    } else if line.contains("\"accepted\":false") {
        Some(false)
    } else {
        None
    };
    Ok(WireReply {
        ok,
        op: field_str(line, "op").map(str::to_string),
        pm: field_u64(line, "pm"),
        accepted,
        evicted: field_u64(line, "evicted"),
        replaced: field_u64(line, "replaced"),
        lost: field_u64(line, "lost"),
        error: field_str(line, "error").map(str::to_string),
        latency_us: field_u64(line, "latency_us"),
        trace: field_u64(line, "trace"),
        queue_us: field_u64(line, "queue_us"),
        place_us: field_u64(line, "place_us"),
        commit_us: field_u64(line, "commit_us"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slackvm_model::PmId;

    #[test]
    fn place_line_round_trips() {
        let req =
            parse_request("{\"op\":\"place\",\"id\":7,\"vcpus\":4,\"mem_mib\":8192,\"level\":3}")
                .unwrap();
        match req {
            WireRequest::Op(Op::Place { id, spec }) => {
                assert_eq!(id, VmId(7));
                assert_eq!(spec.vcpus(), 4);
                assert_eq!(spec.mem_mib(), 8192);
                assert_eq!(spec.level.ratio(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn level_defaults_to_one() {
        let req =
            parse_request("{\"op\":\"place\",\"id\":1,\"vcpus\":2,\"mem_mib\":1024}").unwrap();
        match req {
            WireRequest::Op(Op::Place { spec, .. }) => assert_eq!(spec.level.ratio(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(
            parse_request("{\"op\":\"ping\"}").unwrap(),
            WireRequest::Ping
        );
        assert_eq!(
            parse_request(" {\"op\":\"stats\"} ").unwrap(),
            WireRequest::Stats
        );
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            WireRequest::Shutdown
        );
    }

    #[test]
    fn pm_lifecycle_ops_parse_and_acks_round_trip() {
        let req = parse_request("{\"op\":\"fail-pm\",\"shard\":2,\"pm\":5}").unwrap();
        assert_eq!(
            req,
            WireRequest::Op(Op::FailPm {
                shard: 2,
                pm: PmId(5)
            })
        );
        // shard defaults to 0; pm is mandatory.
        let req = parse_request("{\"op\":\"drain-pm\",\"pm\":1}").unwrap();
        assert_eq!(
            req,
            WireRequest::Op(Op::DrainPm {
                shard: 0,
                pm: PmId(1)
            })
        );
        assert!(parse_request("{\"op\":\"recover-pm\"}").is_err());

        let op = Op::FailPm {
            shard: 0,
            pm: PmId(5),
        };
        let line = render_reply(
            &op,
            &Reply {
                seq: 0,
                shard: Some(0),
                outcome: Outcome::PmFailed {
                    evicted: 4,
                    replaced: 3,
                    lost: 1,
                },
                latency_us: 7,
                trace: 0,
                queue_us: 0,
                place_us: 0,
                commit_us: 0,
            },
        );
        let parsed = parse_reply(&line).unwrap();
        assert!(parsed.ok);
        assert_eq!(parsed.op.as_deref(), Some("fail-pm"));
        assert_eq!(parsed.pm, Some(5));
        assert_eq!(
            (parsed.evicted, parsed.replaced, parsed.lost),
            (Some(4), Some(3), Some(1))
        );
    }

    #[test]
    fn rendered_requests_parse_back_to_the_op() {
        let pm = PmId(3);
        for op in [
            Op::Place {
                id: VmId(7),
                spec: VmSpec::of(4, 8192, OversubLevel::of(3)),
            },
            Op::Remove { id: VmId(7) },
            Op::Resize {
                id: VmId(7),
                vcpus: 8,
                mem_mib: 16384,
            },
            Op::FailPm { shard: 2, pm },
            Op::RecoverPm { shard: 0, pm },
            Op::DrainPm { shard: 1, pm },
        ] {
            let line = render_request(&op);
            assert_eq!(parse_request(&line).unwrap(), WireRequest::Op(op), "{line}");
        }
    }

    fn assert_32_bit_refusal(line: &str) {
        match parse_request(line) {
            Err(ServeError::BadRequest(msg)) => assert!(msg.contains("32 bits"), "{msg}"),
            other => panic!("{line} -> {other:?}"),
        }
    }

    /// Regression: `vcpus` used to be zero-checked as a `u64` and then
    /// narrowed with `as u32`, so 2^32 wrapped to 0 and panicked the
    /// connection thread inside `VmSpec::of`.
    #[test]
    fn place_with_vcpus_beyond_32_bits_is_a_bad_request_not_a_panic() {
        assert_32_bit_refusal("{\"op\":\"place\",\"id\":1,\"vcpus\":4294967296,\"mem_mib\":1024}");
        // The largest representable count still parses, unwrapped.
        match parse_request("{\"op\":\"place\",\"id\":1,\"vcpus\":4294967295,\"mem_mib\":1024}") {
            Ok(WireRequest::Op(Op::Place { spec, .. })) => assert_eq!(spec.vcpus(), u32::MAX),
            other => panic!("{other:?}"),
        }
    }

    /// Regression, same narrowing: 2^32 + 1 parsed to a *one*-vCPU
    /// resize that was then accepted and journalled.
    #[test]
    fn resize_with_vcpus_beyond_32_bits_is_a_bad_request_not_a_shrink() {
        assert_32_bit_refusal("{\"op\":\"resize\",\"id\":7,\"vcpus\":4294967297,\"mem_mib\":1}");
        match parse_request("{\"op\":\"resize\",\"id\":7,\"vcpus\":4294967295,\"mem_mib\":1}") {
            Ok(WireRequest::Op(Op::Resize { vcpus, .. })) => assert_eq!(vcpus, u32::MAX),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_lines_name_the_defect() {
        for (line, needle) in [
            ("{\"op\":\"warp\"}", "unknown op"),
            ("{\"id\":3}", "missing \"op\""),
            ("{\"op\":\"place\",\"id\":3}", "vcpus"),
            (
                "{\"op\":\"place\",\"id\":3,\"vcpus\":0,\"mem_mib\":4}",
                "positive",
            ),
            (
                "{\"op\":\"place\",\"id\":3,\"vcpus\":1,\"mem_mib\":4,\"level\":99}",
                "1..=64",
            ),
        ] {
            let err = parse_request(line).unwrap_err().to_string();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn replies_render_and_parse_back() {
        let op = Op::Place {
            id: VmId(7),
            spec: VmSpec::of(4, 8192, OversubLevel::of(3)),
        };
        let line = render_reply(
            &op,
            &Reply {
                seq: 0,
                shard: Some(2),
                outcome: Outcome::Placed(PmId(3)),
                latency_us: 12,
                trace: 0,
                queue_us: 0,
                place_us: 0,
                commit_us: 0,
            },
        );
        assert_eq!(
            line,
            "{\"ok\":true,\"op\":\"place\",\"id\":7,\"pm\":3,\"shard\":2,\"latency_us\":12}"
        );
        let parsed = parse_reply(&line).unwrap();
        assert!(parsed.ok);
        assert_eq!(parsed.op.as_deref(), Some("place"));
        assert_eq!(parsed.pm, Some(3));
        assert_eq!(parsed.latency_us, Some(12));
        assert_eq!(parsed.trace, None, "untraced replies stay terse");

        let shed = render_reply(
            &op,
            &Reply {
                seq: 0,
                shard: Some(0),
                outcome: Outcome::Shed,
                latency_us: 99,
                trace: 0,
                queue_us: 0,
                place_us: 0,
                commit_us: 0,
            },
        );
        let parsed = parse_reply(&shed).unwrap();
        assert!(!parsed.ok);
        assert_eq!(parsed.error.as_deref(), Some("shed"));
    }

    #[test]
    fn traced_replies_carry_stage_fields() {
        let op = Op::Place {
            id: VmId(7),
            spec: VmSpec::of(4, 8192, OversubLevel::of(3)),
        };
        let line = render_reply(
            &op,
            &Reply {
                seq: 8,
                shard: Some(1),
                outcome: Outcome::Placed(PmId(0)),
                latency_us: 40,
                trace: 0x1234_5678_9abc,
                queue_us: 41,
                place_us: 9,
                commit_us: 130,
            },
        );
        let parsed = parse_reply(&line).unwrap();
        assert_eq!(parsed.trace, Some(0x1234_5678_9abc));
        assert_eq!(parsed.queue_us, Some(41));
        assert_eq!(parsed.place_us, Some(9));
        assert_eq!(parsed.commit_us, Some(130));
    }
}
