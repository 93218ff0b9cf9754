//! Spans recorded by the benchmark at layer boundaries.
//!
//! Every span is taken from outside the measured crates, around a call
//! into one of their public functions. Spans are held in memory and
//! written out (Chrome trace-event JSON, hand-rolled) when the traced
//! pass ends. A layer is the part of a span name before the first dot
//! (`hypervisor.deploy` belongs to `hypervisor`).

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span within its [`Tracer`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Shared by every span of one VM event or request.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store with its own monotonic epoch.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the epoch to `at` (zero if `at` precedes it).
    pub fn at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as SpanId
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children are sequential within a parent (every
/// traced path is single-threaded per request), so the covered part is
/// the sum of their durations, capped at the parent's own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Calls and summed time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration per call in nanoseconds (0 with no calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Per-name aggregates, keyed by full span name.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let a = out.entry(s.name).or_default();
        a.calls += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += self_ns;
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto). One complete
/// event per span; `tid` is the layer so each layer gets its own track,
/// `args` carries the span id, parent id and request id. At most
/// `limit` spans are written (the file is for looking at, the numbers
/// come from [`aggregate`]).
pub fn chrome_json(spans: &[Span], limit: usize) -> String {
    let mut layers: Vec<&str> = spans.iter().map(|s| layer_of(s.name)).collect();
    layers.sort_unstable();
    layers.dedup();
    let mut out = String::with_capacity(spans.len().min(limit) * 120 + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (tid, layer) in layers.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{layer}\"}}}}"
        ));
    }
    for (id, s) in spans.iter().enumerate().take(limit) {
        let tid = layers
            .binary_search(&layer_of(s.name))
            .expect("layer collected above");
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        out.push_str(&format!(
            ",{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"req\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.req
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100
        //   a 10..40            (child of root)
        //     a1 15..25         (nested: child of a, not of root)
        //   b 50..70            (sibling of a)
        let spans = [
            span("bench.root", 0, 100, NO_PARENT),
            span("sim.a", 10, 40, 0),
            span("hypervisor.a1", 15, 25, 1),
            span("sim.b", 50, 70, 0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 30 - 20, 30 - 10, 10, 20]);
        // Self times partition the root: nothing counted twice.
        assert_eq!(selfs.iter().sum::<u64>(), 100);
    }

    #[test]
    fn children_longer_than_their_parent_do_not_underflow() {
        // Mirrored children are measured in a second pass and may sum to
        // more than the span they explain.
        let spans = [
            span("sim.deploy", 0, 10, NO_PARENT),
            span("sched.gather", 100, 108, 0),
            span("hypervisor.deploy", 108, 115, 0),
        ];
        assert_eq!(self_times(&spans), vec![0, 8, 7]);
    }

    #[test]
    fn aggregates_group_by_name() {
        let spans = [
            span("sim.deploy", 0, 10, NO_PARENT),
            span("hypervisor.deploy", 2, 6, 0),
            span("sim.deploy", 20, 50, NO_PARENT),
            span("hypervisor.can_host", 21, 22, 2),
        ];
        let aggs = aggregate(&spans);
        assert_eq!(
            aggs["sim.deploy"],
            Agg {
                calls: 2,
                total_ns: 40,
                self_ns: 35
            }
        );
        assert_eq!(aggs["sim.deploy"].mean_ns(), 20.0);
        assert_eq!(aggs["hypervisor.deploy"].self_ns, 4);
        assert_eq!(layer_of("hypervisor.deploy"), "hypervisor");
        assert_eq!(Agg::default().mean_ns(), 0.0);
    }

    #[test]
    fn chrome_json_is_balanced_and_honours_the_limit() {
        let spans = [
            span("sim.deploy", 1_000, 3_500, NO_PARENT),
            span("hypervisor.deploy", 1_200, 2_000, 0),
        ];
        let json = chrome_json(&spans, 1);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"name\":\"sim.deploy\""));
        assert!(json.contains("\"ts\":1.000,\"dur\":2.500"));
        assert!(json.contains("\"parent\":-1"));
        // Both layers get a track, only one span is written.
        assert!(json.contains("\"name\":\"hypervisor\""));
        assert!(!json.contains("\"name\":\"hypervisor.deploy\""));
    }
}
