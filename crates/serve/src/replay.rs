//! Deterministic trace replay through the service.
//!
//! [`serve_replay`] drives a workload trace through a running
//! [`PlacementService`] with the same event discipline as the offline
//! engine (`slackvm_sim::run_packing`): it reuses the simulator's
//! [`EventQueue`] — arrivals and resizes from the trace, departures
//! synthesized at `departure_secs.max(t + 1)` on successful placement —
//! and submits each event synchronously. Against a single-shard service
//! in deterministic mode, the decision sequence is therefore identical
//! to the offline replay, placement for placement (proven by
//! `tests/serve_differential.rs`).

use slackvm_model::VmId;
use slackvm_sim::{EventQueue, SimEvent};
use slackvm_workload::Workload;

use crate::error::ServeError;
use crate::request::{Op, Outcome};
use crate::service::PlacementService;

/// One placement decision, in trace order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Simulated arrival time.
    pub time_secs: u64,
    /// The VM the arrival concerned.
    pub vm: VmId,
    /// `Some(pm)` when placed, `None` when rejected.
    pub pm: Option<slackvm_model::PmId>,
}

/// Totals of a [`serve_replay`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Placement decisions in trace order (one per arrival).
    pub decisions: Vec<Decision>,
    /// Arrivals placed.
    pub placed: u64,
    /// Arrivals rejected.
    pub rejected: u64,
    /// Departures executed.
    pub removed: u64,
    /// Resizes the fleet absorbed.
    pub resizes_accepted: u64,
    /// Resizes declined (old size stays in force).
    pub resizes_declined: u64,
}

/// Replays `workload` through `service`, synchronously — each event's
/// reply is awaited before the next event is dispatched, so the service
/// observes the trace in exactly the offline engine's order.
pub fn serve_replay(
    workload: &Workload,
    service: &PlacementService,
) -> Result<ReplaySummary, ServeError> {
    // Seeded exactly like the offline engine: departures are
    // synthesized from each placement, not read from the trace.
    let mut queue = EventQueue::from_workload(workload);

    let mut summary = ReplaySummary::default();
    while let Some((t, event)) = queue.pop() {
        match event {
            SimEvent::Arrival(vm) => {
                let reply = service.call(Op::Place {
                    id: vm.id,
                    spec: vm.spec,
                })?;
                match reply.outcome {
                    Outcome::Placed(pm) => {
                        summary.placed += 1;
                        summary.decisions.push(Decision {
                            time_secs: t,
                            vm: vm.id,
                            pm: Some(pm),
                        });
                        queue.push(vm.departure_secs.max(t + 1), SimEvent::Departure(vm.id));
                    }
                    Outcome::Rejected => {
                        summary.rejected += 1;
                        summary.decisions.push(Decision {
                            time_secs: t,
                            vm: vm.id,
                            pm: None,
                        });
                    }
                    other => {
                        return Err(ServeError::BadRequest(format!(
                            "unexpected reply to a placement: {other:?}"
                        )))
                    }
                }
            }
            SimEvent::Departure(id) => {
                let reply = service.call(Op::Remove { id })?;
                match reply.outcome {
                    Outcome::Removed(_) => summary.removed += 1,
                    other => {
                        return Err(ServeError::BadRequest(format!(
                            "departure of a placed VM answered {other:?}"
                        )))
                    }
                }
            }
            SimEvent::Resize { id, vcpus, mem_mib } => {
                // Resizes may target never-placed (rejected) VMs; the
                // offline engine treats those as declined no-ops too.
                let reply = service.call(Op::Resize { id, vcpus, mem_mib })?;
                match reply.outcome {
                    Outcome::Resized { accepted: true } => summary.resizes_accepted += 1,
                    _ => summary.resizes_declined += 1,
                }
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ModelSpec, ServeConfig};
    use slackvm_workload::scenarios;

    fn deterministic_service() -> PlacementService {
        PlacementService::start(ServeConfig {
            shards: 1,
            deterministic: true,
            model: ModelSpec::default_shared(),
            ..ServeConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn replay_drains_fully_on_an_elastic_fleet() {
        let workload = scenarios::paper_week_f(40).generate(7);
        let svc = deterministic_service();
        let summary = serve_replay(&workload, &svc).unwrap();
        assert_eq!(summary.rejected, 0, "elastic fleets never reject");
        assert_eq!(summary.placed, summary.removed, "every placement departs");
        assert_eq!(summary.decisions.len() as u64, summary.placed);
        let report = svc.stop();
        let (alloc, _) = report.shards[0].model.totals();
        assert!(alloc.is_empty(), "fully drained");
        report.check_invariants().unwrap();
    }

    #[test]
    fn replay_is_reproducible_run_to_run() {
        let workload = scenarios::paper_week_f(30).generate(11);
        let a = serve_replay(&workload, &deterministic_service()).unwrap();
        let b = serve_replay(&workload, &deterministic_service()).unwrap();
        assert_eq!(a, b);
    }
}
