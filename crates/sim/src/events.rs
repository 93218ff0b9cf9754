//! The discrete-event core: a deterministic time-ordered queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use slackvm_model::VmId;
use slackvm_workload::{VmInstance, Workload, WorkloadEvent};

/// An event the engine processes.
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A VM requests placement.
    Arrival(Box<VmInstance>),
    /// A placed VM terminates and frees its resources.
    Departure(VmId),
    /// A placed VM requests a vertical resize.
    Resize {
        /// Which VM.
        id: VmId,
        /// New vCPU count.
        vcpus: u32,
        /// New memory (MiB).
        mem_mib: u64,
    },
}

/// Priority key: earlier time first; at equal times, insertion order
/// (FIFO). The workload generator emits same-instant departures before
/// arrivals, and FIFO preserves that.
type Key = (u64, u64);

/// A deterministic event queue.
///
/// `BinaryHeap` alone is not deterministic for equal keys, so each push
/// carries a monotonically increasing sequence number.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(Key, EventSlot)>>,
    next_seq: u64,
}

/// Wrapper giving `SimEvent` the ordering the heap needs without
/// requiring `Ord` on workload types: ordering is fully decided by the
/// key, so the slot comparison is never consulted meaningfully.
#[derive(Debug)]
struct EventSlot(SimEvent);

impl PartialEq for EventSlot {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for EventSlot {}
impl PartialOrd for EventSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventSlot {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds a replay: the trace's arrivals and resizes, in trace order.
    /// The trace's own departures are left out — a replay schedules a
    /// VM's departure when it *places* the VM, so a rejected arrival
    /// leaves nothing behind to retire.
    pub fn from_workload(workload: &Workload) -> Self {
        let mut queue = Self::new();
        for (t, event) in &workload.events {
            match event {
                WorkloadEvent::Arrival(vm) => queue.push(*t, SimEvent::Arrival(vm.clone())),
                WorkloadEvent::Resize { id, vcpus, mem_mib } => queue.push(
                    *t,
                    SimEvent::Resize {
                        id: *id,
                        vcpus: *vcpus,
                        mem_mib: *mem_mib,
                    },
                ),
                WorkloadEvent::Departure { .. } => {}
            }
        }
        queue
    }

    /// Schedules `event` at `time_secs`.
    pub fn push(&mut self, time_secs: u64, event: SimEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap
            .push(Reverse(((time_secs, seq), EventSlot(event))));
    }

    /// Pops the earliest event, with its time.
    pub fn pop(&mut self) -> Option<(u64, SimEvent)> {
        self.heap
            .pop()
            .map(|Reverse(((time, _), slot))| (time, slot.0))
    }

    /// Next event time without popping.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(((time, _), _))| *time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, SimEvent::Departure(VmId(3)));
        q.push(10, SimEvent::Departure(VmId(1)));
        q.push(20, SimEvent::Departure(VmId(2)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.push(5, SimEvent::Departure(VmId(i)));
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                SimEvent::Departure(id) => id.0,
                _ => unreachable!(),
            })
            .collect();
        let expected: Vec<u64> = (0..50).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(7, SimEvent::Departure(VmId(0)));
        q.push(3, SimEvent::Departure(VmId(1)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(3));
        q.pop();
        assert_eq!(q.peek_time(), Some(7));
    }
}
