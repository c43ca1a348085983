//! The discrete-event queue driving the simulation.

use irec_core::{PcbMessage, PullReturn};
use irec_types::{AsId, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled for a point in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A PCB arriving at a neighbor's ingress gateway.
    DeliverPcb(PcbMessage),
    /// A pull-based beacon returned to its origin AS.
    DeliverPullReturn(PullReturn),
}

/// Internal heap entry; the sequence number makes ordering total and FIFO for equal times,
/// which keeps the simulation deterministic.
#[derive(Debug, Clone)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue. Cloning copies the pending events and the
/// sequence counter, so a cloned simulation snapshot replays in-flight deliveries
/// identically.
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` for time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Schedules `event` for time `at` under a caller-assigned sequence number, bumping
    /// the internal counter past it.
    ///
    /// The DAG round scheduler assigns sequence numbers inside its accounting chain (in
    /// `AsId` order, from [`EventQueue::next_seq`]) and pushes the staged events after the
    /// round's scope joins — the queue contents end up identical to the barrier
    /// scheduler's inline [`EventQueue::schedule`] calls. Callers must keep assigned
    /// sequence numbers unique; reuse would break the FIFO tiebreak's totality.
    pub fn schedule_preassigned(&mut self, at: SimTime, seq: u64, event: Event) {
        self.next_seq = self.next_seq.max(seq + 1);
        self.heap.push(Scheduled { at, seq, event });
    }

    /// The sequence number the next scheduled event will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the next pending event.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Pops the next event if it is scheduled at or before `until`.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, Event)> {
        if self.next_time()? <= until {
            let s = self.heap.pop().expect("peeked element exists");
            Some((s.at, s.event))
        } else {
            None
        }
    }

    /// Pops the next event regardless of time.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// Like [`EventQueue::pop_until`], but also yields the event's sequence number — the
    /// key the DAG scheduler's speculative-verdict cache is indexed by.
    pub fn pop_entry_until(&mut self, until: SimTime) -> Option<(SimTime, u64, Event)> {
        if self.next_time()? <= until {
            let s = self.heap.pop().expect("peeked element exists");
            Some((s.at, s.seq, s.event))
        } else {
            None
        }
    }

    /// Gives back the room of events long delivered: once the queue holds less than a
    /// quarter of what it has room for, it keeps room for what it holds. A round's sends
    /// arrive as one burst and leave within the round, and the largest burst of a run comes
    /// early — rooms kept for it would stay allocated, unused, to the end of the run. For
    /// the loop that drains the queue to call once per pass, not per pop; order, pending
    /// events and the sequence counter are untouched.
    pub fn release_spare_capacity(&mut self) {
        if self.heap.len() < self.heap.capacity() / 4 {
            self.heap.shrink_to_fit();
        }
    }

    /// How many events the queue has room for without allocating.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Removes every pending event addressed to `asn` (PCB deliveries and pull returns
    /// alike) and returns them in `(SimTime, seq)` order. The sequence counter is left
    /// untouched, so surviving and future events keep their total order.
    ///
    /// This is the event-queue half of node-removal hygiene: without it, a node removed
    /// and later re-added under the same `AsId` would receive messages sent before its
    /// removal (see `Simulation::remove_node` / `Simulation::add_node`).
    pub fn purge_addressed_to(&mut self, asn: AsId) -> Vec<(SimTime, u64, Event)> {
        let drained = std::mem::take(&mut self.heap).into_vec();
        let mut purged = Vec::new();
        let mut kept = Vec::with_capacity(drained.len());
        for scheduled in drained {
            let addressed = match &scheduled.event {
                Event::DeliverPcb(message) => message.to_as == asn,
                Event::DeliverPullReturn(ret) => ret.to_as == asn,
            };
            if addressed {
                purged.push(scheduled);
            } else {
                kept.push(scheduled);
            }
        }
        self.heap = BinaryHeap::from(kept);
        self.release_spare_capacity();
        purged.sort_by_key(|s| (s.at, s.seq));
        purged.into_iter().map(|s| (s.at, s.seq, s.event)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irec_pcb::{Pcb, PcbExtensions};
    use irec_types::{AsId, IfId, SimDuration};

    fn event(origin: u64) -> Event {
        Event::DeliverPcb(PcbMessage {
            from_as: AsId(origin),
            from_if: IfId(1),
            to_as: AsId(2),
            to_if: IfId(1),
            pcb: Pcb::originate(
                AsId(origin),
                0,
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_hours(1),
                PcbExtensions::none(),
            ),
        })
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), event(3));
        q.schedule(SimTime::from_micros(10), event(1));
        q.schedule(SimTime::from_micros(20), event(2));
        assert_eq!(q.len(), 3);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::DeliverPcb(m) => m.from_as.value(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(SimTime::from_micros(100), event(i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::DeliverPcb(m) => m.from_as.value(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pop_until_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), event(1));
        q.schedule(SimTime::from_micros(50), event(2));
        assert!(q.pop_until(SimTime::from_micros(20)).is_some());
        assert!(q.pop_until(SimTime::from_micros(20)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_time(), Some(SimTime::from_micros(50)));
    }

    #[test]
    fn preassigned_seqs_interleave_with_assigned_ones() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100), event(1)); // seq 0
        q.schedule_preassigned(SimTime::from_micros(100), 5, event(2));
        assert_eq!(q.next_seq(), 6);
        q.schedule(SimTime::from_micros(100), event(3)); // seq 6
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop_entry_until(SimTime::MAX))
            .map(|(_, seq, _)| seq)
            .collect();
        assert_eq!(seqs, vec![0, 5, 6]);
    }

    #[test]
    fn purge_removes_only_events_addressed_to_the_as() {
        let mut q = EventQueue::new();
        // `event(origin)` addresses AsId(2); craft one addressed elsewhere by reusing the
        // helper and patching the destination.
        q.schedule(SimTime::from_micros(10), event(1));
        q.schedule(SimTime::from_micros(30), event(3));
        let Event::DeliverPcb(mut other) = event(7) else {
            unreachable!()
        };
        other.to_as = AsId(9);
        q.schedule(SimTime::from_micros(20), Event::DeliverPcb(other));
        let purged = q.purge_addressed_to(AsId(2));
        assert_eq!(purged.len(), 2);
        // Purged entries come back in (time, seq) order.
        assert_eq!(purged[0].0, SimTime::from_micros(10));
        assert_eq!(purged[1].0, SimTime::from_micros(30));
        // The survivor still pops, and the seq counter kept advancing.
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_seq(), 3);
        let (_, _, survivor) = q.pop_entry_until(SimTime::MAX).unwrap();
        match survivor {
            Event::DeliverPcb(m) => assert_eq!(m.to_as, AsId(9)),
            _ => unreachable!(),
        }
        assert!(q.purge_addressed_to(AsId(2)).is_empty());
    }

    /// A burst leaves no room behind once it has drained, and releasing changes nothing a
    /// reader of the queue can see: the events come out in `(at, seq)` order, the counter
    /// goes on where it was, and a clone taken mid-drain replays the rest identically.
    #[test]
    fn a_drained_burst_gives_its_room_back() {
        let burst = 10_000u64;
        let mut q = EventQueue::new();
        for i in 0..burst {
            // Times repeat (FIFO tie-breaks matter) and are not scheduled in order.
            q.schedule(SimTime::from_micros((i * 7919) % 1_000), event(i));
        }
        let room = q.capacity();
        assert!(room >= burst as usize);

        let mut popped = Vec::new();
        let mut snapshot = None;
        while !q.is_empty() {
            // One pass of a drain loop: an epoch of pops, then one release.
            for _ in 0..512 {
                popped.extend(
                    q.pop_entry_until(SimTime::MAX)
                        .map(|(at, seq, _)| (at, seq)),
                );
            }
            q.release_spare_capacity();
            assert!(
                q.capacity() <= 4 * q.len() + 3,
                "{} for {}",
                q.capacity(),
                q.len()
            );
            if snapshot.is_none() && q.len() < burst as usize / 2 {
                snapshot = Some((q.clone(), popped.len()));
            }
        }
        assert_eq!(q.capacity(), 0);
        assert_eq!(q.next_seq(), burst);
        assert_eq!(popped.len(), burst as usize);
        assert!(popped.windows(2).all(|pair| pair[0] < pair[1]));

        let (mut replay, already) = snapshot.expect("taken mid-drain");
        assert_eq!(replay.next_seq(), burst);
        let rest: Vec<(SimTime, u64)> = std::iter::from_fn(|| replay.pop_entry_until(SimTime::MAX))
            .map(|(at, seq, _)| (at, seq))
            .collect();
        assert_eq!(rest, popped[already..]);

        // The next burst is scheduled after the last one, in a queue that grows again.
        q.schedule(SimTime::ZERO, event(0));
        assert_eq!(q.pop_entry_until(SimTime::MAX).map(|e| e.1), Some(burst));
    }

    #[test]
    fn purging_gives_the_purged_room_back() {
        let mut q = EventQueue::new();
        for i in 0..4_096 {
            q.schedule(SimTime::from_micros(i), event(i));
        }
        let Event::DeliverPcb(mut other) = event(7) else {
            unreachable!()
        };
        other.to_as = AsId(9);
        q.schedule(SimTime::from_micros(5), Event::DeliverPcb(other));
        assert_eq!(q.purge_addressed_to(AsId(2)).len(), 4_096);
        assert_eq!((q.len(), q.capacity()), (1, 1));
        assert_eq!(q.next_seq(), 4_097);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
        assert!(q.pop().is_none());
        assert!(q.pop_until(SimTime::MAX).is_none());
    }
}
