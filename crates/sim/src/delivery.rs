//! The message-delivery plane: the deterministic event queue, the walk that delivers it,
//! and the verify-ahead pipeline that takes PCB verification off that walk.
//!
//! 1. **Verify ahead.** A PCB's verdict — signature, expiry and policy checks, via
//!    [`irec_core::verify_received`] — is a function of the PCB, its receipt time, the
//!    receiver's AS number and the shared key registry, and of nothing else in flight. So
//!    `Simulation::run_single_round` does not wait for delivery to verify: as each node
//!    finishes its beaconing round, its output goes out as a *flight* that carries every
//!    PCB's receipt time, computed once with the scheduling rule. A helper thread
//!    verifies the flights (`VerifyAhead`) while the main thread runs the remaining
//!    nodes, and each verified flight is scheduled in `AsId` order, every accepted PCB
//!    marked as such. This is the only path: which thread runs a check is not part of
//!    the model, so nothing selects another.
//! 2. **Deliver.** Due events are popped in `(SimTime, seq)` order and delivered one by
//!    one. A PCB over a downed link drops first, then one addressed to an AS without a node;
//!    otherwise the receiver commits the verdict computed ahead
//!    ([`IrecNode::apply_message`]). The queue entry of a PCB accepted ahead carries the id
//!    its verification computed, so delivery commits it under that id and hashes nothing
//!    ([`irec_pcb::Pcb::digest`] would be the same bytes again, a third of a
//!    verification); the id widens every in-flight event by 32 bytes. A PCB not accepted
//!    ahead — rejected there, or scheduled through the public [`DeliveryPlane::schedule`]
//!    — is verified inline first ([`IrecNode::verify_message`]).
//!
//! **Determinism.** A verdict computed ahead is the verdict inline verification computes
//! at delivery, and the commits happen in `(SimTime, seq)` order on one thread either way.
//! The inline reference survives as recorded bytes and as a unit oracle: every golden
//! under `tests/goldens/` was recorded with every PCB verified inline at delivery, and
//! `tests/fixture_matrix.rs` compares each fixture's run with its golden — exact
//! bandwidths, PD path endpoints and overhead zeros included;
//! `tests/delivery_determinism.rs` and `tests/parallel_determinism.rs` hold five more
//! planes to fingerprints recorded inline;
//! `verdicts_computed_ahead_deliver_like_inline_verification` below commits the same
//! traffic both ways.

use crate::event::{Event, EventQueue};
use irec_core::{verify_received, IrecNode, RoundOutput};
use irec_crypto::Verifier;
use irec_pcb::PcbId;
use irec_types::{AsId, IfId, LinkId, SimTime};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::time::Instant;

/// Events delivered between two releases of the queue's spare room, and the most
/// [`DeliveryPlane::drain_due`] hands out at once to the benchmark's traced round loop.
pub const MAX_EPOCH_EVENTS: usize = 4096;

/// Delivery accounting, split by outcome.
///
/// The pre-delivery-plane simulator lumped the last two counters into one `dropped` figure;
/// they answer different questions (is the topology/failure model losing messages vs. is
/// the ingress gateway refusing them), so the plane tracks them separately.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Messages delivered to (and accepted or deduplicated by) their destination node.
    pub delivered: u64,
    /// Messages addressed to an AS that has no node (e.g. removed by failure injection),
    /// including pending events purged when their destination node was removed or before
    /// it was re-added (see `Simulation::remove_node` / `Simulation::add_node`).
    pub dropped_no_node: u64,
    /// PCB messages lost because the link they were sent over went down (churn injection)
    /// before their delivery time. Checked before the missing-node outcome, so a message
    /// over a downed link towards a removed AS counts here, not in `dropped_no_node`.
    pub dropped_link_down: u64,
    /// PCB messages rejected by the receiving ingress gateway (signature, expiry or policy
    /// failures).
    pub rejected: u64,
}

impl DeliveryStats {
    /// The legacy aggregate: everything that was not delivered.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_no_node + self.dropped_link_down + self.rejected
    }

    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: DeliveryStats) {
        self.delivered += other.delivered;
        self.dropped_no_node += other.dropped_no_node;
        self.dropped_link_down += other.dropped_link_down;
        self.rejected += other.rejected;
    }
}

/// The message-delivery plane: the deterministic event queue plus the walk that delivers
/// it. Cloning copies the pending events — with the verdicts computed ahead for them — and
/// the accounting, so a cloned simulation snapshot delivers identically.
#[derive(Debug, Clone, Default)]
pub struct DeliveryPlane {
    queue: EventQueue,
    stats: DeliveryStats,
    /// Links currently down (churn injection), with the two `(AS, interface)` endpoints
    /// each was resolved to when it was taken down. A PCB whose `(from_as, from_if)`
    /// endpoint belongs to a downed link is dropped at delivery time — evaluated against
    /// the state at the drain, so in-flight messages scheduled before the flap drop too.
    /// Cloned with the plane: a snapshot replays the same link state.
    down_links: BTreeMap<LinkId, [(AsId, IfId); 2]>,
    /// The endpoint set derived from [`DeliveryPlane::down_links`], for O(log n) per-event
    /// checks. An `(AS, interface)` pair belongs to exactly one link, so membership is
    /// equivalent to "the message's egress link is down".
    down_endpoints: BTreeSet<(AsId, IfId)>,
}

impl DeliveryPlane {
    /// Marks `link` down: from now until [`DeliveryPlane::set_link_up`], every PCB whose
    /// `(from_as, from_if)` matches either endpoint drops at delivery time (counted in
    /// [`DeliveryStats::dropped_link_down`]). Idempotent; the caller resolves the
    /// endpoints from the topology (the plane deliberately has no topology access).
    pub fn set_link_down(&mut self, link: LinkId, endpoints: [(AsId, IfId); 2]) {
        if self.down_links.insert(link, endpoints).is_none() {
            for endpoint in endpoints {
                self.down_endpoints.insert(endpoint);
            }
        }
    }

    /// Brings `link` back up. Messages scheduled while it was down but delivered after
    /// this call are delivered normally — the drop check reads the state at drain time.
    /// Idempotent; unknown (or already-up) links are a no-op.
    pub fn set_link_up(&mut self, link: LinkId) {
        if let Some(endpoints) = self.down_links.remove(&link) {
            for endpoint in endpoints {
                self.down_endpoints.remove(&endpoint);
            }
        }
    }

    /// Whether `link` is currently down.
    pub fn is_link_down(&self, link: LinkId) -> bool {
        self.down_links.contains_key(&link)
    }

    /// Whether the `(AS, interface)` endpoint belongs to a currently-downed link.
    pub fn is_endpoint_down(&self, asn: AsId, ifid: IfId) -> bool {
        self.down_endpoints.contains(&(asn, ifid))
    }

    /// The currently-downed links, in `LinkId` order.
    pub fn downed_links(&self) -> Vec<LinkId> {
        self.down_links.keys().copied().collect()
    }

    /// Node-removal hygiene: purges every pending event addressed to `asn` and accounts
    /// each as [`DeliveryStats::dropped_no_node`]. Returns the number of events purged.
    ///
    /// Called by `Simulation::remove_node` (messages in flight towards the removed AS)
    /// and by `Simulation::add_node` (messages sent while the AS had no node), so a node
    /// re-added under the same `AsId` can never observe pre-removal traffic.
    pub fn purge_addressed_to(&mut self, asn: AsId) -> u64 {
        let count = self.queue.purge_addressed_to(asn).len() as u64;
        self.stats.dropped_no_node += count;
        count
    }

    /// Schedules `event` for delivery at time `at`; a PCB is verified when it is delivered.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        self.queue.schedule(at, event);
    }

    /// Schedules `event` for delivery at time `at`; `Some(id)` tells that a PCB passed
    /// verification for its receiver at `at` under `id`, and with `None` it is verified
    /// when delivered.
    pub(crate) fn schedule_verified(&mut self, at: SimTime, event: Event, id: Option<PcbId>) {
        self.queue.schedule_verified(at, event, id);
    }

    /// The sequence number the next scheduled event will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.queue.next_seq()
    }

    /// Number of events still in flight.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The delivery accounting so far.
    pub fn stats(&self) -> DeliveryStats {
        self.stats
    }

    /// Folds a delivery-outcome delta into the accounting, for a driver that drains the
    /// plane with [`DeliveryPlane::drain_due`] and delivers the events itself.
    pub fn add_stats(&mut self, delta: DeliveryStats) {
        self.stats.merge(delta);
    }

    /// Pops every event due at or before `until` — at most `max_events` of them — in
    /// `(SimTime, seq)` order, *without* delivering; the caller verifies and delivers them
    /// and folds the outcome back via [`DeliveryPlane::add_stats`].
    pub fn drain_due(&mut self, until: SimTime, max_events: usize) -> Vec<(SimTime, u64, Event)> {
        let mut due = Vec::new();
        while due.len() < max_events {
            match self.queue.pop_entry_until(until) {
                Some(entry) => due.push(entry),
                None => break,
            }
        }
        self.queue.release_spare_capacity();
        due
    }

    /// Delivers every event due at or before `until` to `nodes`, in `(SimTime, seq)` order.
    pub fn deliver_until(&mut self, nodes: &mut BTreeMap<AsId, IrecNode>, until: SimTime) {
        let busy = AtomicU64::new(0);
        self.deliver_until_probed(nodes, until, &busy);
    }

    /// [`DeliveryPlane::deliver_until`] with a busy-time probe: every delivery's execution
    /// time accumulates into `busy_nanos`, feeding the round's idle accounting (see
    /// [`crate::SchedulerStats`]).
    pub fn deliver_until_probed(
        &mut self,
        nodes: &mut BTreeMap<AsId, IrecNode>,
        until: SimTime,
        busy_nanos: &AtomicU64,
    ) {
        let mut delivered = 0usize;
        while let Some((at, event, id)) = self.queue.pop_verified_until(until) {
            let started = Instant::now();
            self.deliver(nodes, at, event, id);
            busy_nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            delivered += 1;
            if delivered.is_multiple_of(MAX_EPOCH_EVENTS) {
                self.queue.release_spare_capacity();
            }
        }
        self.queue.release_spare_capacity();
    }

    /// Delivers one event received at `at`: a PCB accepted ahead commits under the id its
    /// verification computed; any other PCB is verified inline first.
    fn deliver(
        &mut self,
        nodes: &mut BTreeMap<AsId, IrecNode>,
        at: SimTime,
        event: Event,
        id: Option<PcbId>,
    ) {
        match event {
            // The downed-link check precedes the missing-node check and the verdict, so
            // the counter split is the same however the PCB was verified.
            Event::DeliverPcb(message)
                if self.is_endpoint_down(message.from_as, message.from_if) =>
            {
                self.stats.dropped_link_down += 1;
            }
            Event::DeliverPcb(message) => match nodes.get_mut(&message.to_as) {
                Some(node) => {
                    let verdict = match id {
                        Some(id) => Ok(id),
                        None => node.verify_message(&message, at),
                    };
                    match node.apply_message(message, at, verdict) {
                        Ok(()) => self.stats.delivered += 1,
                        Err(_) => self.stats.rejected += 1,
                    }
                }
                // The addressed AS has no node (e.g. removed by failure injection): the
                // message is lost and must be accounted, not silently discarded.
                None => self.stats.dropped_no_node += 1,
            },
            Event::DeliverPullReturn(ret) => match nodes.get_mut(&ret.to_as) {
                Some(node) => {
                    node.handle_pull_return(ret, at);
                    self.stats.delivered += 1;
                }
                None => self.stats.dropped_no_node += 1,
            },
        }
    }
}

/// One node's round output on its way into the queue: every PCB's receipt time, computed
/// once with the scheduling rule and used for the verdict and the schedule alike, and —
/// once verified ahead — the id of each PCB that was accepted.
pub(crate) struct Flight {
    pub(crate) output: RoundOutput,
    /// Receipt time of each of `output.messages`, in order.
    pub(crate) arrivals: Vec<SimTime>,
    /// For each of `output.messages`, the id it was accepted under, or `None` when it was
    /// rejected. Empty until verified.
    pub(crate) ids: Vec<Option<PcbId>>,
}

impl Flight {
    /// A flight of `output`. The verdict slots are reserved here, on the thread that builds
    /// the flight, so the helper that verifies it allocates none.
    pub(crate) fn new(output: RoundOutput, arrivals: Vec<SimTime>) -> Self {
        let ids = Vec::with_capacity(output.messages.len());
        Flight {
            output,
            arrivals,
            ids,
        }
    }

    /// Verifies every PCB for its receiver at its receipt time.
    fn verify(&mut self, verifier: &Verifier) {
        let verdicts = self
            .output
            .messages
            .iter()
            .zip(&self.arrivals)
            .map(|(message, &at)| verify_received(message.to_as, verifier, &message.pcb, at).ok());
        self.ids.extend(verdicts);
    }
}

/// A flight and its node's position in the round's `AsId` order.
pub(crate) type Handed = (usize, Flight);

/// The verify-ahead pipeline of one round. The node phase hands each finished node's
/// [`Flight`] over with [`VerifyAhead::hand_over`]; one helper thread running
/// [`VerifyAhead::help`] verifies the flights in the order they were handed over, and
/// every flight comes back on the receiver [`VerifyAhead::new`] returns. At most one
/// flight waits for the helper: while one does, the node phase verifies the next flight
/// itself. That bounds the outputs held outside the queue, and it shares the work when
/// verification outruns the node rounds. Both channels are allocated up front, so neither
/// a hand-over nor a return allocates.
pub(crate) struct VerifyAhead<'a> {
    verifier: &'a Verifier,
    busy_nanos: &'a AtomicU64,
    verified: SyncSender<Handed>,
}

impl<'a> VerifyAhead<'a> {
    /// A pipeline for a round of up to `flights` flights, with the receiver they come
    /// back on.
    pub(crate) fn new(
        verifier: &'a Verifier,
        busy_nanos: &'a AtomicU64,
        flights: usize,
    ) -> (Self, Receiver<Handed>) {
        let (verified, returned) = sync_channel(flights);
        let pipeline = VerifyAhead {
            verifier,
            busy_nanos,
            verified,
        };
        (pipeline, returned)
    }

    /// The channel that hands flights to the helper: it holds the one that may wait.
    pub(crate) fn helper_channel() -> (SyncSender<Handed>, Receiver<Handed>) {
        sync_channel(1)
    }

    /// Hands a finished node's flight to the helper on `helper`, or verifies it here when
    /// one already waits there: the helper has not taken it yet, as on a host without a
    /// spare core.
    pub(crate) fn hand_over(&self, helper: &SyncSender<Handed>, flight: Handed) {
        if let Err(TrySendError::Full(flight)) = helper.try_send(flight) {
            self.verify(flight);
        }
    }

    /// Verifies the flights handed over on `handed` until its sender hangs up.
    pub(crate) fn help(&self, handed: Receiver<Handed>) {
        for flight in handed {
            self.verify(flight);
        }
    }

    /// Verifies one flight and sends it back.
    fn verify(&self, (index, mut flight): Handed) {
        let started = Instant::now();
        flight.verify(self.verifier);
        self.busy_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // The channel has room for every flight of the round: this never blocks. It only
        // fails once the round has unwound, and then the flight is moot.
        let _ = self.verified.send((index, flight));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irec_core::{NodeConfig, PcbMessage, SharedAlgorithmStore};
    use irec_crypto::{KeyRegistry, Signer};
    use irec_pcb::{Pcb, PcbExtensions, StaticInfo};
    use irec_topology::builder::figure1_topology;
    use irec_types::{Bandwidth, IfId, Latency, SimDuration};
    use std::sync::Arc;

    fn nodes_with_registry() -> (BTreeMap<AsId, IrecNode>, KeyRegistry) {
        let topology = Arc::new(figure1_topology());
        let registry = KeyRegistry::with_ases(42, 64);
        let store = SharedAlgorithmStore::new();
        let mut nodes = BTreeMap::new();
        for asn in topology.as_ids() {
            registry.register(asn);
            let node = IrecNode::new(
                asn,
                NodeConfig::default(),
                Arc::clone(&topology),
                registry.clone(),
                store.clone(),
            )
            .unwrap();
            nodes.insert(asn, node);
        }
        (nodes, registry)
    }

    fn message(registry: &KeyRegistry, origin: u64, seq: u64, to: u64, tampered: bool) -> Event {
        let mut pcb = Pcb::originate(
            AsId(origin),
            seq,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(6),
            PcbExtensions::none(),
        );
        pcb.extend(
            IfId::NONE,
            IfId(1),
            StaticInfo::origin(Latency::from_millis(10), Bandwidth::from_mbps(100), None),
            &Signer::new(AsId(origin), registry.clone()),
        )
        .unwrap();
        if tampered {
            pcb.entries.to_mut()[0].static_info.link_latency = Latency::from_millis(1);
        }
        Event::DeliverPcb(PcbMessage {
            from_as: AsId(origin),
            from_if: IfId(1),
            to_as: AsId(to),
            to_if: IfId(1),
            pcb,
        })
    }

    /// A mix of valid, tampered and undeliverable messages across several epochs' worth
    /// of timestamps. Origin AS5 never receives, so no loop rejections interfere with the
    /// tampered-count assertion.
    fn traffic(registry: &KeyRegistry) -> Vec<(SimTime, Event)> {
        let mut traffic: Vec<(SimTime, Event)> = (0..20u64)
            .map(|seq| {
                let to = 1 + (seq % 4); // delivered round-robin to AS1..AS4
                let tampered = seq % 5 == 0;
                let at = SimTime::from_micros(100 + seq * 7);
                (at, message(registry, 5, seq, to, tampered))
            })
            .collect();
        // A message to an AS that has no node.
        traffic.push((
            SimTime::from_micros(130),
            message(registry, 5, 100, 99, false),
        ));
        traffic
    }

    /// Every id stored in `node`'s ingress database, batch by batch.
    fn stored_ids(node: &IrecNode) -> Vec<PcbId> {
        let db = node.ingress().db();
        db.batch_keys()
            .iter()
            .filter_map(|key| db.batch_view(key, SimTime::ZERO))
            .flat_map(|view| view.ids().to_vec())
            .collect()
    }

    /// Delivers [`traffic`], each PCB carrying the verdict computed ahead for it when
    /// `verify_ahead`, and none (inline verification at delivery) otherwise. Returns the
    /// accounting and every node's stored ids.
    fn run_plane(verify_ahead: bool) -> (DeliveryStats, Vec<(AsId, Vec<PcbId>)>) {
        let (mut nodes, registry) = nodes_with_registry();
        let verifier = Verifier::new(registry.clone());
        let mut plane = DeliveryPlane::default();
        for (at, event) in traffic(&registry) {
            let id = match &event {
                Event::DeliverPcb(m) if verify_ahead => {
                    verify_received(m.to_as, &verifier, &m.pcb, at).ok()
                }
                _ => None,
            };
            plane.schedule_verified(at, event, id);
        }
        plane.deliver_until(&mut nodes, SimTime::MAX);
        let stored = nodes
            .iter()
            .map(|(asn, node)| (*asn, stored_ids(node)))
            .collect();
        (plane.stats(), stored)
    }

    #[test]
    fn plane_accounts_outcomes_separately() {
        let (stats, _) = run_plane(false);
        assert_eq!(stats.rejected, 4, "tampered messages rejected");
        assert_eq!(stats.dropped_no_node, 1);
        assert_eq!(stats.delivered, 16);
        assert_eq!(stats.dropped_total(), 5);
    }

    /// Committed under the ids computed ahead, every node stores the ids inline
    /// verification stores.
    #[test]
    fn verdicts_computed_ahead_deliver_like_inline_verification() {
        let inline = run_plane(false);
        assert_eq!(run_plane(true), inline);
        assert_eq!(inline.0.rejected, 4);
        let stored: usize = inline.1.iter().map(|(_, ids)| ids.len()).sum();
        assert_eq!(stored as u64, inline.0.delivered);
    }

    /// The PCBs of [`traffic`] as one node's flight, not yet verified.
    fn flight(registry: &KeyRegistry) -> Flight {
        let (arrivals, messages) = traffic(registry)
            .into_iter()
            .filter_map(|(at, event)| match event {
                Event::DeliverPcb(message) => Some((at, message)),
                Event::DeliverPullReturn(_) => None,
            })
            .unzip();
        let output = RoundOutput {
            messages,
            ..RoundOutput::default()
        };
        Flight::new(output, arrivals)
    }

    /// Flights handed to the pipeline come back verified, each exactly once, whether the
    /// helper or the hand-over side verified it: every accepted PCB with its own id, a
    /// tampered PCB with none.
    #[test]
    fn the_pipeline_returns_every_flight_verified() {
        let (_, registry) = nodes_with_registry();
        let verifier = Verifier::new(registry.clone());
        let busy = AtomicU64::new(0);
        let flights = 6;
        let (pipeline, returned) = VerifyAhead::new(&verifier, &busy, flights);
        std::thread::scope(|scope| {
            let (helper, handed) = VerifyAhead::helper_channel();
            scope.spawn(|| pipeline.help(handed));
            for index in 0..flights {
                pipeline.hand_over(&helper, (index, flight(&registry)));
            }
        });
        let mut back: Vec<Handed> = returned.try_iter().collect();
        back.sort_by_key(|(index, _)| *index);
        assert_eq!(back.len(), flights);
        for (position, (index, flight)) in back.iter().enumerate() {
            assert_eq!(*index, position);
            assert_eq!(flight.ids.len(), flight.output.messages.len());
            let mut rejected = 0;
            for (message, id) in flight.output.messages.iter().zip(&flight.ids) {
                let latency = message
                    .pcb
                    .entries
                    .first()
                    .map(|e| e.static_info.link_latency);
                let tampered = latency == Some(Latency::from_millis(1));
                rejected += usize::from(tampered);
                let expected = (!tampered).then(|| message.pcb.digest());
                assert_eq!(*id, expected);
            }
            assert_eq!(rejected, 4, "the tampered PCBs");
        }
        assert!(busy.into_inner() > 0);
    }

    /// The path a host without a spare core takes: while a flight waits in the helper's
    /// one slot, `hand_over` verifies the next flight on the calling thread, and its ids
    /// are the ones inline verification computes — `None` for the tampered PCBs.
    #[test]
    fn a_full_helper_channel_verifies_on_the_caller() {
        let (_, registry) = nodes_with_registry();
        let verifier = Verifier::new(registry.clone());
        let busy = AtomicU64::new(0);
        let (pipeline, returned) = VerifyAhead::new(&verifier, &busy, 2);
        let (helper, handed) = VerifyAhead::helper_channel();
        pipeline.hand_over(&helper, (0, flight(&registry)));
        assert!(
            returned.try_recv().is_err(),
            "the first flight waits for the helper"
        );
        pipeline.hand_over(&helper, (1, flight(&registry)));
        let (index, verified) = returned.try_recv().expect("verified on the caller");
        assert_eq!(index, 1);
        let inline: Vec<Option<PcbId>> = verified
            .output
            .messages
            .iter()
            .zip(&verified.arrivals)
            .map(|(message, &at)| verify_received(message.to_as, &verifier, &message.pcb, at).ok())
            .collect();
        assert_eq!(verified.ids, inline);
        assert_eq!(
            inline.iter().filter(|id| id.is_none()).count(),
            4,
            "the tampered PCBs"
        );
        assert!(busy.into_inner() > 0);
        let (index, waiting) = handed.try_recv().expect("the helper's slot holds a flight");
        assert_eq!(index, 0);
        assert!(waiting.ids.is_empty(), "left for the helper to verify");
    }

    #[test]
    fn epoch_bound_does_not_lose_events() {
        let (mut nodes, registry) = nodes_with_registry();
        let mut plane = DeliveryPlane::default();
        // More events than one epoch holds, all due at once; sequence numbers keep them
        // distinct beacons (distinct digests), so everything must be delivered.
        let count = (MAX_EPOCH_EVENTS + 100) as u64;
        for seq in 0..count {
            plane.schedule(
                SimTime::from_micros(50),
                message(&registry, 3, seq, 1, false),
            );
        }
        plane.deliver_until(&mut nodes, SimTime::MAX);
        assert_eq!(plane.pending(), 0);
        assert_eq!(plane.stats().delivered, count);
        assert_eq!(nodes[&AsId(1)].ingress().db().len() as u64, count);
    }

    #[test]
    fn both_drain_loops_give_a_burst_its_room_back() {
        let (mut nodes, registry) = nodes_with_registry();
        let mut plane = DeliveryPlane::default();
        let burst = |plane: &mut DeliveryPlane, first: u64| {
            for seq in first..first + 3 * MAX_EPOCH_EVENTS as u64 {
                plane.schedule(
                    SimTime::from_micros(50),
                    message(&registry, 3, seq, 1, false),
                );
            }
            assert!(plane.queue.capacity() >= 3 * MAX_EPOCH_EVENTS);
        };
        burst(&mut plane, 0);
        plane.deliver_until(&mut nodes, SimTime::MAX);
        assert_eq!((plane.pending(), plane.queue.capacity()), (0, 0));

        burst(&mut plane, 1 << 20);
        let mut seqs = Vec::new();
        loop {
            let due = plane.drain_due(SimTime::MAX, MAX_EPOCH_EVENTS);
            if due.is_empty() {
                break;
            }
            seqs.extend(due.iter().map(|(_, seq, _)| *seq));
        }
        assert_eq!((plane.pending(), plane.queue.capacity()), (0, 0));
        let first = 3 * MAX_EPOCH_EVENTS as u64;
        assert!(seqs.iter().copied().eq(first..2 * first));
        assert_eq!(plane.next_seq(), 2 * first);
    }

    #[test]
    fn deliver_until_respects_horizon() {
        let (mut nodes, registry) = nodes_with_registry();
        let mut plane = DeliveryPlane::default();
        plane.schedule(SimTime::from_micros(10), message(&registry, 3, 0, 1, false));
        plane.schedule(
            SimTime::from_micros(500),
            message(&registry, 3, 1, 1, false),
        );
        plane.deliver_until(&mut nodes, SimTime::from_micros(100));
        assert_eq!(plane.stats().delivered, 1);
        assert_eq!(plane.pending(), 1);
    }
}
