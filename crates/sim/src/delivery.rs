//! The parallel message-delivery plane.
//!
//! `Simulation::deliver_until` used to drain the whole event queue on one thread — the last
//! big serial section on the round hot path after the RAC/node phase was parallelized. This
//! module replaces that monolithic drain with **time-epoch scheduling** and a two-stage
//! pipeline per epoch:
//!
//! 1. **Schedule.** Due events are popped from the deterministic [`EventQueue`] in
//!    `(SimTime, seq)` order and collected into a bounded *epoch*. Within the epoch the PCB
//!    messages are partitioned into **per-destination-AS inboxes** (one inbox per receiving
//!    node, in `AsId` order).
//! 2. **Verify (parallel).** The expensive per-message work — signature, expiry and policy
//!    checks via [`IrecNode::verify_message`] — runs over `std::thread::scope` workers, one
//!    inbox per work item, claimed through an atomic cursor exactly like the RAC execution
//!    engine (`irec_core::engine`). Verdicts land in per-event slots indexed by the event's
//!    epoch position, so the merge order is independent of scheduling.
//! 3. **Apply (sharded).** Verdicts are committed through the receiving nodes' ingress
//!    gateways: accepted beacons enter the destination's ingress database, rejects and
//!    missing-destination drops are accounted. With one worker the walk is fully serial in
//!    `(SimTime, seq)` order; with more, a serial accounting pass partitions the epoch's
//!    commits into per-`(destination AS, ingress shard)` inboxes — the ingress database is
//!    sharded by origin-AS hash (`irec_core::ShardedIngressDb`) — and the inboxes commit
//!    concurrently over scoped workers via [`IrecNode::apply_message_in_shard`]. Pull
//!    returns commit the same way: the path service is sharded by **destination-AS** hash
//!    (`irec_core::ShardedPathService`), so the accounting pass partitions them into
//!    per-`(destination AS, path shard)` inboxes committed concurrently via
//!    [`IrecNode::handle_pull_return_in_shard`] instead of serializing in the accounting
//!    pass.
//!
//! **Determinism.** The apply stage preserves `(SimTime, seq)` order *within* each
//! `(node, shard)` inbox, and commits across different inboxes touch disjoint state: the
//! dedup index and the statistics both live in the origin's shard, every beacon of one
//! origin lands in the same shard, and every pull return for one destination lands in the
//! same path shard (registrations for different path-service keys commute observably —
//! the map is key-sorted — and same-key registrations keep epoch order). The verify stage
//! is pure: a verdict depends only on the message, its delivery time, and immutable node
//! state (keys, policy) — never on what other in-flight messages of the same epoch
//! commit. Delivery counters are accounted in the serial pass in epoch order. A run with
//! any `parallelism` value — and any ingress/path shard count — is therefore
//! byte-identical to a sequential run, which `tests/delivery_determinism.rs`,
//! `tests/pd_determinism.rs` and the CI determinism job all enforce.

use crate::event::{Event, EventQueue};
use irec_core::{engine::run_claimed, IrecNode, PcbMessage, PullReturn, Verdict};
use irec_types::{AsId, IfId, LinkId, SimTime};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Hard cap on delivery workers, matching the RAC engine's cap.
pub const MAX_WORKERS: usize = 64;

/// Upper bound on the number of events collected into one epoch, bounding the memory held
/// outside the queue during a large drain (e.g. the final `deliver_until(SimTime::MAX)`
/// flush). Delivery cannot schedule new events, so draining in bounded chunks is exact.
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

/// The message-delivery plane: the deterministic event queue plus the epoch pipeline that
/// drains it. Cloning copies the pending events and accounting, so a cloned simulation
/// snapshot delivers identically.
#[derive(Debug, Clone)]
pub struct DeliveryPlane {
    queue: EventQueue,
    /// Worker threads for the verify stage; `<= 1` verifies inline during the apply walk.
    parallelism: usize,
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

impl Default for DeliveryPlane {
    /// A sequential plane (one verify worker), honouring the same clamp as
    /// [`DeliveryPlane::new`].
    fn default() -> Self {
        DeliveryPlane::new(1)
    }
}

impl DeliveryPlane {
    /// Creates an empty plane with the given verify-stage worker count (clamped to
    /// [`MAX_WORKERS`]).
    pub fn new(parallelism: usize) -> Self {
        DeliveryPlane {
            queue: EventQueue::new(),
            parallelism: parallelism.clamp(1, MAX_WORKERS),
            stats: DeliveryStats::default(),
            down_links: BTreeMap::new(),
            down_endpoints: BTreeSet::new(),
        }
    }

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

    /// Schedules `event` for delivery at time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        self.queue.schedule(at, event);
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

    /// The configured verify-stage worker count.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Pops every event due at or before `until` — at most `max_events` of them — in
    /// `(SimTime, seq)` order, *without* delivering; the caller delivers them and folds
    /// the outcome back via [`DeliveryPlane::add_stats`].
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

    /// [`DeliveryPlane::deliver_until`] with a busy-time probe: every verify, apply and
    /// serial-walk payload unit's execution time accumulates into `busy_nanos`, feeding
    /// the round's idle accounting (see [`crate::SchedulerStats`]).
    pub fn deliver_until_probed(
        &mut self,
        nodes: &mut BTreeMap<AsId, IrecNode>,
        until: SimTime,
        busy_nanos: &AtomicU64,
    ) {
        loop {
            // Epoch collection: due events in (at, seq) order, bounded per pass.
            let mut epoch: Vec<(SimTime, Event)> = Vec::new();
            while epoch.len() < MAX_EPOCH_EVENTS {
                match self.queue.pop_until(until) {
                    Some(entry) => epoch.push(entry),
                    None => break,
                }
            }
            self.queue.release_spare_capacity();
            if epoch.is_empty() {
                return;
            }

            // Verify stage: fan the per-node inboxes out over workers. With one worker the
            // apply walk below verifies inline instead (identical verdicts either way).
            let mut verdicts = if self.parallelism > 1 {
                verify_epoch(
                    nodes,
                    &epoch,
                    &self.down_endpoints,
                    self.parallelism,
                    busy_nanos,
                )
            } else {
                Vec::new()
            };

            if self.parallelism > 1 {
                self.apply_epoch_sharded(nodes, epoch, verdicts, busy_nanos);
                continue;
            }

            // Sequential apply stage: commit in epoch (= delivery) order.
            for (index, (at, event)) in epoch.into_iter().enumerate() {
                let started = Instant::now();
                match event {
                    // The downed-link check precedes the missing-node check in every
                    // delivery path, so the counter split is identical across them.
                    Event::DeliverPcb(message)
                        if self.is_endpoint_down(message.from_as, message.from_if) =>
                    {
                        self.stats.dropped_link_down += 1;
                    }
                    Event::DeliverPcb(message) => match nodes.get_mut(&message.to_as) {
                        Some(node) => {
                            let verdict = verdicts
                                .get_mut(index)
                                .and_then(Option::take)
                                .unwrap_or_else(|| node.verify_message(&message, at));
                            match node.apply_message(message, at, verdict) {
                                Ok(()) => self.stats.delivered += 1,
                                Err(_) => self.stats.rejected += 1,
                            }
                        }
                        // The addressed AS has no node (e.g. removed by failure injection):
                        // the message is lost and must be accounted, not silently discarded.
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
                busy_nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
    }

    /// The sharded apply stage: one serial pass over the epoch in `(SimTime, seq)` order
    /// accounts every outcome (exactly as the sequential walk would) and partitions the
    /// commits into shard inboxes — PCB commits into per-`(destination AS, ingress shard)`
    /// inboxes, pull returns into per-`(destination AS, path shard)` inboxes; all inboxes
    /// then commit concurrently over one scoped worker pool. Each inbox preserves epoch
    /// order internally, and different inboxes touch disjoint node state (the origin's
    /// ingress shard owns the dedup index and stats; the destination's path shard owns the
    /// registrations), so the result is byte-identical to the sequential walk for any
    /// worker count and any shard count.
    ///
    /// Outcome accounting needs no commit result: `IrecNode::apply_message` fails exactly
    /// when the precomputed verdict is an error (duplicates commit as `Ok`), and pull
    /// returns count as delivered whether or not the beacon yields a registrable path, so
    /// delivered/rejected are known in the serial pass.
    fn apply_epoch_sharded(
        &mut self,
        nodes: &mut BTreeMap<AsId, IrecNode>,
        epoch: Vec<(SimTime, Event)>,
        mut verdicts: Vec<Option<Verdict>>,
        busy_nanos: &AtomicU64,
    ) {
        /// One pending PCB commit: delivery time, message, precomputed verdict.
        type Commit = (SimTime, PcbMessage, Verdict);
        /// One pending pull-return registration.
        type ReturnCommit = (SimTime, PullReturn);
        struct ShardInbox<T> {
            asn: AsId,
            shard: usize,
            items: Mutex<Vec<T>>,
        }
        fn into_inboxes<T>(map: BTreeMap<(AsId, usize), Vec<T>>) -> Vec<ShardInbox<T>> {
            map.into_iter()
                .map(|((asn, shard), items)| ShardInbox {
                    asn,
                    shard,
                    items: Mutex::new(items),
                })
                .collect()
        }
        let mut commits: BTreeMap<(AsId, usize), Vec<Commit>> = BTreeMap::new();
        let mut returns: BTreeMap<(AsId, usize), Vec<ReturnCommit>> = BTreeMap::new();
        for (index, (at, event)) in epoch.into_iter().enumerate() {
            match event {
                // Same check order as the sequential walk: downed link before missing
                // node, so the counter split matches byte for byte.
                Event::DeliverPcb(message)
                    if self.is_endpoint_down(message.from_as, message.from_if) =>
                {
                    self.stats.dropped_link_down += 1;
                }
                Event::DeliverPcb(message) => match nodes.get(&message.to_as) {
                    Some(node) => {
                        let verdict = verdicts
                            .get_mut(index)
                            .and_then(Option::take)
                            .unwrap_or_else(|| node.verify_message(&message, at));
                        match verdict {
                            Ok(_) => self.stats.delivered += 1,
                            Err(_) => self.stats.rejected += 1,
                        }
                        let shard = node.ingress_shard_of(message.pcb.origin);
                        commits
                            .entry((message.to_as, shard))
                            .or_default()
                            .push((at, message, verdict));
                    }
                    None => self.stats.dropped_no_node += 1,
                },
                Event::DeliverPullReturn(ret) => match nodes.get(&ret.to_as) {
                    Some(node) => {
                        self.stats.delivered += 1;
                        // The registered path's destination is the AS the return came
                        // from; that AS determines the path-service shard.
                        let shard = node.path_shard_of(ret.from_as);
                        returns
                            .entry((ret.to_as, shard))
                            .or_default()
                            .push((at, ret));
                    }
                    None => self.stats.dropped_no_node += 1,
                },
            }
        }
        if commits.is_empty() && returns.is_empty() {
            return;
        }
        let commits = into_inboxes(commits);
        let returns = into_inboxes(returns);
        let total_inboxes = commits.len() + returns.len();
        let nodes = &*nodes;
        // One claim space over both inbox kinds: PCB-commit inboxes first, then
        // pull-return inboxes.
        run_claimed(
            total_inboxes,
            self.parallelism,
            Some(busy_nanos),
            |claimed| {
                if let Some(inbox) = commits.get(claimed) {
                    let node = nodes
                        .get(&inbox.asn)
                        .expect("inbox destinations checked in the accounting pass");
                    let items = std::mem::take(&mut *inbox.items.lock());
                    for (at, message, verdict) in items {
                        // The outcome was already accounted; the commit mutates only
                        // the shard's dedup index, storage and gateway counters.
                        let _ = node.apply_message_in_shard(inbox.shard, message, at, verdict);
                    }
                } else {
                    let inbox = &returns[claimed - commits.len()];
                    let node = nodes
                        .get(&inbox.asn)
                        .expect("inbox destinations checked in the accounting pass");
                    let items = std::mem::take(&mut *inbox.items.lock());
                    for (at, ret) in items {
                        node.handle_pull_return_in_shard(inbox.shard, ret, at);
                    }
                }
            },
        );
    }
}

/// Runs the parallel verify stage over one epoch: partitions the PCB messages into
/// per-destination-AS inboxes and verifies each inbox on whatever worker claims it,
/// writing verdicts into slots indexed by epoch position.
///
/// Returns one slot per epoch event; `None` for events that need no verification (pull
/// returns, messages to missing nodes).
fn verify_epoch(
    nodes: &BTreeMap<AsId, IrecNode>,
    epoch: &[(SimTime, Event)],
    down_endpoints: &BTreeSet<(AsId, IfId)>,
    parallelism: usize,
    busy_nanos: &AtomicU64,
) -> Vec<Option<Verdict>> {
    // Inboxes in AsId order; each holds the epoch indices addressed to that node.
    // Messages over downed links are skipped: the apply pass drops them unverified.
    let mut by_destination: BTreeMap<AsId, Vec<usize>> = BTreeMap::new();
    for (index, (_, event)) in epoch.iter().enumerate() {
        if let Event::DeliverPcb(message) = event {
            if nodes.contains_key(&message.to_as)
                && !down_endpoints.contains(&(message.from_as, message.from_if))
            {
                by_destination.entry(message.to_as).or_default().push(index);
            }
        }
    }
    if by_destination.is_empty() {
        // Nothing to verify (only pull returns / missing-node messages): skip the slot
        // allocation and worker spawn; the apply walk verifies inline on empty slots.
        return Vec::new();
    }
    let inboxes: Vec<(&IrecNode, Vec<usize>)> = by_destination
        .into_iter()
        .map(|(asn, indices)| (nodes.get(&asn).expect("destination checked above"), indices))
        .collect();

    let slots: Vec<Mutex<Option<Verdict>>> = epoch.iter().map(|_| Mutex::new(None)).collect();
    run_claimed(inboxes.len(), parallelism, Some(busy_nanos), |claimed| {
        let (node, indices) = &inboxes[claimed];
        for &index in indices {
            let (at, event) = &epoch[index];
            let Event::DeliverPcb(message) = event else {
                unreachable!("inboxes hold only PCB deliveries");
            };
            *slots[index].lock() = Some(node.verify_message(message, *at));
        }
    });
    slots.into_iter().map(Mutex::into_inner).collect()
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

    fn run_plane(parallelism: usize) -> (DeliveryStats, Vec<(AsId, usize)>) {
        let (mut nodes, registry) = nodes_with_registry();
        let mut plane = DeliveryPlane::new(parallelism);
        // A mix of valid, tampered and undeliverable messages across several epochs'
        // worth of timestamps. Origin AS5 never receives, so no loop rejections interfere
        // with the tampered-count assertion.
        for seq in 0..20u64 {
            let to = 1 + (seq % 4); // delivered round-robin to AS1..AS4
            let tampered = seq % 5 == 0;
            plane.schedule(
                SimTime::from_micros(100 + seq * 7),
                message(&registry, 5, seq, to, tampered),
            );
        }
        // A message to an AS that has no node.
        plane.schedule(
            SimTime::from_micros(130),
            message(&registry, 5, 100, 99, false),
        );
        plane.deliver_until(&mut nodes, SimTime::MAX);
        let occupancy: Vec<(AsId, usize)> = nodes
            .iter()
            .map(|(asn, node)| (*asn, node.ingress().db().len()))
            .collect();
        (plane.stats(), occupancy)
    }

    #[test]
    fn plane_accounts_outcomes_separately() {
        let (stats, _) = run_plane(1);
        assert_eq!(stats.rejected, 4, "tampered messages rejected");
        assert_eq!(stats.dropped_no_node, 1);
        assert_eq!(stats.delivered, 16);
        assert_eq!(stats.dropped_total(), 5);
    }

    #[test]
    fn parallel_delivery_is_byte_identical_to_sequential() {
        let (sequential_stats, sequential_occupancy) = run_plane(1);
        for parallelism in [2, 4, 8] {
            let (stats, occupancy) = run_plane(parallelism);
            assert_eq!(
                stats, sequential_stats,
                "stats at parallelism {parallelism}"
            );
            assert_eq!(
                occupancy, sequential_occupancy,
                "ingress occupancy at parallelism {parallelism}"
            );
        }
    }

    #[test]
    fn epoch_bound_does_not_lose_events() {
        let (mut nodes, registry) = nodes_with_registry();
        let mut plane = DeliveryPlane::new(2);
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
        let mut plane = DeliveryPlane::new(4);
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
