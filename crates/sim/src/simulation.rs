//! The simulation driver: periodic beaconing over a topology with event-based message
//! delivery.

use crate::delivery::{DeliveryPlane, DeliveryStats};
use crate::event::Event;
use irec_algorithms::incremental::IncrementalStats;
use irec_core::{IrecNode, NodeConfig, RacConfig, RoundOutput, SharedAlgorithmStore};
use irec_crypto::KeyRegistry;
use irec_metrics::overhead::OverheadCounter;
use irec_metrics::RegisteredPath;
use irec_topology::{GroupingConfig, InterfaceGroups, Topology};
use irec_types::{AsId, IrecError, LinkId, Result, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Scheduler-quality accounting, accumulated per round: `idle = workers × round_wall −
/// Σ busy`, where `busy` sums the instrumented payload work (node rounds, verifies,
/// applies) and `workers` is the round pool width (`max(parallelism,
/// delivery_parallelism)`). Serial sections therefore count `workers − 1` idle lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Rounds accounted.
    pub rounds: u64,
    /// Wall-clock nanoseconds spent inside accounted rounds.
    pub wall_nanos: u64,
    /// Worker-nanoseconds spent executing payload work.
    pub busy_nanos: u64,
    /// Worker-nanoseconds not spent executing payload work while a round was in progress.
    pub idle_nanos: u64,
}

impl SchedulerStats {
    /// Folds one round into the totals: `wall_nanos` elapsed on the driving thread with
    /// `workers` nominal lanes, of which `busy_nanos` worker-nanoseconds did payload work.
    pub fn record_round(&mut self, workers: usize, wall_nanos: u64, busy_nanos: u64) {
        self.rounds += 1;
        self.wall_nanos += wall_nanos;
        self.busy_nanos += busy_nanos;
        self.idle_nanos += (workers as u64 * wall_nanos).saturating_sub(busy_nanos);
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimulationConfig {
    /// Interval between beaconing rounds (the paper uses 10 simulated minutes).
    pub beacon_interval: SimDuration,
    /// Fixed per-message processing delay added on top of link propagation.
    pub processing_delay: SimDuration,
    /// Worker threads for the node phase of each round. `1` (the default) runs every node's
    /// beaconing round sequentially; `N > 1` runs them concurrently and merges the round
    /// outputs in `AsId` order before scheduling deliveries, so registered paths, overhead
    /// counters and event order are byte-identical to a sequential run.
    pub parallelism: usize,
    /// Worker threads for the delivery plane's verify stage (see [`crate::delivery`]).
    /// `1` (the default) verifies messages inline during the serial apply walk; `N > 1`
    /// fans per-destination inboxes out over that many workers. Either way the apply order
    /// is `(SimTime, seq)` and the simulation output is byte-identical.
    pub delivery_parallelism: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            beacon_interval: SimDuration::from_minutes(10),
            processing_delay: SimDuration::from_millis(5),
            parallelism: 1,
            delivery_parallelism: 1,
        }
    }
}

impl SimulationConfig {
    /// Builder-style: set the node-phase worker count (clamped to at least 1).
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Builder-style: set the delivery plane's verify-stage worker count (clamped to at
    /// least 1).
    #[must_use]
    pub fn with_delivery_parallelism(mut self, delivery_parallelism: usize) -> Self {
        self.delivery_parallelism = delivery_parallelism.max(1);
        self
    }
}

/// The discrete-event simulation of an IREC deployment.
pub struct Simulation {
    topology: Arc<Topology>,
    config: SimulationConfig,
    nodes: BTreeMap<AsId, IrecNode>,
    plane: DeliveryPlane,
    clock: SimTime,
    round: u64,
    overhead: OverheadCounter,
    overhead_pull: OverheadCounter,
    /// Scheduler-quality accounting (wall/busy/idle). Deliberately *not* part of the
    /// simulation's deterministic output: it measures the host machine, not the model.
    scheduler: SchedulerStats,
    /// The shared control-plane PKI, retained so [`Simulation::add_node`] can build nodes
    /// mid-run (the registry handle is a cheap `Arc` clone; registration is idempotent).
    registry: KeyRegistry,
    /// The shared on-demand algorithm store, retained for the same reason.
    store: SharedAlgorithmStore,
}

impl Clone for Simulation {
    /// Snapshots the whole simulation: every node's databases, path services, RAC caches
    /// and counters, the in-flight event queue, the clock and the overhead accounting are
    /// deep-copied, so the clone evolves independently and deterministically from the
    /// moment of the snapshot. The topology, the control-plane PKI and the on-demand
    /// algorithm store stay shared (the first two are immutable after setup; the store is
    /// an append-only registry whose publishers must use distinct algorithm ids across
    /// concurrently-running clones — see [`crate::pd::PdCampaign`]).
    ///
    /// This is what powers the parallel PD campaign: each `(origin, target)` pair runs its
    /// pull workflow on its own clone of the warmed-up base simulation.
    fn clone(&self) -> Self {
        Simulation {
            topology: Arc::clone(&self.topology),
            config: self.config,
            nodes: self.nodes.clone(),
            plane: self.plane.clone(),
            clock: self.clock,
            round: self.round,
            overhead: self.overhead.clone(),
            overhead_pull: self.overhead_pull.clone(),
            scheduler: self.scheduler,
            registry: self.registry.clone(),
            store: self.store.clone(),
        }
    }
}

/// A structurally shared copy-on-write snapshot of a [`Simulation`].
///
/// Produced by [`Simulation::snapshot`] / [`Simulation::snapshot_reachable_from`]: every
/// node's ingress database and path service are shared with the base simulation (two
/// reference-count bumps per node instead of deep map copies), and each is materialized
/// lazily, only when the snapshot — or the base — first writes to it. The
/// remaining per-pair state (event queue, counters, RAC caches) is copied eagerly; it is
/// small compared to the beacon and path maps.
///
/// The snapshot wraps a full [`Simulation`] and dereferences to it, so everything that
/// works on a simulation — `run_rounds`, `node_mut`, the PD workflow — works on a
/// snapshot. The base simulation is never observably affected by anything the snapshot
/// does (and vice versa): whichever side writes to a shared store first pays for its own
/// private copy of just that store. This is what makes the all-pairs PD campaign's
/// per-pair setup nearly free (see [`crate::pd::PdCampaign`]).
pub struct SimSnapshot {
    sim: Simulation,
}

impl SimSnapshot {
    /// Consumes the snapshot, yielding the underlying simulation.
    pub fn into_simulation(self) -> Simulation {
        self.sim
    }
}

impl std::ops::Deref for SimSnapshot {
    type Target = Simulation;
    fn deref(&self) -> &Simulation {
        &self.sim
    }
}

impl std::ops::DerefMut for SimSnapshot {
    fn deref_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }
}

impl Simulation {
    /// Builds a simulation with one node per AS, configured by `node_config`.
    pub fn new(
        topology: Arc<Topology>,
        config: SimulationConfig,
        node_config: impl Fn(AsId) -> NodeConfig,
    ) -> Result<Self> {
        let registry = KeyRegistry::with_ases(42, topology.num_ases() as u64 + 1);
        // Make sure every AS id present in the topology has a key (ids may be sparse).
        for asn in topology.as_ids() {
            registry.register(asn);
        }
        let store = SharedAlgorithmStore::new();
        let mut nodes = BTreeMap::new();
        let mut overhead = OverheadCounter::new();
        for asn in topology.as_ids() {
            let node = IrecNode::new(
                asn,
                node_config(asn),
                Arc::clone(&topology),
                registry.clone(),
                store.clone(),
            )?;
            for ifid in topology.as_node(asn)?.interfaces.keys() {
                overhead.register_interface(asn, *ifid);
            }
            nodes.insert(asn, node);
        }
        Ok(Simulation {
            topology,
            config,
            nodes,
            plane: DeliveryPlane::new(config.delivery_parallelism),
            clock: SimTime::ZERO,
            round: 0,
            overhead,
            overhead_pull: OverheadCounter::new(),
            scheduler: SchedulerStats::default(),
            registry,
            store,
        })
    }

    /// Sum of every live node's [`irec_core::SelectionTables`] counters, in `AsId` order:
    /// how many `(RAC, batch)` selections the rounds so far reused, extended over their
    /// arrivals or recomputed from scratch — `refused` of them after the algorithm declined
    /// a re-selection — and how many kept selections catalog swaps dropped. Like [`SchedulerStats`], this is reporting about how the run
    /// executed, not part of the deterministic output.
    pub fn incremental_stats(&self) -> IncrementalStats {
        let mut stats = IncrementalStats::default();
        for node in self.nodes.values() {
            stats.accumulate(node.incremental_stats());
        }
        stats
    }

    /// The simulated topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of completed beaconing rounds.
    pub fn rounds_run(&self) -> u64 {
        self.round
    }

    /// Number of control-plane messages delivered so far.
    pub fn delivered_messages(&self) -> u64 {
        self.plane.stats().delivered
    }

    /// Number of messages lost, for any reason: the sum of
    /// [`Simulation::dropped_no_node`] and [`Simulation::rejected_messages`]. Kept as the
    /// legacy aggregate; the split counters answer the more precise questions.
    pub fn dropped_messages(&self) -> u64 {
        self.plane.stats().dropped_total()
    }

    /// Number of messages addressed to an AS that has no node (e.g. one removed by failure
    /// injection).
    pub fn dropped_no_node(&self) -> u64 {
        self.plane.stats().dropped_no_node
    }

    /// Number of PCB messages rejected by the receiving ingress gateway (signature, expiry
    /// or policy failures).
    pub fn rejected_messages(&self) -> u64 {
        self.plane.stats().rejected
    }

    /// The full delivery accounting of the message plane.
    pub fn delivery_stats(&self) -> DeliveryStats {
        self.plane.stats()
    }

    /// Immutable access to a node.
    pub fn node(&self, asn: AsId) -> Result<&IrecNode> {
        self.nodes
            .get(&asn)
            .ok_or_else(|| IrecError::not_found(format!("no node for {asn}")))
    }

    /// Mutable access to a node (used by the PD workflow to add originations).
    pub fn node_mut(&mut self, asn: AsId) -> Result<&mut IrecNode> {
        self.nodes
            .get_mut(&asn)
            .ok_or_else(|| IrecError::not_found(format!("no node for {asn}")))
    }

    /// A structurally shared copy-on-write snapshot of the whole simulation: two pointer
    /// copies per node instead of the deep per-node map copies [`Clone`] performs. Each
    /// store is materialized lazily on first write — by either side — so the base and
    /// the snapshot can never observe each other's subsequent mutations (see
    /// [`SimSnapshot`]).
    ///
    /// ```
    /// use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
    /// use irec_sim::{Simulation, SimulationConfig};
    /// use irec_topology::builder::figure1_topology;
    /// use std::sync::Arc;
    ///
    /// let mut base = Simulation::new(
    ///     Arc::new(figure1_topology()),
    ///     SimulationConfig::default(),
    ///     |_| {
    ///         NodeConfig::default()
    ///             .with_policy(PropagationPolicy::All)
    ///             .with_racs(vec![RacConfig::static_rac("1SP", "1SP")])
    ///     },
    /// ).unwrap();
    /// base.run_rounds(3).unwrap();
    ///
    /// // Snapshot setup is O(nodes) pointer copies; the snapshot then evolves
    /// // independently — the base never observes its rounds.
    /// let mut snap = base.snapshot();
    /// snap.run_rounds(2).unwrap();
    /// assert_eq!(snap.rounds_run(), base.rounds_run() + 2);
    /// assert_eq!(base.rounds_run(), 3);
    /// ```
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            sim: self.cow_snapshot(None),
        }
    }

    /// Like [`Simulation::snapshot`], but restricted to the ASes in `origin`'s connected
    /// component of the topology: nodes outside it are left out of the snapshot entirely,
    /// so their beaconing rounds are never run and their databases never copied.
    ///
    /// Excluded ASes have no link path to the origin, so no beacon, pull return or path
    /// registration can cross between them and the origin's component — the origin's
    /// observable workflow output (discovered paths, iteration counts, pull overhead) is
    /// identical to a full snapshot, as long as the base simulation carries no pull-based
    /// originations outside the origin's component (delivery *statistics* may differ:
    /// in-flight events addressed to excluded ASes count as dropped). The PD campaign
    /// satisfies that precondition by construction — pull beacons are injected only by the
    /// per-pair workflows themselves — and `tests/pd_determinism.rs` pins the equivalence
    /// on a disconnected topology.
    pub fn snapshot_reachable_from(&self, origin: AsId) -> SimSnapshot {
        let component = self.reachable_component(origin);
        SimSnapshot {
            sim: self.cow_snapshot(Some(&component)),
        }
    }

    /// The ASes in `origin`'s connected component of the (undirected) topology, origin
    /// included — the node set a pull workflow rooted at `origin` can possibly traverse.
    /// Export policies can only shrink what beacons actually reach, never extend it.
    pub fn reachable_component(&self, origin: AsId) -> BTreeSet<AsId> {
        let mut component = BTreeSet::new();
        if !self.nodes.contains_key(&origin) {
            return component;
        }
        component.insert(origin);
        let mut frontier = VecDeque::from([origin]);
        while let Some(asn) = frontier.pop_front() {
            // `for_each_neighbor` may repeat a neighbor (parallel links); the visited set
            // dedups. Only ASes that still have a live node participate (failure
            // injection may have removed some); links to removed ASes dead-end.
            self.topology.for_each_neighbor(asn, |neighbor| {
                if self.nodes.contains_key(&neighbor) && component.insert(neighbor) {
                    frontier.push_back(neighbor);
                }
            });
        }
        component
    }

    /// The shared COW-snapshot core: per-node [`IrecNode::cow_clone`] over the kept node
    /// set, eager copies of the small simulation-level state.
    fn cow_snapshot(&self, keep: Option<&BTreeSet<AsId>>) -> Simulation {
        Simulation {
            topology: Arc::clone(&self.topology),
            config: self.config,
            nodes: self
                .nodes
                .iter()
                .filter(|(asn, _)| keep.is_none_or(|k| k.contains(asn)))
                .map(|(asn, node)| (*asn, node.cow_clone()))
                .collect(),
            plane: self.plane.clone(),
            clock: self.clock,
            round: self.round,
            overhead: self.overhead.clone(),
            overhead_pull: self.overhead_pull.clone(),
            scheduler: self.scheduler,
            registry: self.registry.clone(),
            store: self.store.clone(),
        }
    }

    /// Configures geographic interface groups (§IV-D) for every AS, as used by the DOB
    /// configurations of the paper's evaluation.
    pub fn set_geographic_interface_groups(&mut self, grouping: GroupingConfig) -> Result<()> {
        for (asn, node) in self.nodes.iter_mut() {
            let as_node = self.topology.as_node(*asn)?;
            node.set_interface_groups(Some(InterfaceGroups::by_geography(as_node, grouping)));
        }
        Ok(())
    }

    /// Removes interface-group origination from every AS (plain origination).
    pub fn clear_interface_groups(&mut self) {
        for node in self.nodes.values_mut() {
            node.set_interface_groups(None);
        }
    }

    /// The overall per-interface-per-period PCB overhead counter (Fig. 8c).
    pub fn overhead(&self) -> &OverheadCounter {
        &self.overhead
    }

    /// Overhead restricted to pull-based beacons (the PD series of Fig. 8c).
    pub fn overhead_pull(&self) -> &OverheadCounter {
        &self.overhead_pull
    }

    /// The width of the round's worker pool, for the idle accounting: the larger of the
    /// node-phase and delivery worker counts.
    fn round_pool_width(&self) -> usize {
        self.config
            .parallelism
            .max(self.config.delivery_parallelism)
            .clamp(1, crate::delivery::MAX_WORKERS)
    }

    /// Scheduler-quality accounting accumulated over the rounds run so far (see
    /// [`SchedulerStats`]). Not part of the deterministic simulation output.
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler
    }

    /// Runs `n` beaconing rounds.
    pub fn run_rounds(&mut self, n: usize) -> Result<()> {
        for _ in 0..n {
            self.run_single_round()?;
        }
        // Deliver whatever is still in flight so the final round's beacons are visible in the
        // receivers' databases (and path services at the next query).
        self.plane.deliver_until(&mut self.nodes, SimTime::MAX);
        Ok(())
    }

    /// One beaconing round as three strict phases: deliver what is due, run every node's
    /// round, account and schedule the outputs in `AsId` order.
    fn run_single_round(&mut self) -> Result<()> {
        let wall = Instant::now();
        let busy = AtomicU64::new(0);
        let now = SimTime::from_micros(self.round * self.config.beacon_interval.as_micros());
        self.clock = now;
        // Deliver everything that arrived before this round started.
        self.plane.deliver_until_probed(&mut self.nodes, now, &busy);

        // Node phase: every AS runs its beaconing round. Nodes only touch their own state
        // here (messages are exchanged through the event queue afterwards), so the rounds
        // are independent and can run concurrently; the outputs are accounted and scheduled
        // in `AsId` order either way, which keeps the two modes byte-identical.
        let workers = self.config.parallelism.min(self.nodes.len()).max(1);
        if workers <= 1 {
            // Stream node by node: a failing node aborts the round before any later node
            // has run, so no node state mutates without its output being accounted.
            let as_ids: Vec<AsId> = self.nodes.keys().copied().collect();
            for asn in as_ids {
                let output = {
                    let node = self.nodes.get_mut(&asn).expect("node exists");
                    let started = Instant::now();
                    let output = node.beaconing_round(now);
                    busy.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    output?
                };
                self.account_and_schedule(now, output);
            }
        } else {
            // All nodes have necessarily executed by the time results are merged; surface
            // the first error in AsId order and account every output before it (outputs of
            // nodes after a failing one are discarded — an error aborts the run anyway).
            for (_, result) in self.run_node_phase_parallel(now, workers, &busy) {
                let output = result?;
                self.account_and_schedule(now, output);
            }
        }
        self.round += 1;
        self.scheduler.record_round(
            self.round_pool_width(),
            wall.elapsed().as_nanos() as u64,
            busy.into_inner(),
        );
        Ok(())
    }

    /// Records one node's round output in the overhead counters and schedules its message
    /// deliveries.
    fn account_and_schedule(&mut self, now: SimTime, output: RoundOutput) {
        for message in &output.messages {
            self.overhead
                .record(message.from_as, message.from_if, self.round, 1);
            if message.pcb.extensions.target().is_some() {
                self.overhead_pull
                    .record(message.from_as, message.from_if, self.round, 1);
            }
        }
        for message in output.messages {
            let delay = self
                .topology
                .link_at(message.from_as, message.from_if)
                .map(|l| l.metrics.latency)
                .unwrap_or_default();
            let at =
                now + SimDuration::from_micros(delay.as_micros()) + self.config.processing_delay;
            self.plane.schedule(at, Event::DeliverPcb(message));
        }
        for ret in output.pull_returns {
            // The return travels over the discovered path itself.
            let delay = ret.pcb.path_metrics().latency;
            let at =
                now + SimDuration::from_micros(delay.as_micros()) + self.config.processing_delay;
            self.plane.schedule(at, Event::DeliverPullReturn(ret));
        }
    }

    /// Runs every node's beaconing round over `workers` scoped worker threads and returns
    /// the outputs in `AsId` order. Per-node execution time accumulates into `busy_nanos`
    /// for the scheduler's idle accounting.
    fn run_node_phase_parallel(
        &mut self,
        now: SimTime,
        workers: usize,
        busy_nanos: &AtomicU64,
    ) -> Vec<(AsId, Result<RoundOutput>)> {
        let mut entries: Vec<(AsId, &mut IrecNode)> = self
            .nodes
            .iter_mut()
            .map(|(asn, node)| (*asn, node))
            .collect();
        let chunk_size = entries.len().div_ceil(workers);
        let mut collected: Vec<(AsId, Result<RoundOutput>)> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for chunk in entries.chunks_mut(chunk_size) {
                handles.push(scope.spawn(move || {
                    chunk
                        .iter_mut()
                        .map(|(asn, node)| {
                            let started = Instant::now();
                            let result = node.beaconing_round(now);
                            busy_nanos
                                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            (*asn, result)
                        })
                        .collect::<Vec<_>>()
                }));
            }
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("node-phase worker panicked"))
                .collect()
        });
        // Chunks preserve the BTreeMap's AsId order, but make the merge order explicit
        // rather than implied by chunk concatenation.
        collected.sort_by_key(|(asn, _)| *asn);
        collected
    }

    /// Removes an AS's node from the simulation (failure injection: the AS goes offline).
    /// Every queued event addressed to it is purged immediately and counted as
    /// `dropped_no_node` — so a later [`Simulation::add_node`] of the same `AsId` cannot
    /// receive stale pre-removal messages, and the accounting totals are identical to
    /// letting those events surface at their delivery times. Returns the removed node, or
    /// `None` if the AS had no node.
    pub fn remove_node(&mut self, asn: AsId) -> Option<IrecNode> {
        let node = self.nodes.remove(&asn)?;
        self.plane.purge_addressed_to(asn);
        Some(node)
    }

    /// Adds a node for `asn` mid-run — the dual of [`Simulation::remove_node`], used by
    /// the churn engine's `NodeJoin` delta. The AS must exist in the topology (links are
    /// immutable; a re-joining AS comes back with its original interfaces) and must not
    /// currently have a node. The new node starts from an empty state: messages in flight
    /// towards the AS while it was down are purged and counted as `dropped_no_node` (a
    /// node cannot receive traffic sent before it existed), its control-plane key is
    /// (re-)registered, and its interfaces are (re-)registered with the overhead counter —
    /// both registrations are idempotent, so remove → add round-trips keep exact
    /// accounting.
    pub fn add_node(&mut self, asn: AsId, config: NodeConfig) -> Result<()> {
        if self.nodes.contains_key(&asn) {
            return Err(IrecError::config(format!("{asn} already has a node")));
        }
        let as_node = self.topology.as_node(asn)?;
        self.registry.register(asn);
        let node = IrecNode::new(
            asn,
            config,
            Arc::clone(&self.topology),
            self.registry.clone(),
            self.store.clone(),
        )?;
        for ifid in as_node.interfaces.keys() {
            self.overhead.register_interface(asn, *ifid);
        }
        // Purge anything addressed to the AS while it had no node: those messages were
        // sent to a dead AS and must not materialize in the newcomer's ingress.
        self.plane.purge_addressed_to(asn);
        // Neighbor-side rewiring: the neighbors' egress-dedup databases still remember
        // sends to the node that left, but the newcomer starts empty — reset their marks
        // for the interfaces facing this AS so steady-state selections are re-propagated
        // and the rejoined node relearns the control plane instead of staying blind until
        // the pre-leave beacons expire.
        for link_id in self.topology.links_of(asn) {
            let link = self.topology.link(link_id)?;
            let neighbor = if link.a.asn == asn { link.b } else { link.a };
            if let Some(node) = self.nodes.get_mut(&neighbor.asn) {
                node.forget_egress(neighbor.interface);
            }
        }
        self.nodes.insert(asn, node);
        Ok(())
    }

    /// Whether `asn` currently has a live node.
    pub fn has_node(&self, asn: AsId) -> bool {
        self.nodes.contains_key(&asn)
    }

    /// The ASes that currently have a live node, in `AsId` order.
    pub fn live_ases(&self) -> Vec<AsId> {
        self.nodes.keys().copied().collect()
    }

    /// The live nodes, in `AsId` order.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = (AsId, &IrecNode)> {
        self.nodes.iter().map(|(&asn, node)| (asn, node))
    }

    /// Number of events still pending in the delivery plane's queue.
    pub fn pending_events(&self) -> usize {
        self.plane.pending()
    }

    /// Number of PCBs dropped at delivery time because their emitting link endpoint was
    /// administratively down (see [`Simulation::set_link_down`]).
    pub fn dropped_link_down(&self) -> u64 {
        self.plane.stats().dropped_link_down
    }

    /// Marks a topology link as down: from now on, any PCB emitted over either of its
    /// endpoints is dropped at delivery time and counted in
    /// [`Simulation::dropped_link_down`]. The topology itself stays immutable — nodes keep
    /// originating and propagating over the interface; the delivery plane absorbs the
    /// traffic, which is exactly how a silently failed link behaves. Pull returns travel
    /// the discovered path as one event and are not affected (path-level failure injection
    /// is node removal). Idempotent.
    pub fn set_link_down(&mut self, link: LinkId) -> Result<()> {
        let l = self.topology.link(link)?;
        let endpoints = [(l.a.asn, l.a.interface), (l.b.asn, l.b.interface)];
        self.plane.set_link_down(link, endpoints);
        Ok(())
    }

    /// Brings a downed link back up. A no-op for links that are not down.
    pub fn set_link_up(&mut self, link: LinkId) -> Result<()> {
        // Resolve the id even though the plane keeps the endpoints, so an unknown link id
        // errors instead of silently doing nothing.
        self.topology.link(link)?;
        self.plane.set_link_up(link);
        Ok(())
    }

    /// Replaces one node's RAC catalog live (see [`IrecNode::swap_rac_catalog`]; the
    /// node's kept selections go with the catalog they were made under).
    pub fn swap_rac_catalog(&mut self, asn: AsId, catalog: Vec<RacConfig>) -> Result<()> {
        self.node_mut(asn)?.swap_rac_catalog(catalog)
    }

    /// Whether `link` is currently marked down.
    pub fn is_link_down(&self, link: LinkId) -> bool {
        self.plane.is_link_down(link)
    }

    /// Withdraws from every node's ingress database the beacons whose recorded hops
    /// traverse either endpoint of `link`, returning the withdrawn count. This is the
    /// protocol reaction to a link going down (the churn engine runs it right after
    /// [`Simulation::set_link_down`]): steady-state RAC selections re-pick the oldest
    /// stored digests and the egress dedup suppresses their re-propagation, so without the
    /// sweep a plane whose stale winners traverse the downed link can stay blackholed
    /// forever — the sweep shifts selection to surviving detour candidates instead.
    pub fn withdraw_traversing_link(&mut self, link: LinkId) -> Result<u64> {
        let l = self.topology.link(link)?;
        let endpoints = [(l.a.asn, l.a.interface), (l.b.asn, l.b.interface)];
        let mut withdrawn = 0u64;
        for node in self.nodes.values() {
            withdrawn += node.ingress().db().purge_where(|stored| {
                stored.pcb.entries.iter().any(|entry| {
                    endpoints.iter().any(|&(asn, ifid)| {
                        entry.hop.asn == asn
                            && (entry.hop.ingress == ifid || entry.hop.egress == ifid)
                    })
                })
            }) as u64;
        }
        Ok(withdrawn)
    }

    /// Withdraws from every node's ingress database the beacons whose recorded hops
    /// traverse `asn`, returning the withdrawn count — the node-departure dual of
    /// [`Simulation::withdraw_traversing_link`], run by the churn engine right after
    /// [`Simulation::remove_node`].
    pub fn withdraw_traversing_as(&mut self, asn: AsId) -> u64 {
        self.nodes
            .values()
            .map(|node| {
                node.ingress()
                    .db()
                    .purge_where(|stored| stored.pcb.entries.iter().any(|e| e.hop.asn == asn))
                    as u64
            })
            .sum()
    }

    /// Whether `(asn, ifid)` is an endpoint of a downed link. Both endpoints of a downed
    /// link are down, so testing whichever side a path record stores is sufficient.
    pub fn is_endpoint_down(&self, asn: AsId, ifid: irec_types::IfId) -> bool {
        self.plane.is_endpoint_down(asn, ifid)
    }

    /// The links currently marked down, in `LinkId` order.
    pub fn downed_links(&self) -> Vec<LinkId> {
        self.plane.downed_links()
    }

    /// All registered paths across every node, converted to the evaluation record type.
    pub fn registered_paths(&self) -> Vec<RegisteredPath> {
        let mut out = Vec::new();
        for (asn, node) in &self.nodes {
            for p in node.path_service().all() {
                out.push(RegisteredPath {
                    holder: *asn,
                    origin: p.destination,
                    algorithm: p.algorithm,
                    group: p.group,
                    origin_interface: p.destination_interface,
                    holder_interface: p.local_interface,
                    metrics: p.metrics,
                    links: p.links,
                });
            }
        }
        out
    }

    /// Registered paths selected by a specific algorithm (RAC name).
    pub fn registered_paths_by(&self, algorithm: &str) -> Vec<RegisteredPath> {
        self.registered_paths()
            .into_iter()
            .filter(|p| p.algorithm == algorithm)
            .collect()
    }

    /// Total ingress-database occupancy across all nodes: beacons stored **and still valid**
    /// at the current simulated time. Built on [`irec_core::ShardedIngressDb::live_len`] so
    /// the figure does not overcount expired-but-unevicted beacons between eviction sweeps.
    pub fn ingress_occupancy(&self) -> usize {
        self.nodes
            .values()
            .map(|node| node.ingress().live_beacons(self.clock))
            .sum()
    }

    /// What the ingress and egress dedup databases of all nodes hold, in bytes (see
    /// [`irec_core::StoreBytes`]). One ledger over the whole plane: a hop chain the
    /// receivers of a fanned-out beacon share is counted once, as it is held once.
    pub fn store_bytes(&self) -> irec_core::StoreBytes {
        let mut ledger = irec_core::StoreLedger::default();
        for node in self.nodes.values() {
            ledger.add(node.ingress().db());
            ledger.add_egress(node.egress().db());
        }
        ledger.bytes()
    }

    /// Fraction of ordered AS pairs `(a, b)` for which `a` has at least one registered path
    /// towards `b`. A value of 1.0 means full control-plane connectivity.
    pub fn connectivity(&self) -> f64 {
        let n = self.nodes.len();
        if n < 2 {
            return 1.0;
        }
        let mut reachable = 0usize;
        for (asn, node) in &self.nodes {
            let destinations = node.path_service().destinations();
            reachable += destinations.iter().filter(|d| *d != asn).count();
        }
        reachable as f64 / (n * (n - 1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irec_core::{PropagationPolicy, RacConfig};
    use irec_topology::builder::{figure1, figure1_topology};
    use irec_topology::{GeneratorConfig, TopologyGenerator};

    fn figure1_sim(racs: Vec<RacConfig>) -> Simulation {
        let topology = Arc::new(figure1_topology());
        Simulation::new(topology, SimulationConfig::default(), move |_| {
            NodeConfig::default()
                .with_policy(PropagationPolicy::All)
                .with_racs(racs.clone())
        })
        .unwrap()
    }

    #[test]
    fn beacons_reach_every_as_after_enough_rounds() {
        let mut sim = figure1_sim(vec![RacConfig::static_rac("5SP", "5SP")]);
        sim.run_rounds(6).unwrap();
        assert_eq!(sim.rounds_run(), 6);
        assert!(sim.delivered_messages() > 0);
        // Every AS should know at least one path to every other AS.
        assert!(
            (sim.connectivity() - 1.0).abs() < f64::EPSILON,
            "connectivity {}",
            sim.connectivity()
        );
    }

    #[test]
    fn shortest_path_rac_finds_the_two_hop_path() {
        let mut sim = figure1_sim(vec![RacConfig::static_rac("1SP", "1SP")]);
        sim.run_rounds(6).unwrap();
        let src = sim.node(figure1::SRC).unwrap();
        let paths = src.path_service().paths_to(figure1::DST);
        assert!(!paths.is_empty());
        let best_hops = paths.iter().map(|p| p.metrics.hops).min().unwrap();
        assert_eq!(best_hops, 2, "Src-X-Dst is two hops");
    }

    #[test]
    fn widest_rac_finds_the_high_bandwidth_detour() {
        let mut sim = figure1_sim(vec![
            RacConfig::static_rac("1SP", "1SP"),
            RacConfig::static_rac("widest", "widest"),
        ]);
        sim.run_rounds(6).unwrap();
        let src = sim.node(figure1::SRC).unwrap();
        let widest = src.path_service().paths_to_by(figure1::DST, "widest");
        assert!(!widest.is_empty());
        let best_bw = widest.iter().map(|p| p.metrics.bandwidth).max().unwrap();
        // The Src-Y-Z-Dst detour is gigabit; the bottleneck ends up being the Src-Y link.
        assert!(best_bw >= irec_types::Bandwidth::from_mbps(100));
        // The widest RAC never does worse on bandwidth than the shortest-path RAC.
        let sp = src.path_service().paths_to_by(figure1::DST, "1SP");
        let sp_bw = sp.iter().map(|p| p.metrics.bandwidth).max().unwrap();
        assert!(best_bw >= sp_bw);
    }

    #[test]
    fn overhead_counters_accumulate_per_period() {
        let mut sim = figure1_sim(vec![RacConfig::static_rac("5SP", "5SP")]);
        sim.run_rounds(3).unwrap();
        assert!(sim.overhead().total() > 0);
        // No pull-based beacons in this setup.
        assert_eq!(sim.overhead_pull().total(), 0);
        // Samples include silent interface-periods.
        assert!(sim.overhead().samples().len() >= sim.overhead().active_cells());
    }

    #[test]
    fn generated_topology_converges_with_valley_free_policy() {
        let topology = Arc::new(TopologyGenerator::new(GeneratorConfig::tiny(3)).generate());
        let mut sim = Simulation::new(topology, SimulationConfig::default(), |_| {
            NodeConfig::default().with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
        })
        .unwrap();
        sim.run_rounds(8).unwrap();
        // Valley-free propagation on a tiered topology still reaches most AS pairs.
        assert!(
            sim.connectivity() > 0.8,
            "connectivity only {}",
            sim.connectivity()
        );
    }

    #[test]
    fn registered_paths_conversion_is_consistent() {
        let mut sim = figure1_sim(vec![RacConfig::static_rac("1SP", "1SP")]);
        sim.run_rounds(5).unwrap();
        let paths = sim.registered_paths();
        assert!(!paths.is_empty());
        for p in &paths {
            assert_ne!(p.holder, p.origin);
            assert_eq!(p.links.len() as u32, p.metrics.hops);
            assert_eq!(p.algorithm, "1SP");
        }
        assert_eq!(sim.registered_paths_by("1SP").len(), paths.len());
        assert!(sim.registered_paths_by("nonexistent").is_empty());
    }

    #[test]
    fn delivery_parallelism_preserves_simulation_output() {
        let run = |delivery_parallelism: usize| {
            let topology = Arc::new(figure1_topology());
            let mut sim = Simulation::new(
                topology,
                SimulationConfig::default().with_delivery_parallelism(delivery_parallelism),
                |_| {
                    NodeConfig::default()
                        .with_policy(PropagationPolicy::All)
                        .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
                },
            )
            .unwrap();
            sim.run_rounds(5).unwrap();
            (
                sim.registered_paths(),
                sim.delivery_stats(),
                sim.ingress_occupancy(),
            )
        };
        let (paths, stats, occupancy) = run(1);
        assert!(stats.delivered > 0);
        assert_eq!(
            stats.dropped_total(),
            stats.dropped_no_node + stats.dropped_link_down + stats.rejected
        );
        for parallelism in [2, 4] {
            let (p_paths, p_stats, p_occupancy) = run(parallelism);
            assert_eq!(p_paths, paths);
            assert_eq!(p_stats, stats);
            assert_eq!(p_occupancy, occupancy);
        }
    }

    #[test]
    fn node_failure_is_width_independent() {
        let run = |parallelism: usize, delivery: usize| {
            let topology = Arc::new(figure1_topology());
            let mut sim = Simulation::new(
                topology,
                SimulationConfig::default()
                    .with_parallelism(parallelism)
                    .with_delivery_parallelism(delivery),
                |_| {
                    NodeConfig::default()
                        .with_policy(PropagationPolicy::All)
                        .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
                },
            )
            .unwrap();
            sim.run_rounds(3).unwrap();
            // Fail an AS mid-run: in-flight messages to it must drop identically.
            sim.remove_node(figure1::X);
            sim.run_rounds(2).unwrap();
            (
                sim.registered_paths(),
                sim.delivery_stats(),
                sim.ingress_occupancy(),
                sim.overhead().samples(),
            )
        };
        let reference = run(1, 1);
        assert!(reference.1.delivered > 0);
        assert!(reference.1.dropped_no_node > 0);
        for (parallelism, delivery) in [(2, 4), (4, 2), (8, 8)] {
            let parallel = run(parallelism, delivery);
            assert_eq!(parallel.0, reference.0, "paths at {parallelism}x{delivery}");
            assert_eq!(parallel.1, reference.1, "stats at {parallelism}x{delivery}");
            assert_eq!(
                parallel.2, reference.2,
                "occupancy at {parallelism}x{delivery}"
            );
            assert_eq!(
                parallel.3, reference.3,
                "overhead at {parallelism}x{delivery}"
            );
        }
    }

    #[test]
    fn idle_is_wall_minus_busy_over_the_pool() {
        let mut stats = SchedulerStats::default();
        stats.record_round(4, 1_000, 2_500);
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.idle_nanos, 4 * 1_000 - 2_500);
        // Busy exceeding workers × wall (clock skew across cores) saturates to zero idle.
        stats.record_round(1, 100, 1_000);
        assert_eq!(stats.idle_nanos, 4 * 1_000 - 2_500);
        assert_eq!(stats.wall_nanos, 1_100);
    }

    #[test]
    fn removed_node_losses_count_as_dropped_no_node() {
        let mut sim = figure1_sim(vec![RacConfig::static_rac("5SP", "5SP")]);
        sim.run_rounds(2).unwrap();
        // Remove an AS with in-flight state and keep beaconing: messages addressed to it
        // surface in the no-node counter, not the reject counter.
        sim.remove_node(figure1::X);
        sim.run_rounds(2).unwrap();
        assert!(sim.dropped_no_node() > 0);
        assert_eq!(
            sim.dropped_messages(),
            sim.dropped_no_node() + sim.rejected_messages()
        );
    }

    #[test]
    fn add_node_rejects_duplicates_and_unknown_ases() {
        let mut sim = figure1_sim(vec![RacConfig::static_rac("1SP", "1SP")]);
        let config = NodeConfig::default()
            .with_policy(PropagationPolicy::All)
            .with_racs(vec![RacConfig::static_rac("1SP", "1SP")]);
        assert!(sim.add_node(figure1::X, config.clone()).is_err());
        assert!(sim.add_node(AsId(999), config.clone()).is_err());
        sim.remove_node(figure1::X).unwrap();
        assert!(!sim.has_node(figure1::X));
        sim.add_node(figure1::X, config).unwrap();
        assert!(sim.has_node(figure1::X));
        // The re-added node starts empty.
        assert!(sim
            .node(figure1::X)
            .unwrap()
            .path_service()
            .all()
            .is_empty());
    }

    #[test]
    fn link_toggles_drop_and_restore_traffic() {
        let mut sim = figure1_sim(vec![RacConfig::static_rac("5SP", "5SP")]);
        sim.run_rounds(2).unwrap();
        assert_eq!(sim.dropped_link_down(), 0);
        let link = sim.topology().links_of(figure1::X)[0];
        sim.set_link_down(link).unwrap();
        assert!(sim.is_link_down(link));
        assert_eq!(sim.downed_links(), vec![link]);
        sim.run_rounds(2).unwrap();
        let dropped = sim.dropped_link_down();
        assert!(dropped > 0, "traffic over the downed link must drop");
        sim.set_link_up(link).unwrap();
        assert!(!sim.is_link_down(link));
        sim.run_rounds(2).unwrap();
        // Once the link is back up, its traffic flows again; the counter stays put.
        assert_eq!(sim.dropped_link_down(), dropped);
        assert!(sim.set_link_down(irec_types::LinkId(u64::MAX)).is_err());
        assert!(sim.set_link_up(irec_types::LinkId(u64::MAX)).is_err());
    }

    #[test]
    fn link_down_drops_are_width_independent() {
        let run = |parallelism: usize, delivery: usize| {
            let topology = Arc::new(figure1_topology());
            let mut sim = Simulation::new(
                topology,
                SimulationConfig::default()
                    .with_parallelism(parallelism)
                    .with_delivery_parallelism(delivery),
                |_| {
                    NodeConfig::default()
                        .with_policy(PropagationPolicy::All)
                        .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
                },
            )
            .unwrap();
            sim.run_rounds(2).unwrap();
            let link = sim.topology().links_of(figure1::X)[0];
            sim.set_link_down(link).unwrap();
            sim.run_rounds(3).unwrap();
            (
                sim.registered_paths(),
                sim.delivery_stats(),
                sim.ingress_occupancy(),
            )
        };
        let reference = run(1, 1);
        assert!(reference.1.dropped_link_down > 0);
        for (parallelism, delivery) in [(2, 4), (4, 2), (1, 4)] {
            let parallel = run(parallelism, delivery);
            assert_eq!(parallel.0, reference.0, "paths at {parallelism}x{delivery}");
            assert_eq!(parallel.1, reference.1, "stats at {parallelism}x{delivery}");
            assert_eq!(
                parallel.2, reference.2,
                "occupancy at {parallelism}x{delivery}"
            );
        }
    }

    #[test]
    fn interface_groups_can_be_enabled_globally() {
        let mut sim = figure1_sim(vec![RacConfig::static_rac("DOB", "DO")
            .with_extended_paths(true)
            .with_interface_groups(true)]);
        sim.set_geographic_interface_groups(GroupingConfig::KM_300)
            .unwrap();
        sim.run_rounds(5).unwrap();
        assert!(sim.connectivity() > 0.9);
        sim.clear_interface_groups();
    }
}
