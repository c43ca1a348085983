//! The simulation driver: periodic beaconing over a topology with event-based message
//! delivery.

use crate::dag::{DagExecutor, RoundDagBuilder, RoundItem, RoundPlan, SchedulerStats};
use crate::delivery::{DeliveryPlane, DeliveryStats, MAX_EPOCH_EVENTS};
use crate::event::Event;
use irec_algorithms::incremental::{IncrementalStats, SelectionDelta};
use irec_core::{IrecNode, NodeConfig, RacConfig, RoundOutput, SharedAlgorithmStore, Verdict};
use irec_crypto::KeyRegistry;
use irec_metrics::overhead::OverheadCounter;
use irec_metrics::RegisteredPath;
use irec_topology::{GroupingConfig, InterfaceGroups, Topology};
use irec_types::{AsId, IrecError, LinkId, Result, SimDuration, SimTime};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which scheduler drives each beaconing round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RoundScheduler {
    /// The reference implementation: strict deliver → node phase → housekeeping barriers.
    /// Every worker joins at each phase boundary before the next phase starts.
    #[default]
    Barrier,
    /// The work-item DAG scheduler (see [`crate::dag`]): the same work, decomposed into
    /// items executed by one work-stealing pool the moment their dependency edges are
    /// satisfied — a node with no due traffic starts its round while other inboxes still
    /// verify, and freshly scheduled messages are verified speculatively while the node
    /// phase is still running. Output is byte-identical to [`RoundScheduler::Barrier`].
    Dag,
}

impl std::str::FromStr for RoundScheduler {
    type Err = IrecError;
    fn from_str(s: &str) -> Result<Self> {
        match s {
            "barrier" => Ok(RoundScheduler::Barrier),
            "dag" => Ok(RoundScheduler::Dag),
            other => Err(IrecError::config(format!(
                "unknown round scheduler {other:?} (expected \"barrier\" or \"dag\")"
            ))),
        }
    }
}

impl std::fmt::Display for RoundScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RoundScheduler::Barrier => "barrier",
            RoundScheduler::Dag => "dag",
        })
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
    /// Which scheduler drives each round. Under [`RoundScheduler::Dag`] the two worker
    /// counts above fold into one shared pool of width
    /// `max(parallelism, delivery_parallelism)` — there are no phases left to give each
    /// knob its own pool.
    pub round_scheduler: RoundScheduler,
    /// Ingress-database shard count applied to every node's
    /// [`NodeConfig::ingress_shards`]. `0` (the default) leaves each node's own setting
    /// alone, which normally means "follow the node's `parallelism`".
    pub ingress_shards: usize,
    /// Path-service shard count applied to every node's [`NodeConfig::path_shards`].
    /// `0` (the default) leaves each node's own setting alone.
    pub path_shards: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            beacon_interval: SimDuration::from_minutes(10),
            processing_delay: SimDuration::from_millis(5),
            parallelism: 1,
            delivery_parallelism: 1,
            round_scheduler: RoundScheduler::Barrier,
            ingress_shards: 0,
            path_shards: 0,
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

    /// Builder-style: select the round scheduler.
    #[must_use]
    pub fn with_round_scheduler(mut self, round_scheduler: RoundScheduler) -> Self {
        self.round_scheduler = round_scheduler;
        self
    }

    /// Builder-style: pin every node's ingress-database shard count (`0` = leave each
    /// node's own setting alone).
    #[must_use]
    pub fn with_ingress_shards(mut self, ingress_shards: usize) -> Self {
        self.ingress_shards = ingress_shards;
        self
    }

    /// Builder-style: pin every node's path-service shard count (`0` = leave each node's
    /// own setting alone).
    #[must_use]
    pub fn with_path_shards(mut self, path_shards: usize) -> Self {
        self.path_shards = path_shards;
        self
    }

    /// Applies the simulation-level node knobs to one node's config: nonzero shard counts
    /// override the node's own. Used wherever the simulation builds a node
    /// ([`Simulation::new`] and [`Simulation::add_node`]), so mid-run joins get the same
    /// knobs as the initial population.
    fn apply_node_knobs(&self, mut config: NodeConfig) -> NodeConfig {
        if self.ingress_shards != 0 {
            config.ingress_shards = self.ingress_shards;
        }
        if self.path_shards != 0 {
            config.path_shards = self.path_shards;
        }
        config
    }
}

/// Observer of selection-invalidation events: every structural mutation of the simulation
/// (link state change, node churn, RAC catalog swap) is translated into a
/// [`SelectionDelta`] and fanned out to each subscribed observer, in subscription order —
/// for callers that keep selection-derived state of their own. Subscribe with
/// [`Simulation::subscribe_invalidations`].
///
/// Observers are deliberately *not* carried across [`Simulation::clone`] or
/// [`Simulation::snapshot`]: a snapshot evolves independently and an observer boxed into
/// the base cannot be duplicated (nor would routing one clone's events into another's
/// observer make sense).
///
/// ```
/// use irec_algorithms::incremental::SelectionDelta;
/// use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
/// use irec_sim::{SelectionInvalidation, Simulation, SimulationConfig};
/// use irec_topology::builder::{figure1, figure1_topology};
/// use std::sync::Arc;
///
/// #[derive(Default)]
/// struct DeltaLog(Vec<SelectionDelta>);
/// impl SelectionInvalidation for DeltaLog {
///     fn on_invalidation(&mut self, delta: &SelectionDelta) {
///         self.0.push(delta.clone());
///     }
/// }
///
/// let mut sim = Simulation::new(
///     Arc::new(figure1_topology()),
///     SimulationConfig::default(),
///     |_| {
///         NodeConfig::default()
///             .with_policy(PropagationPolicy::All)
///             .with_racs(vec![RacConfig::static_rac("1SP", "1SP")])
///     },
/// ).unwrap();
/// sim.subscribe_invalidations(Box::new(DeltaLog::default()));
/// let link = sim.topology().links_of(figure1::SRC)[0];
/// sim.set_link_down(link).unwrap();  // fans a SelectionDelta::Link to the observer
/// ```
pub trait SelectionInvalidation: Send + Sync {
    /// Called once per structural mutation.
    fn on_invalidation(&mut self, delta: &SelectionDelta);
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
    /// Selection-invalidation observers (see [`SelectionInvalidation`]). Not part of the
    /// simulation state proper: deliberately dropped by [`Clone`] and
    /// [`Simulation::snapshot`], and never consulted by the deterministic round paths.
    observers: Vec<Box<dyn SelectionInvalidation>>,
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
            // Observers watch one simulation; a clone starts with none (see
            // [`SelectionInvalidation`]).
            observers: Vec::new(),
        }
    }
}

/// A structurally shared copy-on-write snapshot of a [`Simulation`].
///
/// Produced by [`Simulation::snapshot`] / [`Simulation::snapshot_reachable_from`]: every
/// node's ingress database and path service share their shards with the base simulation
/// (O(total shards) reference-count bumps instead of deep map copies), and a shard is
/// materialized lazily, only when the snapshot — or the base — first writes to it. The
/// remaining per-pair state (event queue, counters, RAC caches) is copied eagerly; it is
/// small compared to the beacon and path maps.
///
/// The snapshot wraps a full [`Simulation`] and dereferences to it, so everything that
/// works on a simulation — `run_rounds`, `node_mut`, the PD workflow — works on a
/// snapshot. The base simulation is never observably affected by anything the snapshot
/// does (and vice versa): whichever side touches a shared shard first pays for its own
/// private copy of just that shard. This is what makes the all-pairs PD campaign's
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
                config.apply_node_knobs(node_config(asn)),
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
            observers: Vec::new(),
        })
    }

    /// Subscribes a [`SelectionInvalidation`] observer: from now on every structural
    /// mutation's [`SelectionDelta`] is delivered to it.
    pub fn subscribe_invalidations(&mut self, observer: Box<dyn SelectionInvalidation>) {
        self.observers.push(observer);
    }

    /// Tells every subscribed observer, in subscription order, that the selections `delta`
    /// describes are stale. The structural-mutation hooks ([`Simulation::set_link_down`],
    /// [`Simulation::set_link_up`], [`Simulation::remove_node`], [`Simulation::add_node`],
    /// [`Simulation::swap_rac_catalog`]) call this themselves; call it directly only for
    /// out-of-band mutations the simulation cannot see.
    ///
    /// The nodes are not among the listeners. A node re-selects where its own ingress
    /// database changed (see [`irec_core::SelectionTables`]), and every structural change
    /// that matters to a node gets there as exactly that: a withdrawal sweep, an eviction,
    /// the fresh database of a node that re-joined.
    pub fn invalidate_selections(&mut self, delta: &SelectionDelta) {
        for observer in &mut self.observers {
            observer.on_invalidation(delta);
        }
    }

    /// Sum of every live node's [`irec_core::SelectionTables`] counters, in `AsId` order:
    /// how many `(RAC, batch)` selections the rounds so far reused, extended over their
    /// arrivals or recomputed from scratch, and how many kept selections catalog swaps
    /// dropped. Like [`SchedulerStats`], this is reporting about how the run
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

    /// A structurally shared copy-on-write snapshot of the whole simulation: O(total
    /// shards) pointer copies instead of the deep per-node map copies [`Clone`] performs.
    /// Shards are materialized lazily on first write — by either side — so the base and
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
    /// // Snapshot setup is O(shards) pointer copies; the snapshot then evolves
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
            // Snapshots evolve independently; the base's observers stay with the base.
            observers: Vec::new(),
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

    /// The width of the shared round pool: the two phase-specific worker knobs folded into
    /// one (the DAG scheduler has no phases to give each knob its own pool, and the
    /// barrier's idle accounting uses the same width so the two numbers compare).
    fn round_pool_width(&self) -> usize {
        self.config
            .parallelism
            .max(self.config.delivery_parallelism)
            .clamp(1, crate::dag::MAX_WORKERS)
    }

    /// Scheduler-quality accounting accumulated over the rounds run so far (see
    /// [`SchedulerStats`]). Both schedulers use the same idle formula, so barrier and DAG
    /// figures are directly comparable. Not part of the deterministic simulation output.
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
        match self.config.round_scheduler {
            RoundScheduler::Barrier => self.deliver_until(SimTime::MAX),
            RoundScheduler::Dag => self.run_delivery_dag(SimTime::MAX),
        }
        Ok(())
    }

    fn run_single_round(&mut self) -> Result<()> {
        match self.config.round_scheduler {
            RoundScheduler::Barrier => self.run_single_round_barrier(),
            RoundScheduler::Dag => self.run_single_round_dag(),
        }
    }

    fn run_single_round_barrier(&mut self) -> Result<()> {
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

    /// One beaconing round under [`RoundScheduler::Dag`]: the round's due delivery epoch
    /// and the node phase become one work-item DAG executed by a single work-stealing pool
    /// (see [`crate::dag`]). On top of overlapping delivery with node rounds, each node's
    /// freshly scheduled messages are **speculatively verified** the moment its accounting
    /// item fixes their delivery times and sequence numbers — verification is pure, so the
    /// verdicts are valid before the destination ever sees the message — and cached on the
    /// plane for the round that drains them.
    ///
    /// Byte-identical to the barrier round for any pool width: apply order per
    /// `(destination, shard)` inbox is `(SimTime, seq)` (edge rule 3), node rounds start
    /// only after their ingress shards committed (edge rule 1), outcome counters accumulate
    /// in epoch order inside the single accounting item, and the per-node accounting chain
    /// reproduces the barrier's `AsId`-order merge — including its event sequence numbers,
    /// via [`DeliveryPlane::schedule_preassigned`] — and its first-error semantics.
    fn run_single_round_dag(&mut self) -> Result<()> {
        let wall = Instant::now();
        let now = SimTime::from_micros(self.round * self.config.beacon_interval.as_micros());
        self.clock = now;
        let round = self.round;
        let width = self.round_pool_width();

        // Drain the whole due epoch up front; delivery never schedules new events, so one
        // pass is exact, and a round's due traffic bounds the drained set naturally.
        let prep = self.prepare_delivery(now, usize::MAX);

        // Build the round plan in canonical order: item ids are a stable function of the
        // round's inputs, so error propagation and all merges are order-independent.
        let mut builder = RoundDagBuilder::new();
        for dest in prep.verify_inboxes.keys() {
            builder.add_verify(*dest);
        }
        builder.add_account();
        for (dest, shard) in prep.commit_inboxes.keys() {
            builder.add_apply_pcb(*dest, *shard);
        }
        for (dest, shard) in prep.return_inboxes.keys() {
            builder.add_apply_return(*dest, *shard);
        }
        let as_ids: Vec<AsId> = self.nodes.keys().copied().collect();
        for &asn in &as_ids {
            builder.add_node_round(asn);
        }
        for &asn in &as_ids {
            builder.add_account_round(asn);
        }
        for &asn in &as_ids {
            builder.add_speculative_verify(asn);
        }
        for &asn in &as_ids {
            builder.add_housekeeping(asn);
        }
        let plan = builder.build();

        // Move the nodes into per-AS cells so items can lock exactly the node they touch:
        // verify/apply items read-lock (they use the `&self` shard entry points), node
        // rounds and housekeeping write-lock. The cells are restored unconditionally after
        // the pool joins.
        let cells: Vec<(AsId, RwLock<IrecNode>)> = std::mem::take(&mut self.nodes)
            .into_iter()
            .map(|(asn, node)| (asn, RwLock::new(node)))
            .collect();
        let index_of: BTreeMap<AsId, usize> = cells
            .iter()
            .enumerate()
            .map(|(position, (asn, _))| (*asn, position))
            .collect();

        let outputs: Vec<Mutex<Option<Result<RoundOutput>>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        let core_ok: Vec<AtomicBool> = cells.iter().map(|_| AtomicBool::new(false)).collect();
        let staged: Vec<Mutex<Vec<(SimTime, u64, Event)>>> =
            cells.iter().map(|_| Mutex::new(Vec::new())).collect();
        let spec_verdicts: Mutex<Vec<(u64, Verdict)>> = Mutex::new(Vec::new());
        let topology = &self.topology;
        let processing_delay = self.config.processing_delay;
        let acct = Mutex::new(RoundAccounting {
            overhead: &mut self.overhead,
            overhead_pull: &mut self.overhead_pull,
            delta: prep.base_delta,
            next_seq: self.plane.next_seq(),
            error: None,
        });

        let prep = &prep;
        let report = DagExecutor::new(width).run(&plan.dag, |id| match plan.items[id] {
            RoundItem::Verify { dest } => {
                let node = cells[index_of[&dest]].1.read();
                verify_inbox(&node, prep, &prep.verify_inboxes[&dest]);
            }
            RoundItem::Account => {
                let epoch_delta = account_epoch(prep);
                acct.lock().delta.merge(epoch_delta);
            }
            RoundItem::ApplyPcb { dest, shard } => {
                let node = cells[index_of[&dest]].1.read();
                apply_pcb_inbox(&node, prep, shard, &prep.commit_inboxes[&(dest, shard)]);
            }
            RoundItem::ApplyReturn { dest, shard } => {
                let node = cells[index_of[&dest]].1.read();
                apply_return_inbox(&node, prep, shard, &prep.return_inboxes[&(dest, shard)]);
            }
            RoundItem::NodeRound { asn } => {
                let position = index_of[&asn];
                let result = cells[position].1.write().beaconing_round_core(now);
                if result.is_ok() {
                    core_ok[position].store(true, Ordering::Release);
                }
                *outputs[position].lock() = Some(result);
            }
            RoundItem::AccountRound { asn } => {
                let position = index_of[&asn];
                let output = outputs[position]
                    .lock()
                    .take()
                    .expect("node round precedes its accounting item");
                let mut acct = acct.lock();
                if acct.error.is_some() {
                    // A lower-AsId node already failed this round: discard this output,
                    // exactly as the barrier's merge loop stops accounting at the first
                    // error.
                    return;
                }
                let output = match output {
                    Ok(output) => output,
                    Err(error) => {
                        acct.error = Some((position, error));
                        return;
                    }
                };
                for message in &output.messages {
                    acct.overhead
                        .record(message.from_as, message.from_if, round, 1);
                    if message.pcb.extensions.target().is_some() {
                        acct.overhead_pull
                            .record(message.from_as, message.from_if, round, 1);
                    }
                }
                let mut events = staged[position].lock();
                for message in output.messages {
                    let delay = topology
                        .link_at(message.from_as, message.from_if)
                        .map(|l| l.metrics.latency)
                        .unwrap_or_default();
                    let at = now + SimDuration::from_micros(delay.as_micros()) + processing_delay;
                    let seq = acct.next_seq;
                    acct.next_seq += 1;
                    events.push((at, seq, Event::DeliverPcb(message)));
                }
                for ret in output.pull_returns {
                    // The return travels over the discovered path itself.
                    let delay = ret.pcb.path_metrics().latency;
                    let at = now + SimDuration::from_micros(delay.as_micros()) + processing_delay;
                    let seq = acct.next_seq;
                    acct.next_seq += 1;
                    events.push((at, seq, Event::DeliverPullReturn(ret)));
                }
            }
            RoundItem::SpeculativeVerify { asn } => {
                let position = index_of[&asn];
                let events = staged[position].lock();
                let mut local: Vec<(u64, Verdict)> = Vec::new();
                for (at, seq, event) in events.iter() {
                    if let Event::DeliverPcb(message) = event {
                        // Verification is pure (verdict = f(message, delivery time,
                        // immutable keys/policy)), so reading the destination's cell
                        // concurrently with other rounds is safe — the verdict cannot
                        // depend on any state those rounds mutate.
                        if let Some(&target) = index_of.get(&message.to_as) {
                            let verdict = cells[target].1.read().verify_message(message, *at);
                            local.push((*seq, verdict));
                        }
                    }
                }
                drop(events);
                if !local.is_empty() {
                    spec_verdicts.lock().extend(local);
                }
            }
            RoundItem::Housekeeping { asn } => {
                let position = index_of[&asn];
                // Housekeeping runs only for nodes whose round core succeeded, matching
                // `IrecNode::beaconing_round` which never reaches it on error. The evicted
                // send counters are discarded exactly as `account_and_schedule` does.
                if core_ok[position].load(Ordering::Acquire) {
                    let _ = cells[position].1.write().round_housekeeping(now);
                }
            }
        });

        // Restore the nodes unconditionally before surfacing any error.
        self.nodes = cells
            .into_iter()
            .map(|(asn, cell)| (asn, cell.into_inner()))
            .collect();

        let acct = acct.into_inner();
        self.plane.add_stats(acct.delta);
        // Push the staged events in cell (= AsId) order: together with the preassigned
        // sequence numbers this leaves the queue byte-identical to the barrier's inline
        // scheduling. On error, only outputs before the failing node were accounted, so
        // only their events exist — later accounting items staged nothing.
        let error_position = acct
            .error
            .as_ref()
            .map(|(position, _)| *position)
            .unwrap_or(usize::MAX);
        for (position, events) in staged.into_iter().enumerate() {
            if position >= error_position {
                break;
            }
            for (at, seq, event) in events.into_inner() {
                self.plane.schedule_preassigned(at, seq, event);
            }
        }
        self.plane.cache_verdicts(spec_verdicts.into_inner());
        if let Some((_, error)) = acct.error {
            return Err(error);
        }
        self.round += 1;
        self.scheduler
            .record_round(width, wall.elapsed().as_nanos() as u64, report.busy_nanos);
        self.scheduler.record_items(report.executed, report.steals);
        Ok(())
    }

    /// Drains and partitions the due epoch into [`DeliveryPrep`] work-item inboxes,
    /// consuming cached speculative verdicts and accounting everything knowable at drain
    /// time (missing-node drops, pull-return deliveries) into the base delta — the same
    /// figures, in the same epoch order, as the barrier's serial accounting pass.
    fn prepare_delivery(&mut self, until: SimTime, max_events: usize) -> DeliveryPrep {
        let due = self.plane.drain_due(until, max_events);
        let mut prep = DeliveryPrep {
            ats: Vec::with_capacity(due.len()),
            events: Vec::with_capacity(due.len()),
            verdicts: Vec::with_capacity(due.len()),
            verify_inboxes: BTreeMap::new(),
            commit_inboxes: BTreeMap::new(),
            return_inboxes: BTreeMap::new(),
            pcb_outcomes: Vec::new(),
            base_delta: DeliveryStats::default(),
        };
        for (at, seq, event) in due {
            let index = prep.ats.len();
            prep.ats.push(at);
            let mut verdict = None;
            match &event {
                Event::DeliverPcb(message)
                    if self
                        .plane
                        .is_endpoint_down(message.from_as, message.from_if) =>
                {
                    // The downed-link check precedes the missing-node check in every
                    // delivery path, so the counter split is scheduler-independent.
                    // Consume any cached verdict so the cache never leaks entries for
                    // events that will never be applied.
                    let _ = self.plane.take_cached_verdict(seq);
                    prep.base_delta.dropped_link_down += 1;
                }
                Event::DeliverPcb(message) => match self.nodes.get(&message.to_as) {
                    Some(node) => {
                        prep.pcb_outcomes.push(index);
                        let shard = node.ingress_shard_of(message.pcb.origin);
                        prep.commit_inboxes
                            .entry((message.to_as, shard))
                            .or_default()
                            .push(index);
                        verdict = self.plane.take_cached_verdict(seq);
                        if verdict.is_none() {
                            prep.verify_inboxes
                                .entry(message.to_as)
                                .or_default()
                                .push(index);
                        }
                    }
                    None => {
                        // Consume any cached verdict so the cache never leaks entries for
                        // events that will never be applied.
                        let _ = self.plane.take_cached_verdict(seq);
                        prep.base_delta.dropped_no_node += 1;
                    }
                },
                Event::DeliverPullReturn(ret) => match self.nodes.get(&ret.to_as) {
                    Some(node) => {
                        prep.base_delta.delivered += 1;
                        // The registered path's destination is the AS the return came
                        // from; that AS determines the path-service shard.
                        let shard = node.path_shard_of(ret.from_as);
                        prep.return_inboxes
                            .entry((ret.to_as, shard))
                            .or_default()
                            .push(index);
                    }
                    None => prep.base_delta.dropped_no_node += 1,
                },
            }
            prep.verdicts.push(Mutex::new(verdict));
            prep.events.push(Mutex::new(Some(event)));
        }
        prep
    }

    /// The DAG scheduler's replacement for [`Simulation::deliver_until`]: drains the due
    /// events in bounded epochs and runs each epoch's verify/account/apply items — the
    /// delivery-only subset of the round plan — over the shared pool. Used for the final
    /// in-flight flush; in-round delivery goes through [`Simulation::run_single_round_dag`]
    /// so it can overlap with the node phase.
    fn run_delivery_dag(&mut self, until: SimTime) {
        loop {
            let prep = self.prepare_delivery(until, MAX_EPOCH_EVENTS);
            if prep.ats.is_empty() {
                return;
            }
            let mut builder = RoundDagBuilder::new();
            for dest in prep.verify_inboxes.keys() {
                builder.add_verify(*dest);
            }
            builder.add_account();
            for (dest, shard) in prep.commit_inboxes.keys() {
                builder.add_apply_pcb(*dest, *shard);
            }
            for (dest, shard) in prep.return_inboxes.keys() {
                builder.add_apply_return(*dest, *shard);
            }
            let plan: RoundPlan = builder.build();
            let delta = Mutex::new(prep.base_delta);
            let nodes = &self.nodes;
            let prep = &prep;
            DagExecutor::new(self.round_pool_width()).run(&plan.dag, |id| match plan.items[id] {
                RoundItem::Verify { dest } => {
                    let node = nodes.get(&dest).expect("verify inboxes target live nodes");
                    verify_inbox(node, prep, &prep.verify_inboxes[&dest]);
                }
                RoundItem::Account => delta.lock().merge(account_epoch(prep)),
                RoundItem::ApplyPcb { dest, shard } => {
                    let node = nodes.get(&dest).expect("commit inboxes target live nodes");
                    apply_pcb_inbox(node, prep, shard, &prep.commit_inboxes[&(dest, shard)]);
                }
                RoundItem::ApplyReturn { dest, shard } => {
                    let node = nodes.get(&dest).expect("return inboxes target live nodes");
                    apply_return_inbox(node, prep, shard, &prep.return_inboxes[&(dest, shard)]);
                }
                other => unreachable!("delivery-only plan holds no {other:?}"),
            });
            self.plane.add_stats(delta.into_inner());
        }
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

    fn deliver_until(&mut self, until: SimTime) {
        self.plane.deliver_until(&mut self.nodes, until);
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
        self.invalidate_selections(&SelectionDelta::As(asn));
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
            self.config.apply_node_knobs(config),
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
        self.invalidate_selections(&SelectionDelta::As(asn));
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
        self.invalidate_selections(&SelectionDelta::Link(endpoints.to_vec()));
        Ok(())
    }

    /// Brings a downed link back up. A no-op for links that are not down.
    pub fn set_link_up(&mut self, link: LinkId) -> Result<()> {
        // Resolve the id even though the plane keeps the endpoints, so an unknown link id
        // errors instead of silently doing nothing.
        let l = self.topology.link(link)?;
        let endpoints = [(l.a.asn, l.a.interface), (l.b.asn, l.b.interface)];
        self.plane.set_link_up(link);
        self.invalidate_selections(&SelectionDelta::Link(endpoints.to_vec()));
        Ok(())
    }

    /// Replaces one node's RAC catalog live (see [`IrecNode::swap_rac_catalog`]; the
    /// node's kept selections go with the catalog they were made under) and tells the
    /// subscribed observers with a
    /// [`SelectionDelta::All`] — a catalog swap is the one churn event whose blast radius
    /// the delta language cannot narrow.
    pub fn swap_rac_catalog(&mut self, asn: AsId, catalog: Vec<RacConfig>) -> Result<()> {
        self.node_mut(asn)?.swap_rac_catalog(catalog)?;
        self.invalidate_selections(&SelectionDelta::All);
        Ok(())
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

/// One drained delivery epoch, partitioned into the DAG round's work-item inboxes. All
/// index vectors hold epoch positions (indices into `ats`/`events`/`verdicts`), in epoch
/// (= `(SimTime, seq)`) order.
struct DeliveryPrep {
    /// Delivery time of each drained event, by epoch position.
    ats: Vec<SimTime>,
    /// The drained events; taken (once) by the apply item that commits them.
    events: Vec<Mutex<Option<Event>>>,
    /// Verdict slots, one per event, prefilled from the speculative-verdict cache. Apply
    /// items clone (never take) so the epoch's accounting item can read every slot
    /// regardless of execution order.
    verdicts: Vec<Mutex<Option<Verdict>>>,
    /// Positions needing verification, grouped per destination AS.
    verify_inboxes: BTreeMap<AsId, Vec<usize>>,
    /// PCB commits, grouped per `(destination AS, ingress shard)`.
    commit_inboxes: BTreeMap<(AsId, usize), Vec<usize>>,
    /// Pull-return commits, grouped per `(destination AS, path shard)`.
    return_inboxes: BTreeMap<(AsId, usize), Vec<usize>>,
    /// Positions of PCBs with a live destination, whose delivered/rejected outcome the
    /// accounting item reads off the verdict slots in epoch order.
    pcb_outcomes: Vec<usize>,
    /// Outcomes already known at drain time: missing-node drops and pull-return
    /// deliveries.
    base_delta: DeliveryStats,
}

/// The DAG round's serially-chained accounting state, guarded by one mutex and visited in
/// `AsId` order by the accounting-chain items.
struct RoundAccounting<'a> {
    overhead: &'a mut OverheadCounter,
    overhead_pull: &'a mut OverheadCounter,
    /// Delivery outcomes of the round's epoch (base delta plus the accounting item's
    /// verdict counts).
    delta: DeliveryStats,
    /// Next event sequence number to assign; starts at the plane's counter so the staged
    /// events replicate the barrier's inline assignment exactly.
    next_seq: u64,
    /// First error in `AsId` order, with the failing node's cell position. Later
    /// accounting items discard their outputs, as the barrier's merge loop does.
    error: Option<(usize, IrecError)>,
}

/// Verifies one destination's due inbox, writing verdicts into the epoch's slots.
fn verify_inbox(node: &IrecNode, prep: &DeliveryPrep, indices: &[usize]) {
    for &index in indices {
        let guard = prep.events[index].lock();
        let Some(Event::DeliverPcb(message)) = guard.as_ref() else {
            unreachable!("verify inboxes hold only undelivered PCB events");
        };
        let verdict = node.verify_message(message, prep.ats[index]);
        drop(guard);
        *prep.verdicts[index].lock() = Some(verdict);
    }
}

/// Counts the epoch's delivered/rejected PCB outcomes off the (complete) verdict slots,
/// in epoch order — the DAG equivalent of the barrier's serial accounting pass.
fn account_epoch(prep: &DeliveryPrep) -> DeliveryStats {
    let mut delta = DeliveryStats::default();
    for &index in &prep.pcb_outcomes {
        match prep.verdicts[index]
            .lock()
            .as_ref()
            .expect("every verify item precedes the accounting item")
        {
            Ok(_) => delta.delivered += 1,
            Err(_) => delta.rejected += 1,
        }
    }
    delta
}

/// Commits one `(destination, ingress shard)` PCB inbox in epoch order.
fn apply_pcb_inbox(node: &IrecNode, prep: &DeliveryPrep, shard: usize, indices: &[usize]) {
    for &index in indices {
        let event = prep.events[index]
            .lock()
            .take()
            .expect("each event is committed exactly once");
        let Event::DeliverPcb(message) = event else {
            unreachable!("commit inboxes hold only PCB events");
        };
        let verdict = prep.verdicts[index]
            .lock()
            .clone()
            .expect("the destination's verify item precedes its applies");
        // The outcome is accounted by the accounting item; the commit mutates only the
        // shard's dedup index, storage and gateway counters.
        let _ = node.apply_message_in_shard(shard, message, prep.ats[index], verdict);
    }
}

/// Commits one `(destination, path shard)` pull-return inbox in epoch order.
fn apply_return_inbox(node: &IrecNode, prep: &DeliveryPrep, shard: usize, indices: &[usize]) {
    for &index in indices {
        let event = prep.events[index]
            .lock()
            .take()
            .expect("each event is committed exactly once");
        let Event::DeliverPullReturn(ret) = event else {
            unreachable!("return inboxes hold only pull-return events");
        };
        node.handle_pull_return_in_shard(shard, ret, prep.ats[index]);
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
    fn dag_scheduler_matches_barrier_output() {
        let run = |scheduler: RoundScheduler, parallelism: usize, delivery: usize| {
            let topology = Arc::new(figure1_topology());
            let mut sim = Simulation::new(
                topology,
                SimulationConfig::default()
                    .with_round_scheduler(scheduler)
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
            // Fail an AS mid-run: in-flight messages to it must drop identically, and the
            // DAG plan must shrink cleanly to the surviving cells.
            sim.remove_node(figure1::X);
            sim.run_rounds(2).unwrap();
            (
                sim.registered_paths(),
                sim.delivery_stats(),
                sim.ingress_occupancy(),
                sim.overhead().samples(),
            )
        };
        let reference = run(RoundScheduler::Barrier, 1, 1);
        assert!(reference.1.delivered > 0);
        assert!(reference.1.dropped_no_node > 0);
        for (parallelism, delivery) in [(1, 1), (2, 4), (4, 2), (8, 8)] {
            let dag = run(RoundScheduler::Dag, parallelism, delivery);
            assert_eq!(dag.0, reference.0, "paths at {parallelism}x{delivery}");
            assert_eq!(dag.1, reference.1, "stats at {parallelism}x{delivery}");
            assert_eq!(dag.2, reference.2, "occupancy at {parallelism}x{delivery}");
            assert_eq!(dag.3, reference.3, "overhead at {parallelism}x{delivery}");
        }
    }

    #[test]
    fn dag_scheduler_caches_and_consumes_speculative_verdicts() {
        let topology = Arc::new(figure1_topology());
        let mut sim = Simulation::new(
            topology,
            SimulationConfig::default()
                .with_round_scheduler(RoundScheduler::Dag)
                .with_parallelism(2),
            |_| {
                NodeConfig::default()
                    .with_policy(PropagationPolicy::All)
                    .with_racs(vec![RacConfig::static_rac("1SP", "1SP")])
            },
        )
        .unwrap();
        sim.run_rounds(4).unwrap();
        // Every cached verdict was keyed to a scheduled event; the final flush must have
        // consumed them all (no leaks for events that were actually delivered or dropped).
        assert_eq!(
            sim.plane.cached_verdicts(),
            0,
            "verdict cache leaked entries"
        );
        assert!(sim.scheduler_stats().rounds >= 4);
        assert!(sim.scheduler_stats().items > 0);
        assert!((sim.connectivity() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn round_scheduler_parses_and_displays() {
        assert_eq!(
            "barrier".parse::<RoundScheduler>().unwrap(),
            RoundScheduler::Barrier
        );
        assert_eq!(
            "dag".parse::<RoundScheduler>().unwrap(),
            RoundScheduler::Dag
        );
        assert!("eager".parse::<RoundScheduler>().is_err());
        assert_eq!(RoundScheduler::Barrier.to_string(), "barrier");
        assert_eq!(RoundScheduler::Dag.to_string(), "dag");
    }

    #[test]
    fn sim_level_knobs_reach_every_node_including_mid_run_joins() {
        let topology = Arc::new(figure1_topology());
        let config = SimulationConfig::default()
            .with_ingress_shards(3)
            .with_path_shards(2);
        let mut sim = Simulation::new(topology, config, |_| {
            NodeConfig::default()
                .with_policy(PropagationPolicy::All)
                .with_racs(vec![RacConfig::static_rac("1SP", "1SP")])
        })
        .unwrap();
        for asn in sim.live_ases() {
            let node_config = sim.node(asn).unwrap().config();
            assert_eq!(node_config.ingress_shards, 3);
            assert_eq!(node_config.path_shards, 2);
        }
        // A node added mid-run gets the same knobs applied to its (plain) config.
        sim.remove_node(figure1::X).unwrap();
        sim.add_node(figure1::X, NodeConfig::default()).unwrap();
        let rejoined = sim.node(figure1::X).unwrap().config();
        assert_eq!(rejoined.ingress_shards, 3);
        assert_eq!(rejoined.path_shards, 2);
        // The selection tables are not a knob: a few rounds of any simulation compute,
        // then keep, selections.
        sim.run_rounds(3).unwrap();
        let stats = sim.incremental_stats();
        assert!(stats.recomputed > 0 && stats.reused + stats.extended > 0);
    }

    #[test]
    fn structural_hooks_fan_deltas_out_to_observers() {
        use irec_algorithms::incremental::SelectionDelta;
        use std::sync::Mutex as StdMutex;

        #[derive(Default)]
        struct DeltaLog(Arc<StdMutex<Vec<SelectionDelta>>>);
        impl SelectionInvalidation for DeltaLog {
            fn on_invalidation(&mut self, delta: &SelectionDelta) {
                self.0.lock().unwrap().push(delta.clone());
            }
        }

        let mut sim = figure1_sim(vec![RacConfig::static_rac("1SP", "1SP")]);
        let log = Arc::new(StdMutex::new(Vec::new()));
        sim.subscribe_invalidations(Box::new(DeltaLog(Arc::clone(&log))));
        sim.run_rounds(2).unwrap();

        let link = sim.topology().links_of(figure1::X)[0];
        sim.set_link_down(link).unwrap();
        sim.set_link_up(link).unwrap();
        sim.remove_node(figure1::X).unwrap();
        sim.add_node(figure1::X, NodeConfig::default()).unwrap();
        sim.swap_rac_catalog(figure1::X, vec![RacConfig::static_rac("5SP", "5SP")])
            .unwrap();

        let deltas = log.lock().unwrap().clone();
        assert_eq!(deltas.len(), 5, "one delta per structural mutation");
        assert!(matches!(deltas[0], SelectionDelta::Link(ref e) if e.len() == 2));
        assert!(matches!(deltas[1], SelectionDelta::Link(_)));
        assert_eq!(deltas[2], SelectionDelta::As(figure1::X));
        assert_eq!(deltas[3], SelectionDelta::As(figure1::X));
        assert_eq!(deltas[4], SelectionDelta::All);
        // Observers watch one simulation: clones and snapshots start with none, so the
        // base's log sees nothing from mutations on the copies.
        let mut copy = sim.clone();
        let mut snap = sim.snapshot().into_simulation();
        copy.set_link_down(link).unwrap();
        snap.set_link_down(link).unwrap();
        assert_eq!(log.lock().unwrap().len(), 5);
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
    fn link_down_drops_are_scheduler_independent() {
        let run = |scheduler: RoundScheduler, parallelism: usize, delivery: usize| {
            let topology = Arc::new(figure1_topology());
            let mut sim = Simulation::new(
                topology,
                SimulationConfig::default()
                    .with_round_scheduler(scheduler)
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
        let reference = run(RoundScheduler::Barrier, 1, 1);
        assert!(reference.1.dropped_link_down > 0);
        for (parallelism, delivery) in [(1, 1), (2, 4), (4, 2)] {
            let dag = run(RoundScheduler::Dag, parallelism, delivery);
            assert_eq!(dag.0, reference.0, "paths at {parallelism}x{delivery}");
            assert_eq!(dag.1, reference.1, "stats at {parallelism}x{delivery}");
            assert_eq!(dag.2, reference.2, "occupancy at {parallelism}x{delivery}");
        }
        let barrier_parallel = run(RoundScheduler::Barrier, 1, 4);
        assert_eq!(barrier_parallel.1, reference.1);
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
