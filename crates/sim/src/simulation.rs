//! The simulation driver: periodic beaconing over a topology with event-based message
//! delivery.
//!
//! A round delivers what is due, then runs every node's beaconing round, one after the
//! other in `AsId` order, and schedules each node's output in that order. Delivery and
//! the node phase do not run as strict phases: at verify width 2 (`delivery_parallelism`),
//! each finished node's PCBs are verified on a helper thread while the next nodes run, so
//! the flush that delivers them only commits verdicts (see [`crate::delivery`]). That
//! helper is the simulator's only concurrency.

use crate::delivery::{DeliveryPlane, DeliveryStats, Flight, Handed, VerifyAhead};
use crate::event::Event;
use irec_algorithms::incremental::IncrementalStats;
use irec_core::{IrecNode, NodeConfig, PcbMessage, RacConfig, SharedAlgorithmStore};
use irec_crypto::{KeyRegistry, Verifier};
use irec_metrics::overhead::OverheadCounter;
use irec_metrics::RegisteredPath;
use irec_topology::{GroupingConfig, InterfaceGroups, Topology};
use irec_types::{AsId, IrecError, LinkId, Result, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Scheduler-quality accounting, accumulated per round: `idle = workers × round_wall −
/// Σ busy`, where `busy` sums the instrumented payload work (node rounds, verifications
/// ahead, deliveries) and `workers` is the round pool width: the verify width. Serial
/// sections therefore count `workers − 1` idle lanes.
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
    /// The verify width (see [`crate::delivery`]). `1` verifies every PCB inline when it
    /// is delivered — the reference. `2` runs one helper thread per round that verifies
    /// each node's PCBs while the remaining nodes still run; delivery commits the verdicts
    /// computed ahead. Either way the commit order is `(SimTime, seq)` and the simulation
    /// output is byte-identical. Widths above [`MAX_VERIFY_WIDTH`] run as that. Defaults
    /// to the available parallelism, capped the same way.
    pub delivery_parallelism: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            beacon_interval: SimDuration::from_minutes(10),
            processing_delay: SimDuration::from_millis(5),
            delivery_parallelism: default_verify_width(),
        }
    }
}

/// The widest verify width: one helper thread. Only that width has been measured (on a
/// two-core host); more helpers each cost a malloc arena's worth of `peak_rss_mb` and are
/// not shown to shorten a round.
pub const MAX_VERIFY_WIDTH: usize = 2;

/// The default verify width: the available parallelism, clamped to [1,
/// [`MAX_VERIFY_WIDTH`]]. Asked of the host once per process, not per simulation: the
/// answer reads the cgroup's CPU quota from the file system, which costs as much as
/// setting up a small simulation.
fn default_verify_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .clamp(1, MAX_VERIFY_WIDTH)
    })
}

impl SimulationConfig {
    /// Builder-style: set the verify width (clamped to at least 1; widths above
    /// [`MAX_VERIFY_WIDTH`] run as that).
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
    /// clones — see [`crate::pd::PdCampaign`]).
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
            plane: DeliveryPlane::default(),
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

    /// The verify width the rounds run at: the configured one, capped at
    /// [`MAX_VERIFY_WIDTH`].
    fn verify_width(&self) -> usize {
        self.config.delivery_parallelism.clamp(1, MAX_VERIFY_WIDTH)
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

    /// One beaconing round: deliver what is due, then run every node's round and schedule
    /// the outputs in `AsId` order — verifying them ahead on a helper thread while the
    /// remaining nodes still run (see [`crate::delivery`]). A failing node's error is
    /// returned after the outputs of the nodes before it are scheduled; the round does not
    /// count as run.
    fn run_single_round(&mut self) -> Result<()> {
        let wall = Instant::now();
        let busy = AtomicU64::new(0);
        let now = SimTime::from_micros(self.round * self.config.beacon_interval.as_micros());
        self.clock = now;
        // Deliver everything that arrived before this round started.
        self.plane.deliver_until_probed(&mut self.nodes, now, &busy);

        let verifier = Verifier::new(self.registry.clone());
        let verify_width = self.verify_width();
        let verify_ahead = verify_width > 1;
        let Simulation {
            topology,
            config,
            nodes,
            plane,
            overhead,
            overhead_pull,
            round,
            ..
        } = self;
        let mut outbox = Outbox {
            plane,
            overhead,
            overhead_pull,
            round: *round,
            now,
            processing_delay: config.processing_delay,
            waiting: std::iter::repeat_with(|| None).take(nodes.len()).collect(),
            next: 0,
        };
        // Runs one node's round and builds its flight, with every PCB's receipt time.
        let fly = |node: &mut IrecNode| -> Result<Flight> {
            let started = Instant::now();
            let output = node.beaconing_round(now);
            busy.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let output = output?;
            let arrivals = output
                .messages
                .iter()
                .map(|message| arrival(topology, config.processing_delay, now, message))
                .collect();
            Ok(Flight::new(output, arrivals, verify_ahead))
        };

        let (pipeline, returned) = VerifyAhead::new(&verifier, &busy, nodes.len());
        let failure = std::thread::scope(|scope| {
            let helper = verify_ahead.then(|| {
                let (helper, handed) = VerifyAhead::helper_channel();
                scope.spawn(|| pipeline.help(handed));
                helper
            });
            run_nodes_in_turn(nodes, &fly, |flight| {
                pipeline.hand_over(helper.as_ref(), flight);
                outbox.take(returned.try_iter());
            })
            // The helper's channel hangs up here: it verifies what is left and returns.
        });
        // The helper has returned: all flights are back.
        outbox.take(returned.try_iter());
        if let Some(err) = failure {
            return Err(err);
        }
        *round += 1;
        self.scheduler.record_round(
            verify_width,
            wall.elapsed().as_nanos() as u64,
            busy.into_inner(),
        );
        Ok(())
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

    /// Fraction of ordered pairs `(a, b)` of the simulated ASes, `a ≠ b`, for which `a`'s
    /// path service holds at least one registration with destination `b`, under any
    /// algorithm or interface group. Registrations carry no expiry, so one whose beacon
    /// has lapsed still counts.
    ///
    /// 1.0 is not reachable on every topology. Selection runs per egress interface and a
    /// candidate is never eligible for the interface it arrived on, so an AS with a single
    /// link selects nothing and registers no path (`ROADMAP.md`, item 1). A generated
    /// topology with a single-homed stub therefore stays below 1.0 however long it runs.
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

/// Runs the nodes' rounds one after the other, in `AsId` order, handing each node's flight
/// with its position to `hand_over` as the node finishes. A failing node ends the phase
/// before any later node has run, so no node state mutates without its output being
/// accounted; its error is returned.
fn run_nodes_in_turn(
    nodes: &mut BTreeMap<AsId, IrecNode>,
    fly: &impl Fn(&mut IrecNode) -> Result<Flight>,
    mut hand_over: impl FnMut(Handed),
) -> Option<IrecError> {
    for (index, node) in nodes.values_mut().enumerate() {
        match fly(node) {
            Ok(flight) => hand_over((index, flight)),
            Err(err) => return Some(err),
        }
    }
    None
}

/// When a PCB sent at `now` is received: after its link's latency plus the processing
/// delay.
fn arrival(
    topology: &Topology,
    processing_delay: SimDuration,
    now: SimTime,
    message: &PcbMessage,
) -> SimTime {
    let delay = topology
        .link_at(message.from_as, message.from_if)
        .map(|l| l.metrics.latency)
        .unwrap_or_default();
    now + SimDuration::from_micros(delay.as_micros()) + processing_delay
}

/// Where a round's flights go: the overhead counters and the delivery plane, in `AsId`
/// order, whatever order they come back from verification in.
struct Outbox<'s> {
    plane: &'s mut DeliveryPlane,
    overhead: &'s mut OverheadCounter,
    overhead_pull: &'s mut OverheadCounter,
    round: u64,
    now: SimTime,
    processing_delay: SimDuration,
    /// Flights back from verification that wait for an earlier node's, by node position.
    waiting: Vec<Option<Flight>>,
    /// Position of the next flight to schedule.
    next: usize,
}

impl Outbox<'_> {
    /// Takes the flights that came back, then accounts and schedules every flight no
    /// earlier one is still missing for. A flight that never comes back (its node failed)
    /// holds back every later one.
    fn take(&mut self, returned: impl Iterator<Item = Handed>) {
        for (index, flight) in returned {
            self.waiting[index] = Some(flight);
        }
        while let Some(flight) = self.waiting.get_mut(self.next).and_then(Option::take) {
            self.next += 1;
            self.account_and_schedule(flight);
        }
    }

    /// Records one node's output in the overhead counters and schedules its deliveries,
    /// every PCB at the receipt time it was verified for, with the id it was accepted
    /// under.
    fn account_and_schedule(&mut self, flight: Flight) {
        let Flight {
            output,
            arrivals,
            ids,
        } = flight;
        for message in &output.messages {
            self.overhead
                .record(message.from_as, message.from_if, self.round, 1);
            if message.pcb.extensions.target().is_some() {
                self.overhead_pull
                    .record(message.from_as, message.from_if, self.round, 1);
            }
        }
        for (index, (message, at)) in output.messages.into_iter().zip(arrivals).enumerate() {
            let id = ids.get(index).copied().flatten();
            self.plane
                .schedule_verified(at, Event::DeliverPcb(message), id);
        }
        for ret in output.pull_returns {
            // The return travels over the discovered path itself.
            let delay = ret.pcb.path_metrics().latency;
            let at = self.now + SimDuration::from_micros(delay.as_micros()) + self.processing_delay;
            self.plane.schedule(at, Event::DeliverPullReturn(ret));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irec_core::{PropagationPolicy, RacConfig};
    use irec_crypto::Signer;
    use irec_pcb::{AlgorithmRef, Pcb, PcbExtensions, StaticInfo};
    use irec_topology::builder::{figure1, figure1_topology};
    use irec_topology::{GeneratorConfig, TopologyGenerator};
    use irec_types::{AlgorithmId, Bandwidth, IfId, Latency};

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
        for width in [2, 4] {
            let (p_paths, p_stats, p_occupancy) = run(width);
            assert_eq!(p_paths, paths);
            assert_eq!(p_stats, stats);
            assert_eq!(p_occupancy, occupancy);
        }
    }

    #[test]
    fn node_failure_is_width_independent() {
        let run = |delivery: usize| {
            let topology = Arc::new(figure1_topology());
            let mut sim = Simulation::new(
                topology,
                SimulationConfig::default().with_delivery_parallelism(delivery),
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
        let reference = run(1);
        assert!(reference.1.delivered > 0);
        assert!(reference.1.dropped_no_node > 0);
        for delivery in [2, 4] {
            let ahead = run(delivery);
            assert_eq!(ahead.0, reference.0, "paths at width {delivery}");
            assert_eq!(ahead.1, reference.1, "stats at width {delivery}");
            assert_eq!(ahead.2, reference.2, "occupancy at width {delivery}");
            assert_eq!(ahead.3, reference.3, "overhead at width {delivery}");
        }
    }

    /// A node whose round fails ends the round with its error, the outputs of the nodes
    /// before it scheduled, and the round not counted: neither `rounds_run` nor the
    /// scheduler accounting moves, at any verify width.
    #[test]
    fn a_failing_node_leaves_the_round_uncounted() {
        for delivery in [1, 2] {
            let topology = Arc::new(figure1_topology());
            let mut sim = Simulation::new(
                topology,
                SimulationConfig::default().with_delivery_parallelism(delivery),
                |_| {
                    NodeConfig::default()
                        .with_policy(PropagationPolicy::All)
                        .with_racs(vec![
                            RacConfig::static_rac("5SP", "5SP"),
                            RacConfig::on_demand_rac("od"),
                        ])
                },
            )
            .unwrap();
            sim.run_rounds(2).unwrap();
            // A beacon that names an algorithm nobody published fails X's on-demand RAC.
            let registry = KeyRegistry::with_ases(42, 64);
            let reference = AlgorithmRef::new(AlgorithmId(9), irec_crypto::sha256(b"unpublished"));
            let mut pcb = Pcb::originate(
                figure1::DST,
                0,
                sim.now(),
                sim.now() + SimDuration::from_hours(6),
                PcbExtensions::none().with_algorithm(reference),
            );
            pcb.extend(
                IfId::NONE,
                IfId(1),
                StaticInfo::origin(Latency::from_millis(5), Bandwidth::from_mbps(100), None),
                &Signer::new(figure1::DST, registry),
            )
            .unwrap();
            let ingress = *sim
                .topology()
                .as_node(figure1::X)
                .unwrap()
                .interfaces
                .keys()
                .next()
                .unwrap();
            sim.node(figure1::X)
                .unwrap()
                .ingress()
                .db()
                .insert(pcb, ingress, sim.now());
            assert_eq!(sim.pending_events(), 0);
            assert!(sim.run_rounds(1).is_err(), "width {delivery}");
            assert_eq!(sim.rounds_run(), 2, "width {delivery}");
            assert_eq!(sim.scheduler_stats().rounds, 2, "width {delivery}");
            // Src, before X in `AsId` order, still had its output scheduled.
            assert!(sim.pending_events() > 0, "width {delivery}");
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
        let run = |delivery: usize| {
            let topology = Arc::new(figure1_topology());
            let mut sim = Simulation::new(
                topology,
                SimulationConfig::default().with_delivery_parallelism(delivery),
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
        let reference = run(1);
        assert!(reference.1.dropped_link_down > 0);
        for delivery in [2, 4] {
            let ahead = run(delivery);
            assert_eq!(ahead.0, reference.0, "paths at width {delivery}");
            assert_eq!(ahead.1, reference.1, "stats at width {delivery}");
            assert_eq!(ahead.2, reference.2, "occupancy at width {delivery}");
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
