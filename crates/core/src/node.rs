//! The per-AS IREC node: ingress gateway + RACs + egress gateway + path service, driven in
//! rounds by the simulator.

use crate::config::{NodeConfig, RacConfig, RacKind};
use crate::egress::{EgressGateway, OriginationSpec};
use crate::engine::SelectionTables;
use crate::ingress::{IngressGateway, Verdict};
use crate::messages::{PcbMessage, PullReturn};
use crate::path_service::{RegisteredPath, ShardedPathService};
use crate::rac::{AlgorithmFetcher, Rac, RacTiming, SharedAlgorithmStore};
use irec_algorithms::incremental::IncrementalStats;
use irec_crypto::{KeyRegistry, Signer, Verifier};
use irec_irvm::Program;
use irec_pcb::AlgorithmRef;
use irec_topology::{InterfaceGroups, Topology};
use irec_types::{AlgorithmId, AsId, IfId, Result, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Minimum ingress-database occupancy before the per-round eviction sweep fans out over
/// shard worker threads; below this the serial sweep is faster than the thread spawns.
const PARALLEL_EVICTION_MIN_OCCUPANCY: usize = 1024;

/// Everything one beaconing round of a node produces, for the simulator to deliver and
/// account.
#[derive(Debug, Default)]
pub struct RoundOutput {
    /// PCBs to deliver to neighboring ASes.
    pub messages: Vec<PcbMessage>,
    /// Pull-based beacons to return to their origin ASes.
    pub pull_returns: Vec<PullReturn>,
    /// PCBs sent per local egress interface during this round (Fig. 8c accounting).
    pub sent_per_interface: BTreeMap<IfId, u64>,
    /// Accumulated RAC processing timings of the round.
    pub timing: RacTiming,
}

/// The control plane of a single AS.
pub struct IrecNode {
    asn: AsId,
    config: NodeConfig,
    topology: Arc<Topology>,
    ingress: IngressGateway,
    egress: EgressGateway,
    racs: Vec<Rac>,
    /// Interface groups this AS originates with (flexible granularity, §IV-D).
    interface_groups: Option<InterfaceGroups>,
    /// Additional origination specs (pull-based / on-demand requests), beyond the periodic
    /// plain origination. Each entry is originated every round until removed.
    extra_originations: Vec<OriginationSpec>,
    /// The store this node publishes its own on-demand algorithm modules to.
    algorithm_store: SharedAlgorithmStore,
    /// Last round's selections per `(RAC, batch)` and the cursors into the ingress
    /// database that tell the RAC engine which of them still stand (see
    /// [`SelectionTables`]). Read and written by the engine's serial phases only.
    selection_tables: SelectionTables,
    round: u64,
}

impl Clone for IrecNode {
    /// Deep-clones the node's mutable state — ingress/egress databases, path service, RAC
    /// caches, counters — so a cloned simulation snapshot evolves independently of the
    /// original (the parallel PD campaign runs one clone per `(origin, target)` pair).
    ///
    /// Two pieces stay **shared** by design: the topology (immutable) and the on-demand
    /// algorithm store (a shared publish/fetch registry keyed by `(origin, algorithm id)`;
    /// publishers must use distinct ids across concurrently-running clones, which the PD
    /// campaign guarantees via per-pair id bases).
    fn clone(&self) -> Self {
        IrecNode {
            asn: self.asn,
            config: self.config.clone(),
            topology: Arc::clone(&self.topology),
            ingress: self.ingress.clone(),
            egress: self.egress.clone(),
            racs: self.racs.clone(),
            interface_groups: self.interface_groups.clone(),
            extra_originations: self.extra_originations.clone(),
            algorithm_store: self.algorithm_store.clone(),
            selection_tables: self.selection_tables.clone(),
            round: self.round,
        }
    }
}

impl IrecNode {
    /// A copy-on-write clone of the node: the ingress database and path service share
    /// their shards structurally with the original (O(shards) pointer copies each, via
    /// [`IngressGateway::cow_clone`] / [`EgressGateway::cow_clone`]), and a shard is
    /// materialized only when one side writes to it. The small remaining state — RAC
    /// caches, counters, origination specs — is copied eagerly, and the topology and
    /// algorithm store stay shared exactly as in [`Clone`]. This is the per-node building
    /// block of `Simulation::snapshot`.
    pub fn cow_clone(&self) -> Self {
        IrecNode {
            asn: self.asn,
            config: self.config.clone(),
            topology: Arc::clone(&self.topology),
            ingress: self.ingress.cow_clone(),
            egress: self.egress.cow_clone(),
            racs: self.racs.clone(),
            interface_groups: self.interface_groups.clone(),
            extra_originations: self.extra_originations.clone(),
            algorithm_store: self.algorithm_store.clone(),
            selection_tables: self.selection_tables.clone(),
            round: self.round,
        }
    }

    /// Creates a node for `asn` with the given configuration.
    ///
    /// `registry` is the shared control-plane PKI; `store` the shared on-demand algorithm
    /// store (publish/fetch).
    pub fn new(
        asn: AsId,
        config: NodeConfig,
        topology: Arc<Topology>,
        registry: KeyRegistry,
        store: SharedAlgorithmStore,
    ) -> Result<Self> {
        let signer = Signer::new(asn, registry.clone());
        let verifier = Verifier::new(registry);
        let racs = build_racs(&config.racs, config.irec_enabled, &store)?;
        let ingress = IngressGateway::with_shards(asn, verifier, config.ingress_shard_count());
        let egress = EgressGateway::with_path_shards(
            asn,
            Arc::clone(&topology),
            signer,
            config.policy,
            config.path_shard_count(),
        );
        Ok(IrecNode {
            asn,
            config,
            topology,
            ingress,
            egress,
            racs,
            interface_groups: None,
            extra_originations: Vec::new(),
            algorithm_store: store,
            selection_tables: SelectionTables::new(),
            round: 0,
        })
    }

    /// The AS this node belongs to.
    pub fn asn(&self) -> AsId {
        self.asn
    }

    /// The node configuration.
    pub fn config(&self) -> &NodeConfig {
        &self.config
    }

    /// The node's path service (registered paths available to endpoints).
    pub fn path_service(&self) -> &ShardedPathService {
        self.egress.path_service()
    }

    /// The ingress gateway (exposed for tests and the simulator's bootstrap).
    pub fn ingress(&self) -> &IngressGateway {
        &self.ingress
    }

    /// Number of beaconing rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.round
    }

    /// Configures the interface groups this AS originates with. `None` (the default) means
    /// plain origination without group tags.
    pub fn set_interface_groups(&mut self, groups: Option<InterfaceGroups>) {
        self.interface_groups = groups;
    }

    /// Publishes an on-demand algorithm module under this AS's identity and returns the
    /// reference to embed in originated PCBs.
    pub fn publish_algorithm(&self, id: AlgorithmId, program: &Program) -> AlgorithmRef {
        self.algorithm_store
            .publish(self.asn, id, program.to_module_bytes())
    }

    /// Adds an extra origination spec (e.g. a pull-based/on-demand request towards a target).
    /// It is originated every round until [`IrecNode::clear_extra_originations`] is called.
    pub fn add_origination(&mut self, spec: OriginationSpec) {
        self.extra_originations.push(spec);
    }

    /// Removes all extra origination specs.
    pub fn clear_extra_originations(&mut self) {
        self.extra_originations.clear();
    }

    /// Handles a PCB received from a neighbor. Verification/policy failures are reported but
    /// are not fatal to the node.
    ///
    /// Equivalent to [`IrecNode::verify_message`] followed by [`IrecNode::apply_message`];
    /// the simulator's delivery plane runs the two stages separately so the expensive
    /// verification fans out over worker threads while the commit stays serial.
    pub fn handle_message(&mut self, message: PcbMessage, now: SimTime) -> Result<()> {
        let verdict = self.verify_message(&message, now);
        self.apply_message(message, now, verdict)
    }

    /// The pure verification stage of message handling: signature, expiry and policy checks
    /// against immutable node state. Safe to run concurrently for many messages — the
    /// verdict must not depend on what other in-flight messages of the same delivery epoch
    /// will commit (dedup and statistics live in [`IrecNode::apply_message`]). The verdict
    /// of an accepted message carries the beacon's id (see [`Verdict`]); hand it to
    /// [`IrecNode::apply_message`] together with the same message.
    pub fn verify_message(&self, message: &PcbMessage, now: SimTime) -> Verdict {
        self.ingress.verify(&message.pcb, now)
    }

    /// The apply stage of message handling: accounts the precomputed `verdict` and, on
    /// success, commits the beacon to the ingress database. Messages of one origin must be
    /// applied in delivery order; messages whose origins hash to different ingress shards
    /// are independent.
    pub fn apply_message(
        &mut self,
        message: PcbMessage,
        now: SimTime,
        verdict: Verdict,
    ) -> Result<()> {
        self.ingress
            .commit(message.pcb, message.to_if, now, verdict)
    }

    /// Number of shards of this node's ingress database.
    pub fn ingress_shard_count(&self) -> usize {
        self.ingress.db().shard_count()
    }

    /// The ingress shard a beacon from `origin` commits to.
    pub fn ingress_shard_of(&self, origin: irec_types::AsId) -> usize {
        self.ingress.db().shard_of(origin)
    }

    /// [`IrecNode::apply_message`] with the shard precomputed by the caller, through
    /// `&self`: the delivery plane's sharded apply stage commits per-shard inboxes of a
    /// whole epoch concurrently — different `(node, shard)` pairs never contend, and the
    /// per-shard delivery order is preserved by the caller.
    pub fn apply_message_in_shard(
        &self,
        shard: usize,
        message: PcbMessage,
        now: SimTime,
        verdict: Verdict,
    ) -> Result<()> {
        self.ingress
            .commit_in_shard(shard, message.pcb, message.to_if, now, verdict)
    }

    /// Handles a pull-based beacon returned by its target (§IV-B): the completed path is
    /// registered at the local path service, tagged as pull-based. Takes `&self` — the
    /// path service is sharded per destination behind interior locks, so pull-return
    /// commits for different destinations can run concurrently (the delivery plane's
    /// sharded apply stage relies on this).
    pub fn handle_pull_return(&self, ret: PullReturn, now: SimTime) {
        let shard = self.path_shard_of(ret.from_as);
        self.handle_pull_return_in_shard(shard, ret, now);
    }

    /// [`IrecNode::handle_pull_return`] with the path-service shard precomputed by the
    /// caller (the delivery plane partitions a whole epoch's pull returns into
    /// per-`(destination AS, path shard)` inboxes before fanning the commits out).
    /// Registrations for the same shard must be applied in delivery order; different
    /// shards never contend.
    pub fn handle_pull_return_in_shard(&self, shard: usize, ret: PullReturn, now: SimTime) {
        let pcb = &ret.pcb;
        let Some(origin_interface) = pcb.origin_interface() else {
            return;
        };
        // The returned beacon describes a path from this AS (the beacon origin) to the
        // target; register it with the target as the destination. A returned beacon is
        // not stored, so this is the one place its id is needed — hashed here, by the AS
        // that registers it, not taken from the sender.
        self.egress.path_service().register_in_shard(
            shard,
            RegisteredPath {
                pcb_id: pcb.digest(),
                destination: ret.from_as,
                destination_interface: ret.target_ingress,
                local_interface: origin_interface,
                algorithm: "PD".to_string(),
                group: pcb
                    .extensions
                    .interface_group
                    .unwrap_or(irec_types::InterfaceGroupId::DEFAULT),
                metrics: pcb.path_metrics(),
                links: pcb.link_keys(),
                registered_at: now,
            },
        );
    }

    /// The path-service shard a path towards `destination` registers in.
    pub fn path_shard_of(&self, destination: irec_types::AsId) -> usize {
        self.egress.path_service().shard_of(destination)
    }

    /// Runs one beaconing round: originate fresh beacons, run every RAC over the ingress
    /// database, process the selections through the egress gateway, then run the round's
    /// housekeeping.
    ///
    /// Equivalent to [`IrecNode::beaconing_round_core`] followed by
    /// [`IrecNode::round_housekeeping`]; the simulator's DAG scheduler runs the two halves
    /// as separate work items so eviction sweeps overlap other nodes' work instead of
    /// extending the round's critical path.
    pub fn beaconing_round(&mut self, now: SimTime) -> Result<RoundOutput> {
        let mut output = self.beaconing_round_core(now)?;
        output.sent_per_interface = self.round_housekeeping(now);
        Ok(output)
    }

    /// The productive phases of one beaconing round — origination, RAC execution, egress
    /// processing — without the trailing housekeeping. The returned output's
    /// `sent_per_interface` is left empty; [`IrecNode::round_housekeeping`] yields it.
    pub fn beaconing_round_core(&mut self, now: SimTime) -> Result<RoundOutput> {
        self.round += 1;
        let mut output = RoundOutput::default();

        // 1. Origination (periodic, §V-D "PCB Initialization").
        let all_interfaces: Vec<IfId> = self
            .topology
            .as_node(self.asn)?
            .interfaces
            .keys()
            .copied()
            .collect();
        let base_spec = match (&self.interface_groups, self.config.irec_enabled) {
            (Some(groups), true) => {
                let mut by_group = BTreeMap::new();
                for gid in groups.group_ids() {
                    by_group.insert(gid, groups.members(gid).to_vec());
                }
                OriginationSpec::grouped(by_group)
            }
            _ => OriginationSpec::plain(all_interfaces.clone()),
        };
        output.messages.extend(self.egress.originate(
            &base_spec,
            now,
            self.config.beacon_validity,
        )?);
        if self.config.irec_enabled {
            let extra = self.extra_originations.clone();
            for spec in &extra {
                output.messages.extend(self.egress.originate(
                    spec,
                    now,
                    self.config.beacon_validity,
                )?);
            }
        }

        // 2. RAC processing (§V-C): run every RAC through the execution engine —
        // sequentially or fanned out over worker threads, with byte-identical results (see
        // `crate::engine`). The engine re-selects only where the ingress database changed
        // since the last round and serves every other batch's outputs from the node's
        // tables; what comes back is what a from-scratch pass would select, in its order.
        let local_as = self.topology.as_node(self.asn)?;
        let (batches, timing) = crate::engine::execute_racs_cached(
            &self.racs,
            self.ingress.db(),
            local_as,
            &all_interfaces,
            now,
            self.config.parallelism,
            &mut self.selection_tables,
        )?;
        output.timing.accumulate(&timing);

        // 3. Egress processing (§V-D) — of every selection, every round: registrations
        // refresh the paths' `registered_at`, which drives the path service's eviction.
        let (messages, returns) = self
            .egress
            .process_outputs(batches.iter().map(|batch| &**batch), now)?;
        output.messages.extend(messages);
        output.pull_returns = returns;
        Ok(output)
    }

    /// The round's housekeeping (phase 4 of [`IrecNode::beaconing_round`]): expiry
    /// eviction and the per-round send counters. The eviction sweep fans out over the
    /// ingress shards with the same worker budget as the RAC engine — but only when the
    /// database is large enough for per-shard threads to beat their spawn cost: this runs
    /// once per node per round, possibly already inside a node-phase worker, and a
    /// near-empty sweep is a cheap map walk. The eviction outcome is shard- and
    /// worker-count independent either way.
    ///
    /// Returns — and resets — the per-interface send counters accumulated since the last
    /// call; skipped entirely (counters left accumulating) when the round core failed.
    pub fn round_housekeeping(&mut self, now: SimTime) -> BTreeMap<IfId, u64> {
        let eviction_workers = if self.ingress.db().len() >= PARALLEL_EVICTION_MIN_OCCUPANCY {
            self.config.parallelism
        } else {
            1
        };
        self.ingress.db().evict_expired_parallel(
            now,
            irec_types::SimDuration::ZERO,
            eviction_workers,
        );
        self.egress.evict_expired(now);
        self.egress.take_sent_counters()
    }

    /// Snapshot of the node's selection-table counters: `(RAC, batch)` selections reused,
    /// extended and recomputed so far, and kept selections dropped by catalog swaps.
    ///
    /// There is no way to *tell* a node that the network changed, and no need: what a link
    /// flap, a neighbour's departure or a withdrawal sweep does to this node's candidates
    /// reaches its selection tables through the ingress database's own change stamps.
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.selection_tables.stats()
    }

    /// Forgets the egress gateway's propagation-dedup marks for `egress` (see
    /// [`EgressGateway::forget_egress`]): the next selection of each beacon is re-sent on
    /// that interface. Part of node-rejoin hygiene.
    pub fn forget_egress(&mut self, egress: IfId) -> usize {
        self.egress.forget_egress(egress)
    }

    /// Replaces the node's RAC catalog live, mid-run — the building block of staged
    /// configuration migrations (the churn engine's `CatalogSwap` delta). The new RACs are
    /// built exactly as [`IrecNode::new`] builds the initial catalog (including the
    /// `irec_enabled` gating) and start with fresh execution caches; the ingress database,
    /// path service and counters are untouched, so previously registered paths survive the
    /// swap and the next beaconing round re-selects from the stored beacons under the new
    /// catalog. On error (e.g. an unknown static algorithm) the node is left unchanged.
    pub fn swap_rac_catalog(&mut self, racs: Vec<RacConfig>) -> Result<()> {
        self.racs = build_racs(&racs, self.config.irec_enabled, &self.algorithm_store)?;
        self.config.racs = racs;
        // The selection tables notice a changed catalog on their own: they are bound to the
        // RAC configurations they were filled under.
        Ok(())
    }
}

/// Builds the RAC catalog a node runs each round: one [`Rac`] per config entry, on-demand
/// RACs wired to the shared algorithm store, extension processing gated on `irec_enabled`.
/// Shared by [`IrecNode::new`] and [`IrecNode::swap_rac_catalog`].
fn build_racs(
    configs: &[RacConfig],
    irec_enabled: bool,
    store: &SharedAlgorithmStore,
) -> Result<Vec<Rac>> {
    let mut racs = Vec::with_capacity(configs.len());
    for rac_config in configs {
        let mut rac = match &rac_config.kind {
            RacKind::Static { .. } => Rac::new_static(rac_config.clone())?,
            RacKind::OnDemand => Rac::new_on_demand(
                rac_config.clone(),
                Arc::new(store.clone()) as Arc<dyn AlgorithmFetcher>,
            )?,
        };
        if !irec_enabled {
            rac.set_ignore_extensions(true);
        }
        racs.push(rac);
    }
    Ok(racs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PropagationPolicy;
    use irec_pcb::PcbExtensions;
    use irec_topology::builder::figure1_topology;
    use irec_types::SimDuration;

    fn setup(
        asn: u64,
        config: NodeConfig,
    ) -> (IrecNode, Arc<Topology>, KeyRegistry, SharedAlgorithmStore) {
        let topology = Arc::new(figure1_topology());
        let registry = KeyRegistry::with_ases(1, 16);
        let store = SharedAlgorithmStore::new();
        let node = IrecNode::new(
            AsId(asn),
            config.with_policy(PropagationPolicy::All),
            Arc::clone(&topology),
            registry.clone(),
            store.clone(),
        )
        .unwrap();
        (node, topology, registry, store)
    }

    #[test]
    fn first_round_originates_on_every_interface() {
        let (mut node, topology, _, _) = setup(3, NodeConfig::default());
        let out = node.beaconing_round(SimTime::ZERO).unwrap();
        let degree = topology.as_node(AsId(3)).unwrap().degree();
        assert_eq!(out.messages.len(), degree);
        assert_eq!(
            out.sent_per_interface.values().sum::<u64>() as usize,
            degree
        );
        assert_eq!(node.rounds(), 1);
    }

    #[test]
    fn received_beacons_are_selected_propagated_and_registered() {
        // Node 1 (Src) receives a beacon from node 3 (Dst) via AS2 and must propagate it to Y
        // (AS4) while registering the path.
        let (mut dst, _, _, _) = setup(3, NodeConfig::default());
        let (mut src, _, _, _) = setup(1, NodeConfig::default());

        let dst_out = dst.beaconing_round(SimTime::ZERO).unwrap();
        // Find the message addressed to AS1 (link Src-X is AS1-AS2; Dst's neighbors are 2,4,5;
        // so route via AS2 requires one more hop — instead deliver the one addressed to AS2's
        // ingress... For this unit test simply deliver any message addressed to AS4 or AS2 to
        // the source as if it had traversed the network).
        let msg_to_src = dst_out
            .messages
            .iter()
            .find(|m| m.to_as == AsId(2) || m.to_as == AsId(4))
            .cloned()
            .unwrap();
        // Re-address the delivery to the source's interface 1 for the purpose of this test.
        let delivered = PcbMessage {
            to_as: AsId(1),
            to_if: IfId(1),
            ..msg_to_src
        };
        src.handle_message(delivered, SimTime::ZERO).unwrap();
        assert_eq!(src.ingress().db().len(), 1);

        let out = src.beaconing_round(SimTime::from_micros(1)).unwrap();
        // The source registered a path towards AS3.
        assert!(!src.path_service().paths_to(AsId(3)).is_empty());
        // And propagated the beacon on its other interface.
        assert!(out
            .messages
            .iter()
            .any(|m| m.pcb.origin == AsId(3) && m.pcb.len() == 2));
    }

    #[test]
    fn pull_return_registers_a_pd_path() {
        let (node, _, registry, _) = setup(1, NodeConfig::default());
        // Build a pull-based beacon originated by AS1 that reached its target AS3.
        let signer = Signer::new(AsId(1), registry.clone());
        let mut pcb = irec_pcb::Pcb::originate(
            AsId(1),
            0,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(6),
            PcbExtensions::none().with_target(AsId(3)),
        );
        pcb.extend(
            IfId::NONE,
            IfId(1),
            irec_pcb::StaticInfo::origin(
                irec_types::Latency::from_millis(10),
                irec_types::Bandwidth::from_mbps(100),
                None,
            ),
            &signer,
        )
        .unwrap();
        node.handle_pull_return(
            PullReturn {
                from_as: AsId(3),
                to_as: AsId(1),
                target_ingress: IfId(2),
                pcb,
            },
            SimTime::ZERO,
        );
        let paths = node.path_service().paths_to(AsId(3));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].algorithm, "PD");
    }

    #[test]
    fn extra_origination_carries_extensions() {
        let (mut node, _, _, _) = setup(1, NodeConfig::default());
        let program = irec_irvm::programs::lowest_latency(5);
        let reference = node.publish_algorithm(AlgorithmId(1), &program);
        node.add_origination(
            OriginationSpec::plain(vec![IfId(1)]).with_extensions(
                PcbExtensions::none()
                    .with_target(AsId(3))
                    .with_algorithm(reference),
            ),
        );
        let out = node.beaconing_round(SimTime::ZERO).unwrap();
        let tagged: Vec<_> = out
            .messages
            .iter()
            .filter(|m| m.pcb.extensions.target == Some(AsId(3)))
            .collect();
        assert_eq!(tagged.len(), 1);
        assert!(tagged[0].pcb.extensions.algorithm.is_some());
        node.clear_extra_originations();
        let out2 = node.beaconing_round(SimTime::from_micros(1)).unwrap();
        assert!(out2
            .messages
            .iter()
            .all(|m| m.pcb.extensions.target.is_none()));
    }

    #[test]
    fn grouped_origination_uses_configured_groups() {
        let (mut node, topology, _, _) = setup(3, NodeConfig::default());
        let as_node = topology.as_node(AsId(3)).unwrap();
        node.set_interface_groups(Some(InterfaceGroups::per_interface(as_node)));
        let out = node.beaconing_round(SimTime::ZERO).unwrap();
        // Dst has 3 interfaces => 3 groups => every beacon carries a distinct group tag.
        let groups: std::collections::HashSet<_> = out
            .messages
            .iter()
            .filter_map(|m| m.pcb.extensions.interface_group)
            .collect();
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn legacy_node_ignores_extensions_but_stays_interoperable() {
        let (mut legacy, _, registry, _) = setup(2, NodeConfig::legacy());
        // A pull-based, on-demand beacon arrives at the legacy node.
        let signer = Signer::new(AsId(3), registry.clone());
        let mut pcb = irec_pcb::Pcb::originate(
            AsId(3),
            0,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(6),
            PcbExtensions::none().with_target(AsId(1)),
        );
        pcb.extend(
            IfId::NONE,
            IfId(1),
            irec_pcb::StaticInfo::origin(
                irec_types::Latency::from_millis(10),
                irec_types::Bandwidth::from_mbps(100),
                None,
            ),
            &signer,
        )
        .unwrap();
        legacy
            .handle_message(
                PcbMessage {
                    from_as: AsId(3),
                    from_if: IfId(1),
                    to_as: AsId(2),
                    to_if: IfId(2),
                    pcb,
                },
                SimTime::ZERO,
            )
            .unwrap();
        let out = legacy.beaconing_round(SimTime::from_micros(1)).unwrap();
        // The legacy node processes and propagates the beacon like any other (no crash, no
        // special handling), preserving connectivity.
        assert!(out
            .messages
            .iter()
            .any(|m| m.pcb.origin == AsId(3) && m.pcb.len() == 2));
    }

    #[test]
    fn paper_simulation_config_runs_all_five_racs() {
        let (mut node, _, _, _) = setup(1, NodeConfig::paper_simulation(false));
        let out = node.beaconing_round(SimTime::ZERO).unwrap();
        // With an empty ingress DB only origination happens, but all RACs ran without error.
        assert!(out.timing.candidates == 0);
        assert!(!out.messages.is_empty());
    }
}
