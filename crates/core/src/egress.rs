//! The egress gateway (§V-D): PCB origination, deduplication, extension with the local hop
//! entry, propagation to neighbors, pull-based returns, and path registration.

use crate::beacon_db::{AscendingIfIds, EgressDb, StoredBeacon};
use crate::config::PropagationPolicy;
use crate::engine::{BatchOutputs, BatchSelection};
use crate::messages::{PcbMessage, PullReturn};
use crate::path_service::{KeyVersion, ShardedPathService};
use irec_crypto::Signer;
use irec_pcb::{HopExtender, Pcb, PcbExtensions, StaticInfo};
use irec_topology::{LinkEnd, Topology};
use irec_types::{
    AsId, GeoCoord, IfId, InterfaceGroupId, Latency, LinkMetrics, Result, SimDuration, SimTime,
};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, Weak};

/// What an AS originates each beaconing round: for every interface group, the member
/// interfaces to send fresh beacons on, plus the extensions to attach (the same `extensions`
/// are attached to every beacon of this spec, with the group id filled in per group).
#[derive(Debug, Clone, PartialEq)]
pub struct OriginationSpec {
    /// Member interfaces per interface group. A single default group containing every
    /// interface reproduces legacy SCION origination.
    pub groups: BTreeMap<InterfaceGroupId, Vec<IfId>>,
    /// Extensions to attach (target for pull-based routing, algorithm for on-demand routing).
    /// The interface-group extension is set automatically per group.
    pub extensions: PcbExtensions,
    /// Whether to include the interface-group extension (origins that do not opt into
    /// flexible granularity leave it out entirely).
    pub tag_groups: bool,
}

impl OriginationSpec {
    /// A legacy-style spec: one default group with the given interfaces and no extensions.
    pub fn plain(interfaces: Vec<IfId>) -> Self {
        let mut groups = BTreeMap::new();
        groups.insert(InterfaceGroupId::DEFAULT, interfaces);
        OriginationSpec {
            groups,
            extensions: PcbExtensions::none(),
            tag_groups: false,
        }
    }

    /// A grouped spec originating per interface group (flexible granularity, §IV-D).
    pub fn grouped(groups: BTreeMap<InterfaceGroupId, Vec<IfId>>) -> Self {
        OriginationSpec {
            groups,
            extensions: PcbExtensions::none(),
            tag_groups: true,
        }
    }

    /// Builder-style: attach extensions (target and/or algorithm) to every originated beacon.
    #[must_use]
    pub fn with_extensions(mut self, extensions: PcbExtensions) -> Self {
        self.extensions = extensions;
        self
    }
}

/// Counters kept by the egress gateway; the per-interface send counts feed the Fig. 8c
/// overhead metric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EgressStats {
    /// PCBs sent per egress interface (cumulative).
    pub sent_per_interface: BTreeMap<IfId, u64>,
    /// Pull-based beacons returned to their origins.
    pub pull_returns: u64,
    /// Paths registered at the path service.
    pub registered: u64,
    /// Selections the gateway recognised as last round's and did not walk again for
    /// propagation (see [`EgressGateway::process_outputs`]).
    pub selections_replayed: u64,
    /// Of `registered`, the registrations refreshed by replaying last round's walk.
    pub registrations_replayed: u64,
}

impl EgressStats {
    /// Total PCBs sent.
    pub fn total_sent(&self) -> u64 {
        self.sent_per_interface.values().sum()
    }
}

/// What the gateway reads off the topology about the inter-domain link behind one of its
/// interfaces, as seen from the local AS.
#[derive(Debug)]
struct AttachedLink {
    metrics: LinkMetrics,
    /// Whether the neighbour is a customer of the local AS (the Gao–Rexford export rules
    /// ask nothing else about a link).
    to_customer: bool,
    /// The far end; `None` on a link the topology does not attach to the local AS, over
    /// which nothing can be sent.
    neighbor: Option<LinkEnd>,
}

/// One interface of the local AS.
#[derive(Debug)]
struct LocalInterface {
    id: IfId,
    location: GeoCoord,
    /// `None` when the topology has no link for the interface.
    link: Option<AttachedLink>,
}

/// The local AS's interfaces, ascending by id: everything the export policy and the hop
/// entries of outgoing beacons take from the topology.
///
/// Built from the gateway's `Arc<Topology>` on first use rather than at construction, so
/// that building a node stays free of topology walks. It stays valid for the gateway's
/// lifetime because nothing mutates the topology behind the `Arc` — a link going down is a
/// drop at delivery time, not a change to the graph.
#[derive(Debug, Default)]
struct LocalInterfaces {
    crossing_latency: Latency,
    by_id: Box<[LocalInterface]>,
    /// The interfaces with a link, ascending: where a beacon learned from a customer may
    /// be exported (Gao–Rexford: to everyone).
    linked: Box<[IfId]>,
    /// The interfaces whose link leads to a customer, ascending: where a beacon learned
    /// from a provider or a peer may be exported.
    to_customers: Box<[IfId]>,
}

impl LocalInterfaces {
    fn of(topology: &Topology, local_as: AsId) -> Self {
        let Ok(node) = topology.as_node(local_as) else {
            return LocalInterfaces::default();
        };
        let by_id: Box<[LocalInterface]> = node
            .interfaces
            .values()
            .map(|interface| LocalInterface {
                id: interface.id,
                location: interface.location,
                link: topology.link(interface.link).ok().map(|link| AttachedLink {
                    metrics: link.metrics,
                    to_customer: link
                        .relationship_from(local_as)
                        .is_some_and(|r| r.neighbor_is_customer()),
                    neighbor: link.other_end(local_as),
                }),
            })
            .collect();
        let with_link = |wanted: fn(&AttachedLink) -> bool| {
            by_id
                .iter()
                .filter(|interface| interface.link.as_ref().is_some_and(wanted))
                .map(|interface| interface.id)
                .collect()
        };
        LocalInterfaces {
            crossing_latency: node.local_crossing_latency,
            linked: with_link(|_| true),
            to_customers: with_link(|link| link.to_customer),
            by_id,
        }
    }

    fn get(&self, id: IfId) -> Option<&LocalInterface> {
        self.by_id
            .binary_search_by_key(&id, |interface| interface.id)
            .ok()
            .map(|at| &self.by_id[at])
    }

    /// What the hop entry of a beacon that came in on `ingress` shares when it leaves on
    /// `egress`, and whom it reaches there; `None` where nothing can be sent — an interface
    /// the topology does not know, has no link for, or whose link is not this AS's.
    fn hop_towards(
        &self,
        ingress: Option<&LocalInterface>,
        egress: IfId,
    ) -> Option<(StaticInfo, LinkEnd)> {
        let interface = self.get(egress)?;
        let link = interface.link.as_ref()?;
        let info = StaticInfo {
            link_latency: link.metrics.latency,
            link_bandwidth: link.metrics.bandwidth,
            // `AsNode::intra_latency`, with an unknown ingress crossing for free.
            intra_latency: match ingress {
                Some(ingress) if ingress.id != egress => {
                    ingress.location.propagation_delay(&interface.location) + self.crossing_latency
                }
                _ => Latency::ZERO,
            },
            egress_location: Some(interface.location),
        };
        Some((info, link.neighbor?))
    }
}

/// What processing one selection left behind that lets the gateway process it again without
/// walking it (see [`EgressGateway::process_outputs`]).
#[derive(Debug, Clone)]
struct Replay {
    /// The selection, held weakly: its allocation — and so its address, under which the
    /// record is found — cannot be taken by another selection while the record lives, and
    /// its beacons are not kept alive for it.
    selection: Weak<BatchSelection>,
    /// The earliest expiry among the winners the gateway propagates: until then no expiry
    /// sweep removes a dedup mark of theirs.
    valid_until: SimTime,
    /// The version the registration walk left the selection's key at, when a replay can
    /// stand in for walking it again; `None` walks it.
    registered: Option<KeyVersion>,
    /// In [`Memory::indices`]: `start..returns` are the positions that walk refreshed,
    /// `returns..end` the winners returned to their origin instead of propagated.
    start: u32,
    returns: u32,
    end: u32,
}

impl Replay {
    fn address(&self) -> usize {
        self.selection.as_ptr() as usize
    }
}

/// A winner index or an offset into [`Memory::indices`], as the records store it.
fn narrow(value: usize) -> u32 {
    u32::try_from(value).expect("a call processes fewer than 2^32 winners")
}

/// One [`EgressGateway::process_outputs`] call's records, in two allocations.
#[derive(Debug, Default)]
struct Memory {
    /// One per selection, ascending by address.
    records: Vec<Replay>,
    /// What the records' ranges refer to.
    indices: Vec<u32>,
}

/// What the last [`EgressGateway::process_outputs`] call remembers, and what has happened
/// to the dedup database since.
#[derive(Debug, Clone, Default)]
struct Replays {
    /// `None` before the first call. Shared by clones of the gateway, which replace it with
    /// their next call rather than write to it.
    last: Option<Arc<Memory>>,
    /// The latest instant an expiry sweep removed dedup entries at since the call.
    swept: SimTime,
}

/// The egress gateway of one AS.
pub struct EgressGateway {
    local_as: AsId,
    topology: Arc<Topology>,
    signer: Signer,
    policy: PropagationPolicy,
    /// The propagation dedup database, behind an [`Arc`] so [`EgressGateway::cow_clone`]
    /// can share it structurally; every write path goes through [`Arc::make_mut`], which
    /// copies the database on the first mutation after a share.
    db: Arc<EgressDb>,
    path_service: ShardedPathService,
    stats: EgressStats,
    sequence: u64,
    /// See [`LocalInterfaces`]; clones share what is already built.
    interfaces: OnceLock<Arc<LocalInterfaces>>,
    /// See [`EgressGateway::process_outputs`]. Never stored on the selections themselves:
    /// copy-on-write snapshots share selections, but not path services or dedup marks.
    replays: Replays,
}

impl Clone for EgressGateway {
    /// A **deep** clone: the dedup database and the path service are fully copied, so
    /// the clone shares no mutable state with the original. This is the reference
    /// implementation the copy-on-write [`EgressGateway::cow_clone`] must stay
    /// byte-equivalent to.
    fn clone(&self) -> Self {
        EgressGateway {
            local_as: self.local_as,
            topology: Arc::clone(&self.topology),
            signer: self.signer.clone(),
            policy: self.policy,
            db: Arc::new(self.db.as_ref().clone()),
            path_service: self.path_service.clone(),
            stats: self.stats.clone(),
            sequence: self.sequence,
            interfaces: self.interfaces.clone(),
            replays: self.replays.clone(),
        }
    }
}

impl EgressGateway {
    /// A copy-on-write clone: the path service is structurally shared via
    /// [`ShardedPathService::cow_clone`] (one pointer copy; it is materialized only when
    /// one side registers into it) and the propagation dedup
    /// database is shared via one `Arc` bump (copied in whole by whichever side first
    /// records a propagation or evicts an expired entry). The counters are copied
    /// eagerly. Used by `Simulation::snapshot` for the PD campaign's per-pair snapshots.
    pub fn cow_clone(&self) -> Self {
        EgressGateway {
            local_as: self.local_as,
            topology: Arc::clone(&self.topology),
            signer: self.signer.clone(),
            policy: self.policy,
            db: Arc::clone(&self.db),
            path_service: self.path_service.cow_clone(),
            stats: self.stats.clone(),
            sequence: self.sequence,
            interfaces: self.interfaces.clone(),
            replays: self.replays.clone(),
        }
    }

    /// Creates an egress gateway with an empty path service and dedup database.
    pub fn new(
        local_as: AsId,
        topology: Arc<Topology>,
        signer: Signer,
        policy: PropagationPolicy,
    ) -> Self {
        EgressGateway {
            local_as,
            topology,
            signer,
            policy,
            db: Arc::new(EgressDb::new()),
            path_service: ShardedPathService::default(),
            stats: EgressStats::default(),
            sequence: 0,
            interfaces: OnceLock::new(),
            replays: Replays::default(),
        }
    }

    /// The local path service. Registration goes through `&self` (the service keeps its
    /// map behind an interior lock), so pull-return commits need no mutable gateway
    /// access.
    pub fn path_service(&self) -> &ShardedPathService {
        &self.path_service
    }

    /// The propagation dedup database.
    pub fn db(&self) -> &EgressDb {
        &self.db
    }

    /// The gateway counters.
    pub fn stats(&self) -> &EgressStats {
        &self.stats
    }

    /// Resets the per-interface send counters (called by the simulator at period boundaries
    /// so overhead can be accounted per period).
    pub fn take_sent_counters(&mut self) -> BTreeMap<IfId, u64> {
        std::mem::take(&mut self.stats.sent_per_interface)
    }

    /// Forgets that anything was ever propagated over `egress`, so the next selection of
    /// each beacon is re-sent on that interface. Called by `Simulation::add_node` on every
    /// neighbor of a (re-)joining AS: the neighbors' dedup databases still remember sends
    /// to the node that left, but the newcomer's databases are empty — without the reset,
    /// steady-state selections (whose digests were recorded before the leave) would never
    /// be re-propagated and the rejoined AS would stay partially blind until the old
    /// beacons expire. Returns the number of per-beacon records dropped. Probes under a
    /// shared reference first, like [`EgressGateway::evict_expired`], so a no-op reset
    /// leaves a copy-on-write-shared database unmaterialized.
    ///
    /// A reset that drops a mark also drops what the gateway remembers of last round's
    /// selections: the next round walks every selection again, and re-sends where the
    /// marks are gone.
    pub fn forget_egress(&mut self, egress: IfId) -> usize {
        if !self.db.has_egress_records(egress) {
            return 0;
        }
        let forgotten = Arc::make_mut(&mut self.db).forget_egress(egress);
        if forgotten > 0 {
            self.replays = Replays::default();
        }
        forgotten
    }

    /// Evicts expired entries from the egress dedup database. Probes under a shared
    /// reference first: a sweep with nothing to remove leaves a copy-on-write-shared
    /// database untouched instead of materializing a private copy (the routine per-round
    /// housekeeping case for fresh snapshots).
    pub fn evict_expired(&mut self, now: SimTime) -> usize {
        if !self.db.has_expired_entries(now) {
            return 0;
        }
        let evicted = Arc::make_mut(&mut self.db).evict_expired(now);
        if evicted > 0 {
            self.replays.swept = self.replays.swept.max(now);
        }
        evicted
    }

    /// Originates fresh beacons according to `spec` ("PCB Initialization", §V-D): one beacon
    /// per member interface per group, carrying all metadata the AS shares plus the
    /// requested extensions, signed by the origin.
    pub fn originate(
        &mut self,
        spec: &OriginationSpec,
        now: SimTime,
        validity: SimDuration,
    ) -> Result<Vec<PcbMessage>> {
        let mut messages = Vec::new();
        for (group, interfaces) in &spec.groups {
            for &egress in interfaces {
                let link = self.topology.link_at(self.local_as, egress)?;
                let interface = self.topology.interface(self.local_as, egress)?;
                let mut extensions = spec.extensions;
                if spec.tag_groups {
                    extensions = extensions.with_interface_group(*group);
                }
                let mut pcb = Pcb::originate(
                    self.local_as,
                    self.sequence,
                    now,
                    now + validity,
                    extensions,
                );
                self.sequence += 1;
                let info = StaticInfo::origin(
                    link.metrics.latency,
                    link.metrics.bandwidth,
                    Some(interface.location),
                );
                // The receiver stores this very beacon: room for the one entry, not for four.
                pcb.entries.to_mut().reserve_exact(1);
                pcb.extend(IfId::NONE, egress, info, &self.signer)?;
                let neighbor = self.topology.neighbor_of(self.local_as, egress)?;
                *self.stats.sent_per_interface.entry(egress).or_default() += 1;
                messages.push(PcbMessage {
                    from_as: self.local_as,
                    from_if: egress,
                    to_as: neighbor.asn,
                    to_if: neighbor.interface,
                    pcb,
                });
            }
        }
        Ok(messages)
    }

    /// Processes the selections of all RACs for this round ("PCB Propagation", §V-D):
    /// registers the selected paths, returns pull-based beacons whose target is the local AS,
    /// and propagates the rest (deduplicated per egress interface, extended with the local
    /// signed hop entry, filtered by the export policy).
    ///
    /// A selection takes one of two paths, with the same outcome.
    ///
    /// **The walk** — every winner registered, returned or filtered and sent — is the only
    /// path for a selection made this round, and what it costs follows what it has to say.
    /// A kept winner costs lookups: its registration is found and refreshed in place (one
    /// key lookup and lock per batch, see [`ShardedPathService::register_selected`]),
    /// and the dedup database is probed under a shared reference and written — which
    /// copies it when it is shared with a snapshot — only for a mark or an id it does not
    /// hold yet. A beacon that does go out is checked, encoded and absorbed into the MAC
    /// once for all its interfaces ([`HopExtender`]). Every selection comes with the id
    /// its batch view carried, so nothing here hashes a beacon.
    ///
    /// **The replay** is for a selection the engine served verbatim: the very allocation
    /// this gateway processed in its last call, which the engine hands back only while its
    /// batch is untouched and unexpired, or when a re-selection over the batch's arrivals
    /// selected the same beacons for the same interfaces. It does what walking it again
    /// would do, and no more:
    /// * *no dedup walk, nothing sent.* The last call left a mark for every winner on every
    ///   interface the walk could send it on. Marks only grow, but for two removals: a
    ///   [`EgressGateway::forget_egress`] that drops one also drops this memory, and an
    ///   expiry sweep removes only entries expiring at or before its instant — so the
    ///   replay requires the winners' earliest expiry to lie after both that instant and
    ///   `now`;
    /// * *registrations replayed* — `registered_at` set at the positions the last walk
    ///   refreshed, while that walk left its key as it found it and the key has not moved
    ///   since ([`ShardedPathService::replay_selected`]); otherwise they are walked;
    /// * *pull returns* for the winners recorded as returned to their origin.
    ///
    /// What the gateway remembers is rebuilt by every call, for the selections of that
    /// call; a selection failing a guard takes the walk. Counters:
    /// [`EgressStats::selections_replayed`], [`EgressStats::registrations_replayed`].
    pub fn process_outputs<'a>(
        &mut self,
        batches: impl IntoIterator<Item = &'a BatchOutputs>,
        now: SimTime,
    ) -> Result<(Vec<PcbMessage>, Vec<PullReturn>)> {
        let interfaces = Arc::clone(
            self.interfaces
                .get_or_init(|| Arc::new(LocalInterfaces::of(&self.topology, self.local_as))),
        );
        let mut messages = Vec::new();
        let mut returns = Vec::new();

        let Replays { last, swept } = std::mem::take(&mut self.replays);
        let last = last.unwrap_or_default();
        // Whatever expires after this instant kept its dedup marks since the last call.
        let horizon = now.max(swept);
        let mut memory = Memory {
            records: Vec::with_capacity(last.records.len()),
            indices: Vec::with_capacity(last.indices.len()),
        };
        for batch in batches {
            // The record's weak reference keeps this address from being reused: a record
            // found under it belongs to this very selection.
            let address = Arc::as_ptr(batch) as usize;
            let found = last
                .records
                .binary_search_by_key(&address, Replay::address)
                .ok()
                .map(|at| &last.records[at])
                .filter(|record| horizon < record.valid_until);
            let record = match found {
                Some(record) => self.replay(
                    batch,
                    record,
                    &last.indices,
                    now,
                    &mut returns,
                    &mut memory.indices,
                ),
                None => self.walk(
                    batch,
                    &interfaces,
                    now,
                    &mut messages,
                    &mut returns,
                    &mut memory.indices,
                ),
            };
            memory.records.push(record);
        }
        memory.records.sort_unstable_by_key(Replay::address);
        self.replays = Replays {
            last: Some(Arc::new(memory)),
            swept: SimTime::ZERO,
        };
        Ok((messages, returns))
    }

    /// Processes a selection the way [`EgressGateway::walk`] last did, from its `record`
    /// and the `indices` it refers to; records the same in `memory`.
    fn replay(
        &mut self,
        batch: &BatchSelection,
        record: &Replay,
        indices: &[u32],
        now: SimTime,
        returns: &mut Vec<PullReturn>,
        memory: &mut Vec<u32>,
    ) -> Replay {
        self.stats.selections_replayed += 1;
        let start = narrow(memory.len());
        let positions = &indices[record.start as usize..record.returns as usize];
        let registered = match record.registered {
            Some(version)
                if self.path_service.replay_selected(
                    &batch.rac_name,
                    batch.origin,
                    batch.group,
                    now,
                    positions,
                    version,
                ) =>
            {
                self.stats.registered += positions.len() as u64;
                self.stats.registrations_replayed += positions.len() as u64;
                memory.extend_from_slice(positions);
                Some(version)
            }
            _ => self.register(batch, now, memory),
        };
        let returns_at = narrow(memory.len());
        for &index in &indices[record.returns as usize..record.end as usize] {
            self.return_to_origin(&batch.selected[index as usize].beacon, returns);
            memory.push(index);
        }
        Replay {
            selection: record.selection.clone(),
            valid_until: record.valid_until,
            registered,
            start,
            returns: returns_at,
            end: narrow(memory.len()),
        }
    }

    /// Processes every winner of a selection and records, in `memory`, what a replay of it
    /// needs.
    fn walk(
        &mut self,
        batch: &BatchOutputs,
        interfaces: &LocalInterfaces,
        now: SimTime,
        messages: &mut Vec<PcbMessage>,
        returns: &mut Vec<PullReturn>,
        memory: &mut Vec<u32>,
    ) -> Replay {
        let mut new_egresses = Vec::new();
        let start = narrow(memory.len());
        // Path registration happens for every selection — these are the paths endpoints
        // can use, whether or not the beacon is propagated further.
        let registered = self.register(batch, now, memory);
        let returns_at = narrow(memory.len());
        let mut valid_until = SimTime::MAX;
        for (index, selected) in batch.selected.iter().enumerate() {
            let beacon = &*selected.beacon;
            // Pull-based beacon reaching its target: return it to the origin instead of
            // propagating it further.
            if beacon.pcb.extensions.target() == Some(self.local_as) {
                memory.push(narrow(index));
                self.return_to_origin(beacon, returns);
                continue;
            }
            valid_until = valid_until.min(beacon.pcb.expires_at);

            // Export-policy and dedup filtering; the policy is asked only about interfaces
            // the beacon has not gone out on yet.
            let mut exportable = self
                .exportable_from(interfaces, beacon.ingress)
                .map(AscendingIfIds::new);
            let unrecorded = self.db.unmarked_egresses(
                &selected.pcb_id,
                beacon.pcb.expires_at,
                &selected.egress_ifs,
                |egress| {
                    egress != beacon.ingress
                        && exportable
                            .as_mut()
                            .is_none_or(|exportable| exportable.contains(egress))
                },
                &mut new_egresses,
            );
            if !unrecorded {
                continue;
            }
            Arc::make_mut(&mut self.db).record(
                selected.pcb_id,
                beacon.pcb.expires_at,
                &new_egresses,
            );
            if new_egresses.is_empty() {
                continue;
            }

            // A single unpropagatable (e.g. topology-inconsistent) selection must not abort
            // the whole round, nor must a single unusable interface.
            let Ok(mut extender) = HopExtender::new(&beacon.pcb, beacon.ingress, &self.signer)
            else {
                continue;
            };
            let ingress = interfaces.get(beacon.ingress);
            for &egress in &new_egresses {
                let Some((info, neighbor)) = interfaces.hop_towards(ingress, egress) else {
                    continue;
                };
                let Ok(pcb) = extender.extended(egress, info) else {
                    continue;
                };
                *self.stats.sent_per_interface.entry(egress).or_default() += 1;
                messages.push(PcbMessage {
                    from_as: self.local_as,
                    from_if: egress,
                    to_as: neighbor.asn,
                    to_if: neighbor.interface,
                    pcb,
                });
            }
        }
        Replay {
            selection: Arc::downgrade(batch),
            valid_until,
            registered,
            start,
            returns: returns_at,
            end: narrow(memory.len()),
        }
    }

    /// Registers a selection's winners by walking them. Returns the version the walk left
    /// their key at, with their positions appended to `positions`, when a replay can stand
    /// in for the next walk: a batch holds one origin's beacons, so its winners are one run
    /// towards the batch's origin, and only such a selection is replayed.
    fn register(
        &mut self,
        batch: &BatchSelection,
        now: SimTime,
        positions: &mut Vec<u32>,
    ) -> Option<KeyVersion> {
        let start = positions.len();
        let mut winners = batch.selected.iter().peekable();
        let (mut runs, mut version) = (0, None);
        while let Some(first) = winners.peek() {
            let destination = first.beacon.pcb.origin;
            let run = std::iter::from_fn(|| {
                winners.next_if(|winner| winner.beacon.pcb.origin == destination)
            });
            let (registered, walked) = self.path_service.register_selected(
                &batch.rac_name,
                destination,
                batch.group,
                now,
                run.map(|winner| (winner.pcb_id, &winner.beacon.pcb, winner.beacon.ingress)),
                positions,
            );
            self.stats.registered += registered;
            runs += 1;
            version = walked.filter(|_| destination == batch.origin);
        }
        if runs != 1 || version.is_none() {
            positions.truncate(start);
            return None;
        }
        version
    }

    /// Hands a pull-based beacon that reached its target back to its origin.
    fn return_to_origin(&mut self, beacon: &StoredBeacon, returns: &mut Vec<PullReturn>) {
        self.stats.pull_returns += 1;
        returns.push(PullReturn {
            from_as: self.local_as,
            to_as: beacon.pcb.origin,
            target_ingress: beacon.ingress,
            pcb: beacon.pcb.clone(),
        });
    }

    /// Where a beacon that arrived on `ingress` may be exported, the ingress interface
    /// itself always excepted: the Gao–Rexford export rules, or `None` — anywhere, on
    /// interfaces known to the topology or not — for policy-free example topologies.
    fn exportable_from<'a>(
        &self,
        interfaces: &'a LocalInterfaces,
        ingress: IfId,
    ) -> Option<&'a [IfId]> {
        match self.policy {
            PropagationPolicy::All => None,
            PropagationPolicy::ValleyFree => Some(
                match interfaces.get(ingress).and_then(|i| i.link.as_ref()) {
                    // Routes learned from customers are exported to everyone.
                    Some(link) if link.to_customer => &interfaces.linked,
                    // Routes learned from providers/peers are exported to customers only.
                    Some(_) => &interfaces.to_customers,
                    // Not a link of this AS: nothing to apply the rules to.
                    None => &[],
                },
            ),
        }
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon_db::StoredBeacon;
    use crate::engine::SelectedBeacon;
    use irec_crypto::{KeyRegistry, Verifier};
    use irec_topology::{Tier, TopologyBuilder};
    use irec_types::{Bandwidth, Latency};

    /// AS 2 in the middle: AS1 --(peer)-- AS2 --(peer)-- AS3, AS2 --(provider->customer)-- AS4.
    fn topology() -> Arc<Topology> {
        let t = TopologyBuilder::new()
            .with_as(1, Tier::Tier2)
            .with_as(2, Tier::Tier2)
            .with_as(3, Tier::Tier2)
            .with_as(4, Tier::Tier3)
            .link(1, 2, Latency::from_millis(10), Bandwidth::from_mbps(100))
            .link(2, 3, Latency::from_millis(10), Bandwidth::from_mbps(100))
            .provider_link(2, 4, Latency::from_millis(5), Bandwidth::from_mbps(50))
            .build();
        Arc::new(t)
    }

    fn gateway(policy: PropagationPolicy) -> (EgressGateway, KeyRegistry, Arc<Topology>) {
        let topo = topology();
        let registry = KeyRegistry::with_ases(1, 16);
        let signer = Signer::new(AsId(2), registry.clone());
        (
            EgressGateway::new(AsId(2), Arc::clone(&topo), signer, policy),
            registry,
            topo,
        )
    }

    fn received_beacon(
        registry: &KeyRegistry,
        origin: u64,
        via_egress: u32,
        local_ingress: u32,
    ) -> StoredBeacon {
        let signer = Signer::new(AsId(origin), registry.clone());
        let mut pcb = Pcb::originate(
            AsId(origin),
            0,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(6),
            PcbExtensions::none(),
        );
        pcb.extend(
            IfId::NONE,
            IfId(via_egress),
            StaticInfo::origin(Latency::from_millis(10), Bandwidth::from_mbps(100), None),
            &signer,
        )
        .unwrap();
        StoredBeacon {
            pcb,
            ingress: IfId(local_ingress),
            received_at: SimTime::ZERO,
        }
    }

    /// One RAC's selection of one beacon, the way the engine hands it over.
    fn output(name: &str, beacon: StoredBeacon, egress_ifs: Vec<IfId>) -> BatchOutputs {
        Arc::new(BatchSelection {
            rac_name: name.into(),
            origin: beacon.pcb.origin,
            group: InterfaceGroupId::DEFAULT,
            selected: vec![SelectedBeacon {
                pcb_id: beacon.pcb.digest(),
                beacon: Arc::new(beacon),
                egress_ifs: egress_ifs.into(),
            }],
        })
    }

    #[test]
    fn origination_creates_signed_beacons_per_interface() {
        let (mut gw, registry, topo) = gateway(PropagationPolicy::All);
        // AS2's interfaces: if1 (to AS1), if2 (to AS3), if3 (to AS4).
        let spec = OriginationSpec::plain(
            topo.as_node(AsId(2))
                .unwrap()
                .interfaces
                .keys()
                .copied()
                .collect(),
        );
        let messages = gw
            .originate(&spec, SimTime::ZERO, SimDuration::from_hours(6))
            .unwrap();
        assert_eq!(messages.len(), 3);
        let verifier = Verifier::new(registry);
        for m in &messages {
            assert_eq!(m.from_as, AsId(2));
            assert_eq!(m.pcb.origin, AsId(2));
            assert_eq!(m.pcb.len(), 1);
            m.pcb.verify(&verifier).unwrap();
            // Each beacon goes to the neighbor on the other end of the egress link.
            let neighbor = topo.neighbor_of(AsId(2), m.from_if).unwrap();
            assert_eq!(m.to_as, neighbor.asn);
        }
        assert_eq!(gw.stats().total_sent(), 3);
    }

    #[test]
    fn grouped_origination_tags_groups() {
        let (mut gw, _, _) = gateway(PropagationPolicy::All);
        let mut groups = BTreeMap::new();
        groups.insert(InterfaceGroupId(1), vec![IfId(1)]);
        groups.insert(InterfaceGroupId(2), vec![IfId(2), IfId(3)]);
        let spec = OriginationSpec::grouped(groups);
        let messages = gw
            .originate(&spec, SimTime::ZERO, SimDuration::from_hours(1))
            .unwrap();
        assert_eq!(messages.len(), 3);
        for m in &messages {
            let group = m.pcb.extensions.interface_group().unwrap();
            if m.from_if == IfId(1) {
                assert_eq!(group, InterfaceGroupId(1));
            } else {
                assert_eq!(group, InterfaceGroupId(2));
            }
        }
    }

    #[test]
    fn propagation_extends_signs_and_addresses_messages() {
        let (mut gw, registry, topo) = gateway(PropagationPolicy::All);
        let beacon = received_beacon(&registry, 1, 1, 1); // arrived on if1 (from AS1)
        let outputs = vec![output("1SP", beacon, vec![IfId(2), IfId(3)])];
        let (messages, returns) = gw.process_outputs(&outputs, SimTime::ZERO).unwrap();
        assert!(returns.is_empty());
        assert_eq!(messages.len(), 2);
        let verifier = Verifier::new(registry);
        for m in &messages {
            assert_eq!(m.pcb.len(), 2);
            assert_eq!(m.pcb.last_as(), AsId(2));
            m.pcb.verify(&verifier).unwrap();
            let neighbor = topo.neighbor_of(AsId(2), m.from_if).unwrap();
            assert_eq!((m.to_as, m.to_if), (neighbor.asn, neighbor.interface));
        }
        // The path was registered and tagged.
        assert_eq!(gw.path_service().len(), 1);
        assert_eq!(gw.path_service().paths_to(AsId(1))[0].algorithm, "1SP");
    }

    #[test]
    fn egress_dedup_prevents_duplicate_propagation() {
        let (mut gw, registry, _) = gateway(PropagationPolicy::All);
        let beacon = received_beacon(&registry, 1, 1, 1);
        // Two RACs select the same beacon; the second selection adds only the new interface.
        let outputs = vec![
            output("1SP", beacon.clone(), vec![IfId(2)]),
            output("DO", beacon, vec![IfId(2), IfId(3)]),
        ];
        let (messages, _) = gw.process_outputs(&outputs, SimTime::ZERO).unwrap();
        assert_eq!(messages.len(), 2);
        let sent_ifs: Vec<IfId> = messages.iter().map(|m| m.from_if).collect();
        assert!(sent_ifs.contains(&IfId(2)) && sent_ifs.contains(&IfId(3)));
        // Both RACs registered their selection.
        assert_eq!(gw.path_service().len(), 2);
    }

    #[test]
    fn dedup_by_carried_id_matches_dedup_by_digest() {
        // Selections arrive the way a node produces them: verified and committed by an
        // ingress gateway, snapshotted into a view, selected by a RAC. The carried ids
        // must drive the dedup database exactly as the beacons' digests would — across a
        // re-selection, a re-origination and a `forget_egress`.
        use crate::ingress::IngressGateway;
        use crate::rac::Rac;
        use crate::RacConfig;

        let (mut gw, registry, topo) = gateway(PropagationPolicy::All);
        let mut ingress = IngressGateway::new(AsId(2), Verifier::new(registry.clone()));
        let racs = [Rac::new_static(RacConfig::static_rac("5SP", "5SP")).unwrap()];
        let node = topo.as_node(AsId(2)).unwrap();
        let mut tables = crate::engine::SelectionTables::new();
        // One RAC, one origin: every round's selection is one batch.
        let mut select = |ingress: &IngressGateway| -> crate::engine::BatchOutputs {
            let (mut batches, _) = crate::engine::execute_racs_cached(
                &racs,
                ingress.db(),
                node,
                &[IfId(2), IfId(3)],
                SimTime::ZERO,
                &mut tables,
            )
            .unwrap();
            assert_eq!(batches.len(), 1);
            batches.remove(0)
        };

        let first = received_beacon(&registry, 1, 1, 1).pcb;
        ingress
            .receive(first.clone(), IfId(1), SimTime::ZERO)
            .unwrap();
        let outputs = select(&ingress);
        assert_eq!(&*outputs.rac_name, "5SP");
        assert_eq!(outputs.selected.len(), 1);
        assert_eq!(outputs.selected[0].pcb_id, first.digest());
        assert!(outputs.selected[0].beacon.pcb == first);
        let (messages, _) = gw.process_outputs([&outputs], SimTime::ZERO).unwrap();
        assert_eq!(messages.len(), 2);
        for egress in [IfId(2), IfId(3)] {
            assert!(gw.db.contains(&first.digest(), egress));
        }

        // Re-selected next round: nothing new to send.
        let (messages, _) = gw.process_outputs([&outputs], SimTime::ZERO).unwrap();
        assert!(messages.is_empty());

        // The origin re-originates (next sequence number): a different id, sent afresh,
        // while the first beacon stays deduplicated.
        let mut second = received_beacon(&registry, 1, 1, 1).pcb;
        second.sequence = 1;
        second.entries.to_mut().clear();
        second
            .extend(
                IfId::NONE,
                IfId(1),
                StaticInfo::origin(Latency::from_millis(10), Bandwidth::from_mbps(100), None),
                &Signer::new(AsId(1), registry.clone()),
            )
            .unwrap();
        ingress
            .receive(second.clone(), IfId(1), SimTime::ZERO)
            .unwrap();
        let outputs = select(&ingress);
        assert_eq!(outputs.selected.len(), 2);
        let (messages, _) = gw.process_outputs([&outputs], SimTime::ZERO).unwrap();
        assert_eq!(messages.len(), 2);
        assert!(messages.iter().all(|m| m.pcb.sequence == 1));
        assert_eq!(gw.db.len(), 2);

        // Forgetting one interface re-sends both beacons there and nowhere else.
        assert_eq!(gw.forget_egress(IfId(3)), 2);
        assert!(!gw.db.contains(&second.digest(), IfId(3)));
        assert!(gw.db.contains(&second.digest(), IfId(2)));
        let (messages, _) = gw.process_outputs([&outputs], SimTime::ZERO).unwrap();
        assert_eq!(messages.len(), 2);
        assert!(messages.iter().all(|m| m.from_if == IfId(3)));

        // The registered path (both beacons describe the same links, so the later
        // registration refreshes the earlier one) is tagged with the carried id.
        let registered: Vec<_> = gw
            .path_service()
            .paths_to(AsId(1))
            .into_iter()
            .map(|p| p.pcb_id)
            .collect();
        assert_eq!(registered, [second.digest()]);
    }

    #[test]
    fn never_propagates_back_on_the_ingress_interface() {
        let (mut gw, registry, _) = gateway(PropagationPolicy::All);
        let beacon = received_beacon(&registry, 1, 1, 1);
        let outputs = vec![output("1SP", beacon, vec![IfId(1)])];
        let (messages, _) = gw.process_outputs(&outputs, SimTime::ZERO).unwrap();
        assert!(messages.is_empty());
    }

    #[test]
    fn valley_free_policy_restricts_exports() {
        // Beacon arrives from AS1, a *peer* of AS2: it may only be exported to customers
        // (AS4 on if3), not to the other peer AS3 (if2).
        let (mut gw, registry, _) = gateway(PropagationPolicy::ValleyFree);
        let beacon = received_beacon(&registry, 1, 1, 1);
        let outputs = vec![output("1SP", beacon, vec![IfId(2), IfId(3)])];
        let (messages, _) = gw.process_outputs(&outputs, SimTime::ZERO).unwrap();
        assert_eq!(messages.len(), 1);
        assert_eq!(messages[0].from_if, IfId(3));
        assert_eq!(messages[0].to_as, AsId(4));
    }

    #[test]
    fn valley_free_customer_routes_export_everywhere() {
        // Beacon arrives from AS4, a *customer* of AS2 (on if3): exported to both peers.
        let (mut gw, registry, _) = gateway(PropagationPolicy::ValleyFree);
        let beacon = received_beacon(&registry, 4, 1, 3);
        let outputs = vec![output("1SP", beacon, vec![IfId(1), IfId(2)])];
        let (messages, _) = gw.process_outputs(&outputs, SimTime::ZERO).unwrap();
        assert_eq!(messages.len(), 2);
    }

    #[test]
    fn pull_based_beacon_at_target_is_returned_not_propagated() {
        let (mut gw, registry, _) = gateway(PropagationPolicy::All);
        let signer = Signer::new(AsId(1), registry.clone());
        let mut pcb = Pcb::originate(
            AsId(1),
            0,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(6),
            PcbExtensions::none().with_target(AsId(2)),
        );
        pcb.extend(
            IfId::NONE,
            IfId(1),
            StaticInfo::origin(Latency::from_millis(10), Bandwidth::from_mbps(100), None),
            &signer,
        )
        .unwrap();
        let beacon = StoredBeacon {
            pcb,
            ingress: IfId(1),
            received_at: SimTime::ZERO,
        };
        let outputs = vec![output("od", beacon, vec![IfId(2), IfId(3)])];
        let (messages, returns) = gw.process_outputs(&outputs, SimTime::ZERO).unwrap();
        assert!(messages.is_empty());
        assert_eq!(returns.len(), 1);
        assert_eq!(returns[0].to_as, AsId(1));
        assert_eq!(returns[0].from_as, AsId(2));
        assert_eq!(gw.stats().pull_returns, 1);
    }

    #[test]
    fn sent_counters_can_be_drained_per_period() {
        let (mut gw, registry, topo) = gateway(PropagationPolicy::All);
        let spec = OriginationSpec::plain(
            topo.as_node(AsId(2))
                .unwrap()
                .interfaces
                .keys()
                .copied()
                .collect(),
        );
        gw.originate(&spec, SimTime::ZERO, SimDuration::from_hours(1))
            .unwrap();
        let beacon = received_beacon(&registry, 1, 1, 1);
        gw.process_outputs(&[output("1SP", beacon, vec![IfId(2)])], SimTime::ZERO)
            .unwrap();
        let counters = gw.take_sent_counters();
        assert_eq!(counters.values().sum::<u64>(), 4);
        // Drained: the next period starts from zero.
        assert_eq!(gw.stats().total_sent(), 0);
    }

    #[test]
    fn a_no_op_pass_leaves_a_shared_dedup_database_shared() {
        let (mut gw, registry, _) = gateway(PropagationPolicy::All);
        let beacon = received_beacon(&registry, 1, 1, 1);
        let outputs = vec![
            output("1SP", beacon.clone(), vec![IfId(2), IfId(3)]),
            // Nothing to send and nothing allowed, yet tracked from its first sight on.
            output("1SP", received_beacon(&registry, 3, 1, 2), vec![IfId(2)]),
        ];
        let (messages, _) = gw.process_outputs(&outputs, SimTime::ZERO).unwrap();
        assert_eq!(messages.len(), 2);
        assert_eq!(gw.db.len(), 2);

        // A snapshot whose round selects what was sent before it was taken sends nothing
        // and must not pay for a private copy of the database.
        let mut snapshot = gw.cow_clone();
        let later = SimTime::ZERO + SimDuration::from_minutes(10);
        let (messages, _) = snapshot.process_outputs(&outputs, later).unwrap();
        assert!(messages.is_empty());
        assert!(Arc::ptr_eq(&snapshot.db, &gw.db));

        // The first new mark copies it, on the side that writes.
        let more = vec![output(
            "1SP",
            beacon,
            vec![IfId(1), IfId(2), IfId(3), IfId(7)],
        )];
        let (messages, _) = snapshot.process_outputs(&more, later).unwrap();
        assert!(
            messages.is_empty(),
            "interface 7 is marked but cannot be sent on"
        );
        assert!(!Arc::ptr_eq(&snapshot.db, &gw.db));
        assert!(snapshot.db.contains(&more[0].selected[0].pcb_id, IfId(7)));
        assert!(!gw.db.contains(&more[0].selected[0].pcb_id, IfId(7)));
    }

    #[test]
    fn interface_tables_are_built_on_first_use_and_shared_with_clones() {
        let (mut gw, registry, _) = gateway(PropagationPolicy::ValleyFree);
        assert!(
            gw.interfaces.get().is_none(),
            "construction walks no topology"
        );
        assert!(gw.cow_clone().interfaces.get().is_none());
        let beacon = received_beacon(&registry, 1, 1, 1);
        gw.process_outputs(&[output("1SP", beacon, vec![IfId(3)])], SimTime::ZERO)
            .unwrap();
        let built = gw.interfaces.get().expect("built by the first pass");
        assert_eq!(&*built.linked, [IfId(1), IfId(2), IfId(3)]);
        assert_eq!(&*built.to_customers, [IfId(3)]);
        for clone in [gw.cow_clone(), gw.clone()] {
            assert!(Arc::ptr_eq(clone.interfaces.get().unwrap(), built));
        }
    }

    #[test]
    fn emitted_beacons_own_one_entry_and_share_the_rest() {
        let (mut gw, registry, topo) = gateway(PropagationPolicy::All);
        let spec = OriginationSpec::plain(
            topo.as_node(AsId(2))
                .unwrap()
                .interfaces
                .keys()
                .copied()
                .collect(),
        );
        let mut messages = gw
            .originate(&spec, SimTime::ZERO, SimDuration::from_hours(1))
            .unwrap();
        let beacon = received_beacon(&registry, 1, 1, 1);
        let outputs = [output("1SP", beacon, vec![IfId(2), IfId(3)])];
        messages.extend(gw.process_outputs(&outputs, SimTime::ZERO).unwrap().0);
        assert_eq!(messages.len(), 5);
        for message in &messages {
            let entries = &message.pcb.entries;
            assert_eq!(entries.owned().len(), 1, "{entries:?}");
            assert_eq!(entries.owned().capacity(), 1, "{entries:?}");
        }
        // The three originations have nothing upstream; the two propagated copies of the
        // one received beacon refer to one copy of its chain.
        let (originated, propagated) = messages.split_at(3);
        assert!(originated
            .iter()
            .all(|m| m.pcb.entries.upstream().is_none()));
        let [left, right] = propagated else {
            panic!("two propagated beacons")
        };
        let shared = left.pcb.entries.upstream().expect("a shared chain");
        assert!(Arc::ptr_eq(shared, right.pcb.entries.upstream().unwrap()));
        assert_eq!(shared.len(), 1);
    }
}
