//! The oracle of the egress gateway: the gateway as it was before its cost followed what it
//! had to say — every winner of every selection of every round registered through a
//! freshly built [`RegisteredPath`], filtered through the export policy with topology
//! lookups, recorded in a hash-set dedup database and extended by cloning the beacon per
//! interface, with no memory of earlier rounds — kept here as a reference with its own
//! path-service and dedup models, so that it shares with the gateway under test nothing
//! but `Pcb::extend` (which has its own oracle in `irec_pcb`).
//!
//! The property drives both through scripts of several rounds and, after every round and
//! every operation between rounds, compares what they emitted (wire bytes, in order), what
//! they returned, every registration (id, time and metrics included), the eviction
//! counter, the dedup marks of every known beacon on every interface, and the counters;
//! and it checks the number of selections the gateway replayed against a model of when it
//! must. Every script holds the situations the gateway's shortcuts could get wrong: two
//! winners of one batch over the same links under different ids, round after round; a key
//! driven past its limit — by one selection on its own, too — and an evicted path selected
//! again; a second, pull-based batch registering under another batch's key; one beacon
//! selected by two RACs; pull-based beacons at their target, kept; selections carried to
//! the next round as the same `Arc` (replayed) and as an equal-content fresh one (walked);
//! marks forgotten and entries expired between rounds, with expiries on and just after
//! round instants; both export policies; beacons that cannot be extended; interfaces the
//! topology does not know or has no usable link for; and a copy-on-write clone that takes
//! over mid-script, with what its gateway remembers, while the gateway it was cloned from
//! must not change.

use super::*;
use crate::beacon_db::StoredBeacon;
use crate::engine::SelectedBeacon;
use crate::path_service::RegisteredPath;
use irec_crypto::KeyRegistry;
use irec_pcb::PcbId;
use irec_topology::{AsNode, Interface, Relationship, Tier};
use irec_types::{Bandwidth, LinkId};
use irec_wire::to_bytes;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const LOCAL: AsId = AsId(10);
/// Every interface id a script may name: 1 towards a provider, 2 and 3 towards peers, 4–6
/// towards customers (see [`topology`]), 7 whose link the topology lacks, 8 whose link
/// belongs to two other ASes, 9 unknown to the topology.
const INTERFACES: std::ops::RangeInclusive<u32> = 1..=9;
const RACS: [&str; 2] = ["5SP", "DO"];

fn topology() -> Arc<Topology> {
    let mut topology = Topology::new();
    for (asn, tier) in [
        (10, Tier::Tier2),
        (20, Tier::Tier1),
        (30, Tier::Tier2),
        (31, Tier::Tier2),
        (40, Tier::Tier3),
        (41, Tier::Tier3),
        (42, Tier::Tier3),
    ] {
        topology.add_as(AsNode::new(AsId(asn), tier)).unwrap();
    }
    let neighbors = [
        (20, Relationship::CustomerToProvider),
        (30, Relationship::PeerToPeer),
        (31, Relationship::Core),
        (40, Relationship::ProviderToCustomer),
        (41, Relationship::ProviderToCustomer),
        (42, Relationship::ProviderToCustomer),
    ];
    for (i, (neighbor, relationship)) in neighbors.into_iter().enumerate() {
        let local_if = i as u32 + 1;
        // Every second link is stored with the local AS as its `b` end, so relationships
        // are read from both sides.
        let here = (
            LOCAL,
            IfId(local_if),
            GeoCoord::new(40.0 + 3.0 * f64::from(local_if), 8.0),
        );
        let there = (
            AsId(neighbor),
            IfId(1),
            GeoCoord::new(10.0, 20.0 + f64::from(local_if)),
        );
        let (a, b, relationship) = if i % 2 == 0 {
            (here, there, relationship)
        } else {
            (there, here, relationship.reversed())
        };
        topology
            .add_link(
                a.0,
                a.1,
                a.2,
                b.0,
                b.1,
                b.2,
                Bandwidth::from_mbps(100 * u64::from(local_if)),
                relationship,
            )
            .unwrap();
    }
    let foreign = topology
        .add_link(
            AsId(30),
            IfId(5),
            GeoCoord::new(1.0, 1.0),
            AsId(31),
            IfId(5),
            GeoCoord::new(2.0, 2.0),
            Bandwidth::from_mbps(10),
            Relationship::PeerToPeer,
        )
        .unwrap();
    let local = topology.ases.get_mut(&LOCAL).unwrap();
    for (id, link) in [(7, LinkId(9_999)), (8, foreign)] {
        local.interfaces.insert(
            IfId(id),
            Interface {
                id: IfId(id),
                owner: LOCAL,
                location: GeoCoord::new(50.0, 9.0),
                link,
            },
        );
    }
    Arc::new(topology)
}

/// The egress database before the compact marks.
#[derive(Clone, Default)]
struct ReferenceDb {
    propagated: HashMap<PcbId, (HashSet<IfId>, SimTime)>,
    expiry: BTreeMap<SimTime, Vec<PcbId>>,
}

impl ReferenceDb {
    fn filter_new_egresses(
        &mut self,
        id: PcbId,
        expires_at: SimTime,
        egress_ifs: &[IfId],
    ) -> Vec<IfId> {
        let entry = self.propagated.entry(id).or_insert_with(|| {
            self.expiry.entry(expires_at).or_default().push(id);
            (HashSet::new(), expires_at)
        });
        egress_ifs
            .iter()
            .copied()
            .filter(|ifid| entry.0.insert(*ifid))
            .collect()
    }

    fn forget_egress(&mut self, egress: IfId) -> usize {
        self.propagated
            .values_mut()
            .filter_map(|entry| entry.0.remove(&egress).then_some(()))
            .count()
    }

    fn evict_expired(&mut self, now: SimTime) -> usize {
        let still_valid = self
            .expiry
            .split_off(&SimTime::from_micros(now.as_micros() + 1));
        let drained = std::mem::replace(&mut self.expiry, still_valid);
        let mut removed = 0;
        for id in drained.into_values().flatten() {
            let expired = self.propagated.get(&id).is_some_and(|e| e.1 <= now);
            if expired && self.propagated.remove(&id).is_some() {
                removed += 1;
            }
        }
        removed
    }

    fn contains(&self, id: &PcbId, egress: IfId) -> bool {
        self.propagated
            .get(id)
            .is_some_and(|e| e.0.contains(&egress))
    }
}

/// The gateway before this module's subject changed: per winner a `RegisteredPath`, the
/// export policy off the topology, a dedup record, and per new interface a clone of the
/// beacon extended on its own.
#[derive(Clone)]
struct ReferenceGateway {
    topology: Arc<Topology>,
    signer: Signer,
    policy: PropagationPolicy,
    db: ReferenceDb,
    /// The path service as a plain map with the paper's limit of 20 per key.
    paths: BTreeMap<(String, AsId, InterfaceGroupId), Vec<RegisteredPath>>,
    evicted: u64,
    stats: EgressStats,
}

impl ReferenceGateway {
    fn new(topology: Arc<Topology>, signer: Signer, policy: PropagationPolicy) -> Self {
        ReferenceGateway {
            topology,
            signer,
            policy,
            db: ReferenceDb::default(),
            paths: BTreeMap::new(),
            evicted: 0,
            stats: EgressStats::default(),
        }
    }

    fn process_outputs<'a>(
        &mut self,
        batches: impl IntoIterator<Item = &'a BatchSelection>,
        now: SimTime,
    ) -> (Vec<PcbMessage>, Vec<PullReturn>) {
        let mut messages = Vec::new();
        let mut returns = Vec::new();
        for batch in batches {
            for selected in &batch.selected {
                self.register_path(batch, selected, now);
                let beacon = &selected.beacon;
                if beacon.pcb.extensions.target() == Some(LOCAL) {
                    self.stats.pull_returns += 1;
                    returns.push(PullReturn {
                        from_as: LOCAL,
                        to_as: beacon.pcb.origin,
                        target_ingress: beacon.ingress,
                        pcb: beacon.pcb.clone(),
                    });
                    continue;
                }
                let allowed: Vec<IfId> = selected
                    .egress_ifs
                    .iter()
                    .copied()
                    .filter(|&egress| self.export_allowed(beacon.ingress, egress))
                    .collect();
                let new_egresses =
                    self.db
                        .filter_new_egresses(selected.pcb_id, beacon.pcb.expires_at, &allowed);
                for egress in new_egresses {
                    if let Ok(message) = self.extend_and_send(beacon, egress) {
                        messages.push(message);
                    }
                }
            }
        }
        (messages, returns)
    }

    fn register_path(&mut self, batch: &BatchSelection, selected: &SelectedBeacon, now: SimTime) {
        let pcb = &selected.beacon.pcb;
        let Some(destination_interface) = pcb.origin_interface() else {
            return;
        };
        self.stats.registered += 1;
        let path = RegisteredPath {
            pcb_id: selected.pcb_id,
            destination: pcb.origin,
            destination_interface,
            local_interface: selected.beacon.ingress,
            algorithm: batch.rac_name.to_string(),
            group: batch.group,
            metrics: pcb.path_metrics(),
            links: pcb.link_keys(),
            registered_at: now,
        };
        let key = (path.algorithm.clone(), path.destination, path.group);
        let entry = self.paths.entry(key).or_default();
        if let Some(existing) = entry
            .iter_mut()
            .find(|p| p.pcb_id == path.pcb_id || p.links == path.links)
        {
            existing.pcb_id = path.pcb_id;
            existing.registered_at = path.registered_at;
            existing.metrics = path.metrics;
            return;
        }
        if entry.len() >= 20 {
            if let Some((idx, _)) = entry
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| p.registered_at)
            {
                entry.remove(idx);
                self.evicted += 1;
            }
        }
        entry.push(path);
    }

    fn export_allowed(&self, ingress: IfId, egress: IfId) -> bool {
        if ingress == egress {
            return false;
        }
        match self.policy {
            PropagationPolicy::All => true,
            PropagationPolicy::ValleyFree => {
                let Ok(in_link) = self.topology.link_at(LOCAL, ingress) else {
                    return false;
                };
                let Ok(out_link) = self.topology.link_at(LOCAL, egress) else {
                    return false;
                };
                let customer = |link: &irec_topology::Link| {
                    link.relationship_from(LOCAL)
                        .map(|r| r.neighbor_is_customer())
                        .unwrap_or(false)
                };
                customer(in_link) || customer(out_link)
            }
        }
    }

    fn extend_and_send(&mut self, beacon: &StoredBeacon, egress: IfId) -> Result<PcbMessage> {
        let link = self.topology.link_at(LOCAL, egress)?;
        let interface = self.topology.interface(LOCAL, egress)?;
        let node = self.topology.as_node(LOCAL)?;
        let intra = node
            .intra_latency(beacon.ingress, egress)
            .unwrap_or_default();
        let mut pcb = beacon.pcb.clone();
        let info = StaticInfo {
            link_latency: link.metrics.latency,
            link_bandwidth: link.metrics.bandwidth,
            intra_latency: intra,
            egress_location: Some(interface.location),
        };
        pcb.extend(beacon.ingress, egress, info, &self.signer)?;
        let neighbor = self.topology.neighbor_of(LOCAL, egress)?;
        *self.stats.sent_per_interface.entry(egress).or_default() += 1;
        Ok(PcbMessage {
            from_as: LOCAL,
            from_if: egress,
            to_as: neighbor.asn,
            to_if: neighbor.interface,
            pcb,
        })
    }
}

/// A small deterministic generator: a script is a function of one seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        crate::path_service::splitmix64(self.0)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// The beacons a script selects from, each as the ingress gateway would hand it on. Every
/// beacon is originated at time zero, and validities are multiples of five minutes, so
/// that expiries fall on round instants and just after them.
struct Pool {
    /// Origin 1: two originations of one path — same links, different ids and metadata —
    /// and a third over other links.
    flip: Vec<SelectedBeacon>,
    /// Origin 3: 26 paths, more than one key registers.
    crowd: Vec<SelectedBeacon>,
    /// Origin 3 again, pull-based — for another AS and for this one: a second batch whose
    /// winners register under the crowd's key.
    pulled: Vec<SelectedBeacon>,
    /// Origin 4: pull-based beacons for this AS and for another, one that already crossed
    /// this AS, one without entries.
    odd: Vec<SelectedBeacon>,
}

impl Pool {
    fn all(&self) -> impl Iterator<Item = &SelectedBeacon> {
        self.flip
            .iter()
            .chain(&self.crowd)
            .chain(&self.pulled)
            .chain(&self.odd)
    }
}

/// One signed beacon: `origin` leaves through `first_egress`, `via` lists the transit
/// hops, `latency_ms` feeds every hop's static info.
#[allow(clippy::too_many_arguments)]
fn beacon(
    registry: &KeyRegistry,
    origin: u64,
    sequence: u64,
    first_egress: u32,
    via: &[u64],
    latency_ms: u64,
    validity_min: u64,
    target: Option<AsId>,
    ingress: u32,
) -> SelectedBeacon {
    let mut extensions = PcbExtensions::none();
    if let Some(target) = target {
        extensions = extensions.with_target(target);
    }
    let mut pcb = Pcb::originate(
        AsId(origin),
        sequence,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_minutes(validity_min),
        extensions,
    );
    let info = |ms| {
        StaticInfo::origin(
            Latency::from_millis(ms),
            Bandwidth::from_mbps(50 + ms),
            None,
        )
    };
    pcb.extend(
        IfId::NONE,
        IfId(first_egress),
        info(latency_ms),
        &Signer::new(AsId(origin), registry.clone()),
    )
    .unwrap();
    for &asn in via {
        pcb.extend(
            IfId(2),
            IfId(3),
            info(latency_ms + 1),
            &Signer::new(AsId(asn), registry.clone()),
        )
        .unwrap();
    }
    selection(pcb, ingress)
}

fn selection(pcb: Pcb, ingress: u32) -> SelectedBeacon {
    SelectedBeacon {
        pcb_id: pcb.digest(),
        beacon: Arc::new(StoredBeacon {
            pcb,
            ingress: IfId(ingress),
            received_at: SimTime::ZERO,
        }),
        egress_ifs: Box::new([]),
    }
}

fn pool(registry: &KeyRegistry, draw: &mut Draw) -> Pool {
    let ingress = |draw: &mut Draw| INTERFACES.start() + draw.below(9) as u32;
    let flip = vec![
        beacon(registry, 1, 0, 4, &[5], 10, 360, None, ingress(draw)),
        beacon(registry, 1, 1, 4, &[5], 30, 360, None, ingress(draw)),
        beacon(registry, 1, 2, 6, &[5], 20, 65, None, ingress(draw)),
    ];
    let crowd = (0..26)
        .map(|i| {
            let via: &[u64] = if i % 3 == 0 { &[6, 7] } else { &[6] };
            let validity = [20, 30, 65, 120, 360, 360][i as usize % 6];
            beacon(
                registry,
                3,
                100,
                1 + i,
                via,
                5 + u64::from(i),
                validity,
                None,
                ingress(draw),
            )
        })
        .collect();
    let pulled = (0..6)
        .map(|i| {
            let target = if i % 2 == 0 { LOCAL } else { AsId(77) };
            let validity = [75, 360, 120, 360, 30, 360][i as usize];
            beacon(
                registry,
                3,
                200 + u64::from(i),
                40 + i,
                &[6],
                9 + u64::from(i),
                validity,
                Some(target),
                ingress(draw),
            )
        })
        .collect();
    let odd = vec![
        beacon(registry, 4, 0, 1, &[8], 7, 360, Some(LOCAL), ingress(draw)),
        beacon(
            registry,
            4,
            1,
            1,
            &[8],
            7,
            360,
            Some(AsId(77)),
            ingress(draw),
        ),
        beacon(
            registry,
            4,
            2,
            2,
            &[LOCAL.value()],
            9,
            360,
            None,
            ingress(draw),
        ),
        selection(
            Pcb::originate(
                AsId(4),
                3,
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_minutes(120),
                PcbExtensions::none(),
            ),
            ingress(draw),
        ),
    ];
    Pool {
        flip,
        crowd,
        pulled,
        odd,
    }
}

/// `winners` as one RAC's selection for `origin`, each for a drawn set of egress interfaces
/// (ascending as the engine lists them, now and then with a repeat or out of order).
fn batch(rac: &str, origin: u64, winners: &[&SelectedBeacon], draw: &mut Draw) -> BatchSelection {
    let selected = winners
        .iter()
        .map(|winner| {
            let mut egress_ifs: Vec<IfId> =
                INTERFACES.filter(|_| draw.chance(60)).map(IfId).collect();
            if draw.chance(10) {
                egress_ifs.extend(egress_ifs.first().copied());
            }
            if draw.chance(10) {
                egress_ifs.reverse();
            }
            SelectedBeacon {
                egress_ifs: egress_ifs.into(),
                ..(*winner).clone()
            }
        })
        .collect();
    BatchSelection {
        rac_name: rac.into(),
        origin: AsId(origin),
        group: InterfaceGroupId::DEFAULT,
        selected,
    }
}

/// One round's selections, freshly drawn: the flip pair every round, a window sliding over
/// the crowd and back to its start — now and then 23 wide, so that one selection drives
/// its key past the limit on its own — a drawn subset of the pulled beacons, a drawn subset
/// of the odd beacons, the first flip beacon again under the second RAC, and half the
/// crowd's window under the second RAC.
fn round_selections(pool: &Pool, round: usize, draw: &mut Draw) -> Vec<BatchSelection> {
    let mut flip: Vec<&SelectedBeacon> = pool.flip[..2].iter().collect();
    if draw.chance(50) {
        flip.insert(draw.below(3) as usize, &pool.flip[2]);
    }
    let window = match round % 5 {
        0 => 0..14,
        1 => 8..22,
        2 => 16..26,
        3 => 0..8,
        _ => 0..23,
    };
    let crowd: Vec<&SelectedBeacon> = pool.crowd[window]
        .iter()
        .chain(pool.crowd.iter().filter(|_| draw.chance(10)))
        .collect();
    // The first pulled beacon and the pull-based beacon for this AS among the odd ones are
    // kept winners: selected every round.
    let pulled: Vec<&SelectedBeacon> = pool
        .pulled
        .iter()
        .enumerate()
        .filter(|(i, _)| *i == 0 || draw.chance(60))
        .map(|(_, beacon)| beacon)
        .collect();
    let odd: Vec<&SelectedBeacon> = pool
        .odd
        .iter()
        .enumerate()
        .filter(|(i, _)| *i == 0 || draw.chance(70))
        .map(|(_, beacon)| beacon)
        .collect();
    vec![
        batch(RACS[0], 1, &flip, draw),
        batch(RACS[0], 3, &crowd, draw),
        batch(RACS[0], 3, &pulled, draw),
        batch(RACS[0], 4, &odd, draw),
        batch(RACS[1], 1, &[&pool.flip[0]], draw),
        batch(RACS[1], 3, &crowd[..crowd.len() / 2], draw),
    ]
}

/// Rounds whose every selection is the one of the round before, served verbatim. No marks
/// are forgotten right before them, so that each script replays selections, and
/// registrations from the second one on.
fn carries_all(round: usize) -> bool {
    matches!(round, 1 | 2 | 5 | 6)
}

/// Rounds whose every selection is drawn afresh — the fourth one with the 23-wide window.
fn draws_all(round: usize) -> bool {
    matches!(round, 3 | 4)
}

/// This round's selections, slot by slot: last round's selection served verbatim (the same
/// `Arc`), last round's selection in a fresh `Arc` (the same content, not served
/// verbatim), or a freshly drawn one.
fn next_selections(
    pool: &Pool,
    round: usize,
    draw: &mut Draw,
    last: &[BatchOutputs],
) -> Vec<BatchOutputs> {
    let drawn = round_selections(pool, round, draw);
    drawn
        .into_iter()
        .enumerate()
        .map(
            |(slot, fresh)| match last.get(slot).filter(|_| !draws_all(round)) {
                Some(last) if carries_all(round) || draw.chance(40) => Arc::clone(last),
                Some(last) if draw.chance(33) => Arc::new(BatchSelection {
                    rac_name: Arc::clone(&last.rac_name),
                    origin: last.origin,
                    group: last.group,
                    selected: last.selected.clone(),
                }),
                _ => Arc::new(fresh),
            },
        )
        .collect()
}

/// When a selection must be replayed, stated without the gateway: it is the very `Arc` the
/// gateway processed in its last call, no mark was forgotten since, and every winner not
/// returned to its origin expires after `now` and after every expiry sweep since that
/// removed anything.
#[derive(Clone, Default)]
struct ReplayModel {
    last: Vec<BatchOutputs>,
    forgotten: bool,
    swept: SimTime,
}

impl ReplayModel {
    fn replayed(&self, selections: &[BatchOutputs], now: SimTime) -> u64 {
        if self.forgotten {
            return 0;
        }
        let horizon = now.max(self.swept);
        selections
            .iter()
            .filter(|selection| self.last.iter().any(|last| Arc::ptr_eq(last, selection)))
            .filter(|selection| {
                selection
                    .selected
                    .iter()
                    .filter(|winner| winner.beacon.pcb.extensions.target() != Some(LOCAL))
                    .all(|winner| winner.beacon.pcb.expires_at > horizon)
            })
            .count() as u64
    }
}

/// Everything observable about the two gateways must agree.
fn assert_same_state(gateway: &EgressGateway, reference: &ReferenceGateway, pool: &Pool) {
    let registered: Vec<RegisteredPath> = reference.paths.values().flatten().cloned().collect();
    assert_eq!(gateway.path_service().all(), registered);
    assert_eq!(gateway.path_service().evictions(), reference.evicted);
    assert_eq!(gateway.db.len(), reference.db.propagated.len());
    for known in pool.all() {
        for egress in INTERFACES.map(IfId) {
            assert_eq!(
                gateway.db.contains(&known.pcb_id, egress),
                reference.db.contains(&known.pcb_id, egress),
                "mark of {:?} on {egress}",
                known.pcb_id
            );
        }
    }
    // The reference walks every selection: it counts no replays.
    let stats = gateway.stats();
    assert!(stats.registrations_replayed <= stats.registered);
    let walked = EgressStats {
        selections_replayed: 0,
        registrations_replayed: 0,
        ..stats.clone()
    };
    assert_eq!(walked, reference.stats);
}

fn run_script(seed: u64, policy: PropagationPolicy) {
    let mut draw = Draw(seed);
    let registry = KeyRegistry::with_ases(11, 96);
    let topology = topology();
    let signer = Signer::new(LOCAL, registry.clone());
    let pool = pool(&registry, &mut draw);
    let mut gateway = EgressGateway::new(LOCAL, Arc::clone(&topology), signer.clone(), policy);
    let mut reference = ReferenceGateway::new(topology, signer, policy);
    let mut model = ReplayModel::default();
    // The gateways a clone took over from, with the state they must keep.
    let mut left_behind: Vec<(EgressGateway, ReferenceGateway)> = Vec::new();

    let rounds = 8 + draw.below(3) as usize;
    let mut now = SimTime::ZERO;
    let mut selections = Vec::new();
    for round in 0..rounds {
        selections = next_selections(&pool, round, &mut draw, &selections);
        let replayed_before = gateway.stats().selections_replayed;
        let (messages, returns) = gateway.process_outputs(&selections, now).unwrap();
        let (expected_messages, expected_returns) =
            reference.process_outputs(selections.iter().map(|s| &**s), now);
        assert_eq!(messages.len(), expected_messages.len(), "round {round}");
        for (message, expected) in messages.iter().zip(&expected_messages) {
            assert_eq!(to_bytes(message), to_bytes(expected), "round {round}");
            let owned = message.pcb.entries.owned();
            assert_eq!((owned.len(), owned.capacity()), (1, 1), "round {round}");
        }
        assert_eq!(returns.len(), expected_returns.len(), "round {round}");
        for (ret, expected) in returns.iter().zip(&expected_returns) {
            assert_eq!(to_bytes(ret), to_bytes(expected), "round {round}");
        }
        assert_same_state(&gateway, &reference, &pool);
        assert_eq!(
            gateway.stats().selections_replayed - replayed_before,
            model.replayed(&selections, now),
            "selections replayed in round {round}"
        );
        model = ReplayModel {
            last: selections.clone(),
            ..ReplayModel::default()
        };

        // Between rounds: time passes — onto and past the validities — marks are
        // forgotten, expired entries evicted, per-period counters drained, and a
        // copy-on-write clone takes over.
        now += SimDuration::from_minutes(10 + 45 * draw.below(2));
        if round == 3 || (!carries_all(round + 1) && draw.chance(40)) {
            let egress = IfId(INTERFACES.start() + draw.below(9) as u32);
            let forgotten = gateway.forget_egress(egress);
            assert_eq!(forgotten, reference.db.forget_egress(egress));
            model.forgotten |= forgotten > 0;
        }
        if round == 3 || draw.chance(50) {
            let evicted = gateway.evict_expired(now);
            assert_eq!(evicted, reference.db.evict_expired(now));
            if evicted > 0 {
                model.swept = model.swept.max(now);
            }
        }
        if draw.chance(20) {
            let drained = std::mem::take(&mut reference.stats.sent_per_interface);
            assert_eq!(gateway.take_sent_counters(), drained);
        }
        if round == 2 || draw.chance(30) {
            let clone = gateway.cow_clone();
            left_behind.push((std::mem::replace(&mut gateway, clone), reference.clone()));
        }
        assert_same_state(&gateway, &reference, &pool);
    }
    for (gateway, reference) in &left_behind {
        assert_same_state(gateway, reference, &pool);
    }
    assert!(
        reference.evicted > 0,
        "a key must have been driven past its limit"
    );
    assert!(reference.stats.pull_returns >= rounds as u64);
    let stats = gateway.stats();
    assert!(
        stats.selections_replayed > 0 && stats.registrations_replayed > 0,
        "{stats:?}"
    );
}

proptest! {
    #[test]
    fn gateway_matches_the_reference_over_multi_round_scripts(
        seed in any::<u64>(),
        valley_free in any::<bool>(),
    ) {
        let policy = if valley_free {
            PropagationPolicy::ValleyFree
        } else {
            PropagationPolicy::All
        };
        run_script(seed, policy);
    }
}
