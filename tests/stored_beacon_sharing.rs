//! What a stored beacon holds: a received beacon owns the one entry its sender appended
//! and shares the rest — the sender's whole chain — with every other receiver of the same
//! extension. Sharing is checked here, on live planes, by pointer identity; the byte ledger
//! built on it is pinned against what the flat layout (every beacon a full `Vec` of its
//! entries) would hold for the same plane.

use irec_core::{NodeConfig, PropagationPolicy, RacConfig, StoredBeacon};
use irec_crypto::Digest;
use irec_pcb::AsEntry;
use irec_sim::{Simulation, SimulationConfig};
use irec_topology::builder::figure1_topology;
use irec_topology::{GeneratorConfig, TopologyGenerator};
use irec_types::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn figure1(racs: &[&str]) -> Simulation {
    let racs: Vec<RacConfig> = racs
        .iter()
        .map(|&name| RacConfig::static_rac(name, name))
        .collect();
    Simulation::new(
        Arc::new(figure1_topology()),
        SimulationConfig::default(),
        |_| {
            NodeConfig::default()
                .with_policy(PropagationPolicy::All)
                .with_racs(racs.clone())
        },
    )
    .expect("simulation setup")
}

/// The 12-AS generated fixture of the determinism suites (`generated-a12-…-s5`).
fn generated() -> Simulation {
    let topology = TopologyGenerator::new(GeneratorConfig {
        num_ases: 12,
        seed: 5,
        ..Default::default()
    })
    .generate();
    Simulation::new(Arc::new(topology), SimulationConfig::default(), |_| {
        NodeConfig::default().with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
    })
    .expect("simulation setup")
}

/// Every beacon stored anywhere in the plane, expired or not.
fn stored(sim: &Simulation) -> Vec<Arc<StoredBeacon>> {
    let mut beacons = Vec::new();
    for asn in sim.live_ases() {
        let db = sim.node(asn).expect("live node").ingress().db();
        for key in db.batch_keys() {
            beacons.extend(db.beacons_for(&key, SimTime::ZERO));
        }
    }
    beacons
}

/// What [`sharing`] counted.
#[derive(Debug, PartialEq, Eq)]
struct Sharing {
    /// Stored beacons of two entries or more.
    extended: usize,
    /// Distinct upstream beacons they were extended from.
    upstream_beacons: usize,
    /// Distinct upstream allocations they refer to.
    allocations: usize,
}

impl Sharing {
    /// Allocations beyond one per upstream beacon.
    fn extra_passes(&self) -> usize {
        self.allocations - self.upstream_beacons
    }
}

/// Checks the shape of every stored beacon and that siblings share: two stored beacons
/// extended from the same upstream beacon — the same second-to-last signature, which covers
/// everything before it — in the same pass of its holder's egress gateway refer to one
/// allocation. A beacon its holder sent out in several passes (two RACs that select it for
/// different interfaces, a neighbour that re-joined) has one allocation per pass, so
/// [`Sharing::allocations`] may exceed [`Sharing::upstream_beacons`] by the extra passes —
/// callers say by how many.
fn sharing(sim: &Simulation, label: &str) -> Sharing {
    let mut by_upstream: BTreeMap<Digest, BTreeSet<usize>> = BTreeMap::new();
    let mut extended = 0;
    for beacon in stored(sim) {
        let entries = &beacon.pcb.entries;
        let owned = entries.owned();
        assert_eq!(
            (owned.len(), owned.capacity()),
            (1, 1),
            "{label}: {entries:?}"
        );
        match entries.upstream() {
            None => assert_eq!(entries.len(), 1, "{label}: an unshared chain of several"),
            Some(upstream) => {
                assert_eq!(upstream.len() + 1, entries.len(), "{label}");
                let sender_received: &AsEntry = upstream.last().expect("non-empty upstream");
                by_upstream
                    .entry(sender_received.signature.tag)
                    .or_default()
                    .insert(upstream.as_ptr() as usize);
                extended += 1;
            }
        }
    }
    let allocations: BTreeSet<usize> = by_upstream.values().flatten().copied().collect();
    let sharing = Sharing {
        extended,
        upstream_beacons: by_upstream.len(),
        allocations: allocations.len(),
    };
    // No allocation serves two upstream beacons, and sharing happens at all.
    assert_eq!(
        by_upstream.values().map(BTreeSet::len).sum::<usize>(),
        sharing.allocations,
        "{label}: {sharing:?}"
    );
    assert!(
        sharing.extended > sharing.allocations,
        "{label}: {sharing:?}"
    );
    sharing
}

#[test]
fn siblings_share_their_upstream_chain_on_a_converged_plane() {
    for (label, mut sim) in [("figure1", figure1(&["5SP"])), ("generated", generated())] {
        sim.run_rounds(6).expect("rounds");
        let sharing = sharing(&sim, label);
        assert_eq!(sharing.extra_passes(), 0, "{label}: {sharing:?}");
        println!("{label}: {sharing:?}");
    }
    // Two RACs: a beacon both select, the second for an interface the first did not name,
    // goes out in two passes — never more than one chain per RAC and upstream beacon.
    let mut sim = figure1(&["1SP", "5SP"]);
    sim.run_rounds(6).expect("rounds");
    let sharing = sharing(&sim, "figure1, two RACs");
    assert!(
        sharing.extra_passes() <= sharing.upstream_beacons,
        "{sharing:?}"
    );
    println!("figure1, two RACs: {sharing:?}");
}

#[test]
fn sharing_survives_snapshots_purges_and_rejoins() {
    let mut sim = generated();
    sim.run_rounds(4).expect("rounds");
    let before = sharing(&sim, "before");
    assert_eq!(before.extra_passes(), 0, "{before:?}");

    // A copy-on-write snapshot holds the very same beacons, and what it stores on its own
    // afterwards shares like everything else.
    let mut snapshot = sim.snapshot().into_simulation();
    let (ours, theirs) = (stored(&sim), stored(&snapshot));
    assert_eq!(ours.len(), theirs.len());
    assert!(ours.iter().zip(&theirs).all(|(a, b)| Arc::ptr_eq(a, b)));
    snapshot.run_rounds(2).expect("snapshot rounds");
    let after = sharing(&snapshot, "snapshot");
    assert_eq!(after.extra_passes(), 0, "{after:?}");
    assert!(after.extended > before.extended);
    assert_eq!(sharing(&sim, "base after the snapshot ran"), before);

    // A node leaves: every beacon through it is withdrawn, the survivors keep their
    // chains. It re-joins: its neighbours send it what they had sent before — each such
    // beacon in a new pass, so with a chain of its own beside the one its earlier
    // receivers still share.
    let leaver = *sim
        .live_ases()
        .iter()
        .max_by_key(|asn| sim.topology().links_of(**asn).len())
        .expect("ASes");
    let config = NodeConfig::default().with_racs(vec![RacConfig::static_rac("5SP", "5SP")]);
    sim.remove_node(leaver).expect("node");
    assert!(sim.withdraw_traversing_as(leaver) > 0);
    let purged = sharing(&sim, "purged");
    assert_eq!(purged.extra_passes(), 0, "{purged:?}");
    assert!(purged.extended < before.extended);
    sim.add_node(leaver, config).expect("re-join");
    sim.run_rounds(3).expect("rounds after the re-join");
    let resent = sim.node(leaver).expect("re-joined").ingress().db().len();
    assert!(resent > 0);
    let rejoined = sharing(&sim, "re-joined");
    assert!(rejoined.extra_passes() <= resent, "{rejoined:?}");
    assert!(rejoined.extended > purged.extended);
}

#[test]
fn the_store_ledger_is_below_the_flat_layout_and_pinned() {
    let mut sim = generated();
    sim.run_rounds(6).expect("rounds");
    let ledger = sim.store_bytes();
    let beacons = stored(&sim);
    assert_eq!(ledger.beacons, beacons.len());
    assert_eq!(ledger.beacons, sim.ingress_occupancy());

    assert_eq!(ledger.shared_chains, sharing(&sim, "ledger").allocations);
    let entry = std::mem::size_of::<AsEntry>();
    assert_eq!(ledger.owned_entry_bytes, ledger.beacons * entry);

    // The same plane, every beacon holding all of its entries itself.
    let flat_entry_bytes: usize = beacons.iter().map(|b| b.pcb.len() * entry).sum();
    let chained = ledger.total();
    let flat = chained - ledger.owned_entry_bytes - ledger.shared_chain_bytes + flat_entry_bytes;
    assert!(chained < flat, "{ledger:?} against {flat} flat");

    // Pinned, so the layout cannot grow back unnoticed: re-measure and say why when it
    // moves. (Chains here average 2.1 entries; the saving grows with their length.)
    println!(
        "{ledger:?}: {chained} B chained, {flat} B flat, {:.1} / {:.1} B per beacon",
        chained as f64 / ledger.beacons as f64,
        flat as f64 / ledger.beacons as f64
    );
    assert_eq!((ledger.beacons, chained, flat), PINNED);
}

/// `(beacons, ledger total, flat total)` of the converged 12-AS fixture. PR 25: slot
/// vectors grow by an eighth (6 304 → 4 576 slots of room, 252 160 → 183 040 B with the
/// dedup index), a stored beacon is 16 B smaller (802 976 → 733 152 B), and the egress dedup
/// maps joined the ledger (+115 732 B) — 1 587 184 → 1 563 972 B.
const PINNED: (usize, usize, usize) = (4364, 1_563_972, 2_006_196);
