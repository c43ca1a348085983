//! The oracle of delta-driven selection: whatever happens to the ingress database between
//! two rounds, the round the node runs — reuse, extend or full pass, decided per batch from
//! the database's change stamps — must select exactly what a from-scratch pass over the
//! same database selects: the same stored beacons (pointer for pointer), ids, egress
//! interfaces and order.
//!
//! The property drives one set of [`SelectionTables`] through arbitrary interleavings of
//! inserts, duplicate and repeated inserts, eviction sweeps, withdrawal purges, clock
//! advances past expiries, batches emptied and refilled and catalog swaps, and compares
//! after most steps (so that changes also pile up between two rounds). The catalog holds
//! every algorithm family — the union-composable scored ones that always extend, HD that
//! extends under its certificate or is refused back to the full pass, `<k>YEN` / ACO that
//! never extend, and an on-demand IRVM RAC that is never kept — each with and without
//! interface-group processing over origins that use groups.

use crate::beacon_db::ShardedIngressDb;
use crate::config::RacConfig;
use crate::engine::{execute_racs, execute_racs_cached, SelectionTables};
use crate::rac::{AlgorithmFetcher, Rac, SharedAlgorithmStore};
use irec_crypto::{KeyRegistry, Signer};
use irec_pcb::{AlgorithmRef, Pcb, PcbExtensions, StaticInfo};
use irec_topology::{AsNode, Interface, Tier};
use irec_types::{
    AlgorithmId, AsId, Bandwidth, GeoCoord, IfId, InterfaceGroupId, Latency, LinkId, SimDuration,
    SimTime,
};
use proptest::prelude::*;
use std::sync::Arc;

const FAMILIES: [&str; 8] = [
    "1SP",
    "5SP",
    "DO",
    "widest",
    "shortest-widest",
    "HD",
    "5YEN",
    "aco:7:3",
];
/// The origin whose beacons carry the on-demand algorithm.
const ON_DEMAND_ORIGIN: u64 = 3;

fn local_as() -> AsNode {
    let mut node = AsNode::new(AsId(50), Tier::Tier2);
    for i in 1..=3u32 {
        node.interfaces.insert(
            IfId(i),
            Interface {
                id: IfId(i),
                owner: node.id,
                location: GeoCoord::new(40.0 + f64::from(i), 8.0),
                link: LinkId(u64::from(i)),
            },
        );
    }
    node
}

/// Every family once per interface-group mode, plus an on-demand RAC. `budget` is the
/// per-egress cap: small, so winners are a strict subset of a batch and arrivals compete.
fn catalog(budget: usize, store: &SharedAlgorithmStore) -> Vec<Rac> {
    let mut racs = Vec::new();
    for grouped in [false, true] {
        for family in FAMILIES {
            let name = format!("{family}/{grouped}");
            let config = RacConfig::static_rac(name, family)
                .with_interface_groups(grouped)
                .with_extended_paths(family == "DO")
                .with_pull_based(family == "5SP")
                .with_max_selected(budget);
            racs.push(Rac::new_static(config).unwrap());
        }
    }
    let fetcher = Arc::new(store.clone()) as Arc<dyn AlgorithmFetcher>;
    racs.push(Rac::new_on_demand(RacConfig::on_demand_rac("on-demand"), fetcher).unwrap());
    racs
}

/// A signed beacon of one of three origins (`ON_DEMAND_ORIGIN`'s carry the on-demand
/// algorithm) whose other fields are drawn from `draw`: up to three interface groups, an
/// occasional pull target, one or two hops over a handful of links — few enough values
/// that scores tie.
fn beacon(
    registry: &KeyRegistry,
    reference: AlgorithmRef,
    seq: u64,
    origin: u64,
    draw: u64,
    now: SimTime,
) -> Pcb {
    let mut extensions = PcbExtensions::none();
    if !draw.is_multiple_of(3) {
        extensions = extensions.with_interface_group(InterfaceGroupId((draw % 3) as u32));
    }
    if (draw >> 4).is_multiple_of(5) {
        extensions = extensions.with_target(AsId(9));
    }
    if origin == ON_DEMAND_ORIGIN {
        extensions = extensions.with_algorithm(reference);
    }
    let validity = SimDuration::from_hours(1 + (draw >> 7) % 4);
    let mut pcb = Pcb::originate(AsId(origin), seq, now, now + validity, extensions);
    let info = |bits: u64| {
        StaticInfo::origin(
            Latency::from_millis(1 + bits % 3),
            Bandwidth::from_mbps(100 * (1 + (bits >> 2) % 3)),
            None,
        )
    };
    pcb.extend(
        IfId::NONE,
        IfId(1 + ((draw >> 10) % 3) as u32),
        info(draw >> 12),
        &Signer::new(AsId(origin), registry.clone()),
    )
    .unwrap();
    if (draw >> 16).is_multiple_of(2) {
        pcb.extend(
            IfId(1),
            IfId(1 + ((draw >> 17) % 4) as u32),
            info(draw >> 19),
            &Signer::new(AsId(100 + (draw >> 23) % 3), registry.clone()),
        )
        .unwrap();
    }
    pcb
}

proptest! {
    #[test]
    fn delta_round_equals_from_scratch_round(
        steps in proptest::collection::vec((0u8..13, any::<u64>()), 4..32),
    ) {
        let registry = KeyRegistry::with_ases(11, 512);
        let store = SharedAlgorithmStore::new();
        let module = irec_irvm::programs::lowest_latency(3).to_module_bytes();
        let reference = store.publish(AsId(ON_DEMAND_ORIGIN), AlgorithmId(7), module);
        let node = local_as();
        let egress = [IfId(1), IfId(2), IfId(3)];

        let db = ShardedIngressDb::default();
        let mut tables = SelectionTables::new();
        let mut budget = 2;
        let mut racs = catalog(budget, &store);
        let mut now = SimTime::ZERO;
        let mut history: Vec<Pcb> = Vec::new();
        let insert_fresh = |history: &mut Vec<Pcb>, origin, draw: u64, now| {
            let pcb = beacon(&registry, reference, history.len() as u64, origin, draw, now);
            history.push(pcb.clone());
            db.insert(pcb, IfId(1 + ((draw >> 26) % 3) as u32), now);
        };

        for (op, draw) in steps {
            match op {
                // Arrivals are the common case, as in a beaconing round.
                0..=4 => insert_fresh(&mut history, 1 + draw % 3, draw >> 2, now),
                // A beacon seen before: a duplicate while it is stored, a re-inserted id
                // (under a new receive time) once it was evicted or purged.
                5 => {
                    if history.is_empty() {
                        continue;
                    }
                    let again = history[draw as usize % history.len()].clone();
                    db.insert(again, IfId(1 + (draw >> 8) as u32 % 3), now);
                }
                6 => {
                    db.evict_expired(now, SimDuration::from_hours(draw % 3));
                }
                7 => {
                    db.purge_where(|b| (b.pcb.sequence + b.pcb.origin.value() + draw) % 4 == 0);
                }
                8 => now += SimDuration::from_minutes(20 + draw % 100),
                // A batch family emptied, then refilled in the same step.
                9 => {
                    let origin = 1 + draw % 3;
                    db.purge_where(|b| b.pcb.origin == AsId(origin));
                    for i in 0..(draw >> 2) % 4 {
                        insert_fresh(&mut history, origin, draw.rotate_right(9 * i as u32 + 4), now);
                    }
                }
                // A catalog swap: the tables must notice the new context on their own.
                10 => {
                    budget = 5 - budget;
                    racs = catalog(budget, &store);
                }
                // Part of an origin's beacons withdrawn and others learned in the same
                // step: its batches lose and gain without changing much in length.
                _ => {
                    let origin = 1 + draw % 3;
                    db.purge_where(|b| {
                        b.pcb.origin == AsId(origin) && b.pcb.sequence % 2 == (draw >> 2) % 2
                    });
                    for i in 0..1 + (draw >> 3) % 3 {
                        insert_fresh(&mut history, origin, draw.rotate_right(11 * i as u32 + 5), now);
                    }
                }
            }

            // Not every step is followed by a round: removals, arrivals and swaps pile up
            // between two reads of the same cursor.
            if (draw >> 62) == 0 {
                continue;
            }
            let (expected, _) = execute_racs(&racs, &db, &node, &egress, now, 1).unwrap();
            let (delta_round, _) =
                execute_racs_cached(&racs, &db, &node, &egress, now, &mut tables).unwrap();
            let actual: Vec<_> = delta_round
                .iter()
                .flat_map(|batch| batch.selected.iter().map(move |selected| (batch, selected)))
                .collect();
            prop_assert_eq!(expected.len(), actual.len());
            for (want, (batch, got)) in expected.iter().zip(actual) {
                prop_assert_eq!(&*want.rac_name, &*batch.rac_name);
                prop_assert_eq!(want.origin, batch.origin);
                prop_assert_eq!(want.group, batch.group);
                prop_assert!(Arc::ptr_eq(&want.beacon, &got.beacon));
                prop_assert_eq!(got.pcb_id, got.beacon.pcb.digest());
                prop_assert_eq!(&want.egress_ifs[..], &got.egress_ifs[..]);
            }
        }
    }
}

/// The property above is only worth its runtime if its interleavings actually reach all
/// three passes; a fixed walk through one of each pins that they do.
#[test]
fn the_oracle_workload_reaches_reuse_extend_and_full() {
    let registry = KeyRegistry::with_ases(11, 512);
    let store = SharedAlgorithmStore::new();
    let module = irec_irvm::programs::lowest_latency(3).to_module_bytes();
    let reference = store.publish(AsId(ON_DEMAND_ORIGIN), AlgorithmId(7), module);
    let (node, egress) = (local_as(), [IfId(1), IfId(2), IfId(3)]);
    let racs = catalog(2, &store);
    let db = ShardedIngressDb::default();
    let mut tables = SelectionTables::new();
    let mut round = |db: &ShardedIngressDb| {
        execute_racs_cached(&racs, db, &node, &egress, SimTime::ZERO, &mut tables).unwrap();
        tables.stats()
    };
    // Eight beacons, then eight more with the same origins, groups and targets: every
    // batch of the second round gets an arrival in the third.
    let insert_wave = |first_seq: u64| {
        for seq in first_seq..first_seq + 8 {
            let draw = (seq % 8) * 0x9e37_79b9;
            let pcb = beacon(
                &registry,
                reference,
                seq,
                1 + seq % 8 % 3,
                draw,
                SimTime::ZERO,
            );
            db.insert(pcb, IfId(2), SimTime::ZERO);
        }
    };
    insert_wave(0);
    let first = round(&db);
    assert!(first.recomputed > 0 && first.reused + first.extended == 0);
    let second = round(&db);
    assert_eq!(second.recomputed, first.recomputed);
    assert_eq!(second.reused, first.recomputed);
    insert_wave(8);
    let third = round(&db);
    assert_eq!(third.reused, second.reused);
    assert!(third.extended > 0, "scored RACs extend over the arrivals");
    assert!(
        third.recomputed > second.recomputed,
        "YEN and ACO start over"
    );
}

/// HD's refusals are reached, and come out as the full pass would: one beacon at a time
/// into the batches of three origins, a round after each, HD with budgets one to three, with
/// and without interface groups. A small budget over few links
/// is where an arrival most often lets a candidate the last round left out back in.
#[test]
fn hd_refusals_fall_back_to_the_from_scratch_selection() {
    let registry = KeyRegistry::with_ases(11, 512);
    let reference = AlgorithmRef::new(AlgorithmId(7), irec_crypto::sha256(b"unused"));
    let (node, egress) = (local_as(), [IfId(1), IfId(2), IfId(3)]);
    let mut racs = Vec::new();
    for budget in 1..=3 {
        for grouped in [false, true] {
            let config = RacConfig::static_rac(format!("HD/{budget}/{grouped}"), "HD")
                .with_interface_groups(grouped)
                .with_max_selected(budget);
            racs.push(Rac::new_static(config).unwrap());
        }
    }
    let db = ShardedIngressDb::default();
    let mut tables = SelectionTables::new();
    for seq in 0..48u64 {
        let draw = seq.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        // Origins 1 and 2 only: none of these beacons names an algorithm.
        let pcb = beacon(&registry, reference, seq, 1 + seq % 2, draw, SimTime::ZERO);
        db.insert(pcb, IfId(1 + ((draw >> 26) % 3) as u32), SimTime::ZERO);
        let (expected, _) = execute_racs(&racs, &db, &node, &egress, SimTime::ZERO, 1).unwrap();
        let (delta_round, _) =
            execute_racs_cached(&racs, &db, &node, &egress, SimTime::ZERO, &mut tables).unwrap();
        let actual: Vec<_> = delta_round.iter().flat_map(|b| &b.selected).collect();
        assert_eq!(expected.len(), actual.len());
        for (want, got) in expected.iter().zip(actual) {
            assert!(Arc::ptr_eq(&want.beacon, &got.beacon));
            assert_eq!(&want.egress_ifs[..], &got.egress_ifs[..]);
        }
    }
    let stats = tables.stats();
    assert!(
        stats.extended > 0 && stats.refused > 0,
        "HD neither extends nor refuses: {stats:?}"
    );
    assert!(stats.refused <= stats.recomputed);
}
