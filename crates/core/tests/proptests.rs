//! Property-based suites pinning the core invariants the simulator relies on:
//!
//! * `RacTiming`, `PcbMessage` and `PullReturn` survive a wire encode/decode round-trip
//!   unchanged (the delivery plane's message types are wire-clean);
//! * the ingress database never hands out an expired beacon, its dedup always matches the
//!   stored digests, and `live_len` agrees with what queries can observe;
//! * the egress database's `evict_expired` count equals the number of hashes actually
//!   deleted, for any interleaving of insertions and (even non-monotonic) eviction sweeps.

use irec_core::beacon_db::BatchKey;
use irec_core::{
    EgressDb, IngressDb, PcbMessage, PullReturn, RacTiming, RegisteredPath, ShardedIngressDb,
    ShardedPathService,
};
use irec_pcb::{Pcb, PcbExtensions, PcbId};
use irec_types::{
    AsId, Bandwidth, IfId, InterfaceGroupId, Latency, PathMetrics, SimDuration, SimTime,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

proptest! {
    #[test]
    fn rac_timing_wire_roundtrip(
        components in (0u64..200_000_000_000, 0u64..200_000_000_000, 0u64..200_000_000_000),
        candidates in 0usize..5_000_000,
    ) {
        let timing = RacTiming {
            setup: Duration::from_nanos(components.0),
            marshal: Duration::from_nanos(components.1),
            execute: Duration::from_nanos(components.2),
            candidates,
        };
        let bytes = irec_wire::to_bytes(&timing);
        let decoded: RacTiming = irec_wire::from_bytes(&bytes).unwrap();
        prop_assert_eq!(decoded, timing);
        prop_assert_eq!(decoded.total(), timing.total());
    }

    #[test]
    fn rac_timing_decode_rejects_truncation(
        components in (1u64..1_000_000, 1u64..1_000_000, 1u64..1_000_000),
        cut in 1usize..4,
    ) {
        let timing = RacTiming {
            setup: Duration::from_nanos(components.0),
            marshal: Duration::from_nanos(components.1),
            execute: Duration::from_nanos(components.2),
            candidates: 7,
        };
        let mut bytes = irec_wire::to_bytes(&timing);
        let len = bytes.len();
        bytes.truncate(len - cut.min(len));
        prop_assert!(irec_wire::from_bytes::<RacTiming>(&bytes).is_err());
    }

    /// A `PcbMessage` survives the wire round-trip unchanged for any addressing and any
    /// beacon extension combination, and truncated encodings are rejected.
    #[test]
    fn pcb_message_wire_roundtrip(
        from_as in 1u64..1_000_000, from_if in 0u32..1_000,
        to_as in 1u64..1_000_000, to_if in 0u32..1_000,
        origin in 1u64..50, seq in 0u64..100, validity in 1u64..12,
        target in proptest::option::of(1u64..50),
        group in proptest::option::of(1u32..8),
        cut in 1usize..6,
    ) {
        let message = PcbMessage {
            from_as: AsId(from_as),
            from_if: IfId(from_if),
            to_as: AsId(to_as),
            to_if: IfId(to_if),
            pcb: extended_pcb(origin, seq, validity, target, group),
        };
        let bytes = irec_wire::to_bytes(&message);
        let decoded: PcbMessage = irec_wire::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded, &message);
        let mut truncated = bytes.clone();
        let len = truncated.len();
        truncated.truncate(len - cut.min(len));
        prop_assert!(irec_wire::from_bytes::<PcbMessage>(&truncated).is_err());
    }

    /// Same round-trip guarantee for `PullReturn`.
    #[test]
    fn pull_return_wire_roundtrip(
        from_as in 1u64..1_000_000, to_as in 1u64..1_000_000,
        target_ingress in 0u32..1_000,
        origin in 1u64..50, seq in 0u64..100, validity in 1u64..12,
        group in proptest::option::of(1u32..8),
        cut in 1usize..6,
    ) {
        let ret = PullReturn {
            from_as: AsId(from_as),
            to_as: AsId(to_as),
            target_ingress: IfId(target_ingress),
            pcb: extended_pcb(origin, seq, validity, Some(to_as), group),
        };
        let bytes = irec_wire::to_bytes(&ret);
        let decoded: PullReturn = irec_wire::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded, &ret);
        let mut truncated = bytes.clone();
        let len = truncated.len();
        truncated.truncate(len - cut.min(len));
        prop_assert!(irec_wire::from_bytes::<PullReturn>(&truncated).is_err());
    }

    /// Insert a batch of beacons, query and evict at random times: no expired beacon is
    /// ever returned by any query path, and `live_len` matches what the queries observe.
    #[test]
    fn ingress_db_never_returns_expired_beacons(
        beacons in proptest::collection::vec((1u64..5, 0u64..6, 1u64..10), 1..25),
        probe_hours in 0u64..12,
        evict_hours in 0u64..12,
    ) {
        let mut db = IngressDb::new();
        for (origin, seq, validity) in &beacons {
            db.insert(test_pcb(*origin, *seq, *validity), IfId(1), SimTime::ZERO);
        }
        let probe = SimTime::ZERO + SimDuration::from_hours(probe_hours);

        let mut observed = 0usize;
        for key in db.batch_keys() {
            for beacon in db.beacons_for(&key, probe) {
                prop_assert!(!beacon.pcb.is_expired(probe));
                observed += 1;
            }
            if let Some(view) = db.batch_view(&key, probe) {
                prop_assert!(view.beacons.iter().all(|b| !b.pcb.is_expired(probe)));
            }
            for beacon in db.beacons_for_origin(key.origin, key.target, probe) {
                prop_assert!(!beacon.pcb.is_expired(probe));
            }
        }
        prop_assert_eq!(db.live_len(probe), observed);

        // Eviction at an arbitrary time keeps the same guarantees for later probes.
        let evict_at = SimTime::ZERO + SimDuration::from_hours(evict_hours);
        let before = db.len();
        let evicted = db.evict_expired(evict_at, SimDuration::ZERO);
        prop_assert_eq!(db.len(), before - evicted);
        let probe_after = if probe >= evict_at { probe } else { evict_at };
        prop_assert_eq!(
            db.live_len(probe_after),
            db.batch_keys()
                .iter()
                .map(|k| db.beacons_for(k, probe_after).len())
                .sum::<usize>()
        );
    }

    /// Dedup always matches the stored digests: while a beacon is stored its digest is
    /// refused, and once evicted it can be inserted again.
    #[test]
    fn ingress_db_seen_matches_stored_digests(
        beacons in proptest::collection::vec((1u64..4, 0u64..5, 1u64..8), 1..20),
    ) {
        let mut db = IngressDb::new();
        let mut stored: Vec<Pcb> = Vec::new();
        for (origin, seq, validity) in &beacons {
            let pcb = test_pcb(*origin, *seq, *validity);
            if db.insert(pcb.clone(), IfId(1), SimTime::ZERO) {
                stored.push(pcb);
            }
        }
        prop_assert_eq!(db.len(), stored.len());
        // Every stored digest is refused on re-insertion.
        for pcb in &stored {
            prop_assert!(!db.insert(pcb.clone(), IfId(2), SimTime::ZERO));
        }
        prop_assert_eq!(db.len(), stored.len());
        // Evict everything: the ids must go with the beacons.
        let evicted = db.evict_expired(SimTime::MAX, SimDuration::ZERO);
        prop_assert_eq!(evicted, stored.len());
        prop_assert!(db.is_empty());
        for pcb in &stored {
            prop_assert!(db.insert(pcb.clone(), IfId(1), SimTime::ZERO));
        }
    }

    /// Copy-on-write isolation, model-checked: for any base contents and any per-snapshot
    /// write sequences, a `cow_clone` mutated by one "campaign pair" never leaks writes
    /// into the base database or into sibling snapshots. Each snapshot must end up
    /// observably identical to an independently built deep copy that replayed the same
    /// writes.
    #[test]
    fn cow_snapshots_isolate_writes_from_base_and_siblings(
        base_ops in proptest::collection::vec((1u64..9, 0u64..6, 1u64..10), 0..15),
        snapshot_ops in proptest::collection::vec(
            proptest::collection::vec((1u64..9, 0u64..6, 1u64..10), 1..10),
            1..4,
        ),
    ) {
        // --- Ingress side ---------------------------------------------------------------
        let base = ShardedIngressDb::default();
        for (origin, seq, validity) in &base_ops {
            base.insert(test_pcb(*origin, *seq, *validity), IfId(1), SimTime::ZERO);
        }
        let base_reference = base.clone(); // deep: pins the base's expected contents
        let snapshots: Vec<ShardedIngressDb> =
            snapshot_ops.iter().map(|_| base.cow_clone()).collect();
        let mut references: Vec<ShardedIngressDb> =
            snapshot_ops.iter().map(|_| base.clone()).collect();
        for ((snapshot, reference), ops) in
            snapshots.iter().zip(references.iter_mut()).zip(&snapshot_ops)
        {
            for (origin, seq, validity) in ops {
                // Distinct ingress interface per side, so a leaked write is visible
                // even when base and snapshot insert the same beacon.
                let pcb = test_pcb(*origin, *seq, *validity);
                snapshot.insert(pcb.clone(), IfId(7), SimTime::ZERO);
                reference.insert(pcb, IfId(7), SimTime::ZERO);
            }
        }
        // The base saw nothing.
        prop_assert_eq!(base.batch_keys(), base_reference.batch_keys());
        prop_assert_eq!(base.len(), base_reference.len());
        // Every snapshot equals its own deep-copy replay — writes of siblings are invisible
        // to it.
        for (snapshot, reference) in snapshots.iter().zip(&references) {
            prop_assert_eq!(snapshot.len(), reference.len());
            prop_assert_eq!(snapshot.batch_keys(), reference.batch_keys());
            for key in reference.batch_keys() {
                prop_assert_eq!(
                    snapshot.beacons_for(&key, SimTime::ZERO),
                    reference.beacons_for(&key, SimTime::ZERO),
                    "snapshot contents diverged"
                );
            }
        }

        // --- Path-service side ----------------------------------------------------------
        let base = ShardedPathService::default();
        for (destination, alg, id) in &base_ops {
            base.register(test_path(*destination, (*alg % 4) as usize, *id, 0));
        }
        let base_reference = base.clone();
        let snapshots: Vec<ShardedPathService> =
            snapshot_ops.iter().map(|_| base.cow_clone()).collect();
        let mut references: Vec<ShardedPathService> =
            snapshot_ops.iter().map(|_| base.clone()).collect();
        for ((snapshot, reference), ops) in
            snapshots.iter().zip(references.iter_mut()).zip(&snapshot_ops)
        {
            for (destination, alg, id) in ops {
                // Offset ids keep snapshot registrations distinct from base ones.
                let path = test_path(*destination, (*alg % 4) as usize, 1_000 + *id, 1);
                snapshot.register(path.clone());
                reference.register(path);
            }
        }
        prop_assert_eq!(base.all(), base_reference.all());
        for (snapshot, reference) in snapshots.iter().zip(&references) {
            prop_assert_eq!(
                snapshot.all(),
                reference.all(),
                "snapshot registrations diverged"
            );
        }
    }

    /// Model-checked egress bookkeeping: for any interleaving of `filter_new_egresses` and
    /// eviction sweeps (including re-appearing digests and non-monotonic sweep times), the
    /// `removed` count equals the number of hashes actually deleted and `len()` tracks a
    /// reference model exactly.
    #[test]
    fn egress_db_eviction_count_is_exact(
        ops in proptest::collection::vec((0u8..3, 1u64..5, 0u64..4, 1u64..9), 1..40),
    ) {
        let mut db = EgressDb::new();
        // Reference model: live digest -> expiry time.
        let mut model: HashMap<irec_pcb::PcbId, SimTime> = HashMap::new();
        for (kind, origin, seq, hours) in &ops {
            if *kind == 2 {
                // Eviction sweep at an arbitrary (not necessarily monotonic) time.
                let now = SimTime::ZERO + SimDuration::from_hours(*hours);
                let before = db.len();
                let removed = db.evict_expired(now);
                let expected: Vec<_> = model
                    .iter()
                    .filter(|(_, expiry)| **expiry <= now)
                    .map(|(id, _)| *id)
                    .collect();
                prop_assert_eq!(removed, expected.len());
                prop_assert_eq!(before - removed, db.len());
                for id in expected {
                    model.remove(&id);
                }
            } else {
                let pcb = test_pcb(*origin, *seq, *hours);
                let egress = IfId(*kind as u32 + 1);
                let id = pcb.digest();
                db.filter_new_egresses(id, pcb.expires_at, &[egress]);
                model.insert(id, pcb.expires_at);
                prop_assert!(db.contains(&id, egress));
            }
            prop_assert_eq!(db.len(), model.len());
        }
        // Final drain: everything left must be deleted, counted exactly once.
        let removed = db.evict_expired(SimTime::MAX);
        prop_assert_eq!(removed, model.len());
        prop_assert!(db.is_empty());
    }
}

/// The algorithm names the path-service proptest registers under (a fixed palette keeps
/// refreshes likely while still spreading registrations over several keys).
const PATH_ALGORITHMS: [&str; 4] = ["1SP", "5SP", "HD", "PD"];

/// A registered path whose identity (digest and link sequence) varies by
/// `(destination, algorithm, id)`: re-registering the same triple refreshes, different
/// triples never collide.
fn test_path(destination: u64, alg: usize, id: u64, at_hours: u64) -> RegisteredPath {
    let mut digest = [0u8; 32];
    digest[..8].copy_from_slice(&destination.to_le_bytes());
    digest[8..16].copy_from_slice(&id.to_le_bytes());
    digest[16] = alg as u8;
    RegisteredPath {
        pcb_id: PcbId(irec_crypto::Digest(digest)),
        destination: AsId(destination),
        destination_interface: IfId(1),
        local_interface: IfId(2),
        algorithm: PATH_ALGORITHMS[alg].to_string(),
        group: InterfaceGroupId::DEFAULT,
        metrics: PathMetrics {
            latency: Latency::from_millis(5 + id),
            bandwidth: Bandwidth::from_mbps(100),
            hops: 2,
        },
        links: vec![
            (AsId(destination), IfId(id as u32)),
            (AsId(500 + alg as u64), IfId(1)),
        ],
        registered_at: SimTime::ZERO + SimDuration::from_hours(at_hours),
    }
}

/// A minimal PCB (origination only — ingress/egress databases never verify signatures), with
/// digest varying by `(origin, seq, validity)`.
fn test_pcb(origin: u64, seq: u64, validity_hours: u64) -> Pcb {
    Pcb::originate(
        AsId(origin),
        seq,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_hours(validity_hours),
        PcbExtensions::none(),
    )
}

/// Like [`test_pcb`] but with the optional pull-target / interface-group extensions the
/// wire round-trip must preserve.
fn extended_pcb(
    origin: u64,
    seq: u64,
    validity_hours: u64,
    target: Option<u64>,
    group: Option<u32>,
) -> Pcb {
    let mut extensions = PcbExtensions::none();
    if let Some(t) = target {
        extensions = extensions.with_target(AsId(t));
    }
    if let Some(g) = group {
        extensions = extensions.with_interface_group(InterfaceGroupId(g));
    }
    Pcb::originate(
        AsId(origin),
        seq,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_hours(validity_hours),
        extensions,
    )
}

/// Hot-destination stress: many concurrent snapshots (one per "campaign pair") all write
/// paths for the **same destination** while the base keeps serving reads. Every snapshot
/// must materialize its own copy of the shared service exactly once and end up with
/// base + its own registrations; the base must stay untouched throughout.
#[test]
fn hot_destination_snapshot_writes_stay_isolated_under_contention() {
    const SNAPSHOTS: usize = 16;
    const WRITES_PER_SNAPSHOT: u64 = 50;
    let hot_destination = 3u64;

    // Limit high enough that nothing is evicted: the test asserts exact contents, and
    // per-key limit eviction would otherwise drop the stalest of the hot key's paths.
    let base = ShardedPathService::with_limit(2_000);
    for id in 0..10 {
        base.register(test_path(hot_destination, 0, id, 0));
    }
    let base_before = base.all();

    let results: Vec<(usize, Vec<RegisteredPath>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SNAPSHOTS)
            .map(|index| {
                let snapshot = base.cow_clone();
                assert!(
                    snapshot.shares_store_with(&base),
                    "fresh snapshots share the base's store"
                );
                scope.spawn(move || {
                    for id in 0..WRITES_PER_SNAPSHOT {
                        // Every snapshot hammers the same destination with ids disjoint
                        // from every sibling's.
                        let id = 1_000 + index as u64 * WRITES_PER_SNAPSHOT + id;
                        snapshot.register(test_path(hot_destination, 1, id, 1));
                    }
                    (index, snapshot.all())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // The base never saw a snapshot write.
    assert_eq!(base.all(), base_before);
    // Each snapshot holds exactly base + its own writes, in registration order.
    for (index, paths) in results {
        assert_eq!(
            paths.len(),
            base_before.len() + WRITES_PER_SNAPSHOT as usize,
            "snapshot {index} lost or gained registrations"
        );
        assert_eq!(&paths[..base_before.len()], &base_before[..]);
        for (offset, path) in paths[base_before.len()..].iter().enumerate() {
            let expected = test_path(
                hot_destination,
                1,
                1_000 + index as u64 * 50 + offset as u64,
                1,
            );
            assert_eq!(path, &expected, "snapshot {index} write {offset} corrupted");
        }
    }
}

/// Non-property smoke check that the default batch key layout used above matches the
/// database's grouping (guards the proptests against silently querying empty keys).
#[test]
fn test_pcb_lands_in_default_batch_key() {
    let mut db = IngressDb::new();
    db.insert(test_pcb(1, 0, 6), IfId(1), SimTime::ZERO);
    let key = BatchKey {
        origin: AsId(1),
        group: InterfaceGroupId::DEFAULT,
        target: None,
    };
    assert_eq!(db.beacons_for(&key, SimTime::ZERO).len(), 1);
}
