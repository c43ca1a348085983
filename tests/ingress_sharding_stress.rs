//! Concurrency stress tests for the sharded ingress database: a hot-origin workload (one
//! origin emitting batches far beyond the engine's 512-candidate split threshold, next to a
//! handful of background origins) hammered from scoped threads. The database must lose no
//! insert, deduplicate exactly once per digest under racing double-inserts, and report
//! exact occupancy afterwards — concurrent sweeps included.

use irec_core::{IngressGateway, ShardedIngressDb};
use irec_crypto::{KeyRegistry, Verifier};
use irec_pcb::{Pcb, PcbExtensions};
use irec_types::{AsId, IfId, InterfaceGroupId, SimDuration, SimTime};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The hot origin: one |Φ| well above `irec_core::BATCH_SPLIT_THRESHOLD` (512).
const HOT_ORIGIN: AsId = AsId(7);
const HOT_BATCH: u64 = 600;
/// Background origins with small batches, so the workload crosses shard boundaries.
const BACKGROUND_ORIGINS: u64 = 7;
const BACKGROUND_BATCH: u64 = 24;

/// The full workload: `HOT_BATCH` distinct beacons from the hot origin plus
/// `BACKGROUND_ORIGINS * BACKGROUND_BATCH` from the background origins. Origination-only
/// PCBs — the database never verifies signatures, digests vary by `(origin, seq)`.
fn workload() -> Vec<Pcb> {
    let mut beacons = Vec::new();
    let expiry = SimTime::ZERO + SimDuration::from_hours(6);
    for seq in 0..HOT_BATCH {
        beacons.push(Pcb::originate(
            HOT_ORIGIN,
            seq,
            SimTime::ZERO,
            expiry,
            PcbExtensions::none(),
        ));
    }
    for origin in 1..=BACKGROUND_ORIGINS {
        if origin == HOT_ORIGIN.value() {
            continue;
        }
        for seq in 0..BACKGROUND_BATCH {
            beacons.push(Pcb::originate(
                AsId(origin),
                seq,
                SimTime::ZERO,
                expiry,
                PcbExtensions::none(),
            ));
        }
    }
    beacons
}

fn distinct_count() -> usize {
    (HOT_BATCH + (BACKGROUND_ORIGINS - 1) * BACKGROUND_BATCH) as usize
}

/// Scoped threads hammer `insert` round-robin — every beacon is raced by **two** threads,
/// so exactly one of each pair must win the dedup — while another thread runs concurrent
/// eviction sweeps (no-ops at t=0, but they exercise the same shard locks). No insert may
/// be lost and the occupancy must be exact.
#[test]
fn hot_origin_hammering_loses_no_inserts() {
    for shards in [1usize, 4, 7, 16] {
        let db = ShardedIngressDb::new(shards);
        let beacons = workload();
        let accepted = AtomicUsize::new(0);
        let duplicates = AtomicUsize::new(0);
        let writers = 8usize;
        std::thread::scope(|scope| {
            for writer in 0..writers {
                let db = &db;
                let beacons = &beacons;
                let accepted = &accepted;
                let duplicates = &duplicates;
                scope.spawn(move || {
                    // Writers w and w+4 insert the same half of the workload: every beacon
                    // is attempted exactly twice, by two different threads.
                    for (index, pcb) in beacons.iter().enumerate() {
                        if index % (writers / 2) != writer % (writers / 2) {
                            continue;
                        }
                        if db.insert(pcb.clone(), IfId(1), SimTime::ZERO) {
                            accepted.fetch_add(1, Ordering::Relaxed);
                        } else {
                            duplicates.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            // A concurrent sweeper: eviction at t=0 with no grace never evicts (nothing is
            // expired), but it takes and releases every shard's write lock repeatedly.
            let db = &db;
            scope.spawn(move || {
                for _ in 0..50 {
                    assert_eq!(db.evict_expired(SimTime::ZERO, SimDuration::ZERO), 0);
                }
            });
        });

        let distinct = distinct_count();
        assert_eq!(
            accepted.load(Ordering::Relaxed),
            distinct,
            "lost or double-counted inserts at {shards} shards"
        );
        assert_eq!(duplicates.load(Ordering::Relaxed), distinct);
        assert_eq!(db.len(), distinct, "occupancy at {shards} shards");
        assert_eq!(db.live_len(SimTime::ZERO), distinct);

        // The hot batch is complete and still one batch (oversized batches split into
        // engine work items, not into storage fragments).
        let hot_key = irec_core::beacon_db::BatchKey {
            origin: HOT_ORIGIN,
            group: InterfaceGroupId::DEFAULT,
            target: None,
        };
        assert_eq!(
            db.beacons_for(&hot_key, SimTime::ZERO).len(),
            HOT_BATCH as usize
        );
        assert_eq!(db.batch_keys().len(), BACKGROUND_ORIGINS as usize);

        // A final full sweep drains exactly what was stored.
        assert_eq!(db.evict_expired(SimTime::MAX, SimDuration::ZERO), distinct);
        assert!(db.is_empty());
    }
}

/// The same workload through the ingress gateway's sharded commit path: per-shard inboxes
/// committed from scoped threads (the delivery plane's apply-stage shape), with stats
/// reduced over shards. Aggregate stats must equal a serial single-shard run.
#[test]
fn sharded_gateway_commits_match_serial_reference() {
    let registry = KeyRegistry::with_ases(3, 16);
    let beacons = workload();

    // Serial single-shard reference. Verdicts are precomputed `Ok` (carrying the beacon's
    // id, as a real verdict does) — the stress targets the commit path, not signature
    // verification.
    let reference = IngressGateway::new(AsId(99), Verifier::new(registry.clone()));
    for pcb in &beacons {
        let verdict = Ok(pcb.digest());
        let _ = reference.commit(pcb.clone(), IfId(1), SimTime::ZERO, verdict.clone());
        // Every beacon is also committed a second time, as in the racing test.
        let _ = reference.commit(pcb.clone(), IfId(1), SimTime::ZERO, verdict);
    }

    for shards in [2usize, 7, 16] {
        let gateway =
            IngressGateway::with_shards(AsId(99), Verifier::new(registry.clone()), shards);
        // Partition into per-shard inboxes (delivery order preserved within a shard), then
        // commit every inbox on its own thread — twice, so dedup races within a shard too.
        let mut inboxes: Vec<Vec<&Pcb>> = vec![Vec::new(); shards];
        for pcb in &beacons {
            inboxes[gateway.db().shard_of(pcb.origin)].push(pcb);
        }
        std::thread::scope(|scope| {
            for (shard, inbox) in inboxes.iter().enumerate() {
                let gateway = &gateway;
                scope.spawn(move || {
                    for pcb in inbox {
                        for _ in 0..2 {
                            let _ = gateway.commit_in_shard(
                                shard,
                                (*pcb).clone(),
                                IfId(1),
                                SimTime::ZERO,
                                Ok(pcb.digest()),
                            );
                        }
                    }
                });
            }
        });
        assert_eq!(
            gateway.stats(),
            reference.stats(),
            "stats at {shards} shards"
        );
        assert_eq!(gateway.db().len(), reference.db().len());
        assert_eq!(gateway.db().batch_keys(), reference.db().batch_keys());
    }
    assert_eq!(reference.stats().accepted as usize, distinct_count());
    assert_eq!(reference.stats().duplicates as usize, distinct_count());
    assert_eq!(reference.stats().rejected, 0);
}
