//! Acceptance tests for verify-ahead delivery and the stores it commits into. A round's
//! PCBs are verified on a helper thread while the node phase runs; the output must equal
//! the inline reference, which verified every PCB at delivery — same registered paths in
//! the same order, same delivered/dropped/rejected counters, same ingress occupancy — on
//! the fig6-scale workload (generated topology, the paper's static RAC set), under failure
//! injection and under the paper's five-RAC deployment. Each plane's reference was
//! recorded inline, as its counters and the digest of its whole fingerprint; the goldens
//! of `tests/fixture_matrix.rs` pin the same on every fixture's plane. Delivery commits
//! each accepted PCB under the id its verification computed: every stored beacon must
//! sit under its own digest.
//!
//! The ingress database and the path service take their writes through `&self`. The
//! second half hammers them from scoped threads: no insert or registration may be lost,
//! and limit evictions must be counted exactly. The ingress gateway has one owner; its
//! commit path is checked serially.

mod common;

use common::{assert_matches_inline, Reference, RunFingerprint};
use irec_bench::fixtures;
use irec_core::beacon_db::BatchKey;
use irec_core::path_service::{RegisteredPath as StoredPath, ShardedPathService};
use irec_core::{
    IngressGateway, IrecNode, NodeConfig, PropagationPolicy, PullReturn, RacConfig,
    ShardedIngressDb, SharedAlgorithmStore,
};
use irec_crypto::{Digest, KeyRegistry, Signer, Verifier};
use irec_pcb::{Pcb, PcbExtensions, PcbId, StaticInfo};
use irec_sim::{DeliveryStats, Simulation, SimulationConfig};
use irec_topology::builder::{figure1, figure1_topology};
use irec_topology::{GeneratorConfig, TopologyGenerator};
use irec_types::{
    AsId, Bandwidth, IfId, InterfaceGroupId, Latency, PathMetrics, SimDuration, SimTime,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The fig6 smoke workload: a 12-AS generated topology beaconing for 3 rounds with the
/// paper's static RAC set.
fn run_fig6_workload() -> RunFingerprint {
    let topology = Arc::new(
        TopologyGenerator::new(GeneratorConfig {
            num_ases: 12,
            seed: 5,
            ..Default::default()
        })
        .generate(),
    );
    let mut sim = Simulation::new(topology, SimulationConfig::default(), move |_| {
        NodeConfig::default().with_racs(vec![
            RacConfig::static_rac("1SP", "1SP"),
            RacConfig::static_rac("5SP", "5SP"),
            RacConfig::static_rac("HD", "HD"),
            RacConfig::static_rac("DON", "DO"),
        ])
    })
    .expect("simulation setup");
    sim.run_rounds(3).expect("beaconing rounds");
    RunFingerprint::of(&sim)
}

/// The headline acceptance criterion: verifying ahead on the helper is byte-identical to
/// the inline reference on the fig6 workload.
#[test]
fn delivery_parallelism_is_byte_identical_on_fig6_workload() {
    let run = run_fig6_workload();
    assert!(!run.paths.is_empty(), "the scenario must register paths");
    assert!(run.stats.delivered > 0);
    assert_matches_inline(
        &run,
        Reference {
            paths: 3217,
            overhead_total: 6764,
            stats: DeliveryStats {
                delivered: 6107,
                dropped_no_node: 0,
                dropped_link_down: 0,
                rejected: 657,
            },
            occupancy: 6107,
            digest: 5679739975905763776,
        },
    );
}

/// Same guarantee with failure injection: a removed node exercises the `dropped_no_node`
/// path, and the split counters stay those of the inline reference.
#[test]
fn delivery_parallelism_is_byte_identical_under_failure_injection() {
    let mut sim = Simulation::new(
        Arc::new(figure1_topology()),
        SimulationConfig::default(),
        |_| {
            NodeConfig::default()
                .with_policy(PropagationPolicy::All)
                .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
        },
    )
    .expect("simulation setup");
    sim.run_rounds(2).expect("beaconing rounds");
    sim.remove_node(figure1::X);
    sim.run_rounds(2).expect("beaconing rounds after failure");
    let run = RunFingerprint::of(&sim);
    assert!(
        run.stats.dropped_no_node > 0,
        "the removed AS must lose in-flight messages"
    );
    assert_matches_inline(
        &run,
        Reference {
            paths: 37,
            overhead_total: 151,
            stats: DeliveryStats {
                delivered: 108,
                dropped_no_node: 25,
                dropped_link_down: 0,
                rejected: 18,
            },
            occupancy: 101,
            digest: 2675090489602780259,
        },
    );
}

/// Verify-ahead under the paper's five-RAC deployment, on-demand RAC included, still
/// reproduces the inline output: flights come back from the helper in whatever order it
/// verified them, and the outputs must still be scheduled in `AsId` order.
#[test]
fn stacked_parallelism_is_byte_identical() {
    let mut sim = Simulation::new(
        Arc::new(figure1_topology()),
        SimulationConfig::default(),
        |_| NodeConfig::paper_simulation(false).with_policy(PropagationPolicy::All),
    )
    .expect("simulation setup");
    sim.run_rounds(4).expect("beaconing rounds");
    let run = RunFingerprint::of(&sim);
    assert!(!run.paths.is_empty());
    assert_matches_inline(
        &run,
        Reference {
            paths: 190,
            overhead_total: 180,
            stats: DeliveryStats {
                delivered: 156,
                dropped_no_node: 0,
                dropped_link_down: 0,
                rejected: 24,
            },
            occupancy: 156,
            digest: 18004734283395640589,
        },
    );
}

/// Every beacon a node stores sits under its own id, `Pcb::digest()`, recomputed here
/// from the stored beacon. A PCB accepted ahead commits under the id its verification
/// computed, carried through the flight and the queue entry, so an id that went to the
/// wrong PCB on the way, or was never filled in, stores a beacon under an id that is not
/// its own. Checked on the planes of the `generated-a12-r3-s5` and
/// `figure1-5sp-expiring-r4` fixtures; on the second, PCBs rejected ahead are verified
/// again inline.
#[test]
fn every_stored_beacon_sits_under_its_own_digest() {
    let mut generated = fixtures::generated_simulation(12, 5);
    generated.run_rounds(3).expect("beaconing rounds");
    let mut expiring = fixtures::figure1_expiring_simulation();
    expiring.run_rounds(4).expect("beaconing rounds");
    assert!(expiring.delivery_stats().rejected > 0);
    for sim in [&generated, &expiring] {
        let mut checked = 0;
        for asn in sim.live_ases() {
            let db = sim.node(asn).expect("live node").ingress().db();
            for key in db.batch_keys() {
                let Some(view) = db.batch_view(&key, SimTime::ZERO) else {
                    continue;
                };
                for (beacon, id) in view.beacons.iter().zip(view.ids()) {
                    assert_eq!(*id, beacon.pcb.digest(), "{asn:?} {key:?}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "the plane stores beacons");
    }
}

/// The hot origin: one |Φ| of 600, a paper-scale candidate set, next to background
/// origins with small batches.
const HOT_ORIGIN: AsId = AsId(7);
const HOT_BATCH: u64 = 600;
const BACKGROUND_ORIGINS: u64 = 7;
const BACKGROUND_BATCH: u64 = 24;

/// `HOT_BATCH` distinct beacons from the hot origin plus `BACKGROUND_BATCH` from each
/// other background origin. Origination-only PCBs — the database never verifies
/// signatures, digests vary by `(origin, seq)`.
fn beacon_workload() -> Vec<Pcb> {
    let expiry = SimTime::ZERO + SimDuration::from_hours(6);
    let originate = |origin: AsId, seq| {
        Pcb::originate(origin, seq, SimTime::ZERO, expiry, PcbExtensions::none())
    };
    let mut beacons: Vec<Pcb> = (0..HOT_BATCH)
        .map(|seq| originate(HOT_ORIGIN, seq))
        .collect();
    for origin in (1..=BACKGROUND_ORIGINS).filter(|&o| o != HOT_ORIGIN.value()) {
        beacons.extend((0..BACKGROUND_BATCH).map(|seq| originate(AsId(origin), seq)));
    }
    beacons
}

fn distinct_beacons() -> usize {
    (HOT_BATCH + (BACKGROUND_ORIGINS - 1) * BACKGROUND_BATCH) as usize
}

/// Scoped threads hammer `insert` — every beacon is raced by **two** threads, so exactly
/// one of each pair must win the dedup — while another thread runs eviction sweeps (no-ops
/// at t=0, but they take the same lock). No insert may be lost and the occupancy must be
/// exact.
#[test]
fn hot_origin_hammering_loses_no_inserts() {
    let db = ShardedIngressDb::default();
    let beacons = beacon_workload();
    let accepted = AtomicUsize::new(0);
    let duplicates = AtomicUsize::new(0);
    let writers = 8usize;
    std::thread::scope(|scope| {
        for writer in 0..writers {
            let (db, beacons, accepted, duplicates) = (&db, &beacons, &accepted, &duplicates);
            scope.spawn(move || {
                // Writers w and w+4 insert the same quarter of the workload: every beacon
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
        let db = &db;
        scope.spawn(move || {
            for _ in 0..50 {
                assert_eq!(db.evict_expired(SimTime::ZERO, SimDuration::ZERO), 0);
            }
        });
    });

    let distinct = distinct_beacons();
    assert_eq!(
        accepted.load(Ordering::Relaxed),
        distinct,
        "lost or double-counted inserts"
    );
    assert_eq!(duplicates.load(Ordering::Relaxed), distinct);
    assert_eq!(db.len(), distinct);
    assert_eq!(db.live_len(SimTime::ZERO), distinct);
    // The hot batch is complete and still one batch: a batch is stored whole, whatever
    // its size.
    let hot_key = BatchKey {
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

/// The same workload through the ingress gateway's commit path, every beacon committed
/// twice: each is stored once and counted once as accepted and once as a duplicate.
#[test]
fn gateway_commits_match_serial_reference() {
    let registry = KeyRegistry::with_ases(3, 16);
    let beacons = beacon_workload();
    // Verdicts are precomputed `Ok` (carrying the beacon's id, as a real verdict does) —
    // the test targets the commit path, not signature verification.
    let mut gateway = IngressGateway::new(AsId(99), Verifier::new(registry));
    for pcb in &beacons {
        for _ in 0..2 {
            let _ = gateway.commit(pcb.clone(), IfId(1), SimTime::ZERO, Ok(pcb.digest()));
        }
    }

    assert_eq!(gateway.db().len(), distinct_beacons());
    assert_eq!(gateway.stats().accepted as usize, distinct_beacons());
    assert_eq!(gateway.stats().duplicates as usize, distinct_beacons());
    assert_eq!(gateway.stats().rejected, 0);
}

/// Most registrations go towards one destination, next to a few background ones.
const HOT_DEST: AsId = AsId(70);
const HOT_PATHS: u64 = 600;
const BACKGROUND_DESTS: u64 = 7;
const BACKGROUND_PATHS: u64 = 24;

fn path(destination: AsId, id: u64) -> StoredPath {
    let mut digest = [0u8; 32];
    digest[..8].copy_from_slice(&id.to_le_bytes());
    digest[8..16].copy_from_slice(&destination.value().to_le_bytes());
    StoredPath {
        pcb_id: PcbId(Digest(digest)),
        destination,
        destination_interface: IfId(1),
        local_interface: IfId(2),
        algorithm: "PD".to_string(),
        group: InterfaceGroupId::DEFAULT,
        metrics: PathMetrics {
            latency: Latency::from_millis(10 + id),
            bandwidth: Bandwidth::from_mbps(100),
            hops: 2,
        },
        // Distinct link sequences per (destination, id): registrations never refresh each
        // other, so the expected occupancy is exact.
        links: vec![(destination, IfId(id as u32)), (AsId(900 + id), IfId(1))],
        registered_at: SimTime::ZERO,
    }
}

/// Scoped threads hammer `register` so that **two** threads race every path — the second
/// registration must refresh, not duplicate — while the limit stays out of reach. No
/// registration may be lost and the occupancy must be exact.
#[test]
fn hot_destination_hammering_loses_no_registrations() {
    let service = ShardedPathService::with_limit(2_000);
    let mut paths: Vec<StoredPath> = (0..HOT_PATHS).map(|id| path(HOT_DEST, id)).collect();
    for dest in 1..=BACKGROUND_DESTS {
        paths.extend((0..BACKGROUND_PATHS).map(|id| path(AsId(dest), id)));
    }
    let writers = 8usize;
    std::thread::scope(|scope| {
        for writer in 0..writers {
            let (service, paths) = (&service, &paths);
            scope.spawn(move || {
                // Writers w and w+4 register the same quarter of the workload: every path
                // is attempted exactly twice, by two different threads.
                for (index, p) in paths.iter().enumerate() {
                    if index % (writers / 2) == writer % (writers / 2) {
                        service.register(p.clone());
                    }
                }
            });
        }
    });
    assert_eq!(service.len(), paths.len());
    assert_eq!(service.paths_to(HOT_DEST).len(), HOT_PATHS as usize);
    assert_eq!(
        service.paths_to_by(HOT_DEST, "PD").len(),
        HOT_PATHS as usize
    );
    assert_eq!(service.destinations().len(), 1 + BACKGROUND_DESTS as usize);
    assert_eq!(service.evictions(), 0, "no limit evictions expected");
}

/// The per-key limit under concurrent registration: inserting N distinct paths into one
/// `(RAC, destination, group)` key evicts exactly `N - limit` registrations, no matter how
/// the racing writers interleave.
#[test]
fn limit_eviction_count_is_exact_under_concurrency() {
    const LIMIT: usize = 20;
    let service = ShardedPathService::with_limit(LIMIT);
    let paths: Vec<StoredPath> = (0..HOT_PATHS).map(|id| path(HOT_DEST, id)).collect();
    let writers = 4usize;
    std::thread::scope(|scope| {
        for writer in 0..writers {
            let (service, paths) = (&service, &paths);
            scope.spawn(move || {
                for (index, p) in paths.iter().enumerate() {
                    if index % writers == writer {
                        service.register(p.clone());
                    }
                }
            });
        }
    });
    assert_eq!(service.paths_to(HOT_DEST).len(), LIMIT);
    assert_eq!(service.len(), LIMIT);
    assert_eq!(service.evictions(), HOT_PATHS - LIMIT as u64);
}

/// The node-level commit path the delivery plane drives: pull returns committed through
/// `&self` from one thread per destination must leave the path service byte-identical to
/// a serial reference — same paths, same order.
#[test]
fn concurrent_pull_returns_match_serial_reference() {
    let topology = Arc::new(figure1_topology());
    let registry = KeyRegistry::with_ases(1, 16);
    let store = SharedAlgorithmStore::new();
    let node = || {
        IrecNode::new(
            AsId(1),
            NodeConfig::default().with_policy(PropagationPolicy::All),
            Arc::clone(&topology),
            registry.clone(),
            store.clone(),
        )
        .expect("node setup")
    };

    // For each of six target ASes, a fan of pull returns whose beacons traverse distinct
    // egress interfaces (distinct link sequences, so every return registers its own path).
    // The fan stays below the per-key registration limit (20), so nothing is evicted.
    let signer = Signer::new(AsId(1), registry.clone());
    let mut by_target: BTreeMap<u64, Vec<PullReturn>> = BTreeMap::new();
    for target in 60..66u64 {
        for seq in 0..18u64 {
            let mut pcb = Pcb::originate(
                AsId(1),
                target * 1_000 + seq,
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_hours(6),
                PcbExtensions::none().with_target(AsId(target)),
            );
            pcb.extend(
                IfId::NONE,
                IfId(1 + seq as u32),
                StaticInfo::origin(
                    Latency::from_millis(5 + seq),
                    Bandwidth::from_mbps(100),
                    None,
                ),
                &signer,
            )
            .expect("beacon extension");
            by_target.entry(target).or_default().push(PullReturn {
                from_as: AsId(target),
                to_as: AsId(1),
                target_ingress: IfId(2),
                pcb,
            });
        }
    }

    let reference = node();
    for ret in by_target.values().flatten() {
        reference.handle_pull_return(ret.clone(), SimTime::ZERO);
    }
    let reference_paths = reference.path_service().all();
    assert_eq!(reference_paths.len(), 6 * 18);

    let concurrent = node();
    std::thread::scope(|scope| {
        for returns in by_target.values() {
            let concurrent = &concurrent;
            scope.spawn(move || {
                for ret in returns {
                    concurrent.handle_pull_return(ret.clone(), SimTime::ZERO);
                }
            });
        }
    });
    assert_eq!(concurrent.path_service().all(), reference_paths);
}
