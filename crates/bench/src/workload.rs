//! The |Φ| workload of §VII-B: synthetic candidate PCB sets and the measurement kernels for
//! the Fig. 6 / Fig. 7 experiments.

use irec_algorithms::incremental::IncrementalStats;
use irec_algorithms::score::KShortestPaths;
use irec_algorithms::{AlgorithmContext, Candidate, CandidateBatch, RoutingAlgorithm};
use irec_core::beacon_db::{BatchKey, StoredBeacon};
use irec_core::PropagationPolicy;
use irec_core::{
    execute_racs, NodeConfig, Rac, RacConfig, RacTiming, ShardedIngressDb, SharedAlgorithmStore,
};
use irec_crypto::{KeyRegistry, Signer};
use irec_metrics::RegisteredPath;
use irec_pcb::{Pcb, PcbExtensions, StaticInfo};
use irec_sim::{
    ChurnConfig, ChurnEngine, ChurnStep, DeliveryStats, PdCampaign, RoundScheduler, SchedulerStats,
    Simulation, SimulationConfig,
};
use irec_topology::{AsNode, GeneratorConfig, Interface, Tier, TopologyGenerator};
use irec_types::{
    AlgorithmId, AsId, Bandwidth, GeoCoord, IfId, InterfaceGroupId, Latency, LinkId, Result,
    SimDuration, SimTime,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The origin AS all synthetic candidates come from.
pub const WORKLOAD_ORIGIN: AsId = AsId(1);
/// The AS running the benchmarked RAC.
pub const WORKLOAD_LOCAL_AS: AsId = AsId(900);

/// A single latency measurement row of the Fig. 6 series.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measurement {
    /// Candidate-set size |Φ|.
    pub phi: usize,
    /// Sandbox/algorithm instantiation latency ("WASM setup").
    pub setup: Duration,
    /// Candidate marshalling latency ("gRPC calls").
    pub marshal: Duration,
    /// Algorithm execution latency ("WASM module execution").
    pub execute: Duration,
    /// Latency of the legacy control service on the same candidate set.
    pub legacy: Duration,
}

impl Measurement {
    /// Total IREC processing latency (setup + marshal + execute).
    pub fn irec_total(&self) -> Duration {
        self.setup + self.marshal + self.execute
    }

    /// The IREC/legacy latency ratio (the paper reports ~426× at |Φ| = 64).
    pub fn ratio(&self) -> f64 {
        let legacy = self.legacy.as_nanos().max(1) as f64;
        self.irec_total().as_nanos() as f64 / legacy
    }
}

/// Generates a synthetic candidate set of size `phi`: beacons from one origin with 2–6 AS
/// hops and randomized latency/bandwidth metadata, all received by the benchmarked AS.
pub fn candidate_set(phi: usize, seed: u64) -> Vec<Arc<StoredBeacon>> {
    candidate_set_for(WORKLOAD_ORIGIN, phi, seed)
}

/// Like [`candidate_set`], for an arbitrary origin AS — the multi-batch engine workload
/// needs candidate batches from several distinct origins.
pub fn candidate_set_for(origin: AsId, phi: usize, seed: u64) -> Vec<Arc<StoredBeacon>> {
    let registry = KeyRegistry::with_ases(7, 64);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(phi);
    for i in 0..phi {
        let hops = rng.gen_range(2..=6usize);
        let mut pcb = Pcb::originate(
            origin,
            i as u64,
            SimTime::ZERO,
            SimTime::ZERO + SimDuration::from_hours(6),
            PcbExtensions::none(),
        );
        for h in 0..hops {
            let asn = if h == 0 {
                origin
            } else {
                AsId(1 + h as u64 * 3 + (i as u64 % 3))
            };
            let signer = Signer::new(asn, registry.clone());
            let info = StaticInfo {
                link_latency: Latency::from_micros(rng.gen_range(1_000..40_000)),
                link_bandwidth: Bandwidth::from_mbps(rng.gen_range(10..10_000)),
                intra_latency: Latency::from_micros(rng.gen_range(0..2_000)),
                egress_location: Some(GeoCoord::new(
                    rng.gen_range(-60.0..60.0),
                    rng.gen_range(-180.0..180.0),
                )),
            };
            let ingress = if h == 0 { IfId::NONE } else { IfId(1) };
            let egress = IfId(2 + (i % 4) as u32);
            pcb.extend(ingress, egress, info, &signer)
                .expect("synthetic beacon extension is valid");
        }
        out.push(Arc::new(StoredBeacon {
            pcb,
            ingress: IfId(1 + (i % 2) as u32),
            received_at: SimTime::ZERO,
        }));
    }
    out
}

/// The local AS the benchmarked RAC runs in: a handful of interfaces with distinct locations
/// so extended-path optimization has something to chew on.
pub fn workload_local_as() -> AsNode {
    let mut node = AsNode::new(WORKLOAD_LOCAL_AS, Tier::Tier2);
    let locations = [(47.37, 8.54), (50.11, 8.68), (40.71, -74.0), (1.35, 103.82)];
    for (i, (lat, lon)) in locations.iter().enumerate() {
        let ifid = IfId(i as u32 + 1);
        node.interfaces.insert(
            ifid,
            Interface {
                id: ifid,
                owner: node.id,
                location: GeoCoord::new(*lat, *lon),
                link: LinkId(i as u64),
            },
        );
    }
    node
}

/// Builds the on-demand RAC used by the Fig. 6 / Fig. 7 measurements: it runs the legacy
/// SCION selection (20 shortest paths), shipped as an IRVM module and fetched/verified like
/// any on-demand algorithm — "our RAC implementation, configured as an on-demand RAC (i.e.,
/// the one with higher overhead)".
pub fn on_demand_rac() -> (
    Rac,
    Vec<Arc<StoredBeacon>>, /* template tagging */
    SharedAlgorithmStore,
) {
    let store = SharedAlgorithmStore::new();
    let program = irec_irvm::programs::shortest_path(20);
    let reference = store.publish(WORKLOAD_ORIGIN, AlgorithmId(1), program.to_module_bytes());
    let rac = Rac::new_on_demand(
        RacConfig::on_demand_rac("bench-od"),
        std::sync::Arc::new(store.clone()),
    )
    .expect("on-demand RAC config is valid");
    // Tag template: candidates must carry the algorithm reference so the on-demand RAC
    // processes them. We return an empty vec here; `tag_candidates` applies the reference.
    let _ = reference;
    (rac, Vec::new(), store)
}

/// Tags a candidate set with the on-demand algorithm reference so an on-demand RAC processes
/// it (origins embed the reference when originating). Signatures are recomputed because the
/// extension is part of the signed header.
pub fn tag_candidates(
    candidates: &[Arc<StoredBeacon>],
    store: &SharedAlgorithmStore,
) -> Vec<Arc<StoredBeacon>> {
    let registry = KeyRegistry::with_ases(7, 64);
    let program = irec_irvm::programs::shortest_path(20);
    let reference = store.publish(WORKLOAD_ORIGIN, AlgorithmId(1), program.to_module_bytes());
    candidates
        .iter()
        .map(|stored| {
            let mut pcb = Pcb::originate(
                stored.pcb.origin,
                stored.pcb.sequence,
                stored.pcb.created_at,
                stored.pcb.expires_at,
                PcbExtensions::none().with_algorithm(reference),
            );
            for entry in &stored.pcb.entries {
                let signer = Signer::new(entry.hop.asn, registry.clone());
                pcb.extend(
                    entry.hop.ingress,
                    entry.hop.egress,
                    entry.static_info,
                    &signer,
                )
                .expect("re-tagging preserves validity");
            }
            Arc::new(StoredBeacon {
                pcb,
                ingress: stored.ingress,
                received_at: stored.received_at,
            })
        })
        .collect()
}

/// Measures one IREC RAC processing pass over `candidates` (setup + marshal + execute).
/// The candidate set is shared, not consumed — repeated passes reuse the same snapshot.
pub fn rac_processing_latency(
    rac: &Rac,
    candidates: &[Arc<StoredBeacon>],
    local_as: &AsNode,
) -> Result<RacTiming> {
    let key = BatchKey {
        origin: WORKLOAD_ORIGIN,
        group: InterfaceGroupId::DEFAULT,
        target: None,
    };
    let egress: Vec<IfId> = local_as.interfaces.keys().copied().collect();
    let (_outputs, timing) = rac.process_candidates(&key, candidates, local_as, &egress)?;
    Ok(timing)
}

/// Measures the legacy control service on the same candidate set: the native 20-shortest
/// selection with no sandbox and no marshalling boundary.
pub fn legacy_selection_latency(candidates: &[Arc<StoredBeacon>], local_as: &AsNode) -> Duration {
    let algorithm = KShortestPaths::legacy_scion();
    let batch = CandidateBatch {
        origin: WORKLOAD_ORIGIN,
        group: InterfaceGroupId::DEFAULT,
        target: None,
        candidates: candidates
            .iter()
            .map(|b| Candidate::new(b.pcb.clone(), b.ingress))
            .collect(),
    };
    let egress: Vec<IfId> = local_as.interfaces.keys().copied().collect();
    let ctx = AlgorithmContext::new(local_as, egress, 20);
    let start = std::time::Instant::now();
    let _ = algorithm
        .select(&batch, &ctx)
        .expect("legacy selection succeeds");
    start.elapsed()
}

/// A multi-batch, multi-RAC workload for the parallel execution engine: `origins` candidate
/// batches of `phi` beacons each in one ingress database of `ingress_shards` shards
/// (`0` = single shard), processed by four static RACs (1SP, 5SP, DO, widest) — the ≥4-RAC
/// workload the engine-scaling measurements run on.
pub fn engine_workload(
    phi: usize,
    origins: u64,
    seed: u64,
    ingress_shards: usize,
) -> (Vec<Rac>, ShardedIngressDb) {
    let racs: Vec<Rac> = ["1SP", "5SP", "DO", "widest"]
        .iter()
        .map(|name| Rac::new_static(RacConfig::static_rac(*name, *name)).expect("catalog name"))
        .collect();
    let db = ShardedIngressDb::new(ingress_shards.max(1));
    for index in 0..origins.max(1) {
        let origin = AsId(WORKLOAD_ORIGIN.value() + index * 100);
        for stored in candidate_set_for(origin, phi, seed.wrapping_add(index)) {
            db.insert(stored.pcb.clone(), stored.ingress, stored.received_at);
        }
    }
    (racs, db)
}

/// One insert + evict pass of the ingress-sharding workload: inserts every beacon into a
/// fresh `shards`-shard database from `workers` scoped threads (each thread owns the
/// origins that hash to its claimed shards, so per-shard insertion order stays
/// deterministic), then runs one parallel eviction sweep at `evict_at`. Returns
/// `(stored, evicted)` — both independent of the shard and worker counts, which the
/// `ingress_sharding` criterion bench and the sharding stress test rely on.
pub fn sharded_ingress_pass(
    beacons: &[Arc<StoredBeacon>],
    shards: usize,
    workers: usize,
    evict_at: SimTime,
) -> (usize, usize) {
    let db = ShardedIngressDb::new(shards);
    let workers = workers.clamp(1, db.shard_count());
    // Partition once, O(beacons): rescanning the whole slice per shard would add an
    // O(shards × beacons) overhead term that grows with the very shard count the
    // `ingress_sharding` bench is meant to show winning.
    let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); db.shard_count()];
    for (index, stored) in beacons.iter().enumerate() {
        by_shard[db.shard_of(stored.pcb.origin)].push(index);
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let shard = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(indices) = by_shard.get(shard) else {
                    break;
                };
                for &index in indices {
                    let stored = &beacons[index];
                    db.insert_in_shard(
                        shard,
                        stored.pcb.clone(),
                        stored.ingress,
                        stored.received_at,
                    );
                }
            });
        }
    });
    let stored = db.len();
    let evicted = db.evict_expired_parallel(evict_at, SimDuration::ZERO, workers);
    (stored, evicted)
}

/// One engine-scaling measurement point: the **mean per-pass** setup/marshal/execute
/// breakdown and the mean per-pass wall-clock time, averaged over `repetitions` engine
/// passes with `workers` worker threads over the [`engine_workload`] (4 RACs × 4 candidate
/// batches). Both figures are per pass, so CPU-vs-wall comparisons are rep-independent.
pub fn measure_engine_point(
    phi: usize,
    workers: usize,
    repetitions: usize,
    seed: u64,
    ingress_shards: usize,
) -> (RacTiming, Duration) {
    let local_as = workload_local_as();
    let (racs, db) = engine_workload(phi, 4, seed, ingress_shards);
    let egress: Vec<IfId> = local_as.interfaces.keys().copied().collect();
    let reps = repetitions.max(1);
    let mut timing = RacTiming::default();
    let start = Instant::now();
    for _ in 0..reps {
        let (_, pass) = execute_racs(&racs, &db, &local_as, &egress, SimTime::ZERO, workers)
            .expect("engine workload processes cleanly");
        timing.accumulate(&pass);
    }
    let mean = RacTiming {
        setup: timing.setup / reps as u32,
        marshal: timing.marshal / reps as u32,
        execute: timing.execute / reps as u32,
        candidates: timing.candidates / reps,
    };
    (mean, start.elapsed() / reps as u32)
}

/// Builds the delivery-plane workload: a generated-topology simulation with the paper's
/// 5SP deployment and the given delivery-plane worker count. Shared by the fig6/fig7
/// delivery-scaling sections and the `delivery_scaling` criterion bench.
pub fn delivery_workload(
    ases: usize,
    delivery_workers: usize,
    ingress_shards: usize,
    seed: u64,
) -> Simulation {
    let config = GeneratorConfig {
        num_ases: ases,
        seed,
        ..Default::default()
    };
    let topology = Arc::new(TopologyGenerator::new(config).generate());
    Simulation::new(
        topology,
        SimulationConfig::default()
            .with_delivery_parallelism(delivery_workers)
            .with_ingress_shards(ingress_shards),
        move |_| NodeConfig::default().with_racs(vec![RacConfig::static_rac("5SP", "5SP")]),
    )
    .expect("delivery workload simulation setup")
}

/// One delivery-scaling measurement point: runs `rounds` beaconing rounds of the
/// [`delivery_workload`] with `delivery_workers` verify-stage workers and returns the
/// delivery accounting plus the wall-clock time of the whole run.
///
/// The counters are byte-identical across worker counts (the delivery plane's determinism
/// guarantee); only the wall-clock changes.
pub fn measure_delivery_point(
    ases: usize,
    rounds: usize,
    delivery_workers: usize,
    ingress_shards: usize,
    seed: u64,
) -> (DeliveryStats, Duration) {
    let mut sim = delivery_workload(ases, delivery_workers, ingress_shards, seed);
    let start = Instant::now();
    sim.run_rounds(rounds.max(1))
        .expect("delivery workload rounds succeed");
    (sim.delivery_stats(), start.elapsed())
}

/// The deterministic fingerprint of one round-scheduler run: registered paths, delivery
/// accounting, ingress occupancy and per-round overhead samples — everything the
/// `--round-scheduler` knob must leave byte-identical.
pub type RoundFingerprint = (Vec<RegisteredPath>, DeliveryStats, usize, Vec<u64>);

/// Builds the round-scheduler workload: a generated-topology simulation with the paper's
/// static RAC mix, running under `scheduler` with `width` workers on both the node phase
/// and the delivery plane (so the round pool width `max(parallelism,
/// delivery_parallelism)` equals `width`). Shared by the `dag_scheduler_scaling`
/// criterion bench and the DAG determinism integration tests.
pub fn round_scheduler_workload(
    ases: usize,
    scheduler: RoundScheduler,
    width: usize,
    seed: u64,
) -> Simulation {
    let config = GeneratorConfig {
        num_ases: ases,
        seed,
        ..Default::default()
    };
    let topology = Arc::new(TopologyGenerator::new(config).generate());
    Simulation::new(
        topology,
        SimulationConfig::default()
            .with_round_scheduler(scheduler)
            .with_parallelism(width)
            .with_delivery_parallelism(width),
        |_| {
            NodeConfig::default().with_racs(vec![
                RacConfig::static_rac("5SP", "5SP"),
                RacConfig::static_rac("HD", "HD"),
            ])
        },
    )
    .expect("round-scheduler workload simulation setup")
}

/// One full run of the round-scheduler workload: `rounds` beaconing rounds from a fresh
/// simulation. Returns the deterministic fingerprint plus the scheduler's timing stats —
/// the stats are deliberately *not* part of the fingerprint (busy/idle wall-clock varies
/// run to run), but their idle counter is what the `dag_scheduler_scaling` bench compares
/// across schedulers to show speculative verify overlapping the node phase.
pub fn round_scheduler_pass(
    ases: usize,
    rounds: usize,
    scheduler: RoundScheduler,
    width: usize,
    seed: u64,
) -> (RoundFingerprint, SchedulerStats) {
    let mut sim = round_scheduler_workload(ases, scheduler, width, seed);
    sim.run_rounds(rounds.max(1))
        .expect("round-scheduler workload rounds succeed");
    (
        (
            sim.registered_paths(),
            sim.delivery_stats(),
            sim.ingress_occupancy(),
            sim.overhead().samples(),
        ),
        sim.scheduler_stats(),
    )
}

/// The node config of the algorithm-catalog workload: every AS runs one static RAC
/// instantiated from a catalog name (`5YEN`, `aco:7:8`, …). Propagation is pinned to
/// `All` so the catalog algorithm — not the propagation policy — decides what gets
/// registered. Shard counts ride on the simulation config
/// ([`SimulationConfig::with_ingress_shards`]), not here.
fn algorithm_node_config(algorithm: &str) -> NodeConfig {
    NodeConfig::default()
        .with_policy(PropagationPolicy::All)
        .with_racs(vec![RacConfig::static_rac(algorithm, algorithm)])
}

/// Builds the algorithm-catalog workload: a generated-topology simulation where every AS
/// runs the named catalog algorithm, under `scheduler` with `width` workers and the given
/// per-node shard counts. Shared by the `alg_catalog_scaling` criterion bench, the
/// algorithm determinism integration tests and the `fig_alg` binary.
#[allow(clippy::too_many_arguments)]
pub fn algorithm_workload(
    algorithm: &str,
    ases: usize,
    scheduler: RoundScheduler,
    width: usize,
    ingress_shards: usize,
    path_shards: usize,
    seed: u64,
) -> Simulation {
    let config = GeneratorConfig {
        num_ases: ases,
        seed,
        ..Default::default()
    };
    let topology = Arc::new(TopologyGenerator::new(config).generate());
    let algorithm = algorithm.to_string();
    Simulation::new(
        topology,
        SimulationConfig::default()
            .with_round_scheduler(scheduler)
            .with_parallelism(width)
            .with_delivery_parallelism(width)
            .with_ingress_shards(ingress_shards)
            .with_path_shards(path_shards),
        move |_| algorithm_node_config(&algorithm),
    )
    .expect("algorithm workload simulation setup")
}

/// One full run of the algorithm-catalog workload: `rounds` beaconing rounds from a fresh
/// simulation. The fingerprint must be byte-identical across schedulers and worker/shard
/// counts for a fixed `(algorithm, ases, rounds, seed)` tuple — stochastic algorithms
/// (ACO) included, because their randomness comes from seeded per-batch streams, never
/// from execution order.
#[allow(clippy::too_many_arguments)]
pub fn algorithm_pass(
    algorithm: &str,
    ases: usize,
    rounds: usize,
    scheduler: RoundScheduler,
    width: usize,
    ingress_shards: usize,
    path_shards: usize,
    seed: u64,
) -> RoundFingerprint {
    let mut sim = algorithm_workload(
        algorithm,
        ases,
        scheduler,
        width,
        ingress_shards,
        path_shards,
        seed,
    );
    sim.run_rounds(rounds.max(1))
        .expect("algorithm workload rounds succeed");
    (
        sim.registered_paths(),
        sim.delivery_stats(),
        sim.ingress_occupancy(),
        sim.overhead().samples(),
    )
}

/// The deterministic fingerprint of one churn run: the per-step churn report plus the
/// final registered paths, delivery accounting and ingress occupancy — everything that
/// must stay byte-identical across `--round-scheduler` and every parallelism/shard knob
/// for a fixed churn config.
pub type ChurnFingerprint = (Vec<ChurnStep>, Vec<RegisteredPath>, DeliveryStats, usize);

/// The node config of the churn workload. Propagation is pinned to `All` (not the
/// generated-topology default of valley-free) so a random link-down can only sever pairs
/// *physically* — which the no-blackhole checker excuses — never policy-blackhole them;
/// shipped churn scenarios therefore converge by construction, and the genuine
/// valley-free blackhole case stays covered by the churn invariants unit tests. Shard
/// counts ride on the simulation config — mid-run churn joins pick them up through
/// [`Simulation::add_node`]'s knob injection.
fn churn_node_config() -> NodeConfig {
    NodeConfig::default()
        .with_policy(PropagationPolicy::All)
        .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
}

/// Builds the churn workload: a generated-topology simulation under `scheduler` with
/// `width` workers on the node phase and delivery plane plus the given per-node shard
/// counts. Shared by the `churn_round_overhead` criterion bench, the churn determinism
/// integration tests and the `fig_churn` binary.
pub fn churn_workload(
    ases: usize,
    scheduler: RoundScheduler,
    width: usize,
    ingress_shards: usize,
    path_shards: usize,
    seed: u64,
) -> Simulation {
    let config = GeneratorConfig {
        num_ases: ases,
        seed,
        ..Default::default()
    };
    let topology = Arc::new(TopologyGenerator::new(config).generate());
    Simulation::new(
        topology,
        SimulationConfig::default()
            .with_round_scheduler(scheduler)
            .with_parallelism(width)
            .with_delivery_parallelism(width)
            .with_ingress_shards(ingress_shards)
            .with_path_shards(path_shards),
        move |_| churn_node_config(),
    )
    .expect("churn workload simulation setup")
}

/// One full churn run over the [`churn_workload`]: `steps` churn steps of the seeded
/// timeline in `churn`, applied and settled by a [`ChurnEngine`]. Returns the
/// deterministic fingerprint — byte-identical across schedulers and worker/shard counts
/// for a fixed `(ases, steps, churn, seed)` tuple, which the `churn_round_overhead`
/// bench and the churn determinism proptest matrix re-assert.
#[allow(clippy::too_many_arguments)]
pub fn churn_pass(
    ases: usize,
    steps: usize,
    churn: ChurnConfig,
    scheduler: RoundScheduler,
    width: usize,
    ingress_shards: usize,
    path_shards: usize,
    seed: u64,
) -> ChurnFingerprint {
    churn_pass_with_stats(
        ases,
        steps,
        churn,
        scheduler,
        width,
        ingress_shards,
        path_shards,
        seed,
    )
    .0
}

/// [`churn_pass`], additionally returning the run's accumulated [`IncrementalStats`]:
/// how many `(RAC, batch)` selections its rounds reused, extended and recomputed, and how
/// many kept selections the timeline's catalog swaps dropped. Counters, not output —
/// the fingerprint is what must agree across planes.
#[allow(clippy::too_many_arguments)]
pub fn churn_pass_with_stats(
    ases: usize,
    steps: usize,
    churn: ChurnConfig,
    scheduler: RoundScheduler,
    width: usize,
    ingress_shards: usize,
    path_shards: usize,
    seed: u64,
) -> (ChurnFingerprint, IncrementalStats) {
    let mut sim = churn_workload(ases, scheduler, width, ingress_shards, path_shards, seed);
    let mut engine = ChurnEngine::new(churn, move |_| churn_node_config());
    let report = engine.run(&mut sim, steps).expect("churn pass converges");
    (
        (
            report.steps,
            sim.registered_paths(),
            sim.delivery_stats(),
            sim.ingress_occupancy(),
        ),
        sim.incremental_stats(),
    )
}

/// Builds the PD campaign workload: a generated-topology simulation with the paper's
/// HD + on-demand deployment, warmed for `rounds` beaconing rounds — the base every
/// campaign pass snapshots per `(origin, target)` pair. Shared by the
/// `pd_campaign_scaling` criterion bench and the CI bench-regression harness.
pub fn pd_campaign_workload(ases: usize, rounds: usize, seed: u64) -> Simulation {
    let config = GeneratorConfig {
        num_ases: ases,
        seed,
        ..Default::default()
    };
    let topology = Arc::new(TopologyGenerator::new(config).generate());
    let mut sim = Simulation::new(topology, SimulationConfig::default(), |_| {
        NodeConfig::default().with_racs(vec![
            RacConfig::static_rac("HD", "HD"),
            RacConfig::on_demand_rac("on-demand"),
        ])
    })
    .expect("PD campaign workload simulation setup");
    sim.run_rounds(rounds.max(1))
        .expect("PD campaign warm-up rounds succeed");
    sim
}

/// Deterministically samples up to `count` `(origin, target)` pairs from the workload's
/// topology, through the same seeded recipe as the Fig. 8 campaign
/// ([`crate::campaign::sample_pd_pairs`]) with extra draw attempts so small topologies
/// still fill the requested count.
pub fn pd_campaign_pairs(base: &Simulation, count: usize, seed: u64) -> Vec<(AsId, AsId)> {
    let count = count.max(1);
    let mut pairs = crate::campaign::sample_pd_pairs(&base.topology().as_ids(), count * 4, seed);
    pairs.truncate(count);
    pairs
}

/// The deterministic fingerprint of one campaign pair: origin, target, discovered-path
/// count, iteration count, empty-iteration count, total pull-beacon overhead.
pub type PdPairFingerprint = (AsId, AsId, usize, usize, usize, u64);

/// One PD campaign pass over `pairs` with `workers` campaign workers: every pair runs its
/// pull workflow on a fresh snapshot of `base`. Returns the per-pair fingerprints in pair
/// order — byte-identical for every worker count (the campaign determinism guarantee the
/// `pd_campaign_scaling` bench re-asserts each iteration).
pub fn pd_campaign_pass(
    base: &Simulation,
    pairs: &[(AsId, AsId)],
    workers: usize,
) -> Vec<PdPairFingerprint> {
    let results = PdCampaign::new(pairs.to_vec(), 5)
        .with_rounds_per_iteration(2)
        .with_parallelism(workers)
        .run(base)
        .expect("campaign pass succeeds");
    results
        .iter()
        .map(|pair| {
            (
                pair.origin,
                pair.target,
                pair.result.paths.len(),
                pair.result.iterations,
                pair.result.empty_iterations,
                pair.pull_overhead.iter().sum(),
            )
        })
        .collect()
}

/// One per-pair snapshot-setup operation of the PD campaign over `base`: the
/// copy-on-write path ([`Simulation::snapshot_reachable_from`], the campaign default)
/// when `deep` is false, or the deep-`Clone` reference implementation when `deep` is
/// true. Returns the constructed simulation so callers (and `black_box`) keep the setup
/// work observable. Shared by the `pd_snapshot_cost` criterion bench and the COW speedup
/// regression test.
pub fn pd_snapshot_setup(base: &Simulation, origin: AsId, deep: bool) -> Simulation {
    if deep {
        base.clone()
    } else {
        base.snapshot_reachable_from(origin).into_simulation()
    }
}

/// Best-of-`reps` wall-clock of one [`pd_snapshot_setup`] operation. Teardown (dropping
/// the snapshot) is excluded from the timed window, so the figure is the pure per-pair
/// setup cost a campaign pays before its first pull iteration.
pub fn measure_snapshot_setup(
    base: &Simulation,
    origin: AsId,
    deep: bool,
    reps: usize,
) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let sim = std::hint::black_box(pd_snapshot_setup(base, origin, deep));
        best = best.min(start.elapsed());
        drop(sim);
    }
    best
}

/// Runs the complete Fig. 6 measurement for one |Φ| value, averaging over `repetitions`.
pub fn measure_phi(phi: usize, repetitions: usize, seed: u64) -> Measurement {
    let local_as = workload_local_as();
    let (rac, _, store) = on_demand_rac();
    let base = candidate_set(phi, seed);
    let tagged = tag_candidates(&base, &store);

    let mut total = Measurement {
        phi,
        ..Measurement::default()
    };
    for _ in 0..repetitions.max(1) {
        let timing = rac_processing_latency(&rac, &tagged, &local_as)
            .expect("benchmark RAC processing succeeds");
        total.setup += timing.setup;
        total.marshal += timing.marshal;
        total.execute += timing.execute;
        total.legacy += legacy_selection_latency(&base, &local_as);
    }
    let n = repetitions.max(1) as u32;
    Measurement {
        phi,
        setup: total.setup / n,
        marshal: total.marshal / n,
        execute: total.execute / n,
        legacy: total.legacy / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_set_has_requested_size_and_valid_beacons() {
        let set = candidate_set(32, 1);
        assert_eq!(set.len(), 32);
        for beacon in &set {
            assert!(beacon.pcb.len() >= 2);
            assert!(beacon.pcb.path_metrics().latency > Latency::ZERO);
        }
        // Deterministic for the same seed.
        let again = candidate_set(32, 1);
        assert_eq!(again[0].pcb.digest(), set[0].pcb.digest());
    }

    #[test]
    fn rac_and_legacy_kernels_produce_timings() {
        let m = measure_phi(16, 1, 3);
        assert_eq!(m.phi, 16);
        assert!(m.execute > Duration::ZERO);
        assert!(m.marshal > Duration::ZERO);
        assert!(m.irec_total() >= m.execute);
        assert!(m.ratio() > 0.0);
    }

    #[test]
    fn engine_workload_scales_and_stays_deterministic() {
        let (racs, db) = engine_workload(8, 4, 11, 4);
        assert_eq!(racs.len(), 4);
        assert_eq!(db.batch_keys().len(), 4);
        let (timing_seq, _) = measure_engine_point(8, 1, 1, 11, 1);
        let (timing_par, _) = measure_engine_point(8, 4, 1, 11, 4);
        // 4 RACs x 4 batches x 8 candidates, identical under any worker count.
        assert_eq!(timing_seq.candidates, 4 * 4 * 8);
        assert_eq!(timing_par.candidates, timing_seq.candidates);
    }

    #[test]
    fn delivery_point_counters_are_worker_independent() {
        let (sequential, _) = measure_delivery_point(8, 2, 1, 1, 5);
        assert!(sequential.delivered > 0);
        let (parallel, _) = measure_delivery_point(8, 2, 4, 4, 5);
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn sharded_ingress_pass_is_shard_and_worker_invariant() {
        // Beacons from several origins so the passes actually cross shard boundaries.
        let beacons: Vec<_> = (0..6u64)
            .flat_map(|index| {
                // Origins spaced like `engine_workload` so the synthetic hop ASes of one
                // origin never collide with another origin (which would be a loop).
                candidate_set_for(AsId(1 + index * 100), 4, 9 + index)
            })
            .collect();
        let far = SimTime::ZERO + SimDuration::from_hours(12);
        let (stored_ref, evicted_ref) = sharded_ingress_pass(&beacons, 1, 1, far);
        assert_eq!(stored_ref, 24);
        assert_eq!(evicted_ref, 24, "every synthetic beacon expires within 6h");
        for (shards, workers) in [(2, 2), (4, 4), (7, 3), (16, 8)] {
            let (stored, evicted) = sharded_ingress_pass(&beacons, shards, workers, far);
            assert_eq!((stored, evicted), (stored_ref, evicted_ref));
        }
    }

    #[test]
    fn round_scheduler_pass_is_scheduler_and_width_invariant() {
        let (reference, _) = round_scheduler_pass(8, 2, RoundScheduler::Barrier, 1, 5);
        assert!(reference.1.delivered > 0);
        assert!(!reference.0.is_empty());
        for (scheduler, width) in [
            (RoundScheduler::Barrier, 4),
            (RoundScheduler::Dag, 1),
            (RoundScheduler::Dag, 4),
        ] {
            let (fingerprint, stats) = round_scheduler_pass(8, 2, scheduler, width, 5);
            assert_eq!(
                fingerprint, reference,
                "diverged under {scheduler} x{width}"
            );
            assert_eq!(stats.rounds, 2);
            if scheduler == RoundScheduler::Dag {
                assert!(stats.items > 0, "DAG runs must account executed items");
            }
        }
    }

    #[test]
    fn churn_pass_is_scheduler_and_width_invariant() {
        let churn = ChurnConfig::default()
            .with_rate(1.0)
            .with_seed(13)
            .with_warmup_rounds(3);
        let (steps, paths, stats, occupancy) =
            churn_pass(10, 3, churn, RoundScheduler::Barrier, 1, 1, 1, 5);
        assert_eq!(steps.len(), 3);
        assert!(
            steps.iter().any(|step| !step.deltas.is_empty()),
            "a rate-1 timeline must apply deltas"
        );
        assert!(!paths.is_empty());
        for (scheduler, width, ingress, path) in [
            (RoundScheduler::Barrier, 4, 4, 7),
            (RoundScheduler::Dag, 1, 7, 4),
            (RoundScheduler::Dag, 4, 4, 4),
        ] {
            let fingerprint = churn_pass(10, 3, churn, scheduler, width, ingress, path, 5);
            assert_eq!(
                fingerprint,
                (steps.clone(), paths.clone(), stats, occupancy),
                "diverged under {scheduler} x{width} ingress={ingress} path={path}"
            );
        }
    }

    #[test]
    fn churn_pass_reuses_selections_on_every_plane() {
        let churn = ChurnConfig::default()
            .with_rate(1.0)
            .with_seed(13)
            .with_warmup_rounds(3);
        let (reference, sequential) =
            churn_pass_with_stats(10, 3, churn, RoundScheduler::Barrier, 1, 1, 1, 5);
        let (fingerprint, stacked) =
            churn_pass_with_stats(10, 3, churn, RoundScheduler::Dag, 4, 4, 4, 5);
        assert_eq!(fingerprint, reference);
        // What a round reuses is decided per node from its own database, so the counters
        // are as plane-independent as the output.
        assert_eq!(stacked, sequential);
        assert!(
            stacked.reused + stacked.extended > 0,
            "warm rounds keep selections"
        );
        assert!(stacked.recomputed > 0, "disturbed batches recompute");
    }

    #[test]
    fn pd_campaign_pass_is_worker_invariant() {
        let base = pd_campaign_workload(10, 2, 5);
        let pairs = pd_campaign_pairs(&base, 3, 5);
        assert!(!pairs.is_empty());
        assert!(pairs.iter().all(|(a, b)| a != b));
        let sequential = pd_campaign_pass(&base, &pairs, 1);
        assert_eq!(sequential.len(), pairs.len());
        assert!(
            sequential
                .iter()
                .any(|(_, _, _, iterations, _, pull)| *iterations > 0 && *pull > 0),
            "no pair ran a pull iteration — the bench would measure snapshot cloning only"
        );
        for workers in [2usize, 4] {
            assert_eq!(pd_campaign_pass(&base, &pairs, workers), sequential);
        }
    }

    #[test]
    fn cow_snapshot_setup_is_an_order_of_magnitude_cheaper_than_deep_clone() {
        // Warmed a little past the criterion bench's 4 rounds: the deep clone's cost
        // grows with database content while the COW setup stays O(nodes x shards), so
        // the extra warm-up widens the measured gap well clear of the 10x bar even on
        // noisy debug-mode CI runners.
        let base = pd_campaign_workload(14, 6, 7);
        let origin = pd_campaign_pairs(&base, 1, 7)[0].0;
        // Snapshots must behave like the deep clone they replace before their speed
        // matters: same topology view, same registered paths.
        let cow = pd_snapshot_setup(&base, origin, false);
        let deep = pd_snapshot_setup(&base, origin, true);
        assert_eq!(cow.rounds_run(), deep.rounds_run());
        assert_eq!(cow.registered_paths().len(), deep.registered_paths().len());
        let cow_cost = measure_snapshot_setup(&base, origin, false, 10);
        let deep_cost = measure_snapshot_setup(&base, origin, true, 10);
        let speedup = deep_cost.as_nanos() as f64 / cow_cost.as_nanos().max(1) as f64;
        assert!(
            speedup >= 10.0,
            "COW snapshot setup must be ≥10× cheaper than a deep clone \
             (deep {deep_cost:?} / cow {cow_cost:?} = {speedup:.1}×)"
        );
    }

    #[test]
    fn on_demand_rac_processes_tagged_candidates() {
        let local_as = workload_local_as();
        let (rac, _, store) = on_demand_rac();
        let tagged = tag_candidates(&candidate_set(8, 5), &store);
        let timing = rac_processing_latency(&rac, &tagged, &local_as).unwrap();
        assert_eq!(timing.candidates, 8);
        assert_eq!(rac.cached_algorithms(), 1);
    }
}
