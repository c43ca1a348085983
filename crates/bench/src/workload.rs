//! The |Φ| workload of §VII-B: synthetic candidate PCB sets and the measurement kernels for
//! the Fig. 6 / Fig. 7 experiments.

use irec_algorithms::incremental::IncrementalStats;
use irec_algorithms::score::KShortestPaths;
use irec_algorithms::{AlgorithmContext, Candidate, CandidateBatch, RoutingAlgorithm};
use irec_core::beacon_db::{BatchKey, StoredBeacon};
use irec_core::PropagationPolicy;
use irec_core::{NodeConfig, Rac, RacConfig, RacTiming, SharedAlgorithmStore};
use irec_crypto::{KeyRegistry, Signer};
use irec_metrics::RegisteredPath;
use irec_pcb::{Pcb, PcbExtensions, StaticInfo};
use irec_sim::{ChurnConfig, ChurnEngine, ChurnStep, DeliveryStats, Simulation, SimulationConfig};
use irec_topology::{AsNode, GeneratorConfig, Interface, Tier, Topology, TopologyGenerator};
use irec_types::{
    AlgorithmId, AsId, Bandwidth, GeoCoord, IfId, InterfaceGroupId, Latency, LinkId, Result,
    SimDuration, SimTime,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

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
/// the one with higher overhead)". The store starts empty: [`tag_candidates`] publishes the
/// module when it tags the candidates with its reference.
pub fn on_demand_rac() -> (Rac, SharedAlgorithmStore) {
    let store = SharedAlgorithmStore::new();
    let rac = Rac::new_on_demand(
        RacConfig::on_demand_rac("bench-od"),
        std::sync::Arc::new(store.clone()),
    )
    .expect("on-demand RAC config is valid");
    (rac, store)
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

/// A generated topology of `ases` ASes from `seed`, the generator's other settings at
/// their defaults.
pub(crate) fn generated_topology(ases: usize, seed: u64) -> Arc<Topology> {
    let config = GeneratorConfig {
        num_ases: ases,
        seed,
        ..Default::default()
    };
    Arc::new(TopologyGenerator::new(config).generate())
}

/// The deterministic fingerprint of one simulation run: registered paths, delivery
/// accounting, ingress occupancy and per-round overhead samples.
pub type RoundFingerprint = (Vec<RegisteredPath>, DeliveryStats, usize, Vec<u64>);

/// The node config of the algorithm-catalog workload: every AS runs one static RAC
/// instantiated from a catalog name (`5YEN`, `aco:7:8`, …). Propagation is pinned to
/// `All` so the catalog algorithm — not the propagation policy — decides what gets
/// registered.
fn algorithm_node_config(algorithm: &str) -> NodeConfig {
    NodeConfig::default()
        .with_policy(PropagationPolicy::All)
        .with_racs(vec![RacConfig::static_rac(algorithm, algorithm)])
}

/// Builds the algorithm-catalog workload: a generated-topology simulation where every AS
/// runs the named catalog algorithm. Shared by [`algorithm_pass`] and the algorithm
/// fixtures.
pub(crate) fn algorithm_workload(algorithm: &str, ases: usize, seed: u64) -> Simulation {
    let algorithm = algorithm.to_string();
    let config = SimulationConfig::default();
    Simulation::new(generated_topology(ases, seed), config, move |_| {
        algorithm_node_config(&algorithm)
    })
    .expect("algorithm workload simulation setup")
}

/// One full run of the algorithm-catalog workload: `rounds` beaconing rounds from a fresh
/// simulation. The fingerprint is byte-identical from run to run for a fixed
/// `(algorithm, ases, rounds, seed)` tuple — stochastic algorithms (ACO) included, because
/// their randomness comes from seeded per-batch streams, never from execution order.
pub fn algorithm_pass(algorithm: &str, ases: usize, rounds: usize, seed: u64) -> RoundFingerprint {
    let mut sim = algorithm_workload(algorithm, ases, seed);
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
/// final registered paths, delivery accounting and ingress occupancy — byte-identical from
/// run to run for a fixed churn config.
pub type ChurnFingerprint = (Vec<ChurnStep>, Vec<RegisteredPath>, DeliveryStats, usize);

/// The node config of the churn workload. Propagation is pinned to `All` (not the
/// generated-topology default of valley-free) so a random link-down can only sever pairs
/// *physically* — which the no-blackhole checker excuses — never policy-blackhole them;
/// shipped churn scenarios therefore converge by construction, and the genuine
/// valley-free blackhole case stays covered by the churn invariants unit tests.
fn churn_node_config() -> NodeConfig {
    NodeConfig::default()
        .with_policy(PropagationPolicy::All)
        .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
}

/// Runs the churn workload — a generated topology whose ASes run
/// [`churn_node_config`] — through `steps` churn steps of the seeded timeline in `churn`,
/// applied and settled by a [`ChurnEngine`]. Returns the per-step report and the final
/// plane. Shared by [`churn_pass_with_stats`] and the churn fixtures.
pub(crate) fn churn_run(
    ases: usize,
    steps: usize,
    churn: ChurnConfig,
    seed: u64,
) -> (Vec<ChurnStep>, Simulation) {
    let config = SimulationConfig::default();
    let mut sim = Simulation::new(generated_topology(ases, seed), config, |_| {
        churn_node_config()
    })
    .expect("churn workload simulation setup");
    let report = ChurnEngine::new(churn, |_| churn_node_config())
        .run(&mut sim, steps)
        .expect("churn run converges");
    (report.steps, sim)
}

/// One full churn run: a generated topology running 5SP with every beacon propagated,
/// through `steps` churn steps of the seeded timeline in `churn`, each applied and settled
/// by a [`ChurnEngine`]. Returns the deterministic fingerprint — byte-identical from run to
/// run for a fixed `(ases, steps, churn, seed)` tuple — and the run's accumulated
/// [`IncrementalStats`]: how many `(RAC, batch)` selections its
/// rounds reused, extended and recomputed, and how many kept selections the timeline's
/// catalog swaps dropped. Counters, not output.
pub fn churn_pass_with_stats(
    ases: usize,
    steps: usize,
    churn: ChurnConfig,
    seed: u64,
) -> (ChurnFingerprint, IncrementalStats) {
    let (steps, sim) = churn_run(ases, steps, churn, seed);
    (
        (
            steps,
            sim.registered_paths(),
            sim.delivery_stats(),
            sim.ingress_occupancy(),
        ),
        sim.incremental_stats(),
    )
}

/// Runs the complete Fig. 6 measurement for one |Φ| value, averaging over `repetitions`.
pub fn measure_phi(phi: usize, repetitions: usize, seed: u64) -> Measurement {
    let local_as = workload_local_as();
    let (rac, store) = on_demand_rac();
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
    use std::time::Instant;

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
    fn churn_pass_reuses_selections() {
        let churn = ChurnConfig::default()
            .with_rate(1.0)
            .with_seed(13)
            .with_warmup_rounds(3);
        let ((steps, paths, ..), selections) = churn_pass_with_stats(10, 3, churn, 5);
        assert_eq!(steps.len(), 3);
        assert!(
            steps.iter().any(|step| !step.deltas.is_empty()),
            "a rate-1 timeline must apply deltas"
        );
        assert!(!paths.is_empty());
        assert!(
            selections.reused + selections.extended > 0,
            "warm rounds keep selections"
        );
        assert!(selections.recomputed > 0, "disturbed batches recompute");
    }

    /// One per-pair snapshot setup of the PD campaign over `base`: the copy-on-write path
    /// ([`Simulation::snapshot_reachable_from`], what the campaign runs) when `deep` is
    /// false, or the deep `Clone` it replaced when `deep` is true.
    fn pd_snapshot_setup(base: &Simulation, origin: AsId, deep: bool) -> Simulation {
        if deep {
            base.clone()
        } else {
            base.snapshot_reachable_from(origin).into_simulation()
        }
    }

    /// Best-of-`reps` wall-clock of one [`pd_snapshot_setup`]. Dropping the snapshot is
    /// outside the timed window, so the figure is the pure per-pair setup cost.
    fn measure_snapshot_setup(
        base: &Simulation,
        origin: AsId,
        deep: bool,
        reps: usize,
    ) -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..reps {
            let start = Instant::now();
            let sim = std::hint::black_box(pd_snapshot_setup(base, origin, deep));
            best = best.min(start.elapsed());
            drop(sim);
        }
        best
    }

    #[test]
    fn cow_snapshot_setup_is_an_order_of_magnitude_cheaper_than_deep_clone() {
        // The only pin on COW setup cost (`sim.pd.snapshot_ns` in the benchmark's trace
        // measures it without a bar). The base is the PD campaign's: HD + on-demand on a
        // generated topology, warmed for 6 rounds. The deep clone's cost grows with
        // database content while the COW setup stays O(nodes), so the warm-up keeps the
        // gap well clear of the 10x bar even on noisy debug-mode CI runners. 28 ASes, not
        // 14, since the deep clone stopped copying a dedup set and an expiry index: at 14
        // it read 7-8x, at 28 14x.
        let config = GeneratorConfig {
            num_ases: 28,
            seed: 7,
            ..Default::default()
        };
        let topology = Arc::new(TopologyGenerator::new(config).generate());
        let mut base = Simulation::new(topology, SimulationConfig::default(), |_| {
            NodeConfig::default().with_racs(vec![
                RacConfig::static_rac("HD", "HD"),
                RacConfig::on_demand_rac("on-demand"),
            ])
        })
        .expect("PD campaign workload simulation setup");
        base.run_rounds(6).expect("warm-up rounds succeed");
        // The first origin the Fig. 8 campaign's seeded recipe draws.
        let origin = crate::campaign::sample_pd_pairs(&base.topology().as_ids(), 4, 7)[0].0;
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
        let (rac, store) = on_demand_rac();
        let tagged = tag_candidates(&candidate_set(8, 5), &store);
        let timing = rac_processing_latency(&rac, &tagged, &local_as).unwrap();
        assert_eq!(timing.candidates, 8);
        assert_eq!(rac.cached_algorithms(), 1);
    }
}
