//! Acceptance tests for the churn engine: a seeded churn timeline must be byte-identical
//! — same per-step deltas, same settle rounds, same drop accounting, same final
//! registered paths — across every worker count and every ingress/path shard mix. Churn
//! knobs change the workload deliberately; the parallelism knobs must never change what
//! that workload produces. Plus the staged-migration scenario: live algorithm-catalog
//! swaps rolled across the topology one AS at a time, with the no-blackhole invariant
//! asserted between every step.

use irec_bench::workload::churn_pass;
use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
use irec_sim::{
    ChurnConfig, ChurnDelta, ChurnEngine, InvariantChecker, Simulation, SimulationConfig,
};
use irec_topology::builder::figure1_topology;
use std::sync::Arc;

const ASES: usize = 10;
const STEPS: usize = 2;

fn churn_config(churn_seed: u64) -> ChurnConfig {
    ChurnConfig::default()
        .with_rate(1.0)
        .with_seed(churn_seed)
        .with_warmup_rounds(2)
}

/// The headline check, over every point of its finite space (churn seeds {0, 1, 2} ×
/// workers {1, 4} × ingress shards {1, 4, 7} × path shards {1, 4, 7} = 54 runs): each
/// replays its seed's timeline exactly as the sequential run does.
#[test]
fn churn_timelines_are_byte_identical_across_schedulers_and_shards() {
    for churn_seed in 0u64..3 {
        let reference = churn_pass(ASES, STEPS, churn_config(churn_seed), 1, 1, 1, churn_seed);
        assert_eq!(reference.0.len(), STEPS, "every step must be recorded");
        for workers in [1usize, 4] {
            for ingress_shards in [1usize, 4, 7] {
                for path_shards in [1usize, 4, 7] {
                    let fingerprint = churn_pass(
                        ASES,
                        STEPS,
                        churn_config(churn_seed),
                        workers,
                        ingress_shards,
                        path_shards,
                        churn_seed,
                    );
                    assert_eq!(
                        fingerprint, reference,
                        "churn diverged at x{workers} workers, ingress-shards \
                         {ingress_shards}, path-shards {path_shards}, churn seed {churn_seed}"
                    );
                }
            }
        }
    }
}

/// The staged-migration scenario: roll a new algorithm catalog across a live deployment
/// one AS at a time — the live-reconfiguration dual of a link or node failure. Between
/// every swap the plane must settle without ever blackholing a reachable destination, and
/// after the full roll every AS runs the new catalog.
#[test]
fn staged_catalog_migration_never_blackholes() {
    let mut sim = Simulation::new(
        Arc::new(figure1_topology()),
        SimulationConfig::default(),
        |_| {
            NodeConfig::default()
                .with_policy(PropagationPolicy::All)
                .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
        },
    )
    .expect("figure-1 simulation setup");
    sim.run_rounds(4).expect("warm-up rounds");
    let checker = InvariantChecker::capture(&sim);
    assert!(!checker.baseline().is_empty(), "warmup must register paths");

    let next_catalog = vec![
        RacConfig::static_rac("1SP", "1SP"),
        RacConfig::static_rac("HD", "HD"),
    ];
    let mut engine = ChurnEngine::new(ChurnConfig::default(), |_| {
        NodeConfig::default()
            .with_policy(PropagationPolicy::All)
            .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
    })
    .with_catalogs(vec![next_catalog.clone()]);

    for asn in sim.live_ases() {
        engine
            .apply_delta(&mut sim, ChurnDelta::CatalogSwap(asn))
            .expect("catalog swap applies");
        sim.run_rounds(2).expect("post-swap rounds");
        checker
            .check_no_blackhole(&sim)
            .unwrap_or_else(|e| panic!("blackhole after swapping {asn}: {e}"));
    }

    // After the full roll, every node runs the new catalog and the mixed-algorithm plane
    // still serves every baseline pair.
    for asn in sim.live_ases() {
        let racs = &sim.node(asn).expect("node exists").config().racs;
        let names: Vec<&str> = racs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["1SP", "HD"], "AS {asn} still runs the old catalog");
    }
    checker
        .check_no_blackhole(&sim)
        .expect("migrated plane serves every baseline pair");
}
