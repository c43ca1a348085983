//! Acceptance test for the churn engine's staged-migration scenario: live
//! algorithm-catalog swaps rolled across the topology one AS at a time, with the
//! no-blackhole invariant asserted between every step. That a seeded churn timeline is
//! byte-identical to its recording — same per-step deltas, settle rounds, drop accounting
//! and final registered paths — is checked by the `churn-…` fixtures of
//! `tests/fixture_matrix.rs`, whose two timelines draw every delta kind.

use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
use irec_sim::{
    ChurnConfig, ChurnDelta, ChurnEngine, InvariantChecker, Simulation, SimulationConfig,
};
use irec_topology::builder::figure1_topology;
use std::sync::Arc;

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
