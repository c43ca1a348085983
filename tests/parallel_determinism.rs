//! Acceptance tests for the simulator's one helper thread: a run that verifies each
//! finished node's PCBs ahead while the next nodes run must be byte-identical to the
//! inline reference, which verified every PCB at delivery — same registered paths in the
//! same order, same overhead counters, same delivery accounting. Each plane's reference
//! was recorded inline, as its counters and the digest of its whole fingerprint.

mod common;

use common::{assert_matches_inline, Reference, RunFingerprint};
use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
use irec_sim::{DeliveryStats, Simulation, SimulationConfig};
use irec_topology::builder::figure1_topology;
use irec_topology::{GeneratorConfig, TopologyGenerator};
use std::sync::Arc;

/// The headline acceptance criterion: on the Figure-1 topology with the paper's five-RAC
/// deployment, verifying ahead produces byte-identical registered paths and overhead
/// counters to the inline run.
#[test]
fn parallel_figure1_run_is_byte_identical_to_sequential() {
    let mut sim = Simulation::new(
        Arc::new(figure1_topology()),
        SimulationConfig::default(),
        move |_| NodeConfig::paper_simulation(false).with_policy(PropagationPolicy::All),
    )
    .expect("simulation setup");
    sim.run_rounds(5).expect("beaconing rounds");
    let run = RunFingerprint::of(&sim);
    assert!(!run.paths.is_empty(), "the scenario must register paths");
    assert_matches_inline(
        &run,
        Reference {
            paths: 232,
            overhead_total: 280,
            stats: DeliveryStats {
                delivered: 220,
                dropped_no_node: 0,
                dropped_link_down: 0,
                rejected: 60,
            },
            occupancy: 220,
            digest: 1068680885200920666,
        },
    );
}

/// Same guarantee on a generated topology with valley-free policy (sparser selections,
/// different propagation pattern).
#[test]
fn parallel_generated_topology_run_is_byte_identical_to_sequential() {
    let topology = Arc::new(TopologyGenerator::new(GeneratorConfig::tiny(9)).generate());
    let mut sim = Simulation::new(topology, SimulationConfig::default(), move |_| {
        NodeConfig::default().with_racs(vec![
            RacConfig::static_rac("1SP", "1SP"),
            RacConfig::static_rac("5SP", "5SP"),
            RacConfig::static_rac("HD", "HD"),
            RacConfig::static_rac("DON", "DO"),
        ])
    })
    .expect("simulation setup");
    sim.run_rounds(4).expect("beaconing rounds");
    let run = RunFingerprint::of(&sim);
    assert!(!run.paths.is_empty());
    assert_matches_inline(
        &run,
        Reference {
            paths: 12055,
            overhead_total: 21621,
            stats: DeliveryStats {
                delivered: 20414,
                dropped_no_node: 0,
                dropped_link_down: 0,
                rejected: 1207,
            },
            occupancy: 20414,
            digest: 9091024319783075793,
        },
    );
}
