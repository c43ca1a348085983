//! Acceptance tests for the simulator's one helper thread: a simulation run at verify width
//! 2 (each finished node's PCBs verified ahead while the next nodes run) must be
//! byte-identical to the inline run at width 1 — same registered paths in the same order,
//! same overhead counters, same delivery accounting.

use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
use irec_metrics::RegisteredPath;
use irec_sim::{DeliveryStats, Simulation, SimulationConfig};
use irec_topology::builder::figure1_topology;
use irec_topology::{GeneratorConfig, TopologyGenerator};
use std::sync::Arc;

/// Everything observable about a finished run, for exact comparison.
struct RunFingerprint {
    paths: Vec<RegisteredPath>,
    overhead_samples: Vec<u64>,
    overhead_total: u64,
    stats: DeliveryStats,
    occupancy: usize,
}

fn run_figure1(width: usize, rounds: usize) -> RunFingerprint {
    let mut sim = Simulation::new(
        Arc::new(figure1_topology()),
        SimulationConfig::default().with_delivery_parallelism(width),
        move |_| NodeConfig::paper_simulation(false).with_policy(PropagationPolicy::All),
    )
    .expect("simulation setup");
    sim.run_rounds(rounds).expect("beaconing rounds");
    RunFingerprint {
        paths: sim.registered_paths(),
        overhead_samples: sim.overhead().samples(),
        overhead_total: sim.overhead().total(),
        stats: sim.delivery_stats(),
        occupancy: sim.ingress_occupancy(),
    }
}

fn assert_identical(sequential: &RunFingerprint, parallel: &RunFingerprint, width: usize) {
    assert_eq!(
        sequential.paths.len(),
        parallel.paths.len(),
        "path count diverged at verify width {width}"
    );
    // Order included: verifying ahead must reproduce the inline registration order
    // exactly, not just the same set.
    for (index, (a, b)) in sequential.paths.iter().zip(&parallel.paths).enumerate() {
        assert_eq!(a, b, "path {index} diverged at verify width {width}");
    }
    assert_eq!(
        sequential.overhead_samples, parallel.overhead_samples,
        "overhead samples diverged at verify width {width}"
    );
    assert_eq!(sequential.overhead_total, parallel.overhead_total);
    assert_eq!(sequential.stats, parallel.stats);
    assert_eq!(sequential.occupancy, parallel.occupancy);
}

/// The headline acceptance criterion: on the Figure-1 topology with the paper's five-RAC
/// deployment, verify width 2 produces byte-identical registered paths and overhead
/// counters to the inline run at width 1.
#[test]
fn parallel_figure1_run_is_byte_identical_to_sequential() {
    let sequential = run_figure1(1, 5);
    assert!(
        !sequential.paths.is_empty(),
        "the scenario must register paths"
    );
    let parallel = run_figure1(2, 5);
    assert_identical(&sequential, &parallel, 2);
}

/// Same guarantee on a generated topology with valley-free policy (sparser selections,
/// different propagation pattern).
#[test]
fn parallel_generated_topology_run_is_byte_identical_to_sequential() {
    let run = |width: usize| {
        let topology = Arc::new(TopologyGenerator::new(GeneratorConfig::tiny(9)).generate());
        let mut sim = Simulation::new(
            topology,
            SimulationConfig::default().with_delivery_parallelism(width),
            move |_| {
                NodeConfig::default().with_racs(vec![
                    RacConfig::static_rac("1SP", "1SP"),
                    RacConfig::static_rac("5SP", "5SP"),
                    RacConfig::static_rac("HD", "HD"),
                    RacConfig::static_rac("DON", "DO"),
                ])
            },
        )
        .expect("simulation setup");
        sim.run_rounds(4).expect("beaconing rounds");
        RunFingerprint {
            paths: sim.registered_paths(),
            overhead_samples: sim.overhead().samples(),
            overhead_total: sim.overhead().total(),
            stats: sim.delivery_stats(),
            occupancy: sim.ingress_occupancy(),
        }
    };
    let sequential = run(1);
    assert!(!sequential.paths.is_empty());
    let parallel = run(2);
    assert_identical(&sequential, &parallel, 2);
}
