//! Acceptance test for delta-driven selection in the live node round, behind the
//! simulation API. That its output is the from-scratch output is pinned elsewhere — byte
//! for byte against files recorded before the delta path existed (the oldest goldens of
//! `tests/fixture_matrix.rs`), selection for selection against the from-scratch engine
//! (`tests/incremental_reselection.rs`, the oracle proptest in `irec_core`). The fixture
//! matrix also pins that the tables carry churn rounds: both churn fixtures reuse and
//! extend work although the timelines' withdrawal sweeps keep disturbing batches. What is pinned here is that
//! on a plane without churn the per-round recompute count dies away while extensions
//! carry the steady state.

use irec_algorithms::incremental::IncrementalStats;
use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
use irec_sim::{Simulation, SimulationConfig};
use irec_topology::{GeneratorConfig, TopologyGenerator};
use std::sync::Arc;

const ASES: usize = 10;
const SEED: u64 = 5;

/// Zero churn: once the plane has discovered its paths, no batch loses a beacon (the
/// beacons of these 14 rounds outlive them), so nothing is computed from scratch any
/// more — fresh originations keep arriving in standing batches, and those are extended.
/// A recompute count that grows again would mean the tables stopped recognizing batches
/// that only grew.
#[test]
fn zero_churn_recompute_dies_away_after_warmup() {
    let config = GeneratorConfig {
        num_ases: ASES,
        seed: SEED,
        ..Default::default()
    };
    let mut sim = Simulation::new(
        Arc::new(TopologyGenerator::new(config).generate()),
        SimulationConfig::default(),
        |_| {
            NodeConfig::default()
                .with_policy(PropagationPolicy::All)
                .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
        },
    )
    .expect("simulation setup");

    let mut recomputed = Vec::new();
    let mut extended = Vec::new();
    let mut previous = IncrementalStats::default();
    for _ in 0..14 {
        sim.run_rounds(1).expect("beaconing round");
        let total = sim.incremental_stats();
        recomputed.push(total.recomputed - previous.recomputed);
        extended.push(total.extended - previous.extended);
        previous = total;
    }
    // The recompute count climbs while beacons are still discovering origins, then decays
    // monotonically as every (node, origin) batch comes to exist, and ends at zero.
    let peak = recomputed
        .iter()
        .position(|&r| r == *recomputed.iter().max().expect("nonempty trace"))
        .expect("peak exists");
    assert!(
        recomputed[peak..].windows(2).all(|w| w[1] <= w[0]),
        "per-round recompute grew again after its peak: {recomputed:?}"
    );
    assert!(
        recomputed[recomputed.len() - 3..].iter().all(|&r| r == 0),
        "per-round recompute never died away: {recomputed:?}"
    );
    // The steady state is carried by extensions, at a flat nonzero origination floor.
    let steady = &extended[extended.len() - 3..];
    assert!(
        steady.iter().all(|&e| e == steady[0]) && steady[0] > 0,
        "per-round extensions never flattened at a nonzero floor: {extended:?}"
    );
    assert_eq!(sim.incremental_stats().invalidated, 0);
}
