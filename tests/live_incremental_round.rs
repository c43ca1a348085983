//! Acceptance tests for delta-driven selection in the live node round, behind the
//! simulation API. That its output is the from-scratch output is pinned elsewhere — byte
//! for byte against files recorded before the delta path existed
//! (`tests/determinism_goldens.rs`), selection for selection against the from-scratch
//! engine (`tests/incremental_reselection.rs`, the oracle proptest in `irec_core`). What
//! is pinned here is that the tables actually carry the rounds: over a seeded churn
//! timeline every execution plane — every worker count and ingress/path shard mix —
//! produces the same fingerprint *and the same counters*, with
//! work reused and extended although the timeline's withdrawal sweeps keep disturbing
//! batches; and on a plane without churn the per-round recompute count dies away while
//! extensions carry the steady state.

use irec_algorithms::incremental::IncrementalStats;
use irec_bench::workload::{churn_pass_with_stats, ChurnFingerprint};
use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
use irec_sim::{ChurnConfig, Simulation, SimulationConfig};
use irec_topology::{GeneratorConfig, TopologyGenerator};
use std::sync::{Arc, OnceLock};

const ASES: usize = 10;
const STEPS: usize = 2;
const SEED: u64 = 5;
const CHURN_SEED: u64 = 13;

fn churn_config(rate: f64) -> ChurnConfig {
    ChurnConfig::default()
        .with_rate(rate)
        .with_seed(CHURN_SEED)
        .with_warmup_rounds(3)
}

/// The sequential run every plane must reproduce, memoized per churn rate index
/// (0 → rate 1.0, 1 → rate 2.0).
fn reference(rate: f64) -> &'static (ChurnFingerprint, IncrementalStats) {
    static REFERENCE: [OnceLock<(ChurnFingerprint, IncrementalStats)>; 2] =
        [OnceLock::new(), OnceLock::new()];
    let slot = if rate == 1.0 { 0 } else { 1 };
    REFERENCE[slot]
        .get_or_init(|| churn_pass_with_stats(ASES, STEPS, churn_config(rate), 1, 1, 1, SEED))
}

/// The full plane matrix: fingerprint and counters agree on every combination of worker
/// count and shard mix, and at a nonzero churn rate the rounds compute
/// strictly fewer selections from scratch than there were to make
/// (`reused + extended + recomputed` is what from-scratch rounds would compute).
#[test]
fn delta_rounds_agree_across_scheduler_worker_shard_planes() {
    for rate in [1.0, 2.0] {
        let (expected, expected_stats) = reference(rate);
        assert!(
            expected_stats.reused > 0 && expected_stats.extended > 0,
            "churn rounds at rate {rate} neither reused nor extended: {expected_stats:?}"
        );
        for workers in [1, 4] {
            for shards in [1, 4, 7] {
                let (fingerprint, stats) = churn_pass_with_stats(
                    ASES,
                    STEPS,
                    churn_config(rate),
                    workers,
                    shards,
                    shards,
                    SEED,
                );
                assert_eq!(
                    &fingerprint, expected,
                    "run diverged at rate {rate} x{workers} shards={shards}"
                );
                assert_eq!(
                    &stats, expected_stats,
                    "counters diverged at rate {rate} x{workers} shards={shards}"
                );
            }
        }
    }
}

/// Asymmetric shard mixes — ingress and path shard counts that disagree — pinned against
/// the same reference.
#[test]
fn delta_rounds_agree_under_asymmetric_shard_mixes() {
    let expected = reference(1.0);
    for (ingress, path) in [(4, 7), (7, 4)] {
        let run = churn_pass_with_stats(ASES, STEPS, churn_config(1.0), 4, ingress, path, SEED);
        assert_eq!(
            &run, expected,
            "run diverged at ingress={ingress} path={path}"
        );
    }
}

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
