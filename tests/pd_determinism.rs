//! Acceptance tests for the PD campaign: the campaign, copy-on-write snapshots and all,
//! must equal its oracle — a loop of one workflow per pair on a deep clone of the base —
//! and must leave its base untouched. The campaign's bytes are pinned by the
//! `pd-campaign-…` fixtures of `tests/fixture_matrix.rs`.

use irec_core::{NodeConfig, RacConfig};
use irec_metrics::RegisteredPath;
use irec_sim::{PdCampaign, PdWorkflow, Simulation, SimulationConfig};
use irec_topology::{GeneratorConfig, Tier, TopologyBuilder, TopologyGenerator};
use irec_types::{AsId, Bandwidth, Latency};
use std::sync::Arc;

const WARM_ROUNDS: usize = 3;
const ROUNDS_PER_ITERATION: usize = 2;
/// Must exceed the HD seed count of the warmed pairs, or the workflows finish on their
/// seeds alone and the pull pipeline is never exercised (the COW test asserts it is).
const MAX_PATHS: usize = 8;

/// The campaign workload: a 12-AS generated topology with the paper's HD + on-demand
/// deployment, warmed so HD has seeded paths.
fn warm_base() -> Simulation {
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
            RacConfig::static_rac("HD", "HD"),
            RacConfig::on_demand_rac("on-demand"),
        ])
    })
    .expect("simulation setup");
    sim.run_rounds(WARM_ROUNDS).expect("warm-up rounds");
    sim
}

/// Fixed pairs spanning the topology (including a duplicated pair, which must be safe).
fn pairs(base: &Simulation) -> Vec<(AsId, AsId)> {
    let ids = base.topology().as_ids();
    vec![
        (ids[0], ids[ids.len() - 1]),
        (ids[1], ids[ids.len() / 2]),
        (ids[ids.len() - 1], ids[0]),
        (ids[0], ids[ids.len() - 1]),
    ]
}

/// Everything deterministic about a campaign run (per-pair wall-clock excluded).
type CampaignFingerprint = Vec<(AsId, AsId, Vec<RegisteredPath>, usize, usize, Vec<u64>)>;

fn campaign(base: &Simulation, pairs: Vec<(AsId, AsId)>) -> CampaignFingerprint {
    let results = PdCampaign::new(pairs, MAX_PATHS)
        .with_rounds_per_iteration(ROUNDS_PER_ITERATION)
        .run(base)
        .expect("campaign run");
    fingerprint(results)
}

/// The campaign's reference: one `PdWorkflow` per pair, in pair order, each on a deep
/// `Simulation::clone` of the whole base (what the campaign ran before copy-on-write
/// snapshots), publishing under the campaign's per-pair algorithm-id range — the ids end
/// up inside signed PCBs. A self-pair has nothing to discover and runs nothing.
fn deep_clone_loop(base: &Simulation, pairs: &[(AsId, AsId)]) -> CampaignFingerprint {
    pairs
        .iter()
        .enumerate()
        .map(|(index, &(origin, target))| {
            if origin == target {
                return (origin, target, Vec::new(), 0, 0, Vec::new());
            }
            let mut sim = base.clone();
            let result = PdWorkflow::new(origin, target, MAX_PATHS)
                .with_rounds_per_iteration(ROUNDS_PER_ITERATION)
                .with_algorithm_id_base(
                    PdCampaign::ALGORITHM_ID_BASE
                        + index as u64 * PdCampaign::ALGORITHM_IDS_PER_PAIR,
                )
                .run(&mut sim)
                .expect("workflow run");
            (
                origin,
                target,
                result.paths,
                result.iterations,
                result.empty_iterations,
                sim.overhead_pull().nonzero_samples(),
            )
        })
        .collect()
}

fn fingerprint(results: Vec<irec_sim::PdPairResult>) -> CampaignFingerprint {
    results
        .into_iter()
        .map(|pair| {
            (
                pair.origin,
                pair.target,
                pair.result.paths,
                pair.result.iterations,
                pair.result.empty_iterations,
                pair.pull_overhead,
            )
        })
        .collect()
}

/// The campaign facade equals the hand-rolled loop it replaces: one `PdWorkflow` per
/// pair, each on its own copy of the warm base, harvested in pair order. (Disjoint
/// per-pair algorithm-id ranges mirror what the campaign does internally — publishers of
/// one origin into the shared store must not collide, and the reference must publish the
/// same ids to fetch the same modules.)
#[test]
fn pd_campaign_equals_manual_sequential_snapshot_loop() {
    let base = warm_base();
    let pairs = pairs(&base);
    assert_eq!(
        campaign(&base, pairs.clone()),
        deep_clone_loop(&base, &pairs)
    );
}

/// Campaign runs never mutate the shared base: registered paths, clock and delivery
/// accounting stay untouched, so one warm base can serve many campaigns in a row.
#[test]
fn pd_campaign_leaves_the_base_simulation_untouched() {
    let base = warm_base();
    let before_paths = base.registered_paths();
    let before_rounds = base.rounds_run();
    let before_stats = base.delivery_stats();
    for _ in 0..2 {
        PdCampaign::new(pairs(&base), MAX_PATHS)
            .with_rounds_per_iteration(ROUNDS_PER_ITERATION)
            .run(&base)
            .expect("campaign run");
    }
    assert_eq!(base.registered_paths(), before_paths);
    assert_eq!(base.rounds_run(), before_rounds);
    assert_eq!(base.delivery_stats(), before_stats);
}

/// The campaign's copy-on-write snapshots reproduce the deep-clone loop byte for byte.
#[test]
fn cow_snapshots_match_deep_clone_across_the_matrix() {
    let base = warm_base();
    let pairs = pairs(&base);
    let deep = deep_clone_loop(&base, &pairs);
    assert!(
        deep.iter().any(|(_, _, paths, ..)| !paths.is_empty()),
        "the campaign must discover paths"
    );
    // The oracle is only meaningful if the pull pipeline actually runs: at least one pair
    // must iterate past its HD seeds and originate pull beacons.
    assert!(
        deep.iter()
            .any(|(_, _, _, iterations, _, pull_overhead)| *iterations > 0
                && !pull_overhead.is_empty()),
        "no pair ran a pull iteration — raise MAX_PATHS above the HD seed count"
    );
    assert_eq!(
        campaign(&base, pairs),
        deep,
        "COW and deep-clone campaigns diverged"
    );
}

/// On a disconnected topology, the reachability pre-pass restricts each pair's snapshot
/// to the origin's connected component — and the campaign output still matches the
/// deep-clone loop, which keeps every node. The other component's ASes can never exchange
/// a message with the origin's component, so leaving them out is unobservable in the
/// campaign fingerprint.
#[test]
fn reachability_restricted_snapshots_match_deep_clone_on_disconnected_topology() {
    // Component A: a diamond 1 — {2, 4} — 3 (two disjoint 1↔3 paths, so the pull
    // workflow has something to discover); component B: 10 — 11. No links across.
    let latency = Latency::from_millis(10);
    let bandwidth = Bandwidth::from_mbps(100);
    let topology = Arc::new(
        TopologyBuilder::new()
            .with_as(1, Tier::Tier2)
            .with_as(2, Tier::Tier2)
            .with_as(3, Tier::Tier2)
            .with_as(4, Tier::Tier2)
            .with_as(10, Tier::Tier2)
            .with_as(11, Tier::Tier2)
            .link(1, 2, latency, bandwidth)
            .link(2, 3, latency, bandwidth)
            .link(1, 4, latency, bandwidth)
            .link(4, 3, latency, bandwidth)
            .link(10, 11, latency, bandwidth)
            .build(),
    );
    let mut base = Simulation::new(topology, SimulationConfig::default(), |_| {
        NodeConfig::default()
            .with_racs(vec![
                RacConfig::static_rac("HD", "HD"),
                RacConfig::on_demand_rac("on-demand"),
            ])
            // All links here are peer links; the default valley-free policy would block
            // every peer→peer export and nothing would propagate.
            .with_policy(irec_core::PropagationPolicy::All)
    })
    .expect("simulation setup");
    base.run_rounds(WARM_ROUNDS).expect("warm-up rounds");

    // The pre-pass sees exactly component A from AS 1, component B from AS 10.
    let component_a: Vec<AsId> = base.reachable_component(AsId(1)).into_iter().collect();
    assert_eq!(component_a, vec![AsId(1), AsId(2), AsId(3), AsId(4)]);
    let component_b: Vec<AsId> = base.reachable_component(AsId(10)).into_iter().collect();
    assert_eq!(component_b, vec![AsId(10), AsId(11)]);

    // Pairs inside each component; cross-component pairs cannot discover anything, which
    // both modes must agree on too.
    let pairs = vec![
        (AsId(1), AsId(3)),
        (AsId(3), AsId(1)),
        (AsId(10), AsId(11)),
        (AsId(1), AsId(11)), // unreachable target: must converge empty in both modes
    ];
    let cow = campaign(&base, pairs.clone());
    assert_eq!(
        cow,
        deep_clone_loop(&base, &pairs),
        "restricted COW snapshot diverged from deep clone"
    );
    assert!(
        cow.iter().any(|(_, _, paths, ..)| !paths.is_empty()),
        "in-component pairs must discover paths"
    );
}
