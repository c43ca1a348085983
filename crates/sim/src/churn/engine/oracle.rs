//! The churn engine's oracle: the settle loop and the no-blackhole check as they were when
//! every settle round cloned the whole plane's registered paths (`registered_paths()`) and
//! compared two vectors, and the check scanned every registered path for every baseline
//! pair. They share nothing with the code under test but the simulation's public surface,
//! the engine's generator and `apply_delta`.
//!
//! The properties run generated timelines — several topology and churn seeds, rates from
//! half a delta to two deltas per step, with and without a catalog cycle, every delta kind
//! enabled, 12 to 30 ASes — through the engine and through the reference loop, and compare
//! the reports; round by round they compare the engine's per-node view with a fresh
//! `registered_paths()` and both checks' verdicts; and they force a blackhole and compare
//! the error text.

use super::*;
use crate::churn::ChurnKinds;
use crate::simulation::SimulationConfig;
use irec_core::PropagationPolicy;
use irec_topology::{GeneratorConfig, TopologyGenerator};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The no-blackhole check as a scan of the whole plane per baseline pair.
struct ReferenceChecker {
    baseline: Vec<(AsId, AsId)>,
}

impl ReferenceChecker {
    fn capture(sim: &Simulation) -> Self {
        let mut pairs: BTreeSet<(AsId, AsId)> = BTreeSet::new();
        for path in sim.registered_paths() {
            pairs.insert((path.holder, path.origin));
        }
        ReferenceChecker {
            baseline: pairs.into_iter().collect(),
        }
    }

    fn check_no_blackhole(&self, sim: &Simulation) -> Result<()> {
        let paths = sim.registered_paths();
        let mut holder: Option<(AsId, BTreeSet<AsId>)> = None;
        for &(a, b) in &self.baseline {
            if !sim.has_node(a) || !sim.has_node(b) {
                continue;
            }
            if holder.as_ref().map(|(cached, _)| *cached) != Some(a) {
                holder = Some((a, InvariantChecker::live_reachable(sim, a)));
            }
            let reachable = &holder.as_ref().expect("computed above").1;
            if !reachable.contains(&b) {
                continue;
            }
            let usable = paths.iter().any(|path| {
                path.holder == a
                    && path.origin == b
                    && path
                        .links
                        .iter()
                        .all(|&(asn, ifid)| sim.has_node(asn) && !sim.is_endpoint_down(asn, ifid))
            });
            if !usable {
                return Err(IrecError::internal(format!(
                    "no-blackhole violated: {a} has no usable registered path to live, \
                     reachable {b}"
                )));
            }
        }
        Ok(())
    }
}

/// `ChurnEngine::run` with the clone-and-compare settle loop and the scanning check.
fn reference_run<F>(
    engine: &mut ChurnEngine<F>,
    sim: &mut Simulation,
    steps: usize,
) -> Result<ChurnReport>
where
    F: Fn(AsId) -> NodeConfig,
{
    let config = *engine.generator.config();
    sim.run_rounds(config.warmup_rounds)?;
    let checker = ReferenceChecker::capture(sim);
    let mut report = ChurnReport { steps: Vec::new() };
    for step in 0..steps {
        let round = sim.rounds_run();
        let stats_before = sim.delivery_stats();
        let count = engine.generator.step_delta_count();
        let mut deltas = Vec::with_capacity(count);
        for _ in 0..count {
            let Some(delta) = engine.generator.draw_delta(sim) else {
                break;
            };
            engine.apply_delta(sim, delta)?;
            deltas.push(delta);
        }
        let settle_rounds = reference_settle(sim, &checker, &config)?;
        let stats_after = sim.delivery_stats();
        report.steps.push(ChurnStep {
            step,
            round,
            deltas,
            settle_rounds,
            dropped_no_node: stats_after.dropped_no_node - stats_before.dropped_no_node,
            dropped_link_down: stats_after.dropped_link_down - stats_before.dropped_link_down,
            delivered: stats_after.delivered - stats_before.delivered,
        });
    }
    Ok(report)
}

fn reference_settle(
    sim: &mut Simulation,
    checker: &ReferenceChecker,
    config: &ChurnConfig,
) -> Result<usize> {
    let mut previous = sim.registered_paths();
    for settle_round in 1..=config.convergence_budget {
        sim.run_rounds(1)?;
        let current = sim.registered_paths();
        let steady = current == previous;
        if steady && checker.check_no_blackhole(sim).is_ok() {
            return Ok(settle_round);
        }
        previous = current;
    }
    checker.check_no_blackhole(sim)?;
    Err(IrecError::internal(format!(
        "convergence violated: registered paths still changing after {} settle rounds",
        config.convergence_budget
    )))
}

fn node_config(_: AsId) -> NodeConfig {
    NodeConfig::default()
        .with_policy(PropagationPolicy::All)
        .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
}

fn generated_sim(ases: usize, seed: u64) -> Simulation {
    let topology = TopologyGenerator::new(GeneratorConfig {
        num_ases: ases,
        seed,
        ..Default::default()
    })
    .generate();
    Simulation::new(Arc::new(topology), SimulationConfig::default(), node_config).unwrap()
}

/// Every kind, link flaps weighted up: a generated topology has far more links than
/// nodes, and a downed link is what leaves stale registrations behind.
fn kinds() -> ChurnKinds {
    ChurnKinds {
        link_down: 3,
        link_up: 2,
        ..ChurnKinds::default()
    }
}

fn engine(config: ChurnConfig, catalog_cycle: bool) -> ChurnEngine<fn(AsId) -> NodeConfig> {
    let engine = ChurnEngine::new(config, node_config as fn(AsId) -> NodeConfig);
    if catalog_cycle {
        engine.with_catalogs(vec![
            vec![
                RacConfig::static_rac("1SP", "1SP"),
                RacConfig::static_rac("5SP", "5SP"),
            ],
            vec![RacConfig::static_rac("5SP", "5SP")],
        ])
    } else {
        engine
    }
}

fn kind_of(delta: &ChurnDelta) -> &'static str {
    match delta {
        ChurnDelta::LinkDown(_) => "link-down",
        ChurnDelta::LinkUp(_) => "link-up",
        ChurnDelta::NodeLeave(_) => "node-leave",
        ChurnDelta::NodeJoin(_) => "node-join",
        ChurnDelta::CatalogSwap(_) => "catalog-swap",
    }
}

#[test]
fn generated_timelines_report_what_the_clone_and_compare_loop_reports() {
    // (ASes, topology seed, churn seed, rate, catalog cycle, steps)
    let cases = [
        (12, 1, 3, 2.0, false, 6),
        (16, 2, 5, 1.0, true, 5),
        (20, 3, 7, 0.5, true, 4),
        (30, 5, 13, 2.0, false, 3),
    ];
    let mut seen = BTreeSet::new();
    for (ases, topology_seed, churn_seed, rate, catalog_cycle, steps) in cases {
        let config = ChurnConfig::default()
            .with_rate(rate)
            .with_seed(churn_seed)
            .with_kinds(kinds())
            .with_warmup_rounds(0);
        // One warm-up for both sides: the engine runs none of its own.
        let mut sim = generated_sim(ases, topology_seed);
        sim.run_rounds(4).unwrap();
        let mut reference_sim = sim.clone();
        let report = engine(config, catalog_cycle)
            .run(&mut sim, steps)
            .map_err(|e| e.to_string());
        let expected = reference_run(
            &mut engine(config, catalog_cycle),
            &mut reference_sim,
            steps,
        )
        .map_err(|e| e.to_string());
        assert_eq!(
            report, expected,
            "{ases} ASes, topology seed {topology_seed}, churn seed {churn_seed}"
        );
        assert_eq!(sim.registered_paths(), reference_sim.registered_paths());
        let report = report.unwrap();
        assert!(
            report.steps.iter().any(|step| step.settle_rounds > 1),
            "a timeline that never unsettles the plane tests nothing"
        );
        seen.extend(
            report
                .steps
                .iter()
                .flat_map(|s| s.deltas.iter().map(kind_of)),
        );
    }
    assert_eq!(
        seen,
        BTreeSet::from([
            "catalog-swap",
            "link-down",
            "link-up",
            "node-join",
            "node-leave"
        ]),
        "every delta kind must be drawn"
    );
}

#[test]
fn the_view_and_the_check_follow_the_plane_round_by_round() {
    let config = ChurnConfig::default()
        .with_rate(2.0)
        .with_seed(21)
        .with_kinds(kinds());
    let mut sim = generated_sim(14, 8);
    let mut engine = engine(config, true);
    sim.run_rounds(4).unwrap();
    let checker = InvariantChecker::capture(&sim);
    let reference = ReferenceChecker::capture(&sim);
    assert_eq!(checker.baseline(), &reference.baseline[..]);
    let mut view = PlaneView::default();
    let mut previous = Vec::new();
    let (mut changes, mut violations) = (0, 0);
    for _ in 0..6 {
        for _ in 0..engine.generator.step_delta_count() {
            if let Some(delta) = engine.generator.draw_delta(&sim) {
                engine.apply_delta(&mut sim, delta).unwrap();
            }
        }
        for _ in 0..4 {
            let current = sim.registered_paths();
            let changed = view.refresh(&sim);
            assert_eq!(changed, current != previous);
            changes += usize::from(changed);
            let copied: Vec<RegisteredPath> = view.by_node.values().flatten().cloned().collect();
            assert_eq!(copied, current);
            let verdict = checker.check_no_blackhole(&sim).map_err(|e| e.to_string());
            assert_eq!(
                verdict,
                reference
                    .check_no_blackhole(&sim)
                    .map_err(|e| e.to_string())
            );
            violations += usize::from(verdict.is_err());
            previous = current;
            sim.run_rounds(1).unwrap();
        }
    }
    assert!(changes > 6, "the timeline must keep changing registrations");
    assert!(
        violations > 0,
        "the timeline must open a blackhole now and then"
    );
}

/// The setup of `severed_pairs_are_excused_but_stale_paths_are_not`: AS1 keeps only
/// provider paths to AS3, the provider link goes down, AS3 stays reachable over a peer
/// detour no stored path takes.
#[test]
fn a_forced_blackhole_fails_with_the_reference_error() {
    let ten_ms = irec_types::Latency::from_millis(10);
    let mbps100 = irec_types::Bandwidth::from_mbps(100);
    let mut sim = Simulation::new(
        Arc::new(
            irec_topology::TopologyBuilder::new()
                .with_ases([1, 2, 3, 4])
                .provider_link(2, 1, ten_ms, mbps100)
                .provider_link(2, 3, ten_ms, mbps100)
                .link(1, 4, ten_ms, mbps100)
                .link(4, 3, ten_ms, mbps100)
                .build(),
        ),
        SimulationConfig::default(),
        |_| {
            NodeConfig::default()
                .with_policy(PropagationPolicy::ValleyFree)
                .with_racs(vec![RacConfig::static_rac("1SP", "1SP")])
        },
    )
    .unwrap();
    sim.run_rounds(6).unwrap();
    let checker = InvariantChecker::capture(&sim);
    let reference = ReferenceChecker::capture(&sim);
    assert_eq!(checker.baseline(), &reference.baseline[..]);
    checker.check_no_blackhole(&sim).unwrap();
    let links3: BTreeSet<_> = sim.topology().links_of(AsId(3)).into_iter().collect();
    let provider_link = *sim
        .topology()
        .links_of(AsId(2))
        .iter()
        .find(|id| links3.contains(id))
        .expect("AS2-AS3 link exists");
    sim.set_link_down(provider_link).unwrap();
    let error = checker.check_no_blackhole(&sim).unwrap_err().to_string();
    assert_eq!(
        error,
        reference.check_no_blackhole(&sim).unwrap_err().to_string()
    );
    assert!(error.contains("no-blackhole violated"), "{error}");
}
