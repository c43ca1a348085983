//! The churn engine: applies generated deltas between rounds and settles the plane.

use super::generator::MIN_LIVE_NODES;
use super::invariants::InvariantChecker;
use super::{ChurnConfig, ChurnDelta, ChurnGenerator};
use crate::simulation::Simulation;
use irec_algorithms::incremental::SelectionDelta;
use irec_core::{NodeConfig, RacConfig};
use irec_types::{AsId, IrecError, Result};

/// The outcome of one churn step: the deltas applied and how the plane absorbed them.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnStep {
    /// Zero-based step index.
    pub step: usize,
    /// Simulation round count when the step's deltas were applied.
    pub round: u64,
    /// The deltas applied, in application order.
    pub deltas: Vec<ChurnDelta>,
    /// Rounds the settle loop ran before the registered-path set reached steady state and
    /// the no-blackhole check passed. `1` means the plane was already steady.
    pub settle_rounds: usize,
    /// Messages dropped during the step (purged or addressed to a missing node).
    pub dropped_no_node: u64,
    /// Messages dropped during the step because their emitting link endpoint was down.
    pub dropped_link_down: u64,
    /// Messages delivered during the step.
    pub delivered: u64,
}

impl ChurnStep {
    /// All messages lost to churn during this step.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_no_node + self.dropped_link_down
    }
}

/// The outcome of a full churn run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnReport {
    /// Per-step records, in order.
    pub steps: Vec<ChurnStep>,
}

impl ChurnReport {
    /// Total deltas applied across all steps.
    pub fn total_deltas(&self) -> usize {
        self.steps.iter().map(|step| step.deltas.len()).sum()
    }

    /// Total messages lost to churn across all steps.
    pub fn total_dropped(&self) -> u64 {
        self.steps.iter().map(ChurnStep::dropped_total).sum()
    }
}

/// Applies a seeded churn timeline to a simulation, one step at a time: draw the step's
/// deltas from the [`ChurnGenerator`], execute them between rounds, then run settle rounds
/// until the registered-path set is steady *and* the [`InvariantChecker`]'s no-blackhole
/// invariant holds — or fail once the config's convergence budget is exhausted.
///
/// The engine needs two pieces of configuration beyond the [`ChurnConfig`]: a node-config
/// factory (what a re-joining AS boots with, for `NodeJoin`) and an optional cycle of RAC
/// catalogs (what a `CatalogSwap` installs; with no catalogs the swap rebuilds the node's
/// current catalog — caches reset, behavior unchanged).
pub struct ChurnEngine<F>
where
    F: Fn(AsId) -> NodeConfig,
{
    generator: ChurnGenerator,
    node_config: F,
    catalogs: Vec<Vec<RacConfig>>,
    catalog_cursor: usize,
}

impl<F> ChurnEngine<F>
where
    F: Fn(AsId) -> NodeConfig,
{
    /// Creates an engine for `config`; `node_config` builds the configuration of any AS
    /// the timeline re-adds.
    pub fn new(config: ChurnConfig, node_config: F) -> Self {
        ChurnEngine {
            generator: ChurnGenerator::new(config),
            node_config,
            catalogs: Vec::new(),
            catalog_cursor: 0,
        }
    }

    /// Builder-style: the RAC catalogs `CatalogSwap` deltas cycle through, in order.
    #[must_use]
    pub fn with_catalogs(mut self, catalogs: Vec<Vec<RacConfig>>) -> Self {
        self.catalogs = catalogs;
        self
    }

    /// The engine's churn config.
    pub fn config(&self) -> &ChurnConfig {
        self.generator.config()
    }

    /// Runs `steps` churn steps against `sim`: warmup rounds first (so churn hits a
    /// converged plane and the no-blackhole baseline is meaningful), then per step
    /// draw → apply → settle → check. Returns the per-step report, or the first invariant
    /// violation as an error.
    pub fn run(&mut self, sim: &mut Simulation, steps: usize) -> Result<ChurnReport> {
        let config = *self.generator.config();
        sim.run_rounds(config.warmup_rounds)?;
        let checker = InvariantChecker::capture(sim);
        let mut report = ChurnReport { steps: Vec::new() };
        for step in 0..steps {
            let round = sim.rounds_run();
            let stats_before = sim.delivery_stats();
            let count = self.generator.step_delta_count();
            let mut deltas = Vec::with_capacity(count);
            for _ in 0..count {
                let Some(delta) = self.generator.draw_delta(sim) else {
                    break;
                };
                self.apply_delta(sim, delta)?;
                deltas.push(delta);
            }
            let settle_rounds = self.settle(sim, &checker, &config)?;
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

    /// Executes one delta against the simulation. Generated deltas are applicable by
    /// construction; this also accepts hand-built timelines (the staged-migration tests)
    /// and surfaces their errors.
    ///
    /// Returns the [`SelectionDelta`] describing the delta's blast radius on kept
    /// selections, for callers that keep selection state of their own. Nothing inside the
    /// simulation depends on this return: every structural hook the arms below call
    /// ([`Simulation::set_link_down`], [`Simulation::remove_node`], ...) announces the same
    /// delta to [`crate::SelectionInvalidation`] observers itself, and the nodes need no
    /// telling.
    pub fn apply_delta(
        &mut self,
        sim: &mut Simulation,
        delta: ChurnDelta,
    ) -> Result<SelectionDelta> {
        match delta {
            ChurnDelta::LinkDown(link) => {
                let l = sim.topology().link(link)?;
                let endpoints = vec![(l.a.asn, l.a.interface), (l.b.asn, l.b.interface)];
                sim.set_link_down(link)?;
                // Withdraw the stale beacons, or selection keeps re-picking them and the
                // plane stays blackholed past any budget (see
                // `Simulation::withdraw_traversing_link`).
                sim.withdraw_traversing_link(link)?;
                Ok(SelectionDelta::Link(endpoints))
            }
            ChurnDelta::LinkUp(link) => {
                sim.set_link_up(link)?;
                // Re-sync the restored adjacency: messages emitted while the link was
                // down were dropped *after* the egress dedup marked them sent, so without
                // forgetting those marks current selections would never be re-sent across
                // the link and it would stay unused forever.
                let l = sim.topology().link(link)?;
                let endpoints = [(l.a.asn, l.a.interface), (l.b.asn, l.b.interface)];
                for (asn, ifid) in endpoints {
                    if let Ok(node) = sim.node_mut(asn) {
                        node.forget_egress(ifid);
                    }
                }
                Ok(SelectionDelta::Link(endpoints.to_vec()))
            }
            ChurnDelta::NodeLeave(asn) => {
                if sim.live_ases().len() <= MIN_LIVE_NODES {
                    return Err(IrecError::config(format!(
                        "refusing to remove {asn}: only {MIN_LIVE_NODES} nodes left"
                    )));
                }
                sim.remove_node(asn)
                    .map(|_| ())
                    .ok_or_else(|| IrecError::not_found(format!("no node to remove for {asn}")))?;
                sim.withdraw_traversing_as(asn);
                Ok(SelectionDelta::As(asn))
            }
            ChurnDelta::NodeJoin(asn) => {
                sim.add_node(asn, (self.node_config)(asn))?;
                Ok(SelectionDelta::As(asn))
            }
            ChurnDelta::CatalogSwap(asn) => {
                let catalog = if self.catalogs.is_empty() {
                    sim.node(asn)?.config().racs.clone()
                } else {
                    let catalog = self.catalogs[self.catalog_cursor % self.catalogs.len()].clone();
                    self.catalog_cursor += 1;
                    catalog
                };
                sim.swap_rac_catalog(asn, catalog)?;
                Ok(SelectionDelta::All)
            }
        }
    }

    /// Runs rounds until the registered-path set is identical between two consecutive
    /// rounds *and* the no-blackhole invariant holds, returning how many rounds that took.
    /// A plane that is stable but still blackholed keeps settling — stale paths age out
    /// and fresh propagation repairs it — until the budget declares the step failed.
    fn settle(
        &self,
        sim: &mut Simulation,
        checker: &InvariantChecker,
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
        // Distinguish the two failure modes in the error: a plane that never went steady
        // versus one that is steady but blackholed.
        checker.check_no_blackhole(sim)?;
        Err(IrecError::internal(format!(
            "convergence violated: registered paths still changing after {} settle rounds",
            config.convergence_budget
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnKinds;
    use crate::simulation::SimulationConfig;
    use irec_core::PropagationPolicy;
    use irec_topology::builder::{figure1, figure1_topology};
    use std::sync::Arc;

    fn node_config(_: AsId) -> NodeConfig {
        NodeConfig::default()
            .with_policy(PropagationPolicy::All)
            .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
    }

    fn sim() -> Simulation {
        Simulation::new(
            Arc::new(figure1_topology()),
            SimulationConfig::default(),
            node_config,
        )
        .unwrap()
    }

    #[test]
    fn full_timeline_converges_with_invariants() {
        let mut sim = sim();
        let config = ChurnConfig::default().with_rate(1.0).with_seed(3);
        let mut engine = ChurnEngine::new(config, node_config);
        let report = engine.run(&mut sim, 6).unwrap();
        assert_eq!(report.steps.len(), 6);
        assert!(report.total_deltas() >= 1);
        for step in &report.steps {
            assert!(step.settle_rounds <= config.convergence_budget);
        }
    }

    #[test]
    fn zero_rate_applies_no_deltas_and_stays_steady() {
        let mut sim = sim();
        let mut engine = ChurnEngine::new(ChurnConfig::default().with_rate(0.0), node_config);
        let report = engine.run(&mut sim, 3).unwrap();
        assert_eq!(report.total_deltas(), 0);
        assert_eq!(report.total_dropped(), 0);
        for step in &report.steps {
            assert_eq!(
                step.settle_rounds, 1,
                "an unchurned plane is already steady"
            );
        }
    }

    #[test]
    fn node_flap_restores_reachability() {
        let mut sim = sim();
        let mut engine = ChurnEngine::new(ChurnConfig::default().with_rate(0.0), node_config);
        sim.run_rounds(6).unwrap();
        let checker = InvariantChecker::capture(&sim);
        engine
            .apply_delta(&mut sim, ChurnDelta::NodeLeave(figure1::X))
            .unwrap();
        engine
            .apply_delta(&mut sim, ChurnDelta::NodeJoin(figure1::X))
            .unwrap();
        sim.run_rounds(8).unwrap();
        checker.check_no_blackhole(&sim).unwrap();
        assert!((sim.connectivity() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn catalog_swaps_cycle_and_leave_paths_usable() {
        let mut sim = sim();
        let config = ChurnConfig::default()
            .with_rate(1.0)
            .with_kinds("catalog-swap".parse::<ChurnKinds>().unwrap());
        let mut engine = ChurnEngine::new(config, node_config).with_catalogs(vec![
            vec![RacConfig::static_rac("5SP", "5SP")],
            vec![
                RacConfig::static_rac("5SP", "5SP"),
                RacConfig::static_rac("widest", "widest"),
            ],
        ]);
        let report = engine.run(&mut sim, 4).unwrap();
        assert_eq!(report.total_deltas(), 4);
        assert!(report
            .steps
            .iter()
            .all(|step| matches!(step.deltas[..], [ChurnDelta::CatalogSwap(_)])));
    }

    #[test]
    fn apply_delta_surfaces_bad_timelines() {
        let mut sim = sim();
        let mut engine = ChurnEngine::new(ChurnConfig::default(), node_config);
        assert!(engine
            .apply_delta(&mut sim, ChurnDelta::NodeJoin(figure1::X))
            .is_err());
        assert!(engine
            .apply_delta(&mut sim, ChurnDelta::LinkDown(irec_types::LinkId(u64::MAX)))
            .is_err());
        sim.remove_node(figure1::X).unwrap();
        assert!(engine
            .apply_delta(&mut sim, ChurnDelta::CatalogSwap(figure1::X))
            .is_err());
    }
}
