//! Acceptance tests for delta-driven re-selection over a churning plane: a seeded
//! [`ChurnGenerator`] timeline is applied to a live simulation via
//! [`ChurnEngine::apply_delta`], and after every step a reader that keeps its own
//! [`SelectionTables`] per AS — cursors into that AS's ingress database, exactly what the
//! node itself keeps — selects over every node's database through
//! [`execute_racs_cached`]. Its outputs must equal the from-scratch [`execute_racs`] over
//! the same database, beacon for beacon, while the counters prove that batches the step
//! left alone were *reused* and batches that only grew were *extended*, not recomputed.
//!
//! The reader never looks at the [`SelectionDelta`]s the engine returns: link flaps,
//! withdrawal sweeps, node leaves and re-joins reach it only through the ingress
//! databases' change stamps, which is the point — no invalidation protocol carries
//! correctness.

use irec_algorithms::incremental::{IncrementalStats, SelectionDelta};
use irec_core::{
    execute_racs, execute_racs_cached, NodeConfig, PropagationPolicy, Rac, RacConfig,
    SelectionTables,
};
use irec_sim::{ChurnConfig, ChurnEngine, ChurnGenerator, Simulation, SimulationConfig};
use irec_topology::{GeneratorConfig, TopologyGenerator};
use irec_types::{AsId, IfId};
use std::collections::BTreeMap;
use std::sync::Arc;

const ASES: usize = 10;
const STEPS: usize = 4;

fn node_config(_: AsId) -> NodeConfig {
    NodeConfig::default()
        .with_policy(PropagationPolicy::All)
        .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
}

fn simulation(seed: u64) -> Simulation {
    let config = GeneratorConfig {
        num_ases: ASES,
        seed,
        ..Default::default()
    };
    Simulation::new(
        Arc::new(TopologyGenerator::new(config).generate()),
        SimulationConfig::default(),
        node_config,
    )
    .expect("simulation setup")
}

/// The reader's side: one RAC catalog (a scored algorithm that extends, HD that does not)
/// and one set of tables per AS it has looked at.
struct Reader {
    racs: Vec<Rac>,
    tables: BTreeMap<AsId, SelectionTables>,
}

impl Reader {
    fn new() -> Self {
        Reader {
            racs: ["5SP", "HD"]
                .iter()
                .map(|name| Rac::new_static(RacConfig::static_rac(*name, *name)).unwrap())
                .collect(),
            tables: BTreeMap::new(),
        }
    }

    /// One delta-driven pass over every live node's database, each checked against the
    /// from-scratch pass over the same database.
    fn assert_matches_from_scratch(&mut self, sim: &Simulation) {
        for asn in sim.live_ases() {
            let db = sim.node(asn).expect("live node").ingress().db();
            let local_as = sim.topology().as_node(asn).expect("AS in topology");
            let egress: Vec<IfId> = local_as.interfaces.keys().copied().collect();
            let (reference, _) =
                execute_racs(&self.racs, db, local_as, &egress, sim.now(), 1).unwrap();
            let tables = self.tables.entry(asn).or_default();
            let (batches, _) =
                execute_racs_cached(&self.racs, db, local_as, &egress, sim.now(), tables).unwrap();
            let selected: Vec<_> = batches
                .iter()
                .flat_map(|batch| batch.selected.iter().map(move |selected| (batch, selected)))
                .collect();
            assert_eq!(reference.len(), selected.len(), "selection count at {asn}");
            for (want, (batch, got)) in reference.iter().zip(selected) {
                assert_eq!(*want.rac_name, *batch.rac_name, "at {asn}");
                assert_eq!(want.origin, batch.origin, "at {asn}");
                assert_eq!(want.egress_ifs[..], got.egress_ifs[..], "at {asn}");
                assert!(
                    Arc::ptr_eq(&want.beacon, &got.beacon),
                    "delta-driven selection diverged from the from-scratch pass at {asn} \
                     for origin {}",
                    want.origin
                );
                assert_eq!(got.pcb_id, got.beacon.pcb.digest());
            }
        }
    }

    fn stats(&self) -> IncrementalStats {
        let mut total = IncrementalStats::default();
        for tables in self.tables.values() {
            total.accumulate(tables.stats());
        }
        total
    }
}

/// The headline property over three seeded timelines: per churn step the delta-driven
/// pass equals the from-scratch pass everywhere; a second pass over the unchanged plane
/// is pure reuse; and across the timeline batches are both reused and extended.
#[test]
fn delta_reselection_matches_from_scratch_over_churn_timeline() {
    for seed in 0..3u64 {
        let mut sim = simulation(seed);
        sim.run_rounds(3).expect("warmup rounds");
        let config = ChurnConfig::default().with_rate(1.0).with_seed(seed);
        let mut generator = ChurnGenerator::new(config);
        let mut engine = ChurnEngine::new(config, node_config);
        let mut reader = Reader::new();

        // Baseline pass: nothing kept yet, everything computed.
        reader.assert_matches_from_scratch(&sim);
        let baseline = reader.stats();
        assert!(
            baseline.recomputed > 0,
            "warmup must produce candidate batches"
        );
        assert_eq!(baseline.reused + baseline.extended, 0);

        let mut applied = 0usize;
        for _ in 0..STEPS {
            for _ in 0..generator.step_delta_count() {
                let Some(delta) = generator.draw_delta(&sim) else {
                    break;
                };
                let _unused: SelectionDelta =
                    engine.apply_delta(&mut sim, delta).expect("delta applies");
                applied += 1;
            }
            sim.run_rounds(2).expect("settle rounds");
            // First pass after the step: re-selects whatever the deltas' sweeps and the
            // rounds' fresh beacons touched, equal to the from-scratch pass everywhere.
            reader.assert_matches_from_scratch(&sim);
            let after_step = reader.stats();
            // Second pass over the unchanged plane: the tables answer everything.
            reader.assert_matches_from_scratch(&sim);
            let after_repeat = reader.stats();
            assert_eq!(
                (after_repeat.recomputed, after_repeat.extended),
                (after_step.recomputed, after_step.extended),
                "an unchanged plane must be served entirely from the tables (seed {seed})"
            );
            assert!(after_repeat.reused > after_step.reused);
        }
        assert!(applied > 0, "a rate-1.0 timeline must draw deltas");
        let stats = reader.stats();
        assert!(
            stats.extended > 0,
            "settle rounds deliver fresh beacons into standing batches (seed {seed})"
        );
        assert_eq!(stats.invalidated, 0, "nobody told the reader anything");
    }
}

/// The conservative answer to a change nobody analysed — a catalog swap maps to
/// `SelectionDelta::All` — is to drop everything: the next pass recomputes every batch,
/// still equal to the from-scratch pass.
#[test]
fn clearing_the_tables_recomputes_everything() {
    let mut sim = simulation(9);
    sim.run_rounds(3).expect("warmup rounds");
    let mut reader = Reader::new();
    reader.assert_matches_from_scratch(&sim);
    let computed = reader.stats().recomputed;
    let dropped: usize = reader.tables.values_mut().map(SelectionTables::clear).sum();
    assert_eq!(dropped, computed, "every computed batch had an entry");
    assert!(reader.tables.values().all(SelectionTables::is_empty));
    reader.assert_matches_from_scratch(&sim);
    let stats = reader.stats();
    assert_eq!(stats.recomputed, 2 * computed);
    assert_eq!((stats.reused, stats.invalidated), (0, dropped));
}
