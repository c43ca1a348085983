//! `pd_pull`: the pull-based disjointness campaign — the "end domains express criteria"
//! pillar. On-demand IRVM algorithms travel inside PCBs, targets return pull beacons,
//! every pair runs on a copy-on-write snapshot and registers at the path service. It uses
//! `sim` and `core` differently from the beacon workloads: many short re-runs over an
//! almost unchanged ingress database, so selection reuse or snapshot cost shows here and
//! nowhere else.

use super::{sim_nodes, simulation_layers, IngressCounts, Layers, Pass, TracedPass};
use crate::digest::digest_of;
use crate::trace::{Recorder, NO_PARENT};
use crate::{gen, host};
use irec_core::{NodeConfig, RacConfig};
use irec_sim::{PdCampaign, PdPairResult, PdWorkflow, Simulation, SimulationConfig};
use irec_types::{AsId, IrecError, Result};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Size {
    pub ases: usize,
    /// Rounds run during set-up, so HD has seeded paths for the workflows to start from.
    pub warmup_rounds: usize,
    /// Seeded non-self `(origin, target)` pairs.
    pub pairs: usize,
    pub max_paths: usize,
    pub rounds_per_iteration: usize,
}

/// Pairs that must have run at least one pull iteration for a pass to count.
const MIN_PULLING_PAIRS: usize = 2;

/// Pull iterations per pair that `wall_s` is reported at. How many iterations a pair runs
/// is the workflow's decision (it stops after two fruitless ones), not the workload's, so
/// the window is scaled to a fixed number of them: host time per pull iteration × a
/// nominal number of iterations.
pub const NOMINAL_ITERATIONS_PER_PAIR: usize = 3;

/// The warmed-up base simulation and the campaign's pairs: the first `size.pairs` pairs, in
/// seeded order, whose origin does not yet hold `max_paths` HD paths to the target — a
/// workflow seeded with a full path set has nothing left to pull.
fn warm_base(seed: u64, size: &Size) -> Result<(Simulation, Vec<(AsId, AsId)>)> {
    let topology = Arc::new(gen::topology(size.ases, seed));
    let order = gen::pd_pair_order(&topology.as_ids(), seed);
    let mut sim = Simulation::new(topology, SimulationConfig::default(), |_| {
        NodeConfig::default().with_racs(vec![
            RacConfig::static_rac("HD", "HD"),
            RacConfig::on_demand_rac("on-demand"),
        ])
    })?;
    sim.run_rounds(size.warmup_rounds)?;
    let mut pairs = Vec::with_capacity(size.pairs);
    for (origin, target) in order {
        if pairs.len() == size.pairs {
            break;
        }
        if sim
            .node(origin)?
            .path_service()
            .paths_to_by(target, "HD")
            .len()
            < size.max_paths
        {
            pairs.push((origin, target));
        }
    }
    Ok((sim, pairs))
}

/// The window scaled from the iterations the pairs ran to the nominal number.
fn nominal_wall_s(window_s: f64, results: &[PdPairResult]) -> f64 {
    let iterations: usize = results.iter().map(|r| r.result.iterations).sum();
    window_s / iterations.max(1) as f64 * (NOMINAL_ITERATIONS_PER_PAIR * results.len()) as f64
}

/// What a pair produced, without its wall time.
fn pair_fingerprint(pair: &PdPairResult) -> String {
    format!(
        "{:?}->{:?} {:?} {:?}",
        pair.origin, pair.target, pair.result, pair.pull_overhead
    )
}

fn check_pulling(results: &[PdPairResult], size: &Size) -> Result<()> {
    let pulling = results.iter().filter(|r| r.result.iterations > 0).count();
    if pulling < MIN_PULLING_PAIRS.min(size.pairs) {
        return Err(IrecError::internal(format!(
            "only {pulling} of {} pairs ran a pull iteration",
            results.len()
        )));
    }
    Ok(())
}

fn campaign_layers(layers: &mut Layers, results: &[PdPairResult]) {
    let iterations: usize = results.iter().map(|r| r.result.iterations).sum();
    let empty: usize = results.iter().map(|r| r.result.empty_iterations).sum();
    layers.insert("sim.pd.iterations", iterations as f64);
    layers.insert(
        "sim.pd.empty_share",
        empty as f64 / iterations.max(1) as f64,
    );
    layers.insert(
        "sim.pd.pull_pcbs",
        results
            .iter()
            .flat_map(|r| r.pull_overhead.iter())
            .sum::<u64>() as f64,
    );
    layers.insert(
        "sim.pd.pair_ns",
        results
            .iter()
            .map(|r| r.elapsed.as_nanos() as f64)
            .sum::<f64>(),
    );
}

pub fn pass(seed: u64, size: &Size) -> Result<Pass> {
    let setup = Instant::now();
    let (base, pairs) = warm_base(seed, size)?;
    let campaign =
        PdCampaign::new(pairs, size.max_paths).with_rounds_per_iteration(size.rounds_per_iteration);
    let setup_s = setup.elapsed().as_secs_f64();
    let rss_after_setup_mb = host::rss_mb();

    let timed = Instant::now();
    let results = campaign.run(&base)?;
    let wall_s = nominal_wall_s(timed.elapsed().as_secs_f64(), &results);
    check_pulling(&results, size)?;

    let mut layers = Layers::new();
    simulation_layers(&mut layers, &base);
    campaign_layers(&mut layers, &results);
    Ok(Pass {
        setup_s,
        wall_s,
        // A pair's wall over the rounds it ran: what one more round costs a pull workflow.
        steps_ms: results
            .iter()
            .filter(|r| r.result.iterations > 0)
            .map(|r| {
                r.elapsed.as_secs_f64() * 1e3
                    / (r.result.iterations * size.rounds_per_iteration) as f64
            })
            .collect(),
        failed: 0,
        digest: digest_of(&results.iter().map(pair_fingerprint).collect::<Vec<_>>()),
        layers,
        rss_after_setup_mb,
    })
}

/// The campaign's pair loop rebuilt from its public pieces, with a span around the
/// snapshot and around the workflow. The per-pair algorithm-id base mirrors
/// `PdCampaign`'s (1 000 + index × 1 000 000): the ids end up inside signed PCBs, so the
/// outputs depend on them.
pub fn traced_pass(seed: u64, size: &Size) -> Result<TracedPass> {
    let (base, pairs) = warm_base(seed, size)?;
    let mut rec = Recorder::new();
    let mut results = Vec::with_capacity(pairs.len());
    let mut layers = Layers::new();
    let base_ingress = IngressCounts::of(sim_nodes(&base));
    let mut ingress = IngressCounts::default();

    let timed = Instant::now();
    for (index, &(origin, target)) in pairs.iter().enumerate() {
        let pair = rec.open("sim.pd.pair", NO_PARENT, index as u32, origin.value());
        let snapshot = rec.open("sim.pd.snapshot", pair, index as u32, origin.value());
        let mut sim = base.snapshot_reachable_from(origin).into_simulation();
        rec.close(snapshot);
        let workflow = rec.open("sim.pd.workflow", pair, index as u32, origin.value());
        let result = PdWorkflow::new(origin, target, size.max_paths)
            .with_rounds_per_iteration(size.rounds_per_iteration)
            .with_algorithm_id_base(1_000 + index as u64 * 1_000_000)
            .run(&mut sim);
        rec.close(workflow);
        let elapsed = std::time::Duration::from_nanos(rec.close(pair));
        ingress.add_growth(base_ingress, IngressCounts::of(sim_nodes(&sim)));
        results.push(PdPairResult {
            origin,
            target,
            result: result?,
            pull_overhead: sim.overhead_pull().nonzero_samples(),
            self_pair: false,
            elapsed,
        });
    }
    let wall_s = nominal_wall_s(timed.elapsed().as_secs_f64(), &results);
    check_pulling(&results, size)?;

    simulation_layers(&mut layers, &base);
    campaign_layers(&mut layers, &results);
    layers.insert("sim.pd.snapshot_ns", rec.total("sim.pd.snapshot") as f64);
    ingress.insert_into(&mut layers);
    Ok(TracedPass {
        wall_s,
        failed: 0,
        digest: digest_of(&results.iter().map(pair_fingerprint).collect::<Vec<_>>()),
        layers,
        budget_share: None,
        recorder: rec,
    })
}
