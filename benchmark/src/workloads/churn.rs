//! `churn_5sp`: the layers of `beacon_5sp` used the other way round — withdrawal sweeps,
//! purges, evictions, node re-joins and `forget_egress` beside inserts. A gain bought by
//! making deletes or invalidations slower shows here. The churn engine's convergence and
//! no-blackhole invariants are the workload's built-in correctness check: a violated
//! invariant fails the run.

use super::{sim_nodes, simulation_layers, IngressCounts, Layers, Pass, TracedPass};
use crate::digest::{digest_of, PlaneOutputs};
use crate::trace::{Recorder, NO_PARENT};
use crate::{gen, host};
use irec_core::{NodeConfig, PropagationPolicy, RacConfig};
use irec_sim::{
    ChurnConfig, ChurnEngine, ChurnGenerator, ChurnStep, InvariantChecker, Simulation,
    SimulationConfig,
};
use irec_types::{AsId, IrecError, Result};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Size {
    pub ases: usize,
    /// Rounds run during set-up, so churn hits a converged plane.
    pub warmup_rounds: usize,
    pub steps: usize,
    /// Expected deltas per step.
    pub rate: f64,
}

/// Settle rounds per step that `wall_s` is reported at. How many rounds a step needs to
/// settle is the system's decision, not the workload's, so the window is scaled to a fixed
/// number of them: host time per simulated round × a nominal number of rounds.
pub const NOMINAL_SETTLE_ROUNDS_PER_STEP: usize = 2;

/// Seconds per settle round, and the window scaled to the nominal number of rounds.
fn per_round_and_nominal(window_s: f64, steps: &[ChurnStep]) -> (f64, f64) {
    let settle_rounds: usize = steps.iter().map(|s| s.settle_rounds).sum();
    let round_s = window_s / settle_rounds.max(1) as f64;
    (
        round_s,
        round_s * (NOMINAL_SETTLE_ROUNDS_PER_STEP * steps.len()) as f64,
    )
}

fn node_config(_: AsId) -> NodeConfig {
    NodeConfig::default()
        .with_policy(PropagationPolicy::All)
        .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
}

/// The warmed-up plane and the churn timeline. The warm-up runs here, outside the engine
/// (`warmup_rounds = 0`), so it counts as set-up.
fn warm_plane(seed: u64, size: &Size) -> Result<(Simulation, ChurnConfig)> {
    let topology = Arc::new(gen::topology(size.ases, seed));
    let mut sim = Simulation::new(topology, SimulationConfig::default(), node_config)?;
    sim.run_rounds(size.warmup_rounds)?;
    // The timeline keeps the engine's default stream: AS and link ids are handed out tier
    // by tier, so one stream hits the same kind of AS or link on every topology and the
    // seed decides only how that AS or link happens to be wired.
    let config = ChurnConfig::default()
        .with_rate(size.rate)
        .with_warmup_rounds(0);
    Ok((sim, config))
}

fn churn_digest(steps: &[ChurnStep], sim: &Simulation) -> String {
    digest_of(&[
        format!("{steps:?}"),
        PlaneOutputs::of_simulation(sim).digest(),
    ])
}

fn churn_layers(layers: &mut Layers, steps: &[ChurnStep], sim: &Simulation) {
    simulation_layers(layers, sim);
    layers.insert(
        "sim.churn.settle_rounds",
        steps.iter().map(|s| s.settle_rounds).sum::<usize>() as f64,
    );
    layers.insert(
        "sim.churn.deltas",
        steps.iter().map(|s| s.deltas.len()).sum::<usize>() as f64,
    );
    let delivery = sim.delivery_stats();
    layers.insert(
        "sim.delivery.dropped_no_node",
        delivery.dropped_no_node as f64,
    );
    layers.insert(
        "sim.delivery.dropped_link_down",
        delivery.dropped_link_down as f64,
    );
    IngressCounts::of(sim_nodes(sim)).insert_into(layers);
}

pub fn pass(seed: u64, size: &Size) -> Result<Pass> {
    let setup = Instant::now();
    let (mut sim, config) = warm_plane(seed, size)?;
    let mut engine = ChurnEngine::new(config, node_config);
    let setup_s = setup.elapsed().as_secs_f64();
    let rss_after_setup_mb = host::rss_mb();

    let timed = Instant::now();
    let report = engine.run(&mut sim, size.steps)?;
    let window_s = timed.elapsed().as_secs_f64();

    let mut layers = Layers::new();
    churn_layers(&mut layers, &report.steps, &sim);
    let (round_s, wall_s) = per_round_and_nominal(window_s, &report.steps);
    Ok(Pass {
        setup_s,
        wall_s,
        // The window over the settle rounds it ran: what one settle round costs.
        steps_ms: vec![round_s * 1e3],
        failed: 0,
        digest: churn_digest(&report.steps, &sim),
        layers,
        rss_after_setup_mb,
    })
}

/// `ChurnEngine::run`'s step loop rebuilt from its public pieces — draw, apply, settle,
/// check — with a span around each.
pub fn traced_pass(seed: u64, size: &Size) -> Result<TracedPass> {
    let (mut sim, config) = warm_plane(seed, size)?;
    let mut generator = ChurnGenerator::new(config);
    let mut engine = ChurnEngine::new(config, node_config);
    let mut rec = Recorder::new();
    let mut steps = Vec::with_capacity(size.steps);

    let timed = Instant::now();
    let checker = InvariantChecker::capture(&sim);
    for step in 0..size.steps {
        let span = rec.open("sim.churn.step", NO_PARENT, step as u32, 0);
        let round = sim.rounds_run();
        let before = sim.delivery_stats();
        let count = generator.step_delta_count();
        let mut deltas = Vec::with_capacity(count);
        for _ in 0..count {
            let Some(delta) = generator.draw_delta(&sim) else {
                break;
            };
            let apply = rec.open("sim.churn.apply_delta", span, step as u32, 0);
            let applied = engine.apply_delta(&mut sim, delta);
            rec.close(apply);
            applied?;
            deltas.push(delta);
        }

        let settle = rec.open("sim.churn.settle", span, step as u32, 0);
        let mut previous = sim.registered_paths();
        let mut settle_rounds = None;
        for settle_round in 1..=config.convergence_budget {
            sim.run_rounds(1)?;
            let current = sim.registered_paths();
            if current == previous && checker.check_no_blackhole(&sim).is_ok() {
                settle_rounds = Some(settle_round);
                break;
            }
            previous = current;
        }
        rec.close(settle);
        rec.close(span);
        let Some(settle_rounds) = settle_rounds else {
            checker.check_no_blackhole(&sim)?;
            return Err(IrecError::internal(format!(
                "step {step} did not converge within {} settle rounds",
                config.convergence_budget
            )));
        };
        let after = sim.delivery_stats();
        steps.push(ChurnStep {
            step,
            round,
            deltas,
            settle_rounds,
            dropped_no_node: after.dropped_no_node - before.dropped_no_node,
            dropped_link_down: after.dropped_link_down - before.dropped_link_down,
            delivered: after.delivered - before.delivered,
        });
    }
    let (_, wall_s) = per_round_and_nominal(timed.elapsed().as_secs_f64(), &steps);

    let mut layers = Layers::new();
    churn_layers(&mut layers, &steps, &sim);
    layers.insert(
        "sim.churn.apply_delta_ns",
        rec.total("sim.churn.apply_delta") as f64,
    );
    layers.insert("sim.churn.settle_ns", rec.total("sim.churn.settle") as f64);
    Ok(TracedPass {
        wall_s,
        failed: 0,
        digest: churn_digest(&steps, &sim),
        layers,
        budget_share: None,
        recorder: rec,
    })
}
